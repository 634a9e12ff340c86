"""Outside-in tracing: spans around calls into the program's layers.

No file of the program is edited.  A traced run replaces each public
callable where its caller looks it up -- the module that did
``from x import f`` binds ``f`` locally, so the wrapper goes on that
importing module, and methods go on their class -- with a wrapper that
records a span: name, start, end, parent span and op id.  Spans stay
in memory, in columns, and are written out as one file when the run
ends.  A span's self time is its duration minus the time its child
spans cover; calls are serial, so children never overlap.

Counts come from what the program returns: ``SyncResult``,
``MarkerInflateResult``, ``PugzReport``, ``RandomAccessReport``,
``SeekStats`` and ``_cached_decoder.cache_info()``.
"""

from __future__ import annotations

import json
import statistics
from array import array
from time import perf_counter

#: Every per-layer metric, with its unit, in report order.  A metric
#: whose layer does not run on a workload reads 0 there (ratios too).
#: Layer time is a share of the timed ops' wall time (``.pct``), not
#: seconds, so that a layer that does not run reads 0 %, never a
#: constant 0 s; ``trace.op_s`` is that wall time, and the results file
#: and the printed lines carry each layer's seconds.  ``index.*_pct``
#: are shares of the median set-up instead, where those calls run.
PER_LAYER = (
    ("sync.calls", "count"),
    ("sync.pct", "%"),
    ("sync.candidates", "count"),
    ("sync.cand_per_ms", "1/ms"),
    ("sync.strict_probes", "count"),
    ("sync.prescreen_pass_pct", "%"),
    ("sync.confirm_pct", "%"),
    ("huffman.cache_hit_pct", "%"),
    ("huffman.cache_misses", "count"),
    ("marker.calls", "count"),
    ("marker.pct", "%"),
    ("marker.out_mb", "MB"),
    ("marker.mb_s", "MB/s"),
    ("marker.residual_pct", "%"),
    ("kernel.blocks", "count"),
    ("kernel.fallback_pct", "%"),
    ("translate.pct", "%"),
    ("pugz.self_pct", "%"),
    ("crc.pct", "%"),
    ("crc.mb_s", "MB/s"),
    ("seq.pct", "%"),
    ("seq.count", "count"),
    ("inflate.calls", "count"),
    ("inflate.pct", "%"),
    ("inflate.out_mb", "MB"),
    ("inflate.mb_s", "MB/s"),
    ("zran.reads", "count"),
    ("zran.read_pct", "%"),
    ("zran.decoded_mb", "MB"),
    ("zran.waste_ratio", "x"),
    ("zran.compressed_read_mb", "MB"),
    ("index.build_pct", "%"),
    ("index.save_pct", "%"),
    ("index.load_pct", "%"),
    ("index.sidecar_kb", "KiB"),
    ("index.checkpoints", "count"),
    ("io.preads", "count"),
    ("io.pread_pct", "%"),
    ("io.pread_mb", "MB"),
    ("trace.op_s", "s"),
    ("trace.coverage_min_pct", "%"),
)

#: (module, attribute, span name): the import sites of the public
#: functions each layer exposes.
FUNCTION_SITES = (
    ("repro.core.chunking", "find_block_start", "sync"),
    ("repro.core.random_access", "find_block_start", "sync"),
    ("repro.core.sync", "inflate", "sync.probe"),
    ("repro.core.pugz", "marker_inflate", "marker"),
    ("repro.core.random_access", "marker_inflate", "marker"),
    ("repro.core.pugz", "translate_chunk_counted", "translate"),
    ("repro.core.pugz", "crc32", "crc"),
    ("repro.core.random_access", "extract_sequences", "seq"),
    ("repro.index.zran", "inflate", "inflate"),
    ("repro.index.zran", "build_index", "index.build"),
)

#: (module, class, method, span name).
METHOD_SITES = (
    ("repro.index.zran", "GzipIndex", "read_at", "zran.read"),
    ("repro.index.zran", "GzipIndex", "save", "index.save"),
    ("repro.index.zran", "GzipIndex", "load", "index.load"),
    ("repro.io.source", "ByteSource", "pread", "io.pread"),
    ("repro.perf.npkernel", "StreamKernel", "decode_block", "kernel"),
)

#: Every module holding a traced site; a traced run imports them all,
#: so a layer a workload reaches only through a late import is wrapped.
SITE_MODULES = tuple(sorted({site[0] for site in FUNCTION_SITES + METHOD_SITES}))

_MB = 1e6


class Tracer:
    """In-memory span recorder plus the counters read off return values."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        #: Op id stamped on new spans; set-up repetition k uses -(k + 1).
        self.op_id = -1
        #: Counters over the timed ops only.
        self.counts: dict[str, float] = {}

    def count(self, key: str, n: float = 1) -> None:
        if self.op_id >= 0:
            self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` recorded as span ``name``; a raise counts as ``name.raised``."""
        name_id = self._name_id(name)
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(i)
                self.count(f"{name}.raised.{type(exc).__name__}")
                raise
            self._close(i)
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def run_op(self, op_id: int, name: str, fn):
        """Call ``fn()`` as the op span ``name`` of op ``op_id``."""
        self.op_id = op_id
        i = self._open(self._name_id(name))
        try:
            return fn()
        finally:
            self._close(i)

    def install(self, modules: dict) -> None:
        """Wrap every traced site in freshly imported ``modules``.

        A site the program no longer has is skipped: its metrics read 0
        and ``trace.coverage_min_pct`` shows the time no span covers.
        """
        for mod, attr, name in FUNCTION_SITES:
            if hasattr(modules.get(mod), attr):
                m = modules[mod]
                setattr(m, attr, self.wrap(name, getattr(m, attr)))
        for mod, cls_name, attr, name in METHOD_SITES:
            cls = getattr(modules.get(mod), cls_name, None)
            if cls is not None and attr in cls.__dict__:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, raw))

    # -- reduction ------------------------------------------------------

    def summarize(self, op_name: str) -> dict:
        """Per span name over the timed ops: ``calls``, ``busy_s`` and the
        set-up median ``setup_s``; plus ``children``, (duration, time its
        direct children cover) for each op span ``op_name``."""
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        setup: list[list[float]] = [[] for _ in self.names]
        op_name_id = self._ids.get(op_name)
        covered: dict[int, float] = {}
        for i in range(len(self.start)):
            d = self.end[i] - self.start[i]
            n = self.name[i]
            if self.op[i] < 0:
                setup[n].append(d)
                continue
            calls[n] += 1
            busy[n] += d
            if n == op_name_id:
                covered.setdefault(i, 0.0)
            if self.parent[i] >= 0 and self.name[self.parent[i]] == op_name_id:
                covered[self.parent[i]] = covered.get(self.parent[i], 0.0) + d
        return {
            "calls": dict(zip(self.names, calls)),
            "busy_s": dict(zip(self.names, busy)),
            "setup_s": {k: statistics.median(v) for k, v in zip(self.names, setup) if v},
            "children": [(self.end[i] - self.start[i], cov) for i, cov in covered.items()],
        }

    def write(self, path: str) -> None:
        """All spans as one JSON file: columns, times in microseconds."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": list(self.name),
                    "start_us": [round((t - t0) * 1e6) for t in self.start],
                    "end_us": [round((t - t0) * 1e6) for t in self.end],
                    "parent": list(self.parent),
                    "op": list(self.op),
                },
                fh,
            )


# -- counters read off return values -----------------------------------


def _after_sync(tr: Tracer, result, args) -> None:
    tr.count("sync.candidates", result.candidates_tried)
    tr.count("sync.confirmed")


def _after_marker(tr: Tracer, result, args) -> None:
    tr.count("marker.out", result.total_output)


def _after_crc(tr: Tracer, result, args) -> None:
    tr.count("crc.bytes", len(args[0]))


def _after_seq(tr: Tracer, result, args) -> None:
    tr.count("seq.count", len(result))


def _after_inflate(tr: Tracer, result, args) -> None:
    tr.count("inflate.out", len(result.data))


def _after_pread(tr: Tracer, result, args) -> None:
    tr.count("io.pread.bytes", len(result))


_AFTER = {
    "sync": _after_sync,
    "marker": _after_marker,
    "crc": _after_crc,
    "seq": _after_seq,
    "inflate": _after_inflate,
    "io.pread": _after_pread,
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tr: Tracer, op_name: str, extra: dict) -> dict:
    """Every :data:`PER_LAYER` metric over the timed ops, as
    ``{name: {"value", "unit", "seconds"}}`` (``seconds`` on shares).

    ``extra`` carries what the workload read off its own return values
    and program state: ``markers``/``symbols`` (op reports),
    ``cache_hits``/``cache_misses`` (Huffman LRU deltas), the
    ``SeekStats`` deltas ``decoded``/``compressed``/``returned``, the
    sidecar's ``sidecar_bytes``/``checkpoints``, and ``setup_s``, the
    median set-up.
    """
    c = tr.counts
    summary = tr.summarize(op_name)
    calls, busy, setup = summary["calls"], summary["busy_s"], summary["setup_s"]
    children = summary["children"]
    op_s = busy.get(op_name, 0.0)
    seconds: dict[str, float] = {}

    def share(metric: str, span: str) -> float:
        seconds[metric] = busy.get(span, 0.0)
        return _ratio(seconds[metric], op_s, 100)

    def setup_share(metric: str, span: str) -> float:
        seconds[metric] = setup.get(span, 0.0)
        return _ratio(seconds[metric], extra["setup_s"], 100)

    m: dict[str, float] = {}
    m["sync.calls"] = calls.get("sync", 0)
    m["sync.pct"] = share("sync.pct", "sync")
    m["sync.candidates"] = c.get("sync.candidates", 0)
    m["sync.cand_per_ms"] = _ratio(m["sync.candidates"], seconds["sync.pct"] * 1e3)
    m["sync.strict_probes"] = calls.get("sync.probe", 0)
    m["sync.prescreen_pass_pct"] = _ratio(m["sync.strict_probes"], m["sync.candidates"], 100)
    m["sync.confirm_pct"] = _ratio(c.get("sync.confirmed", 0), m["sync.strict_probes"], 100)
    hits, misses = extra.get("cache_hits", 0), extra.get("cache_misses", 0)
    m["huffman.cache_hit_pct"] = _ratio(hits, hits + misses, 100)
    m["huffman.cache_misses"] = misses
    m["marker.calls"] = calls.get("marker", 0)
    m["marker.pct"] = share("marker.pct", "marker")
    m["marker.out_mb"] = c.get("marker.out", 0) / _MB
    m["marker.mb_s"] = _ratio(m["marker.out_mb"], seconds["marker.pct"])
    m["marker.residual_pct"] = _ratio(extra.get("markers", 0), extra.get("symbols", 0), 100)
    m["kernel.blocks"] = calls.get("kernel", 0)
    m["kernel.fallback_pct"] = _ratio(c.get("kernel.raised.Fallback", 0), m["kernel.blocks"], 100)
    m["translate.pct"] = share("translate.pct", "translate")
    # pugz's self time: its op span minus the layer spans under it.
    seconds["pugz.self_pct"] = (
        sum(total - cov for total, cov in children) if op_name == "op.decompress" else 0.0
    )
    m["pugz.self_pct"] = _ratio(seconds["pugz.self_pct"], op_s, 100)
    m["crc.pct"] = share("crc.pct", "crc")
    m["crc.mb_s"] = _ratio(c.get("crc.bytes", 0) / _MB, seconds["crc.pct"])
    m["seq.pct"] = share("seq.pct", "seq")
    m["seq.count"] = c.get("seq.count", 0)
    m["inflate.calls"] = calls.get("inflate", 0)
    m["inflate.pct"] = share("inflate.pct", "inflate")
    m["inflate.out_mb"] = c.get("inflate.out", 0) / _MB
    m["inflate.mb_s"] = _ratio(m["inflate.out_mb"], seconds["inflate.pct"])
    m["zran.reads"] = calls.get("zran.read", 0)
    m["zran.read_pct"] = share("zran.read_pct", "zran.read")
    m["zran.decoded_mb"] = extra.get("decoded", 0) / _MB
    m["zran.waste_ratio"] = _ratio(extra.get("decoded", 0), extra.get("returned", 0))
    m["zran.compressed_read_mb"] = extra.get("compressed", 0) / _MB
    m["index.build_pct"] = setup_share("index.build_pct", "index.build")
    m["index.save_pct"] = setup_share("index.save_pct", "index.save")
    m["index.load_pct"] = setup_share("index.load_pct", "index.load")
    m["index.sidecar_kb"] = extra.get("sidecar_bytes", 0) / 1024
    m["index.checkpoints"] = extra.get("checkpoints", 0)
    m["io.preads"] = calls.get("io.pread", 0)
    m["io.pread_pct"] = share("io.pread_pct", "io.pread")
    m["io.pread_mb"] = c.get("io.pread.bytes", 0) / _MB
    m["trace.op_s"] = op_s
    m["trace.coverage_min_pct"] = min(
        (_ratio(cov, total, 100) for total, cov in children), default=0.0
    )
    out = {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}
    for name, sec in seconds.items():
        out[name]["seconds"] = sec
    return out
