"""The three workloads: inputs, op lists, set-up, ops and output checks.

Each workload is a closed loop of one client thread: the next op starts
when the previous one returns.  Its op list is a pure function of the
seed and the op count, never of elapsed time.  An op costs much of
what a position sets: how far an access offset, or a decompressed
file's payload midpoint, lies before the next DEFLATE block start (the
sync scan), how far a pread lies past its checkpoint (the decode from
it).  Those positions are stratified: op ``i`` gets one of ``n`` equal
slices of the block or of the file, in a seeded order, so each run sees
the same spread of costs and a run's median does not depend on how a
few random draws fell.
"""

from __future__ import annotations

import os

import numpy as np

from fastq import describe, fastq_text, gzip_split_at_phase, gzip_with_blocks

#: Fixed input for set-up warm-ups, independent of ``--seed`` so that
#: set-up does the same work on every run.
WARM_SEED = 0x5E7
ACCESS_CAP = 256 << 10
PREAD_SIZE = 4096
SPAN = 1 << 20
#: A determined run this long is text, not chance, when it matches.
MIN_RUN = 32


def _stratified(rng, n: int) -> np.ndarray:
    """``n`` points in [0, 1), one per equal slice, in a random order."""
    return (rng.permutation(n) + rng.random(n)) / n


class _Workload:
    #: Values read off the program once, for the per-layer report.
    facts: dict = {}

    def close(self) -> None:
        """Release what set-up opened."""


class Decompress(_Workload):
    """``pugz -t 2 --verify``: Table II / Figure 5 on a 2-core box."""

    name = "decompress"
    op_name = "op.decompress"
    modules = ("repro.core.pugz",)
    #: Ops per second of ``--seconds``, measured at the commit that added
    #: the benchmark.
    rate = 0.85
    #: File size.  The second chunk's sync scan runs from the payload
    #: midpoint to the next block start, up to a third of an op.  Where
    #: the midpoint falls in its block is stratified, so each run sees
    #: the same spread of op costs and the median latency moves with the
    #: share of time the host spends in its fast and slow states rather
    #: than jumping between them.
    text_bytes = 2 << 20
    #: Range of text lengths, centred on ``text_bytes``, within which the
    #: midpoint is placed: enough to move it over a whole block.
    slack = 192 << 10

    def __init__(self, seed: int, n_ops: int, workdir: str) -> None:
        phases = _stratified(np.random.default_rng([seed, 3]), n_ops)
        self.texts, self.gzs = [], []
        for i, phase in enumerate(phases.tolist()):
            text = fastq_text(self.text_bytes + self.slack // 2, [seed, i])
            text, gz = gzip_split_at_phase(text, self.text_bytes - self.slack // 2, phase)
            self.texts.append(text)
            self.gzs.append(gz)
        self.inputs = [
            describe(f"decompress-{i:02d}", text, gz)
            for i, (text, gz) in enumerate(zip(self.texts, self.gzs))
        ]
        self.warm_text = fastq_text(512 << 10, [WARM_SEED])
        self.warm_gz, _ = gzip_with_blocks(self.warm_text)

    def prepare(self, mods: dict) -> None:
        self.pugz = mods["repro.core.pugz"]
        out, _ = self._decompress(self.warm_gz)
        if out != self.warm_text:
            raise RuntimeError("warm-up decompression returned wrong bytes")

    def _decompress(self, gz: bytes):
        return self.pugz.pugz_decompress(
            gz, n_chunks=2, executor="serial", verify=True, return_report=True
        )

    def op(self, i: int):
        return self._decompress(self.gzs[i])

    def check(self, i: int, result) -> tuple[bool, int]:
        out, _ = result
        return out == self.texts[i], len(out)

    def observe(self, result, extra: dict) -> None:
        _, report = result
        extra["markers"] = extra.get("markers", 0) + sum(report.chunk_marker_counts)
        extra["symbols"] = extra.get("symbols", 0) + sum(report.chunk_output_sizes)


class Access(_Workload):
    """Index-free random access (Table I), interleaved over several files."""

    name = "access"
    op_name = "op.access"
    modules = ("repro.core.random_access",)
    rate = 1.5
    n_files = 4
    text_bytes = 4 << 20
    #: Blocks after the sync point needed for a full-cap decode plus the
    #: five confirmation blocks (blocks hold ~72 KB of text here).
    tail_blocks = 10

    def __init__(self, seed: int, n_ops: int, workdir: str) -> None:
        texts = [fastq_text(self.text_bytes, [seed, 100 + f]) for f in range(self.n_files)]
        self.files = [(text, *gzip_with_blocks(text)) for text in texts]
        self.inputs = [
            describe(f"access-{f}", text, gz) for f, (text, gz, _) in enumerate(self.files)
        ]
        rng = np.random.default_rng([seed, 1])
        phases = _stratified(rng, n_ops)
        # (file, compressed offset, lowest expected sync bit) per op:
        # the offset lies in block b, past its start, so the first
        # block start at or after it is block b + 1's.
        self.ops = []
        for i in range(n_ops):
            ends = self.files[i % self.n_files][2]
            b = int(rng.integers(0, len(ends) - self.tail_blocks))
            lo, hi = ends[b] + 2, ends[b + 1] - 1
            offset = lo + int(phases[i] * (hi - lo))
            self.ops.append((i % self.n_files, offset, 8 * ends[b + 1]))
        self.warm_text = fastq_text(1 << 20, [WARM_SEED])
        self.warm_gz, warm_ends = gzip_with_blocks(self.warm_text)
        self.warm_offset = (warm_ends[1] + warm_ends[2]) // 2

    def prepare(self, mods: dict) -> None:
        ra = mods["repro.core.random_access"]
        self.access = ra.random_access_sequences
        # The report holds positions, not bytes: keep the symbols of the
        # op's one marker decode to check them against the text.
        decode = ra.marker_inflate

        def tap(*args, **kwargs):
            self.last_decode = decode(*args, **kwargs)
            return self.last_decode

        ra.marker_inflate = tap
        self.access(self.warm_gz, self.warm_offset, max_output=ACCESS_CAP)
        if not _runs_in_text(self.last_decode.symbols, self.warm_text):
            raise RuntimeError("warm-up access returned bytes not in its text")

    def op(self, i: int):
        f, offset, _ = self.ops[i]
        self.last_decode = None
        report = self.access(self.files[f][1], offset, max_output=ACCESS_CAP)
        return report, self.last_decode

    def check(self, i: int, result) -> tuple[bool, int]:
        report, decode = result
        f, _, sync_lo = self.ops[i]
        ok = (
            sync_lo <= report.sync_bit < sync_lo + 16
            and decode is not None
            and report.decompressed == len(decode.symbols) > 0
            and _runs_in_text(decode.symbols, self.files[f][0])
        )
        return ok, report.decompressed

    def observe(self, result, extra: dict) -> None:
        report, _ = result
        extra["markers"] = extra.get("markers", 0) + report.residual_markers
        extra["symbols"] = extra.get("symbols", 0) + report.decompressed


class Seek(_Workload):
    """4 KiB preads through the zran index of a path-backed gzip file."""

    name = "seek"
    op_name = "op.seek"
    modules = ("repro.index.zran", "repro.index.seekable")
    rate = 9.0
    text_bytes = 4 << 20

    def __init__(self, seed: int, n_ops: int, workdir: str) -> None:
        self.text = fastq_text(self.text_bytes, [seed, 200])
        gz, _ = gzip_with_blocks(self.text)
        self.inputs = [describe("seek", self.text, gz)]
        self.path = os.path.join(workdir, "seek.fastq.gz")
        self.sidecar = self.path + ".idx"
        with open(self.path, "wb") as fh:
            fh.write(gz)
        rng = np.random.default_rng([seed, 2])
        top = len(self.text) - PREAD_SIZE
        self.offsets = [int(p * top) for p in _stratified(rng, n_ops)]
        self.reader = None

    def prepare(self, mods: dict) -> None:
        """``repro index build`` defaults (sequential, 1 MiB span), then
        open the reader on the saved sidecar."""
        self.close()
        if os.path.exists(self.sidecar):
            os.remove(self.sidecar)
        index = mods["repro.index.zran"].build_index(self.path, span=SPAN)
        index.save(self.sidecar)
        self.reader = mods["repro.index.seekable"].SeekableGzipReader(
            self.path, index_path=self.sidecar
        )
        if not self.reader.stats.index_loaded:
            raise RuntimeError("the reader did not load the saved sidecar")
        if self.reader.pread(0, PREAD_SIZE) != self.text[:PREAD_SIZE]:
            raise RuntimeError("warm-up pread returned wrong bytes")
        self.facts = {
            "sidecar_bytes": os.path.getsize(self.sidecar),
            "checkpoints": len(index.checkpoints),
        }
        self.seen = self._stats()

    def _stats(self) -> dict:
        s = self.reader.stats
        return {"decoded": s.decoded_bytes, "compressed": s.compressed_bytes_read}

    def op(self, i: int):
        return self.reader.pread(self.offsets[i], PREAD_SIZE)

    def check(self, i: int, result) -> tuple[bool, int]:
        off = self.offsets[i]
        return result == self.text[off : off + PREAD_SIZE], len(result)

    def observe(self, result, extra: dict) -> None:
        extra["returned"] = extra.get("returned", 0) + len(result)
        # SeekStats counts from the reader's open, warm-up included; add
        # what the ops since the last look added.
        now = self._stats()
        for key, value in now.items():
            extra[key] = extra.get(key, 0) + value - self.seen[key]
        self.seen = now

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None


WORKLOADS = {w.name: w for w in (Decompress, Access, Seek)}


def _runs_in_text(symbols: np.ndarray, text: bytes) -> bool:
    """Every maximal run of >= ``MIN_RUN`` determined symbols (< 256)
    occurs verbatim in ``text``.

    Fast path: place the longest run in the text, then compare every
    determined symbol of every long run at the offset that implies.  A
    run that disagrees there is searched for anywhere in the text.
    """
    sym = np.asarray(symbols)
    det = np.concatenate(([False], sym < 256, [False]))
    edges = np.flatnonzero(det[1:] != det[:-1])
    starts, stops = edges[0::2], edges[1::2]
    long_runs = [(a, b) for a, b in zip(starts.tolist(), stops.tolist()) if b - a >= MIN_RUN]
    if not long_runs:
        return True
    as_bytes = sym.astype(np.uint8)
    a, b = max(long_runs, key=lambda r: r[1] - r[0])
    base = text.find(as_bytes[a:b].tobytes()) - a
    for a, b in long_runs:
        run = as_bytes[a:b].tobytes()
        if not (base >= 0 and text[base + a : base + b] == run) and run not in text:
            return False
    return True
