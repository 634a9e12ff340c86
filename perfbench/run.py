"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload decompress|access|seek \\
        --seed N --seconds S --trace 0|1

Run from the repository root: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's layers (see ``spans.py``) and prints the per-layer metrics.
The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

A run makes its inputs from ``--seed`` and runs ``round(seconds * rate)``
ops, a count sized so the timed region lasts about ``--seconds`` at the
commit that defined the benchmark.  It does its set-up ``SETUP_REPS``
times, re-importing the program each time: before the first op, evenly
between the ops and after the last, and reports the median.  Every
op's output is checked.  Latency is the op's wall time scaled to
nominal host speed by the reference work timed before and after it
(``speed.py``); rates divide by the sum of op latencies, so the checks
between ops are not timed.  The results file keeps the raw times too.
``peak_rss_mb`` is the high-water mark over the set-ups and the ops,
restarted once the inputs are built.  Scratch files, results and span
traces go under ``.perfbench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import spans
import speed
from workloads import WORKLOADS

SETUP_REPS = 9
OUT_DIR = ".perfbench"


def _program_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "repro" or n.startswith("repro.")}


def _import(names, optional=()) -> dict:
    for name in names:
        importlib.import_module(name)
    for name in optional:
        try:
            importlib.import_module(name)
        except ModuleNotFoundError:
            pass  # a traced module the program no longer has
    return _program_modules()


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and
    that percentile: the 11th-largest sample."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def run(args) -> dict:
    wl_cls = WORKLOADS[args.workload]
    n_ops = max(1, round(args.seconds * wl_cls.rate))
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = wl_cls(args.seed, n_ops, workdir)
        return measure(args, wl, n_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _reset_peak() -> None:
    """Restart the process's resident-set high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _peak_mb() -> float:
    """Resident-set high-water mark since the last :func:`_reset_peak`."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def measure(args, wl, n_ops: int) -> dict:
    tracer = spans.Tracer() if args.trace else None
    sites = spans.SITE_MODULES if tracer else ()
    _import(wl.modules, sites)  # untimed: compiles bytecode, warms the page cache
    # Set-up k runs before op at[k]; the last one runs after every op.
    # The samples are spread over the run's wall time as the ops are, so
    # their median sees the same mix of host states.
    at = [round(k * n_ops / (SETUP_REPS - 1)) for k in range(SETUP_REPS)]
    setup_s, latencies, failed, delivered, extra = [], [], 0, 0, {}
    raw_setup_s, raw_latencies = [], []
    hits = misses = 0
    peak = {"setup": 0.0, "ops": 0.0}
    ref = speed.Reference()
    gc.collect()
    _reset_peak()
    rss_base = _peak_mb()  # what the benchmark itself holds: inputs, interpreter
    # Each set-up and op is scaled by the reference timings just before
    # and just after it.
    before = ref()
    try:
        for k in range(SETUP_REPS):
            for name in _program_modules():
                del sys.modules[name]
            gc.collect()
            _reset_peak()
            if tracer:
                tracer.op_id = -(k + 1)
            t0 = time.perf_counter()
            mods = _import(wl.modules, sites)
            if tracer:
                tracer.install(mods)
            wl.prepare(mods)
            raw = time.perf_counter() - t0
            after = ref()
            raw_setup_s.append(raw)
            setup_s.append(speed.scale(raw, before, after))
            before = after
            peak["setup"] = max(peak["setup"], _peak_mb())
            if k == SETUP_REPS - 1:
                break

            lru = mods["repro.deflate.huffman"]._cached_decoder
            cache0 = lru.cache_info()
            gc.collect()
            _reset_peak()
            for i in range(at[k], at[k + 1]):
                t0 = time.perf_counter()
                try:
                    if tracer:
                        result = tracer.run_op(i, wl.op_name, lambda: wl.op(i))
                    else:
                        result = wl.op(i)
                    raised = False
                except Exception:  # a failed op is counted, reported and survived
                    traceback.print_exc()
                    raised = True
                raw = time.perf_counter() - t0
                after = ref()
                raw_latencies.append(raw)
                latencies.append(speed.scale(raw, before, after))
                before = after
                try:
                    ok, nbytes = (False, 0) if raised else wl.check(i, result)
                except Exception:  # output too malformed to check
                    traceback.print_exc()
                    ok, nbytes = False, 0
                if ok:
                    delivered += nbytes
                    wl.observe(result, extra)
                else:
                    failed += 1
                    print(f"op {i} failed", file=sys.stderr)
                result = None
                gc.collect()
            peak["ops"] = max(peak["ops"], _peak_mb())
            cache1 = lru.cache_info()
            hits += cache1.hits - cache0.hits
            misses += cache1.misses - cache0.misses
    finally:
        wl.close()

    busy = sum(latencies)
    raw_busy = sum(raw_latencies)
    raw_note = f"raw {{}}; reference median {statistics.median(ref.samples) * 1e3:.2f} ms"
    done = n_ops - failed
    tail_s, tail_pct = tail(latencies)
    raw_tail_s, _ = tail(raw_latencies)
    e2e = {
        "setup_s": (
            statistics.median(setup_s),
            "s",
            f"median of {SETUP_REPS} set-ups spread over the run; "
            + raw_note.format(f"{statistics.median(raw_setup_s):.4g} s"),
        ),
        "mb_s": (
            delivered / 1e6 / busy,
            "MB/s",
            f"{delivered} bytes over {n_ops} ops; " + raw_note.format(f"{delivered / 1e6 / raw_busy:.4g} MB/s"),
        ),
        "ops_s": (
            done / busy,
            "1/s",
            f"{done} ops in {busy:.3f} s; " + raw_note.format(f"{done / raw_busy:.4g} 1/s"),
        ),
        "p50_ms": (
            statistics.median(latencies) * 1e3,
            "ms",
            f"{n_ops} samples; " + raw_note.format(f"{statistics.median(raw_latencies) * 1e3:.4g} ms"),
        ),
        "tail_ms": (
            tail_s * 1e3,
            "ms",
            f"p{tail_pct:.1f}, {n_ops} samples; " + raw_note.format(f"{raw_tail_s * 1e3:.4g} ms"),
        ),
        "peak_rss_mb": (
            max(peak.values()),
            "MB",
            f"set-ups {peak['setup']:.1f}, ops {peak['ops']:.1f}, inputs held {rss_base:.1f}",
        ),
        "ok_pct": (100.0 * done / n_ops, "%", f"{failed} of {n_ops} ops failed"),
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": wl.inputs,
        "setup_samples_s": setup_s,
        "raw_setup_samples_s": raw_setup_s,
        "reference_samples_ms": [t * 1e3 for t in ref.samples],
        "peak_rss_mb": {"setup": peak["setup"], "ops": peak["ops"], "inputs": rss_base},
        "latency_samples_ms": [t * 1e3 for t in latencies],
        "raw_latency_samples_ms": [t * 1e3 for t in raw_latencies],
        "end_to_end": {k: {"value": v, "unit": u, "detail": d} for k, (v, u, d) in e2e.items()},
        "attempted": n_ops,
        "failed": failed,
    }
    if tracer:
        extra.update(wl.facts)
        extra["cache_hits"] = hits
        extra["cache_misses"] = misses
        extra["setup_s"] = statistics.median(setup_s)
        result["per_layer"] = spans.layer_metrics(tracer, wl.op_name, extra)
        os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, "traces", f"{args.workload}-seed{args.seed}.json"))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # The default decode kernel, whatever the caller's environment says.
    os.environ.pop("REPRO_KERNEL", None)

    result = run(args)
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, "results", name), "w") as fh:
        json.dump(result, fh, indent=1)

    for item in result["inputs"]:
        print(
            f"input {item['name']}: {item['text_bytes']} B text, "
            f"{item['gz_bytes']} B gzip, sha256 {item['gz_sha256']}"
        )
    for key, m in result["end_to_end"].items():
        print(f"{key}: {m['value']:.6g} {m['unit']}  ({m['detail']})")
    reported = result["end_to_end"]
    if args.trace:
        for key, m in result["per_layer"].items():
            sec = f"  ({m['seconds']:.6g} s)" if "seconds" in m else ""
            print(f"{key}: {m['value']:.6g} {m['unit']}{sec}")
        reported = result["per_layer"]
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
