"""Per-layer report for every workload, with the cost of tracing.

    python3 perfbench/layers.py [--seed N] [--seconds S]

Runs each workload twice, each time in a fresh process from the
repository root: untraced (``--trace 0``) and traced (``--trace 1``),
same seed.  Prints every per-layer metric by name and unit, one column
per workload, then the tracing overhead: each end-to-end metric of the
traced run against the untraced one.  What each metric should move is
in ``LAYERS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from spans import PER_LAYER
from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(".perfbench", "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    args = p.parse_args(argv)
    names = list(WORKLOADS)
    plain, traced = {}, {}
    for w in names:  # each pair back to back, so both see one period of the host
        plain[w] = _run(w, args.seed, args.seconds, 0)
        traced[w] = _run(w, args.seed, args.seconds, 1)

    head = f"{'metric':<26}{'unit':<7}" + "".join(f"{w:>14}" for w in names)
    print(head)
    for metric, unit in PER_LAYER:
        row = "".join(f"{traced[w]['per_layer'][metric]['value']:>14.6g}" for w in names)
        print(f"{metric:<26}{unit:<7}{row}")

    print("\ntracing overhead: traced / untraced - 1, per end-to-end metric")
    print(head)
    for metric, m in plain[names[0]]["end_to_end"].items():
        cells = []
        for w in names:
            base = plain[w]["end_to_end"][metric]["value"]
            cells.append(traced[w]["end_to_end"][metric]["value"] / base - 1 if base else 0.0)
        print(f"{metric:<26}{m['unit']:<7}" + "".join(f"{c:>+14.1%}" for c in cells))
    failed = sum(r["failed"] for r in list(plain.values()) + list(traced.values()))
    print(f"\nfailed ops over all runs: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
