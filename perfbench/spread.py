"""Run one workload under several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload cbg-subsets --runs 10

Each run is a fresh ``run.py`` process with its own ``--seed`` (1, 2, ...
unless ``--first-seed`` says otherwise) and ``--seconds`` from
``run_seconds`` in ``BENCHMARK.json`` unless given. For every end-to-end metric it
prints the median, the quartiles from ``statistics.quantiles(values,
n=4)``, and the distance between the quartiles as a share of the median,
next to the metric's bound in ``BENCHMARK.json``: a benchmark is steady
when every spread stays below a third of its bound.
Full run outputs go to ``perfbench/.work/logs``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    logs = ROOT / "perfbench" / ".work" / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - start
        (logs / f"{args.workload}-seed{seed}.log").write_text(out.stdout + out.stderr)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        shown = " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items())
        print(f"seed {seed} ({wall:.0f} s wall) correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
    steady = True
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / q2
        ok = spread < bounds[name] / 3
        steady &= ok
        print(f"{name}: median {q2:.5g}  quartiles {q1:.5g}..{q3:.5g}  "
              f"spread {spread:.2%}  bound {bounds[name]:.0%}  {'ok' if ok else 'WIDE'}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
