"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seconds 25 --seeds 1 2 3 4 5 [--workloads ...] [--trace 0 1]

For every workload and trace setting: each end-to-end metric's median and
its spread, (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). With both trace settings it also prints
the tracing overhead, traced median minus untraced median. Run from the
root of a checkout; every run is a separate run.py process, and
`run_wall_s` is its wall time, set-up included.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import END_TO_END, REPORTED  # noqa: E402
from worker import WORKLOADS  # noqa: E402


def lines(workload, seed, seconds, trace):
    started = time.perf_counter()
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    values = {}
    for line in out[:-1]:
        parts = line.split()  # [traced] <workload> <metric> <value> <unit>
        if len(parts) in (4, 5) and parts[-4] == workload and parts[-3] in {**END_TO_END, **REPORTED}:
            values[parts[-3]] = float(parts[-2])
    values["correct"] = json.loads(out[-1])["correct"]
    values["run_wall_s"] = time.perf_counter() - started
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--trace", type=int, nargs="+", default=[0])
    args = ap.parse_args()
    for workload in args.workloads:
        medians = {}
        for trace in args.trace:
            runs = [lines(workload, seed, args.seconds, trace) for seed in args.seeds]
            print(f"{workload} trace={trace} runs={len(runs)} all correct={all(r['correct'] for r in runs)}")
            for name in [*END_TO_END, *REPORTED, "run_wall_s"]:
                values = [r[name] for r in runs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
                spread = (q3 - q1) / abs(med) if med else float("nan")
                medians[trace, name] = med
                print(f"  {name:20s} median {med:12.6g} spread {spread:7.3f}  "
                      + " ".join(f"{v:.4g}" for v in values))
        if len(args.trace) == 2:
            for name in END_TO_END:
                print(f"  tracing overhead {name:20s} {medians[1, name] - medians[0, name]:+.4g}")


if __name__ == "__main__":
    main()
