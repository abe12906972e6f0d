"""thermops benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds nothing: the package is pure
Python and runs from `src`. Prints every metric by name and unit, then, as
the last line, one JSON object {"correct", "attempted", "failed", "metrics"}
holding the end-to-end metrics (--trace 0) or the per-layer ones
(--trace 1). See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)  # before numpy loads, here and in every child

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUP_RUNS = 3
DEADLINE_S = 170.0


def _environment(root: str, args) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "thermops")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], **versions, "nproc": os.cpu_count(),
        "threads": THREADS, "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "thermops", "__init__.py")):
        print("perfbench: src/thermops not found; run from the root of a thermops checkout", file=sys.stderr)
        return 2
    import worker  # numpy-only at import; the package itself loads in the children
    from gen import question_rng

    if args.workload not in worker.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(worker.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = worker.WORKLOADS[args.workload]
    started = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out_dir = os.path.join(root, ".bench_out")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    try:
        # set-up: a fresh interpreter imports what the workload calls and
        # answers one question of each kind; median of SETUP_RUNS
        questions = [wl.make(question_rng(args.seed, wl.INDEX, i), wl.SLOTS[i]) for i in wl.SETUP]
        with open(os.path.join(work, "setup.pkl"), "wb") as fh:
            pickle.dump(questions, fh)
        setup = []
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "setup", wl.NAME, "setup.pkl"],
                           cwd=work, env=env, check=True, timeout=60)
            setup.append(time.perf_counter() - t0)
        result_path = os.path.join(out_dir, f"result-{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "run", wl.NAME, str(args.seed),
               repr(args.seconds), str(args.trace), os.path.join(work, "result.json")]
        if args.trace:
            cmd.append(os.path.join(out_dir, f"spans-{tag}.jsonl"))
        subprocess.run(cmd, cwd=work, env=env, check=True, timeout=DEADLINE_S - (time.perf_counter() - started))
        with open(os.path.join(work, "result.json")) as fh:
            res = json.load(fh)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import layers

    e2e = dict(res["end_to_end"], setup_s=statistics.median(setup))
    res.update(environment=_environment(root, args), setup_runs_s=setup)
    with open(result_path, "w") as fh:
        json.dump(res, fh, indent=1)
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    label = "traced " if args.trace else ""
    for name, unit in {**layers.END_TO_END, **layers.REPORTED}.items():
        print(f"{label}{args.workload} {name} {e2e[name]:.6g} {unit}")
    print(f"{label}{args.workload} questions {res['attempted']} failed {res['failed']}"
          f" gauges {json.dumps(res['gauges'], sort_keys=True)}")
    for qid, fn, what in res["failures"]:
        print(f"failure question {qid} {fn}: {what}")
    for problem in res["self_test"]:
        print(f"self-test failed: {problem}")
    if args.trace:
        metrics = {k: {"value": res["per_layer"][k], "unit": u} for k, (u, _) in layers.PER_LAYER.items()}
        for k, m in metrics.items():
            print(f"{args.workload} {k} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in layers.END_TO_END.items()}
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["self_test"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
