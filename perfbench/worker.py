"""Benchmark worker: runs inside the thread-pinned environment that run.py
prepares, with the run's scratch directory as working directory.

    worker.py setup <workload> <questions.pkl>
        answer each pickled question once (the set-up probe, timed by the
        parent from spawn to exit)
    worker.py run <workload> <seed> <seconds> <trace> <result.json> [spans.jsonl]
        warm up, ask whole cycles of questions for <seconds> of question
        time, check every answer, run the self-test and write the result
"""
from __future__ import annotations

import json
import os
import pickle
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import wl_cli  # noqa: E402
import wl_coherence  # noqa: E402
import wl_decide  # noqa: E402
import wl_small  # noqa: E402

WORKLOADS = {wl.NAME: wl for wl in (wl_cli, wl_decide, wl_small, wl_coherence)}


def setup(wl, path):
    with open(path, "rb") as fh:
        questions = pickle.load(fh)
    for q in questions:
        if wl is wl_cli:
            wl_cli.ask_inprocess(q)
        else:
            wl.ask(q, harness.NullTracer())


def run(wl, seed: int, seconds: float, trace: bool, out_path: str, spans_path: str | None):
    harness.install_question_alarm()
    if wl is not wl_cli:  # first-call costs belong to set-up, not to the loop
        for i in wl.SETUP:
            wl.ask(wl.make(harness.question_rng(seed, wl.INDEX, i), wl.SLOTS[i]), harness.NullTracer())
    if trace:
        import parts

        tracer = harness.Tracer(parts.PARTS, parts.PEAKS)
    else:
        tracer = harness.NullTracer()
    p, first = harness.run_pass(wl, seed, seconds, tracer, keep_first=True)
    who = resource.RUSAGE_CHILDREN if wl is wl_cli else resource.RUSAGE_SELF
    result = {
        "end_to_end": dict(p.end_to_end(), peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024),
        "attempted": p.attempted,
        "failed": p.failed,
        "failures": p.failures,
        "gauges": p.counts,
        "latencies": p.latencies,
        "slots": p.slots,
        "margins": p.margins,
        "self_test": harness.self_test(wl, seed, first) if first else ["no question was answered"],
    }
    if trace:
        import layers

        result["per_layer"] = layers.per_layer(wl, seed, p, tracer)
        if spans_path:
            tracer.dump(spans_path)
    with open(out_path, "w") as fh:
        json.dump(result, fh)


def main(argv):
    if argv[0] == "setup":
        setup(WORKLOADS[argv[1]], argv[2])
    else:
        wl, seed, seconds, trace, out = WORKLOADS[argv[1]], int(argv[2]), float(argv[3]), argv[4] == "1", argv[5]
        run(wl, seed, seconds, trace, out, argv[6] if len(argv) > 6 else None)


if __name__ == "__main__":
    main(sys.argv[1:])
