"""Print BENCHMARK.json as the benchmark's code defines it.

    python3 perfbench/manifest.py > BENCHMARK.json

Workload names and reasons come from the workload modules, metric names,
units and directions from layers.py, so the file cannot drift from what
run.py reports.
"""
from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import END_TO_END, PER_LAYER  # noqa: E402
from worker import WORKLOADS  # noqa: E402

RUN_SECONDS = 25
# cli-oneshot stays runnable but is not gated: one question is one ~0.8 s
# process, and across runs its median moved by up to 25% of itself (IQR over
# ten seeds) with the machine's speed, the widest bound a manifest may set.
# Its layer is still measured in every traced run (layers.cli_layer).
GATED = ("decide-large", "small-exact", "coherence")
# share of the parent's median by which a metric may worsen. The timings
# get the widest bound allowed: on a shared 2-core machine the CPU
# alternates every few seconds between two speeds about 1.45x apart, so a
# run's medians move with the mix of the two (see README.md)
BOUNDS = {"setup_s": 0.25, "answer_p50_ms": 0.25, "answer_p90_ms": 0.25, "questions_per_s": 0.25, "peak_rss_mb": 0.15}
BETTER = {"questions_per_s": "higher"}


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOADS[name].WHY} for name in GATED],
        "end_to_end": [{"name": name, "unit": unit, "better": BETTER.get(name, "lower"), "bound": BOUNDS[name]}
                       for name, unit in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, (unit, better) in PER_LAYER.items()],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
