"""Metric names and the traced run's per-layer reduction.

Layers are the package modules cli, core, majorization, thermo,
divergences, work and coherence (`sampling` is test infrastructure and
`errors` holds only types). Every traced run reports every per-layer
metric: a metric comes from the requested workload when that workload makes
the call, otherwise from one traced cycle of the workload that does.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import harness
import parts
import wl_cli
import wl_coherence
import wl_decide
import wl_small
from gen import question_rng
from ref import Check

END_TO_END = {
    "setup_s": "s",
    "answer_p50_ms": "ms",
    "answer_p90_ms": "ms",
    "questions_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# reported on every run by name and unit, but not in the gated result: both
# read 0 or below at the parent, which a relative bound cannot judge
REPORTED = {"failed_frac": "ratio", "worst_margin_log10": "log10"}

SELF_TIMED = [
    "core.ProbVec", "core.GibbsContext", "core.DensityMatrix", "core.StochasticMatrix",
    "core.PLCurve", "core.curve_dominates",
    "majorization.majorizes", "majorization.hlp_construct",
    "thermo.beta_order", "thermo.thermo_curve", "thermo.thermo_majorizes", "thermo.rationalize",
    "thermo.embed", "thermo.construct_gibbs_stochastic", "thermo.feasibility_lp_oracle",
    "thermo.bath_model_simulate",
    "divergences.second_laws_check",
    "work.w_det", "work.w_for", "work.w_det_geometric_oracle", "work.w_for_geometric_oracle",
    "coherence.QuantumChannel", "coherence.asymmetry", "coherence.asymmetry_alpha", "coherence.qfi",
    "coherence.free_energy_split", "coherence.mode_decompose", "coherence.channel_covariance_check",
    "coherence.gibbs_preserving_check", "coherence.cp_bound", "coherence.qubit_reachable_boundary",
    "coherence.qubit_optimal_channel", "coherence.ladder_simulate",
]
MODULES = ["cli", "core", "majorization", "thermo", "divergences", "work", "coherence"]
MARGINS = [
    "thermo.construct_gibbs_stochastic", "work.w_det_geometric_oracle", "work.w_for_geometric_oracle",
    "thermo.bath_model_simulate", "coherence.qfi", "coherence.free_energy_split", "coherence.ladder_simulate",
]
OK_RATIOS = ["thermo.construct_gibbs_stochastic", "thermo.bath_model_simulate"]
GAUGE_COUNTS = [
    "thermo.feasibility_lp_oracle.disagreements",
    "coherence.qfi.beyond_gate",
    "coherence.qubit_optimal_channel.beyond_gate",
    "coherence.ladder_simulate.beyond_gate",
]

PER_LAYER = {
    **{f"{fn}.self_ms": ("ms", "lower") for fn in SELF_TIMED},
    **{f"{m}.errors": ("count", "lower") for m in MODULES},
    "cli.spawn_floor_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.scipy_loaded": ("flag", "lower"),
    **{f"cli.cmd.{sub}.self_ms": ("ms", "lower") for sub in wl_cli.SUBCOMMANDS},
    **{f"{fn}.peak_kb": ("KiB", "lower") for fn in parts.PEAKS},
    **{f"{fn}.ok_ratio": ("ratio", "higher") for fn in OK_RATIOS},
    **{name: ("count", "lower") for name in GAUGE_COUNTS},
    **{f"{fn}.margin_log10": ("log10", "lower") for fn in MARGINS},
}

IN_PROCESS = [wl_decide, wl_small, wl_coherence]
IMPORT_PROBE = ("import time; t = time.perf_counter(); import thermops.cli; t = time.perf_counter() - t; "
                "import sys; print(t, int('scipy.optimize' in sys.modules))")


def cli_layer(seed: int):
    """Start-up probes in fresh children, then each subcommand body through
    thermops.cli.main in this process (median of three warm calls)."""
    py = sys.executable
    floor = []
    for _ in range(5):
        t = time.perf_counter()
        subprocess.run([py, "-c", "pass"], check=True)
        floor.append(time.perf_counter() - t)
    probes = [subprocess.run([py, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True).stdout.split()
              for _ in range(3)]
    out = {
        "cli.spawn_floor_ms": 1e3 * statistics.median(floor),
        "cli.import_ms": 1e3 * statistics.median(float(p[0]) for p in probes),
        "cli.scipy_loaded": max(int(p[1]) for p in probes),
    }
    p = harness.Pass()
    per_sub = {}
    for i, slot in enumerate(wl_cli.SLOTS):
        q = wl_cli.make(question_rng(seed, wl_cli.INDEX, i), slot)
        runs = [wl_cli.ask_inprocess(q) for _ in range(3)]
        elapsed = statistics.median(t for _, t in runs)
        chk = Check()
        wl_cli.check(q, runs[-1][0], chk)
        p.latencies.append(elapsed)
        p.record(i, chk)
        per_sub.setdefault(q["sub"], []).append(elapsed)
    out.update({f"cli.cmd.{s}.self_ms": 1e3 * statistics.fmean(v) for s, v in per_sub.items()})
    return out, p


def per_layer(wl, seed: int, own: harness.Pass, tracer: harness.Tracer) -> dict:
    """Reduce the traced passes to the PER_LAYER metrics."""
    passes = [(own, tracer)]
    for other in IN_PROCESS:
        if other is not wl:
            t = harness.Tracer(parts.PARTS, parts.PEAKS)
            p, _ = harness.run_pass(other, seed, 0.0, t)
            passes.append((p, t))
    metrics, cli_pass = cli_layer(seed)
    self_ms = {id(t): t.self_ms() for _, t in passes}

    def first(pick):
        for p, t in passes:
            value = pick(p, t)
            if value is not None:
                return value
        raise KeyError("no traced pass produced this metric")

    for fn in SELF_TIMED:
        metrics[f"{fn}.self_ms"] = first(lambda p, t: self_ms[id(t)].get(fn))
    for m in MODULES:
        metrics[f"{m}.errors"] = sum(p.module_errors.get(m, 0) for p, _ in passes + [(cli_pass, None)])
    for fn in parts.PEAKS:
        metrics[f"{fn}.peak_kb"] = first(lambda p, t: statistics.fmean(t.peak_kb[fn]) if fn in t.peak_kb else None)
    for fn in OK_RATIOS:
        metrics[f"{fn}.ok_ratio"] = first(
            lambda p, t: 1 - p.fn_failed.get(fn, 0) / p.fn_checked[fn] if fn in p.fn_checked else None)
    for name in GAUGE_COUNTS:
        fn = name.rsplit(".", 1)[0]
        metrics[name] = first(lambda p, t: p.counts.get(name, 0) if fn in p.margins or fn in p.fn_checked else None)
    for fn in MARGINS:
        metrics[f"{fn}.margin_log10"] = first(lambda p, t: p.margins.get(fn))
    return metrics
