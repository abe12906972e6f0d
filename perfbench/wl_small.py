"""small-exact: warm in-process exact questions at n = 3..16, with a tail of
LP cross-checks up to n = 64 and bath realisations up to n = 24.

Kinds: construct_gibbs_stochastic at d_max 128 and 1024; the LP
feasibility oracle against the curve verdict; bath_model_simulate at gE 100
and 1000; both geometric work oracles against w_det / w_for. Near-boundary
feasible pairs come from full beta-swaps; gen.construct_pair says which
pairs construction questions use and why.
"""
from __future__ import annotations

import numpy as np

import gen
import ref

NAME = "small-exact"
WHY = ("time goes to per-call overhead: re-validation, dense LP assembly, the rationalize scan and "
       "Python loops; a large-n gain that adds per-call overhead shows as a loss here")
INDEX = 2
LIMIT_S = 20.0
# 25 slots per cycle, so with whole cycles the median and p90 fall in the
# middle of one slot's group of latencies.
SLOTS = (
    [{"kind": "lp", "n": n, "feasible": f} for n, f in
     [(3, True), (4, False), (6, True), (8, False), (12, True), (16, False), (32, True), (64, False)]]
    + [{"kind": "construct", "n": n, "d_max": d, "pair": p} for n, d, p in
       [(3, 128, "rational"), (4, 1024, "interior"), (5, 128, "infeasible"), (6, 128, "rational"),
        (8, 1024, "interior"), (12, 1024, "interior"), (6, 1024, "rational"), (8, 1024, "infeasible")]]
    + [{"kind": "bath", "n": n, "g_e": g} for n, g in [(3, 100), (6, 1000), (12, 100), (16, 1000), (24, 100)]]
    + [{"kind": "work", "n": n, "which": w} for n, w in [(3, "det"), (5, "for"), (8, "det"), (16, "for")]]
)
SETUP = [next(i for i, s in enumerate(SLOTS) if s["kind"] == k) for k in ("lp", "construct", "bath", "work")]


def make(rng, slot):
    n, kind = slot["n"], slot["kind"]
    q = dict(slot)
    if kind == "lp":
        e, beta, x, y = gen.pair(rng, n, float(rng.uniform(0.0, 5.0)), slot["feasible"], full_prob=0.5)
        q.update(e=e, beta=beta, x=x, y=y)
    elif kind == "construct":
        e, beta, x, y, feasible = gen.construct_pair(rng, n, slot["pair"])
        q.update(e=e, beta=beta, x=x, y=y, feasible=feasible)
    elif kind == "bath":
        e = gen.energies(rng, n, spread=float(rng.uniform(0.1, 0.45)))
        beta = float(rng.uniform(0.2, 2.0))
        mix = float(rng.uniform()) if rng.uniform() < 0.3 else 0.0
        q.update(e=e, beta=beta, target=gen.gibbs_stochastic(rng, gen.gibbs(e, beta), 2 * n, mix))
    else:
        e = gen.energies(rng, n)
        beta = float(rng.uniform(0.3, 3.0))
        style = "rank_deficient" if slot["which"] == "det" else str(rng.choice(["dirichlet", "tied", "peaked"]))
        q.update(e=e, beta=beta, x=gen.prob_vec(rng, n, style, gen.gibbs(e, beta)))
    return q


def ask(q, tr):
    # imported here so that generating inputs never loads the package
    from thermops.core import EnergySpectrum, GibbsContext, ProbVec, StochasticMatrix
    from thermops.errors import ThermopsError
    from thermops.thermo import (
        bath_model_simulate,
        construct_gibbs_stochastic,
        feasibility_lp_oracle,
        thermo_majorizes,
    )
    from thermops.work import w_det, w_det_geometric_oracle, w_for, w_for_geometric_oracle

    ctx = tr.call("core.GibbsContext", lambda e, b: GibbsContext(EnergySpectrum(e), b), q["e"], q["beta"])
    kind = q["kind"]
    if kind == "bath":
        target = tr.call("core.StochasticMatrix", StochasticMatrix, q["target"])
        induced, residual = tr.call("thermo.bath_model_simulate", bath_model_simulate, target, ctx, q["g_e"])
        return {"induced": induced.entries, "residual": residual}
    x = tr.call("core.ProbVec", ProbVec, q["x"])
    if kind == "work":
        if q["which"] == "det":
            return {"closed": tr.call("work.w_det", w_det, x, ctx),
                    "oracle": tr.call("work.w_det_geometric_oracle", w_det_geometric_oracle, x, ctx)}
        return {"closed": tr.call("work.w_for", w_for, x, ctx),
                "oracle": tr.call("work.w_for_geometric_oracle", w_for_geometric_oracle, x, ctx)}
    y = tr.call("core.ProbVec", ProbVec, q["y"])
    if kind == "lp":
        return {"curve": tr.call("thermo.thermo_majorizes", thermo_majorizes, x, y, ctx),
                "lp": tr.call("thermo.feasibility_lp_oracle", feasibility_lp_oracle, x, y, ctx.gibbs)}
    try:
        g = tr.call("thermo.construct_gibbs_stochastic", construct_gibbs_stochastic, x, y, ctx, q["d_max"])
    except ThermopsError as exc:
        return {"refused": type(exc).__name__}
    return {"matrix": g.entries}


def check(q, a, chk):
    kind, n = q["kind"], q["n"]
    if kind == "lp":
        fn = "thermo.feasibility_lp_oracle"
        chk.expect("thermo.thermo_majorizes", a["curve"] == q["feasible"], f"curve verdict {a['curve']}")
        # the LP verdict is a gauge: HiGHS's absolute feasibility tolerance
        # cannot resolve a violation on a level of thermal weight ~1e-6
        # (see README.md); the curve verdict above is gated
        chk.expect(fn, isinstance(a["lp"], bool), "no LP verdict")
        chk.count(f"{fn}.disagreements", int(a["lp"] != a["curve"]))
    elif kind == "construct":
        fn = "thermo.construct_gibbs_stochastic"
        if not q["feasible"]:
            chk.expect(fn, a.get("refused") == "OrderingError", f"infeasible pair answered {a}")
            return
        if not chk.expect(fn, "matrix" in a, f"feasible pair refused with {a.get('refused')}"):
            return
        m, x, y = a["matrix"], q["x"], q["y"]
        chk.within(fn, float(np.max(np.abs(m @ x - y))), ref.MAP_RESIDUAL)
        chk.expect(fn, m.min() >= 0 and np.max(np.abs(m.sum(axis=0) - 1)) <= ref.MAP_RESIDUAL, "not stochastic")
        if q["pair"] == "rational":
            g = ref.gibbs_of(q["e"], q["beta"])
            chk.within(fn, float(np.max(np.abs(m @ g - g))), ref.MAP_RESIDUAL)
    elif kind == "bath":
        fn = "thermo.bath_model_simulate"
        dist = float(np.max(np.abs(a["induced"] - q["target"])))
        chk.within(fn, dist, ref.bath_bound(n, q["g_e"]))
        chk.expect(fn, abs(dist - a["residual"]) <= 1e-12, "reported residual differs from the distance")
        chk.expect(fn, np.max(np.abs(a["induced"].sum(axis=0) - 1)) <= 1e-12, "induced map not stochastic")
    else:
        x, e, b = q["x"], q["e"], q["beta"]
        exact = ref.w_det(x, e, b) if q["which"] == "det" else ref.w_for(x, e, b)
        chk.close(f"work.w_{q['which']}", a["closed"], exact)
        chk.within(f"work.w_{q['which']}_geometric_oracle", abs(a["oracle"] - exact), ref.ORACLE_GAP)
