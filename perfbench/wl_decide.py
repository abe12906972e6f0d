"""decide-large: warm in-process ordering and free-energy questions on
vectors of 10^3 to 6.6x10^4 levels.

Each question validates raw arrays, runs thermo_majorizes in both
directions, then majorizes, second_laws_check, w_det and w_for. The mix
varies tied ratios, rank-deficient x and beta in [0, 5]; questions
alternate feasible and infeasible pairs.
"""
from __future__ import annotations

import numpy as np

import gen
import ref

NAME = "decide-large"
WHY = ("the O(n log n) curve path (PLCurve validation, beta_order, curve_dominates) does most of the "
       "work here and almost none elsewhere; vectorising it shows here")
INDEX = 1
LIMIT_S = 30.0
# 15 geometric sizes, each asked once feasible and once infeasible per
# cycle: with whole cycles the median and p90 fall in the middle of one
# size's group, not on the edge between two.
SLOTS = [
    {"n": int(n), "feasible": feasible, "beta0": k == 7}
    for feasible in (True, False)
    for k, n in enumerate(np.geomspace(1000, 65536, 15).round())
]
SETUP = [0, 15]


def make(rng, slot):
    n, feasible = slot["n"], slot["feasible"]
    beta = 0.0 if slot["beta0"] else float(rng.uniform(0.05, 5.0))
    e, beta, x, y = gen.pair(rng, n, beta, feasible, rounds=2, full_prob=0.2)
    return {"e": e, "beta": beta, "x": x, "y": y, "feasible": feasible}


def ask(q, tr):
    # imported here, not at module level, so generating inputs never loads
    # the package: set-up time must see the first import
    from thermops.core import EnergySpectrum, GibbsContext, ProbVec
    from thermops.divergences import second_laws_check
    from thermops.majorization import majorizes
    from thermops.thermo import thermo_majorizes
    from thermops.work import w_det, w_for

    ctx = tr.call("core.GibbsContext", lambda e, b: GibbsContext(EnergySpectrum(e), b), q["e"], q["beta"])
    x = tr.call("core.ProbVec", ProbVec, q["x"])
    y = tr.call("core.ProbVec", ProbVec, q["y"])
    a = {
        "forward": tr.call("thermo.thermo_majorizes", thermo_majorizes, x, y, ctx),
        "reverse": tr.call("thermo.thermo_majorizes", thermo_majorizes, y, x, ctx),
        "majorizes": tr.call("majorization.majorizes", majorizes, x, y),
    }
    if ctx.beta > 0:
        verdict = tr.call("divergences.second_laws_check", second_laws_check, x, y, ctx)
        a["laws_passed"] = verdict.passed
        a["w_det"] = [tr.call("work.w_det", w_det, v, ctx) for v in (x, y)]
        a["w_for"] = [tr.call("work.w_for", w_for, v, ctx) for v in (x, y)]
    return a


def check(q, a, chk):
    e, b, x, y, feasible = q["e"], q["beta"], q["x"], q["y"], q["feasible"]
    chk.expect("thermo.thermo_majorizes", a["forward"] == feasible, f"forward verdict {a['forward']}")
    chk.verdict("thermo.thermo_majorizes", a["reverse"], ref.thermo_margin(y, x, e, b))
    if b == 0:
        chk.expect("majorization.majorizes", a["majorizes"] == feasible, "majorizes at beta = 0")
        return
    chk.verdict("majorization.majorizes", a["majorizes"], ref.majorization_margin(x, y))
    # F_alpha monotonicity is necessary for feasibility; an infeasible pair
    # here has a larger max ratio, so F_inf rises and the check must fail
    chk.expect("divergences.second_laws_check", a["laws_passed"] == feasible, "second-law verdict")
    chk.close("work.w_det", a["w_det"], [ref.w_det(v, e, b) for v in (x, y)])
    chk.close("work.w_for", a["w_for"], [ref.w_for(v, e, b) for v in (x, y)])
