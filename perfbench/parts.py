"""Part timings for composite public calls (traced runs only).

When a public call is made of other public calls, the traced run re-runs
those parts on the same inputs, after the question's timed region, as child
spans of the real call; the call's self time is then its duration minus the
parts. construct_gibbs_stochastic is built from thermo_majorizes,
rationalize, embed, majorizes and hlp_construct; thermo_majorizes from two
thermo_curve calls and curve_dominates; thermo_curve from beta_order and a
PLCurve.
"""
from __future__ import annotations


def _thermo_majorizes(tr, args, out):
    from thermops.core import curve_dominates
    from thermops.thermo import thermo_curve

    x, y, ctx = args[:3]
    cx = tr.call("thermo.thermo_curve", thermo_curve, x, ctx)
    cy = tr.call("thermo.thermo_curve", thermo_curve, y, ctx)
    tr.call("core.curve_dominates", curve_dominates, cx, cy, *args[3:])


def _thermo_curve(tr, args, out):
    from thermops.core import PLCurve
    from thermops.thermo import beta_order

    tr.call("thermo.beta_order", beta_order, *args)
    tr.call("core.PLCurve", PLCurve, out.points)


def _construct(tr, args, out):
    from thermops.majorization import hlp_construct, majorizes
    from thermops.thermo import embed, rationalize, thermo_majorizes

    x, y, ctx, d_max = args
    tr.call("thermo.thermo_majorizes", thermo_majorizes, x, y, ctx)
    spec = tr.call("thermo.rationalize", rationalize, ctx, d_max)
    ex = tr.call("thermo.embed", embed, x, spec)
    ey = tr.call("thermo.embed", embed, y, spec)
    tr.call("majorization.majorizes", majorizes, ex, ey)
    tr.call("majorization.hlp_construct", hlp_construct, ex, ey)


PARTS = {
    "thermo.thermo_majorizes": _thermo_majorizes,
    "thermo.thermo_curve": _thermo_curve,
    "thermo.construct_gibbs_stochastic": _construct,
}

# allocation peaks (tracemalloc) are measured for these, in an untimed re-run
PEAKS = (
    "thermo.feasibility_lp_oracle",
    "thermo.bath_model_simulate",
    "thermo.construct_gibbs_stochastic",
)
