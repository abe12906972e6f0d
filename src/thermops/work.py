"""Single-shot work quantities for incoherent states.

The battery is a two-level system with gap W, ground state (1, 0); charging
the battery compresses the joint thermal curve along the x-axis by exp(-bW),
so both geometric oracles read their answer off the breakpoints of x's curve.
"""
from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .core import EnergySpectrum, GibbsContext, PLCurve, ProbVec
from .divergences import renyi_divergence
from .errors import InvalidInputError, ResolutionError
from .thermo import thermo_curve, thermo_majorizes

# S_0 is support-dependent and hence discontinuous at the boundary; the
# threshold below decides which populations count as occupied and is
# surfaced on the CLI for sensitivity audits.
SUPPORT_THRESHOLD = 1e-12
# Curve-comparison tolerance inside the geometric oracles, far below the
# public ordering tolerance: an eps-tolerant check cannot tell apart two
# breakpoint gaps closer than about eps / (beta * smallest population).
_ORACLE_EPS = 1e-13


def _require_thermal(ctx: GibbsContext):
    if ctx.beta == 0:
        raise InvalidInputError("work quantities are undefined at beta = 0")


def w_det(x: ProbVec, ctx: GibbsContext, support_threshold: float = SUPPORT_THRESHOLD) -> float:
    """Deterministic extractable work -kT log(thermal mass on the support of x).

    Zero for full-support states; equals F_0(x) - F_0(g).
    """
    _require_thermal(ctx)
    mask = x.p > support_threshold
    if mask.all():
        return 0.0  # thermal mass on the full support is exactly 1
    return float(-ctx.kT * np.log(ctx.gibbs.p[mask].sum()))


def w_for(x: ProbVec, ctx: GibbsContext) -> float:
    """Work of formation kT log max_i x_i/g_i = F_inf(x) - F_inf(g)."""
    _require_thermal(ctx)
    return float(ctx.kT * np.log((x.p / ctx.gibbs.p).max()))


def average_work_reference(x: ProbVec, ctx: GibbsContext) -> float:
    """kT S_1(x||g): the average-work benchmark the single-shot quantities
    are compared against. Reported as a reference number only; no averaging
    protocol is modelled."""
    _require_thermal(ctx)
    return ctx.kT * renyi_divergence(x, ctx.gibbs, 1)


def _joint_state(y: ProbVec, ctx: GibbsContext, W: float, excited: bool) -> tuple[ProbVec, GibbsContext]:
    """y (x) battery over the sorted joint spectrum {E_i} union {E_i + W}."""
    e = ctx.spectrum.energies
    joint_e = np.concatenate([e, e + W])
    order = np.argsort(joint_e, kind="stable")
    p = np.concatenate([y.p, np.zeros_like(y.p)] if not excited else [np.zeros_like(y.p), y.p])
    return ProbVec(p[order]), GibbsContext(EnergySpectrum(joint_e[order]), ctx.beta)


def battery_rescaled_curve(
    y: ProbVec, ctx: GibbsContext, W: float, excited: bool
) -> PLCurve:
    """Thermal curve of y (x) battery over the joint spectrum.

    The excited-battery curve is the ground-battery curve compressed along
    the x-axis by exp(-beta W); this geometric identity is checked here
    because both curves are built independently from the joint beta-order,
    and a violation raises ResolutionError.
    """
    _require_thermal(ctx)
    if W < 0:
        raise InvalidInputError("battery gap W must be non-negative")
    state, joint_ctx = _joint_state(y, ctx, W, excited)
    curve = thermo_curve(state, joint_ctx)
    if excited:
        ground, _ = _joint_state(y, ctx, W, excited=False)
        ref = thermo_curve(ground, joint_ctx)
        factor = np.exp(-ctx.beta * W)
        rising = curve.points[curve.points[:, 1] < 1.0 - 1e-15]
        probe = rising[:, 0] / factor
        gap = np.max(np.abs(ref.evaluate(probe) - rising[:, 1]))
        if not gap < 1e-10:
            raise ResolutionError(f"compression identity violated by {gap:.3e}")
    return curve


def _battery_holds(x: ProbVec, ctx: GibbsContext, W: float, extract: bool) -> bool:
    """At gap W: x (x) ground battery thermo-majorises g (x) excited battery
    (extract), or g (x) excited battery thermo-majorises x (x) ground battery."""
    state, joint_ctx = _joint_state(x, ctx, W, excited=False)
    thermal, _ = _joint_state(ctx.gibbs, ctx, W, excited=True)
    if extract:
        return thermo_majorizes(state, thermal, joint_ctx, _ORACLE_EPS)
    return thermo_majorizes(thermal, state, joint_ctx, _ORACLE_EPS)


def _battery_threshold(x: ProbVec, ctx: GibbsContext, extract: bool) -> float:
    """Gap W where the battery verdict flips: the largest W that extraction
    still reaches, or the smallest W that formation needs.

    The charged thermal state's curve is one segment ending in an elbow at
    (exp(-beta W) Z, 1), so the verdict can only change where that segment
    passes through a breakpoint (a_k, y_k) of x's curve, at
    W_k = kT log(y_k Z / a_k). The verdict is constant between consecutive
    candidates, so it is probed only at their midpoints and above the top
    one, far from the tie at the answer, and the first probe on the far side
    of the flip is found by binary search over the probes."""
    _require_thermal(ctx)
    a, y = thermo_curve(x, ctx).points.T
    on = (a > 0) & (y > 0)
    w = ctx.kT * np.log(y[on] * ctx.Z / a[on])
    cand = np.unique(np.append(w[w > 0], 0.0))
    probes = np.append(0.5 * (cand[:-1] + cand[1:]), cand[-1] + 1.0)
    k = bisect_left(range(len(probes)), True,
                    key=lambda i: _battery_holds(x, ctx, float(probes[i]), extract) != extract)
    if k == len(probes):
        raise ResolutionError("battery verdict does not flip above the largest breakpoint gap")
    return float(cand[k])


def w_det_geometric_oracle(x: ProbVec, ctx: GibbsContext) -> float:
    """Largest battery gap W such that x with a discharged battery can still
    reach the thermal state with a charged one, read off the breakpoints of
    x's thermal curve and decided by curve comparisons alone. Independent of
    the closed form in w_det."""
    return _battery_threshold(x, ctx, extract=True)


def w_for_geometric_oracle(x: ProbVec, ctx: GibbsContext) -> float:
    """Smallest battery gap W such that the thermal state with a charged
    battery reaches x with a discharged one; mirror of the w_det oracle."""
    return _battery_threshold(x, ctx, extract=False)
