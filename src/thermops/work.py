"""Single-shot work quantities for incoherent states.

The battery is a two-level system with gap W, ground state (1, 0); charging
the battery compresses the joint thermal curve along the x-axis by exp(-bW),
which is what both bisection oracles exploit.
"""
from __future__ import annotations

import numpy as np

from .core import DEFAULT_EPS, EnergySpectrum, GibbsContext, PLCurve, ProbVec
from .divergences import renyi_divergence
from .errors import InvalidInputError, ResolutionError
from .thermo import thermo_curve, thermo_majorizes

# S_0 is support-dependent and hence discontinuous at the boundary; the
# threshold below decides which populations count as occupied and is
# surfaced on the CLI for sensitivity audits.
SUPPORT_THRESHOLD = 1e-12


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


def _battery_transition_holds(x: ProbVec, ctx: GibbsContext, W: float, eps: float) -> bool:
    """x (x) ground-battery thermo-majorises g (x) excited-battery at gap W."""
    initial, joint_ctx = _joint_state(x, ctx, W, excited=False)
    final, _ = _joint_state(ProbVec(ctx.gibbs.p), ctx, W, excited=True)
    return thermo_majorizes(initial, final, joint_ctx, eps)


def w_det_geometric_oracle(
    x: ProbVec, ctx: GibbsContext, tol: float = 1e-10, eps: float = 1e-13
) -> float:
    """Largest battery gap W such that x with a discharged battery can still
    reach the thermal state with a charged one; bisection on the monotone
    curve-domination predicate. Independent of the closed form in w_det.

    The comparisons inside the bisection run far below the public ordering
    tolerance: an eps-tolerant domination check cannot resolve W below about
    eps / (beta * smallest population), so the 1e-9 default would poison the
    last two digits of the answer."""
    _require_thermal(ctx)
    hi = float(-ctx.kT * np.log(ctx.gibbs.p.min())) + 1.0
    if not _battery_transition_holds(x, ctx, 0.0, eps):
        return 0.0
    if _battery_transition_holds(x, ctx, hi, eps):
        return hi
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _battery_transition_holds(x, ctx, mid, eps):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def w_for_geometric_oracle(
    x: ProbVec, ctx: GibbsContext, tol: float = 1e-10, eps: float = 1e-13
) -> float:
    """Smallest battery gap W such that the thermal state with a charged
    battery reaches x with a discharged one; mirror of the w_det oracle."""
    _require_thermal(ctx)

    def holds(W: float) -> bool:
        initial, joint_ctx = _joint_state(ProbVec(ctx.gibbs.p), ctx, W, excited=True)
        final, _ = _joint_state(x, ctx, W, excited=False)
        return thermo_majorizes(initial, final, joint_ctx, eps)

    lo = 0.0
    hi = float(ctx.kT * np.log((x.p / ctx.gibbs.p).max())) + 1.0
    if holds(lo):
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
