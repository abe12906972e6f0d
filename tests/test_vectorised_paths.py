"""The array-operation versions of PLCurve's duplicate merge, BetaOrder's
permutation check and second_laws_check's shared logarithms, checked bit for
bit against the per-point / per-order loops they replaced, kept here as
references."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thermops.core import CLAMP_TOL, VALIDATION_TOL, EnergySpectrum, GibbsContext, PLCurve, ProbVec
from thermops.divergences import (
    BURG,
    _log_sum_pow,
    burg_free_energy,
    default_alpha_grid,
    free_energy_alpha,
    renyi_divergence,
    second_laws_check,
)
from thermops.errors import InvalidInputError
from thermops.thermo import BetaOrder, beta_order, thermo_curve
from thermops.work import average_work_reference


# ---------------------------------------------------------------- references


def merge_reference(points):
    """PLCurve validation with the per-point merge loop: each point is
    compared with the last kept one."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise InvalidInputError("curve needs at least two (x, y) points")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("curve points must be finite")
    keep = [0]
    for k in range(1, len(pts)):
        if pts[k, 0] == pts[keep[-1], 0]:
            if abs(pts[k, 1] - pts[keep[-1], 1]) > VALIDATION_TOL:
                raise InvalidInputError("duplicate x with conflicting y values")
        else:
            keep.append(k)
    pts = pts[keep]
    if np.any(np.diff(pts[:, 0]) <= 0):
        raise InvalidInputError("curve x coordinates must be strictly increasing")
    if np.any(np.diff(pts[:, 1]) < -CLAMP_TOL):
        raise InvalidInputError("curve y coordinates must be non-decreasing")
    return pts


def is_permutation_reference(ranks):
    arr = np.asarray(ranks, dtype=int)
    return sorted(arr.tolist()) == list(range(len(arr)))


def divergence_reference(p, q, alpha):
    """S_alpha(p||q) recomputing the support and both logs for every order."""
    on = p > 0
    if alpha == 1:
        return float((p[on] * (np.log(p[on]) - np.log(q[on]))).sum())
    if alpha == 0:
        return float(-np.log(q[on].sum()))
    if alpha == math.inf:
        return float(np.log((p / q).max()))
    if alpha == -math.inf:
        if not np.all(on):
            return math.inf
        return float(np.log((q / p).max()))
    if alpha < 0 and not np.all(on):
        return math.inf
    sgn = 1.0 if alpha > 0 else -1.0
    logterms = alpha * np.log(p[on]) + (1.0 - alpha) * np.log(q[on])
    return sgn / (alpha - 1.0) * _log_sum_pow(logterms)


def free_energy_reference(x, ctx, alpha):
    kT = ctx.kT
    if alpha == BURG:
        g = ctx.gibbs.p
        if np.any(x.p <= 0):
            return math.inf
        kl = float((g * (np.log(g) - np.log(x.p))).sum())
        return kT * kl - kT * np.log(ctx.Z)
    return float(-kT * np.log(ctx.Z) + kT * divergence_reference(x.p, ctx.gibbs.p, alpha))


def second_laws_reference(x, y, ctx, eps=1e-9):
    """(violations, strict, nonstrict) from one free-energy pair per order."""
    violations = []
    strict = nonstrict = 0
    for alpha in [*default_alpha_grid(), BURG]:
        fx, fy = free_energy_reference(x, ctx, alpha), free_energy_reference(y, ctx, alpha)
        if fx == math.inf and fy == math.inf:
            nonstrict += 1
            continue
        diff = fx - fy
        if diff < -eps:
            violations.append((alpha, float(fy - fx) if fy != math.inf else math.inf))
        elif diff > eps:
            strict += 1
        else:
            nonstrict += 1
    return tuple(violations), strict, nonstrict


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except InvalidInputError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------- PLCurve


def planted_curve(rng, n, dup_prob, conflict, decrease, bad_value):
    """Random breakpoints with runs of equal x planted at rate dup_prob.

    y inside a run drifts from the run's first value by `conflict`
    (0, sub-tolerance steps that add up past the tolerance, or far past
    it); `decrease` makes one x step negative; `bad_value` puts a
    non-finite entry somewhere."""
    dx = rng.exponential(1.0, n - 1)
    dy = rng.exponential(1.0, n - 1)
    dup = rng.random(n - 1) < dup_prob
    dx[dup] = 0.0
    dy[dup] = {"none": 0.0, "drift": 0.6 * VALIDATION_TOL, "far": 1e-3}[conflict]
    if decrease and n > 2:
        dx[rng.integers(n - 1)] = -rng.exponential(1.0)
    pts = np.zeros((n, 2))
    pts[1:, 0] = np.cumsum(dx)
    pts[1:, 1] = np.cumsum(dy)
    if bad_value is not None:
        pts[rng.integers(n), rng.integers(2)] = bad_value
    return pts


@given(
    n=st.integers(2, 200),
    seed=st.integers(0, 2**32 - 1),
    dup_prob=st.sampled_from([0.0, 0.1, 0.5, 0.95]),
    conflict=st.sampled_from(["none", "drift", "far"]),
    decrease=st.booleans(),
    bad_value=st.sampled_from([None, None, None, math.nan, math.inf, -math.inf]),
)
def test_plcurve_merge_matches_loop(n, seed, dup_prob, conflict, decrease, bad_value):
    pts = planted_curve(np.random.default_rng(seed), n, dup_prob, conflict, decrease, bad_value)
    expected = outcome(merge_reference, pts)
    got = outcome(lambda p: PLCurve(p).points, pts)
    assert got[0] == expected[0]
    if expected[0] == "ok":
        assert got[1].shape == expected[1].shape
        assert got[1].tobytes() == expected[1].tobytes()
    else:
        assert got[1] == expected[1]


@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_thermo_curve_points_match_loop(n, seed):
    rng = np.random.default_rng(seed)
    # degenerate levels and zero populations give tied ratios and flat runs
    e = np.sort(rng.choice([0.0, 0.5, 1.0, 40.0], n))
    x = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
    x = x / x.sum() if x.sum() > 0 else np.eye(n)[0]
    ctx = GibbsContext(EnergySpectrum(e), float(rng.uniform(0.0, 3.0)))
    curve = thermo_curve(ProbVec(x), ctx)
    order = beta_order(ProbVec(x), ctx).ranks
    raw = np.zeros((n + 1, 2))
    raw[1:, 0] = np.cumsum(ctx.boltzmann_weights()[order])
    raw[1:, 1] = np.cumsum(x[order])
    assert curve.points.tobytes() == merge_reference(raw).tobytes()


def test_plcurve_run_checked_against_its_start():
    step = 0.6 * VALIDATION_TOL
    with pytest.raises(InvalidInputError, match="conflicting"):
        PLCurve([[0.0, 0.0], [1.0, 0.5], [1.0, 0.5 + step], [1.0, 0.5 + 2 * step], [2.0, 1.0]])
    merged = PLCurve([[0.0, 0.0], [1.0, 0.5], [1.0, 0.5 + step], [2.0, 1.0]])
    np.testing.assert_array_equal(merged.points, [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]])


def test_plcurve_leaves_caller_array_writeable():
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]])
    curve = PLCurve(pts)
    assert pts.flags.writeable and not curve.points.flags.writeable
    pts[1, 1] = 0.25
    assert curve.points[1, 1] == 0.5


# ---------------------------------------------------------------- BetaOrder


@given(
    st.one_of(
        st.lists(st.integers(-3, 12), max_size=12),
        st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))),
    )
)
def test_beta_order_accepts_exactly_permutations(ranks):
    accepted = outcome(BetaOrder, ranks)[0] == "ok"
    assert accepted == is_permutation_reference(ranks)


@pytest.mark.parametrize(
    "ranks",
    [[0, 0, 2], [1, 1], [0, 1, 3], [0, 2**40], [-1, 0, 1], [2, 0, -2], [[0, 1], [1, 0]], [[0, 1, 2]], [[0], [1]]],
    ids=["duplicate", "duplicate-2", "too-large", "huge", "negative", "negative-wrap", "square", "row", "column"],
)
def test_beta_order_rejects(ranks):
    with pytest.raises(InvalidInputError, match="not a permutation"):
        BetaOrder(ranks)


# ---------------------------------------------------------------- free energies


def free_energy_case(seed, n, kind):
    """(x, y, ctx) with full support, zeros in x and y, or ties."""
    rng = np.random.default_rng(seed)
    e = np.sort(rng.choice([0.0, 0.3, 1.1, 2.0], n)) if kind == "tied" else np.sort(rng.uniform(0, 3, n))
    ctx = GibbsContext(EnergySpectrum(e), float(rng.uniform(0.1, 3.0)))
    x, y = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    if kind == "rank_deficient":
        for v in (x, y):
            v[rng.random(n) < 0.4] = 0.0
            if v.sum() == 0:
                v[rng.integers(n)] = 1.0
            v /= v.sum()
    elif kind == "tied":
        y = x.copy()
        # swap populations within a degenerate level: F_alpha unchanged up to rounding
        same = np.flatnonzero(np.diff(e) == 0)
        if len(same):
            k = same[0]
            y[[k, k + 1]] = y[[k + 1, k]]
    return ProbVec(x), ProbVec(y), ctx


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    kind=st.sampled_from(["full", "rank_deficient", "tied"]),
)
def test_second_laws_matches_per_order_loop(seed, n, kind):
    x, y, ctx = free_energy_case(seed, n, kind)
    verdict = second_laws_check(x, y, ctx)
    violations, strict, nonstrict = second_laws_reference(x, y, ctx)
    assert verdict.violations == violations
    assert (verdict.strict_count, verdict.nonstrict_count) == (strict, nonstrict)
    assert verdict.passed == (not violations)
    if kind == "tied":
        assert verdict.nonstrict_count == len(default_alpha_grid()) + 1


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    kind=st.sampled_from(["full", "rank_deficient", "tied"]),
)
def test_free_energies_bit_identical_to_per_order_formulas(seed, n, kind):
    x, _, ctx = free_energy_case(seed, n, kind)
    for alpha in default_alpha_grid():
        assert free_energy_alpha(x, ctx, alpha) == free_energy_reference(x, ctx, alpha)
        assert renyi_divergence(x, ctx.gibbs, alpha) == divergence_reference(x.p, ctx.gibbs.p, alpha)
    assert burg_free_energy(x, ctx) == free_energy_reference(x, ctx, BURG)
    on = x.p > 0
    kl = float((x.p[on] * (np.log(x.p[on]) - np.log(ctx.gibbs.p[on]))).sum())
    assert average_work_reference(x, ctx) == ctx.kT * kl
