"""The block scan in rationalize and the incremental sorted-frame chain,
checked bit for bit against the per-denominator loop and the per-step mask
rebuild they replaced, and construct_gibbs_stochastic checked against the
rational-embedding route it replaced; all kept here as references."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thermops import thermo
from thermops.core import EnergySpectrum, GibbsContext, ProbVec
from thermops.errors import ApproximationError, InvalidInputError, OrderingError, ThermopsError
from thermops.majorization import _MATCH_TOL, _hlp_construct, _sorted_frame_chain, majorizes
from thermops.sampling import random_doubly_stochastic, random_gibbs_stochastic
from thermops.thermo import (
    D_MAX_CAP,
    EmbeddingSpec,
    construct_gibbs_stochastic,
    embed,
    rationalize,
    thermo_majorizes,
)


# ---------------------------------------------------------------- references


def round_to_weights_reference(g, D):
    """Largest-remainder rounding of g*D to integers summing to D, min 1."""
    raw = g * D
    d = np.floor(raw).astype(int)
    rem = raw - d
    short = D - d.sum()
    if short > 0:
        for i in np.argsort(-rem, kind="stable")[:short]:
            d[i] += 1
    while np.any(d < 1):
        d[np.argmax(d)] -= 1
        d[np.argmin(d)] += 1
    return d


def rationalize_reference(ctx, d_max):
    """One largest-remainder rounding and one error per denominator."""
    g = ctx.gibbs.p
    best = None
    for D in range(ctx.n, int(d_max) + 1):
        d = round_to_weights_reference(g, D)
        err = np.max(np.abs(g - d / D))
        if best is None or err < best[1] - 1e-18:
            best = (d, float(err))
            if err == 0.0:
                break
    return EmbeddingSpec(best[0], best[1])


def chain_reference(xs, ys):
    """The sorted-frame synthesis rebuilding both masks at every step."""
    v = xs.astype(float).copy()
    chain = []
    for _ in range(len(v) - 1):
        over = np.nonzero(v > ys + _MATCH_TOL)[0]
        under = np.nonzero(v < ys - _MATCH_TOL)[0]
        if len(over) == 0 or len(under) == 0:
            break
        j = over.max()
        after = under[under > j]
        if len(after) == 0:
            raise OrderingError("sorted-frame synthesis lost majorisation")
        k = after.min()
        delta = min(v[j] - ys[j], ys[k] - v[k])
        t = 1.0 - delta / (v[j] - v[k])
        t = min(1.0, max(0.0, t))
        chain.append((int(j), int(k), float(t)))
        moved = (1.0 - t) * (v[j] - v[k])
        v[j] -= moved
        v[k] += moved
        if abs(v[j] - ys[j]) <= 1e-12:
            v[j] = ys[j]
        if abs(v[k] - ys[k]) <= 1e-12:
            v[k] = ys[k]
    if np.max(np.abs(v - ys)) > 1e-9:
        raise OrderingError("sorted-frame synthesis did not converge")
    return chain


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ThermopsError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------- rationalize


def spectrum(rng, n, kind):
    """Random, degenerate (few distinct levels) or equispaced energies."""
    if kind == "random":
        return np.sort(rng.uniform(0.0, 3.0, n))
    if kind == "degenerate":
        return np.sort(rng.choice([0.0, 0.4, 1.7], n))
    return np.arange(n) * float(rng.uniform(0.05, 1.0))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 16),
    kind=st.sampled_from(["random", "degenerate", "equispaced"]),
    beta=st.floats(0.0, 5.0),
    room=st.sampled_from([0, 3, 40, 300]),
    block_entries=st.sampled_from([None, 1, 37, 200]),
)
def test_rationalize_matches_per_denominator_loop(seed, n, kind, beta, room, block_entries):
    # room 0 and 3 are the d_max = n and n + 3 scans, where levels that
    # round to 0 take a unit from the largest weight; small block sizes put
    # block boundaries all through the scan
    ctx = GibbsContext(EnergySpectrum(spectrum(np.random.default_rng(seed), n, kind)), beta)
    expected = rationalize_reference(ctx, n + room)
    with pytest.MonkeyPatch.context() as mp:
        if block_entries is not None:
            mp.setattr(thermo, "_SCAN_BLOCK_ENTRIES", block_entries)
        got = rationalize(ctx, n + room)
    assert got.d.tolist() == expected.d.tolist()
    assert got.approx_error == expected.approx_error


@given(
    k=st.lists(st.sampled_from([0, 1, 2, 4, 5]), max_size=11).map(lambda k: sorted([0, *k])),
    room=st.sampled_from([0, 20, 500]),
)
def test_rationalize_dyadic_gibbs_stops_at_exact_fit(k, room):
    # exp(-log 2^k) is exact for these k, so g_i = 2^-k_i / Z rounds the
    # same rational number as d_i / D with d_i = 2^(5 - k_i), D = sum(d)
    k = np.array(k)
    ctx = GibbsContext(EnergySpectrum(np.log(2.0**k)), 1.0)
    D = int((2 ** (5 - k)).sum())
    d_max = len(k) + room
    expected = rationalize_reference(ctx, d_max)
    got = rationalize(ctx, d_max)
    assert got.d.tolist() == expected.d.tolist()
    assert got.approx_error == expected.approx_error
    if d_max >= D:
        assert got.approx_error == 0.0 and got.D <= D


@pytest.mark.parametrize("n", [12, 40, 130])
def test_rationalize_over_several_default_blocks(n):
    rng = np.random.default_rng(n)
    ctx = GibbsContext(EnergySpectrum(np.sort(rng.uniform(0.0, 2.0, n))), 1.1)
    d_max = n + 3 * (thermo._SCAN_BLOCK_ENTRIES // n) + 17
    expected = rationalize_reference(ctx, d_max)
    got = rationalize(ctx, d_max)
    assert got.d.tolist() == expected.d.tolist()
    assert got.approx_error == expected.approx_error


def test_rationalize_cap_is_inclusive():
    ctx = GibbsContext(EnergySpectrum([0.0, math.log(2.0)]), 1.0)
    assert rationalize(ctx, D_MAX_CAP).approx_error == 0.0
    with pytest.raises(InvalidInputError, match="at most"):
        rationalize(ctx, D_MAX_CAP + 1)


# ---------------------------------------------------------------- sorted-frame chain


def sorted_desc(v):
    return np.sort(v)[::-1]


def chain_pair(rng, n, kind):
    """Non-increasing (xs, ys) of equal total.

    `mixed`: ys from a doubly-stochastic image of xs, so xs majorises ys;
    `embedded`: both lifted through a rational embedding, giving runs of
    equal entries and, from rank-deficient x, runs of zeros; `arbitrary`:
    an unrelated ys, which the synthesis may refuse."""
    if kind == "embedded":
        ctx = GibbsContext(EnergySpectrum(np.sort(rng.uniform(0.0, 2.0, n))), float(rng.uniform(0.0, 3.0)))
        x = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
        x = x / x.sum() if x.sum() > 0 else np.eye(n)[0]
        y = random_gibbs_stochastic(rng, ctx).entries @ x
        spec = rationalize(ctx, int(rng.integers(n, 8 * n + 40)))
        x, y = embed(ProbVec(x), spec).p, embed(ProbVec(y / y.sum()), spec).p
    elif kind == "mixed":
        x = rng.dirichlet(np.full(n, float(rng.choice([0.2, 1.0, 5.0]))))
        y = random_doubly_stochastic(rng, n) @ x
    else:
        x, y = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    return sorted_desc(x), sorted_desc(y)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    kind=st.sampled_from(["mixed", "embedded", "arbitrary"]),
)
def test_sorted_frame_chain_matches_mask_rebuild(seed, n, kind):
    xs, ys = chain_pair(np.random.default_rng(seed), n, kind)
    expected = outcome(chain_reference, xs, ys)
    got = outcome(_sorted_frame_chain, xs, ys)
    assert got[0] == expected[0]
    if expected[0] == "ok":
        assert got[1] == expected[1]
        assert all(type(j) is int and type(k) is int and type(t) is float for j, k, t in got[1])
    else:
        assert got[1] == expected[1]


# ---------------------------------------------------------------- construct


def construct_via_embedding_reference(x, y, ctx, d_max, eps=1e-9):
    """The rational-embedding route construct_gibbs_stochastic replaced: lift
    x and y through g ~ d/D, run the T-transform construction in dimension
    D and compress by summing block rows and averaging block columns. The
    map fixes d/D, not g; a pair the embedding cannot keep ordered is
    refused with ApproximationError."""
    spec = rationalize(ctx, d_max)
    if not thermo_majorizes(x, y, ctx, eps):
        raise OrderingError("x does not thermo-majorise y")
    ex, ey = embed(x, spec), embed(y, spec)
    if not majorizes(ex, ey, eps):
        raise ApproximationError("embedded majorisation fails", approx_error=spec.approx_error)
    b = _hlp_construct(ex, ey).matrix()
    blocks = spec.blocks()
    rows = np.array([b[a:e].sum(axis=0) for a, e in blocks])
    return np.array([rows[:, a:e].sum(axis=1) / (e - a) for a, e in blocks]).T, spec


def map_error(m, x, y, fixed):
    return max(float(np.max(np.abs(m @ x - y))), float(np.max(np.abs(m @ fixed - fixed))))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    thermalise=st.floats(0.0, 1.0),
    d_max=st.sampled_from([16, 64, 300]),
    swap=st.booleans(),
)
def test_construct_matches_embedding_route(seed, n, thermalise, d_max, swap):
    # where the embedding answers, both maps hold to 1e-12, each for its own
    # fixed point; where it refuses a thermo-majorising pair, construct
    # answers; ordering refusals (mostly swapped pairs) agree word for word
    rng = np.random.default_rng(seed)
    ctx = GibbsContext(EnergySpectrum(np.sort(rng.uniform(0.0, 2.0, n))), float(rng.uniform(0.0, 5.0)))
    x = rng.dirichlet(np.ones(n))
    y = random_gibbs_stochastic(rng, ctx).entries @ x
    y = (1.0 - thermalise) * y + thermalise * ctx.gibbs.p
    x, y = ProbVec(x), ProbVec(y / y.sum())
    if swap:
        x, y = y, x
    expected = outcome(construct_via_embedding_reference, x, y, ctx, d_max)
    got = outcome(construct_gibbs_stochastic, x, y, ctx, d_max)
    if expected[0] is OrderingError:
        assert got == expected
        return
    assert got[0] == "ok"
    assert map_error(got[1].entries, x.p, y.p, ctx.gibbs.p) <= 1e-12
    if expected[0] == "ok":
        ref, spec = expected[1]
        assert map_error(ref, x.p, y.p, spec.rational_gibbs().p) <= 1e-12
    else:
        assert expected[0] is ApproximationError
