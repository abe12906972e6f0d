"""Thermo-majorisation: beta-ordering, curves and ordering checks, the
rational embedding bridge to plain majorisation, constructive Gibbs-stochastic
synthesis, an independent linear-programming feasibility oracle, and a
degenerate-bath simulation that realises a target Gibbs-stochastic matrix
from permutations on a constant-energy block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_EPS,
    GibbsContext,
    PLCurve,
    ProbVec,
    StochasticMatrix,
    curve_dominates,
)
from .errors import (
    ApproximationError,
    DimensionMismatchError,
    InvalidInputError,
    OrderingError,
    ResolutionError,
)
from .majorization import _hlp_construct, _mix_rows, majorizes


def _is_permutation(arr: np.ndarray) -> bool:
    """n entries in [0, n) form a permutation iff every index occurs at least
    once. The range check comes first, so bincount never counts more than n
    bins."""
    n = len(arr)
    if n == 0:
        return True
    return bool(arr.min() >= 0 and arr.max() < n and np.bincount(arr, minlength=n).min() >= 1)


@dataclass(frozen=True)
class BetaOrder:
    """Permutation pi sorting the ratios x_i / g_i non-increasingly.

    Stored 0-based; `ranks` lists source indices, so ranks[0] is the index
    with the largest ratio. Ties are broken by ascending index (stable).
    """

    ranks: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.ranks, dtype=int)
        if arr.ndim != 1 or not _is_permutation(arr):
            raise InvalidInputError("not a permutation")
        object.__setattr__(self, "ranks", arr)
        arr.setflags(write=False)

    def one_based(self) -> tuple:
        return tuple(int(i) + 1 for i in self.ranks)


@dataclass(frozen=True)
class EmbeddingSpec:
    """Integer weights d approximating the thermal vector as d_i / D."""

    d: np.ndarray
    approx_error: float

    def __post_init__(self):
        arr = np.asarray(self.d, dtype=int)
        if np.any(arr < 1):
            raise InvalidInputError("all embedding weights must be >= 1")
        object.__setattr__(self, "d", arr)
        arr.setflags(write=False)

    @property
    def D(self) -> int:
        return int(self.d.sum())

    @property
    def n(self) -> int:
        return len(self.d)

    def blocks(self):
        """Index ranges [start, stop) of each block in the embedded space."""
        stops = np.cumsum(self.d)
        starts = stops - self.d
        return list(zip(starts.tolist(), stops.tolist()))

    def rational_gibbs(self) -> ProbVec:
        return ProbVec(self.d / self.D)


def beta_order(x: ProbVec, ctx: GibbsContext) -> BetaOrder:
    if len(x) != ctx.n:
        raise DimensionMismatchError("state/context dimension mismatch")
    ratios = x.p / ctx.gibbs.p
    return BetaOrder(np.argsort(-ratios, kind="stable"))


def thermo_curve(x: ProbVec, ctx: GibbsContext) -> PLCurve:
    """Concave curve joining the origin and the beta-ordered cumulative points
    (sum of Boltzmann weights, sum of populations); ends at (Z, 1)."""
    order = beta_order(x, ctx).ranks
    w = ctx.boltzmann_weights()[order]
    pts = np.zeros((ctx.n + 1, 2))
    pts[1:, 0] = np.cumsum(w)
    pts[1:, 1] = np.cumsum(x.p[order])
    return PLCurve(pts)


def thermo_majorizes(x: ProbVec, y: ProbVec, ctx: GibbsContext, eps: float = DEFAULT_EPS) -> bool:
    """True iff the thermal curve of x lies nowhere below that of y."""
    if len(x) != len(y):
        raise DimensionMismatchError("thermo_majorizes requires equal dimensions")
    return curve_dominates(thermo_curve(x, ctx), thermo_curve(y, ctx), eps)


# Largest d_max that rationalize accepts. The scan and the D-dimensional
# synthesis behind construct_gibbs_stochastic grow with d_max; at this cap one
# construct call took 1.5 s at n = 8 and 2.2 s at n = 64 (one core), with a
# peak resident size of 100-160 MB.
D_MAX_CAP = 2**16
# Array entries (rows x n) scored per block in rationalize: about 128 KiB per
# temporary, and few enough rows that an early exact fit wastes little.
_SCAN_BLOCK_ENTRIES = 2**14


def _raise_to_one(d: np.ndarray):
    """Give every zero entry of each row of d one unit, taken one at a time
    from the row's largest entry (first index among ties), in place.

    Rows hold non-negative integers summing to at least n. Raising all the
    zeros before taking any unit picks the same largest entries as
    alternating the two: while units remain to be taken a row sums to more
    than n, so its largest entry is at least 2 and never a raised zero."""
    zeros = d < 1
    need = zeros.sum(axis=1)
    d[zeros] = 1
    for step in range(int(need.max(initial=0))):
        rows = np.nonzero(need > step)[0]
        d[rows, np.argmax(d[rows], axis=1)] -= 1


def rationalize(ctx: GibbsContext, d_max: int) -> EmbeddingSpec:
    """Best rational approximation g ~ d/D with D <= d_max.

    Scans every denominator, keeping the smallest worst-case error
    max_i |g_i - d_i/D|; the error is always reported, never hidden.

    The denominators are scored in blocks of about _SCAN_BLOCK_ENTRIES array
    entries, one row per D: largest-remainder rounding of g D to integers
    summing to D (a row-wise stable argsort of the remainders), then one
    unit from the row's largest weight for every level that rounded to 0.
    The block's errors are read in order with the sequential rule: a
    denominator wins if its error is more than 1e-18 below the best so far,
    and the scan stops at the first exact fit. d_max above D_MAX_CAP raises
    InvalidInputError, so the scan is bounded.
    """
    n = ctx.n
    if d_max < n:
        raise InvalidInputError(f"d_max must be at least the dimension {n}")
    if d_max > D_MAX_CAP:
        raise InvalidInputError(f"d_max must be at most {D_MAX_CAP}, got {d_max}")
    g = ctx.gibbs.p
    rows, stop = max(1, _SCAN_BLOCK_ENTRIES // n), int(d_max) + 1
    best, best_err = None, math.inf
    for first in range(n, stop, rows):
        Ds = np.arange(first, min(first + rows, stop))
        raw = g[None, :] * Ds[:, None]
        d = np.floor(raw).astype(int)
        rem = raw - d
        short = Ds - d.sum(axis=1)
        # each row's `short` largest remainders (stable order) round up
        order = np.argsort(-rem, axis=1, kind="stable")
        d[np.arange(len(Ds))[:, None], order] += np.arange(n) < short[:, None]
        _raise_to_one(d)
        errs = np.max(np.abs(g - d / Ds[:, None]), axis=1)
        for r, err in enumerate(errs.tolist()):
            if err < best_err - 1e-18:
                best, best_err = d[r].copy(), err
                if err == 0.0:
                    return EmbeddingSpec(best, best_err)
    return EmbeddingSpec(best, best_err)


def embed(x: ProbVec, spec: EmbeddingSpec) -> ProbVec:
    """Expand entry i into d_i equal parts x_i / d_i."""
    if len(x) != spec.n:
        raise DimensionMismatchError("state/spec dimension mismatch")
    return ProbVec(np.repeat(x.p / spec.d, spec.d))


def unembed(p: ProbVec, spec: EmbeddingSpec) -> ProbVec:
    """Sum each block back; left inverse of embed up to one rounding.

    Bit-uniform blocks (the image of embed) are recovered with the single
    multiplication d * value, so the round trip is exact whenever IEEE
    arithmetic allows (always for power-of-two weights, and within one ulp
    otherwise)."""
    if len(p) != spec.D:
        raise DimensionMismatchError("embedded vector has wrong dimension")
    out = np.empty(spec.n)
    for i, (a, b) in enumerate(spec.blocks()):
        block = p.p[a:b]
        if np.all(block == block[0]):
            out[i] = (b - a) * block[0]
        else:
            out[i] = math.fsum(block)
    return ProbVec(out)


def construct_gibbs_stochastic(
    x: ProbVec,
    y: ProbVec,
    ctx: GibbsContext,
    d_max: int = 128,
    eps: float = DEFAULT_EPS,
) -> StochasticMatrix:
    """Synthesise G with G x = y and G fixing the (rationalised) thermal vector.

    Route: rationalise g as d/D, lift x and y with the embedding map, run the
    T-transform construction in dimension D, and compress back by summing
    block rows and averaging block columns. Averaging is valid because
    embedded inputs are uniform within blocks, and it preserves both the
    column sums and the d/D fixed point exactly.

    Checks run once each, in this order: d_max (InvalidInputError), the
    dimensions, x thermo-majorising y (OrderingError), and the embedded
    pair's majorisation (ApproximationError: d_max too small).
    """
    return _construct(x, y, ctx, d_max, eps)[0]


def _construct(
    x: ProbVec, y: ProbVec, ctx: GibbsContext, d_max: int, eps: float
) -> tuple[StochasticMatrix, EmbeddingSpec]:
    """construct_gibbs_stochastic, also returning the embedding it used."""
    spec = rationalize(ctx, d_max)
    if len(x) != len(y) or len(x) != ctx.n:
        raise DimensionMismatchError("construct requires matching dimensions")
    if not thermo_majorizes(x, y, ctx, eps):
        raise OrderingError("x does not thermo-majorise y")
    ex, ey = embed(x, spec), embed(y, spec)
    if not majorizes(ex, ey, eps):
        raise ApproximationError(
            "embedded majorisation fails at denominator cap "
            f"{d_max} (approx error {spec.approx_error:.3e}); raise d_max",
            approx_error=spec.approx_error,
        )
    chain = _hlp_construct(ex, ey)
    D, n = spec.D, spec.n
    # Need row/column block aggregates of B = chain.matrix() without forming
    # the dense D x D product: W = B^T U^T for U the n x D block indicator,
    # computed by applying the (symmetric) transforms to U^T in reverse.
    u = np.zeros((D, n))
    starts_stops = spec.blocks()
    for i, (a, b) in enumerate(starts_stops):
        u[a:b, i] = 1.0
    if chain.perm is not None:
        # (P M)^T U0 = M^T (P^T U0); P^T scatters row r to row perm[r]
        scattered = np.empty_like(u)
        scattered[chain.perm] = u
        u = scattered
    _mix_rows(u, reversed(chain))
    # u[c, i] = sum over block-i rows of B, column c; average over block cols
    g_entries = np.empty((n, n))
    for j, (a, b) in enumerate(starts_stops):
        g_entries[:, j] = u[a:b, :].sum(axis=0) / spec.d[j]
    return StochasticMatrix(g_entries), spec


def feasibility_lp_oracle(x: ProbVec, y: ProbVec, g: ProbVec) -> bool:
    """Decide by exact linear feasibility whether some column-stochastic G has
    G x = y and G g = g. Independent of the curve machinery; n^2 variables
    with 3n equality constraints, solved with the HiGHS phase-1."""
    n = len(x)
    if len(y) != n or len(g) != n:
        raise DimensionMismatchError("oracle requires equal dimensions")
    if np.any(g.p <= 0):
        raise InvalidInputError("thermal vector must be strictly positive")
    # imported here, so that only this oracle pays for loading scipy
    from scipy.optimize import linprog

    nv = n * n  # variable (i, j) at index i * n + j
    a_eq = np.zeros((3 * n, nv))
    b_eq = np.zeros(3 * n)
    for j in range(n):  # column sums
        a_eq[j, j::n] = 1.0
        b_eq[j] = 1.0
    for i in range(n):  # G x = y
        a_eq[n + i, i * n : (i + 1) * n] = x.p
        b_eq[n + i] = y.p[i]
    for i in range(n):  # G g = g
        a_eq[2 * n + i, i * n : (i + 1) * n] = g.p
        b_eq[2 * n + i] = g.p[i]
    res = linprog(
        c=np.zeros(nv),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise RuntimeError(f"LP solver failed with status {res.status}: {res.message}")


# Degeneracy scales must stay below this cap, so that every d_i and every
# floor of G_ij * d_j is an exactly representable integer.
GE_CAP = 2**53


def _round_transport(real: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Integer matrix with row and column sums d, every entry floor(real) or
    floor(real) + 1.

    Each column's deficit d_j - sum_i floor(real_ij) goes, one unit each, to
    its largest fractional parts, which fixes the column sums. The rows are
    then repaired one unit at a time along a shortest augmenting path from a
    row above its sum to one below it; each step moves a column's +1 from
    one row to the next, so no column sum changes. When no path exists, no
    such rounding exists either: the rows reachable from the surplus already
    hold the fewest +1s that the column deficits allow.
    """
    n = len(d)
    base = np.floor(real).astype(np.int64)
    need = d - base.sum(axis=0)
    if need.min() < 0 or need.max() > n:
        raise ResolutionError("target columns do not sum to 1 within the bath resolution")
    order = np.argsort(base - real, axis=0, kind="stable")  # largest fraction first
    up = np.zeros((n, n), dtype=bool)
    up[order, np.arange(n)] = np.arange(n)[:, None] < need
    surplus = base.sum(axis=1) + up.sum(axis=1) - d
    while surplus.any():
        _augment(up, surplus)
    return base + up


def _augment(up: np.ndarray, surplus: np.ndarray):
    """Move one unit from a row with surplus > 0 to a row with surplus < 0,
    in place, along a shortest path of single-column +1 moves.

    Breadth-first over rows; a row with a +1 in column j reaches every row
    without one there. Each column is expanded once, so a search is O(n^2).
    """
    reached = surplus > 0
    prev = np.full(len(surplus), -1)
    via = np.full(len(surplus), -1)
    open_cols = np.ones(up.shape[1], dtype=bool)
    queue = np.nonzero(reached)[0].tolist()
    for a in queue:  # grows while it is read
        for j in np.nonzero(up[a] & open_cols)[0].tolist():
            open_cols[j] = False
            new = np.nonzero(~up[:, j] & ~reached)[0]
            reached[new], prev[new], via[new] = True, a, j
            short = new[surplus[new] < 0]
            if len(short):
                b = int(short[0])
                surplus[b] += 1
                while prev[b] >= 0:
                    up[prev[b], via[b]], up[b, via[b]] = False, True
                    b = prev[b]
                surplus[b] -= 1
                return
            queue.extend(new.tolist())
    raise ResolutionError("no integer bath transport within one unit of the target")


def bath_model_simulate(
    g_target: StochasticMatrix, ctx: GibbsContext, gE: int
) -> tuple[StochasticMatrix, float]:
    """Realise a Gibbs-stochastic target from one constant-energy bath block.

    A block at total energy E holds d_i = round(gE * exp(-beta(E_i - E_min)))
    states for each system level i; permuting them transfers n_(i|j) of the
    d_j states of level j to level i, inducing G_(i|j) = n_(i|j)/d_j. The
    counts n are G_(i|j) d_j rounded to an integer matrix with row and
    column sums exactly d, so the induced matrix is exactly stochastic and
    exactly fixes the rounded thermal vector d/D. Every count is the floor
    of the float product G_(i|j) d_j or one more, so each induced entry lies
    within 1/d_j of the target (plus the product's own rounding, below
    2^-53), and the returned residual, the largest such distance, falls as
    the degeneracy scale gE grows.

    gE must be below GE_CAP (InvalidInputError). ResolutionError means some
    level gets no bath state, or no such rounding exists: the target's
    column sums or fixed point are off by more than the bath resolution.
    """
    n = ctx.n
    if g_target.n != n:
        raise DimensionMismatchError("target/context dimension mismatch")
    if not g_target.fixes(ctx.gibbs, tol=1e-9):
        raise InvalidInputError("target matrix does not preserve the thermal vector")
    if gE >= GE_CAP:
        raise InvalidInputError(f"degeneracy scale must be below 2**53, got {gE}")
    e = ctx.spectrum.energies
    d = np.rint(gE * np.exp(-ctx.beta * (e - e.min()))).astype(np.int64)
    if np.any(d < 1):
        raise ResolutionError(
            "degeneracy scale too small: some level would get zero bath states"
        )
    counts = _round_transport(g_target.entries * d[None, :], d)
    if np.any(counts < 0) or np.any(counts.sum(axis=0) != d) or np.any(counts.sum(axis=1) != d):
        raise ResolutionError("integer bath transport missed its marginals")
    induced = StochasticMatrix(counts / d[None, :])
    residual = float(np.max(np.abs(induced.entries - g_target.entries)))
    return induced, residual
