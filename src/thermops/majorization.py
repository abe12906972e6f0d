"""Classical majorisation: ordering checks, Lorenz curves, constructive
doubly-stochastic synthesis via T-transforms, and asymptotic conversion rates.

This is the uniform-fixed-point (infinite temperature) limit of the thermal
theory. The sorted-frame induction also comes with weights, for the thermo
module's synthesis of maps that fix a general Gibbs vector.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_EPS, PLCurve, ProbVec
from .errors import DimensionMismatchError, OrderingError, UnboundedRateError

# Coordinates closer than this to their target count as matched during
# T-transform synthesis.
_MATCH_TOL = 1e-13


@dataclass(frozen=True)
class TTransform:
    """Doubly-stochastic matrix acting as the identity except on coordinates
    (i, j), which it mixes with weights (t, 1-t)."""

    i: int
    j: int
    t: float

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("T-transform indices must differ")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"mixing weight must lie in [0, 1], got {self.t}")


class TTransformChain(list):
    """Sequence of T-transforms plus permutation bookkeeping.

    The mixing content of the synthesis is the list itself (at most n-1
    T-transforms). Because the classical induction works on sorted vectors,
    mapping the original (unsorted) x to the original y may additionally
    require a relabelling of coordinates; that permutation is kept separate
    as `perm`, with perm[i] = source index of output coordinate i (None when
    no relabelling is needed). `matrix` composes everything, so
    matrix(n) @ x == y.
    """

    def __init__(self, transforms, n: int, perm=None):
        super().__init__(transforms)
        self.n = int(n)
        if perm is not None:
            perm = np.asarray(perm, dtype=int)
            if np.array_equal(perm, np.arange(self.n)):
                perm = None
        self.perm = perm

    def apply(self, v) -> np.ndarray:
        out = _mix_rows(np.array(v, dtype=float), self)
        if self.perm is not None:
            out = out[self.perm]
        return out

    def matrix(self) -> np.ndarray:
        m = compose_transforms(self, self.n)
        if self.perm is not None:
            m = m[self.perm]  # row permutation = left-multiply by perm matrix
        return m


def _mix_rows(m: np.ndarray, transforms) -> np.ndarray:
    """Apply the T-transforms in sequence (first acts first) to the rows of
    m (the entries, for a vector), in place; returns m."""
    for tr in transforms:
        ri, rj = m[tr.i].copy(), m[tr.j].copy()
        m[tr.i] = tr.t * ri + (1.0 - tr.t) * rj
        m[tr.j] = (1.0 - tr.t) * ri + tr.t * rj
    return m


def compose_transforms(transforms, n: int) -> np.ndarray:
    """Dense product of the T-transforms applied in sequence (first acts first)."""
    return _mix_rows(np.eye(n), transforms)


def lorenz_curve(x: ProbVec) -> PLCurve:
    """Breakpoints (k, sum of the k largest entries), k = 0..n."""
    s = np.sort(x.p)[::-1]
    pts = np.empty((len(s) + 1, 2))
    pts[:, 0] = np.arange(len(s) + 1)
    pts[0, 1] = 0.0
    pts[1:, 1] = np.cumsum(s)
    return PLCurve(pts)


def _sorted_partials(v: np.ndarray) -> np.ndarray:
    return np.cumsum(np.sort(v)[::-1])


def majorizes(x: ProbVec, y: ProbVec, eps: float = DEFAULT_EPS) -> bool:
    """True iff every partial sum of sorted x dominates that of sorted y and
    the totals agree, all within eps."""
    if len(x) != len(y):
        raise DimensionMismatchError("majorizes requires equal dimensions")
    sx, sy = _sorted_partials(x.p), _sorted_partials(y.p)
    if abs(sx[-1] - sy[-1]) > eps:
        return False
    return bool(np.all(sx >= sy - eps))


def _sorted_frame_chain(xs: np.ndarray, ys: np.ndarray):
    """T-transforms carrying the non-increasing vector xs onto the
    non-increasing vector ys (same total), one matched coordinate per step,
    as (j, k, t) triples: mix coordinates j and k with weights (t, 1-t).

    Each step takes the last index j still above its target and the first
    index k > j still below its target (everything in between already
    matches), and transfers delta = min(xs_j - ys_j, ys_k - xs_k) between
    them; the intermediate vector stays sorted and keeps majorising ys, so at
    most n-1 steps are needed.

    The indices above and below their targets are kept as sorted lists: a
    step changes only coordinates j and k, so only those two are re-tested;
    j is the last entry of `over` and k is found by bisection in `under`,
    so the synthesis takes O(n log n) comparisons instead of rebuilding
    both index sets at every step.
    """
    v = xs.astype(float).tolist()
    target = ys.tolist()
    over = np.nonzero(xs > ys + _MATCH_TOL)[0].tolist()
    under = np.nonzero(xs < ys - _MATCH_TOL)[0].tolist()
    chain = []
    for _ in range(len(v) - 1):
        if not over or not under:
            break
        j = over[-1]
        pos = bisect_right(under, j)
        if pos == len(under):
            raise OrderingError("sorted-frame synthesis lost majorisation")
        k = under[pos]
        delta = min(v[j] - target[j], target[k] - v[k])
        t = 1.0 - delta / (v[j] - v[k])
        t = min(1.0, max(0.0, t))
        chain.append((j, k, t))
        moved = (1.0 - t) * (v[j] - v[k])
        v[j] -= moved
        v[k] += moved
        # pin coordinates that reached their target against round-off
        if abs(v[j] - target[j]) <= 1e-12:
            v[j] = target[j]
        if abs(v[k] - target[k]) <= 1e-12:
            v[k] = target[k]
        # re-test k (still at under[pos]) first, then j (somewhere in over)
        if not v[k] < target[k] - _MATCH_TOL:
            del under[pos]
            if v[k] > target[k] + _MATCH_TOL:
                insort(over, k)
        if not v[j] > target[j] + _MATCH_TOL:
            del over[bisect_left(over, j)]
            if v[j] < target[j] - _MATCH_TOL:
                insort(under, j)
    if np.max(np.abs(np.asarray(v) - ys)) > 1e-9:
        raise OrderingError("sorted-frame synthesis did not converge")
    return chain


def _weighted_frame_moves(mass: list, target: list, length: list) -> list:
    """Two-level moves carrying the masses of cells of positive length onto
    their targets, as (j, k, a, b) tuples: the map [[1-a, b], [a, 1-b]] on
    cells (j, k), which keeps both lengths fixed (a l_j = b l_k).

    This is the sorted-frame induction with weights (d-majorisation; Marshall,
    Olkin & Arnold, Inequalities, 2nd ed., ch. 14). The densities mass/length
    and target/length must be non-increasing along the cells, and cumulative
    masses must dominate cumulative targets. Cells are visited in order; each
    cell k below its target draws from the last earlier cell j still above
    its target, moving delta = min(excess_j, deficit_k) with
    a = delta / (l_j (f_j - f_k)) and b = a l_j / l_k for densities f. Both
    are at most 1 because f_k < tau_k <= tau_j < f_j for target densities
    tau; they are capped there against round-off. Each move puts j or k
    exactly on its target, so there are fewer moves than cells, and the
    cells above target form a stack.

    A deficit with nothing above target before it (the pair misses the
    ordering by round-off, within the caller's tolerance) is left in place;
    the caller checks the residual of the map it builds.
    """
    m = list(mass)
    above, moves = [], []
    for k in range(len(m)):
        if m[k] > target[k]:
            above.append(k)
            continue
        while above and m[k] < target[k]:
            j = above[-1]
            gap = m[j] / length[j] - m[k] / length[k]
            if not gap > 0.0:  # both mismatches are round-off
                break
            excess, deficit = m[j] - target[j], target[k] - m[k]
            if excess <= deficit:
                delta = excess
                m[j] = target[j]
                above.pop()
                m[k] = target[k] if excess == deficit else m[k] + delta
            else:
                delta = deficit
                m[k] = target[k]
                m[j] -= delta
            # round-off can push a or b past 1 when the densities nearly
            # tie; capping a at l_k / l_j as well keeps a l_j = b l_k
            a = min(1.0, length[k] / length[j], delta / (length[j] * gap))
            moves.append((j, k, a, min(1.0, a * length[j] / length[k])))
    return moves


def hlp_construct(x: ProbVec, y: ProbVec, eps: float = DEFAULT_EPS) -> TTransformChain:
    """Constructive proof that majorisation implies a doubly-stochastic map.

    Requires majorizes(x, y); raises OrderingError otherwise. Sorts both
    vectors (stable, descending), runs the classical mixing induction in the
    sorted frame -- repeatedly solving ys_j = t xs_j + (1-t) xs_k and
    recursing on the unmatched coordinates -- and builds each T-transform
    once, in the original labelling of x. The returned chain holds at most
    n-1 T-transforms; its `perm` field records the final relabelling needed
    whenever x and y sort differently, and chain.matrix() is the full
    doubly-stochastic B with B x = y.
    """
    if len(x) != len(y):
        raise DimensionMismatchError("hlp_construct requires equal dimensions")
    if not majorizes(x, y, eps):
        raise OrderingError("x does not majorise y")
    return _hlp_construct(x, y)


def _hlp_construct(x: ProbVec, y: ProbVec) -> TTransformChain:
    """hlp_construct for equal dimensions and x known to majorise y."""
    n = len(x)
    ox = np.argsort(-x.p, kind="stable")
    oy = np.argsort(-y.p, kind="stable")
    # sorted-frame coordinate r is coordinate ox[r] of x
    transforms = [TTransform(int(ox[j]), int(ox[k]), t) for j, k, t in _sorted_frame_chain(x.p[ox], y.p[oy])]
    # rank r of the sorted frame lives at ox[r] after the transforms but must
    # end up at oy[r]; perm[i] = source index of output coordinate i
    perm = np.empty(n, dtype=int)
    perm[oy] = ox
    return TTransformChain(transforms, n, perm)


def shannon_entropy(x: ProbVec) -> float:
    p = x.p[x.p > 0]
    return float(-(p * np.log(p)).sum())


def asymptotic_rate(x: ProbVec, y: ProbVec) -> float:
    """Optimal many-copy conversion ratio (log n - H(x)) / (log n - H(y))."""
    if len(x) != len(y):
        raise DimensionMismatchError("asymptotic_rate requires equal dimensions")
    n = len(x)
    hy = shannon_entropy(y)
    if abs(np.log(n) - hy) < 1e-12:
        raise UnboundedRateError("target distribution is uniform; rate diverges")
    return float((np.log(n) - shannon_entropy(x)) / (np.log(n) - hy))
