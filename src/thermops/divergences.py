"""Renyi entropies and divergences with all limit branches, generalized free
energies, the Burg free energy, and the grid-based monotone-decrease checker.

Sign conventions follow the signed definitions

    H_a(x)     = sgn(a)/(1-a) * log sum_i x_i^a
    S_a(x||y)  = sgn(a)/(a-1) * log sum_i x_i^a y_i^(1-a)

which keep both families monotone under the relevant stochastic maps for
every real order a, including a < 0. Fixed conventions, applied everywhere:
0*log 0 = 0, and 0^a for a < 0 makes the quantity unbounded (returned as the
appropriate signed infinity, never raised as an error).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import DEFAULT_EPS, GibbsContext, ProbVec
from .errors import DimensionMismatchError, InvalidInputError


def _log_sum_pow(logw: np.ndarray) -> float:
    """log sum exp(logw), stabilised by factoring out the maximum."""
    m = logw.max()
    if not np.isfinite(m):
        return m
    return float(m + np.log(np.exp(logw - m).sum()))


def renyi_entropy(x: ProbVec, alpha: float) -> float:
    """H_alpha with dedicated branches at alpha in {0, 1, +inf, -inf}.

    alpha < 0 on a vector with zero entries diverges; the signed formula
    sends it to -inf.
    """
    p = x.p
    supp = p[p > 0]
    if alpha == 1:
        return float(-(supp * np.log(supp)).sum())
    if alpha == 0:
        return float(np.log(len(supp)))
    if alpha == math.inf:
        return float(-np.log(p.max()))
    if alpha == -math.inf:
        return float(np.log(supp.min()))
    if alpha < 0 and len(supp) < len(p):
        return -math.inf
    sgn = 1.0 if alpha > 0 else -1.0
    return sgn / (1.0 - alpha) * _log_sum_pow(alpha * np.log(supp))


class _SupportLogs(NamedTuple):
    """x and y on the support of x, with their logarithms: everything
    S_alpha(x||y) needs, so any number of orders share one support mask and
    one np.log pass per vector."""

    p: np.ndarray
    q: np.ndarray
    on: np.ndarray
    p_on: np.ndarray
    q_on: np.ndarray
    log_p: np.ndarray
    log_q: np.ndarray

    @classmethod
    def of(cls, x: ProbVec, y: ProbVec) -> "_SupportLogs":
        """Validated terms of S(x||y); y must have full support."""
        if len(x) != len(y):
            raise DimensionMismatchError("divergence requires equal dimensions")
        if np.any(y.p <= 0):
            raise InvalidInputError("second argument must have full support")
        p, q = x.p, y.p
        on = p > 0
        p_on, q_on = p[on], q[on]
        return cls(p, q, on, p_on, q_on, np.log(p_on), np.log(q_on))

    def reversed(self) -> "_SupportLogs":
        """The terms of S(y||x), reusing these arrays; valid only when x has
        full support."""
        return _SupportLogs(self.q, self.p, self.on, self.q_on, self.p_on, self.log_q, self.log_p)

    def divergence(self, alpha: float) -> float:
        p, q, on = self.p, self.q, self.on
        if alpha == 1:
            return float((self.p_on * (self.log_p - self.log_q)).sum())
        if alpha == 0:
            return float(-np.log(self.q_on.sum()))
        if alpha == math.inf:
            return float(np.log((p / q).max()))
        if alpha == -math.inf:
            # mirrors the +inf branch with arguments swapped; zeros in x make it
            # unbounded rather than an error
            if not np.all(on):
                return math.inf
            return float(np.log((q / p).max()))
        if alpha < 0 and not np.all(on):
            return math.inf
        sgn = 1.0 if alpha > 0 else -1.0
        logterms = alpha * self.log_p + (1.0 - alpha) * self.log_q
        return sgn / (alpha - 1.0) * _log_sum_pow(logterms)


def renyi_divergence(x: ProbVec, y: ProbVec, alpha: float) -> float:
    """S_alpha(x||y); y must have full support.

    Branches: alpha=1 Kullback-Leibler, alpha=0 minus log of y-mass on the
    support of x, alpha=+inf log max ratio, alpha=-inf mirrors the +inf
    branch with arguments swapped. alpha < 0 with zeros in x is unbounded
    (+inf).
    """
    return _SupportLogs.of(x, y).divergence(alpha)


def _require_beta(ctx: GibbsContext):
    if ctx.beta == 0:
        raise InvalidInputError(
            "free energies are undefined at beta = 0; use renyi_entropy instead"
        )


def _free_energy(logs: _SupportLogs, ctx: GibbsContext, alpha: float) -> float:
    kT = ctx.kT
    return float(-kT * np.log(ctx.Z) + kT * logs.divergence(alpha))


def free_energy_alpha(x: ProbVec, ctx: GibbsContext, alpha: float) -> float:
    """F_alpha(x) = -kT log Z + kT S_alpha(x || g). Rejects beta = 0."""
    return free_energies(x, ctx, [alpha])[0]


def _burg(logs: _SupportLogs, ctx: GibbsContext) -> float:
    """kT S_1(g || x) - kT log Z from the terms of S(x || g)."""
    if not logs.on.all():
        return math.inf
    kT = ctx.kT
    return kT * logs.reversed().divergence(1) - kT * np.log(ctx.Z)


def burg_free_energy(x: ProbVec, ctx: GibbsContext) -> float:
    """kT S_1(g || x) - kT log Z; +inf on rank-deficient x."""
    if ctx.beta == 0:
        raise InvalidInputError("Burg free energy undefined at beta = 0")
    return _burg(_SupportLogs.of(x, ctx.gibbs), ctx)


def default_alpha_grid() -> list[float]:
    """-inf, seven log-spaced points in [-5, -0.1], seven in [0.1, 5], 1, +inf."""
    pos = np.geomspace(0.1, 5.0, 7)
    neg = -np.geomspace(5.0, 0.1, 7)
    grid = [-math.inf, *neg.tolist(), *pos.tolist(), 1.0, math.inf]
    return sorted(set(grid))


BURG = "burg"


def free_energies(x: ProbVec, ctx: GibbsContext, orders) -> list[float]:
    """F_alpha(x) for every order in `orders`, the BURG tag standing for the
    Burg free energy, all from one support mask and one log pass of x and g.
    Rejects beta = 0."""
    _require_beta(ctx)
    logs = _SupportLogs.of(x, ctx.gibbs)
    return [_burg(logs, ctx) if alpha == BURG else _free_energy(logs, ctx, alpha) for alpha in orders]


@dataclass(frozen=True)
class SecondLawsVerdict:
    """Outcome of checking F_alpha(x) >= F_alpha(y) over a finite grid.

    `violations` lists (alpha, deficit) pairs with deficit = F_alpha(y) -
    F_alpha(x) > eps; alpha is the grid value or the "burg" tag. The check is
    necessary, never sufficient, for the existence of a thermal map x -> y;
    strict_count / nonstrict_count report how many grid points held with
    strict margin vs within tolerance, for use with the catalytic criterion
    (which needs strict inequalities away from alpha = 0).
    """

    passed: bool
    violations: tuple
    alpha_grid: tuple
    strict_count: int
    nonstrict_count: int
    eps: float = field(default=DEFAULT_EPS)

    def __post_init__(self):
        if self.passed != (len(self.violations) == 0):
            raise InvalidInputError("passed must hold exactly when there are no violations")


def second_laws_check(
    x: ProbVec,
    y: ProbVec,
    ctx: GibbsContext,
    alpha_grid=None,
    eps: float = DEFAULT_EPS,
) -> SecondLawsVerdict:
    """Record every grid point (Burg included) where F_alpha(x) < F_alpha(y)."""
    if alpha_grid is None:
        alpha_grid = default_alpha_grid()
    alpha_grid = list(alpha_grid)
    if not alpha_grid:
        raise InvalidInputError("alpha grid must be non-empty")
    orders = [*alpha_grid, BURG]
    violations = []
    strict = nonstrict = 0
    for alpha, fx, fy in zip(orders, free_energies(x, ctx, orders), free_energies(y, ctx, orders)):
        if fx == math.inf and fy == math.inf:
            nonstrict += 1  # both unbounded: vacuous at this order
            continue
        diff = fx - fy
        if diff < -eps:
            violations.append((alpha, float(fy - fx) if fy != math.inf else math.inf))
        elif diff > eps:
            strict += 1
        else:
            nonstrict += 1
    return SecondLawsVerdict(
        passed=not violations,
        violations=tuple(violations),
        alpha_grid=tuple(alpha_grid),
        strict_count=strict,
        nonstrict_count=nonstrict,
        eps=eps,
    )
