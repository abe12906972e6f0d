"""Foundational value types: spectra, thermal contexts, probability vectors,
stochastic matrices, piecewise-linear curves and density matrices.

Conventions used throughout the library:
  * natural units, k = hbar = 1, so kT = 1/beta and all logarithms are natural;
  * stochastic matrices are column-stochastic, entry (i, j) is the transition
    probability j -> i;
  * density matrices are expressed in the energy eigenbasis of the associated
    spectrum.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError

# Validation tolerances (sums, traces) vs algebraic identities vs round-off
# clamping. Curve/ordering comparisons default to DEFAULT_EPS, overridable.
VALIDATION_TOL = 1e-9
ALGEBRA_TOL = 1e-10
CLAMP_TOL = 1e-12
DEFAULT_EPS = 1e-9


def _as_float_array(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise InvalidInputError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must contain only finite reals")
    return arr


@dataclass(frozen=True)
class EnergySpectrum:
    """Sorted energy levels E_0 <= E_1 <= ... (degeneracies allowed)."""

    energies: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.energies, "energies")
        if arr.ndim != 1:
            raise InvalidInputError("energies must be a 1-d sequence")
        if np.any(np.diff(arr) < 0):
            raise InvalidInputError("energies must be sorted non-decreasing")
        object.__setattr__(self, "energies", arr)
        arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.energies)

    def __len__(self):
        return len(self.energies)


@dataclass(frozen=True)
class ProbVec:
    """Probability vector; entries in [-1e-12, ...) are clamped to zero."""

    p: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.p, "probabilities").copy()
        if arr.ndim != 1:
            raise InvalidInputError("probability vector must be 1-d")
        if np.any(arr < -CLAMP_TOL):
            raise InvalidInputError(
                f"negative probability below clamp tolerance: min={arr.min():.3e}"
            )
        arr[arr < 0] = 0.0
        total = arr.sum()
        if abs(total - 1.0) > VALIDATION_TOL:
            raise InvalidInputError(f"probabilities sum to {total:.12g}, not 1")
        object.__setattr__(self, "p", arr)
        arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.p)

    def __len__(self):
        return len(self.p)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.p, dtype=dtype)

    def __getitem__(self, idx):
        return self.p[idx]


@dataclass(frozen=True)
class GibbsContext:
    """An energy spectrum together with an inverse temperature.

    Derived fields: the Gibbs vector g_i = exp(-beta E_i)/Z and the partition
    function Z. beta = 0 gives the uniform distribution.
    """

    spectrum: EnergySpectrum
    beta: float
    gibbs: ProbVec = field(init=False)
    Z: float = field(init=False)

    def __post_init__(self):
        beta = float(self.beta)
        if not np.isfinite(beta) or beta < 0:
            raise InvalidInputError(f"beta must be finite and >= 0, got {beta}")
        object.__setattr__(self, "beta", beta)
        g = gibbs_vector(self.spectrum, beta)
        if np.any(g.p <= 0):
            raise InvalidInputError(
                "Gibbs weights underflow to zero; beta too large for this spectrum"
            )
        object.__setattr__(self, "gibbs", g)
        e = self.spectrum.energies
        # exp-sum with the minimum factored out so intermediates cannot overflow
        emin = e.min()
        object.__setattr__(
            self, "Z", float(np.exp(-beta * emin) * np.exp(-beta * (e - emin)).sum())
        )

    @property
    def n(self) -> int:
        return self.spectrum.n

    @property
    def kT(self) -> float:
        if self.beta == 0:
            raise InvalidInputError("kT is infinite at beta = 0")
        return 1.0 / self.beta

    def boltzmann_weights(self) -> np.ndarray:
        """exp(-beta E_i) = Z * g_i, the x-axis increments of thermal curves."""
        return np.exp(-self.beta * self.spectrum.energies)


def gibbs_vector(spectrum: EnergySpectrum, beta: float) -> ProbVec:
    """Thermal distribution g_i = exp(-beta E_i)/Z for the given spectrum.

    Stabilised by shifting energies to min zero before exponentiating, so the
    result is invariant under a constant energy shift.
    """
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0:
        raise InvalidInputError(f"beta must be finite and >= 0, got {beta}")
    e = spectrum.energies
    w = np.exp(-beta * (e - e.min()))
    return ProbVec(w / w.sum())


@dataclass(frozen=True)
class StochasticMatrix:
    """Column-stochastic transition matrix, entries G[i, j] = P(j -> i)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float).copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInputError("stochastic matrix must be square")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("stochastic matrix entries must be finite")
        if np.any(arr < -CLAMP_TOL) or np.any(arr > 1 + CLAMP_TOL):
            raise InvalidInputError("stochastic matrix entries must lie in [0, 1]")
        arr = np.clip(arr, 0.0, 1.0)
        colsums = arr.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > VALIDATION_TOL):
            raise InvalidInputError(
                f"column sums deviate from 1 by up to {np.abs(colsums - 1).max():.3e}"
            )
        object.__setattr__(self, "entries", arr)
        arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)

    def apply(self, x: ProbVec) -> ProbVec:
        if len(x) != self.n:
            raise DimensionMismatchError("matrix/vector dimension mismatch")
        return ProbVec(self.entries @ x.p)

    def fixes(self, g: ProbVec, tol: float = VALIDATION_TOL) -> bool:
        return bool(np.max(np.abs(self.entries @ g.p - g.p)) <= tol)


@dataclass(frozen=True)
class PLCurve:
    """Piecewise-linear curve given by its breakpoints.

    Consecutive points with exactly equal x form a run, which is merged into
    its first point; every y in a run must agree with the run's first y
    within VALIDATION_TOL. After merging, x must be strictly increasing and
    y non-decreasing. Concavity is a property of the curves produced by
    lorenz_curve / thermo_curve, not of the type itself.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise InvalidInputError("curve needs at least two (x, y) points")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("curve points must be finite")
        dx = np.diff(pts[:, 0])
        if (dx > 0).all():
            pts = pts.copy()  # no runs to merge; own the array we freeze
        else:
            new_run = np.concatenate(([True], dx != 0))
            run_start = np.maximum.accumulate(np.where(new_run, np.arange(len(pts)), 0))
            if (np.abs(pts[:, 1] - pts[run_start, 1]) > VALIDATION_TOL).any():
                raise InvalidInputError("duplicate x with conflicting y values")
            if (dx < 0).any():
                raise InvalidInputError("curve x coordinates must be strictly increasing")
            pts = pts[new_run]
        if np.any(np.diff(pts[:, 1]) < -CLAMP_TOL):
            raise InvalidInputError("curve y coordinates must be non-decreasing")
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    def evaluate(self, x) -> np.ndarray:
        """Linear interpolation; clamps to endpoint values outside the range."""
        return np.interp(np.asarray(x, dtype=float), self.x, self.y)

    def end(self) -> tuple[float, float]:
        return float(self.x[-1]), float(self.y[-1])


def curve_dominates(top: PLCurve, bottom: PLCurve, eps: float = DEFAULT_EPS) -> bool:
    """True iff `top` lies nowhere below `bottom`, compared at the union of
    breakpoint abscissas (exact for piecewise-linear curves), with matching
    endpoints: ordinates within eps, abscissas within eps * max(1, |x_end|).
    The abscissa test is relative because two curves of one context end at
    the same sum of weights taken in different orders, whose rounding grows
    with the sum."""
    (xt, yt), (xb, yb) = top.end(), bottom.end()
    if abs(xt - xb) > eps * max(1.0, abs(xt), abs(xb)) or abs(yt - yb) > eps:
        return False
    grid = np.union1d(top.x, bottom.x)
    return bool(np.all(top.evaluate(grid) >= bottom.evaluate(grid) - eps))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix in the energy basis."""

    rho: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rho, dtype=complex).copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInputError("density matrix must be square")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("density matrix entries must be finite")
        if np.max(np.abs(arr - arr.conj().T)) > 1e-10:
            raise InvalidInputError("density matrix is not Hermitian")
        arr = (arr + arr.conj().T) / 2.0
        tr = np.trace(arr).real
        if abs(tr - 1.0) > VALIDATION_TOL:
            raise InvalidInputError(f"trace is {tr:.12g}, not 1")
        evals = np.linalg.eigvalsh(arr)
        if evals.min() < -1e-9:
            raise InvalidInputError(
                f"density matrix has negative eigenvalue {evals.min():.3e}"
            )
        object.__setattr__(self, "rho", arr)
        arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.rho.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.rho, dtype=dtype)

    @staticmethod
    def from_diag(p) -> "DensityMatrix":
        return DensityMatrix(np.diag(np.asarray(p, dtype=complex)))

    @staticmethod
    def pure(amplitudes) -> "DensityMatrix":
        v = np.asarray(amplitudes, dtype=complex)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise InvalidInputError("zero state vector")
        v = v / nrm
        return DensityMatrix(np.outer(v, v.conj()))


def population_of(rho: DensityMatrix) -> ProbVec:
    """Diagonal of the state in the energy basis, as a probability vector."""
    return ProbVec(np.real(np.diag(rho.rho)))


def thermal_state(ctx: GibbsContext) -> DensityMatrix:
    return DensityMatrix.from_diag(ctx.gibbs.p)
