"""Quantum layer: dephasing, coherence modes, asymmetry monotones, the
free-energy decomposition, covariant-channel checks and Choi block analysis,
the closed-form qubit solution, and the ladder-bath transport simulation.

All operators are expressed in the energy eigenbasis of an EnergySpectrum.
Transition frequencies are grouped with a tolerance delta (default
1e-9 * spectral spread) because floating-point spectra are never exactly
degenerate; merged near-degeneracies are an explicit policy, not an accident.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    EnergySpectrum,
    GibbsContext,
    ProbVec,
    StochasticMatrix,
    population_of,
    thermal_state,
)
from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    ResolutionError,
    UnreachableError,
)


def default_delta(spectrum: EnergySpectrum) -> float:
    spread = float(spectrum.energies.max() - spectrum.energies.min())
    return 1e-9 * spread if spread > 0 else 1e-9


# ---------------------------------------------------------------------------
# Bohr spectrum and modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BohrSpectrum:
    """Distinct transition frequencies E_i - E_j, clustered within delta."""

    frequencies: np.ndarray
    delta: float

    def __post_init__(self):
        arr = np.asarray(self.frequencies, dtype=float)
        object.__setattr__(self, "frequencies", arr)
        arr.setflags(write=False)

    def __len__(self):
        return len(self.frequencies)

    def __iter__(self):
        return iter(self.frequencies.tolist())


def bohr_spectrum(spectrum: EnergySpectrum, delta: float | None = None) -> BohrSpectrum:
    """All pairwise energy differences, clustered within delta; each cluster is
    represented by its mean. Contains 0 and is closed under negation by
    construction; clusters that would merge 0 with a nonzero frequency raise
    a resolution error."""
    if delta is None:
        delta = default_delta(spectrum)
    if delta < 0:
        raise InvalidInputError("clustering tolerance must be >= 0")
    e = spectrum.energies
    diffs = np.sort((e[:, None] - e[None, :]).ravel())
    reps, clusters = [], []
    start = 0
    for k in range(1, len(diffs) + 1):
        if k == len(diffs) or diffs[k] - diffs[k - 1] > delta:
            reps.append(diffs[start:k].mean())
            clusters.append(diffs[start:k])
            start = k
    reps = np.asarray(reps)
    zero = int(np.argmin(np.abs(reps)))
    # the cluster holding zero must contain only frequencies one would call
    # zero at this tolerance
    if np.max(np.abs(clusters[zero])) > max(delta, 1e-12):
        raise ResolutionError(
            "clustering tolerance merges the zero mode with a nonzero frequency"
        )
    # symmetrise: average each cluster with the negated mirror cluster
    mirrored = np.array([-reps[np.argmin(np.abs(reps + r))] for r in reps])
    reps = (reps + mirrored) / 2.0
    reps[np.argmin(np.abs(reps))] = 0.0
    return BohrSpectrum(np.unique(reps), float(delta))


def _pair_frequencies(spectrum: EnergySpectrum) -> np.ndarray:
    e = spectrum.energies
    return e[:, None] - e[None, :]


@dataclass(frozen=True)
class ModeDecomposition:
    """rho split by transition frequency: components[omega] holds exactly the
    entries (a, b) with E_a - E_b = omega; the pieces sum back to rho and the
    -omega piece is the adjoint of the +omega piece."""

    components: dict
    spectrum: EnergySpectrum

    def omegas(self):
        return sorted(self.components.keys())

    def total(self) -> np.ndarray:
        return sum(self.components.values())

    def __getitem__(self, omega):
        key = min(self.components.keys(), key=lambda w: abs(w - omega))
        if abs(key - omega) > 1e-9 * (1 + abs(omega)):
            raise KeyError(omega)
        return self.components[key]


def mode_projector(rho_matrix: np.ndarray, spectrum: EnergySpectrum, omega: float, delta=None) -> np.ndarray:
    """Entries of rho with E_a - E_b within delta of omega, zero elsewhere."""
    if delta is None:
        delta = default_delta(spectrum)
    freq = _pair_frequencies(spectrum)
    mask = np.abs(freq - omega) <= max(delta, 1e-12)
    return np.where(mask, rho_matrix, 0.0)


def mode_decompose(rho: DensityMatrix, spectrum: EnergySpectrum, delta=None) -> ModeDecomposition:
    if rho.n != spectrum.n:
        raise DimensionMismatchError("state/spectrum dimension mismatch")
    if delta is None:
        delta = default_delta(spectrum)
    bohr = bohr_spectrum(spectrum, delta)
    comps = {}
    total = np.zeros_like(rho.rho)
    for omega in bohr:
        comp = mode_projector(rho.rho, spectrum, omega, delta)
        total += comp
        if np.any(comp != 0) or omega == 0.0:
            comps[omega] = comp
    # frequency clusters wider than the matching tolerance would drop or
    # double-count entries; refuse rather than return a broken partition
    if np.max(np.abs(total - rho.rho)) > 1e-12:
        raise ResolutionError("frequency clusters too coarse for a clean mode split")
    return ModeDecomposition(comps, spectrum)


def dephase(rho: DensityMatrix, spectrum: EnergySpectrum, delta=None) -> DensityMatrix:
    """Remove every entry connecting distinct energies; the zero-mode
    projection. Coherences inside exactly degenerate eigenspaces survive."""
    if rho.n != spectrum.n:
        raise DimensionMismatchError("state/spectrum dimension mismatch")
    return DensityMatrix(mode_projector(rho.rho, spectrum, 0.0, delta))


# ---------------------------------------------------------------------------
# Entropic helpers
# ---------------------------------------------------------------------------


def _eigh(m: np.ndarray):
    return np.linalg.eigh((m + m.conj().T) / 2.0)


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    m = np.asarray(rho, dtype=complex)
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    w = w[w > 1e-15]
    return float(-(w * np.log(w)).sum())


def quantum_relative_entropy(rho, sigma, support_tol: float = 1e-12) -> float:
    """tr rho (log rho - log sigma); +inf when rho has mass outside the
    support of sigma."""
    r = np.asarray(rho, dtype=complex)
    s = np.asarray(sigma, dtype=complex)
    ws, us = _eigh(s)
    ws = np.clip(ws, 0.0, None)
    outside = ws <= support_tol
    if outside.any():
        proj = us[:, outside]
        if np.real(np.trace(proj.conj().T @ r @ proj)) > 1e-10:
            return math.inf
    wr, ur = _eigh(r)
    wr = np.clip(wr, 0.0, None)
    tr_rlogr = float((wr[wr > 1e-15] * np.log(wr[wr > 1e-15])).sum())
    logs = np.where(ws > support_tol, np.log(np.where(ws > support_tol, ws, 1.0)), 0.0)
    log_sigma = us @ np.diag(logs) @ us.conj().T
    tr_rlogs = float(np.real(np.trace(r @ log_sigma)))
    return tr_rlogr - tr_rlogs


def fidelity(rho, sigma) -> float:
    """tr sqrt(sqrt(rho) sigma sqrt(rho)), clipped to [0, 1].

    Eigenvalues below 1e-14 of the largest are treated as exact zeros: the
    square root would otherwise turn 1e-16-level eigensolver noise into
    1e-8-level fidelity error, which matters when comparing nearly identical
    states."""
    r = np.asarray(rho, dtype=complex)
    s = np.asarray(sigma, dtype=complex)
    wr, ur = _eigh(r)
    sq = ur @ np.diag(np.sqrt(np.clip(wr, 0.0, None))) @ ur.conj().T
    inner = sq @ s @ sq
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    if w.max() > 0:
        w[w < 1e-14 * w.max()] = 0.0
    return float(min(1.0, np.sqrt(w).sum()))


def _matrix_power_on_support(m: np.ndarray, power: float, support_tol: float = 1e-12):
    w, u = _eigh(m)
    w = np.clip(w, 0.0, None)
    on = w > support_tol
    pw = np.zeros_like(w)
    pw[on] = w[on] ** power
    return u @ np.diag(pw) @ u.conj().T


# ---------------------------------------------------------------------------
# Asymmetry monotones
# ---------------------------------------------------------------------------


def asymmetry(rho: DensityMatrix, spectrum: EnergySpectrum, delta=None) -> float:
    """S(D(rho)) - S(rho): the entropy produced by full dephasing in the
    eigenbasis grouping given by `spectrum`, with levels closer than delta
    kept coherent."""
    a = von_neumann_entropy(dephase(rho, spectrum, delta)) - von_neumann_entropy(rho)
    return max(0.0, float(a))


def asymmetry_alpha(rho: DensityMatrix, spectrum: EnergySpectrum, alpha: float) -> float:
    """Renyi asymmetry S_alpha(rho || D(rho)): Petz form on (0,1), sandwiched
    form above 1, relative entropy at 1. Unbounded (+inf) if the dephased
    state fails to support rho, which cannot happen for D(rho) but is handled
    for robustness."""
    if not (alpha == 1 or 0 < alpha < 1 or alpha > 1):
        raise InvalidInputError("alpha must be positive")
    sigma = dephase(rho, spectrum).rho
    r = rho.rho
    if alpha == 1:
        return max(0.0, quantum_relative_entropy(r, sigma))
    ws, us = _eigh(sigma)
    on = np.clip(ws, 0, None) > 1e-12
    if (~on).any():
        proj = us[:, ~on]
        if np.real(np.trace(proj.conj().T @ r @ proj)) > 1e-10:
            return math.inf
    if alpha < 1:
        ra = _matrix_power_on_support(r, alpha)
        sa = _matrix_power_on_support(sigma, 1.0 - alpha)
        val = np.real(np.trace(ra @ sa))
        return max(0.0, float(np.log(val) / (alpha - 1.0)))
    sa = _matrix_power_on_support(sigma, (1.0 - alpha) / (2.0 * alpha))
    inner = sa @ r @ sa
    ia = _matrix_power_on_support(inner, alpha, support_tol=0.0)
    val = np.real(np.trace(ia))
    return max(0.0, float(np.log(val) / (alpha - 1.0)))


holevo_asymmetry = asymmetry


def qfi(rho: DensityMatrix, spectrum: EnergySpectrum) -> float:
    """Quantum Fisher information of time evolution, normalised so that pure
    states give 4 Var(H): the sum of 2 (l_i - l_j)^2 / (l_i + l_j) |H_ij|^2
    over eigenpairs of rho with l_i + l_j > 1e-14, H_ij taken in rho's
    eigenbasis (Braunstein & Caves, PRL 72, 3439)."""
    if rho.n != spectrum.n:
        raise DimensionMismatchError("state/spectrum dimension mismatch")
    w, u = _eigh(rho.rho)
    h = np.abs(u.conj().T @ (spectrum.energies[:, None] * u)) ** 2
    s = w[:, None] + w[None, :]
    on = s > 1e-14
    return float(np.sum(2.0 * (w[:, None] - w[None, :])[on] ** 2 / s[on] * h[on]))


def free_energy_split(rho: DensityMatrix, ctx: GibbsContext) -> tuple[float, float, float]:
    """(total, classical, coherent) free energies above equilibrium:
    kT S(rho||gamma) = kT S(D(rho)||gamma) + kT A(rho)."""
    if ctx.beta == 0:
        raise InvalidInputError("free-energy split undefined at beta = 0")
    kT = ctx.kT
    gamma = thermal_state(ctx).rho
    total = kT * quantum_relative_entropy(rho.rho, gamma)
    classical = kT * quantum_relative_entropy(dephase(rho, ctx.spectrum).rho, gamma)
    coherent = kT * asymmetry(rho, ctx.spectrum)
    return float(total), float(classical), float(coherent)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ks:
            raise InvalidInputError("channel needs at least one Kraus operator")
        n = ks[0].shape[0]
        for k in ks:
            if k.shape != (n, n):
                raise InvalidInputError("Kraus operators must be square, same size")
        total = sum(k.conj().T @ k for k in ks)
        if np.max(np.abs(total - np.eye(n))) > 1e-9:
            raise InvalidInputError("Kraus operators are not trace-preserving")
        object.__setattr__(self, "kraus", ks)

    @property
    def n(self) -> int:
        return self.kraus[0].shape[0]

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        return sum(k @ m @ k.conj().T for k in self.kraus)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        return DensityMatrix(self.apply_matrix(rho.rho))

    def choi(self) -> np.ndarray:
        """J = sum_{x,y} E(|x><y|) (x) |x><y|; block index (out, in)."""
        n = self.n
        omega = np.zeros((n * n, 1), dtype=complex)
        omega[:: n + 1] = 1.0  # |Omega> = sum_x |x>|x>
        j = np.zeros((n * n, n * n), dtype=complex)
        for k in self.kraus:
            kv = np.kron(k, np.eye(n)) @ omega
            j += kv @ kv.conj().T
        return j

    def classical_action(self) -> StochasticMatrix:
        """P[x', x] = <x'| E(|x><x|) |x'>."""
        n = self.n
        p = np.zeros((n, n))
        for k in self.kraus:
            p += np.abs(k) ** 2
        return StochasticMatrix(p)


def identity_channel(n: int) -> QuantumChannel:
    return QuantumChannel((np.eye(n),))


def partial_dephasing_channel(spectrum: EnergySpectrum, s: float) -> QuantumChannel:
    """(1-s) id + s D as a Kraus channel, valid for s in [0, 1]."""
    if not 0 <= s <= 1:
        raise InvalidInputError("dephasing strength must lie in [0, 1]")
    n = spectrum.n
    ks = [np.sqrt(1 - s) * np.eye(n, dtype=complex)]
    for a in range(n):
        k = np.zeros((n, n), dtype=complex)
        k[a, a] = np.sqrt(s)
        ks.append(k)
    return QuantumChannel(tuple(ks))


def channel_covariance_check(
    ch: QuantumChannel, spectrum: EnergySpectrum, tol: float = 1e-9, delta=None
) -> bool:
    """True iff the Choi matrix commutes with H (x) I - I (x) H*: every entry
    coupling distinct transition frequencies must vanish."""
    if ch.n != spectrum.n:
        raise DimensionMismatchError("channel/spectrum dimension mismatch")
    if delta is None:
        delta = default_delta(spectrum)
    n = ch.n
    j = ch.choi()
    e = spectrum.energies
    omega_flat = (e[:, None] - e[None, :]).ravel()  # index x'*n + x -> E_x' - E_x
    gap = np.abs(omega_flat[:, None] - omega_flat[None, :]) > max(delta, 1e-12)
    return bool(np.max(np.abs(np.where(gap, j, 0.0))) <= tol)


def gibbs_preserving_check(ch: QuantumChannel, ctx: GibbsContext, tol: float = 1e-9) -> bool:
    gamma = thermal_state(ctx).rho
    return bool(np.max(np.abs(ch.apply_matrix(gamma) - gamma)) <= tol)


def cp_bound(
    p_matrix: StochasticMatrix,
    rho: DensityMatrix,
    spectrum: EnergySpectrum,
    xp: int,
    yp: int,
    delta=None,
) -> float:
    """Largest coherence magnitude any covariant channel with classical action
    P can produce at (xp, yp): sum of sqrt(P[xp|x] P[yp|y]) |rho[x, y]| over
    the input pairs in the same mode as (xp, yp)."""
    n = rho.n
    if p_matrix.n != n or spectrum.n != n:
        raise DimensionMismatchError("dimension mismatch")
    if not (0 <= xp < n and 0 <= yp < n):
        raise InvalidInputError("target indices out of range")
    if delta is None:
        delta = default_delta(spectrum)
    freq = _pair_frequencies(spectrum)
    target = freq[xp, yp]
    mask = np.abs(freq - target) <= max(delta, 1e-12)
    weights = np.sqrt(np.outer(p_matrix.entries[xp, :], p_matrix.entries[yp, :]))
    return float((weights * np.abs(rho.rho) * mask).sum())


def mode_shift_bound(ctx: GibbsContext, dE: float) -> float:
    """Maximal fraction of coherence transportable one rung up an equispaced
    three-level ladder: exp(-beta dE)."""
    e = ctx.spectrum.energies
    if len(e) != 3:
        raise InvalidInputError("mode shift bound is defined for three levels")
    gaps = np.diff(e)
    if abs(gaps[0] - gaps[1]) > 1e-9 * max(1.0, abs(dE)) or abs(gaps[0] - dE) > 1e-9 * max(1.0, abs(dE)):
        raise InvalidInputError("context is not equispaced with the requested gap")
    return float(np.exp(-ctx.beta * dE))


# ---------------------------------------------------------------------------
# Qubit solution
# ---------------------------------------------------------------------------


def _qubit_context_check(ctx: GibbsContext) -> float:
    if ctx.n != 2:
        raise InvalidInputError("qubit operations need a two-level context")
    return float(ctx.gibbs.p[0])


def qubit_coherence_bound(p: float, q: float, ctx: GibbsContext, c: float) -> tuple[float, float]:
    """Mixing weight lambda realising the population move p -> q, and the
    largest surviving coherence d_max given initial coherence c.

    Populations refer to the ground state. Requires c <= sqrt(p(1-p)); the
    target is unreachable when the implied lambda leaves [0, 1], and when
    p equals the thermal population only q = p is reachable.
    """
    g = _qubit_context_check(ctx)
    if not (0 <= p <= 1 and 0 <= q <= 1):
        raise InvalidInputError("populations must lie in [0, 1]")
    if c < 0 or c > np.sqrt(p * (1 - p)) + 1e-12:
        raise InvalidInputError("coherence exceeds the positivity limit sqrt(p(1-p))")
    if abs(p - g) < 1e-14:
        if abs(q - g) < 1e-14:
            return 0.0, float(c)
        raise UnreachableError("thermal population can only stay thermal")
    lam = (q - p) * g / (g - p)
    if lam < -1e-12 or lam > 1 + 1e-12:
        raise UnreachableError(
            f"population {q} is not reachable from {p} (lambda = {lam:.6g})"
        )
    lam = min(1.0, max(0.0, lam))
    prod = (q * (1 - g) - g * (1 - p)) * (p * (1 - g) - g * (1 - q))
    d_max = np.sqrt(max(0.0, prod)) / abs(p - g) * c
    return float(lam), float(d_max)


def _qubit_lambda_matrix(lam: float, ctx: GibbsContext) -> np.ndarray:
    g = _qubit_context_check(ctx)
    ebeta = ctx.gibbs.p[1] / g  # exp(-beta E)
    return np.array([[1 - lam * ebeta, lam], [lam * ebeta, 1 - lam]])


def qubit_optimal_channel(p: float, q: float, ctx: GibbsContext) -> QuantumChannel:
    """Three-Kraus covariant Gibbs-preserving channel saturating the qubit
    coherence bound for the population move p -> q."""
    lam, _ = qubit_coherence_bound(p, q, ctx, c=0.0)
    gmat = _qubit_lambda_matrix(lam, ctx)
    k0 = np.diag([np.sqrt(gmat[0, 0]), np.sqrt(gmat[1, 1])]).astype(complex)
    k1 = np.zeros((2, 2), dtype=complex)
    k1[1, 0] = np.sqrt(gmat[1, 0])
    km1 = np.zeros((2, 2), dtype=complex)
    km1[0, 1] = np.sqrt(gmat[0, 1])
    return QuantumChannel((k0, k1, km1))


def qubit_reachable_boundary(
    p: float, c: float, ctx: GibbsContext, samples: int
) -> list[tuple[float, float]]:
    """Boundary (q, d_max) of the reachable qubit region, swept over the full
    mixing range lambda in [0, 1]; interior points follow by partial
    dephasing of a boundary channel."""
    if samples < 2:
        raise InvalidInputError("need at least two samples")
    _qubit_context_check(ctx)
    out = []
    for lam in np.linspace(0.0, 1.0, samples):
        gmat = _qubit_lambda_matrix(lam, ctx)
        q = float(gmat[0, 0] * p + gmat[0, 1] * (1 - p))
        d = float(np.sqrt(gmat[0, 0] * gmat[1, 1]) * c)
        out.append((q, d))
    return out


# ---------------------------------------------------------------------------
# Ladder-bath transport
# ---------------------------------------------------------------------------


def ladder_truncation_tail(beta: float, dE: float, n_trunc: int) -> float:
    """Thermal mass of the discarded bath levels, exp(-beta dE n_trunc)."""
    return float(np.exp(-beta * dE * n_trunc))


def _ladder_permutation(n_bath: int) -> np.ndarray:
    """perm[s * n_bath + b] = image index of system level s, bath level b
    under the energy-preserving three-level ladder unitary."""
    idx = lambda s, b: s * n_bath + b
    perm = np.arange(3 * n_bath)
    perm[idx(1, 0)] = idx(0, 1)
    perm[idx(0, 1)] = idx(1, 0)
    for i in range(2, n_bath):
        perm[idx(2, i - 2)] = idx(1, i - 1)
        perm[idx(1, i - 1)] = idx(0, i)
        perm[idx(0, i)] = idx(2, i - 2)
    return perm


def ladder_simulate(
    rho: DensityMatrix,
    dE: float,
    beta: float,
    n_trunc: int,
    direction: str,
) -> DensityMatrix:
    """Exchange coherence with a truncated single-mode thermal ladder bath.

    Applies the explicit energy-preserving shift unitary (its inverse for
    direction="up") to system (x) bath and traces the bath out. Downward
    transport of a (2,1) coherence is perfect up to the truncation tail;
    upward transport of a (1,0) coherence is damped by exp(-beta dE). The
    unitary permutes basis states within constant-energy shells, so it is
    applied as an index permutation. Two unpopulated bath levels are appended
    above the truncation so every shell carrying thermal weight is complete;
    the only truncation effect left is the renormalisation of the bath state.
    """
    if rho.n != 3:
        raise InvalidInputError("ladder transport is defined for three levels")
    if n_trunc < 3:
        raise ResolutionError("need at least three bath levels")
    if dE <= 0 or beta < 0:
        raise InvalidInputError("need dE > 0 and beta >= 0")
    if direction not in ("up", "down"):
        raise InvalidInputError("direction must be 'up' or 'down'")
    nb = int(n_trunc)
    w = np.exp(-beta * dE * np.arange(nb))
    gamma_b = w / w.sum()
    npad = nb + 2
    perm = _ladder_permutation(npad)
    if direction == "up":
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        perm = inv
    out = np.zeros((3, 3), dtype=complex)
    rho_m = rho.rho
    for b in range(nb):
        dst = [perm[s * npad + b] for s in range(3)]
        for s in range(3):
            for sp in range(3):
                # only bath-diagonal pairs survive the partial trace
                if dst[s] % npad == dst[sp] % npad:
                    out[dst[s] // npad, dst[sp] // npad] += rho_m[s, sp] * gamma_b[b]
    return DensityMatrix(out)
