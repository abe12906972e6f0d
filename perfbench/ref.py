"""Reference checker: tolerances and independent reference computations.

Tolerances are the ones pinned in tests/test_acceptance.py; where no
criterion exists the README convention applies (JSON results carry 12
significant digits, so a value must agree with the reference to 1e-10,
relative to max(1, |reference|)). Only numpy and the standard library are
imported here.
"""
from __future__ import annotations

import decimal
import math

import numpy as np

MAP_RESIDUAL = 1e-9  # criterion 6: |B x - y| of a synthesised map
ORACLE_GAP = 1e-8  # criterion 8: geometric work oracle vs closed form
QFI = 1e-4  # criterion 15: qfi estimator vs the spectral formula
IDENTITY = 1e-10  # criteria 9, 10, 12: algebraic identities and saturation
BREAKPOINT = 1e-12  # criterion 4: emitted curve breakpoints
VALUE = 1e-10  # README: 12 significant digits in JSON results
EPS = 1e-9  # the library's default ordering tolerance
DECISIVE = 1e-10  # a reference verdict this close to eps is not checked

# An error of exactly zero reads as one unit roundoff, so margins stay finite.
ERR_FLOOR = 2.220446049250313e-16


def bath_bound(n: int, g_e: int) -> float:
    """Criterion 14's residual bound, n / gE (3 / gE at n = 3)."""
    return n / g_e


# unit roundoff of binary64
UNIT = 2.0 ** -53


def ladder_tail(beta: float, de: float, n_trunc: int) -> float:
    """The truncation tail of a thermal ladder bath cut at n_trunc levels."""
    return math.exp(-beta * de * n_trunc) / (1.0 - math.exp(-beta * de))


def ladder_floor(beta: float, de: float, n_trunc: int) -> float:
    """Criterion 13's allowance: the truncation tail plus a rounding floor.
    The criterion pins 1e-15 for 40 bath levels on its three inputs; the
    floor grows with the number of levels summed, 2.5e-17 per level. Random
    inputs exceed it by a few ulps now and then, so it is a gauge."""
    return ladder_tail(beta, de, n_trunc) + 2.5e-17 * n_trunc


def ladder_bound(beta: float, de: float, n_trunc: int) -> float:
    """The gated allowance: the truncation tail plus a first-order bound on
    the rounding of the computation itself. Normalising n_trunc bath weights
    and summing n_trunc products into one entry move each component of the
    transported coherence by at most 2 n_trunc u; 8 u more cover the
    rounding of beta dE and of exp in the upward factor."""
    return ladder_tail(beta, de, n_trunc) + (2 * n_trunc + 8) * UNIT


def ladder_deviation(got: complex, start: complex, beta: float = 0.0, de: float = 0.0) -> float:
    """| |got| / |start| - exp(-beta dE) |, computed from the exact values of
    the floats at 40 significant digits, so that the rounding of the check
    itself does not count against the answer."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40

        def modulus(z):
            return (decimal.Decimal(z.real) ** 2 + decimal.Decimal(z.imag) ** 2).sqrt()

        target = (-decimal.Decimal(beta) * decimal.Decimal(de)).exp()
        return float(abs(modulus(got) / modulus(start) - target))


class Check:
    """Collects the failures and accuracy margins of one or more answers.

    A failure names the public function whose output was rejected, so the
    traced run can count errors per module. `margins[fn]` is the largest
    log10(error / tolerance) seen for fn. A check with gate=False is a
    gauge: its margin is reported and an error beyond the tolerance is
    counted as `<fn>.beyond_gate`, but it does not fail the question (see
    README.md for the gauges and why)."""

    def __init__(self):
        self.failures = []
        self.margins = {}
        self.checked = {}
        self.failed_fns = set()
        self.counts = {}

    def _touch(self, fn):
        self.checked[fn] = self.checked.get(fn, 0) + 1

    def within(self, fn: str, err: float, tol: float, gate: bool = True) -> bool:
        err = float(err)
        ok = err <= tol  # NaN fails
        m = math.log10(max(err, ERR_FLOOR) / tol) if ok or math.isfinite(err) else math.inf
        self.margins[fn] = max(self.margins.get(fn, -math.inf), m)
        if gate:
            self._touch(fn)
            if not ok:
                self.fail(fn, f"error {err:.3e} > tolerance {tol:.1e}")
        elif not ok:
            self.count(f"{fn}.beyond_gate")
        return ok

    def expect(self, fn: str, ok: bool, what: str) -> bool:
        self._touch(fn)
        if not ok:
            self.fail(fn, what)
        return ok

    def fail(self, fn: str, what: str):
        self.failures.append((fn, what))
        self.failed_fns.add(fn)

    def count(self, name: str, k: int = 1):
        self.counts[name] = self.counts.get(name, 0) + k

    def close(self, fn: str, got, ref, tol: float = VALUE) -> bool:
        """Relative agreement; infinities must match exactly."""
        got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
        if got.shape != ref.shape:
            return self.expect(fn, False, f"shape {got.shape} != {ref.shape}")
        inf = np.isinf(ref) | np.isinf(got)
        if np.any(got[inf] != ref[inf]):
            return self.expect(fn, False, "infinite values differ")
        fin = ~inf
        if not fin.any():
            return self.expect(fn, True, "")
        err = np.abs(got[fin] - ref[fin]) / np.maximum(1.0, np.abs(ref[fin]))
        return self.within(fn, float(err.max()), tol)

    def verdict(self, fn: str, got, margin: float, eps: float = EPS):
        """Check a boolean against a reference margin (domination slack);
        skipped when the margin sits within DECISIVE of the threshold."""
        if abs(margin + eps) <= DECISIVE:
            return True
        return self.expect(fn, bool(got) == (margin >= -eps), f"verdict {got} vs margin {margin:.3e}")


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------


def thermal_curve(x: np.ndarray, e: np.ndarray, beta: float) -> np.ndarray:
    """Breakpoints of the thermo-majorisation curve: beta-order by x_i/g_i
    (stable, non-increasing), cumulate Boltzmann weights and populations."""
    w = np.exp(-beta * e)
    order = np.argsort(-(x / (w / w.sum())), kind="stable")
    pts = np.zeros((len(x) + 1, 2))
    pts[1:, 0] = np.cumsum(w[order])
    pts[1:, 1] = np.cumsum(x[order])
    return pts


def curve_margin(top: np.ndarray, bottom: np.ndarray) -> float:
    """min over the union of abscissas of top - bottom, and the endpoint
    mismatch (negated); >= -eps means `top` dominates."""
    end = max(abs(top[-1, 0] - bottom[-1, 0]), abs(top[-1, 1] - bottom[-1, 1]))
    grid = np.union1d(top[:, 0], bottom[:, 0])
    slack = np.interp(grid, top[:, 0], top[:, 1]) - np.interp(grid, bottom[:, 0], bottom[:, 1])
    return float(min(slack.min(), -end))


def thermo_margin(x, y, e, beta) -> float:
    return curve_margin(thermal_curve(x, e, beta), thermal_curve(y, e, beta))


def majorization_margin(x, y) -> float:
    sx, sy = np.cumsum(np.sort(x)[::-1]), np.cumsum(np.sort(y)[::-1])
    return float(min((sx - sy).min(), -abs(sx[-1] - sy[-1])))


# ---------------------------------------------------------------------------
# free energies and work
# ---------------------------------------------------------------------------


def renyi_divergence(p: np.ndarray, q: np.ndarray, alpha: float) -> float:
    """Signed S_alpha(p||q) with the limit branches; q has full support."""
    on = p > 0
    if alpha == 1:
        return float(np.sum(p[on] * np.log(p[on] / q[on])))
    if alpha == 0:
        return float(-np.log(q[on].sum()))
    if alpha == math.inf:
        return float(np.log(np.max(p / q)))
    if alpha == -math.inf:
        return math.inf if not on.all() else float(np.log(np.max(q / p)))
    if alpha < 0 and not on.all():
        return math.inf
    t = alpha * np.log(p[on]) + (1.0 - alpha) * np.log(q[on])
    m = t.max()
    return math.copysign(1.0, alpha) / (alpha - 1.0) * float(m + np.log(np.exp(t - m).sum()))


def free_energy(x, e, beta, alpha) -> float:
    g = gibbs_of(e, beta)
    kt = 1.0 / beta
    return -kt * math.log(np.exp(-beta * e).sum()) + kt * renyi_divergence(x, g, alpha)


def burg(x, e, beta) -> float:
    if np.any(x <= 0):
        return math.inf
    g = gibbs_of(e, beta)
    return (float(np.sum(g * np.log(g / x))) - math.log(np.exp(-beta * e).sum())) / beta


def alpha_grid() -> list:
    """The library's default grid, rebuilt from its documented definition."""
    pos = np.geomspace(0.1, 5.0, 7)
    return sorted({-math.inf, *(-np.geomspace(5.0, 0.1, 7)).tolist(), *pos.tolist(), 1.0, math.inf})


def gibbs_of(e, beta) -> np.ndarray:
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


def w_det(x, e, beta, threshold: float = 1e-12) -> float:
    on = x > threshold
    return 0.0 if on.all() else float(-math.log(gibbs_of(e, beta)[on].sum()) / beta)


def w_for(x, e, beta) -> float:
    return float(math.log(np.max(x / gibbs_of(e, beta))) / beta)


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------


def _herm_eig(m):
    return np.linalg.eigh((m + m.conj().T) / 2.0)


def entropy(m) -> float:
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    w = w[w > 1e-15]
    return float(-(w * np.log(w)).sum())


def delta_of(e) -> float:
    spread = float(e.max() - e.min())
    return max(1e-9 * spread if spread > 0 else 1e-9, 1e-12)


def dephase(rho, e) -> np.ndarray:
    return np.where(np.abs(e[:, None] - e[None, :]) <= delta_of(e), rho, 0.0)


def relative_entropy(r, s) -> float:
    """tr r (log r - log s) for s of full support."""
    ws, us = _herm_eig(s)
    wr, _ = _herm_eig(r)
    wr = wr[wr > 1e-15]
    log_s = us @ np.diag(np.log(ws)) @ us.conj().T
    return float((wr * np.log(wr)).sum() - np.real(np.trace(r @ log_s)))


def _power(m, p):
    w, u = _herm_eig(m)
    w = np.clip(w, 0.0, None)
    on = w > 1e-12
    pw = np.zeros_like(w)
    pw[on] = w[on] ** p
    return u @ np.diag(pw) @ u.conj().T


def asymmetry_alpha(rho, e, alpha) -> float:
    """Petz Renyi divergence to the dephased state below 1, sandwiched above."""
    sigma = dephase(rho, e)
    if alpha < 1:
        val = np.real(np.trace(_power(rho, alpha) @ _power(sigma, 1.0 - alpha)))
    else:
        s = _power(sigma, (1.0 - alpha) / (2.0 * alpha))
        inner = s @ rho @ s
        w = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2.0), 0.0, None)
        val = float((w**alpha).sum())
    return max(0.0, math.log(val) / (alpha - 1.0))


def qfi_spectral(rho, e) -> float:
    """Sum_ij 2 (l_i - l_j)^2 / (l_i + l_j) |H_ij|^2 (Braunstein-Caves)."""
    w, u = _herm_eig(rho)
    h = np.abs(u.conj().T @ np.diag(e) @ u) ** 2
    s = w[:, None] + w[None, :]
    d = (w[:, None] - w[None, :]) ** 2
    on = s > 1e-14
    return float(np.sum(2.0 * d[on] / s[on] * h[on]))


def choi_offmode(kraus, e) -> float:
    """Largest Choi entry coupling distinct transition frequencies."""
    n = len(e)
    vecs = [k.reshape(-1) for k in kraus]  # row-major: index out * n + in
    j = sum(np.outer(v, v.conj()) for v in vecs)
    om = (e[:, None] - e[None, :]).ravel()
    gap = np.abs(om[:, None] - om[None, :]) > delta_of(e)
    return float(np.max(np.abs(np.where(gap, j, 0.0)))) if n > 1 else 0.0


def apply_kraus(kraus, m):
    return sum(k @ m @ k.conj().T for k in kraus)


def cp_bound(p, rho, e, xp, yp) -> float:
    freq = e[:, None] - e[None, :]
    mask = np.abs(freq - freq[xp, yp]) <= delta_of(e)
    return float((np.sqrt(np.outer(p[xp], p[yp])) * np.abs(rho) * mask).sum())


def qubit_boundary(p, c, g0, g1, samples):
    r = g1 / g0
    lam = np.linspace(0.0, 1.0, samples)
    a, b = 1 - lam * r, 1 - lam
    return np.stack([a * p + lam * (1 - p), np.sqrt(a * b) * c], axis=1)
