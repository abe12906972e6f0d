"""Seeded input generators shared by the workloads.

Everything here uses only numpy and the benchmark's own generator, never
`thermops.sampling`, so a change to the package's samplers cannot shift a
workload. Reference witnesses are built alongside the inputs:

* feasible pairs are y = G x with G a product of two-level Gibbs-preserving
  moves, applied to the vector directly (G is never formed at large n);
* infeasible pairs have max_i y_i/g_i > max_i x_i/g_i, with the curve gap at
  y's first breakpoint at least `min_gap`.
"""
from __future__ import annotations

import numpy as np


def question_rng(seed: int, workload_index: int, i: int) -> np.random.Generator:
    """Independent stream per question, so question i does not depend on how
    many questions came before it."""
    return np.random.default_rng([seed, workload_index, i])


def energies(rng, n: int, spread: float = 3.0, kind: str = "random") -> np.ndarray:
    """Sorted levels starting at 0. `degenerate` repeats levels exactly;
    `equispaced` uses a dyadic gap so every difference is exact."""
    if kind == "degenerate":
        distinct = np.sort(rng.uniform(0.0, spread, max(1, n // 2)))
        e = np.sort(rng.choice(distinct, size=n))
    elif kind == "equispaced":
        e = np.arange(n) * float(rng.choice([0.25, 0.5, 0.75, 1.0]))
    else:
        e = np.sort(rng.uniform(0.0, spread, n))
    return e - e[0]


def gibbs(e: np.ndarray, beta: float) -> np.ndarray:
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


def prob_vec(rng, n: int, style: str, g: np.ndarray) -> np.ndarray:
    """`dirichlet`; `rank_deficient` (zeros on a random subset); `tied`
    (x = g * 2^-k on a subset, so those ratios x_i/g_i tie exactly);
    `peaked` (low Dirichlet concentration)."""
    if style == "rank_deficient" and n > 1:
        k = int(rng.integers(1, n))
        x = np.zeros(n)
        x[rng.choice(n, size=k, replace=False)] = rng.dirichlet(np.ones(k))
        return x
    if style == "tied" and n > 2:
        subset = rng.choice(n, size=int(rng.integers(2, n)), replace=False)
        x = np.zeros(n)
        x[subset] = g[subset] * 2.0 ** -int(rng.integers(1, 3))
        rest = np.setdiff1d(np.arange(n), subset)
        x[rest] = rng.dirichlet(np.ones(len(rest))) * (1.0 - x.sum())
        return x
    if style == "peaked":
        return rng.dirichlet(np.full(n, 0.3))
    return rng.dirichlet(np.ones(n))


def thermal_moves(rng, x: np.ndarray, g: np.ndarray, rounds: int, full_prob: float = 0.0) -> np.ndarray:
    """Apply `rounds` random matchings of two-level Gibbs-preserving moves.

    For a pair i < j (so g_i >= g_j) with r = g_j / g_i and weight lam, the
    move is x_i' = (1 - lam r) x_i + lam x_j, x_j' = lam r x_i + (1 - lam) x_j;
    it fixes g exactly. lam = 1 (a full beta-swap) puts the pair on the
    boundary of the reachable set; `full_prob` is the share of such moves.
    """
    y = np.array(x, dtype=float)
    n = len(y)
    for _ in range(rounds):
        perm = rng.permutation(n)[: 2 * (n // 2)].reshape(-1, 2)
        i, j = perm.min(axis=1), perm.max(axis=1)
        lam = rng.uniform(0.0, 1.0, len(i))
        lam[rng.uniform(size=len(i)) < full_prob] = 1.0
        r = g[j] / g[i]
        xi, xj = y[i], y[j]
        y[i] = (1.0 - lam * r) * xi + lam * xj
        y[j] = lam * r * xi + (1.0 - lam) * xj
    return y


def gibbs_stochastic(rng, g: np.ndarray, moves: int, thermalise: float = 0.0) -> np.ndarray:
    """Dense product of random two-level moves, optionally mixed with the
    full thermaliser g 1^T; every factor fixes g."""
    n = len(g)
    m = np.eye(n)
    for _ in range(moves):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        lam = rng.uniform()
        r = g[j] / g[i]
        blk = np.eye(n)
        blk[i, i], blk[i, j] = 1.0 - lam * r, lam
        blk[j, i], blk[j, j] = lam * r, 1.0 - lam
        m = blk @ m
    if thermalise > 0:
        m = (1.0 - thermalise) * m + thermalise * np.outer(g, np.ones(n))
    return m


def infeasible_target(rng, x: np.ndarray, y0: np.ndarray, g: np.ndarray, min_gap: float):
    """Raise one entry of y0 so that its ratio y_k/g_k beats max_i x_i/g_i.

    Returns None when x leaves no room (x already has the largest ratio any
    state can have), so the caller draws another x. Gibbs-preserving maps
    never raise the largest ratio, so y0's other ratios stay below R."""
    ratio = float(np.max(x / g))
    room = np.nonzero(g * ratio + min_gap <= 0.999)[0]
    if len(room) == 0:
        return None
    k = int(rng.choice(room))
    delta = max(float(10 ** rng.uniform(-3, -1)), min_gap / (g[k] * ratio))
    yk = min(g[k] * ratio * (1.0 + delta), 0.999)
    y = np.array(y0, dtype=float)
    y[k] = 0.0
    if y.sum() <= 0:
        return None
    y *= (1.0 - yk) / y.sum()
    y[k] = yk
    return y


STYLES = ("dirichlet", "rank_deficient", "tied", "peaked")


def pair(rng, n: int, beta: float, feasible: bool, spread: float = 3.0, rounds: int = 3,
         full_prob: float = 0.2, min_gap: float = 1e-6):
    """(energies, beta, x, y) with a known verdict for x -> y."""
    while True:
        e = energies(rng, n, spread)
        g = gibbs(e, beta)
        x = prob_vec(rng, n, STYLES[int(rng.integers(len(STYLES)))], g)
        y = thermal_moves(rng, x, g, rounds, full_prob)
        if not feasible:
            y = infeasible_target(rng, x, y, g, min_gap)
            if y is None:
                continue
        return e, beta, x, y


def construct_pair(rng, n: int, kind: str):
    """(energies, beta, x, y, feasible) for construct_gibbs_stochastic.

    `rational` makes g = d/D exactly (up to one rounding) so rationalize
    finds it and any feasible pair, boundary ones included, is constructible;
    `interior` partly thermalises y on a generic spectrum; `infeasible`
    raises y's largest ratio. At a finite d_max the library refuses, by
    design, a boundary pair whose thermal vector it can only approximate."""
    if kind == "infeasible":
        return pair(rng, n, float(rng.uniform(0.2, 3.0)), False, min_gap=1e-4) + (False,)
    if kind == "rational":
        d = np.sort(rng.integers(1, 9, n))[::-1].astype(float)
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        e = np.log(d[0] / d) / beta
        g = gibbs(e, beta)
        x = prob_vec(rng, n, str(rng.choice(["dirichlet", "rank_deficient", "peaked"])), g)
        return e, beta, x, thermal_moves(rng, x, g, rounds=3, full_prob=0.5), True
    e = energies(rng, n)
    beta = float(rng.uniform(0.2, 3.0))
    g = gibbs(e, beta)
    x = prob_vec(rng, n, "peaked", g)
    t = float(rng.uniform(0.3, 0.9))
    y = (1.0 - t) * thermal_moves(rng, x, g, rounds=3) + t * g
    return e, beta, x, y, True


def density_matrix(rng, n: int, rank: int) -> np.ndarray:
    """Mixture of `rank` random pure states (rank 1 gives a pure state)."""
    m = np.zeros((n, n), dtype=complex)
    for w in rng.dirichlet(np.ones(rank)):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    return (m + m.conj().T) / 2.0


def covariant_kraus(rng, e: np.ndarray) -> list:
    """Kraus operators each supported on one transition frequency, made
    trace preserving by a normaliser that commutes with H."""
    n = len(e)
    freq = e[:, None] - e[None, :]
    ks = []
    for omega in np.unique(np.round(freq, 12)):
        mask = np.abs(freq - omega) <= 1e-9
        ks.append(np.where(mask, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0.0))
    ks.append(np.eye(n, dtype=complex))
    w, u = np.linalg.eigh(sum(k.conj().T @ k for k in ks))
    inv_sqrt = u @ np.diag(1.0 / np.sqrt(w)) @ u.conj().T
    return [k @ inv_sqrt for k in ks]


def thermal_kraus(rng, g: np.ndarray) -> list:
    """Partial dephasing followed by partial replacement with the thermal
    state: covariant and Gibbs-preserving."""
    n = len(g)
    s, lam = rng.uniform(), rng.uniform()
    ks = [np.sqrt((1 - lam) * (1 - s)) * np.eye(n, dtype=complex)]
    for a in range(n):
        k = np.zeros((n, n), dtype=complex)
        k[a, a] = np.sqrt((1 - lam) * s)
        ks.append(k)
    for a in range(n):
        for b in range(n):
            k = np.zeros((n, n), dtype=complex)
            k[a, b] = np.sqrt(lam * g[a])
            ks.append(k)
    return ks


def mixing_kraus(rng, n: int) -> list:
    """Random unitary mixed with the identity: not covariant in general."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    p = rng.uniform(0.2, 0.8)
    return [np.sqrt(p) * np.eye(n, dtype=complex), np.sqrt(1 - p) * q]
