"""coherence: warm in-process questions on density matrices at n = 2..8.

Kinds: the state monotones (asymmetry, asymmetry_alpha at 0.5 and 2, qfi,
free_energy_split, mode_decompose); channel checks and cp_bound on
covariant, thermal and non-covariant channels up to n = 6; the qubit
boundary with its optimal channel; ladder_simulate at n_trunc 40 and 400.
The mix includes degenerate and equispaced spectra, rank-deficient states
and pure states.
"""
from __future__ import annotations

import math

import numpy as np

import gen
import ref

NAME = "coherence"
WHY = ("nothing else measures the coherence layer: monotones, channel checks, the qubit solution "
       "and the ladder on density matrices at n = 2..8")
INDEX = 3
LIMIT_S = 10.0
# 25 slots per cycle, so with whole cycles the median and p90 fall in the
# middle of one slot's group of latencies.
SLOTS = (
    [{"kind": "state", "n": n, "rank": r, "spectrum": s} for n, r, s in
     [(2, "mixed", "random"), (3, "mixed", "random"), (4, "mixed", "random"), (5, "mixed", "random"),
      (6, "mixed", "random"), (7, "mixed", "random"), (8, "mixed", "random"), (3, "pure", "random"),
      (6, "pure", "equispaced"), (4, "deficient", "random"), (8, "deficient", "degenerate"),
      (4, "mixed", "degenerate"), (5, "mixed", "equispaced")]]
    + [{"kind": "channel", "n": n, "channel": c} for n, c in
       [(2, "thermal"), (3, "covariant"), (4, "thermal"), (4, "mixing"), (5, "covariant"), (6, "thermal")]]
    + [{"kind": "qubit", "n": 2}] * 2
    + [{"kind": "ladder", "n": 3, "n_trunc": t, "direction": d} for t, d in
       [(40, "down"), (400, "up"), (40, "up"), (400, "down")]]
)
SETUP = [next(i for i, s in enumerate(SLOTS) if s["kind"] == k) for k in ("state", "channel", "qubit", "ladder")]
QUBIT_SAMPLES = 101


def make(rng, slot):
    q = dict(slot)
    n, kind = slot["n"], slot["kind"]
    if kind == "state":
        rank = {"mixed": n, "pure": 1}.get(slot["rank"]) or int(rng.integers(2, n))
        q.update(e=gen.energies(rng, n, kind=slot["spectrum"]), beta=float(rng.uniform(0.2, 3.0)),
                 rho=gen.density_matrix(rng, n, rank))
    elif kind == "channel":
        e = gen.energies(rng, n)
        beta = float(rng.uniform(0.2, 3.0))
        kraus = {"thermal": lambda: gen.thermal_kraus(rng, gen.gibbs(e, beta)),
                 "covariant": lambda: gen.covariant_kraus(rng, e),
                 "mixing": lambda: gen.mixing_kraus(rng, n)}[slot["channel"]]()
        p = sum(np.abs(k) ** 2 for k in kraus)
        q.update(e=e, beta=beta, kraus=kraus, p=p / p.sum(axis=0), rho=gen.density_matrix(rng, n, n),
                 xp=int(rng.integers(n)), yp=int(rng.integers(n)))
    elif kind == "qubit":
        p = float(rng.uniform(0.02, 0.98))
        q.update(e=np.array([0.0, float(rng.uniform(0.2, 3.0))]), beta=float(rng.uniform(0.1, 3.0)), p=p,
                 c=float(rng.uniform()) * math.sqrt(p * (1 - p)), k=int(rng.integers(QUBIT_SAMPLES)))
    else:
        pops = rng.dirichlet(np.ones(3))
        a, b = (2, 1) if slot["direction"] == "down" else (1, 0)
        rho = np.diag(pops).astype(complex)
        rho[a, b] = float(rng.uniform(0.1, 1.0)) * math.sqrt(pops[a] * pops[b]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho[b, a] = np.conj(rho[a, b])
        q.update(rho=rho, beta=float(rng.uniform(0.3, 2.0)), de=float(rng.uniform(0.5, 1.5)))
    return q


def ask(q, tr):
    # imported here so that generating inputs never loads the package
    from thermops import coherence as co
    from thermops.core import DensityMatrix, EnergySpectrum, GibbsContext, StochasticMatrix

    kind = q["kind"]
    if kind == "ladder":
        rho = tr.call("core.DensityMatrix", DensityMatrix, q["rho"])
        out = tr.call("coherence.ladder_simulate", co.ladder_simulate, rho, q["de"], q["beta"],
                      q["n_trunc"], q["direction"])
        return {"out": out.rho}
    ctx = tr.call("core.GibbsContext", lambda e, b: GibbsContext(EnergySpectrum(e), b), q["e"], q["beta"])
    spec = ctx.spectrum
    if kind == "qubit":
        pts = tr.call("coherence.qubit_reachable_boundary", co.qubit_reachable_boundary,
                      q["p"], q["c"], ctx, QUBIT_SAMPLES)
        ch = tr.call("coherence.qubit_optimal_channel", co.qubit_optimal_channel, q["p"], pts[q["k"]][0], ctx)
        return {"boundary": np.array(pts), "kraus": list(ch.kraus)}
    rho = tr.call("core.DensityMatrix", DensityMatrix, q["rho"])
    if kind == "channel":
        ch = tr.call("coherence.QuantumChannel", co.QuantumChannel, tuple(q["kraus"]))
        p = tr.call("core.StochasticMatrix", StochasticMatrix, q["p"])
        return {
            "covariant": tr.call("coherence.channel_covariance_check", co.channel_covariance_check, ch, spec),
            "gibbs_preserving": tr.call("coherence.gibbs_preserving_check", co.gibbs_preserving_check, ch, ctx),
            "bound": tr.call("coherence.cp_bound", co.cp_bound, p, rho, spec, q["xp"], q["yp"]),
        }
    modes = tr.call("coherence.mode_decompose", co.mode_decompose, rho, spec)
    return {
        "asymmetry": tr.call("coherence.asymmetry", co.asymmetry, rho, spec),
        "asymmetry_alpha": [tr.call("coherence.asymmetry_alpha", co.asymmetry_alpha, rho, spec, a)
                            for a in (0.5, 2.0)],
        "qfi": tr.call("coherence.qfi", co.qfi, rho, spec),
        "split": list(tr.call("coherence.free_energy_split", co.free_energy_split, rho, ctx)),
        "modes": dict(modes.components),
    }


def check_state(chk, rho, e, beta, a, rounding=None):
    """Shared with the CLI workload, whose JSON values carry 12 significant
    digits (`rounding`), so there the split identity is checked on the
    residual the CLI reports instead."""
    sigma = ref.dephase(rho, e)
    asym = ref.entropy(sigma) - ref.entropy(rho)
    if "asymmetry" in a:
        chk.close("coherence.asymmetry", a["asymmetry"], max(0.0, asym))
    if "qfi" in a:
        # reported, not gated: see README.md
        chk.within("coherence.qfi", abs(a["qfi"] - ref.qfi_spectral(rho, e)), ref.QFI, gate=False)
    if "asymmetry_alpha" in a:
        chk.close("coherence.asymmetry_alpha", a["asymmetry_alpha"],
                  [ref.asymmetry_alpha(rho, e, al) for al in a["alphas"]])
    if "split" in a:
        fn = "coherence.free_energy_split"
        total, classical, coherent = a["split"]
        if rounding is None:
            chk.within(fn, abs(total - classical - coherent), ref.IDENTITY)
        gamma = np.diag(ref.gibbs_of(e, beta)).astype(complex)
        chk.close(fn, a["split"], [ref.relative_entropy(rho, gamma) / beta,
                                   ref.relative_entropy(sigma, gamma) / beta, max(0.0, asym) / beta])
    if "modes" in a:
        fn = "coherence.mode_decompose"
        comps = a["modes"]
        chk.within(fn, float(np.max(np.abs(sum(comps.values()) - rho))), ref.IDENTITY)
        freq = e[:, None] - e[None, :]
        for omega, comp in comps.items():
            off = np.abs(freq - omega) > 1e-9 * max(1.0, abs(omega))
            chk.expect(fn, not np.any(comp[off]), f"mode {omega} holds entries of another frequency")


def check(q, a, chk):
    kind = q["kind"]
    if kind == "state":
        check_state(chk, q["rho"], q["e"], q["beta"], dict(a, alphas=(0.5, 2.0)))
    elif kind == "channel":
        e, kraus = q["e"], q["kraus"]
        off = ref.choi_offmode(kraus, e)
        if not 1e-10 < off < 1e-8:
            chk.expect("coherence.channel_covariance_check", a["covariant"] == (off <= 1e-9), f"offmode {off:.2e}")
        gamma = np.diag(ref.gibbs_of(e, q["beta"])).astype(complex)
        dev = float(np.max(np.abs(ref.apply_kraus(kraus, gamma) - gamma)))
        if not 1e-10 < dev < 1e-8:
            chk.expect("coherence.gibbs_preserving_check", a["gibbs_preserving"] == (dev <= 1e-9), f"dev {dev:.2e}")
        bound = ref.cp_bound(q["p"], q["rho"], e, q["xp"], q["yp"])
        chk.close("coherence.cp_bound", a["bound"], bound)
        if off <= 1e-10:
            out = ref.apply_kraus(kraus, q["rho"])
            chk.expect("coherence.cp_bound", abs(out[q["xp"], q["yp"]]) <= bound + 1e-12, "bound exceeded")
    elif kind == "qubit":
        g = ref.gibbs_of(q["e"], q["beta"])
        pts = ref.qubit_boundary(q["p"], q["c"], g[0], g[1], QUBIT_SAMPLES)
        chk.close("coherence.qubit_reachable_boundary", a["boundary"], pts)
        rho = np.array([[q["p"], q["c"]], [q["c"], 1 - q["p"]]], dtype=complex)
        out = ref.apply_kraus(a["kraus"], rho)
        qk, dk = pts[q["k"]]
        # a gauge: at the lambda = 1 end of the boundary the channel takes
        # sqrt of a rounded 1 - lambda and misses by ~1e-8 (see README.md)
        chk.within("coherence.qubit_optimal_channel",
                   max(abs(abs(out[0, 1]) - dk), abs(out[0, 0].real - qk)), ref.IDENTITY, gate=False)
    else:
        check_ladder(chk, q, a["out"])


def check_ladder(chk, q, out, rounding=None):
    """Downward transport of a (2,1) coherence is perfect and upward
    transport of a (1,0) coherence is damped by exp(-beta dE), each up to
    the truncation tail, plus `rounding` for values that went through the
    CLI's 12-digit JSON. The deviation is exact (ref.ladder_deviation); it
    is gated at the tail plus the computation's rounding bound, and
    criterion 13's tighter floor is a gauge (see README.md)."""
    rho, beta, de = q["rho"], q["beta"], q["de"]
    if q["direction"] == "down":
        dev = ref.ladder_deviation(out[1, 0], rho[2, 1])
    else:
        dev = ref.ladder_deviation(out[2, 1], rho[1, 0], beta, de)
    fn, extra = "coherence.ladder_simulate", rounding or 0.0
    chk.within(fn, dev, ref.ladder_bound(beta, de, q["n_trunc"]) + extra)
    chk.within(fn, dev, ref.ladder_floor(beta, de, q["n_trunc"]) + extra, gate=False)
