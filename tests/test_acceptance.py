"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them live).

Every tolerance is pinned here; nothing is deferred to calibration. Random
checks use fixed seeds so the suite is deterministic.
"""
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from thermops.cli import main as cli_main
from thermops.coherence import (
    asymmetry,
    asymmetry_alpha,
    channel_covariance_check,
    dephase,
    free_energy_split,
    gibbs_preserving_check,
    holevo_asymmetry,
    ladder_simulate,
    qfi,
    qubit_coherence_bound,
    qubit_optimal_channel,
)
from thermops.core import (
    DensityMatrix,
    EnergySpectrum,
    GibbsContext,
    ProbVec,
    gibbs_vector,
)
from thermops.divergences import default_alpha_grid, free_energy_alpha, renyi_entropy
from thermops.majorization import hlp_construct, majorizes
from thermops.sampling import (
    random_context,
    random_covariant_channel,
    random_density_matrix,
    random_doubly_stochastic,
    random_gibbs_stochastic,
    random_prob_vec,
    random_rank_deficient_vec,
)
from thermops.thermo import (
    bath_model_simulate,
    beta_order,
    embed,
    feasibility_lp_oracle,
    rationalize,
    thermo_curve,
    thermo_majorizes,
    unembed,
)
from thermops.work import w_det, w_det_geometric_oracle, w_for, w_for_geometric_oracle

CTX = GibbsContext(EnergySpectrum([0.0, 1.0, 2.0]), 1.2)
X3 = ProbVec([1 / 3, 1 / 3, 1 / 3])
Y3 = ProbVec([2 / 3, 1 / 3, 0.0])


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num:02d} ({name}) failed: {detail}"


def test_criterion_01_gibbs_vector():
    g = gibbs_vector(CTX.spectrum, 1.2)
    err = np.max(np.abs(g.p - [0.718436, 0.216389, 0.0651751]))
    report(1, "thermal vector reproduction", err <= 1e-5, f"max err {err:.2e}")


def test_criterion_02_beta_ordering():
    ok = (
        beta_order(X3, CTX).one_based() == (3, 2, 1)
        and beta_order(Y3, CTX).one_based() == (2, 1, 3)
    )
    report(2, "beta ordering reproduction", ok)


def test_criterion_03_free_energy_values():
    fx = free_energy_alpha(X3, CTX, 1.0)
    fy = free_energy_alpha(Y3, CTX, 1.0)
    ok = abs(fx - 0.084) <= 2e-3 and abs(fy - (-0.197)) <= 2e-3
    report(3, "standard free energies", ok, f"F(x)={fx:.4f} F(y)={fy:.4f}")


def test_criterion_04_curve_crossing(tmp_path):
    incomparable = not thermo_majorizes(X3, Y3, CTX) and not thermo_majorizes(Y3, X3, CTX)
    e12, e24 = math.exp(-1.2), math.exp(-2.4)
    expected_x = np.array([[0, 0], [e24, 1 / 3], [e24 + e12, 2 / 3], [e24 + e12 + 1, 1]])
    expected_y = np.array([[0, 0], [e12, 1 / 3], [e12 + 1, 1], [e24 + e12 + 1, 1]])
    err = max(
        np.max(np.abs(thermo_curve(X3, CTX).points - expected_x)),
        np.max(np.abs(thermo_curve(Y3, CTX).points - expected_y)),
    )
    # the emitted CSV must carry the same breakpoints
    runner = CliRunner()
    ctxf = tmp_path / "ctx.json"
    ctxf.write_text(json.dumps({"energies": [0, 1, 2], "beta": 1.2}))
    xf = tmp_path / "x.json"
    xf.write_text(json.dumps({"diag": [1 / 3, 1 / 3, 1 / 3]}))
    out = tmp_path / "c.csv"
    res = runner.invoke(
        cli_main, ["curve", "--context", str(ctxf), "--state", str(xf), "--out", str(out)]
    )
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    emitted = np.array([[float(a), float(b)] for a, b in rows])
    err = max(err, np.max(np.abs(emitted - expected_x)))
    report(4, "curve crossing + breakpoints", incomparable and err <= 1e-12 and res.exit_code == 0,
           f"max breakpoint err {err:.2e}")


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    disagreements = 0
    for trial in range(1000):
        n = int(rng.integers(2, 6))
        ctx = random_context(rng, n, beta_range=(0.0, 5.0))
        x = random_prob_vec(rng, n)
        if trial % 2:
            y = ProbVec(random_gibbs_stochastic(rng, ctx).entries @ x.p)
        else:
            y = random_prob_vec(rng, n)
        if thermo_majorizes(x, y, ctx, 1e-9) != feasibility_lp_oracle(x, y, ctx.gibbs):
            disagreements += 1
    dt = time.time() - t0
    report(5, "LP oracle equivalence (1000 instances)", disagreements == 0 and dt < 60,
           f"{disagreements} disagreements in {dt:.1f}s")


def test_criterion_06_constructive_hlp():
    rng = np.random.default_rng(1002)
    worst_map = worst_ds = 0.0
    count_ok = True
    for _ in range(500):
        n = int(rng.integers(2, 7))
        x = random_prob_vec(rng, n)
        y = ProbVec(random_doubly_stochastic(rng, n) @ x.p)
        chain = hlp_construct(x, y)
        count_ok &= len(chain) <= n - 1
        b = chain.matrix()
        worst_map = max(worst_map, float(np.max(np.abs(b @ x.p - y.p))))
        worst_ds = max(
            worst_ds,
            float(np.max(np.abs(b.sum(axis=0) - 1))),
            float(np.max(np.abs(b.sum(axis=1) - 1))),
        )
    report(6, "T-transform synthesis (500 pairs)",
           count_ok and worst_map <= 1e-9 and worst_ds <= 1e-10,
           f"map {worst_map:.2e}, stochasticity {worst_ds:.2e}")


def test_criterion_07_embedding_identities():
    rng = np.random.default_rng(1003)
    ctx = GibbsContext(EnergySpectrum([0.0, math.log(4 / 3), math.log(4.0)]), 1.0)
    spec = rationalize(ctx, 8)
    exact = spec.approx_error == 0.0
    # round trip: bit-exact up to a single IEEE rounding per block
    worst_rt = 0.0
    for _ in range(200):
        x = random_prob_vec(rng, 3)
        back = unembed(embed(x, spec), spec).p
        worst_rt = max(worst_rt, float(np.max(np.abs(back - x.p) / np.maximum(x.p, 1e-300))))
    # free-energy / entropy relation on the nonnegative alpha grid
    kT, logz, logd = ctx.kT, math.log(ctx.Z), math.log(spec.D)
    worst_rel = 0.0
    for _ in range(100):
        x = random_prob_vec(rng, 3)
        lifted = embed(x, spec)
        for alpha in [0.0, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, math.inf]:
            lhs = free_energy_alpha(x, ctx, alpha) + kT * logz
            rhs = kT * (logd - renyi_entropy(lifted, alpha))
            worst_rel = max(worst_rel, abs(lhs - rhs))
    report(7, "embedding identities", exact and worst_rt <= 3e-16 and worst_rel <= 1e-9,
           f"round-trip {worst_rt:.1e} (rel), free-energy relation {worst_rel:.2e}")


def test_criterion_08_work_formulas():
    rng = np.random.default_rng(1004)
    worst_det = worst_for = 0.0
    exact_zero = True
    irreversible = True

    def conditionally_thermal(x, ctx):
        # x proportional to g on its support: the one family with a
        # reversible formation/extraction cycle (w_for == w_det there)
        on = x.p > 0
        ratios = x.p[on] / ctx.gibbs.p[on]
        return float(np.max(ratios) - np.min(ratios)) <= 1e-10

    for _ in range(200):
        n = int(rng.integers(2, 6))
        ctx = random_context(rng, n, beta_range=(0.3, 3.0))
        x = random_rank_deficient_vec(rng, n)
        worst_det = max(worst_det, abs(w_det(x, ctx) - w_det_geometric_oracle(x, ctx)))
        worst_for = max(worst_for, abs(w_for(x, ctx) - w_for_geometric_oracle(x, ctx)))
        full = random_prob_vec(rng, n)
        exact_zero &= w_det(full, ctx) == 0.0
        if not conditionally_thermal(full, ctx):
            irreversible &= w_for(full, ctx) > w_det(full, ctx)
        if not conditionally_thermal(x, ctx):
            irreversible &= w_for(x, ctx) > w_det(x, ctx)
    report(8, "work vs geometric oracles (200 states)",
           worst_det <= 1e-12 and worst_for <= 1e-12 and exact_zero and irreversible,
           f"det gap {worst_det:.2e}, formation gap {worst_for:.2e}")


def test_criterion_09_battery_rescaling():
    from thermops.work import battery_rescaled_curve

    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        ctx = random_context(rng, n, beta_range=(0.2, 3.0))
        y = random_prob_vec(rng, n)
        w_gap = float(rng.uniform(0, 5))
        ground = battery_rescaled_curve(y, ctx, w_gap, excited=False)
        excited = battery_rescaled_curve(y, ctx, w_gap, excited=True)
        factor = math.exp(-ctx.beta * w_gap)
        rising = excited.points[excited.points[:, 1] < 1.0 - 1e-15]
        worst = max(worst, float(np.max(np.abs(ground.evaluate(rising[:, 0] / factor) - rising[:, 1]))))
    report(9, "battery curve compression", worst <= 1e-10, f"max gap {worst:.2e}")


def test_criterion_10_free_energy_decomposition():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        e = np.sort(rng.uniform(0, 3, n))
        ctx = GibbsContext(EnergySpectrum(e - e[0]), rng.uniform(0.2, 3.0))
        rho = random_density_matrix(rng, n)
        total, classical, coherent = free_energy_split(rho, ctx)
        worst = max(worst, abs(total - classical - coherent))
    e01 = EnergySpectrum([0.0, 1.0])
    a_plus = asymmetry(DensityMatrix.pure([1.0, 1.0]), e01)
    a_e = asymmetry(DensityMatrix.pure([0.0, 1.0]), e01)
    pure_ok = abs(a_plus - math.log(2)) <= 1e-12 and abs(a_e) <= 1e-12
    report(10, "free-energy decomposition (500 states)", worst <= 1e-10 and pure_ok,
           f"identity gap {worst:.2e}, A(+)={a_plus:.12f}")


def test_criterion_11_holevo_example():
    axis = EnergySpectrum([0.0, 0.0, 1.0, 1.0])
    xi = np.zeros((4, 4), dtype=complex)
    xi[np.ix_([0, 2], [0, 2])] = 0.25 * np.array([[1, 1], [1, 1]])
    xi[np.ix_([1, 3], [1, 3])] = 0.25 * np.array([[1, -1], [-1, 1]])
    a_xi = holevo_asymmetry(DensityMatrix(xi), axis)
    a_rho = holevo_asymmetry(DensityMatrix.from_diag([0.5, 0.0, 0.0, 0.5]), axis)
    ok = abs(a_xi - math.log(2)) <= 1e-12 and abs(a_rho) <= 1e-12
    report(11, "group-averaged asymmetry example", ok, f"A={a_xi:.12f}, {a_rho:.2e}")


def test_criterion_12_qubit_saturation():
    rng = np.random.default_rng(1007)
    worst = 0.0
    checks = True
    for _ in range(200):
        e1 = float(rng.uniform(0.2, 3.0))
        ctx = GibbsContext(EnergySpectrum([0.0, e1]), float(rng.uniform(0.1, 3.0)))
        g = ctx.gibbs.p[0]
        p = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        q = p + lam * (1 - p / g)
        c = float(rng.uniform(0.0, 1.0)) * math.sqrt(p * (1 - p))
        _, dmax = qubit_coherence_bound(p, q, ctx, c)
        ch = qubit_optimal_channel(p, q, ctx)
        rho = DensityMatrix(np.array([[p, c], [c, 1 - p]], dtype=complex))
        out = ch.apply(rho)
        worst = max(worst, abs(abs(out.rho[0, 1]) - dmax), abs(out.rho[0, 0].real - q))
        checks &= channel_covariance_check(ch, ctx.spectrum, 1e-10)
        checks &= gibbs_preserving_check(ch, ctx, 1e-10)
    report(12, "qubit bound saturation (200 draws)", worst <= 1e-10 and checks,
           f"max saturation gap {worst:.2e}")


def test_criterion_13_ladder_irreversibility():
    def coh(entry, value):
        rho = np.eye(3, dtype=complex) / 3
        a, b = entry
        rho[a, b] = value
        rho[b, a] = value
        return DensityMatrix(rho)

    results = []
    for beta, de in [(1.0, 1.0), (0.7, 1.0), (1.0, 0.5)]:
        tail = math.exp(-beta * de * 40) / (1 - math.exp(-beta * de))
        down = ladder_simulate(coh((2, 1), 0.3), de, beta, 40, "down")
        up = ladder_simulate(coh((1, 0), 0.3), de, beta, 40, "up")
        dev_down = abs(abs(down.rho[1, 0]) / 0.3 - 1.0)
        dev_up = abs(abs(up.rho[2, 1]) / 0.3 - math.exp(-beta * de))
        results.append((beta, de, dev_down, dev_up, tail))
    base = results[0]
    ok = all(d <= t + 1e-15 and u <= t + 1e-15 for _, _, d, u, t in results)
    ok = ok and base[2] <= 1e-12 and base[3] <= 1e-12
    report(13, "ladder transport factors", ok,
           f"unit-gap deviations {base[2]:.1e}/{base[3]:.1e}")


def test_criterion_14_bath_convergence():
    rng = np.random.default_rng(1008)
    ok = True
    worst_ratio = 0.0
    for _ in range(15):
        spread = float(rng.uniform(0.1, 0.45))
        ctx = GibbsContext(
            EnergySpectrum([0.0, spread * float(rng.uniform(0.3, 1.0)), spread]),
            float(rng.uniform(0.2, 2.0)),
        )
        target = random_gibbs_stochastic(rng, ctx)
        residuals = []
        for g_e in (100, 1000, 10_000):
            _, residual = bath_model_simulate(target, ctx, g_e)
            ok &= residual <= 3 / g_e
            worst_ratio = max(worst_ratio, residual * g_e / 3)
            residuals.append(residual)
        ok &= residuals[2] <= residuals[0] + 1e-12
    report(14, "bath realisation convergence", ok, f"worst residual/(n/gE) {worst_ratio:.2f}")


def test_criterion_15_monotone_suite():
    rng = np.random.default_rng(1009)

    def qfi_spectral(rho, spec):
        # exact evaluation (same normalisation as qfi); qfi evaluates the same
        # spectral sum, so the two agree to rounding (worst_est <= 1e-12)
        w, u = np.linalg.eigh(rho.rho)
        hij = u.conj().T @ np.diag(spec.energies) @ u
        q = 0.0
        for i in range(len(w)):
            for j in range(len(w)):
                if w[i] + w[j] > 1e-14:
                    q += 2 * (w[i] - w[j]) ** 2 / (w[i] + w[j]) * abs(hij[i, j]) ** 2
        return q

    worst_asym = worst_qfi = worst_est = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 5))
        e = np.sort(rng.uniform(0, 3, n))
        spec = EnergySpectrum(e - e[0])
        ch = random_covariant_channel(rng, spec)
        rho = random_density_matrix(rng, n)
        out = ch.apply(rho)
        worst_asym = max(worst_asym, asymmetry(out, spec) - asymmetry(rho, spec))
        for alpha in (0.5, 2.0):
            worst_asym = max(
                worst_asym,
                asymmetry_alpha(out, spec, alpha) - asymmetry_alpha(rho, spec, alpha),
            )
        worst_qfi = max(worst_qfi, qfi_spectral(out, spec) - qfi_spectral(rho, spec))
        worst_est = max(worst_est, abs(qfi(out, spec) - qfi_spectral(out, spec)))
    worst_f = 0.0
    grid = default_alpha_grid()
    for _ in range(500):
        n = int(rng.integers(2, 5))
        ctx = random_context(rng, n, beta_range=(0.2, 3.0))
        x = random_prob_vec(rng, n)
        y = ProbVec(random_gibbs_stochastic(rng, ctx).entries @ x.p)
        for alpha in grid:
            fx, fy = free_energy_alpha(x, ctx, alpha), free_energy_alpha(y, ctx, alpha)
            if fx != math.inf:
                worst_f = max(worst_f, fy - fx)
    ok = worst_asym <= 1e-9 and worst_qfi <= 1e-9 and worst_f <= 1e-9 and worst_est <= 1e-12
    report(15, "monotone suite (500 + 500 draws)", ok,
           f"asym {worst_asym:.1e}, qfi {worst_qfi:.1e}, F {worst_f:.1e}")
