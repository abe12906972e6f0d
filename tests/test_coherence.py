import math

import numpy as np
import pytest

from thermops.core import DensityMatrix, EnergySpectrum, GibbsContext, ProbVec, population_of
from thermops.coherence import (
    QuantumChannel,
    asymmetry,
    asymmetry_alpha,
    bohr_spectrum,
    channel_covariance_check,
    cp_bound,
    dephase,
    free_energy_split,
    gibbs_preserving_check,
    holevo_asymmetry,
    identity_channel,
    ladder_simulate,
    ladder_truncation_tail,
    mode_decompose,
    mode_projector,
    mode_shift_bound,
    partial_dephasing_channel,
    qfi,
    qubit_coherence_bound,
    qubit_optimal_channel,
    qubit_reachable_boundary,
    von_neumann_entropy,
)
from thermops.errors import InvalidInputError, ResolutionError, UnreachableError
from thermops.majorization import shannon_entropy
from thermops.sampling import (
    random_covariant_channel,
    random_density_matrix,
    random_thermal_channel,
)
from thermops.work import w_det

E01 = EnergySpectrum([0.0, 1.0])
PLUS = DensityMatrix.pure([1.0, 1.0])


def spread_spectrum(rng, n):
    e = np.sort(rng.uniform(0, 3, n))
    e -= e[0]
    return EnergySpectrum(e)


class TestDephase:
    def test_diagonal_fixed_point(self):
        rho = DensityMatrix.from_diag([0.2, 0.3, 0.5])
        np.testing.assert_array_equal(dephase(rho, EnergySpectrum([0, 1, 2])).rho, rho.rho)

    def test_plus_state(self):
        np.testing.assert_allclose(dephase(PLUS, E01).rho, np.diag([0.5, 0.5]), atol=1e-15)

    def test_coherent_thermal_state(self, ctx_012):
        gket = DensityMatrix.pure(np.sqrt(ctx_012.gibbs.p))
        np.testing.assert_allclose(
            dephase(gket, ctx_012.spectrum).rho, np.diag(ctx_012.gibbs.p), atol=1e-15
        )

    def test_degenerate_coherence_survives(self):
        spec = EnergySpectrum([0.0, 0.0, 1.0])
        rho = np.diag([0.3, 0.3, 0.4]).astype(complex)
        rho[0, 1] = rho[1, 0] = 0.1
        rho[0, 2] = 0.05
        rho[2, 0] = 0.05
        out = dephase(DensityMatrix(rho), spec)
        assert out.rho[0, 1] == pytest.approx(0.1)
        assert out.rho[0, 2] == 0.0


class TestBohrSpectrum:
    def test_three_levels(self):
        bs = bohr_spectrum(EnergySpectrum([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(bs.frequencies, [-2, -1, 0, 1, 2], atol=1e-12)

    def test_singleton(self):
        np.testing.assert_array_equal(bohr_spectrum(EnergySpectrum([0.0])).frequencies, [0.0])

    def test_near_degenerate_merge(self):
        bs = bohr_spectrum(EnergySpectrum([0.0, 1.0, 1.0 + 1e-12]), 1e-9)
        np.testing.assert_allclose(bs.frequencies, [-1, 0, 1], atol=1e-10)

    def test_zero_merge_raises(self):
        with pytest.raises(ResolutionError):
            bohr_spectrum(EnergySpectrum([0.0, 1.0, 2.0]), delta=1.5)


class TestModes:
    def test_diagonal_single_mode(self):
        md = mode_decompose(DensityMatrix.from_diag([0.4, 0.6]), E01)
        assert md.omegas() == [0.0]

    def test_plus_state_three_modes(self):
        md = mode_decompose(PLUS, E01)
        assert md.omegas() == [-1.0, 0.0, 1.0]
        np.testing.assert_allclose(md[0.0], np.diag([0.5, 0.5]), atol=1e-15)
        np.testing.assert_allclose(md[-1.0], [[0, 0.5], [0, 0]], atol=1e-15)

    def test_single_coherence_three_levels(self):
        rho = np.diag([0.4, 0.35, 0.25]).astype(complex)
        rho[0, 1] = rho[1, 0] = 0.2
        md = mode_decompose(DensityMatrix(rho), EnergySpectrum([0.0, 1.0, 2.0]))
        assert md.omegas() == [-1.0, 0.0, 1.0]

    def test_completeness_and_adjoint_symmetry(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            spec = spread_spectrum(rng, n)
            rho = random_density_matrix(rng, n)
            md = mode_decompose(rho, spec)
            np.testing.assert_allclose(md.total(), rho.rho, atol=1e-12)
            for w in md.omegas():
                np.testing.assert_allclose(md[w], md[-w].conj().T, atol=1e-12)

    def test_projector_idempotence(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            spec = spread_spectrum(rng, n)
            rho = random_density_matrix(rng, n).rho
            bs = bohr_spectrum(spec)
            for w in bs:
                once = mode_projector(rho, spec, w)
                np.testing.assert_array_equal(mode_projector(once, spec, w), once)
                for w2 in bs:
                    if w2 != w:
                        np.testing.assert_allclose(
                            mode_projector(once, spec, w2), 0.0, atol=1e-15
                        )

    def test_modes_pick_up_phases(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            spec = spread_spectrum(rng, n)
            rho = random_density_matrix(rng, n)
            md = mode_decompose(rho, spec)
            t = float(rng.uniform(0, 10))
            phase = np.exp(-1j * spec.energies * t)
            for w in md.omegas():
                evolved = (phase[:, None] * md[w]) * phase.conj()[None, :]
                np.testing.assert_allclose(evolved, np.exp(-1j * w * t) * md[w], atol=1e-10)


class TestAsymmetry:
    def test_plus_state(self):
        assert asymmetry(PLUS, E01) == pytest.approx(math.log(2), abs=1e-12)

    def test_energy_eigenstates(self):
        for k in range(2):
            v = np.zeros(2)
            v[k] = 1.0
            assert asymmetry(DensityMatrix.pure(v), E01) == pytest.approx(0.0, abs=1e-12)

    def test_coherent_thermal_state(self, ctx_012):
        gket = DensityMatrix.pure(np.sqrt(ctx_012.gibbs.p))
        assert asymmetry(gket, ctx_012.spectrum) == pytest.approx(
            shannon_entropy(ctx_012.gibbs), abs=1e-10
        )

    def test_never_reducible_to_free_energy(self, ctx_halves):
        # adding thermal noise keeps asymmetry strictly positive
        gamma = np.diag(ctx_halves.gibbs.p).astype(complex)
        for eps in (0.3, 0.05, 0.01):
            sigma = DensityMatrix(eps * PLUS.rho + (1 - eps) * gamma)
            assert asymmetry(sigma, E01) > 0.0
        assert asymmetry(DensityMatrix.pure([0, 1]), E01) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_one_matches(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 5))
            spec = spread_spectrum(rng, n)
            rho = random_density_matrix(rng, n)
            assert asymmetry_alpha(rho, spec, 1.0) == pytest.approx(
                asymmetry(rho, spec), abs=1e-10
            )

    def test_incoherent_states_vanish_for_all_alpha(self, rng):
        rho = DensityMatrix.from_diag(rng.dirichlet(np.ones(4)))
        spec = spread_spectrum(rng, 4)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            assert asymmetry_alpha(rho, spec, alpha) == pytest.approx(0.0, abs=1e-10)

    def test_alpha_two_dominates_asymmetry(self):
        assert asymmetry_alpha(PLUS, E01, 2.0) >= asymmetry(PLUS, E01) - 1e-10

    def test_holevo_example(self):
        axis = EnergySpectrum([0.0, 0.0, 1.0, 1.0])
        xi = np.zeros((4, 4), dtype=complex)
        xi[np.ix_([0, 2], [0, 2])] = 0.25 * np.array([[1, 1], [1, 1]])
        xi[np.ix_([1, 3], [1, 3])] = 0.25 * np.array([[1, -1], [-1, 1]])
        assert holevo_asymmetry(DensityMatrix(xi), axis) == pytest.approx(
            math.log(2), abs=1e-12
        )
        rho = DensityMatrix.from_diag([0.5, 0.0, 0.0, 0.5])
        assert holevo_asymmetry(rho, axis) == pytest.approx(0.0, abs=1e-12)

    def test_z_diagonal_states_vanish(self, rng):
        axis = EnergySpectrum([0.0, 0.0, 1.0, 1.0])
        rho = DensityMatrix.from_diag(rng.dirichlet(np.ones(4)))
        assert holevo_asymmetry(rho, axis) == pytest.approx(0.0, abs=1e-12)


class TestQFI:
    def test_diagonal_state(self):
        assert qfi(DensityMatrix.from_diag([0.3, 0.7]), E01) == pytest.approx(0.0, abs=1e-10)

    def test_plus_state_unit_gap(self):
        assert qfi(PLUS, E01) == pytest.approx(1.0, abs=1e-12)

    def test_plus_state_double_gap(self):
        assert qfi(PLUS, EnergySpectrum([0.0, 2.0])) == pytest.approx(4.0, abs=1e-12)

    def test_pure_state_variance_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            spec = spread_spectrum(rng, n)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            v /= np.linalg.norm(v)
            rho = DensityMatrix.pure(v)
            e = spec.energies
            mean = float(np.real(np.vdot(v, e * v)))
            var = float(np.real(np.vdot(v, e**2 * v))) - mean**2
            assert qfi(rho, spec) == pytest.approx(4 * var, abs=1e-12 * (1 + 4 * var))


class TestFreeEnergySplit:
    def test_thermal_state_zeroes(self, ctx_012):
        gamma = DensityMatrix.from_diag(ctx_012.gibbs.p)
        total, classical, coherent = free_energy_split(gamma, ctx_012)
        assert total == pytest.approx(0.0, abs=1e-10)
        assert classical == pytest.approx(0.0, abs=1e-10)
        assert coherent == pytest.approx(0.0, abs=1e-10)

    def test_incoherent_state(self, rng, ctx_012):
        rho = DensityMatrix.from_diag(rng.dirichlet(np.ones(3)))
        total, classical, coherent = free_energy_split(rho, ctx_012)
        assert coherent == pytest.approx(0.0, abs=1e-12)
        assert total == pytest.approx(classical, abs=1e-10)

    def test_plus_state_closed_form(self):
        ctx = GibbsContext(E01, 1.0)
        total, classical, coherent = free_energy_split(PLUS, ctx)
        assert coherent == pytest.approx(math.log(2), abs=1e-10)  # kT = 1
        g = ctx.gibbs.p
        expected_classical = float(np.sum(0.5 * (np.log(0.5) - np.log(g))))
        assert classical == pytest.approx(expected_classical, abs=1e-10)
        assert total == pytest.approx(classical + coherent, abs=1e-10)

    def test_identity_random(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            e = np.sort(rng.uniform(0, 3, n))
            ctx = GibbsContext(EnergySpectrum(e - e[0]), rng.uniform(0.2, 3.0))
            rho = random_density_matrix(rng, n)
            total, classical, coherent = free_energy_split(rho, ctx)
            assert total == pytest.approx(classical + coherent, abs=1e-10)


class TestChannels:
    def test_kraus_validation(self):
        with pytest.raises(InvalidInputError):
            QuantumChannel((np.eye(2) * 0.5,))

    def test_identity_channel_checks(self, ctx_012):
        ch = identity_channel(3)
        assert channel_covariance_check(ch, ctx_012.spectrum, 1e-10)
        assert gibbs_preserving_check(ch, ctx_012, 1e-12)

    def test_dephasing_channel_covariant(self, ctx_012):
        ch = partial_dephasing_channel(ctx_012.spectrum, 0.7)
        assert channel_covariance_check(ch, ctx_012.spectrum, 1e-10)
        assert gibbs_preserving_check(ch, ctx_012, 1e-12)

    def test_hadamard_not_covariant(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        ch = QuantumChannel((h,))
        assert not channel_covariance_check(ch, E01, 1e-10)

    def test_replace_with_ground_not_gibbs_preserving(self, ctx_halves):
        ks = tuple(
            np.outer([1.0, 0.0], row).astype(complex) for row in np.eye(2)
        )
        ch = QuantumChannel(ks)
        assert not gibbs_preserving_check(ch, ctx_halves, 1e-9)

    def test_covariance_iff_mode_preservation(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 5))
            spec = spread_spectrum(rng, n)
            cov = random_covariant_channel(rng, spec)
            assert channel_covariance_check(cov, spec, 1e-9)
            rho = random_density_matrix(rng, n)
            md = mode_decompose(rho, spec)
            out_modes = mode_decompose(cov.apply(rho), spec)
            for w in md.omegas():
                applied = cov.apply_matrix(md[w])
                expected = out_modes[w] if w in dict.fromkeys(out_modes.omegas()) else 0.0
                np.testing.assert_allclose(applied, expected, atol=1e-9)

    def test_non_covariant_channel_mixes_modes(self):
        # converse direction: the Hadamard unitary fails the covariance check
        # and indeed scatters a single mode across several
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        ch = QuantumChannel((h,))
        assert not channel_covariance_check(ch, E01, 1e-10)
        zero_mode = np.diag([0.8, 0.2]).astype(complex)
        out = ch.apply_matrix(zero_mode)
        leaked = mode_projector(out, E01, 1.0)
        assert np.max(np.abs(leaked)) > 1e-3

    def test_choi_positive_and_normalised(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            spec = spread_spectrum(rng, n)
            ch = random_covariant_channel(rng, spec)
            j = ch.choi()
            evals = np.linalg.eigvalsh((j + j.conj().T) / 2)
            assert evals.min() >= -1e-9
            assert np.trace(j).real == pytest.approx(n, abs=1e-9)

    def test_choi_block_structure_and_positivity_bound(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 5))
            spec = spread_spectrum(rng, n)
            ch = random_covariant_channel(rng, spec)
            j = ch.choi()
            e = spec.energies
            omega_flat = (e[:, None] - e[None, :]).ravel()
            p = ch.classical_action().entries
            # off-block entries vanish
            gap = np.abs(omega_flat[:, None] - omega_flat[None, :]) > 1e-9
            assert np.max(np.abs(np.where(gap, j, 0.0))) <= 1e-10
            # in-block magnitudes bounded by sqrt(P P)
            for xp in range(n):
                for x in range(n):
                    for yp in range(n):
                        for y in range(n):
                            if abs(omega_flat[xp * n + x] - omega_flat[yp * n + y]) < 1e-9:
                                c = abs(j[xp * n + x, yp * n + y])
                                assert c <= math.sqrt(p[xp, x] * p[yp, y]) + 1e-10


class TestMonotones:
    def test_asymmetry_family_never_increases(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            spec = spread_spectrum(rng, n)
            ch = random_covariant_channel(rng, spec)
            rho = random_density_matrix(rng, n)
            out = ch.apply(rho)
            assert asymmetry(out, spec) <= asymmetry(rho, spec) + 1e-9
            for alpha in (0.5, 2.0):
                assert asymmetry_alpha(out, spec, alpha) <= asymmetry_alpha(rho, spec, alpha) + 1e-9
            assert qfi(out, spec) <= qfi(rho, spec) + 1e-6

    def test_split_components_decrease_for_thermal_channels(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            e = np.sort(rng.uniform(0, 2, n))
            ctx = GibbsContext(EnergySpectrum(e - e[0]), rng.uniform(0.3, 2.0))
            ch = random_thermal_channel(rng, ctx)
            assert channel_covariance_check(ch, ctx.spectrum, 1e-9)
            assert gibbs_preserving_check(ch, ctx, 1e-9)
            rho = random_density_matrix(rng, n)
            before = free_energy_split(rho, ctx)
            after = free_energy_split(ch.apply(rho), ctx)
            for b, a in zip(before, after):
                assert a <= b + 1e-9

    def test_work_locking(self, rng, ctx_012):
        # extractable work reads populations only, so dephasing changes nothing
        for _ in range(10):
            rho = random_density_matrix(rng, 3)
            assert w_det(population_of(rho), ctx_012) == w_det(
                population_of(dephase(rho, ctx_012.spectrum)), ctx_012
            )


class TestCPBound:
    def test_identity_action_two_level(self):
        p = identity_channel(2).classical_action()
        rho = DensityMatrix(np.array([[0.6, 0.25], [0.25, 0.4]], dtype=complex))
        assert cp_bound(p, rho, E01, 0, 1) == pytest.approx(0.25, abs=1e-12)

    def test_ladder_single_coherence(self):
        spec = EnergySpectrum([0.0, 1.0, 2.0])
        pm = np.array([[0.5, 0.2, 0.1], [0.3, 0.5, 0.3], [0.2, 0.3, 0.6]])
        from thermops.core import StochasticMatrix

        p = StochasticMatrix(pm)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        rho[0, 1] = rho[1, 0] = 0.15
        bound = cp_bound(p, DensityMatrix(rho), spec, 1, 2)
        assert bound == pytest.approx(math.sqrt(pm[1, 0] * pm[2, 1]) * 0.15, abs=1e-12)

    def test_random_covariant_outputs_obey_bound(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            spec = spread_spectrum(rng, n)
            ch = random_covariant_channel(rng, spec)
            p = ch.classical_action()
            rho = random_density_matrix(rng, n)
            out = ch.apply(rho).rho
            for xp in range(n):
                for yp in range(n):
                    if xp == yp:
                        continue
                    assert abs(out[xp, yp]) <= cp_bound(p, rho, spec, xp, yp) + 1e-9

    def test_mode_shift_bound(self):
        ctx = GibbsContext(EnergySpectrum([0.0, 1.0, 2.0]), 1.0)
        assert mode_shift_bound(ctx, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-14)
        ctx0 = GibbsContext(EnergySpectrum([0.0, 1.0, 2.0]), 0.0)
        assert mode_shift_bound(ctx0, 1.0) == 1.0
        with pytest.raises(InvalidInputError):
            mode_shift_bound(GibbsContext(EnergySpectrum([0.0, 1.0, 2.5]), 1.0), 1.0)


class TestQubit:
    def test_identity_move_keeps_coherence(self, ctx_halves):
        lam, d = qubit_coherence_bound(0.3, 0.3, ctx_halves, 0.2)
        assert lam == 0.0
        assert d == pytest.approx(0.2, abs=1e-14)

    def test_full_thermalisation_closed_form(self, ctx_halves):
        g = ctx_halves.gibbs.p[0]
        lam, d = qubit_coherence_bound(0.3, g, ctx_halves, 0.2)
        assert d == pytest.approx(math.sqrt(g * (1 - g)) * 0.2, abs=1e-12)

    def test_infinite_temperature_symmetric_point(self):
        ctx = GibbsContext(EnergySpectrum([0.0, 1.0]), 0.0)
        lam, d = qubit_coherence_bound(0.5, 0.5, ctx, 0.3)
        assert d == pytest.approx(0.3, abs=1e-14)

    def test_unreachable_population(self, ctx_halves):
        g = ctx_halves.gibbs.p[0]
        with pytest.raises(UnreachableError):
            qubit_coherence_bound(0.3, 1.0, ctx_halves, 0.0)  # past the overshoot
        with pytest.raises(UnreachableError):
            qubit_coherence_bound(g, 0.9, ctx_halves, 0.0)

    def test_lambda_extremes(self, ctx_halves):
        ch0 = qubit_optimal_channel(0.3, 0.3, ctx_halves)
        rho = DensityMatrix(np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex))
        np.testing.assert_allclose(ch0.apply(rho).rho, rho.rho, atol=1e-12)
        g = ctx_halves.gibbs.p[0]
        q1 = 0.3 + (g - 0.3) / g  # lambda = 1 overshoot
        ch1 = qubit_optimal_channel(0.3, q1, ctx_halves)
        assert gibbs_preserving_check(ch1, ctx_halves, 1e-10)

    def test_channel_saturates_bound(self, rng, ctx_halves):
        g = ctx_halves.gibbs.p[0]
        for _ in range(50):
            p = float(rng.uniform(0, 1))
            lam = float(rng.uniform(0, 1))
            q = p + lam * (1 - p / g)
            c = float(rng.uniform(0, 1)) * math.sqrt(p * (1 - p))
            lam2, dmax = qubit_coherence_bound(p, q, ctx_halves, c)
            ch = qubit_optimal_channel(p, q, ctx_halves)
            rho = DensityMatrix(np.array([[p, c], [c, 1 - p]], dtype=complex))
            out = ch.apply(rho)
            assert out.rho[0, 0].real == pytest.approx(q, abs=1e-10)
            assert abs(out.rho[0, 1]) == pytest.approx(dmax, abs=1e-10)
            assert channel_covariance_check(ch, ctx_halves.spectrum, 1e-10)
            assert gibbs_preserving_check(ch, ctx_halves, 1e-10)

    def test_bound_matches_cp_bound_specialisation(self, rng, ctx_halves):
        for _ in range(20):
            p = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(0, 1))
            g = ctx_halves.gibbs.p[0]
            q = p + lam * (1 - p / g)
            c = float(rng.uniform(0, 1)) * math.sqrt(p * (1 - p))
            _, dmax = qubit_coherence_bound(p, q, ctx_halves, c)
            ch = qubit_optimal_channel(p, q, ctx_halves)
            rho = DensityMatrix(np.array([[p, c], [c, 1 - p]], dtype=complex))
            via_cp = cp_bound(ch.classical_action(), rho, ctx_halves.spectrum, 0, 1)
            assert dmax == pytest.approx(via_cp, abs=1e-12)

    def test_boundary_sweep(self, rng, ctx_halves):
        p, c = 0.25, 0.2
        pts = qubit_reachable_boundary(p, c, ctx_halves, 21)
        assert len(pts) == 21
        rho = DensityMatrix(np.array([[p, c], [c, 1 - p]], dtype=complex))
        for q, d in pts:
            ch = qubit_optimal_channel(p, q, ctx_halves)
            out = ch.apply(rho)
            assert abs(out.rho[0, 1]) == pytest.approx(d, abs=1e-10)
            # interior points via partial dephasing of the boundary channel
            s = float(rng.uniform(0, 1))
            softened = partial_dephasing_channel(ctx_halves.spectrum, s).apply(out)
            assert abs(softened.rho[0, 1]) == pytest.approx((1 - s) * d, abs=1e-10)

    def test_infinite_temperature_region_is_polytope(self):
        ctx = GibbsContext(EnergySpectrum([0.0, 1.0]), 0.0)
        pts = qubit_reachable_boundary(0.3, 0.2, ctx, 41)
        qs = np.array([q for q, _ in pts])
        ds = np.array([d for _, d in pts])
        # straight edge: d is an affine function of q only at infinite temperature
        slopes = np.diff(ds) / np.diff(qs)
        np.testing.assert_allclose(slopes, slopes[0], atol=1e-9)
        warm = GibbsContext(EnergySpectrum([0.0, 1.0]), 1.0)
        pts_w = qubit_reachable_boundary(0.3, 0.2, warm, 41)
        slopes_w = np.diff([d for _, d in pts_w]) / np.diff([q for q, _ in pts_w])
        assert np.max(np.abs(np.diff(slopes_w))) > 1e-4


class TestLadder:
    @staticmethod
    def coherent_state(entry, value):
        rho = np.eye(3, dtype=complex) / 3
        a, b = entry
        rho[a, b] = value
        rho[b, a] = np.conj(value)
        return DensityMatrix(rho)

    def test_down_transport_perfect(self):
        rho = self.coherent_state((2, 1), 0.2)
        out = ladder_simulate(rho, 1.0, 1.0, 40, "down")
        assert abs(out.rho[1, 0]) == pytest.approx(0.2, abs=1e-12)

    def test_up_transport_damped(self):
        rho = self.coherent_state((1, 0), 0.2)
        out = ladder_simulate(rho, 1.0, 1.0, 40, "up")
        assert abs(out.rho[2, 1]) == pytest.approx(0.2 * math.exp(-1.0), abs=1e-12)

    def test_infinite_temperature_limit(self):
        rho = self.coherent_state((1, 0), 0.2)
        out = ladder_simulate(rho, 1.0, 1e-3, 20000, "up")
        assert abs(out.rho[2, 1]) / 0.2 == pytest.approx(1.0, abs=2e-3)

    def test_matches_dense_unitary_construction(self, rng):
        # independent check: build the dense permutation unitary and trace out
        from thermops.coherence import _ladder_permutation

        nb = 8
        npad = nb + 2  # two empty levels keep every populated shell complete
        beta, de = 0.7, 1.0
        w = np.exp(-beta * de * np.arange(nb))
        gamma = np.zeros(npad)
        gamma[:nb] = w / w.sum()
        gamma_b = np.diag(gamma).astype(complex)
        perm = _ladder_permutation(npad)
        u = np.zeros((3 * npad, 3 * npad))
        for src, dst in enumerate(perm):
            u[dst, src] = 1.0
        assert np.allclose(u @ u.T, np.eye(3 * npad))  # permutation unitary
        # energy preservation on the joint spectrum
        joint = np.kron(np.diag([0.0, de, 2 * de]), np.eye(npad)) + np.kron(
            np.eye(3), np.diag(de * np.arange(npad))
        )
        np.testing.assert_allclose(u @ joint @ u.T, joint, atol=1e-12)
        rho = random_density_matrix(rng, 3)
        big = u @ np.kron(rho.rho, gamma_b) @ u.T
        traced = np.einsum("abcb->ac", big.reshape(3, npad, 3, npad))
        fast = ladder_simulate(rho, de, beta, nb, "down")
        np.testing.assert_allclose(fast.rho, traced, atol=1e-12)

    def test_truncation_deviation_within_analytic_tail(self):
        for beta, de, nb in [(1.0, 1.0, 40), (0.5, 1.0, 30), (1.0, 0.7, 25), (2.0, 1.0, 12)]:
            tail = math.exp(-beta * de * nb) / (1 - math.exp(-beta * de))
            down = ladder_simulate(self.coherent_state((2, 1), 0.25), de, beta, nb, "down")
            assert abs(abs(down.rho[1, 0]) / 0.25 - 1.0) <= tail + 1e-15
            up = ladder_simulate(self.coherent_state((1, 0), 0.25), de, beta, nb, "up")
            assert abs(abs(up.rho[2, 1]) / 0.25 - math.exp(-beta * de)) <= tail + 1e-15

    def test_bounds_and_validation(self):
        rho = self.coherent_state((1, 0), 0.1)
        with pytest.raises(ResolutionError):
            ladder_simulate(rho, 1.0, 1.0, 2, "down")
        with pytest.raises(InvalidInputError):
            ladder_simulate(rho, 1.0, 1.0, 10, "sideways")
        assert ladder_truncation_tail(1.0, 1.0, 40) == pytest.approx(math.exp(-40))

    def test_up_factor_matches_mode_shift_bound(self):
        ctx = GibbsContext(EnergySpectrum([0.0, 1.0, 2.0]), 1.3)
        rho = self.coherent_state((1, 0), 0.2)
        out = ladder_simulate(rho, 1.0, 1.3, 60, "up")
        assert abs(out.rho[2, 1]) / 0.2 == pytest.approx(
            mode_shift_bound(ctx, 1.0), abs=1e-12
        )


def test_von_neumann_entropy_basics(rng):
    assert von_neumann_entropy(DensityMatrix.pure([1, 1])) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(DensityMatrix.from_diag([0.5, 0.5])) == pytest.approx(
        math.log(2), abs=1e-12
    )
