import math
import time
from fractions import Fraction

import numpy as np
import pytest

from thermops.core import EnergySpectrum, GibbsContext, ProbVec, StochasticMatrix
from thermops.divergences import default_alpha_grid, free_energy_alpha
from thermops.errors import (
    ApproximationError,
    InvalidInputError,
    OrderingError,
    ResolutionError,
)
from thermops.majorization import majorizes
from thermops.sampling import random_context, random_gibbs_stochastic, random_prob_vec
from thermops.thermo import (
    GE_CAP,
    _round_transport,
    bath_model_simulate,
    beta_order,
    construct_gibbs_stochastic,
    embed,
    feasibility_lp_oracle,
    rationalize,
    thermo_curve,
    thermo_majorizes,
    unembed,
)

UNIFORM3 = ProbVec([1 / 3] * 3)
Y3 = ProbVec([2 / 3, 1 / 3, 0.0])


class TestBetaOrder:
    def test_uniform_reverses(self, ctx_012):
        assert beta_order(UNIFORM3, ctx_012).one_based() == (3, 2, 1)

    def test_worked_example_y(self, ctx_012):
        assert beta_order(Y3, ctx_012).one_based() == (2, 1, 3)

    def test_infinite_temperature_sorts_descending(self):
        ctx = GibbsContext(EnergySpectrum([0.0, 1.0, 2.0]), 0.0)
        assert beta_order(ProbVec([0.2, 0.5, 0.3]), ctx).one_based() == (2, 3, 1)

    def test_ties_break_by_index(self, ctx_012):
        order = beta_order(ProbVec(ctx_012.gibbs.p), ctx_012)
        assert order.one_based() == (1, 2, 3)


class TestThermoCurve:
    def test_worked_example_breakpoints(self, ctx_012):
        c = thermo_curve(UNIFORM3, ctx_012)
        xs = [0, math.exp(-2.4), math.exp(-2.4) + math.exp(-1.2), math.exp(-2.4) + math.exp(-1.2) + 1]
        np.testing.assert_allclose(c.x, xs, atol=1e-12)
        np.testing.assert_allclose(c.y, [0, 1 / 3, 2 / 3, 1], atol=1e-12)

    def test_worked_example_y_breakpoints(self, ctx_012):
        c = thermo_curve(Y3, ctx_012)
        xs = [0, math.exp(-1.2), math.exp(-1.2) + 1, math.exp(-2.4) + math.exp(-1.2) + 1]
        np.testing.assert_allclose(c.x, xs, atol=1e-12)
        np.testing.assert_allclose(c.y, [0, 1 / 3, 1, 1], atol=1e-12)

    def test_thermal_state_is_straight_line(self, ctx_012):
        c = thermo_curve(ProbVec(ctx_012.gibbs.p), ctx_012)
        assert c.end() == (pytest.approx(ctx_012.Z), pytest.approx(1.0))
        slopes = np.diff(c.y) / np.diff(c.x)
        np.testing.assert_allclose(slopes, slopes[0], atol=1e-12)

    def test_concavity_on_random_states(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            ctx = random_context(rng, n)
            c = thermo_curve(random_prob_vec(rng, n), ctx)
            slopes = np.diff(c.y) / np.diff(c.x)
            assert np.all(np.diff(slopes) <= 1e-9)

    def test_tie_independence_under_degenerate_ratios(self, ctx_012):
        # state proportional to g has all ratios tied: curve must be the line
        c = thermo_curve(ProbVec(ctx_012.gibbs.p), ctx_012)
        grid = np.linspace(0, ctx_012.Z, 7)
        np.testing.assert_allclose(c.evaluate(grid), grid / ctx_012.Z, atol=1e-12)

    def test_tie_break_does_not_change_curve(self, ctx_012):
        # two levels with identical ratios: swapping them in the ordering
        # moves the middle breakpoint along the same straight segment
        g = ctx_012.gibbs.p
        r = 1.05
        x = np.array([r * g[0], r * g[1], 1 - r * (g[0] + g[1])])
        curve = thermo_curve(ProbVec(x), ctx_012)
        w = ctx_012.boltzmann_weights()
        swapped_order = [1, 0, 2]  # the other valid beta-ordering
        pts = np.zeros((4, 2))
        pts[1:, 0] = np.cumsum(w[swapped_order])
        pts[1:, 1] = np.cumsum(x[swapped_order])
        from thermops.core import PLCurve

        alt = PLCurve(pts)
        grid = np.union1d(curve.x, alt.x)
        np.testing.assert_allclose(curve.evaluate(grid), alt.evaluate(grid), atol=1e-12)


class TestThermoMajorizes:
    def test_worked_pair_incomparable(self, ctx_012):
        assert not thermo_majorizes(UNIFORM3, Y3, ctx_012)
        assert not thermo_majorizes(Y3, UNIFORM3, ctx_012)

    def test_thermal_state_is_bottom(self, ctx_012, rng):
        g = ProbVec(ctx_012.gibbs.p)
        for _ in range(50):
            x = random_prob_vec(rng, 3)
            assert thermo_majorizes(x, g, ctx_012)

    def test_top_sharp_state(self, ctx_012, rng):
        top = ProbVec([0.0, 0.0, 1.0])
        for _ in range(50):
            assert thermo_majorizes(top, random_prob_vec(rng, 3), ctx_012)

    def test_reduces_to_majorization_at_beta_zero(self, rng):
        ctx = GibbsContext(EnergySpectrum([0.0, 0.0, 0.0, 0.0]), 1.7)
        for _ in range(100):
            x, y = random_prob_vec(rng, 4), random_prob_vec(rng, 4)
            assert thermo_majorizes(x, y, ctx) == majorizes(x, y)

    def test_reflexive_and_transitive(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            ctx = random_context(rng, n)
            x = random_prob_vec(rng, n)
            assert thermo_majorizes(x, x, ctx)
            y = ProbVec(random_gibbs_stochastic(rng, ctx).entries @ x.p)
            z = ProbVec(random_gibbs_stochastic(rng, ctx).entries @ y.p)
            assert thermo_majorizes(x, y, ctx)
            assert thermo_majorizes(y, z, ctx)
            assert thermo_majorizes(x, z, ctx)

    def test_free_energies_decrease_along_order(self, rng):
        grid = default_alpha_grid()
        for _ in range(40):
            n = int(rng.integers(2, 5))
            ctx = random_context(rng, n, beta_range=(0.2, 3.0))
            x = random_prob_vec(rng, n)
            y = ProbVec(random_gibbs_stochastic(rng, ctx).entries @ x.p)
            assert thermo_majorizes(x, y, ctx)
            for alpha in grid:
                assert free_energy_alpha(x, ctx, alpha) >= free_energy_alpha(y, ctx, alpha) - 1e-9

    def test_end_abscissa_rounding_at_large_n(self):
        # Both curves end at Z ~ 5.1e4, summed in two beta-orders. At rng
        # seed 78 the two sums differ by 1.04e-9, and an absolute end test
        # at eps = 1e-9 called this feasible pair infeasible.
        n = 2**16
        rng = np.random.default_rng(78)
        ctx = GibbsContext(EnergySpectrum(np.sort(rng.uniform(0.0, 3.0, n))), 0.18)
        g = ctx.gibbs.p
        x = rng.dirichlet(np.ones(n))
        y = x.copy()
        for _ in range(2):  # random matchings of two-level Gibbs-preserving moves
            pairs = rng.permutation(n).reshape(-1, 2)
            i, j = pairs.min(axis=1), pairs.max(axis=1)
            lam = rng.uniform(0.0, 1.0, len(i))
            r = g[j] / g[i]
            yi, yj = y[i], y[j]
            y[i] = (1.0 - lam * r) * yi + lam * yj
            y[j] = lam * r * yi + (1.0 - lam) * yj
        x, y = ProbVec(x), ProbVec(y)
        assert abs(thermo_curve(x, ctx).end()[0] - thermo_curve(y, ctx).end()[0]) > 1e-9
        assert thermo_majorizes(x, y, ctx) is True


class TestEmbedding:
    def test_rationalize_exact_eighths(self, ctx_eighths):
        spec = rationalize(ctx_eighths, 8)
        np.testing.assert_array_equal(spec.d, [4, 3, 1])
        assert spec.D == 8
        assert spec.approx_error == 0.0

    def test_rationalize_uniform(self):
        ctx = GibbsContext(EnergySpectrum([0.0] * 4), 2.0)
        spec = rationalize(ctx, 4)
        np.testing.assert_array_equal(spec.d, [1, 1, 1, 1])

    def test_rationalize_error_bound(self, ctx_012):
        spec = rationalize(ctx_012, 10_000)
        assert spec.approx_error <= 1e-4

    def test_rationalize_requires_room(self, ctx_012):
        with pytest.raises(InvalidInputError):
            rationalize(ctx_012, 2)

    def test_huge_d_max_fails_fast(self, ctx_012):
        x = ProbVec([0.7, 0.2, 0.1])
        y = ProbVec(0.5 * x.p + 0.5 * ctx_012.gibbs.p)
        start = time.perf_counter()
        with pytest.raises(InvalidInputError, match="at most"):
            rationalize(ctx_012, 10**9)
        with pytest.raises(InvalidInputError, match="at most"):
            construct_gibbs_stochastic(x, y, ctx_012, d_max=10**9)
        assert time.perf_counter() - start < 1.0

    def test_embed_examples(self, ctx_halves):
        from thermops.thermo import EmbeddingSpec

        spec = EmbeddingSpec(np.array([2, 2]), 0.0)
        np.testing.assert_allclose(embed(ProbVec([1.0, 0.0]), spec).p, [0.5, 0.5, 0, 0])
        np.testing.assert_allclose(unembed(ProbVec([0.5, 0.5, 0, 0]), spec).p, [1, 0])

    def test_embed_thermal_gives_uniform(self, ctx_eighths):
        spec = rationalize(ctx_eighths, 8)
        np.testing.assert_allclose(
            embed(ProbVec(ctx_eighths.gibbs.p), spec).p, np.full(8, 1 / 8), atol=1e-15
        )

    def test_unembed_inverts_embed(self, rng, ctx_eighths):
        # bit-exact for power-of-two weights; one rounding otherwise
        from thermops.thermo import EmbeddingSpec

        dyadic = EmbeddingSpec(np.array([4, 2, 2]), 0.0)
        for _ in range(30):
            x = random_prob_vec(rng, 3)
            np.testing.assert_array_equal(unembed(embed(x, dyadic), dyadic).p, x.p)
        spec = rationalize(ctx_eighths, 8)
        for _ in range(30):
            x = random_prob_vec(rng, 3)
            np.testing.assert_allclose(unembed(embed(x, spec), spec).p, x.p, rtol=3e-16, atol=0)

    def test_uniform_unembeds_to_rational_gibbs(self, ctx_eighths):
        spec = rationalize(ctx_eighths, 8)
        np.testing.assert_allclose(
            unembed(ProbVec(np.full(8, 1 / 8)), spec).p, ctx_eighths.gibbs.p, atol=1e-15
        )

    def test_embedding_preserves_ordering(self, rng, ctx_eighths):
        # with exact rational g, embedded majorisation iff thermo-majorisation
        spec = rationalize(ctx_eighths, 8)
        for _ in range(150):
            x, y = random_prob_vec(rng, 3), random_prob_vec(rng, 3)
            lifted = majorizes(embed(x, spec), embed(y, spec))
            direct = thermo_majorizes(x, y, ctx_eighths)
            assert lifted == direct


class TestConstruct:
    def test_identity(self, ctx_eighths):
        x = ProbVec([0.3, 0.45, 0.25])
        g = construct_gibbs_stochastic(x, x, ctx_eighths, 8)
        np.testing.assert_allclose(g.entries, np.eye(3), atol=1e-12)

    def test_thermalization_target(self, rng, ctx_eighths):
        gvec = ProbVec(ctx_eighths.gibbs.p)
        for _ in range(20):
            x = random_prob_vec(rng, 3)
            g = construct_gibbs_stochastic(x, gvec, ctx_eighths, 8)
            np.testing.assert_allclose(g.entries @ x.p, gvec.p, atol=1e-9)

    def test_random_pairs_map_and_fix(self, rng, ctx_eighths):
        for _ in range(100):
            x = random_prob_vec(rng, 3)
            y = ProbVec(random_gibbs_stochastic(rng, ctx_eighths).entries @ x.p)
            g = construct_gibbs_stochastic(x, y, ctx_eighths, 8)
            np.testing.assert_allclose(g.entries @ x.p, y.p, atol=1e-9)
            np.testing.assert_allclose(g.entries @ ctx_eighths.gibbs.p, ctx_eighths.gibbs.p, atol=1e-10)
            np.testing.assert_allclose(g.entries.sum(axis=0), 1.0, atol=1e-10)

    def test_irrational_g_with_error_budget(self, rng, ctx_012):
        for _ in range(20):
            x = random_prob_vec(rng, 3)
            lam = rng.uniform(0.3, 1.0)
            y = ProbVec((1 - lam) * x.p + lam * ctx_012.gibbs.p)
            spec = rationalize(ctx_012, 256)
            g = construct_gibbs_stochastic(x, y, ctx_012, 256)
            tol = max(1e-9, 3 * spec.approx_error)
            assert np.max(np.abs(g.entries @ x.p - y.p)) <= tol
            np.testing.assert_allclose(
                g.entries @ spec.rational_gibbs().p, spec.rational_gibbs().p, atol=1e-10
            )

    def test_ordering_precondition(self, ctx_eighths):
        with pytest.raises(OrderingError):
            construct_gibbs_stochastic(
                ProbVec(ctx_eighths.gibbs.p), ProbVec([1.0, 0.0, 0.0]), ctx_eighths, 8
            )

    def test_approximation_error_reported(self):
        # boundary pair plus a crude rationalisation: embedded check must fail loudly
        ctx = GibbsContext(EnergySpectrum([0.0, 0.37]), 1.0)
        x = ProbVec([0.6, 0.4])
        y = ProbVec(x.p.copy())
        y = ProbVec((ctx.gibbs.p * 1e-9 + y.p) / (1 + 1e-9))
        try:
            construct_gibbs_stochastic(x, y, ctx, 2)
        except ApproximationError as exc:
            assert exc.approx_error > 0
        # success is also acceptable; the contract only fixes the failure mode


class TestLPOracle:
    def test_worked_pair_infeasible(self, ctx_012):
        assert not feasibility_lp_oracle(UNIFORM3, Y3, ctx_012.gibbs)

    def test_identity_feasible(self, ctx_012):
        g = ProbVec(ctx_012.gibbs.p)
        assert feasibility_lp_oracle(g, g, ctx_012.gibbs)

    def test_agrees_with_curve_decider(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 5))
            ctx = random_context(rng, n)
            x = random_prob_vec(rng, n)
            if rng.uniform() < 0.5:
                y = random_prob_vec(rng, n)
            else:
                y = ProbVec(random_gibbs_stochastic(rng, ctx).entries @ x.p)
            assert thermo_majorizes(x, y, ctx) == feasibility_lp_oracle(x, y, ctx.gibbs)


class TestBathModel:
    def test_exact_reproduction_two_level(self, ctx_halves):
        g = ctx_halves.gibbs.p
        lam = 0.5
        target = StochasticMatrix((1 - lam) * np.eye(2) + lam * np.outer(g, np.ones(2)))
        for g_e in (6, 60, 600):
            induced, residual = bath_model_simulate(target, ctx_halves, g_e)
            assert residual <= 1e-12

    def test_identity_target(self):
        ctx = GibbsContext(EnergySpectrum([0.0, 0.2, 0.4]), 1.0)
        induced, residual = bath_model_simulate(StochasticMatrix(np.eye(3)), ctx, 100)
        assert residual == 0.0
        np.testing.assert_array_equal(induced.entries, np.eye(3))

    def test_residual_bound_and_decrease(self, rng):
        for _ in range(20):
            spread = rng.uniform(0.1, 0.45)
            ctx = GibbsContext(
                EnergySpectrum([0.0, spread * rng.uniform(0.3, 1.0), spread]),
                rng.uniform(0.2, 2.0),
            )
            target = random_gibbs_stochastic(rng, ctx)
            residuals = []
            for g_e in (100, 1000, 10_000):
                induced, residual = bath_model_simulate(target, ctx, g_e)
                assert residual <= 3 / g_e
                residuals.append(residual)
                # exactly Gibbs-stochastic for the rounded thermal vector
                d = np.rint(g_e * np.exp(-ctx.beta * ctx.spectrum.energies))
                rounded = ProbVec(d / d.sum())
                assert induced.fixes(rounded, tol=1e-12)
            assert residuals[2] <= residuals[0] + 1e-12

    def test_rejects_non_gibbs_target(self, ctx_halves):
        with pytest.raises(InvalidInputError):
            bath_model_simulate(StochasticMatrix([[0.0, 1.0], [1.0, 0.0]]), ctx_halves, 100)

    def test_scale_too_small(self):
        ctx = GibbsContext(EnergySpectrum([0.0, 8.0]), 1.0)
        target = StochasticMatrix(np.eye(2))
        with pytest.raises(ResolutionError):
            bath_model_simulate(target, ctx, 10)


def _half_thermalising(n):
    """Energies linspace(0, 1, n) at beta = 1 and the target I/2 + g 1^T / 2."""
    ctx = GibbsContext(EnergySpectrum(np.linspace(0.0, 1.0, n)), 1.0)
    g = ctx.gibbs.p
    return ctx, StochasticMatrix(0.5 * np.eye(n) + 0.5 * np.outer(g, np.ones(n)))


class TestBathRounding:
    # 1e6, 1e10 and 1e12 include scales at which a marginal-rebalancing LP
    # plus a cycle walk with an absolute 1e-9 returned residuals of
    # 0.075 (n = 24), 0.25 (n = 3) and 0.90 (n = 8)
    SCALES = [10**k for k in range(2, 16)] + [2**52, GE_CAP - 1]

    @pytest.mark.parametrize("n", [3, 8, 24])
    def test_exact_at_every_scale(self, n):
        ctx, target = _half_thermalising(n)
        e = ctx.spectrum.energies
        for g_e in self.SCALES:
            d = np.rint(g_e * np.exp(-ctx.beta * (e - e.min()))).astype(np.int64)
            real = target.entries * d[None, :]
            counts = _round_transport(real, d)
            np.testing.assert_array_equal(counts.sum(axis=0), d)
            np.testing.assert_array_equal(counts.sum(axis=1), d)
            assert np.all((counts == np.floor(real)) | (counts == np.floor(real) + 1))
            # in exact arithmetic: within one unit of G_ij d_j, up to the
            # rounding of the float product (below 2^-53 d_j)
            for i in range(n):
                for j in range(n):
                    exact = Fraction(float(target.entries[i, j])) * int(d[j])
                    assert abs(int(counts[i, j]) - exact) < 1 + Fraction(int(d[j]), 2**53)
            induced, residual = bath_model_simulate(target, ctx, g_e)
            assert induced.fixes(ProbVec(d / d.sum()), tol=1e-12)
            assert residual <= float(np.max(1.0 / d)) + 2.0**-52

    def test_large_n_is_fast(self):
        ctx, target = _half_thermalising(256)
        start = time.perf_counter()
        _, residual = bath_model_simulate(target, ctx, 1000)
        assert time.perf_counter() - start < 1.0
        assert residual <= math.e / 1000

    def test_scale_cap(self, ctx_halves):
        target = StochasticMatrix(np.eye(2))
        with pytest.raises(InvalidInputError):
            bath_model_simulate(target, ctx_halves, GE_CAP)
        assert bath_model_simulate(target, ctx_halves, GE_CAP - 1)[1] == 0.0

    @pytest.mark.parametrize("column_scale, shift", [(1 + 4e-10, 0.0), (1.0, 1e-9)])
    def test_target_off_by_more_than_the_resolution(self, ctx_halves, column_scale, shift):
        # column sums 1 + 2e-10, or a fixed point off by 5e-10: both pass
        # validation, but at gE = 1e12 they put the column sums (or the row
        # sums) of G diag(d) hundreds of bath states away from d
        g = ctx_halves.gibbs.p
        mix = np.outer(g + [shift, -shift], [1.0, 1.0]) * column_scale
        target = StochasticMatrix(0.5 * np.eye(2) + 0.5 * mix)
        with pytest.raises(ResolutionError):
            bath_model_simulate(target, ctx_halves, 10**12)
