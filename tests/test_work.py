import math

import numpy as np
import pytest

from thermops import work
from thermops.core import EnergySpectrum, GibbsContext, ProbVec
from thermops.errors import InvalidInputError, ResolutionError
from thermops.sampling import (
    random_context,
    random_gibbs_stochastic,
    random_prob_vec,
    random_rank_deficient_vec,
)
from thermops.thermo import thermo_majorizes
from thermops.work import (
    average_work_reference,
    battery_rescaled_curve,
    w_det,
    w_det_geometric_oracle,
    w_for,
    w_for_geometric_oracle,
)


class TestClosedForms:
    def test_full_support_gives_exact_zero(self, rng, ctx_012):
        for _ in range(20):
            assert w_det(random_prob_vec(rng, 3), ctx_012) == 0.0

    def test_ground_sharp_state(self, ctx_halves):
        # -kT log g_0 with g_0 = 2/3
        val = w_det(ProbVec([1.0, 0.0]), ctx_halves)
        assert val == pytest.approx(-math.log(2 / 3), abs=1e-14)

    def test_thermal_state_both_zero(self, ctx_012):
        g = ProbVec(ctx_012.gibbs.p)
        assert w_det(g, ctx_012) == 0.0
        assert w_for(g, ctx_012) == pytest.approx(0.0, abs=1e-12)

    def test_formation_two_level_sharp(self, ctx_halves):
        assert w_for(ProbVec([1.0, 0.0]), ctx_halves) == pytest.approx(
            math.log(ctx_halves.Z), abs=1e-12
        )

    def test_cycle_irreversibility(self, rng, ctx_012):
        g = ctx_012.gibbs.p
        for _ in range(50):
            x = random_prob_vec(rng, 3)
            if np.max(np.abs(x.p - g)) < 1e-6:
                continue
            assert w_for(x, ctx_012) > w_det(x, ctx_012)

    def test_order_and_zero_iff_thermal(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            ctx = random_context(rng, n, beta_range=(0.3, 4.0))
            x = random_prob_vec(rng, n)
            assert 0.0 <= w_det(x, ctx) <= w_for(x, ctx) + 1e-12
        ctx = random_context(rng, 3, beta_range=(0.5, 2.0))
        g = ProbVec(ctx.gibbs.p)
        assert w_det(g, ctx) == 0.0 and abs(w_for(g, ctx)) <= 1e-12

    def test_monotone_under_thermal_order(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 5))
            ctx = random_context(rng, n, beta_range=(0.3, 3.0))
            x = random_rank_deficient_vec(rng, n)
            y = ProbVec(random_gibbs_stochastic(rng, ctx).entries @ x.p)
            assert thermo_majorizes(x, y, ctx)
            assert w_det(x, ctx) >= w_det(y, ctx) - 1e-9

    def test_average_reference_dominates_deterministic(self, rng, ctx_012):
        for _ in range(30):
            x = random_rank_deficient_vec(rng, 3)
            assert average_work_reference(x, ctx_012) >= w_det(x, ctx_012) - 1e-9

    def test_beta_zero_rejected(self):
        ctx = GibbsContext(EnergySpectrum([0.0, 1.0]), 0.0)
        with pytest.raises(InvalidInputError):
            w_det(ProbVec([1.0, 0.0]), ctx)


class TestBatteryCurve:
    def test_zero_gap_curves_coincide(self, rng, ctx_012):
        y = random_prob_vec(rng, 3)
        ground = battery_rescaled_curve(y, ctx_012, 0.0, excited=False)
        excited = battery_rescaled_curve(y, ctx_012, 0.0, excited=True)
        grid = np.union1d(ground.x, excited.x)
        np.testing.assert_allclose(ground.evaluate(grid), excited.evaluate(grid), atol=1e-12)

    def test_charged_thermal_state_shape(self, ctx_012):
        W = 1.3
        g = ProbVec(ctx_012.gibbs.p)
        c = battery_rescaled_curve(g, ctx_012, W, excited=True)
        knee = math.exp(-ctx_012.beta * W) * ctx_012.Z
        # straight rise to (exp(-bW) Z, 1), flat afterwards
        assert c.evaluate(knee) == pytest.approx(1.0, abs=1e-12)
        assert c.evaluate(knee / 2) == pytest.approx(0.5, abs=1e-12)
        assert c.end()[1] == pytest.approx(1.0)

    def test_compression_identity_random(self, rng):
        # the internal assertion compares both curves; run it over random data
        for _ in range(40):
            n = int(rng.integers(2, 6))
            ctx = random_context(rng, n, beta_range=(0.2, 3.0))
            y = random_prob_vec(rng, n)
            battery_rescaled_curve(y, ctx, float(rng.uniform(0, 5)), excited=True)

    def test_negative_gap_rejected(self, ctx_012):
        with pytest.raises(InvalidInputError):
            battery_rescaled_curve(ProbVec([1 / 3] * 3), ctx_012, -0.1, excited=False)


class TestGeometricOracles:
    def test_two_level_sharp(self, ctx_halves):
        x = ProbVec([1.0, 0.0])
        assert w_det_geometric_oracle(x, ctx_halves) == pytest.approx(
            w_det(x, ctx_halves), abs=1e-12
        )

    def test_full_support_zero(self, rng, ctx_012):
        x = random_prob_vec(rng, 3)
        assert abs(w_det_geometric_oracle(x, ctx_012)) <= 1e-12

    def test_rank_deficient_agreement(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 6))
            ctx = random_context(rng, n, beta_range=(0.3, 3.0))
            x = random_rank_deficient_vec(rng, n)
            assert w_det_geometric_oracle(x, ctx) == pytest.approx(w_det(x, ctx), abs=1e-12)
            assert w_for_geometric_oracle(x, ctx) == pytest.approx(w_for(x, ctx), abs=1e-12)

    def test_rank_deficient_tiny_population(self):
        # an occupied level holding 1.3e-7: a 1e-13-tolerant curve comparison
        # cannot place W nearer than ~2e-8 to this state's threshold, so the
        # oracle must read W off the breakpoints, not narrow in on it
        e = [0.0, 0.07013790514289353, 0.5014278247958112, 0.8349746530201584,
             1.2006902412674476, 1.2148231866810058, 1.5313576924471937, 1.7742329448280532]
        ctx = GibbsContext(EnergySpectrum(e), 2.045720824781952)
        x = ProbVec([0.0, 0.5305754912356256, 0.18800645427182044, 0.0, 0.0,
                     1.2712632080595195e-07, 0.022954479087020627, 0.2584634482792126])
        assert w_det_geometric_oracle(x, ctx) == pytest.approx(w_det(x, ctx), abs=1e-12)
        assert w_for_geometric_oracle(x, ctx) == pytest.approx(w_for(x, ctx), abs=1e-12)

    def test_logarithmic_predicate_calls(self, rng, monkeypatch):
        n = 64
        calls = []

        def counting(*args):
            calls.append(1)
            return thermo_majorizes(*args)

        monkeypatch.setattr(work, "thermo_majorizes", counting)
        ctx = random_context(rng, n, beta_range=(0.3, 3.0))
        for x in (random_rank_deficient_vec(rng, n), random_prob_vec(rng, n)):
            for oracle, closed in ((w_det_geometric_oracle, w_det), (w_for_geometric_oracle, w_for)):
                calls.clear()
                value = oracle(x, ctx)
                assert 0 < len(calls) <= math.ceil(math.log2(n + 2)) + 1
                assert value == pytest.approx(closed(x, ctx), abs=1e-12)

    def test_missing_flip_raises(self, ctx_012, monkeypatch):
        monkeypatch.setattr(work, "thermo_majorizes", lambda *args: True)
        with pytest.raises(ResolutionError):
            w_det_geometric_oracle(ProbVec([0.5, 0.5, 0.0]), ctx_012)
