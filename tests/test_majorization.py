import numpy as np
import pytest
from hypothesis import given, strategies as st

from thermops.core import ProbVec
from thermops.errors import DimensionMismatchError, OrderingError, UnboundedRateError
from thermops.majorization import (
    TTransform,
    asymptotic_rate,
    compose_transforms,
    hlp_construct,
    lorenz_curve,
    majorizes,
    shannon_entropy,
)
from thermops.divergences import renyi_entropy
from thermops.sampling import random_doubly_stochastic


def dirichlet_pair(rng, n):
    x = ProbVec(rng.dirichlet(np.ones(n)))
    y = ProbVec(random_doubly_stochastic(rng, n) @ x.p)
    return x, y


prob_vectors = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)
).map(lambda w: ProbVec(np.asarray(w) / np.sum(w)))


class TestLorenzCurve:
    def test_sharp_state(self):
        c = lorenz_curve(ProbVec([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(c.points, [[0, 0], [1, 1], [2, 1], [3, 1]])

    def test_uniform_is_straight(self):
        c = lorenz_curve(ProbVec([1 / 3] * 3))
        np.testing.assert_allclose(c.y, [0, 1 / 3, 2 / 3, 1], atol=1e-15)

    def test_worked_example(self):
        c = lorenz_curve(ProbVec([2 / 3, 1 / 6, 1 / 6]))
        np.testing.assert_allclose(c.y, [0, 2 / 3, 5 / 6, 1], atol=1e-15)


class TestMajorizes:
    def test_sharp_beats_everything(self):
        assert majorizes(ProbVec([1, 0, 0]), ProbVec([0.2, 0.5, 0.3]))

    def test_incomparable_pair(self):
        y = ProbVec([2 / 3, 1 / 6, 1 / 6])
        z = ProbVec([1 / 2, 1 / 2, 0.0])
        assert not majorizes(y, z)
        assert not majorizes(z, y)

    def test_reflexive(self):
        x = ProbVec([0.4, 0.35, 0.25])
        assert majorizes(x, x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            majorizes(ProbVec([1.0]), ProbVec([0.5, 0.5]))

    def test_transitive_on_random_triples(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 6))
            x = ProbVec(rng.dirichlet(np.ones(n)))
            y = ProbVec(random_doubly_stochastic(rng, n) @ x.p)
            z = ProbVec(random_doubly_stochastic(rng, n) @ y.p)
            assert majorizes(x, y) and majorizes(y, z) and majorizes(x, z)

    def test_equivalent_to_curve_domination(self, rng):
        from thermops.core import curve_dominates

        for _ in range(300):
            n = int(rng.integers(2, 7))
            x = ProbVec(rng.dirichlet(np.ones(n)))
            if rng.uniform() < 0.5:
                y = ProbVec(rng.dirichlet(np.ones(n)))
            else:
                y = ProbVec(random_doubly_stochastic(rng, n) @ x.p)
            by_sums = majorizes(x, y)
            by_curves = curve_dominates(lorenz_curve(x), lorenz_curve(y))
            assert by_sums == by_curves
            # constructive route agrees as well
            if by_sums:
                hlp_construct(x, y)
            else:
                with pytest.raises(OrderingError):
                    hlp_construct(x, y)


class TestHLPConstruct:
    def test_two_level_unique_solution(self):
        chain = hlp_construct(ProbVec([1.0, 0.0]), ProbVec([0.7, 0.3]))
        assert len(chain) == 1
        assert chain[0] == TTransform(0, 1, 0.7)
        np.testing.assert_allclose(chain.matrix(), [[0.7, 0.3], [0.3, 0.7]], atol=1e-15)

    def test_identity(self):
        x = ProbVec([0.5, 0.3, 0.2])
        chain = hlp_construct(x, x)
        assert len(chain) == 0
        np.testing.assert_array_equal(chain.matrix(), np.eye(3))

    def test_precondition_enforced(self):
        with pytest.raises(OrderingError):
            hlp_construct(ProbVec([0.5, 0.5]), ProbVec([1.0, 0.0]))

    def test_random_pairs(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 7))
            x, y = dirichlet_pair(rng, n)
            chain = hlp_construct(x, y)
            assert len(chain) <= n - 1
            b = chain.matrix()
            np.testing.assert_allclose(b @ x.p, y.p, atol=1e-9)
            np.testing.assert_allclose(b.sum(axis=0), 1.0, atol=1e-10)
            np.testing.assert_allclose(b.sum(axis=1), 1.0, atol=1e-10)
            np.testing.assert_allclose(chain.apply(x.p), y.p, atol=1e-9)

    def test_compose_matches_matrix_product(self):
        ts = [TTransform(0, 2, 0.4), TTransform(1, 3, 0.9), TTransform(0, 1, 0.1)]
        dense = [
            np.array([[0.4, 0, 0.6, 0], [0, 1, 0, 0], [0.6, 0, 0.4, 0], [0, 0, 0, 1]]),
            np.array([[1, 0, 0, 0], [0, 0.9, 0, 0.1], [0, 0, 1, 0], [0, 0.1, 0, 0.9]]),
            np.array([[0.1, 0.9, 0, 0], [0.9, 0.1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        ]
        np.testing.assert_allclose(compose_transforms(ts, 4), dense[2] @ dense[1] @ dense[0], atol=1e-15)


class TestSchurMonotonicity:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, float("inf")])
    def test_renyi_entropy_increases_under_mixing(self, rng, alpha):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            x = ProbVec(rng.dirichlet(np.ones(n)))
            bx = ProbVec(random_doubly_stochastic(rng, n) @ x.p)
            assert renyi_entropy(bx, alpha) >= renyi_entropy(x, alpha) - 1e-9


class TestAsymptoticRate:
    def test_equal_inputs(self):
        x = ProbVec([0.9, 0.1])
        assert asymptotic_rate(x, x) == pytest.approx(1.0)

    def test_two_level_formula(self):
        x, y = ProbVec([1.0, 0.0]), ProbVec([0.9, 0.1])
        expected = np.log(2) / (np.log(2) - shannon_entropy(y))
        assert asymptotic_rate(x, y) == pytest.approx(expected, abs=1e-12)

    def test_uniform_source_gives_zero(self):
        assert asymptotic_rate(ProbVec([0.5, 0.5]), ProbVec([0.9, 0.1])) == 0.0

    def test_uniform_target_diverges(self):
        with pytest.raises(UnboundedRateError):
            asymptotic_rate(ProbVec([0.9, 0.1]), ProbVec([0.5, 0.5]))


@given(prob_vectors)
def test_lorenz_curve_concave_and_normalised(x):
    c = lorenz_curve(x)
    slopes = np.diff(c.y) / np.diff(c.x)
    assert np.all(np.diff(slopes) <= 1e-12)
    assert c.end() == (float(len(x)), pytest.approx(1.0))
