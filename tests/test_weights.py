"""Weight-law moments, tails, sampling, size-biasing, validation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from rigclust import Degenerate, Finite, InfiniteMomentError, Pareto


def pareto_moment_quad(x_min: float, alpha: float, r: int) -> float:
    """Numerical r-th moment of a Pareto law, independent of the package."""
    val, err = quad(lambda x: x**r * alpha * x_min**alpha * x ** (-alpha - 1),
                    x_min, np.inf)
    assert err < 1e-7 * abs(val)
    return val


def pareto_truncated_quad(x_min: float, alpha: float, r: int, t: float) -> float:
    lo = max(t, x_min)
    val, _ = quad(lambda x: x**r * alpha * x_min**alpha * x ** (-alpha - 1),
                  lo, np.inf)
    return val


# ---------------------------------------------------------------------------
# Pareto
# ---------------------------------------------------------------------------

def test_pareto_frozen_values():
    law = Pareto(1.0, 6.0)
    assert law.moment(1) == pytest.approx(1.2, rel=1e-14)
    assert law.moment(2) == pytest.approx(1.5, rel=1e-14)
    assert law.tail(2.0) == pytest.approx(0.015625, rel=1e-14)


def test_pareto_moments_match_quadrature():
    for x_min in (1.0, 2.3):
        for alpha in (5.5, 6.0, 9.0):
            law = Pareto(x_min, alpha)
            for r in range(4):
                assert law.moment(r) == pytest.approx(
                    pareto_moment_quad(x_min, alpha, r), rel=1e-7)


def test_pareto_near_critical_moments_match_quadrature():
    # tail_index - r < 0.1 takes the log-space branch.
    law = Pareto(2.0, 4.05)
    assert law.moment(4) == pytest.approx(pareto_truncated_quad(2.0, 4.05, 4, 2.0), rel=1e-9)


def test_pareto_tail_properties():
    law = Pareto(2.0, 7.0)
    assert law.tail(1.0) == 1.0
    assert law.tail(2.0) == 1.0
    ts = np.linspace(2.0, 50.0, 200)
    vals = [law.tail(t) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert law.tail_amplitude == pytest.approx(2.0**7.0, rel=1e-14)


def test_pareto_infinite_moment_raises():
    law = Pareto(1.0, 6.0)
    with pytest.raises(InfiniteMomentError):
        law.moment(6)
    with pytest.raises(InfiniteMomentError):
        law.moment(7)


def test_pareto_size_biased_is_pareto_with_reduced_index():
    law = Pareto(1.3, 6.5)
    sb = law.size_biased(2)
    assert isinstance(sb, Pareto)
    assert sb.x_min == pytest.approx(1.3)
    assert sb.tail_index == pytest.approx(4.5)
    # Reweighting identity: E_sb[Z^s] = E[Z^(r+s)] / E[Z^r].
    for s in range(3):
        assert sb.moment(s) == pytest.approx(
            law.moment(2 + s) / law.moment(2), rel=1e-12)


def test_pareto_size_biased_requires_finite_moment():
    with pytest.raises(InfiniteMomentError):
        Pareto(1.0, 6.0).size_biased(6)


def test_pareto_sampling_matches_moments_and_tail():
    law = Pareto(1.0, 6.0)
    rng = np.random.default_rng(1234)
    draws = law.sample(rng, 400_000)
    assert draws.min() >= 1.0
    # Mean: SE = sd/sqrt(n); sd^2 = 1.5 - 1.44 = 0.06.
    se = math.sqrt((law.moment(2) - law.moment(1) ** 2) / draws.size)
    assert abs(draws.mean() - 1.2) < 5 * se
    for t in (1.5, 2.0, 4.0):
        p = law.tail(t)
        se_t = math.sqrt(p * (1 - p) / draws.size)
        assert abs(np.mean(draws > t) - p) < 5 * se_t


def test_pareto_validation():
    with pytest.raises(ValueError):
        Pareto(0.0, 6.0)
    with pytest.raises(ValueError):
        Pareto(1.0, 0.0)
    with pytest.raises(ValueError):
        Pareto(1.0, -2.0)


# ---------------------------------------------------------------------------
# Degenerate
# ---------------------------------------------------------------------------

def test_degenerate_moments_and_tail():
    law = Degenerate(2.5)
    assert law.moment(0) == 1.0
    assert law.moment(3) == pytest.approx(2.5**3)
    # tail is the strict survival P(Z > t), so the atom itself is excluded.
    assert law.tail(2.0) == 1.0
    assert law.tail(2.5) == 0.0
    assert law.tail(2.6) == 0.0


def test_degenerate_sampling_and_size_bias():
    law = Degenerate(1.7)
    rng = np.random.default_rng(0)
    assert np.all(law.sample(rng, 100) == 1.7)
    sb = law.size_biased(3)
    assert sb.moment(1) == pytest.approx(1.7)
    with pytest.raises(ValueError):
        Degenerate(-1.0)
    with pytest.raises(ValueError):
        Degenerate(0.0).size_biased(1)


# ---------------------------------------------------------------------------
# Finite
# ---------------------------------------------------------------------------

def test_finite_frozen_size_bias():
    law = Finite(((1.0, 0.5), (3.0, 0.5)))
    sb = law.size_biased(1)
    probs = dict(sb.atoms)
    assert probs[1.0] == pytest.approx(0.25)
    assert probs[3.0] == pytest.approx(0.75)


def test_finite_moments_and_tail():
    law = Finite(((1.0, 0.25), (2.0, 0.5), (4.0, 0.25)))
    assert law.moment(1) == pytest.approx(0.25 + 1.0 + 1.0)
    assert law.moment(2) == pytest.approx(0.25 + 2.0 + 4.0)
    # Strict survival: atoms sitting exactly at t fall out of the tail.
    assert law.tail(0.5) == 1.0
    assert law.tail(1.0) == pytest.approx(0.75)
    assert law.tail(1.5) == pytest.approx(0.75)
    assert law.tail(3.99) == pytest.approx(0.25)
    assert law.tail(4.0) == 0.0


def test_finite_validation():
    with pytest.raises(ValueError):
        Finite(((1.0, 0.6), (2.0, 0.6)))  # probabilities do not sum to 1
    with pytest.raises(ValueError):
        Finite(((1.0, -0.5), (2.0, 1.5)))
    with pytest.raises(ValueError):
        Finite(((-1.0, 1.0),))
    # A nan fails every comparison, and huge probabilities overflow their sum.
    for atoms in (((1.0, math.nan),), ((1.0, 0.5), (2.0, math.nan)),
                  ((1.0, 1e308), (2.0, 1e308))):
        with pytest.raises(ValueError, match="must lie in"):
            Finite(atoms)


def test_finite_sampling():
    law = Finite(((1.0, 0.5), (3.0, 0.5)))
    rng = np.random.default_rng(99)
    draws = law.sample(rng, 200_000)
    assert set(np.unique(draws)) == {1.0, 3.0}
    assert abs(np.mean(draws == 3.0) - 0.5) < 0.005


# ---------------------------------------------------------------------------
# Shared invariants (randomized over laws)
# ---------------------------------------------------------------------------

def random_laws(rng):
    laws = []
    for _ in range(12):
        laws.append(Pareto(float(rng.uniform(0.5, 3.0)),
                           float(rng.uniform(5.2, 10.0))))
    for _ in range(6):
        laws.append(Degenerate(float(rng.uniform(0.2, 4.0))))
    for _ in range(6):
        values = rng.uniform(0.2, 5.0, size=4)
        probs = rng.dirichlet([1.0] * 4)
        laws.append(Finite(tuple(zip(map(float, values), map(float, probs)))))
    return laws


def test_law_invariants():
    rng = np.random.default_rng(2024)
    for law in random_laws(rng):
        assert law.moment(0) == pytest.approx(1.0, rel=1e-12)
        # Order-zero size bias is the original law.
        sb0 = law.size_biased(0)
        for r in range(3):
            assert sb0.moment(r) == pytest.approx(law.moment(r), rel=1e-12)


def test_size_bias_moment_identity():
    rng = np.random.default_rng(7)
    for law in random_laws(rng):
        for r in (1, 2):
            try:
                sb = law.size_biased(r)
            except InfiniteMomentError:
                continue
            for s in (0, 1, 2):
                try:
                    lhs = sb.moment(s)
                    rhs = law.moment(r + s) / law.moment(r)
                except InfiniteMomentError:
                    continue
                assert lhs == pytest.approx(rhs, rel=1e-11)


def test_order_validation():
    law = Pareto(1.0, 7.0)
    with pytest.raises(ValueError):
        law.moment(-1)
    with pytest.raises(ValueError):
        law.moment(1.5)
