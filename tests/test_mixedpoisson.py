"""Mixed-Poisson pmf construction against independent references."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc, gammaln, poch
from scipy.stats import poisson

from rigclust import (
    Degenerate,
    DomainError,
    Finite,
    MixingSpec,
    ModelParams,
    Pareto,
    Pmf,
    mixing_spec,
    pmf_mixed_poisson,
    pmf_offspring,
    sample_biased,
)
from rigclust.mixedpoisson import _log_factorials, _poisson_upper_tail


def pareto_mixture_entry(x_min: float, alpha: float, scale: float, s: int) -> float:
    """P(S = s) for Poisson mixed over a scaled Pareto rate, closed form.

    The mixing rate is scale * Z with Z ~ Pareto(x_min, alpha), i.e. a Pareto
    law on [z0, inf) with z0 = scale * x_min.  Integration gives, for s > alpha,
        P(S=s) = alpha z0^alpha Gamma(s-alpha) Q(s-alpha, z0) / s!
    with Q the regularized upper incomplete gamma.  Smaller s fall back to
    numerical quadrature of the defining integral in u = log(rate / z0), where
    the integrand alpha z0^s e^((s - alpha) u - z0 e^u) / s! is smooth however
    small z0 is.
    """
    z0 = scale * x_min
    if s > alpha + 1:
        log_val = (math.log(alpha) + alpha * math.log(z0)
                   + gammaln(s - alpha) - gammaln(s + 1))
        return math.exp(log_val) * gammaincc(s - alpha, z0)
    peak = max(math.log(max(s - alpha, 1.0) / z0), 0.0)
    val, _ = quad(lambda u: math.exp((s - alpha) * u - z0 * math.exp(u)),
                  0.0, peak + 40.0, points=[peak], limit=200, epsabs=0.0, epsrel=1e-13)
    return val * math.exp(math.log(alpha) + s * math.log(z0) - gammaln(s + 1))


# ---------------------------------------------------------------------------
# Exact references
# ---------------------------------------------------------------------------

def test_degenerate_mixing_is_poisson():
    for lam in (0.5, 3.0, 17.3):
        spec = MixingSpec(Degenerate(lam), scale=1.0)
        res = pmf_mixed_poisson(spec, k_max=256)
        expect = poisson.pmf(np.arange(257), lam)
        assert np.max(np.abs(res.mass - expect)) < 1e-12
        assert res.tail_mass == pytest.approx(float(poisson.sf(256, lam)), abs=1e-12)


def test_degenerate_mixing_any_bias_order_is_same_poisson():
    # Size-biasing a point mass changes nothing, for every order.
    for r in range(4):
        spec = MixingSpec(Degenerate(2.0), scale=1.5, bias_order=r)
        res = pmf_mixed_poisson(spec, k_max=128)
        expect = poisson.pmf(np.arange(129), 3.0)
        assert np.max(np.abs(res.mass - expect)) < 1e-12


def test_finite_mixing_is_poisson_mixture():
    law = Finite(((1.0, 0.3), (2.5, 0.7)))
    spec = MixingSpec(law, scale=2.0)
    res = pmf_mixed_poisson(spec, k_max=128)
    grid = np.arange(129)
    expect = 0.3 * poisson.pmf(grid, 2.0) + 0.7 * poisson.pmf(grid, 5.0)
    assert np.max(np.abs(res.mass - expect)) < 1e-12


def test_finite_mixing_with_bias_reweights_atoms():
    law = Finite(((1.0, 0.5), (3.0, 0.5)))
    spec = MixingSpec(law, scale=1.0, bias_order=1)
    res = pmf_mixed_poisson(spec, k_max=64)
    grid = np.arange(65)
    expect = 0.25 * poisson.pmf(grid, 1.0) + 0.75 * poisson.pmf(grid, 3.0)
    assert np.max(np.abs(res.mass - expect)) < 1e-12


def test_rate_zero_atom_collapses_to_origin():
    res = pmf_mixed_poisson(MixingSpec(Degenerate(0.0), scale=1.0), k_max=16)
    assert res.mass[0] == pytest.approx(1.0)
    assert float(res.mass[1:].sum()) == 0.0


def test_pareto_mixing_matches_incomplete_gamma():
    # x_min = 1e-20 puts the rate threshold far below the series/fraction switch.
    for x_min, alpha, scale in ((1.0, 6.0, 1.2), (1.0, 7.0, 0.9), (1.0, 5.5, 2.0),
                                (1e-20, 7.0, 1.2)):
        spec = MixingSpec(Pareto(x_min, alpha), scale=scale)
        res = pmf_mixed_poisson(spec, k_max=512)
        ss = np.concatenate([np.arange(0, 40), np.arange(40, 513, 13)])
        for s in ss:
            expect = pareto_mixture_entry(x_min, alpha, scale, int(s))
            if expect > 1e-280:
                assert res.mass[s] == pytest.approx(expect, rel=2e-9), s


def test_pareto_mixing_biased_matches_reduced_index():
    # Order-r bias of a Pareto mixture equals the plain mixture with the
    # index lowered by r (same threshold).
    base = Pareto(1.0, 7.0)
    spec_b = MixingSpec(base, scale=1.1, bias_order=2)
    spec_r = MixingSpec(Pareto(1.0, 5.0), scale=1.1)
    pb = pmf_mixed_poisson(spec_b, k_max=256)
    pr = pmf_mixed_poisson(spec_r, k_max=256)
    assert np.max(np.abs(pb.mass - pr.mass)) < 1e-13
    assert pb.tail_mass == pytest.approx(pr.tail_mass, rel=1e-9, abs=1e-15)


def test_pareto_tail_mass_matches_quadrature():
    # Small grid so the tail is macroscopic and easy to integrate directly.
    alpha, scale, k_max = 6.0, 1.2, 64
    spec = MixingSpec(Pareto(1.0, alpha), scale=scale)
    res = pmf_mixed_poisson(spec, k_max=k_max)
    z0 = scale
    integrand = (lambda lam: float(poisson.sf(k_max, lam))
                 * alpha * z0**alpha * lam ** (-alpha - 1))
    inner, _ = quad(integrand, z0, 4.0 * k_max, points=[k_max], limit=200)
    outer, _ = quad(integrand, 4.0 * k_max, np.inf)
    assert res.tail_mass == pytest.approx(inner + outer, rel=1e-7)


def test_pareto_tail_lo_is_the_tail_integral_less_its_error():
    # The same law as above: the lower bound sits just under the upper one,
    # so nearly all of the off-grid mass is located.
    spec = MixingSpec(Pareto(1.0, 6.0), scale=1.2)
    res = pmf_mixed_poisson(spec, k_max=64)
    assert 0.0 < res.tail_mass - res.tail_lo <= 1e-5 * res.tail_mass


@pytest.mark.parametrize("k_max, rate", [(1, 1e-3), (1, 30.0), (16, 2.0), (64, 60.0),
                                         (64, 64.0), (64, 200.0), (1024, 900.0)])
def test_degenerate_tail_bounds_bracket_poisson_sf(k_max, rate):
    # Both ends are the tail series widened by its relative error margin.
    res = pmf_mixed_poisson(MixingSpec(Degenerate(rate), scale=1.0), k_max=k_max)
    sf = float(poisson.sf(k_max, rate))
    assert 0.0 < res.tail_lo <= sf <= res.tail_mass


def test_normalization_band():
    for spec in (MixingSpec(Pareto(1.0, 5.5), 1.7, 3),
                  MixingSpec(Pareto(2.0, 9.0), 0.4, 0),
                  MixingSpec(Finite(((0.5, 0.5), (4.0, 0.5))), 1.0, 2)):
        res = pmf_mixed_poisson(spec, k_max=200)
        total = float(np.sum(res.mass)) + res.tail_mass
        assert abs(total - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Poisson kernels: numpy against scipy.special
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k_max", [1, 11, 12, 13, 998, 999, 1000, 4096, 8192])
def test_log_factorials_equal_gammaln(k_max):
    # Bit for bit across the exact-product entries and both Stirling branches.
    assert np.array_equal(_log_factorials(k_max), gammaln(np.arange(1, k_max + 2)))


@pytest.mark.parametrize("k_max", [1, 2, 3, 63, 64, 128, 1024, 4096])
def test_poisson_upper_tail_matches_gammainc(k_max):
    spread = 40.0 * math.sqrt(k_max)
    rates = np.unique(np.concatenate((
        np.logspace(-300.0, 300.0, 1201),
        np.linspace(max(1e-3, k_max - spread), k_max + spread + 40.0, 801),
        [k_max, k_max + 1.0, k_max + 2.0])))
    got = _poisson_upper_tail(k_max, rates)
    # Relative error on normal doubles; below them both sides are ~zero.
    np.testing.assert_allclose(got, gammainc(k_max + 1, rates), rtol=1e-11,
                               atol=np.finfo(np.float64).tiny)
    assert got.min() >= 0.0 and got.max() <= 1.0
    assert np.all(np.diff(got) >= 0.0)


# ---------------------------------------------------------------------------
# Offspring / two-step laws
# ---------------------------------------------------------------------------

def params_pareto(alpha=7.0, gamma=6.0, beta=1.0):
    return ModelParams(100, 100, beta, Pareto(1.0, alpha), Pareto(1.0, gamma))


def offspring_by_shift(params, k_max):
    """tau = N_sb - 1 from the attribute law of N on one more entry:
    P(tau = s) = (s + 1) P(N = s + 1) / E[N], with E[N] in closed form and
    the grid's deficit as the tail."""
    base = pmf_mixed_poisson(mixing_spec(params, "attribute", 0), k_max + 1)
    mean = params.a(1) * params.b(1) / math.sqrt(params.beta)
    mass = np.arange(1, k_max + 2) * base.mass[1:] / mean
    return Pmf(mass, max(0.0, 1.0 - math.fsum(mass)))


def test_offspring_equals_first_order_biased_attribute_law():
    # The shifted/reweighted construction agrees with the order-1 biased
    # mixed Poisson in distribution, a nontrivial cross-check of both paths.
    params = params_pareto(6.0, 6.0, 1.3)
    shift = offspring_by_shift(params, k_max=512)
    direct = pmf_offspring(params, k_max=512)
    assert np.max(np.abs(shift.mass - direct.mass)) < 1e-11
    assert shift.tail_mass == pytest.approx(direct.tail_mass, abs=1e-9)


def test_offspring_poisson_fixed_point():
    # With degenerate weights the attribute law is Poisson and the offspring
    # transform leaves Poisson unchanged.
    params = ModelParams(10, 10, 4.0, Degenerate(1.5), Degenerate(2.0))
    res = pmf_offspring(params, k_max=128)
    lam = 1.5 * 2.0 / 2.0  # x0 * b1 / sqrt(beta)
    expect = poisson.pmf(np.arange(129), lam)
    assert np.max(np.abs(res.mass - expect)) < 1e-12


def test_offspring_mean_shift_identity():
    # E[offspring] = E[Lambda^(1)] - ... the reweighting sends mean s+1 terms;
    # verify against the biased law's mean rather than a closed form.
    params = params_pareto()
    shift = offspring_by_shift(params, k_max=1024)
    direct = pmf_offspring(params, k_max=1024)
    assert shift.mean() == pytest.approx(direct.mean(), rel=1e-8)


def test_mixing_spec_roles():
    params = params_pareto(7.0, 6.0, 4.0)
    actor = mixing_spec(params, "actor", 1)
    attr = mixing_spec(params, "attribute", 2)
    # Actor role: rate scale sqrt(beta) * E[X]; attribute: E[Y] / sqrt(beta).
    assert actor.scale == pytest.approx(2.0 * 7.0 / 6.0)
    assert attr.scale == pytest.approx(1.2 / 2.0)
    assert isinstance(actor.weight_law, Pareto)
    assert actor.weight_law.tail_index == 6.0  # actor role mixes over Y
    assert attr.weight_law.tail_index == 7.0
    with pytest.raises(ValueError):
        mixing_spec(params, "edge", 0)


@pytest.mark.parametrize("role", ["actor", "attribute"])
@pytest.mark.parametrize("side", ["x", "y"])
def test_mixing_spec_needs_weight_on_both_sides(role, side):
    # With X or Y at zero no actor meets an attribute: either role's law is
    # outside the theory's domain, whichever side is degenerate.
    laws = {"x": Pareto(1.0, 7.0), "y": Pareto(1.0, 6.0)}
    laws[side] = Degenerate(0.0)
    params = ModelParams(100, 100, 1.0, laws["x"], laws["y"])
    with pytest.raises(DomainError, match=re.escape(
            "offspring law undefined: E[N] = 0 (a weight law is degenerate at zero)")):
        mixing_spec(params, role, 1)


# ---------------------------------------------------------------------------
# Monte Carlo cross-checks
# ---------------------------------------------------------------------------

def tv_distance(pmf: Pmf, draws: np.ndarray) -> float:
    counts = np.bincount(draws, minlength=pmf.k_max + 1).astype(float)
    inside = counts[: pmf.k_max + 1] / draws.size
    overflow = float(counts[pmf.k_max + 1:].sum()) / draws.size
    return 0.5 * (float(np.abs(pmf.mass - inside).sum())
                  + abs(pmf.tail_mass - overflow))


def test_sample_biased_matches_pmf():
    spec = MixingSpec(Pareto(1.0, 6.0), scale=1.2, bias_order=2)
    res = pmf_mixed_poisson(spec, k_max=512)
    rng = np.random.default_rng(42)
    draws = sample_biased(spec, rng, 200_000)
    assert draws.dtype == np.int64
    assert tv_distance(res, draws) < 8e-3


def test_sample_biased_scalar():
    spec = MixingSpec(Degenerate(2.0), scale=1.0)
    rng = np.random.default_rng(0)
    val = sample_biased(spec, rng)
    assert isinstance(val, int)


# ---------------------------------------------------------------------------
# Pmf carrier
# ---------------------------------------------------------------------------

def test_pmf_point_and_mean():
    p = Pmf.point(3, k_max=8)
    assert p.mass[3] == 1.0
    assert p.mean() == pytest.approx(3.0)
    assert p.k_max == 8
    assert Pmf.point(0).k_max == 0


@pytest.mark.parametrize("k, k_max", [(-1, 5), (-1, None), (6, 5)])
def test_pmf_point_outside_grid(k, k_max):
    # A negative k must not wrap round to the end of the grid.
    with pytest.raises(ValueError, match="point outside grid"):
        Pmf.point(k, k_max=k_max)


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValueError):
        Pmf(np.array([0.5, 0.1]))  # mass + tail far from one
    with pytest.raises(ValueError):
        Pmf(np.array([[0.5], [0.5]]))
    with pytest.raises(ValueError):
        Pmf(np.array([0.9, 0.1]), tail_mass=-1e-3)
    p = Pmf(np.array([0.25, 0.25]), tail_mass=0.5)
    with pytest.raises(ValueError):
        p.mass[0] = 1.0  # frozen storage


def test_pmf_tail_lo_validation():
    p = Pmf(np.array([0.25, 0.25]), tail_mass=0.5, tail_lo=0.5)
    assert p.tail_lo == 0.5 and Pmf(np.array([0.5, 0.5])).tail_lo == 0.0
    with pytest.raises(ValueError, match="tail_lo"):
        Pmf(np.array([0.25, 0.25]), tail_mass=0.5, tail_lo=-1e-12)
    with pytest.raises(ValueError, match="tail_lo"):
        Pmf(np.array([0.25, 0.25]), tail_mass=0.5, tail_lo=0.5 + 1e-12)


def test_grid_is_the_one_asked_for():
    # A heavy mixture on a tiny grid is not extended: the entries equal the
    # head of a long build, and tail_mass bounds all the mass beyond.
    spec = MixingSpec(Pareto(1.0, 5.5), scale=3.0, bias_order=3)
    short = pmf_mixed_poisson(spec, k_max=8)
    long = pmf_mixed_poisson(spec, k_max=512)
    assert short.mass.size == 9
    assert np.allclose(short.mass, long.mass[:9], rtol=0.0, atol=1e-10)
    assert short.tail_mass >= math.fsum(long.mass[9:])


def test_overflowing_density_at_x_min_is_a_domain_error():
    # The closed form needs the rate threshold scale * x_min as a positive
    # double: one DomainError where it overflows or underflows to 0.  A tiny
    # x_min with the threshold in range builds at every order, order 0 too.
    for x_min, scale in ((1e300, 1e10), (1e-300, 1e-30)):
        with pytest.raises(DomainError, match=r"^weight scale out of range: scale \* x_min = "
                                              r".* is 0 or infinite in double precision$"):
            pmf_mixed_poisson(MixingSpec(Pareto(x_min, 7.0), scale), 512)
    for r in range(4):
        built = pmf_mixed_poisson(MixingSpec(Pareto(1e-40, 7.0), 1.2, r), 512)
        assert np.all(np.isfinite(built.mass))


def test_scale_validation():
    with pytest.raises(ValueError):
        MixingSpec(Pareto(1.0, 6.0), scale=0.0)
    with pytest.raises(Exception):
        MixingSpec(Pareto(1.0, 6.0), scale=1.0, bias_order=6)  # moment blows up


# ---------------------------------------------------------------------------
# Closed form of Pareto mixtures
# ---------------------------------------------------------------------------

def gamma_ratio(s: int, b: float) -> float:
    """Gamma(s - b) / Gamma(s + 1) for s > b, to a few ulp: scipy's ``poch``
    at arguments past 1e4, where it sums an asymptotic series instead of
    taking the difference of two log-gammas, times the factors of the shift
    summed as logs."""
    y, m = s + 1.0, -b - 1.0
    shift = max(0, 10_002 - s)
    return poch(y + shift, m) * math.exp(-math.fsum(np.log1p(m / (y + np.arange(shift)))))


def pareto_mass(x_min: float, alpha: float, scale: float, s: int) -> float:
    """:func:`pareto_mixture_entry` with the gamma ratio of :func:`gamma_ratio`
    for s > alpha + 1: its difference of ``gammaln`` values is off by up to
    1.2e-11 relative at s near 4096 (against 40-digit values)."""
    if s <= alpha + 1:
        return pareto_mixture_entry(x_min, alpha, scale, s)
    z0 = scale * x_min
    return alpha * z0**alpha * gamma_ratio(s, alpha) * gammaincc(s - alpha, z0)


#: (x_min, alpha, scale): integer tail indices, indices 1e-7 off an integer,
#: rate thresholds on both sides of the switch at 2, near 1e-40 and at 50.
CLOSED_FORM_LAWS = [(1.0, 7.0, 1.2), (2.0, 6.0, 2.4), (1.0, 6.0 + 1e-7, 1.0),
                    (1.0, 6.0 - 1e-7, 1.0), (1.0, 7.0, 1.99), (1.0, 7.0, 2.0),
                    (1.0, 7.0, 2.01), (1e-40, 7.0, 1.2), (1.0, 6.6, 50.0)]


@pytest.mark.parametrize("k_max", [64, 4096])
@pytest.mark.parametrize("x_min, alpha, scale", CLOSED_FORM_LAWS)
def test_pareto_masses_match_the_incomplete_gamma_to_rounding(x_min, alpha, scale, k_max):
    step = max(1, k_max // 64)
    ss = sorted(set(range(40)) | set(range(40, k_max + 1, step)) | {k_max})
    for r in range(4):
        res = pmf_mixed_poisson(MixingSpec(Pareto(x_min, alpha), scale, r), k_max)
        for s in ss:
            expect = pareto_mass(x_min, alpha - r, scale, s)
            if expect > 1e-280:
                assert res.mass[s] == pytest.approx(expect, rel=1e-12, abs=0.0), (r, s)


@pytest.mark.parametrize("k_max", [64, 4096, 65536])
@pytest.mark.parametrize("x_min, alpha, scale", CLOSED_FORM_LAWS)
def test_pareto_tail_bounds_bracket_the_exact_tail(x_min, alpha, scale, k_max):
    # P(S > K) = P(Poisson(z) > K) + z**a Gamma(K + 1 - a, z) / K!, with z =
    # scale * x_min and a the tail index of the order-r law.  The relative
    # margin covers tails above 1e-300, the absolute slack subnormal ones.
    z = scale * x_min
    for r in range(4):
        res = pmf_mixed_poisson(MixingSpec(Pareto(x_min, alpha), scale, r), k_max)
        a = alpha - r
        exact = (float(poisson.sf(k_max, z))
                 + z**a * gamma_ratio(k_max, a - 1.0) * gammaincc(k_max + 1 - a, z))
        assert res.tail_lo <= exact <= res.tail_mass, r
        assert abs(math.fsum(res.mass) + res.tail_mass - 1.0) <= 1e-12


def test_subnormal_tail_is_bracketed():
    # The order-0 tail past 65,536 of Pareto(1e-40, 7) at scale 1.2 is
    # 6.903166931e-314 (a 60-digit mpmath sum).  The masses there are
    # subnormal and carry few digits: the relative margin alone puts tail_lo
    # at 6.9031738583e-314, above it.
    res = pmf_mixed_poisson(MixingSpec(Pareto(1e-40, 7.0), 1.2), 65536)
    assert res.tail_lo <= 6.903166931e-314 <= res.tail_mass
