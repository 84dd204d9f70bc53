"""Mixed-Poisson pmf construction against independent references."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc, gammaln
from scipy.stats import poisson

from rigclust import (
    Degenerate,
    DomainError,
    Finite,
    MixingSpec,
    ModelParams,
    Pareto,
    Pmf,
    QuadratureError,
    mixing_spec,
    pmf_mixed_poisson,
    pmf_mixed_poissons,
    pmf_offspring,
    sample_biased,
)
import rigclust.mixedpoisson as mp
from rigclust.mixedpoisson import _chernoff_tail, _log_factorials, _poisson_upper_tail


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
    # x_min = 1e-20 needs panels far narrower than 1e-12 near x_min.
    for x_min, alpha, scale in ((1.0, 6.0, 1.2), (1.0, 7.0, 0.9), (1.0, 5.5, 2.0),
                                (1e-20, 7.0, 1.2)):
        spec = MixingSpec(Pareto(x_min, alpha), scale=scale)
        res = pmf_mixed_poisson(spec, k_max=512, tol=1e-10)
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


def test_gauss_legendre_table_is_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(mp._GL_NODES.view(np.int64), nodes.view(np.int64))
    assert np.array_equal(mp._GL_WEIGHTS.view(np.int64), weights.view(np.int64))
    assert not mp._GL_NODES.flags.writeable and not mp._GL_WEIGHTS.flags.writeable


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


def test_pareto_tail_lo_covers_the_error_estimate(monkeypatch):
    # Inflate the halves' Poisson tails against their parent's: the tail
    # integral comes out 1e-6 too high, the panel error estimate sees the
    # disagreement, and tail_lo must stay below the true off-grid mass.
    spec = MixingSpec(Pareto(1.0, 6.0), scale=1.2, bias_order=1)
    exact = pmf_mixed_poisson(spec, k_max=16, tol=1e-4)
    tail = mp._poisson_upper_tail

    def inflated(k_max, rates):
        out = tail(k_max, rates)
        out[mp._GL_NODES.size:] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(mp, "_poisson_upper_tail", inflated)
    skewed = pmf_mixed_poisson(spec, k_max=16, tol=1e-4)
    assert skewed.tail_mass > exact.tail_mass * (1.0 + 0.5e-6)
    assert skewed.tail_lo <= exact.tail_mass


def test_pareto_cut_mass_is_located_by_the_poisson_tail_at_the_cut(monkeypatch):
    # The mixing mass past the weight cut counts in tail_lo only times a
    # lower bound on the Poisson tail at the cut, so a zero bound takes it
    # out again while tail_mass keeps it.
    spec = MixingSpec(Pareto(1.0, 6.0), scale=1.2, bias_order=1)
    located = pmf_mixed_poisson(spec, k_max=16)
    monkeypatch.setattr(mp, "_chernoff_tail", lambda k_max, rate: 0.0)
    unlocated = pmf_mixed_poisson(spec, k_max=16)
    assert unlocated.tail_mass == located.tail_mass
    assert unlocated.tail_lo < located.tail_lo


@pytest.mark.parametrize("k_max", [1, 2, 16, 64, 1024])
def test_chernoff_tail_is_a_lower_bound(k_max):
    rates = k_max + np.array([-0.5, 0.0, 1.0, 3.0 * math.sqrt(k_max), 8.0 * math.sqrt(k_max + 1)
                              + 16.0, 10.0 * k_max + 40.0])
    for rate in rates[rates > 0]:
        got = _chernoff_tail(k_max, float(rate))
        assert 0.0 <= got <= float(poisson.sf(k_max, rate)), rate
    # Past the ridge cut of the quadrature the bound is close to one.
    assert _chernoff_tail(k_max, k_max + 8.0 * math.sqrt(k_max + 1) + 16.0) > 1.0 - 1e-9


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
    # (1e-40)**-8 overflows at bias order 0: one DomainError before any
    # panel, not NaN panels.  Order 1 (x_min**-7) still builds.
    with pytest.raises(DomainError, match=r"^weight scale out of range: the order-0 "
                                          r"Pareto density overflows at x_min = 1e-40$"):
        pmf_mixed_poisson(MixingSpec(Pareto(1e-40, 7.0), 1.2), 512)
    built = pmf_mixed_poisson(MixingSpec(Pareto(1e-40, 7.0), 1.2, 1), 512)
    assert np.all(np.isfinite(built.mass))


def test_scale_validation():
    with pytest.raises(ValueError):
        MixingSpec(Pareto(1.0, 6.0), scale=0.0)
    with pytest.raises(Exception):
        MixingSpec(Pareto(1.0, 6.0), scale=1.0, bias_order=6)  # moment blows up


# ---------------------------------------------------------------------------
# Lockstep quadrature of several laws
# ---------------------------------------------------------------------------

def lockstep_specs(params, role, orders):
    return [mixing_spec(params, role, r) for r in orders]


@pytest.mark.parametrize("k_max", [64, 256, 1024, 4096])
@pytest.mark.parametrize("laws", [(Pareto(2.0, 7.0), Pareto(2.0, 6.0)),
                                  (Pareto(1.0, 9.0), Pareto(1.0, 5.5))],
                         ids=["pareto(2,7)/(2,6)", "pareto(1,9)/(1,5.5)"])
def test_batched_laws_equal_laws_alone(laws, k_max):
    # The two weight sides of LimitLaws: orders 1, 2 and 3, and orders 1 and
    # 2.  Sharing kernel blocks and tail evaluations between them moves no
    # bit of any mass or tail.
    params = ModelParams(100, 100, 1.0, *laws)
    for specs in (lockstep_specs(params, "attribute", (1, 2, 3)),
                  lockstep_specs(params, "actor", (1, 2))):
        for spec, got in zip(specs, pmf_mixed_poissons(specs, k_max)):
            alone = pmf_mixed_poisson(spec, k_max)
            assert np.array_equal(got.mass, alone.mass)
            assert got.tail_mass == alone.tail_mass


def test_batched_laws_out_of_order():
    # Orders in no particular sequence, one law twice.
    params = params_pareto(6.6, 5.1, 1.3)
    specs = lockstep_specs(params, "attribute", (2, 0, 3, 2, 1))
    for spec, got in zip(specs, pmf_mixed_poissons(specs, 300)):
        alone = pmf_mixed_poisson(spec, 300)
        assert got.mass.size == 301
        assert np.array_equal(got.mass, alone.mass)
        assert got.tail_mass == alone.tail_mass


def test_batched_atomic_laws():
    params = ModelParams(10, 10, 2.0, Finite(((1.0, 0.5), (3.0, 0.5))), Degenerate(2.0))
    specs = lockstep_specs(params, "attribute", (0, 2))
    for spec, got in zip(specs, pmf_mixed_poissons(specs, 40)):
        alone = pmf_mixed_poisson(spec, 40)
        assert np.array_equal(got.mass, alone.mass) and got.tail_mass == alone.tail_mass


def test_batch_validation():
    assert pmf_mixed_poissons([], 8) == []
    spec = MixingSpec(Pareto(1.0, 6.0), scale=1.0)
    with pytest.raises(ValueError, match="one weight law and scale"):
        pmf_mixed_poissons([spec, MixingSpec(Pareto(1.0, 6.0), scale=2.0)], 8)
    with pytest.raises(ValueError, match="one weight law and scale"):
        pmf_mixed_poissons([spec, MixingSpec(Pareto(1.0, 7.0), scale=1.0)], 8)
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        pmf_mixed_poissons([spec, spec], 0)


def test_unreachable_tol_raises_in_lockstep():
    # A law that cannot reach tol fails with the message it gives alone,
    # beside a law of another order.
    spec = MixingSpec(Pareto(1.0, 7.0), scale=2.0, bias_order=3)
    with pytest.raises(QuadratureError) as alone:
        pmf_mixed_poisson(spec, 64, tol=1e-300)
    assert re.fullmatch(r"panel refinement reached depth 14 with accumulated error "
                        r"bound \S+ > tol 1\.000e-300", str(alone.value))
    assert alone.value.achieved > 1e-300
    with pytest.raises(QuadratureError) as batched:
        pmf_mixed_poissons([spec, MixingSpec(Pareto(1.0, 7.0), 2.0, 0)], 64, tol=1e-300)
    assert str(batched.value) == str(alone.value)
