"""Convolution and randomly-stopped-sum pmfs against brute-force references."""

import math
import time

import numpy as np
import pytest
from scipy.stats import poisson

from rigclust import (
    Degenerate,
    Finite,
    LimitLaws,
    MixingSpec,
    ModelParams,
    Pareto,
    Pmf,
    convolve,
    mixing_spec,
    parse_law,
    pmf_mixed_poisson,
    pmf_offspring,
    pmf_stopped_sum,
    pmf_stopped_sums,
    tail_from_pmf,
)
from rigclust import stoppedsum


def brute_convolve(p: Pmf, q: Pmf, k_max: int) -> np.ndarray:
    out = np.zeros(k_max + 1)
    for i, pi in enumerate(p.mass):
        for j, qj in enumerate(q.mass):
            if i + j <= k_max:
                out[i + j] += pi * qj
    return out


def brute_stopped_sum(count: Pmf, summand: Pmf, k_max: int) -> np.ndarray:
    """Direct mixture over the count, with plain numpy convolutions."""
    out = np.zeros(k_max + 1)
    power = np.zeros(k_max + 1)
    power[0] = 1.0
    for i in range(count.k_max + 1):
        out += count.mass[i] * power[: k_max + 1]
        power = np.convolve(power, summand.mass)[: k_max + 1 + summand.k_max]
    return out


def _full_loop(count: Pmf, summand: Pmf, k_max: int, tol: float) -> Pmf:
    """The stopped sum term by term: every count term up to the truncation
    point is convolved and added, and each term's tail bounds are its own
    power's, grown as in convolve; the count left out gets the last one."""
    suffix = np.concatenate([np.cumsum(count.mass[::-1])[::-1], [0.0]])
    n_cut = count.mass.size - 1
    for i in range(n_cut + 1):
        if suffix[i + 1] + count.tail_mass < tol:
            n_cut = i
            break
    acc = np.zeros(k_max + 1)
    acc[0] = count.mass[0]
    acc_tail = float(suffix[n_cut + 1]) + count.tail_mass
    power = np.zeros(k_max + 1)
    power[0] = 1.0
    power_tail = power_lo = acc_lo = 0.0
    summand_lo = summand.tail_lo if summand.k_max >= k_max else 0.0
    for i in range(1, n_cut + 1):
        power, pushed = stoppedsum._convolve_raw(power, summand.mass, k_max)
        power_tail += summand.tail_mass + pushed
        power_lo += summand_lo * (1.0 - power_lo) + pushed
        w = count.mass[i]
        if w != 0.0:
            acc += w * power
            acc_tail += w * power_tail
            acc_lo += w * power_lo
    acc_lo += (float(suffix[n_cut + 1]) + count.tail_lo) * power_lo
    return stoppedsum._pmf(acc, acc_tail, acc_lo)


def law_pair(x_law: str, y_law: str) -> ModelParams:
    return ModelParams(n=100, m=100, beta=1.0, x_law=parse_law(x_law),
                       y_law=parse_law(y_law))


def actor_stopped_sum(params: ModelParams, order: int, k_max: int) -> tuple[Pmf, Pmf]:
    """The order-r actor count and offspring summand of the limit laws."""
    return (pmf_mixed_poisson(mixing_spec(params, "actor", order), k_max),
            pmf_offspring(params, k_max))


def neyman_type_a(mu: float, lam: float, k_max: int, terms: int = 400) -> np.ndarray:
    """Poisson(mu) count of Poisson(lam) summands, by the defining series."""
    grid = np.arange(k_max + 1)
    out = np.zeros(k_max + 1)
    for i in range(terms):
        out += poisson.pmf(i, mu) * poisson.pmf(grid, i * lam)
    return out


def sample_pmf(rng, p: Pmf, size: int) -> np.ndarray:
    support = np.arange(p.k_max + 1)
    probs = np.asarray(p.mass, float)
    probs = probs / probs.sum()  # tail mass is renormalized away
    return rng.choice(support, size=size, p=probs)


# ---------------------------------------------------------------------------
# convolve
# ---------------------------------------------------------------------------

def test_convolve_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.dirichlet(np.ones(rng.integers(2, 9)))
        b = rng.dirichlet(np.ones(rng.integers(2, 9)))
        p, q = Pmf(a), Pmf(b)
        res = convolve(p, q, p.k_max + q.k_max)
        assert res.k_max == p.k_max + q.k_max
        assert np.allclose(res.mass, brute_convolve(p, q, res.k_max),
                           rtol=0, atol=1e-14)
        assert res.tail_mass == pytest.approx(0.0, abs=1e-12)


def test_convolve_truncation_pushes_mass_to_tail():
    p = Pmf(np.array([0.5, 0.5]))
    q = Pmf(np.array([0.25, 0.25, 0.5]))
    res = convolve(p, q, k_max=1)
    # P(sum=0) = 0.125, P(sum=1) = 0.25; rest beyond the grid.
    assert res.mass[0] == pytest.approx(0.125)
    assert res.mass[1] == pytest.approx(0.25)
    assert res.tail_mass == pytest.approx(0.625)


def test_convolve_combines_input_tails():
    p = Pmf(np.array([0.6, 0.3]), tail_mass=0.1)
    q = Pmf(np.array([0.8, 0.15]), tail_mass=0.05)
    res = convolve(p, q, 2)
    # The clipped bound is the grid deficit, slightly tighter than the sum
    # of the input tails (0.15) because tail-tail pairs are double counted.
    assert res.tail_mass == pytest.approx(1.0 - 0.9 * 0.95, abs=1e-12)
    assert float(res.mass.sum()) + res.tail_mass == pytest.approx(1.0, abs=1e-12)


def test_convolve_tail_lo_by_inclusion_exclusion():
    # Either draw beyond its grid, or both on it with the sum pushed past:
    # 0.05 + 0.02 - 0.05 * 0.02 + 0.3 * 0.15.
    p = Pmf(np.array([0.6, 0.3]), tail_mass=0.1, tail_lo=0.05)
    q = Pmf(np.array([0.8, 0.15]), tail_mass=0.05, tail_lo=0.02)
    res = convolve(p, q, k_max=1)
    assert res.tail_lo == pytest.approx(0.05 + 0.02 - 0.001 + 0.045, abs=1e-15)
    assert res.tail_mass == pytest.approx(1.0 - 0.48 - 0.33, abs=1e-15)
    # On the full sum grid a draw beyond its own grid can still sum onto it,
    # so the input bounds do not count, and nothing is pushed.
    assert convolve(p, q, 2).tail_lo == 0.0
    # A grid that reaches k_max keeps its bound.
    assert convolve(p, Pmf.point(0), 1).tail_lo == pytest.approx(0.05, abs=1e-15)


def test_grid_is_required():
    # The caller decides every grid length; no default falls back to the
    # full sum support.
    p = Pmf(np.array([0.5, 0.5]))
    with pytest.raises(TypeError):
        convolve(p, p)
    with pytest.raises(TypeError):
        pmf_stopped_sum(p, p)


def test_convolve_identity_element():
    p = Pmf(np.array([0.2, 0.3, 0.5]))
    res = convolve(p, Pmf.point(0), 2)
    assert np.allclose(res.mass, p.mass)


# ---------------------------------------------------------------------------
# pmf_stopped_sum: exact special cases
# ---------------------------------------------------------------------------

def test_zero_count_is_point_mass_at_zero():
    summand = Pmf(np.array([0.3, 0.7]))
    res = pmf_stopped_sum(Pmf.point(0), summand, 0)
    assert res.mass[0] == pytest.approx(1.0)


def test_unit_count_returns_summand():
    summand = Pmf(np.array([0.1, 0.2, 0.7]))
    res = pmf_stopped_sum(Pmf.point(1), summand, 2)
    assert np.allclose(res.mass[:3], summand.mass, atol=1e-15)


def test_fixed_count_is_iterated_convolution():
    summand = Pmf(np.array([0.5, 0.25, 0.25]))
    res = pmf_stopped_sum(Pmf.point(3), summand, 6)
    expect = np.convolve(np.convolve(summand.mass, summand.mass), summand.mass)
    assert np.allclose(res.mass[: expect.size], expect, atol=1e-14)


def test_unit_summands_reproduce_count_law():
    # Summing N copies of the constant 1 returns N itself.
    count = Pmf(np.array([0.1, 0.4, 0.3, 0.2]))
    res = pmf_stopped_sum(count, Pmf.point(1), 3)
    assert np.allclose(res.mass[:4], count.mass, atol=1e-14)


def test_stopped_sum_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(10):
        count = Pmf(rng.dirichlet(np.ones(rng.integers(3, 12))))
        summand = Pmf(rng.dirichlet(np.ones(rng.integers(2, 6))))
        k_max = 40
        res = pmf_stopped_sum(count, summand, k_max=k_max,
                              tol=1e-15)
        expect = brute_stopped_sum(count, summand, k_max)
        assert np.max(np.abs(res.mass - expect)) < 1e-13


def test_wald_mean_identity():
    count = Pmf(np.array([0.2, 0.3, 0.3, 0.2]))
    summand = Pmf(np.array([0.25, 0.5, 0.25]))
    res = pmf_stopped_sum(count, summand, 6)
    assert res.mean() == pytest.approx(count.mean() * summand.mean(), rel=1e-12)


# ---------------------------------------------------------------------------
# pmf_stopped_sum: compound Poisson and Monte Carlo
# ---------------------------------------------------------------------------

def test_neyman_type_a_reference():
    mu, lam = 2.0, 3.0
    count = pmf_mixed_poisson(MixingSpec(Degenerate(mu), 1.0), k_max=128)
    summand = pmf_mixed_poisson(MixingSpec(Degenerate(lam), 1.0), k_max=128)
    res = pmf_stopped_sum(count, summand, k_max=128,
                          tol=1e-14)
    expect = neyman_type_a(mu, lam, 128)
    assert np.max(np.abs(res.mass - expect)) < 1e-12


def test_stopped_sum_monte_carlo():
    rng = np.random.default_rng(321)
    count = Pmf(rng.dirichlet(np.ones(8)))
    summand = Pmf(rng.dirichlet(np.ones(5)))
    res = pmf_stopped_sum(count, summand, k_max=64)
    n_mc = 200_000
    ns = sample_pmf(rng, count, n_mc)
    total_draws = int(ns.sum())
    taus = sample_pmf(rng, summand, total_draws)
    cs = np.concatenate([[0], np.cumsum(taus)])
    ends = np.cumsum(ns)
    sums = cs[ends] - cs[ends - ns]
    hist = np.bincount(sums, minlength=res.k_max + 1) / n_mc
    tv = 0.5 * float(np.abs(res.mass - hist[: res.k_max + 1]).sum())
    assert tv < 8e-3


def test_count_truncation_goes_to_tail():
    # A count with substantial mass at large values, truncated aggressively.
    count = Pmf(np.full(51, 1.0 / 51.0))
    summand = Pmf(np.array([0.0, 1.0]))  # always 1, so sum == count
    res = pmf_stopped_sum(count, summand, k_max=20, tol=1e-12)
    assert float(res.mass[:21].sum()) == pytest.approx(21.0 / 51.0, rel=1e-12)
    assert res.tail_mass == pytest.approx(30.0 / 51.0, rel=1e-12)


def test_count_past_its_grid_is_located_by_the_last_power():
    # N has mass 0.2 past its grid 0..9 and tau = 2, so d = 2N > 10 exactly
    # when N >= 6.  The sum holds terms 6..9; the terms past the count grid
    # are left out, but S_j >= S_9 > 10 puts their mass past the grid too.
    count = Pmf(np.full(10, 0.08), tail_mass=0.2, tail_lo=0.2)
    res = pmf_stopped_sum(count, Pmf.point(2), k_max=10)
    assert res.tail_lo == pytest.approx(4 * 0.08 + 0.2, rel=1e-14)
    assert res.tail_mass == pytest.approx(4 * 0.08 + 0.2, rel=1e-14)


def test_count_past_its_grid_is_located_by_the_last_power_of_several_blocks():
    # The same on a count grid of 0..99: d = 2N > 150 exactly when N >= 76,
    # and S_99 locates the mass past the count grid; without that bound
    # tail_lo would read 24 * 0.008 alone.
    count = Pmf(np.full(100, 0.008), tail_mass=0.2, tail_lo=0.2)
    res = pmf_stopped_sum(count, Pmf.point(2), k_max=150)
    assert res.tail_lo == pytest.approx(24 * 0.008 + 0.2, rel=1e-14)
    assert res.tail_mass == pytest.approx(24 * 0.008 + 0.2, rel=1e-14)


def test_truncated_count_mass_on_the_grid_stays_out_of_tail_lo():
    # Truncation at P(N > i) < 0.5 leaves out N = 26..50, whose sums
    # S_j = j all lie on the grid: the lost mass is in tail_mass only.
    count = Pmf(np.full(51, 1.0 / 51.0))
    res = pmf_stopped_sum(count, Pmf.point(1), k_max=100, tol=0.5)
    assert res.tail_mass == pytest.approx(25.0 / 51.0, rel=1e-12)
    assert res.tail_lo == 0.0


def off_grid(full: np.ndarray, k_max: int) -> Pmf:
    """The head of a law on 0..k_max, with its rest as both tail bounds."""
    rest = math.fsum(full[k_max + 1:])
    return Pmf(full[:k_max + 1], rest, rest)


def assert_bounds_bracket_brute_force(rng, count_size, summand_size, k_count, k_summand,
                                      k_max, tol):
    # Laws cut from longer ones: the true mass past k_max comes from the
    # full laws, and the bounds must hold it whatever the truncation leaves
    # out.
    for _ in range(5):
        count_full = rng.dirichlet(np.ones(count_size))
        summand_full = rng.dirichlet(np.ones(summand_size))
        top = max(200, (count_size - 1) * (summand_size - 1))
        exact = brute_stopped_sum(Pmf(count_full), Pmf(summand_full), top)
        count, summand = off_grid(count_full, k_count), off_grid(summand_full, k_summand)
        res = pmf_stopped_sum(count, summand, k_max, tol)
        beyond = math.fsum(exact[k_max + 1:])
        assert res.tail_lo <= beyond * (1 + 1e-12) + 1e-15
        assert beyond <= res.tail_mass * (1 + 1e-12) + 1e-15
        assert res.tail_lo > 0.0
        assert_matches_full_loop(res, count, summand, k_max, tol)


@pytest.mark.parametrize("k_count, k_summand, k_max, tol", [
    (10, 3, 20, 1e-10), (29, 5, 40, 1e-3), (8, 4, 4, 1e-10), (20, 5, 12, 1e-6)])
def test_stopped_sum_tail_bounds_bracket_brute_force(k_count, k_summand, k_max, tol):
    assert_bounds_bracket_brute_force(np.random.default_rng(17), 30, 6,
                                      k_count, k_summand, k_max, tol)


@pytest.mark.parametrize("k_count, k_summand, k_max, tol", [
    (100, 3, 40, 1e-10), (100, 5, 150, 1e-10), (300, 4, 200, 1e-6),
    (250, 5, 60, 1e-3), (70, 2, 90, 1e-12)])
def test_tail_bounds_over_several_blocks_bracket_brute_force(k_count, k_summand, k_max, tol):
    # Count grids of 71 to 301 entries; the full laws are 40 and 3 entries
    # longer than their grids.
    assert_bounds_bracket_brute_force(np.random.default_rng(17), k_count + 41, k_summand + 4,
                                      k_count, k_summand, k_max, tol)


# ---------------------------------------------------------------------------
# pmf_stopped_sum against a reimplementation of the term-by-term loop
# ---------------------------------------------------------------------------

def assert_matches_full_loop(got: Pmf, count: Pmf, summand: Pmf, k_max: int, tol: float):
    """Every grid mass within 1e-12 relative of the term-by-term loop (its
    zeros exact), and tail bounds that bracket the loop's: each lower bound
    at most the other upper one (up to rounding), and the upper one at most
    1e-9 above the loop's.  The lower bounds may differ where the summand
    has mass off its own grid, which neither locates."""
    full = _full_loop(count, summand, k_max, tol)
    assert np.all(np.abs(got.mass - full.mass) <= 1e-12 * full.mass)
    assert full.tail_lo <= got.tail_mass * (1 + 1e-12)
    assert got.tail_lo <= full.tail_mass * (1 + 1e-12)
    assert got.tail_mass <= full.tail_mass * (1 + 1e-9)
    return full


@pytest.mark.parametrize("k_max", [512, 1024])
@pytest.mark.parametrize("order", [1, 2])
def test_dense_blocks_match_the_full_loop(order, k_max):
    # The theory-dense laws, counts of up to 1025 terms, against the
    # reimplemented loop.
    count, summand = actor_stopped_sum(law_pair("pareto(2,7)", "pareto(2,6)"), order, k_max)
    res = pmf_stopped_sum(count, summand, k_max, 1e-10)
    full = assert_matches_full_loop(res, count, summand, k_max, 1e-10)
    # The summand spans the grid, so both lower bounds locate the same mass.
    assert res.tail_lo == pytest.approx(full.tail_lo, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("order", [1, 2])
def test_truncated_counts_match_the_full_loop(order):
    # Count truncation at n = 119 and a count that runs to the end of its
    # grid (n = 128), against the reimplemented loop.
    count, summand = actor_stopped_sum(law_pair("pareto(1,7)", "pareto(1,6)"), order, 128)
    res = pmf_stopped_sum(count, summand, 128, 1e-10)
    assert_matches_full_loop(res, count, summand, 128, 1e-10)


@pytest.mark.parametrize("x_law, y_law", [
    ("pareto(1,9)", "pareto(1,5.5)"), ("pareto(1,7)", "pareto(1,6)"),
    ("pareto(1,6.6)", "pareto(1,5.1)")])
def test_degree_laws_of_the_acceptance_pairs_match_the_full_loop(x_law, y_law):
    # Both degree laws of a 256 build, from the recursion with no count
    # truncation, against the term-by-term loop over all 1025 terms of a
    # count grid four times longer: a sum of more terms than that lies on
    # the grid only with a chance far below rounding.  The masses scale by
    # 1 - tol, and the two tail intervals overlap.
    params = law_pair(x_law, y_law)
    laws = LimitLaws(params, 256)
    for got, r in zip((laws.d1, laws.d2), (1, 2)):
        count = pmf_mixed_poisson(mixing_spec(params, "actor", r), 1024)
        full = pmf_stopped_sum(count, laws.tau, 256, 1e-300)
        assert np.all(np.abs(got.mass / (1 - laws.tol) - full.mass) <= 1e-12 * full.mass)
        assert got.tail_lo <= full.tail_mass and full.tail_lo <= got.tail_mass


#: Counts over one weight law and scale: the order-1 and order-2 counts of the
#: theory-dense laws with order 0 beside them, those of the acceptance pair,
#: and a finite law with an atom at 0, whose size-biased laws drop it.
SHARED_CASES = {
    "theory-dense": (law_pair("pareto(2,7)", "pareto(2,6)"), (0, 1, 2), 1024),
    "acceptance": (law_pair("pareto(1,7)", "pareto(1,6)"), (1, 2), 128),
    "finite": (law_pair("pareto(1,7)", "finite([(0,0.5),(2,0.5)])"), (0, 1, 2), 128),
    "unweighted": (law_pair("pareto(1,7)", "finite([(3,0),(2,1)])"), (0, 1, 2), 128),
}


@pytest.mark.parametrize("case", list(SHARED_CASES))
def test_counts_of_one_law_share_one_recursion(case, monkeypatch):
    # Counts over one law make one pass of the recursion (one compound
    # Poisson pass per atom above 0 that a count weights for a finite law:
    # the atom at 0 is the point mass at 0, the atom at 3 has no weight), and
    # each pmf is the one its count gives alone, up to the order of the sums
    # in a matrix product.
    params, orders, k_max = SHARED_CASES[case]
    tau = pmf_offspring(params, k_max)
    counts = [mixing_spec(params, "actor", r) for r in orders]
    calls = []
    compound_rows = stoppedsum._compound_rows
    monkeypatch.setattr(stoppedsum, "_compound_rows",
                        lambda *args: calls.append(args) or compound_rows(*args))
    shared = pmf_stopped_sums(counts, tau, k_max)
    assert len(calls) == 1
    for got, count in zip(shared, counts):
        alone = pmf_stopped_sums([count], tau, k_max)[0]
        assert np.all(np.abs(got.mass - alone.mass) <= 1e-14 * alone.mass)
        assert got.tail_mass == pytest.approx(alone.tail_mass, rel=1e-12, abs=1e-15)
        assert got.tail_lo == pytest.approx(alone.tail_lo, rel=1e-12, abs=1e-15)


def test_grid_entries_do_not_depend_on_the_grid_length():
    # Each convolution and sum makes entry s from entries at most s, in the
    # same order on any grid, so for one truncation point a longer grid
    # repeats a shorter one bit for bit.
    rng = np.random.default_rng(3)
    count, summand = Pmf(rng.dirichlet(np.ones(150))), Pmf(rng.dirichlet(np.ones(40)))
    short = pmf_stopped_sum(count, summand, 64, 1e-300)
    for k_max in (65, 100, 257, 1024):
        longer = pmf_stopped_sum(count, summand, k_max, 1e-300)
        assert np.array_equal(longer.mass[:65], short.mass), k_max


def test_shared_powers_edge_cases():
    summand = Pmf(np.array([0.5, 0.5]))
    assert pmf_stopped_sums([], summand, 8) == []
    for tol in (0.0, -1e-10, 1.0):
        with pytest.raises(ValueError):
            pmf_stopped_sums([MixingSpec(Degenerate(1.0), 1.0)], summand, 8, tol)

def test_tail_from_pmf():
    p = Pmf(np.array([0.5, 0.2, 0.2]), tail_mass=0.1)
    lo, hi = tail_from_pmf(p, 1)
    assert lo == pytest.approx(0.4)
    assert hi == pytest.approx(0.5)
    lo, hi = tail_from_pmf(p, 3)
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(0.1)
    lo, hi = tail_from_pmf(p, 0)
    assert lo == pytest.approx(0.9)
    assert hi == pytest.approx(1.0)


def test_tail_from_pmf_lower_end_adds_tail_lo_up_to_one_past_the_grid():
    p = Pmf(np.array([0.5, 0.2, 0.2]), tail_mass=0.1, tail_lo=0.04)
    assert tail_from_pmf(p, 1) == pytest.approx((0.44, 0.5))
    # Every value past the grid is >= 3 = k_max + 1 ...
    assert tail_from_pmf(p, 3) == pytest.approx((0.04, 0.1))
    # ... but not >= 4.
    assert tail_from_pmf(p, 4) == (0.0, pytest.approx(0.1))


# ---------------------------------------------------------------------------
# pmf_stopped_sums: the mixed Poisson recursion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("y_law, total, peak", [
    ("pareto(25,6)", 0.998889022824, 1104), ("degenerate(25)", 1.0, 874)])
def test_degree_laws_of_a_huge_rate_do_not_underflow(y_law, total, peak):
    # At beta = 1e4 and an attribute weight of at least 25, z (1 - t_0) is
    # 876.7 for the Pareto count (752.2 for the atom), so q_0 = e^{-z (1 -
    # t_0)} is below the smallest double and a recursion without rescaling
    # returns zeros.  The Pareto total is that of a block build with its
    # count truncated at 1e-10, which took 3.9 s.
    params = ModelParams(100, 100, 1e4, parse_law("pareto(1,7)"), parse_law(y_law))
    start = time.perf_counter()
    laws = LimitLaws(params, 4096)
    assert time.perf_counter() - start < 0.5
    assert math.fsum(laws.d1.mass) == pytest.approx(total, abs=1e-9)
    assert int(np.argmax(laws.d1.mass)) == peak


def mp_degree_laws(mp, params: ModelParams, k_max: int) -> list[list]:
    """h of the order-1 and order-2 counts by the recursion at the working
    precision of ``mp``, from masses of tau and h_0 taken from mpmath's
    incomplete gamma function for the same float parameters."""
    tau, actor = mixing_spec(params, "attribute", 1), mixing_spec(params, "actor")
    a_tau = mp.mpf(tau.weight_law.tail_index) - 1
    z_tau = mp.mpf(tau.scale) * mp.mpf(tau.weight_law.x_min)
    t = [a_tau * z_tau**a_tau * mp.gammainc(s - a_tau, z_tau) / mp.factorial(s)
         for s in range(k_max + 1)]
    jt = [j * t_j for j, t_j in enumerate(t)]
    z = mp.mpf(actor.scale) * mp.mpf(actor.weight_law.x_min)
    t_pos = 1 - t[0]
    q = [mp.exp(-z * t_pos)]
    for n in range(1, k_max + 1):
        q.append(z * mp.fdot(jt[1:n + 1], q[::-1]) / n)
    out = []
    for r in (1, 2):
        a = mp.mpf(actor.weight_law.tail_index) - r
        h = [a * (z * t_pos)**a * mp.gammainc(-a, z * t_pos)]
        for n in range(1, k_max + 1):
            back, q_back = h[::-1], q[n - 1::-1]
            h.append((n * mp.fdot(t[1:n + 1], back) - (1 + a) * mp.fdot(jt[1:n + 1], back)
                      + a * mp.fdot(jt[1:n + 1], q_back)) / (n * t_pos))
        out.append(h)
    return out


@pytest.mark.parametrize("x_min", [1.0, 2.0], ids=["pareto(1,7)/(1,6)", "pareto(2,7)/(2,6)"])
def test_degree_laws_match_a_40_digit_recursion(x_min):
    # The float masses within 1e-12 relative of the recursion at 40 digits,
    # and the deficit 1 - sum(m) within the rounding allowance of tail_lo,
    # (K + 1) 2**-52, of the exact one, which the tail bounds hold.
    mp = pytest.importorskip("mpmath")
    params = law_pair(f"pareto({x_min:g},7)", f"pareto({x_min:g},6)")
    laws = LimitLaws(params, 256)
    with mp.workdps(40):
        exact = mp_degree_laws(mp, params, 256)
        for got, h in zip((laws.d1, laws.d2), exact):
            m = got.mass / (1 - laws.tol)
            assert np.all(np.abs(m - np.array(h, dtype=float)) <= 1e-12 * m)
            deficit = float(1 - mp.fsum(h))
            assert abs(1 - math.fsum(m) - deficit) <= 257 * 2.0**-52
            assert got.tail_lo <= deficit <= got.tail_mass


def mp_count_sum(mp, params: ModelParams, r: int, k_max: int) -> list:
    """h of the order-r count as sum_k m_k p^{*k} at the working precision of
    ``mp``: m the count thinned to its nonzero summands, p the law of tau
    given tau > 0.  Every term is positive, so no scale of the law makes this
    sum lose digits, as the recursion in the original form does."""
    tau, actor = mixing_spec(params, "attribute", 1), mixing_spec(params, "actor", r)
    a_tau = mp.mpf(tau.weight_law.tail_index) - 1
    z_tau = mp.mpf(tau.scale) * mp.mpf(tau.weight_law.x_min)
    t = [a_tau * z_tau**a_tau * mp.gammainc(s - a_tau, z_tau) / mp.factorial(s)
         for s in range(k_max + 1)]
    p = [0] + [t_j / (1 - t[0]) for t_j in t[1:]]
    a = mp.mpf(actor.weight_law.tail_index) - r
    c = mp.mpf(actor.scale) * mp.mpf(actor.weight_law.x_min) * (1 - t[0])
    h = [a * c**a * mp.gammainc(-a, c)] + [0] * k_max
    power = [1] + [0] * k_max
    for k in range(1, k_max + 1):
        power = [mp.fsum(power[i] * p[n - i] for i in range(k - 1, n)) for n in range(k_max + 1)]
        m_k = a * c**a * mp.gammainc(k - a, c) / mp.factorial(k)
        h = [h_n + m_k * power_n for h_n, power_n in zip(h, power)]
    return h


@pytest.mark.parametrize("x_law, y_law, beta", [
    ("pareto(1e-3,7)", "pareto(1,6)", 1.0), ("pareto(1.2e-4,10.4)", "pareto(0.59,8.2)", 641.0),
    ("pareto(5.7e-4,10.4)", "pareto(1.3e-3,9.2)", 586.0)])
def test_degree_laws_at_small_scales_match_a_40_digit_count_sum(x_law, y_law, beta):
    # Thinned counts at rates c = 1.7e-6, 7e-9 and 8e-13, whose masses fall
    # as c**k below floor(a) + 1 and as c**a above: run without the split
    # there, the recursion was off by up to 9e-7 relative at the first law
    # and ended in negative masses at smaller scales.  All masses within
    # 1e-13 relative of the positive count sum at 40 digits.
    mp = pytest.importorskip("mpmath")
    params = ModelParams(100, 100, beta, parse_law(x_law), parse_law(y_law))
    laws = LimitLaws(params, 48, 1e-300)
    with mp.workdps(40):
        for got, r in zip((laws.d1, laws.d2), (1, 2)):
            exact = np.array(mp_count_sum(mp, params, r, 48), dtype=float)
            assert np.all(np.abs(got.mass - exact) <= 1e-13 * exact), r


@pytest.mark.parametrize("law, order, scale", [
    (Pareto(1.0, 2.5), 2, 0.7), (Pareto(1.0, 3.0), 2, 1.3), (Pareto(2.0, 3.0), 1, 0.4),
    (Pareto(1.0, 6.0), 0, 3.0), (Pareto(0.5, 20.0), 3, 0.2),
    (Finite(((0.0, 0.3), (1.0, 0.3), (5.0, 0.4))), 1, 0.8)],
    ids=["a=0.5", "a=1", "a=2", "order-0", "a=17", "finite"])
def test_stopped_sums_of_assorted_counts_match_the_full_loop(law, order, scale):
    # Indices at and below 1, where the split of the recursion is one or two
    # counts, an unbiased count, a long head and a finite law with an atom at
    # 0, against the term-by-term loop over a count grid of 1001 entries.
    summand = Pmf(np.random.default_rng(1).dirichlet(np.ones(6)))
    spec = MixingSpec(law, scale, order)
    got = pmf_stopped_sums([spec], summand, 60, 1e-15)[0]
    full = pmf_stopped_sum(pmf_mixed_poisson(spec, 1000), summand, 60, 1e-300)
    assert np.all(np.abs(got.mass - full.mass) <= 1e-13 * full.mass)
    assert got.tail_lo <= full.tail_mass and full.tail_lo <= got.tail_mass
