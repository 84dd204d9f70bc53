"""Convolution and randomly-stopped-sum pmfs against brute-force references."""

import math

import numpy as np
import pytest
from scipy.stats import poisson

from rigclust import (
    Degenerate,
    LimitLaws,
    MixingSpec,
    ModelParams,
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
    # The same on a count grid of 0..99, four blocks: d = 2N > 150 exactly
    # when N >= 76, and S_99 = tau^{*3} G^{*3} locates the mass past the
    # count grid; without that bound tail_lo would read 24 * 0.008 alone.
    count = Pmf(np.full(100, 0.008), tail_mass=0.2, tail_lo=0.2)
    res = pmf_stopped_sum(count, Pmf.point(2), k_max=150)
    assert res.tail_lo == pytest.approx(24 * 0.008 + 0.2, rel=1e-14)
    assert res.tail_mass == pytest.approx(24 * 0.008 + 0.2, rel=1e-14)


def test_power_bound_on_a_block_edge_skips_the_unit(monkeypatch):
    # n = 64 = 2B: the bound of tau^{*64} = G^{*2} takes one squaring of G
    # and no product of the unit tau^{*0} with it, which would repeat
    # G^{*2} bit for bit.
    summand = off_grid(np.random.default_rng(5).dirichlet(np.ones(8)), 5)
    k_max = 200
    powers = [Pmf.point(0, k_max)]
    for _ in range(stoppedsum._BLOCK):
        powers.append(convolve(powers[-1], summand, k_max))
    square = convolve(powers[-1], powers[-1], k_max)
    unit_square = convolve(powers[0], square, k_max)
    assert np.array_equal(unit_square.mass, square.mass)
    assert (unit_square.tail_mass, unit_square.tail_lo) == (square.tail_mass, square.tail_lo)
    calls = []
    monkeypatch.setattr(stoppedsum, "convolve", lambda *args: calls.append(args) or convolve(*args))
    assert stoppedsum._power_lo(powers, 64, k_max) == unit_square.tail_lo > 0.0
    assert len(calls) == 1


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
    # Count grids of 71 to 301 entries take Horner steps, and each count
    # ends inside a block; the full laws are 40 and 3 entries longer than
    # their grids.
    assert_bounds_bracket_brute_force(np.random.default_rng(17), k_count + 41, k_summand + 4,
                                      k_count, k_summand, k_max, tol)


# ---------------------------------------------------------------------------
# pmf_stopped_sum: the block evaluation against the term-by-term loop
# ---------------------------------------------------------------------------

def assert_matches_full_loop(got: Pmf, count: Pmf, summand: Pmf, k_max: int, tol: float):
    """Every grid mass within 1e-12 relative of the term-by-term loop (its
    zeros exact), and tail bounds that bracket the loop's: each lower bound
    at most the other upper one (up to rounding), and the upper one at most
    1e-9 above the loop's.  The lower bounds differ where the summand has
    mass off its own grid, which neither locates: the loop and the blocks
    then locate different parts of the pushed mass."""
    full = _full_loop(count, summand, k_max, tol)
    assert np.all(np.abs(got.mass - full.mass) <= 1e-12 * full.mass)
    assert full.tail_lo <= got.tail_mass * (1 + 1e-12)
    assert got.tail_lo <= full.tail_mass * (1 + 1e-12)
    assert got.tail_mass <= full.tail_mass * (1 + 1e-9)
    return full


@pytest.mark.parametrize("k_max", [512, 1024])
@pytest.mark.parametrize("order", [1, 2])
def test_dense_blocks_match_the_full_loop(order, k_max):
    # The theory-dense laws over 15 to 33 blocks, against the term-by-term
    # loop.
    count, summand = actor_stopped_sum(law_pair("pareto(2,7)", "pareto(2,6)"), order, k_max)
    res = pmf_stopped_sum(count, summand, k_max, 1e-10)
    full = assert_matches_full_loop(res, count, summand, k_max, 1e-10)
    # The summand spans the grid, so both lower bounds locate the same mass.
    assert res.tail_lo == pytest.approx(full.tail_lo, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("order", [1, 2])
def test_truncated_counts_match_the_full_loop(order):
    # Count truncation inside the fourth block (n = 119) and a count that
    # ends on a block edge (n = 128), against the term-by-term loop.
    count, summand = actor_stopped_sum(law_pair("pareto(1,7)", "pareto(1,6)"), order, 128)
    res = pmf_stopped_sum(count, summand, 128, 1e-10)
    assert_matches_full_loop(res, count, summand, 128, 1e-10)


@pytest.mark.parametrize("x_law, y_law", [
    ("pareto(1,9)", "pareto(1,5.5)"), ("pareto(1,7)", "pareto(1,6)"),
    ("pareto(1,6.6)", "pareto(1,5.1)")])
def test_degree_laws_of_the_acceptance_pairs_match_the_full_loop(x_law, y_law):
    # Both degree laws of a 1024 build, counts of 119 to 1353 terms.
    params = law_pair(x_law, y_law)
    laws = LimitLaws(params, 1024)
    counts = [pmf_mixed_poisson(mixing_spec(params, "actor", r), laws.count_k_max)
              for r in (1, 2)]
    for got, count in zip((laws.d1, laws.d2), counts):
        assert_matches_full_loop(got, count, laws.tau, 1024, 1e-10)


def test_block_evaluation_stays_within_its_convolution_budget(monkeypatch):
    # B baby steps, one Horner step per block past the first and the
    # squarings of the last term's bound, where the loop convolves all
    # 1024 count terms.
    count, summand = actor_stopped_sum(law_pair("pareto(2,7)", "pareto(2,6)"), 2, 1024)
    calls = []
    convolve_raw = stoppedsum._convolve_raw

    def counting(*args):
        calls.append(1)
        return convolve_raw(*args)

    monkeypatch.setattr(stoppedsum, "_convolve_raw", counting)
    pmf_stopped_sum(count, summand, 1024, 1e-10)
    n, _ = stoppedsum._truncation(count, 1e-10)
    blocks = n // stoppedsum._BLOCK
    assert n == 1024
    assert len(calls) <= stoppedsum._BLOCK + math.ceil(n / stoppedsum._BLOCK) \
        + 2 * blocks.bit_length()
    assert len(calls) == 32 + 32 + 5  # tau^{*1024} = G^{*32}: five squarings


def _shared_cases():
    (dense1, dense_tau), (dense2, _) = (
        actor_stopped_sum(law_pair("pareto(2,7)", "pareto(2,6)"), r, 1024) for r in (1, 2))
    (cut1, cut_tau), (cut2, _) = (
        actor_stopped_sum(law_pair("pareto(1,7)", "pareto(1,6)"), r, 128) for r in (1, 2))
    return {
        # 15 and 33 blocks: the shorter count stops inside a block.
        "theory-dense": ([dense1, dense2], dense_tau, 1024),
        # 4 and 5 blocks, the second of one term.
        "truncated": ([cut1, cut2], cut_tau, 128),
        # A count with no term beyond the empty sum runs beside a real one.
        "point-zero": ([Pmf.point(0), dense2], dense_tau, 1024),
    }


@pytest.mark.parametrize("case", ["theory-dense", "truncated", "point-zero"])
def test_shared_powers_are_bit_identical(case):
    counts, summand, k_max = _shared_cases()[case]
    shared = pmf_stopped_sums(counts, summand, k_max, 1e-10)
    assert len(shared) == len(counts)
    for got, count in zip(shared, counts):
        alone = pmf_stopped_sum(count, summand, k_max, 1e-10)
        assert np.array_equal(got.mass, alone.mass)
        assert (got.tail_mass, got.tail_lo) == (alone.tail_mass, alone.tail_lo)
        assert_matches_full_loop(got, count, summand, k_max, 1e-10)


def test_grid_entries_do_not_depend_on_the_grid_length():
    # Each convolution, block sum and Horner step makes entry s from entries
    # at most s, in the same order on any grid, so for one truncation point
    # a longer grid repeats a shorter one bit for bit.
    rng = np.random.default_rng(3)
    count, summand = Pmf(rng.dirichlet(np.ones(150))), Pmf(rng.dirichlet(np.ones(40)))
    short = pmf_stopped_sum(count, summand, 64, 1e-300)
    for k_max in (65, 100, 257, 1024):
        longer = pmf_stopped_sum(count, summand, k_max, 1e-300)
        assert np.array_equal(longer.mass[:65], short.mass), k_max


def test_shared_powers_edge_cases():
    summand = Pmf(np.array([0.5, 0.5]))
    assert pmf_stopped_sums([], summand, 8) == []
    for tol in (0.0, -1e-10):
        with pytest.raises(ValueError):
            pmf_stopped_sums([Pmf.point(1)], summand, 8, tol)

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
