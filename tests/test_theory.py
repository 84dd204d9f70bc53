"""Limit-formula machinery against closed-form and series references."""

import collections
import math

import numpy as np
import pytest
from scipy.stats import poisson

import rigclust.mixedpoisson as mp
import rigclust.stoppedsum as ss
import rigclust.theory as th
from rigclust import (
    Degenerate,
    InfiniteMomentError,
    LimitLaws,
    ModelParams,
    Pareto,
    mixing_spec,
    pmf_mixed_poisson,
    pmf_offspring,
    pmf_stopped_sum,
    attribute_tail_asymptotic,
    coefficient_from_ratio,
    degree_tail_asymptotic,
    delta_exponent,
    ratio_from_coefficient,
    tail_weight_asymptotics,
    theory_curve,
)


# ---------------------------------------------------------------------------
# Degenerate-weights closed form: everything reduces to Poisson compounds
# ---------------------------------------------------------------------------

class DegenerateOracle:
    """Hand-rolled limit quantities for point-mass weights.

    With X == x0 and Y == y0 all size-biased laws coincide with the bases:
    the count law is Poisson(mu), the per-attribute offspring law Poisson(nu),
    the stopped sum a Poisson(mu) number of Poisson(nu) summands, and the
    route laws are that compound convolved with one or two extra Poissons.
    """

    def __init__(self, x0, y0, beta, k_top=200):
        self.x0, self.y0, self.beta = x0, y0, beta
        mu = math.sqrt(beta) * x0 * y0
        nu = x0 * y0 / math.sqrt(beta)
        grid = np.arange(k_top + 1)
        compound = np.zeros(k_top + 1)
        for i in range(400):
            compound += poisson.pmf(i, mu) * poisson.pmf(grid, i * nu)
        self.closed = np.convolve(compound, poisson.pmf(grid, nu))[: k_top + 1]
        self.open = np.convolve(compound, poisson.pmf(grid, 2 * nu))[: k_top + 1]
        self.closed_pref = x0**3 * y0**3
        self.open_pref = x0**4 * y0**4

    def a(self, k):
        return self.closed_pref * self.closed[k - 2]

    def b(self, k):
        return self.open_pref * self.open[k - 2]

    def A(self, k):
        return self.closed_pref * float(self.closed[k - 2:].sum())

    def B(self, k):
        return self.open_pref * float(self.open[k - 2:].sum())

    def c(self, k):
        return 1.0 / (1.0 + math.sqrt(self.beta) * self.b(k) / self.a(k))

    def C(self, k):
        return 1.0 / (1.0 + math.sqrt(self.beta) * self.B(k) / self.A(k))


BUILD_TOL = 1e-15


@pytest.fixture(scope="module")
def degenerate_pair():
    params = ModelParams(50, 80, 1.7, Degenerate(1.3), Degenerate(0.8))
    oracle = DegenerateOracle(1.3, 0.8, 1.7)
    laws = LimitLaws(params, k_max=512, tol=BUILD_TOL)
    return params, oracle, laws


def test_point_weights_match_degenerate_oracle(degenerate_pair):
    # Count truncation at the build tolerance costs up to a few tol of
    # absolute mass at deep k, hence the two-part error allowance.
    params, oracle, laws = degenerate_pair
    for k in range(2, 41):
        a, b = laws.point_weights(k)
        assert abs(a - oracle.a(k)) <= 1e-9 * oracle.a(k) \
            + 3 * BUILD_TOL * laws.closed_prefactor, k
        assert abs(b - oracle.b(k)) <= 1e-9 * oracle.b(k) \
            + 3 * BUILD_TOL * laws.open_prefactor, k


def test_tail_weights_match_degenerate_oracle(degenerate_pair):
    params, oracle, laws = degenerate_pair
    for k in range(2, 41):
        A, B = laws.tail_weights(k)
        slack = 1e-9 * A.mid + 3 * BUILD_TOL * laws.closed_prefactor
        assert A.lo <= oracle.A(k) + slack
        assert A.hi >= oracle.A(k) - slack
        assert A.width < 1e-11
        assert abs(A.mid - oracle.A(k)) <= slack, k
        assert abs(B.mid - oracle.B(k)) <= 1e-9 * B.mid \
            + 3 * BUILD_TOL * laws.open_prefactor, k


def test_predictions_match_degenerate_oracle(degenerate_pair):
    # Deep in the tail the truncated grid admits it knows less: the interval
    # widens (and must still cover the truth), and the midpoints drift by at
    # most the truncation allowance.
    params, oracle, laws = degenerate_pair
    cases = ((2, 1e-9), (3, 1e-9), (5, 1e-9), (9, 1e-9), (17, 1e-9), (30, 1e-3))
    rows = theory_curve(params, [k for k, _ in cases], k_max=512, tol=BUILD_TOL)
    assert [row.k for row in rows] == [k for k, _ in cases]
    for row, (k, rel) in zip(rows, cases):
        assert row.c_pred == pytest.approx(oracle.c(k), rel=rel)
        civ = row.C_pred
        assert civ.lo <= civ.hi
        assert civ.lo - 1e-9 * civ.mid <= oracle.C(k) <= civ.hi + 1e-9 * civ.mid
        assert civ.mid == pytest.approx(oracle.C(k), rel=rel)


# ---------------------------------------------------------------------------
# Structural identities on heavy-tailed input
# ---------------------------------------------------------------------------

def pareto_params(alpha=7.0, gamma=6.0, beta=1.0):
    return ModelParams(1000, 1000, beta, Pareto(1.0, alpha), Pareto(1.0, gamma))


@pytest.fixture(scope="module")
def pareto_laws():
    params = pareto_params()
    return params, LimitLaws(params, k_max=1024, tol=1e-10)


def test_stopped_sum_means_obey_wald(pareto_laws):
    # E[sum] = E[count] E[offspring].  With the plain (order-0) actor count
    # that product collapses to a_2 b_1^2; the order-1-biased count used in
    # the closed route has mean sqrt(beta) a_1 b_2 / b_1 instead.
    params, laws = pareto_laws
    count0 = pmf_mixed_poisson(mixing_spec(params, "actor", 0), 1024, 1e-10)
    deg0 = pmf_stopped_sum(count0, laws.tau, 1024, 1e-10)
    assert deg0.mean() == pytest.approx(params.a(2) * params.b(1) ** 2, rel=1e-5)

    beta = params.beta
    mean_count1 = math.sqrt(beta) * params.a(1) * params.b(2) / params.b(1)
    mean_tau = params.a(2) * params.b(1) / (params.a(1) * math.sqrt(beta))
    assert laws.tau.mean() == pytest.approx(mean_tau, rel=1e-6)
    assert laws.d1.mean() == pytest.approx(mean_count1 * mean_tau, rel=1e-5)


def test_second_route_prefactors(pareto_laws):
    params, laws = pareto_laws
    assert laws.closed_prefactor == pytest.approx(
        params.a(3) * params.b(1) ** 3, rel=1e-14)
    assert laws.open_prefactor == pytest.approx(
        params.a(2) ** 2 * params.b(1) ** 2 * params.b(2), rel=1e-14)


def test_cumulative_weight_at_two_is_prefactor(pareto_laws):
    # A(2) sums the whole route law, so it must equal a_3 b_1^3 on the nose
    # (the upper interval end includes the tail allowance).
    params, laws = pareto_laws
    A, B = laws.tail_weights(2)
    assert A.hi == pytest.approx(params.a(3) * params.b(1) ** 3, rel=1e-12)
    assert A.lo == pytest.approx(A.hi, rel=1e-8)
    assert B.hi == pytest.approx(laws.open_prefactor, rel=1e-12)


def test_point_weights_sum_to_cumulative(pareto_laws):
    params, laws = pareto_laws
    acc_a = acc_b = 0.0
    for k in range(2, 200):
        a, b = laws.point_weights(k)
        acc_a += a
        acc_b += b
    A, B = laws.tail_weights(200)
    A2, B2 = laws.tail_weights(2)
    assert acc_a + A.lo == pytest.approx(A2.lo, rel=1e-10)
    assert acc_b + B.lo == pytest.approx(B2.lo, rel=1e-10)


def test_shift_domain_errors(pareto_laws):
    params, laws = pareto_laws
    with pytest.raises(ValueError):
        laws.point_weights(1)
    with pytest.raises(ValueError):
        laws.point_weights(1024 + 3)


def test_limit_laws_build_one_kernel_block_per_panel_per_side(monkeypatch):
    # Each weight side is one lockstep quadrature: a panel that several of
    # its laws use gets one Poisson kernel block, where five separate builds
    # would each compute their own, and every ingredient keeps its bits.
    params = ModelParams(10000, 10000, 1.0, Pareto(2.0, 7.0), Pareto(2.0, 6.0))
    kernel = mp._poisson_rows
    blocks = collections.Counter()  # rates of a block -> calls

    def counted(rates, *args):
        blocks[rates.tobytes()] += 1
        return kernel(rates, *args)

    monkeypatch.setattr(mp, "_poisson_rows", counted)
    laws = LimitLaws(params, 256)
    shared, blocks = blocks, collections.Counter()
    tau = pmf_offspring(params, 256)
    alone = [tau]
    for role, r in (("attribute", 2), ("attribute", 3), ("actor", 1), ("actor", 2)):
        alone.append(pmf_mixed_poisson(mixing_spec(params, role, r), 256))
    separate_calls = sum(blocks.values())
    # No panel of this build is refined, so each panel has exactly one block.
    assert set(shared.values()) == {1}
    assert set(shared) == set(blocks)
    assert sum(shared.values()) < 0.5 * separate_calls

    _, lam2, lam3, count1, count2 = alone
    d1 = pmf_stopped_sum(count1, tau, 256, 1e-10)
    d2 = pmf_stopped_sum(count2, tau, 256, 1e-10)
    for got, want in ((laws.tau, tau), (laws.lam2, lam2), (laws.lam3, lam3),
                      (laws.d1, d1), (laws.d2, d2)):
        assert np.array_equal(got.mass, want.mass) and got.tail_mass == want.tail_mass


def test_limit_laws_evaluate_one_tail_per_three_panels(monkeypatch):
    # Every law of a weight side is on the one grid, so a panel and its two
    # halves share a single upper-tail evaluation, offspring law included.
    params = ModelParams(10000, 10000, 1.0, Pareto(2.0, 7.0), Pareto(2.0, 6.0))
    calls = collections.Counter()

    def counting(name):
        original = getattr(mp, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for name in ("_panel", "_poisson_upper_tail"):
        monkeypatch.setattr(mp, name, counting(name))
    LimitLaws(params, 256)
    assert calls["_poisson_upper_tail"] > 0
    assert calls["_panel"] == 3 * calls["_poisson_upper_tail"]



def test_limit_laws_convolve_each_power_of_tau_once(monkeypatch):
    # d1 and d2 share the baby steps tau^{*1..B}, which the two single-count
    # sums make once each; the route laws add three convolutions.
    params = ModelParams(10000, 10000, 1.0, Pareto(2.0, 7.0), Pareto(2.0, 6.0))
    tau = pmf_offspring(params, 1024)
    counts = [pmf_mixed_poisson(mixing_spec(params, "actor", r), 1024) for r in (1, 2)]
    convolve_raw = ss._convolve_raw
    calls = []

    def counting(*args):
        calls.append(1)
        return convolve_raw(*args)

    monkeypatch.setattr(ss, "_convolve_raw", counting)
    alone = []
    for count in counts:
        calls.clear()
        pmf_stopped_sum(count, tau, 1024, 1e-10)
        alone.append(len(calls))
        assert ss._truncation(count, 1e-10)[0] >= ss._BLOCK
    calls.clear()
    LimitLaws(params, 1024)
    assert len(calls) == sum(alone) - ss._BLOCK + 3

def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0, 5, 1.0, Pareto(1, 7), Pareto(1, 6))
    with pytest.raises(ValueError):
        ModelParams(5, 5, 0.0, Pareto(1, 7), Pareto(1, 6))
    with pytest.raises(InfiniteMomentError):
        LimitLaws(ModelParams(5, 5, 1.0, Pareto(1, 3.5), Pareto(1, 6)), k_max=64)


def test_coefficient_ratio_round_trip():
    for beta in (0.5, 1.0, 4.0):
        for ratio in (0.0, 0.3, 2.0, 50.0):
            c = coefficient_from_ratio(beta, ratio)
            assert 0.0 < c <= 1.0
            assert ratio_from_coefficient(beta, c) == pytest.approx(ratio, abs=1e-12)


# ---------------------------------------------------------------------------
# Decay exponent and tail asymptotics
# ---------------------------------------------------------------------------

def test_delta_exponent_frozen_values():
    assert delta_exponent(9.0, 5.5) == 1.0       # clamped from 2.5
    assert delta_exponent(7.0, 6.0) == 0.0
    assert delta_exponent(6.6, 5.1) == pytest.approx(0.5)
    assert delta_exponent(6.0, 6.5) == -1.0      # clamped from -1.5
    assert delta_exponent(8.0, 6.0) == 1.0       # exactly at the crossover
    assert delta_exponent(5.5, 5.5) == -1.0     # clamped from -1.0 exactly


def test_delta_exponent_domain():
    with pytest.raises(ValueError):
        delta_exponent(5.0, 6.0)
    with pytest.raises(ValueError):
        delta_exponent(7.0, 4.9)


def test_degree_tail_constant_formula():
    # Reimplementation of the stopped-sum tail constants from scratch.
    params = pareto_params(6.6, 5.1, 1.3)
    gamma = 5.1
    c_y = 1.0
    a2 = params.a(2)
    b1, b2 = params.b(1), params.b(2)
    for k in (10.0, 100.0, 1234.5):
        expect1 = c_y * gamma / (gamma - 1) * a2 ** (gamma - 1) \
            * b1 ** (gamma - 2) * k ** (1 - gamma)
        expect2 = c_y * gamma / (gamma - 2) * a2 ** (gamma - 2) \
            * b1 ** (gamma - 2) / b2 * k ** (2 - gamma)
        assert degree_tail_asymptotic(params, 1, k) == pytest.approx(expect1, rel=1e-12)
        assert degree_tail_asymptotic(params, 2, k) == pytest.approx(expect2, rel=1e-12)
    with pytest.raises(ValueError):
        degree_tail_asymptotic(params, 3, 10.0)


def test_attribute_tail_constant_formula():
    params = pareto_params(6.6, 5.1, 1.3)
    alpha, beta = 6.6, 1.3
    c_x = 1.0
    b1 = params.b(1)
    for r in (2, 3):
        a_r = params.a(r)
        for k in (10.0, 500.0):
            expect = c_x * alpha / (alpha - r) * beta ** ((r - alpha) / 2) \
                / a_r * b1 ** (alpha - r) * k ** (r - alpha)
            assert attribute_tail_asymptotic(params, r, k) == pytest.approx(
                expect, rel=1e-12)


def test_tail_asymptotics_require_pareto_pair():
    # Wrong kind of law, not a wrong value: TypeError.
    params = ModelParams(10, 10, 1.0, Degenerate(1.0), Pareto(1.0, 6.0))
    with pytest.raises(TypeError):
        degree_tail_asymptotic(params, 1, 10.0)
    with pytest.raises(TypeError):
        tail_weight_asymptotics(params, 10.0)


def test_route_tails_pick_dominant_component():
    # tail_weight_asymptotics describes the prefactor-free route laws: away
    # from ties each tail equals the slower of its ingredient tails, so
    # compare against an explicit max over candidates.
    for alpha, gamma in ((9.0, 5.5), (7.0, 6.0), (6.6, 5.1)):
        params = pareto_params(alpha, gamma)
        k = 500.0
        at, bt = tail_weight_asymptotics(params, k)
        closed_cands = [degree_tail_asymptotic(params, 1, k),
                        attribute_tail_asymptotic(params, 3, k)]
        open_cands = [degree_tail_asymptotic(params, 2, k),
                      2.0 * attribute_tail_asymptotic(params, 2, k)]
        # No ties in these configurations: the max is isolated.
        assert at == pytest.approx(max(closed_cands), rel=1e-9)
        assert bt == pytest.approx(max(open_cands), rel=1e-9)


def test_route_tails_sum_tied_components():
    # Closed-route tie at alpha = gamma + 2, open-route tie at alpha = gamma:
    # coinciding exponents add their constants instead of dropping one.
    params = pareto_params(8.0, 6.0)  # closed tie: 1-gamma == 3-alpha == -5
    k = 300.0
    at, _ = tail_weight_asymptotics(params, k)
    expect = (degree_tail_asymptotic(params, 1, k)
              + attribute_tail_asymptotic(params, 3, k))
    assert at == pytest.approx(expect, rel=1e-9)

    params = pareto_params(7.0, 7.0)  # open tie: 2-gamma == 2-alpha == -5
    _, bt = tail_weight_asymptotics(params, k)
    expect = (degree_tail_asymptotic(params, 2, k)
              + 2.0 * attribute_tail_asymptotic(params, 2, k))
    assert bt == pytest.approx(expect, rel=1e-9)


def test_tail_weight_log_slope_is_delta():
    # B/A decays as k**delta in every regime: both sides of each switch, the
    # closed tie (8, 6), the open tie (7, 7) and the clamped side
    # alpha < gamma + 1, (6, 6.5).  The route prefactors cancel in the slope.
    for alpha, gamma in ((9.0, 5.5), (7.0, 6.0), (6.6, 5.1), (8.0, 6.0),
                         (7.0, 7.0), (6.0, 6.5)):
        params = pareto_params(alpha, gamma)
        (a200, b200), (a2000, b2000) = (tail_weight_asymptotics(params, k)
                                        for k in (200.0, 2000.0))
        slope = math.log((b2000 / a2000) / (b200 / a200)) / math.log(10.0)
        assert slope == pytest.approx(delta_exponent(alpha, gamma), abs=1e-9)


# ---------------------------------------------------------------------------
# theory_curve
# ---------------------------------------------------------------------------

def test_theory_curve_switches_to_asymptotics():
    params = pareto_params(7.0, 6.0)
    ks = list(range(2, 40)) + [60, 100, 200, 300]
    rows = th.theory_curve(params, ks, k_max=256, tol=1e-8)
    assert [row.k for row in rows] == ks
    flags = [row.asymptotic for row in rows]
    assert flags[0] is False
    assert flags[-1] is True
    # Sticky: once asymptotic, stays asymptotic.
    first = flags.index(True)
    assert all(flags[first:])
    for row in rows:
        if row.asymptotic:
            assert row.c_pred is None and row.a is None
            assert row.C_pred.width == 0.0
        else:
            assert 0.0 < row.c_pred <= 1.0
            assert row.C_pred.lo <= row.C_pred.hi
        assert 0.0 < row.C_pred.mid <= 1.0


def test_theory_curve_skips_non_pareto_beyond_grid():
    # Without a Pareto pair there is no asymptotic fallback: degrees past the
    # reliable grid have no honest prediction and their rows are dropped.
    params = ModelParams(10, 10, 1.0, Degenerate(1.1), Degenerate(0.9))
    rows = th.theory_curve(params, range(2, 10), k_max=128)
    assert [row.k for row in rows] == list(range(2, 10))
    assert all(not row.asymptotic for row in rows)
    rows = th.theory_curve(params, [2, 500], k_max=128)
    assert [row.k for row in rows] == [2]


def test_theory_curve_keeps_unreliable_non_pareto_rows():
    # Only a Pareto pair has closed forms to switch to: any other pair keeps
    # its numeric rows across the whole grid, loose intervals included.
    params = ModelParams(10, 10, 1.0, Degenerate(1.1), Degenerate(0.9))
    rows = th.theory_curve(params, range(2, 67), k_max=64)
    assert [row.k for row in rows] == list(range(2, 67))
    assert not any(row.asymptotic for row in rows)
    assert any(th._interval_unreliable(row.A) or th._interval_unreliable(row.B)
               for row in rows)


def test_theory_curve_stays_asymptotic_after_first_loose_row(monkeypatch):
    # Pareto intervals widen with k, so the switch is sticky in practice;
    # a loose interval at one degree alone shows that the rule itself is.
    laws = LimitLaws(pareto_params(7.0, 6.0), k_max=64)
    tail_weights = laws.tail_weights

    def loose_at_five(k):
        A, B = tail_weights(k)
        return (th.Interval(0.0, A.hi), B) if k == 5 else (A, B)

    monkeypatch.setattr(laws, "tail_weights", loose_at_five)
    rows = th._curve_rows(laws, list(range(2, 9)))
    assert [row.asymptotic for row in rows] == [False] * 3 + [True] * 4


def test_coefficient_without_closed_route_mass():
    # No closed-route weight: c_pred is 0 while the open route has mass, and
    # undefined when neither route has any.
    assert th._c_from_weights(1.0, 0.0, 0.3) == 0.0
    assert th._c_from_weights(1.0, 0.0, 0.0) is None


def test_empty_interval_is_unreliable():
    assert th._interval_unreliable(th.Interval(0.0, 0.0))
    assert not th._interval_unreliable(th.Interval(1.0, 1.05))


def test_curve_rows_leave_out_a_loose_degree_two():
    # At tol 0.5 every interval is loose.  The closed forms have no value at
    # k - 2 = 0, so k = 2 gets no row, as a non-Pareto pair past its numeric
    # rows does, and 3..5 get the rows they get without it.
    laws = LimitLaws(pareto_params(7.0, 6.0), k_max=64, tol=0.5)
    rows = th._curve_rows(laws, [2, 3, 4, 5])
    assert [row.k for row in rows] == [3, 4, 5]
    assert all(row.asymptotic for row in rows)
    assert rows == th._curve_rows(laws, [3, 4, 5])


@pytest.mark.parametrize("k", [0, 0.0, -1.0])
def test_tail_asymptotics_reject_nonpositive_k(k):
    params = pareto_params(6.6, 5.1)
    for tail in (lambda: degree_tail_asymptotic(params, 1, k),
                 lambda: attribute_tail_asymptotic(params, 2, k),
                 lambda: tail_weight_asymptotics(params, k)):
        with pytest.raises(ValueError, match="k > 0"):
            tail()


@pytest.mark.parametrize("params", [
    pareto_params(7.0, 6.0),
    ModelParams(100, 100, 1.0, Degenerate(1.1), Degenerate(0.9)),
], ids=["pareto", "degenerate"])
def test_theory_curve_rejects_degree_below_two(params):
    # A degree below 2 has no shifted argument; it must not turn the rows
    # after it asymptotic or vanish silently.
    with pytest.raises(ValueError, match=r"^degree k must be >= 2, got 1$"):
        th.theory_curve(params, [1, 3], k_max=64)


# ---------------------------------------------------------------------------
# Adaptive grid of theory_curve against the fixed cap grid
# ---------------------------------------------------------------------------

GRID_CAP = 1024


@pytest.fixture(scope="module", params=[(2.0, 7.0, 6.0, 20), (1.0, 7.0, 6.0, 15)],
                ids=["pareto(2,7)/(2,6)", "pareto(1,7)/(1,6)"])
def adaptive_vs_cap(request):
    # The two law pairs of the benchmark, each on a short degree window.
    x_min, alpha, gamma, k_last = request.param
    params = ModelParams(10000, 10000, 1.0, Pareto(x_min, alpha), Pareto(x_min, gamma))
    ks = list(range(3, k_last + 1))
    laws = th.adaptive_limit_laws(params, k_last, GRID_CAP)
    adaptive = th.theory_curve(params, ks, k_max=GRID_CAP)
    capped = th._curve_rows(LimitLaws(params, k_max=GRID_CAP), ks)
    return laws, adaptive, capped


def test_adaptive_grid_stays_below_cap(adaptive_vs_cap):
    laws, adaptive, capped = adaptive_vs_cap
    assert laws.k_max < GRID_CAP
    assert [row.k for row in adaptive] == [row.k for row in capped]


def test_adaptive_grid_keeps_point_predictions(adaptive_vs_cap):
    _, adaptive, capped = adaptive_vs_cap
    for got, ref in zip(adaptive, capped):
        assert got.asymptotic == ref.asymptotic, got.k
        assert got.a == ref.a and got.b == ref.b, got.k
        assert got.c_pred == ref.c_pred, got.k


def record_builds(monkeypatch):
    sizes = []
    build = th.LimitLaws

    def recording(params, k_max, tol=1e-10):
        sizes.append(k_max)
        return build(params, k_max, tol)

    monkeypatch.setattr(th, "LimitLaws", recording)
    return sizes


def test_theory_curve_makes_one_build(monkeypatch):
    sizes = record_builds(monkeypatch)
    windows = [
        (ModelParams(10, 10, 1.0, Degenerate(1.1), Degenerate(0.9)), range(2, 13), 64),
        (pareto_params(7.0, 6.0), range(3, 16), 64),
        (ModelParams(10000, 10000, 1.0, Pareto(2.0, 7.0), Pareto(2.0, 6.0)), range(3, 51), 128),
        # E[tau] = 0.36: the counts run on a longer grid, the sums do not.
        (pareto_params(7.0, 6.0, beta=16.0), range(2, 51), 128),
        # Past the numeric rows: still one build, on the window's grid.
        (pareto_params(7.0, 6.0), list(range(2, 40)) + [250, 300], 1024),
    ]
    for params, ks, size in windows:
        sizes.clear()
        rows = th.theory_curve(params, ks)
        assert sizes == [size]
        assert [row.k for row in rows] == list(ks)
    assert rows[-1].asymptotic


def test_adaptive_grid_covers_twice_the_last_degree(monkeypatch):
    # The smallest power of two covering 2 * (k_last - 2), at least 64 and
    # at most the cap.
    sizes = record_builds(monkeypatch)
    params = ModelParams(10, 10, 1.0, Degenerate(1.1), Degenerate(0.9))
    for k_last in (2, 12, 34):
        assert th.adaptive_limit_laws(params, k_last).k_max == 64
    assert th.adaptive_limit_laws(params, 35).k_max == 128
    assert th.adaptive_limit_laws(params, 50).k_max == 128
    assert th.adaptive_limit_laws(params, 12, 40).k_max == 40
    assert th.adaptive_limit_laws(params, 50, 100).k_max == 100
    assert sizes == [64, 64, 64, 128, 128, 40, 100]


#: The two benchmark windows, the three acceptance pairs over k 2..50, and two
#: pairs with E[tau] below 1 (beta = 16, and a smaller attribute x_min), whose
#: counts reach the last degree only past the sums' grid.
ONE_GRID_WINDOWS = {
    "theory-dense": (1.0, Pareto(2.0, 7.0), Pareto(2.0, 6.0), range(3, 51)),
    "compare-sparse": (1.0, Pareto(1.0, 7.0), Pareto(1.0, 6.0), range(3, 16)),
    "pareto(1,9)/(1,5.5)": (1.0, Pareto(1.0, 9.0), Pareto(1.0, 5.5), range(2, 51)),
    "pareto(1,7)/(1,6)": (1.0, Pareto(1.0, 7.0), Pareto(1.0, 6.0), range(2, 51)),
    "pareto(1,6.6)/(1,5.1)": (1.0, Pareto(1.0, 6.6), Pareto(1.0, 5.1), range(2, 51)),
    "beta=16 pareto(1,7)/(1,6)": (16.0, Pareto(1.0, 7.0), Pareto(1.0, 6.0), range(2, 51)),
    "pareto(0.5,7)/(1,6)": (1.0, Pareto(0.5, 7.0), Pareto(1.0, 6.0), range(2, 51)),
}


@pytest.mark.parametrize("window", list(ONE_GRID_WINDOWS))
def test_adaptive_grid_intervals_overlap_fine_build(window):
    # On the one grid every row keeps the cap build's point values and
    # switch; each A/B interval is no wider than the cap build's plus 1e-5 of
    # its own lower end, and each A/B/C_pred interval overlaps that of a finer
    # build at tol 1e-13, up to 1e-9 relative: the intervals bound the
    # off-grid mass, not the quadrature error of the grid masses, by which B
    # of the beta = 16 pair misses the finer build by up to 2e-10 relative.
    beta, x_law, y_law, ks = ONE_GRID_WINDOWS[window]
    params = ModelParams(10000, round(10000 * beta), beta, x_law, y_law)
    ks = list(ks)
    rows = th.theory_curve(params, ks, k_max=GRID_CAP)
    capped = th._curve_rows(LimitLaws(params, k_max=GRID_CAP), ks)
    fine = th._curve_rows(LimitLaws(params, k_max=GRID_CAP, tol=1e-13), ks)
    assert [row.k for row in rows] == ks and not any(row.asymptotic for row in capped)
    for got, ref, fine_row in zip(rows, capped, fine):
        assert got.asymptotic == ref.asymptotic, got.k
        assert (got.a, got.b, got.c_pred) == (ref.a, ref.b, ref.c_pred), got.k
        for iv, ref_iv in ((got.A, ref.A), (got.B, ref.B)):
            assert iv.width <= ref_iv.width + 1e-5 * iv.lo, got.k
        for iv, fine_iv in ((got.A, fine_row.A), (got.B, fine_row.B),
                            (got.C_pred, fine_row.C_pred)):
            slack = 1e-9 * fine_iv.hi
            assert iv.lo <= fine_iv.hi + slack and fine_iv.lo <= iv.hi + slack, got.k


def test_counts_run_on_a_grid_a_sum_of_them_leaves():
    # The counts' grid is long enough that the sum of that many tau has mean
    # at least twice the sums' grid: E[tau] = 1.44 at beta = 1 and 0.36 at
    # beta = 16 for pareto(1,7)/(1,6), and 5.76 for pareto(2,7)/(2,6).  At
    # most 64 times the sums' grid: E[tau] = 1e-4 for the degenerate pair.
    cases = [(pareto_params(7.0, 6.0), 178), (pareto_params(7.0, 6.0, beta=16.0), 712),
             (ModelParams(100, 100, 1.0, Pareto(2.0, 7.0), Pareto(2.0, 6.0)), 128),
             (ModelParams(100, 100, 1.0, Degenerate(1e-4), Degenerate(1.0)), 8192)]
    for params, count_k_max in cases:
        assert LimitLaws(params, 128).count_k_max == count_k_max


def test_one_grid_keeps_the_asymptotic_switch():
    # Over k 2..300 the default law pair builds 1024 entries, not the 4096
    # cap, and turns asymptotic at k = 224, as the cap build does.  Row 223
    # is numeric with A 9.9 % wide, close to the 10 % switch.
    rows = th.theory_curve(pareto_params(7.0, 6.0), range(2, 301))
    assert next(row.k for row in rows if row.asymptotic) == 224
