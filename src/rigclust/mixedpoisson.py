"""Mixed Poisson laws with size-biasing, evaluated to controlled accuracy.

Throughout the workbench the local structure of the intersection graph is
described by integer laws of the form

    P(value = s) = E[ exp(-rate) * rate**(s + r) ] / (s! * E[rate**r]),

i.e. a Poisson law whose rate ``rate = scale * W`` is random (``W`` follows a
:data:`~rigclust.weights.WeightLaw`), tilted by ``rate**r``.  The order-``r``
tilt is the familiar size-biasing: the same law is obtained by mixing a plain
Poisson over the ``r``-size-biased weight law, which is also how sampling and
the quadrature below are organised.

Numeric pmfs are carried by :class:`Pmf`: a dense mass array on ``0..k_max``
plus bounds ``tail_lo <= P(value > k_max) <= tail_mass``.  Downstream
convolution code propagates both, so every tail probability read off a pmf
comes with a two-sided interval certificate.

Quadrature
----------
For a continuous (Pareto) mixing law the masses are integrals over the weight
line.  They are computed with fixed-order Gauss-Legendre panels subdivided by
two rules: panels must resolve the power-law/exponential variation of the
mixing density, and -- crucially for deep-tail accuracy -- they must be no
wider than the standard deviation of the Poisson kernel centred on the panel,
so that every entry ``s`` keeps full *relative* precision, not merely the
absolute ``tol`` demanded by the error estimator.  Each panel is accepted only
if a bisected re-evaluation agrees within its error budget; the subdivision
rule is deterministic, so results are bit-identical no matter how callers
partition work.

A panel's Poisson kernel depends on the weight law, its scale and the grid,
not on the bias order, so :func:`pmf_mixed_poissons` integrates several bias
orders of one weight law and scale on one grid in lockstep
(``theory.LimitLaws`` makes one call per weight side).  A panel and its two
halves each get one kernel block and one upper-tail evaluation, shared by
every law that uses them.  Every law keeps its own panel edges, node weights,
error budget, accept/refine decisions, order of additions and
:class:`QuadratureError`, so each mass and tail is bit for bit what the law
gets alone.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .weights import DomainError, Finite, ModelParams, Pareto, WeightLaw

__all__ = [
    "Pmf",
    "MixingSpec",
    "QuadratureError",
    "mixing_spec",
    "pmf_mixed_poisson",
    "pmf_mixed_poissons",
    "pmf_offspring",
    "sample_biased",
]

#: Tolerance on |sum(mass) + tail_mass - 1| accepted by Pmf.validate.
NORMALIZATION_ATOL = 1e-9


class QuadratureError(RuntimeError):
    """Raised when panel refinement cannot reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on 0..k_max with explicit tail bounds.

    ``mass[s]`` approximates P(value = s); ``tail_lo <= P(value > k_max) <=
    tail_mass`` (up to the numerical tolerance the producer guarantees), so
    mass that could lie anywhere is in ``tail_mass`` alone.  Instances are
    immutable; the mass array is marked read-only.
    """

    mass: np.ndarray
    tail_mass: float = 0.0
    tail_lo: float = 0.0

    def __post_init__(self):
        mass = np.ascontiguousarray(np.asarray(self.mass, dtype=np.float64))
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "tail_mass", float(self.tail_mass))
        object.__setattr__(self, "tail_lo", float(self.tail_lo))
        self.validate()

    def validate(self) -> None:
        if self.mass.ndim != 1 or self.mass.size == 0:
            raise ValueError("mass must be a nonempty 1-D array")
        if not np.all(np.isfinite(self.mass)):
            raise ValueError("mass entries must be finite")
        if self.mass.min() < 0.0:
            raise ValueError(f"negative mass entry {self.mass.min()}")
        if not (0.0 <= self.tail_mass <= 1.0 + NORMALIZATION_ATOL):
            raise ValueError(f"tail_mass {self.tail_mass} outside [0, 1]")
        if not (0.0 <= self.tail_lo <= self.tail_mass):
            raise ValueError(f"tail_lo {self.tail_lo} outside [0, tail_mass]")
        total = math.fsum(self.mass) + self.tail_mass
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"mass + tail_mass = {total}, expected 1 within "
                             f"{NORMALIZATION_ATOL}")

    @property
    def k_max(self) -> int:
        return self.mass.size - 1

    @classmethod
    def point(cls, k: int, k_max: int | None = None) -> "Pmf":
        """Point mass at integer k."""
        size = (k if k_max is None else k_max) + 1
        if not 0 <= k < size:
            raise ValueError("point outside grid")
        mass = np.zeros(size)
        mass[k] = 1.0
        return cls(mass)

    def mean(self) -> float:
        """Grid part of the mean; a lower bound when tail_mass > 0."""
        return float(np.arange(self.mass.size) @ self.mass)


@dataclass(frozen=True)
class MixingSpec:
    """A mixed Poisson law: rate = scale * W, tilted by rate**bias_order."""

    weight_law: WeightLaw
    scale: float
    bias_order: int = 0

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not isinstance(self.bias_order, (int, np.integer)) or self.bias_order < 0:
            raise ValueError(f"bias_order must be a nonnegative integer, "
                             f"got {self.bias_order!r}")
        object.__setattr__(self, "bias_order", int(self.bias_order))
        # The tilt must be normalisable.
        self.weight_law.moment(self.bias_order)


def mixing_spec(params: ModelParams, role: str, bias_order: int = 0) -> MixingSpec:
    """Mixing spec for the two local count laws of the model.

    ``role='actor'`` gives the law counting attributes around one actor:
    rate = Y * sqrt(beta) * E[X].  ``role='attribute'`` gives the law counting
    actors on one attribute: rate = X * E[Y] / sqrt(beta).  Both use the
    limiting shape ratio ``beta``, not the finite-size ratio m/n.  Both raise
    :class:`DomainError` unless E[X] E[Y] > 0: otherwise no actor meets an
    attribute and the offspring law is undefined.
    """
    if params.a(1) * params.b(1) <= 0.0:
        raise DomainError("offspring law undefined: E[N] = 0 "
                          "(a weight law is degenerate at zero)")
    if role == "actor":
        return MixingSpec(params.y_law, math.sqrt(params.beta) * params.a(1), bias_order)
    if role == "attribute":
        return MixingSpec(params.x_law, params.b(1) / math.sqrt(params.beta), bias_order)
    raise ValueError(f"role must be 'actor' or 'attribute', got {role!r}")


# ---------------------------------------------------------------------------
# Poisson kernels
# ---------------------------------------------------------------------------

#: log(s!) for s = 0..11: the log of the exact product, as cephes ``lgam``
#: (scipy's ``gammaln``) takes it below x = 13.
_LOG_FACT_SMALL = np.array([math.log(math.factorial(s)) for s in range(12)])
#: Stirling-series coefficients of cephes ``lgam`` for 13 <= x < 1000.
_STIRLING_COEFS = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
                   7.93650340457716943945E-4, -2.77777777730099687205E-3,
                   8.33333333333331927722E-2)
#: log(sqrt(2 pi)) as cephes ``lgam`` spells it.
_LOG_SQRT_2PI = 0.91893853320467274178
#: Log of the smallest positive double: leading masses below it are zero.
_LOG_SUBNORMAL = math.log(np.finfo(np.float64).smallest_subnormal)
#: Log of the relative size of the last term a tail series sums.
_LOG_SERIES_CUT = -40.0


def _stirling_correction(x: float | np.ndarray) -> float | np.ndarray:
    """lgam(x) - ((x - 1/2) log x - x + log sqrt(2 pi)) for x >= 13, summed
    as cephes ``lgam`` sums it."""
    p = 1.0 / (x * x)
    series = _STIRLING_COEFS[0] * p + _STIRLING_COEFS[1]
    for c in _STIRLING_COEFS[2:]:
        series = series * p + c
    far = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p \
        + 0.0833333333333333333333
    return np.where(x < 1000.0, series, far) / x


def _log_factorials(k_max: int) -> np.ndarray:
    """log(s!) for s = 0..k_max, bit-identical to ``gammaln(s + 1)``.

    Below s = 12 these are logs of exact factorials; from there (x = s + 1 >=
    13) this is the Stirling branch of cephes ``lgam``, operation for
    operation, so every entry on grids up to 8192 equals scipy's.
    """
    s = np.arange(k_max + 1)
    x = s + 1.0
    stirling = (x - 0.5) * np.log(x) - x + _LOG_SQRT_2PI + _stirling_correction(x)
    return np.where(s < 12, _LOG_FACT_SMALL[np.minimum(s, 11)], stirling)


def _log_mass_offset(k: int) -> float:
    """log(k!) + x - k log(x) with x = k + 1, so that log P(Poisson(rate) = k)
    is k log(rate / x) - (rate - x) minus this.  From k = 12 on it comes from
    the Stirling form of log(k!), in which the k log(x) terms cancel."""
    x = k + 1.0
    if k < 12:
        return float(_LOG_FACT_SMALL[k] + x - k * math.log(x))
    return 0.5 * math.log(x) + _LOG_SQRT_2PI + float(_stirling_correction(x))


def _poisson_rows(rates: np.ndarray, s_lo: int, s_hi: int, log_fact: np.ndarray,
                  index: np.ndarray) -> np.ndarray:
    """Matrix of Poisson masses, rows over rates, columns s_lo..s_hi.

    Rates must be positive and ``index`` holds 0.0, 1.0, ... as floats.  The
    block is built in log space, in place, so huge rates and deep tails
    underflow cleanly to zero instead of overflowing; callers hold
    ``np.errstate(under="ignore")``.
    """
    block = np.multiply(np.log(rates)[:, None], index[s_lo:s_hi + 1])
    block -= rates[:, None]
    block -= log_fact[s_lo:s_hi + 1]
    return np.exp(block, out=block)


def _poisson_upper_tail(k_max: int, rates: np.ndarray) -> np.ndarray:
    """P(Poisson(rate) > K) for K = k_max and positive rates.

    The relative error is within the margin of :func:`_tail_bounds`.  Each
    series starts from a leading mass taken in log space.  For rate <= K + 1
    the tail is p(K+1) * sum_j prod_{i<=j} rate/(K+1+i), plus a geometric
    bound on the terms left out; above K + 1 it is 1 - p(K) * sum_j
    prod_{i<j} (K-i)/rate.  A series stops once the terms of its slowest row are below
    e**-40; a row whose leading mass underflows is 0 (or 1) without summing.
    """
    k = int(k_max)
    x = k + 1.0
    rates = np.asarray(rates, dtype=np.float64)
    low = rates <= x
    out = np.where(low, 0.0, 1.0)
    with np.errstate(divide="ignore", under="ignore"):
        # log p(K), plus log(rate / x) = log(p(K+1) / p(K)) on the low rows.
        log_q = np.log(rates / x)
        log_lead = (k + low) * log_q - (rates - x) - _log_mass_offset(k)
        live = log_lead > _LOG_SUBNORMAL
        # Within this many terms every series falls below e**-40.
        j = np.arange(1.0, 41.0 + math.sqrt(1600.0 + 80.0 * x))
        rows = low & live
        if rows.any():
            # log of term j: j log(rate / x) - sum_{i<=j} log(1 + i/x); the
            # largest rate has the slowest series.
            q = log_q[rows]
            d = np.cumsum(np.log1p(j / x))
            n = np.count_nonzero(j * q.max() - d >= _LOG_SERIES_CUT) + 1
            terms = np.exp(j[:n, None] * q - d[:n, None])
            last = rates[rows] / (x + 1.0 + len(terms))  # at least every ratio left out
            series = terms.sum(axis=0) + terms[-1] * last / (1.0 - last)
            out[rows] = np.exp(log_lead[rows] + np.log1p(series))
        rows = ~low & live
        if rows.any():
            # log of term j: sum_{i<=j} log(1 - i/x) - j log(rate / x); the
            # smallest rate has the slowest series.
            q = log_q[rows]
            d = np.cumsum(np.log1p(-np.minimum(j, x) / x))
            n = np.count_nonzero(d - j * q.min() >= _LOG_SERIES_CUT) + 1
            terms = np.exp(d[:n, None] - j[:n, None] * q)
            out[rows] = 1.0 - np.exp(log_lead[rows] + np.log1p(terms.sum(axis=0)))
    return out


def _tail_bounds(tail: float, k_max: int) -> tuple[float, float]:
    """Lower and upper bounds on the true value of a sum ``tail`` of
    :func:`_poisson_upper_tail` values with nonnegative weights, from the
    relative margin (K + 1000) * 1e-15.  Against 60-digit sums, every tail
    above 1e-300 for K up to 65536 is within a tenth of that margin; the
    error comes from the log-space leading mass."""
    margin = (k_max + 1000) * 1e-15
    return tail * (1.0 - margin), tail * (1.0 + margin)


def _chernoff_tail(k_max: int, rate: float) -> float:
    """Lower bound on P(Poisson(rate) > K) for K >= 1: Chernoff gives
    P(Poisson(rate) <= K) <= exp(K - rate) (rate / K)**K once rate > K."""
    if rate <= k_max:
        return 0.0
    return -math.expm1(k_max - rate + k_max * math.log(rate / k_max))


def _support_window(rate_lo: float, rate_hi: float) -> tuple[int, int]:
    """Index range outside which Poisson(rate) mass underflows for these rates;
    the upper end is not clipped to any grid."""
    spread_lo = 42.0 * math.sqrt(rate_lo + 1.0) + 60.0
    spread_hi = 42.0 * math.sqrt(rate_hi + 1.0) + 60.0
    return max(0, int(rate_lo - spread_lo)), int(rate_hi + spread_hi) + 1


# ---------------------------------------------------------------------------
# Atomic mixing laws: exact finite mixtures
# ---------------------------------------------------------------------------

def _atomic_mixture(law: Finite, scale: float, r: int, k_max: int) -> Pmf:
    log_fact = _log_factorials(k_max)
    index = np.arange(k_max + 1.0)
    mass = np.zeros(k_max + 1)
    tail = 0.0
    for v, q in law.size_biased(r).atoms:
        if q == 0.0:
            continue
        rate = scale * v
        if rate == 0.0:
            mass[0] += q
            continue
        rate_arr = np.array([rate])
        mass += q * _poisson_rows(rate_arr, 0, k_max, log_fact, index)[0]
        tail += q * float(_poisson_upper_tail(k_max, rate_arr)[0])
    lo, hi = _tail_bounds(tail, k_max)
    return Pmf(mass, hi, lo)


# ---------------------------------------------------------------------------
# Pareto mixing laws: deterministic adaptive panel quadrature, in lockstep
# ---------------------------------------------------------------------------

_MAX_DEPTH = 14


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 24-point Gauss-Legendre nodes and weights on [-1, 1], built on
    first use, so a command that runs no quadrature never imports
    ``numpy.polynomial``.  Read-only: every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panel_widths(w: float, scale: float, ridge_end: float) -> float:
    """Local panel width: resolve the Poisson ridge while under it, then grow
    geometrically once every remaining grid entry sits in the left Poisson
    tail (smooth in w).  The floor is relative to w, so panels shrink with a
    tiny x_min."""
    if w < ridge_end:
        ridge = math.sqrt(scale * w + 1.0) / scale
        return max(min(0.5 * w, ridge), 1e-12 * w)
    return 0.5 * w


class _Job:
    """One law of a lockstep quadrature: its top-level panels and running sums."""

    def __init__(self, law: Pareto, scale: float, r: int, k_max: int, tol: float):
        biased = law.size_biased(r)
        x0, a = biased.x_min, biased.tail_index
        try:
            # The density factors peak at x0; math.pow raises where numpy's
            # power in the panels would give inf.
            math.pow(x0, a)
            math.pow(x0, -a - 1.0)
        except OverflowError:
            raise DomainError(f"weight scale out of range: the order-{r} Pareto density "
                              f"overflows at x_min = {x0!r}") from None
        # Cut the weight line where (i) the biased mixing tail is negligible
        # and (ii) every Poisson ridge for entries s <= k_max has been passed.
        tail_eps = min(tol, 1e-12)
        w_tail = x0 * tail_eps ** (-1.0 / a)
        ridge_end = (k_max + 8.0 * math.sqrt(k_max + 1.0) + 16.0) / scale
        w_cut = max(w_tail, ridge_end * 1.0001)
        edges = [x0]
        while edges[-1] < w_cut:
            edges.append(min(w_cut, edges[-1] + _panel_widths(edges[-1], scale, ridge_end)))

        self.amplitude, self.power = a * x0**a, -a - 1.0
        self.panels = set(zip(edges[:-1], edges[1:]))
        self.budget = tol / (8.0 * (len(edges) - 1))
        self.mass = np.zeros(k_max + 1)
        self.tail = self.err = 0.0
        # Mass that mixes from weights beyond w_cut: bounded by the biased
        # tail there, and (by the ridge cut) it lands beyond k_max, so it
        # belongs to tail_mass; tail_lo gets the share Poisson(scale * w_cut)
        # puts there, as the Poisson tail grows with the rate.
        self.beyond = biased.tail(w_cut)
        self.beyond_lo = self.beyond * _chernoff_tail(k_max, scale * w_cut)


class _Panel(NamedTuple):
    """What a panel's jobs share: nodes, rates and one Poisson kernel block."""

    weights: np.ndarray  # half-width times the Gauss-Legendre weights
    w: np.ndarray
    rates: np.ndarray
    s_lo: int
    block: np.ndarray | None  # columns s_lo.. of the window clipped to the grid


def _panel(lo: float, hi: float, scale: float, k_max: int, log_fact: np.ndarray,
           index: np.ndarray) -> _Panel:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes, weights = _gauss_legendre()
    w = mid + half * nodes
    rates = scale * w
    # Window from the panel *endpoints* so a child's window nests in its
    # parent's (node positions alone would not nest).
    s_lo, s_hi = _support_window(scale * lo, scale * hi)
    s_hi = min(s_hi, k_max)
    block = _poisson_rows(rates, s_lo, s_hi, log_fact, index) if s_lo <= s_hi else None
    return _Panel(half * weights, w, rates, s_lo, block)


def _job_panel(job: _Job, panel: _Panel) -> tuple[int, np.ndarray, np.ndarray]:
    """Grid masses of one job over one panel, from index ``s_lo`` on, and its
    node weights."""
    coef = panel.weights * job.amplitude * panel.w ** job.power
    if panel.block is None:  # entire Poisson bulk is beyond the grid
        return 0, np.zeros(0), coef
    return panel.s_lo, coef @ panel.block, coef


def _pareto_mixtures(law: Pareto, scale: float, orders: list[int], k_max: int,
                     tol: float) -> list[Pmf]:
    """Pmfs on ``0..k_max`` of the laws of the given bias orders of one
    Pareto law and scale, integrated in lockstep."""
    states = [_Job(law, scale, r, k_max, tol) for r in orders]
    log_fact = _log_factorials(k_max)
    index = np.arange(k_max + 1.0)
    n = _gauss_legendre()[0].size

    def settle(lo: float, mid: float, hi: float,
               jobs: list[_Job]) -> list[tuple[int, np.ndarray, float, float]]:
        """Per job: the start and masses of the two halves of [lo, hi] on the
        parent window, their tail mass and the panel's error estimate.  The
        kernel blocks die on return, before :func:`refine` recurses."""
        panels = [_panel(a, b, scale, k_max, log_fact, index)
                  for a, b in ((lo, hi), (lo, mid), (mid, hi))]
        t = _poisson_upper_tail(k_max, np.concatenate([panel.rates for panel in panels]))
        out = []
        for job in jobs:
            (s_lo_p, mass_p, coef_p), (s_lo_1, mass_1, coef_1), (s_lo_2, mass_2, coef_2) = (
                _job_panel(job, panel) for panel in panels)
            tail_p = float(coef_p @ t[:n])
            tail_1 = float(coef_1 @ t[n:2 * n])
            tail_2 = float(coef_2 @ t[2 * n:])

            # Children windows nest inside the parent's; compare on the parent window.
            fine = np.zeros_like(mass_p)
            if mass_1.size:
                fine[s_lo_1 - s_lo_p:s_lo_1 - s_lo_p + mass_1.size] += mass_1
            if mass_2.size:
                fine[s_lo_2 - s_lo_p:s_lo_2 - s_lo_p + mass_2.size] += mass_2
            err_mass = float(np.max(np.abs(fine - mass_p))) if mass_p.size else 0.0
            out.append((s_lo_p, fine, tail_1 + tail_2,
                        max(err_mass, abs(tail_1 + tail_2 - tail_p))))
        return out

    def refine(lo: float, hi: float, active: list[tuple[_Job, float]], depth: int) -> None:
        mid = 0.5 * (lo + hi)
        recurse = []
        for (job, budget), (s_lo, fine, tail, panel_err) in zip(
                active, settle(lo, mid, hi, [job for job, _ in active])):
            if panel_err <= budget or depth >= _MAX_DEPTH:
                if fine.size:
                    job.mass[s_lo:s_lo + fine.size] += fine
                job.tail += tail
                job.err += panel_err
                # The bound only grows, so fail as soon as it passes tol.
                if job.err > tol:
                    raise QuadratureError(
                        f"panel refinement reached depth {_MAX_DEPTH} with accumulated "
                        f"error bound {job.err:.3e} > tol {tol:.3e}", achieved=job.err)
            else:
                recurse.append((job, 0.5 * budget))
        if recurse:
            refine(lo, mid, recurse, depth + 1)
            refine(mid, hi, recurse, depth + 1)

    # Sorted by their left ends, every job meets its own panels in order.
    for lo, hi in sorted(set().union(*(job.panels for job in states))):
        refine(lo, hi, [(job, job.budget) for job in states if (lo, hi) in job.panels], 0)
    # tail_lo: the tail integral less its error estimate and relative error.
    pmfs = []
    for job in states:
        lo, hi = _tail_bounds(job.tail, k_max)
        pmfs.append(Pmf(job.mass, hi + job.beyond, max(lo - job.err + job.beyond_lo, 0.0)))
    return pmfs


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------

def pmf_mixed_poissons(specs: Sequence[MixingSpec], k_max: int,
                       tol: float = 1e-10) -> list[Pmf]:
    """Numeric pmfs on ``0..k_max`` of several mixed Poisson laws of one
    weight law and scale.

    The specs differ at most in their bias order; each pmf is bit for bit the
    one :func:`pmf_mixed_poisson` gives for its spec alone.  For Pareto
    mixing the laws are integrated in lockstep: a panel that several of them
    use gets one Poisson kernel block and one upper-tail evaluation, while
    every law keeps its own panels, error budget, accept/refine decisions and
    order of additions.
    """
    if not specs:
        return []
    law, scale = specs[0].weight_law, specs[0].scale
    if any(spec.weight_law != law or spec.scale != scale for spec in specs):
        raise ValueError("specs must share one weight law and scale")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    k_max = int(k_max)
    orders = [spec.bias_order for spec in specs]
    with np.errstate(under="ignore"):
        if isinstance(law, Pareto):
            return _pareto_mixtures(law, scale, orders, k_max, tol)
        return [_atomic_mixture(law, scale, r, k_max) for r in orders]


def pmf_mixed_poisson(spec: MixingSpec, k_max: int, tol: float = 1e-10) -> Pmf:
    """Numeric pmf of the size-biased mixed Poisson law on ``0..k_max``.

    Entry ``s`` equals ``E[exp(-rate) rate**(s+r)] / (s! E[rate**r])`` with
    ``rate = scale * W`` and ``r = spec.bias_order``, to absolute accuracy
    ``tol`` per entry (and, for Pareto mixing, near-full relative accuracy
    thanks to ridge-resolving panels).  The grid is exactly the one asked
    for; ``tail_lo`` and ``tail_mass`` bound the mass beyond ``k_max``,
    however large.  This is the one-law case of :func:`pmf_mixed_poissons`.
    """
    return pmf_mixed_poissons([spec], k_max, tol)[0]


def pmf_offspring(params: ModelParams, k_max: int, tol: float = 1e-10) -> Pmf:
    """Law of the extra actors met through one shared attribute.

    If N counts the actors on an attribute (the 'attribute' mixed Poisson law),
    the attribute reached by following a random link shows N size-biased, and
    the actors beyond the one we came from number  tau = N_sb - 1:

        P(tau = s) = (s + 1) P(N = s + 1) / E[N].

    Size-biasing a Poisson count biases its rate, so tau is the order-1
    attribute law (:func:`mixing_spec`), and that is how it is computed: its
    tail bound comes from the quadrature.  The tests check the shift formula
    against it.
    """
    return pmf_mixed_poisson(mixing_spec(params, "attribute", 1), k_max, tol)


def sample_biased(spec: MixingSpec, rng: np.random.Generator, size=None):
    """Draw from the size-biased mixed Poisson law.

    Uses the mixture identity: tilt the weight law by bias_order, then draw
    Poisson(scale * W).  Returns a python int for size=None, else an int64
    array.
    """
    biased = spec.weight_law.size_biased(spec.bias_order)
    w = biased.sample(rng, size)
    draws = rng.poisson(spec.scale * np.asarray(w, dtype=np.float64))
    if size is None:
        return int(draws)
    return draws
