"""Mixed Poisson laws with size-biasing, evaluated to controlled accuracy.

Throughout the workbench the local structure of the intersection graph is
described by integer laws of the form

    P(value = s) = E[ exp(-rate) * rate**(s + r) ] / (s! * E[rate**r]),

i.e. a Poisson law whose rate ``rate = scale * W`` is random (``W`` follows a
:data:`~rigclust.weights.WeightLaw`), tilted by ``rate**r``.  The order-``r``
tilt is the familiar size-biasing: the same law is obtained by mixing a plain
Poisson over the ``r``-size-biased weight law, which is also how sampling and
the closed form below are organised.

Numeric pmfs are carried by :class:`Pmf`: a dense mass array on ``0..k_max``
plus bounds ``tail_lo <= P(value > k_max) <= tail_mass``.  Downstream
convolution code propagates both, so every tail probability read off a pmf
comes with a two-sided interval certificate.

Pareto mixtures
---------------
For a Pareto mixing law the masses have a closed form.  The rate of the
order-r law is Pareto on [z, inf), z = scale * x_min, with tail index a =
``tail_index - r``, so P(value = s) = a z**a Gamma(s - a, z) / s!: the
upper incomplete gamma function (DLMF 8.2), run forward by its recurrence
from where both terms of a step are nonnegative, and taken directly below
that (the series DLMF 8.7.3 for z < 2, the continued fraction DLMF 8.9.2
otherwise).  The masses are exact to rounding, and the mass beyond the grid
is the Poisson tail at z plus a multiple of the first mass past the grid;
see :func:`_pareto_mixture`.  A Finite mixing law is a finite sum of Poisson
masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import DomainError, Finite, ModelParams, Pareto, WeightLaw

__all__ = [
    "Pmf",
    "MixingSpec",
    "mixing_spec",
    "pmf_mixed_poisson",
    "pmf_offspring",
    "sample_biased",
]

#: Tolerance on |sum(mass) + tail_mass - 1| accepted by Pmf.validate.
NORMALIZATION_ATOL = 1e-9


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
    """Lower and upper bounds on the true value of a tail ``tail`` beyond
    ``k_max``, from the relative margin (K + 1000) * 1e-15 and an absolute
    slack of four smallest normal doubles.

    The tail is a sum of :func:`_poisson_upper_tail` values with nonnegative
    weights, plus, for Pareto mixing, (K + 1) m(K + 1) / a from the recurrence
    of :func:`_pareto_mixture`.  Against 60-digit sums, every Poisson tail
    above 1e-300 for K up to 65536 is within a tenth of the margin; the error
    comes from the log-space leading mass.  A step of the recurrence adds two
    nonnegative terms, so m(s + 1) carries the relative error of m(s) plus
    about 4 ulp (the coefficient, the product, the sum), or that of its
    log-space Poisson term if larger; over K steps that is below K * 1e-15,
    and the start values, within 1.5e-13, stay below the constant part.
    The slack covers tails in the subnormal range, which carry fewer digits.
    """
    margin = (k_max + 1000) * 1e-15
    slack = 4.0 * np.finfo(np.float64).tiny
    return max(tail * (1.0 - margin) - slack, 0.0), tail * (1.0 + margin) + slack


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
# Pareto mixing laws: the incomplete-gamma closed form
# ---------------------------------------------------------------------------

#: Euler's constant.
_EULER_GAMMA = 0.5772156649015329


def _log_gamma_1p(eps: float) -> float:
    """ln Gamma(1 + eps) for 0 < |eps| <= 1/2, to full relative accuracy
    however small eps is: the zeta series -log1p(eps) + (1 - gamma) eps +
    sum_{k>=2} (zeta(k) - 1) (-eps)**k / k, with each zeta(k) - 1 summed over
    j < 128 plus its Euler-Maclaurin tail."""
    k = np.arange(2.0, 40.0)
    n = 128.0
    zeta_1 = ((np.arange(2.0, n)[:, None] ** -k).sum(axis=0) + n ** (1.0 - k) / (k - 1.0)
              + 0.5 * n ** -k + k * n ** (-k - 1.0) / 12.0
              - k * (k + 1.0) * (k + 2.0) * n ** (-k - 3.0) / 720.0)
    return -math.log1p(eps) + (1.0 - _EULER_GAMMA) * eps + float(zeta_1 @ ((-eps) ** k / k))


def _gamma_cf(nu: float, z: float) -> float:
    """e**z z**-nu Gamma(nu, z) for z >= 2 > nu: Legendre's continued fraction
    (DLMF 8.9.2) in its even form, by modified Lentz (Press et al.,
    *Numerical Recipes*, section 6.2)."""
    tiny = 1e-300
    b = z + 1.0 - nu
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 100_000):
        an = -i * (i - nu)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= c * d
        if abs(c * d - 1.0) <= 2.3e-16:
            break
    return h


def _pareto_start(a: float, z: float, s_hi: int, log_fact: np.ndarray) -> list[float]:
    """a z**a Gamma(s - a, z) / s! for s = 0..s_hi, one by one.

    For z >= 2 this is the continued fraction.  Below 2 it is the series
    (DLMF 8.7.3) z**a Gamma(nu, z) = z**a Gamma(nu) - sum_k (-1)**k
    z**(s+k) / (k! (nu + k)), nu = s - a, on the powers z**j / j!, which
    neither overflow nor lose digits in log space.  The term at the pole -n
    of Gamma nearest nu (n = round(a) - s, so nu + n = eps = round(a) - a) is
    folded into z**a Gamma(nu): with g(eps) = Gamma(1 + eps) prod_{j<=n}
    j / (j - eps), both are z**(s+n) (-1)**n / n! times expm1(ln g(eps) -
    eps ln z) / eps, which is psi(n + 1) - ln z at eps = 0 (an integer a).
    """
    log_z = math.log(z)
    if z >= 2.0:
        return [math.exp(math.log(a) + s * log_z - z - log_fact[s]) * _gamma_cf(s - a, z)
                for s in range(s_hi + 1)]
    top = round(a)
    eps = top - a
    log_g1 = _log_gamma_1p(eps) if eps else 0.0
    # z**j / j! for j < s_hi + 40; at z < 2, terms past k = 40 are below
    # 2**40 / 40! of the first.
    power = np.cumprod(np.concatenate(([1.0], z / np.arange(1.0, s_hi + 40.0)))).tolist()
    k = np.arange(40)
    s = np.arange(s_hi + 1)[:, None]
    terms = (np.where(k % 2, -1.0, 1.0) * np.array(power[:40])
             / np.where(k == top - s, np.inf, s - a + k))
    out = []
    for v, row in enumerate(terms):
        n = top - v
        if n < 0:  # nu > 1/2: no pole nearby; z**a / v! is z**(1 - nu) z**(v-1) / v!
            head = power[v - 1] / v * math.exp(math.lgamma(v - a) + (1.0 + a - v) * log_z)
        elif eps:
            x = log_g1 - math.fsum(math.log1p(-eps / j) for j in range(1, n + 1)) - eps * log_z
            # (e**x - 1) / eps, with e**max(x, 0) taken apart.
            head = (-1) ** n * power[v] * power[n] * math.exp(max(x, 0.0)) \
                * math.copysign(-math.expm1(-abs(x)), x) / eps
        else:
            head = (-1) ** n * power[v] * power[n] * (
                math.fsum(1.0 / j for j in range(1, n + 1)) - _EULER_GAMMA - log_z)
        out.append(a * (head - power[v] * math.fsum(row)))
    return out


def _pareto_head(a: float, z: float, s_hi: int) -> list[float]:
    """e**z a z**a Gamma(s - a, z) / s! for s = 0..s_hi: the first masses of a
    Poisson law mixed over a rate Pareto on [z, inf) with index a, times e**z."""
    log_fact = _log_factorials(s_hi)
    if z >= 2.0:
        return [math.exp(math.log(a) + s * math.log(z) - log_fact[s]) * _gamma_cf(s - a, z)
                for s in range(s_hi + 1)]
    return [m * math.exp(z) for m in _pareto_start(a, z, s_hi, log_fact)]


def _pareto_mixture(law: Pareto, scale: float, r: int, k_max: int) -> Pmf:
    """The order-``r`` mixture over a Pareto law in closed form.

    The order-r size-biased law is Pareto(x_min, a), so the rate is Pareto
    on [z, inf) with z = scale * x_min, and m(s) = P(value = s) = a z**a
    Gamma(s - a, z) / s!.  From s0 = floor(a) + 1 on, the recurrence
    Gamma(nu + 1, z) = nu Gamma(nu, z) + z**nu e**-z gives m(s + 1) =
    (s - a) / (s + 1) m(s) + a z**s e**-z / (s + 1)!, both terms nonnegative;
    below s0 :func:`_pareto_start` gives m(s) directly.  As P(Poisson(rate) >
    K) = P(Gamma(K + 1) < rate), the Pareto survival function gives the tail
    P(value > K) = P(Poisson(z) > K) + (K + 1) m(K + 1) / a.
    """
    biased = law.size_biased(r)
    a, z = biased.tail_index, scale * biased.x_min
    if not 0.0 < z < math.inf:
        raise DomainError(f"weight scale out of range: scale * x_min = {scale!r} * "
                          f"{biased.x_min!r} is 0 or infinite in double precision")
    s0 = math.floor(a) + 1
    log_fact = _log_factorials(max(k_max + 1, s0))
    mass = _pareto_start(a, z, min(s0, k_max + 1), log_fact)
    if s0 <= k_max:
        s = np.arange(s0, k_max + 1)
        # The Poisson term as one log-space expression: at a tiny z the
        # Poisson mass alone underflows where the product does not.
        terms = np.exp(math.log(a) + s * math.log(z) - z - log_fact[s + 1]).tolist()
        m = mass[-1]
        for c, t in zip(((s - a) / (s + 1)).tolist(), terms):
            m = c * m + t
            mass.append(m)
    tail = float(_poisson_upper_tail(k_max, np.array([z]))[0]) + (k_max + 1) * mass[-1] / a
    lo, hi = _tail_bounds(tail, k_max)
    return Pmf(mass[:-1], hi, lo)


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------

def pmf_mixed_poisson(spec: MixingSpec, k_max: int) -> Pmf:
    """Numeric pmf of the size-biased mixed Poisson law on ``0..k_max``.

    Entry ``s`` equals ``E[exp(-rate) rate**(s+r)] / (s! E[rate**r])`` with
    ``rate = scale * W`` and ``r = spec.bias_order``, to rounding: a finite
    mixture of Poisson masses for a :class:`~rigclust.weights.Finite` law,
    the closed form of :func:`_pareto_mixture` for a Pareto law.  The grid is
    exactly the one asked for; ``tail_lo`` and ``tail_mass`` bound the mass
    beyond ``k_max``, however large.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    k_max = int(k_max)
    law, r = spec.weight_law, spec.bias_order
    with np.errstate(under="ignore"):
        if isinstance(law, Pareto):
            return _pareto_mixture(law, spec.scale, r, k_max)
        return _atomic_mixture(law, spec.scale, r, k_max)


def pmf_offspring(params: ModelParams, k_max: int) -> Pmf:
    """Law of the extra actors met through one shared attribute.

    If N counts the actors on an attribute (the 'attribute' mixed Poisson law),
    the attribute reached by following a random link shows N size-biased, and
    the actors beyond the one we came from number  tau = N_sb - 1:

        P(tau = s) = (s + 1) P(N = s + 1) / E[N].

    Size-biasing a Poisson count biases its rate, so tau is the order-1
    attribute law (:func:`mixing_spec`), and that is how it is computed, tail
    bounds included.  The tests check the shift formula against it.
    """
    return pmf_mixed_poisson(mixing_spec(params, "attribute", 1), k_max)


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
