"""Limit-law predictions for degree-conditioned clustering.

For an actor of (given) degree k, the limiting clustering probability blends
two competing local configurations: a *closed* one, where the two neighbours
are witnessed together (they share an attribute with each other through the
anchor's attribute), and an *open* one, where the two neighbours arrive via
distinct attributes.  Writing ``a(k)/A(k)`` for the point/tail weights of the
closed route and ``b(k)/B(k)`` for the open route,

    c_pred(k) = 1 / (1 + sqrt(beta) * b(k) / a(k)),        (degree = k)
    C_pred(k) = 1 / (1 + sqrt(beta) * B(k) / A(k)),        (degree >= k)

with

    a(k) = a3 * b1**3 * P(D1 + L3 = k - 2),
    b(k) = a2**2 * b1**2 * b2 * P(D2 + L2 + L2' = k - 2),

where ``a_r = E[X**r]``, ``b_r = E[Y**r]``, ``D_r`` is the randomly stopped
sum with count biased to order r, and ``L_r`` is the attribute-side mixed
Poisson law biased to order r.  ``A``/``B`` replace "= k-2" by ">= k-2" and are
reported as intervals because numeric pmfs carry tail bounds.

For Pareto weight laws the module also provides the closed-form tail
asymptotics of each ingredient and the induced power law

    B(k) / A(k) ~ ratio_constant * k**delta,
    delta = clamp(alpha - gamma - 1, -1, 1),

whose exponent switches regime at alpha = gamma + 2 (closed route) and
alpha = gamma (open route); ties add constants rather than picking a side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .mixedpoisson import Pmf, mixing_spec, pmf_mixed_poissons
from .stoppedsum import convolve, pmf_stopped_sums, tail_from_pmf
# Not called here; kept so that the names traced in rigclust.theory still resolve.
from .mixedpoisson import pmf_mixed_poisson, pmf_offspring  # noqa: F401
from .stoppedsum import pmf_stopped_sum  # noqa: F401
from .weights import DomainError, InfiniteMomentError, ModelParams, Pareto

__all__ = [
    "DEFAULT_K_MAX",
    "Interval",
    "LimitLaws",
    "adaptive_limit_laws",
    "coefficient_from_ratio",
    "ratio_from_coefficient",
    "delta_exponent",
    "degree_tail_asymptotic",
    "attribute_tail_asymptotic",
    "tail_weight_asymptotics",
    "tail_ratio_constant",
    "is_pareto_pair",
    "pareto_delta",
    "TheoryRow",
    "theory_curve",
]

_TIE_RTOL = 1e-9

#: Largest grid (entries 0..DEFAULT_K_MAX) the limit laws are built on: the
#: default cap of :func:`adaptive_limit_laws` and :func:`theory_curve`.
DEFAULT_K_MAX = 4096


class Interval(NamedTuple):
    """Closed interval [lo, hi] certifying a numeric value."""

    lo: float
    hi: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def is_pareto_pair(params: ModelParams) -> bool:
    return isinstance(params.x_law, Pareto) and isinstance(params.y_law, Pareto)


def _require_fourth_moments(params: ModelParams) -> None:
    """The theory's domain gate, passed before any quadrature.

    Both weight laws need finite fourth moments.  Their scales must also fit
    double precision: E[Z^1..4] neither overflows nor, off a law at zero,
    underflows to 0; a Pareto ``x_min**tail_index`` lies in [1e-300, 1e300],
    as the quadrature weighs tilted densities by it and its reciprocal times
    panel widths; and the route prefactors are finite.  Else DomainError.
    """
    what = ""
    try:
        for side, law in (("x_law", params.x_law), ("y_law", params.y_law)):
            at_zero = law.tail(0.0) == 0.0
            for r in (1, 2, 3, 4):
                what = f"{side} E[Z^{r}]"
                moment = law.moment(r)
                if not math.isfinite(moment) or (moment == 0.0 and not at_zero):
                    raise OverflowError  # handled below like a float overflow
            if isinstance(law, Pareto):
                what = f"{side} x_min**tail_index"
                if not 1e-300 <= law.tail_amplitude <= 1e300:
                    raise OverflowError
        what = "a route prefactor"
        if not all(map(math.isfinite, _route_prefactors(params))):
            raise OverflowError
    except InfiniteMomentError as exc:
        raise InfiniteMomentError(
            "limit formulas need finite fourth moments of both weight laws "
            f"({exc})") from exc
    except OverflowError as exc:
        raise DomainError(f"weight scale out of range: {what} is too large or "
                          "too small for double precision") from exc


def _route_prefactors(params: ModelParams) -> tuple[float, float]:
    """(closed, open) route prefactors a3 b1**3 and a2**2 b1**2 b2."""
    return (params.a(3) * params.b(1) ** 3,
            params.a(2) ** 2 * params.b(1) ** 2 * params.b(2))


class LimitLaws:
    """Numeric ingredient pmfs for the limit formulas on the grid ``0..k_max``.

    Exposes the combined closed-route law (stopped sum with order-1 count plus
    the order-3 attribute law) and open-route law (order-2 count stopped sum
    plus two order-2 attribute laws).  The offspring law ``tau`` of both
    stopped sums is the order-1 attribute law, so one lockstep quadrature
    gives ``tau``, ``lam2`` and ``lam3`` and another the two counts, and the
    two stopped sums share their baby steps ``tau^{*0..32}``.  The caller
    decides the grid ``k_max`` of the sums and the route laws (see
    :func:`adaptive_limit_laws`); what falls beyond it is between ``tail_lo``
    and ``tail_mass``.  The counts run on a longer grid, on which the sum of
    that many ``tau`` has mean at least ``2 * k_max``: a count past their
    grid then puts its sum past ``k_max`` too, so ``tail_lo`` locates that
    mass, which would otherwise widen every interval when E[tau] < 2.  That
    grid is at most ``64 * k_max``, which bounds its memory when E[tau] is
    tiny; below E[tau] = 1/32 part of that mass stays unlocated.
    """

    def __init__(self, params: ModelParams, k_max: int, tol: float = 1e-10):
        _require_fourth_moments(params)
        self.params = params
        self.k_max = int(k_max)
        self.tol = float(tol)

        # One lockstep quadrature per weight side, one set of baby steps of tau.
        attribute = [mixing_spec(params, "attribute", r) for r in (1, 2, 3)]
        self.tau, self.lam2, self.lam3 = pmf_mixed_poissons(attribute, self.k_max, tol)
        mean_tau = attribute[0].scale * params.a(2) / params.a(1)
        self.count_k_max = max(self.k_max, math.ceil(2 * self.k_max / max(mean_tau, 1 / 32)))
        count1, count2 = pmf_mixed_poissons(
            [mixing_spec(params, "actor", r) for r in (1, 2)], self.count_k_max, tol)
        self.d1, self.d2 = pmf_stopped_sums([count1, count2], self.tau, self.k_max, tol)

        self.closed_law: Pmf = convolve(self.d1, self.lam3, self.k_max)
        self.open_law: Pmf = convolve(
            convolve(self.d2, self.lam2, self.k_max), self.lam2, self.k_max)
        self.closed_prefactor, self.open_prefactor = _route_prefactors(params)

    def _shift(self, k: int) -> int:
        if k < 2:
            raise ValueError(f"degree k must be >= 2, got {k}")
        s = k - 2
        if s > self.k_max:
            raise ValueError(f"degree {k} beyond grid (k_max={self.k_max}); "
                             "rebuild with a larger k_max")
        return s

    def point_weights(self, k: int) -> tuple[float, float]:
        s = self._shift(k)
        return (self.closed_prefactor * float(self.closed_law.mass[s]),
                self.open_prefactor * float(self.open_law.mass[s]))

    def tail_weights(self, k: int) -> tuple[Interval, Interval]:
        s = self._shift(k)
        alo, ahi = tail_from_pmf(self.closed_law, s)
        blo, bhi = tail_from_pmf(self.open_law, s)
        return (Interval(self.closed_prefactor * alo, self.closed_prefactor * ahi),
                Interval(self.open_prefactor * blo, self.open_prefactor * bhi))


def adaptive_limit_laws(params: ModelParams, k_last: int,
                        k_cap: int = DEFAULT_K_MAX, tol: float = 1e-10) -> LimitLaws:
    """Limit laws on one grid for degrees up to ``k_last``: the smallest power
    of two covering twice the last shifted degree ``k_last - 2``, at least 64
    entries and at most ``k_cap``.

    Each grid entry depends on lower entries only, so the point weights are
    those of any larger grid (the tests check this bit for bit).  The A/B
    intervals are two-sided, and their width is mostly mass no grid locates,
    such as count truncation and quadrature error.  Twice the last degree
    keeps small the chance that a sum cut short by the grid still lies on it;
    :class:`LimitLaws` sizes the grid of the counts to the same end.
    """
    s = max(int(k_last) - 2, 0)
    size = max(64, 1 << max(2 * s - 1, 0).bit_length())
    return LimitLaws(params, min(size, int(k_cap)), tol)


def coefficient_from_ratio(beta: float, ratio: float) -> float:
    """Map an open/closed weight ratio to the clustering probability
    1 / (1 + sqrt(beta) * ratio); decreasing in both arguments."""
    return 1.0 / (1.0 + math.sqrt(beta) * ratio)


def ratio_from_coefficient(beta: float, c: float) -> float:
    """Inverse of :func:`coefficient_from_ratio`, used to fit exponents to
    empirical clustering values."""
    return (1.0 / c - 1.0) / math.sqrt(beta)


def _c_from_weights(beta: float, a: float, b: float) -> float | None:
    """c_pred from the point weights; None when neither route has mass."""
    if a > 0.0:
        return coefficient_from_ratio(beta, b / a)
    return 0.0 if b > 0.0 else None


def _C_from_tails(beta: float, A: Interval, B: Interval) -> Interval:
    """C_pred interval from the tail-weight intervals (the extreme ratios)."""
    lo = 0.0 if A.lo == 0.0 else coefficient_from_ratio(beta, B.hi / A.lo)
    hi = 1.0 if A.hi == 0.0 else coefficient_from_ratio(beta, B.lo / A.hi)
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Pareto tail asymptotics
# ---------------------------------------------------------------------------

def _pareto_pair(params: ModelParams) -> tuple[Pareto, Pareto]:
    if not is_pareto_pair(params):
        raise TypeError("tail asymptotics need Pareto laws on both sides")
    x, y = params.x_law, params.y_law
    if x.tail_index <= 5 or y.tail_index <= 5:
        raise ValueError("tail asymptotics assume both tail indices exceed 5")
    return x, y


def delta_exponent(alpha: float, gamma: float) -> float:
    """Exponent of the open/closed tail-weight ratio:
    clamp(alpha - gamma - 1, -1, 1).  Valid for tail indices above 5."""
    if alpha <= 5 or gamma <= 5:
        raise ValueError("exponent formula assumes both tail indices exceed 5")
    return min(max(alpha - gamma - 1.0, -1.0), 1.0)


def pareto_delta(params: ModelParams) -> float | None:
    """:func:`delta_exponent` of a Pareto pair whose tail indices both exceed
    5; None for any other pair of laws."""
    if not is_pareto_pair(params):
        return None
    try:
        return delta_exponent(params.x_law.tail_index, params.y_law.tail_index)
    except ValueError:
        return None


def _degree_tail_constant(params: ModelParams, r: int) -> tuple[float, float]:
    """(constant, exponent) of P(D_r >= k) ~ constant * k**exponent."""
    _, y = _pareto_pair(params)
    gamma = y.tail_index
    c_y = y.tail_amplitude
    a2, b1 = params.a(2), params.b(1)
    if r == 1:
        return c_y * gamma / (gamma - 1.0) * a2 ** (gamma - 1.0) * b1 ** (gamma - 2.0), 1.0 - gamma
    if r == 2:
        b2 = params.b(2)
        return (c_y * gamma / (gamma - 2.0) * a2 ** (gamma - 2.0)
                * b1 ** (gamma - 2.0) / b2), 2.0 - gamma
    raise ValueError(f"stopped-sum tail asymptotic implemented for r in {{1, 2}}, got {r}")


def _attribute_tail_constant(params: ModelParams, r: int) -> tuple[float, float]:
    """(constant, exponent) of P(L_r >= k) ~ constant * k**exponent."""
    x, _ = _pareto_pair(params)
    alpha = x.tail_index
    c_x = x.tail_amplitude
    if r not in (2, 3):
        raise ValueError(f"attribute tail asymptotic implemented for r in {{2, 3}}, got {r}")
    const = (c_x * alpha / (alpha - r) * params.beta ** (0.5 * (r - alpha))
             / params.a(r) * params.b(1) ** (alpha - r))
    return const, r - alpha


def _positive(k: float) -> float:
    if not float(k) > 0:  # the power laws below have no value at k <= 0
        raise ValueError(f"tail asymptotics need k > 0, got {k}")
    return float(k)


def degree_tail_asymptotic(params: ModelParams, r: int, k: float) -> float:
    """Closed-form tail approximation P(D_r >= k) for Pareto laws.

    The count's heavy tail dominates: the sum exceeds k essentially when the
    count exceeds k / E[offspring], which produces the constants below.
    """
    const, exp = _degree_tail_constant(params, r)
    return const * _positive(k) ** exp


def attribute_tail_asymptotic(params: ModelParams, r: int, k: float) -> float:
    """Closed-form tail approximation P(L_r >= k) for a Pareto attribute law."""
    const, exp = _attribute_tail_constant(params, r)
    return const * _positive(k) ** exp


def _leading(terms: list[tuple[float, float]]) -> tuple[float, float]:
    """Sum the constants of the max-exponent terms (ties within rtol add)."""
    top = max(e for _, e in terms)
    const = math.fsum(c for c, e in terms if abs(e - top) <= _TIE_RTOL * max(1.0, abs(top)))
    return const, top


def _closed_tail_terms(params: ModelParams) -> list[tuple[float, float]]:
    return [_degree_tail_constant(params, 1), _attribute_tail_constant(params, 3)]


def _open_tail_terms(params: ModelParams) -> list[tuple[float, float]]:
    c2, e2 = _attribute_tail_constant(params, 2)
    return [_degree_tail_constant(params, 2), (c2, e2), (c2, e2)]


def tail_weight_asymptotics(params: ModelParams, k: float) -> tuple[float, float]:
    """Leading-order tails of the two route laws (before prefactors).

    Closed route: the stopped-sum tail k**(1-gamma) competes with the order-3
    attribute tail k**(3-alpha); the crossover sits at alpha = gamma + 2.
    Open route: k**(2-gamma) versus two copies of k**(2-alpha), crossing at
    alpha = gamma.  Exact ties (relative 1e-9) sum both constants.
    """
    ca, ea = _leading(_closed_tail_terms(params))
    cb, eb = _leading(_open_tail_terms(params))
    return ca * _positive(k) ** ea, cb * _positive(k) ** eb


def tail_ratio_constant(params: ModelParams) -> float:
    """Constant c with B(k)/A(k) -> c * k**delta, including route prefactors.

    Reconstructed from the leading tail constants of each route; at regime
    ties the tied constants add, matching the sum rule for independent
    heavy-tailed summands.
    """
    x, y = _pareto_pair(params)
    ca, ea = _leading(_closed_tail_terms(params))
    cb, eb = _leading(_open_tail_terms(params))
    pa, pb = _route_prefactors(params)
    delta = delta_exponent(x.tail_index, y.tail_index)
    if abs((eb - ea) - delta) > 1e-9:
        raise AssertionError("internal regime split disagrees with the exponent formula")
    return pb * cb / (pa * ca)


# ---------------------------------------------------------------------------
# Theory curves for reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoryRow:
    k: int
    a: float | None
    b: float | None
    A: Interval
    B: Interval
    c_pred: float | None
    C_pred: Interval
    asymptotic: bool


def _interval_unreliable(iv: Interval) -> bool:
    if iv.hi == 0.0:
        return True
    return iv.width > 0.1 * iv.mid


def theory_curve(params: ModelParams, ks, k_max: int = DEFAULT_K_MAX,
                 tol: float = 1e-10) -> list[TheoryRow]:
    """Predicted clustering rows for each k (every k at least 2).

    ``k_max`` caps the numeric grid: the laws come from one build of
    :func:`adaptive_limit_laws`, sized from the largest requested degree.
    Uses the numeric route while the tail intervals stay tight (width at most
    10% of the midpoint); for Pareto pairs it switches to the closed-form
    asymptotics beyond that point, where point weights (and hence c_pred) are
    no longer reported.
    """
    ks = sorted(int(k) for k in ks)
    if ks and ks[0] < 2:
        raise ValueError(f"degree k must be >= 2, got {ks[0]}")
    laws = adaptive_limit_laws(params, max(ks, default=2), k_max, tol)
    return _curve_rows(laws, ks)


def _curve_rows(laws: LimitLaws, ks: list[int]) -> list[TheoryRow]:
    """Rows of :func:`theory_curve` for sorted degrees on the given laws.

    A row is numeric while its degree is on the grid, no earlier row is
    asymptotic and, for a Pareto pair, both tail intervals are tight.  Past
    that a Pareto pair gets the closed forms; any other pair has no honest
    prediction there and gets no row.  Nor does k = 2, whose shifted
    argument 0 is outside the closed forms.
    """
    params = laws.params
    pareto = is_pareto_pair(params)
    pa, pb = laws.closed_prefactor, laws.open_prefactor
    rows: list[TheoryRow] = []
    for k in ks:
        numeric = k - 2 <= laws.k_max and not (rows and rows[-1].asymptotic)
        if numeric:
            a, b = laws.point_weights(k)
            A, B = laws.tail_weights(k)
            numeric = not pareto or not (_interval_unreliable(A) or _interval_unreliable(B))
        if numeric:
            rows.append(TheoryRow(k, a, b, A, B, _c_from_weights(params.beta, a, b),
                                  _C_from_tails(params.beta, A, B), False))
        elif pareto and k > 2:
            # Evaluate the closed forms at the same shifted argument k - 2.
            ta, tb = tail_weight_asymptotics(params, k - 2)
            A = Interval(pa * ta, pa * ta)
            B = Interval(pb * tb, pb * tb)
            rows.append(TheoryRow(k, None, None, A, B, None,
                                  _C_from_tails(params.beta, A, B), True))
    return rows
