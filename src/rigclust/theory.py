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

For a Pareto pair whose tail indices both exceed 5 the module also provides
the closed-form tail asymptotics of each ingredient, read off the tail of the
size-biased weight law (``Pareto.size_biased``), and the induced power law

    B(k) / A(k) ~ const * k**delta,
    delta = clamp(alpha - gamma - 1, -1, 1),

whose exponent switches regime at alpha = gamma + 2 (closed route) and
alpha = gamma (open route); ties add constants rather than picking a side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .mixedpoisson import Pmf, mixing_spec, pmf_mixed_poisson, pmf_offspring
from .stoppedsum import convolve, pmf_stopped_sums, tail_from_pmf
# Not called here; kept so that the name traced in rigclust.theory still resolves.
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


def _require_fourth_moments(params: ModelParams) -> None:
    """The theory's domain gate, passed before any pmf is built.

    Both weight laws need finite fourth moments.  Their scales must also fit
    double precision: E[Z^1..4] neither overflows nor, off a law at zero,
    underflows to 0; a Pareto ``x_min**tail_index`` lies in [1e-300, 1e300],
    as the tail constants of the asymptotic rows scale with it; and the route
    prefactors are finite.  Else DomainError.
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
    stopped sums is the order-1 attribute law (:func:`pmf_offspring`); with
    ``lam2`` and ``lam3`` that makes three mixed Poisson laws, each from its
    closed form.  The two stopped sums come from one run of the mixed Poisson
    recursion (:func:`~rigclust.stoppedsum.pmf_stopped_sums`).  ``tol`` is
    the relative accuracy claimed for their masses, which enter as (1 - tol)
    times the computed ones: it sets the width of the A/B intervals, and so
    where rows turn asymptotic, but not c_pred.  The caller decides the grid
    ``k_max`` (see :func:`adaptive_limit_laws`); what falls beyond it is
    between ``tail_lo`` and ``tail_mass``.
    """

    def __init__(self, params: ModelParams, k_max: int, tol: float = 1e-10):
        _require_fourth_moments(params)
        self.params = params
        self.k_max = int(k_max)
        self.tol = float(tol)

        self.tau = pmf_offspring(params, self.k_max)
        self.lam2, self.lam3 = (pmf_mixed_poisson(mixing_spec(params, "attribute", r),
                                                  self.k_max) for r in (2, 3))
        counts = [mixing_spec(params, "actor", r) for r in (1, 2)]
        self.d1, self.d2 = pmf_stopped_sums(counts, self.tau, self.k_max, tol)

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
    intervals are two-sided, and their width is mostly the share ``tol`` of
    the degree laws' mass.  Twice the last degree keeps small the chance that
    a sum cut short by the grid still lies on it.
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

def delta_exponent(alpha: float, gamma: float) -> float:
    """Exponent of the open/closed tail-weight ratio:
    clamp(alpha - gamma - 1, -1, 1).  Valid for tail indices above 5."""
    if alpha <= 5 or gamma <= 5:
        raise ValueError("closed forms assume both tail indices exceed 5")
    return min(max(alpha - gamma - 1.0, -1.0), 1.0)


def _closed_form_delta(params: ModelParams) -> float:
    """:func:`delta_exponent` of the pair: TypeError unless both laws are
    Pareto, ValueError unless both tail indices exceed 5."""
    x, y = params.x_law, params.y_law
    if not (isinstance(x, Pareto) and isinstance(y, Pareto)):
        raise TypeError("tail asymptotics need Pareto laws on both sides")
    return delta_exponent(x.tail_index, y.tail_index)


def pareto_delta(params: ModelParams) -> float | None:
    """:func:`delta_exponent` of a Pareto pair whose tail indices both exceed
    5; None for any other pair of laws.  Not None exactly where the closed
    forms, and hence asymptotic rows, apply."""
    try:
        return _closed_form_delta(params)
    except (TypeError, ValueError):
        return None


def _tail_constant(params: ModelParams, role: str, r: int) -> tuple[float, float]:
    """(constant, exponent) of P(D_r >= k) (``role='actor'``) or P(L_r >= k)
    (``role='attribute'``) ~ constant * k**exponent.

    Both are the tail of s * Z_r, where Z_r = ``law.size_biased(r)`` is the
    order-r size-biased weight law, Pareto(x_min, index - r), so that
    P(s * Z_r > k) = Z_r.tail_amplitude * s**Z_r.tail_index * k**-Z_r.tail_index.
    L_r is mixed Poisson with s the attribute rate per unit weight of
    :func:`mixing_spec`, E[Y] / sqrt(beta).  In D_r the count's heavy tail
    dominates: the sum exceeds k essentially when the count exceeds
    k / E[tau], so s is the actor rate per unit weight times E[tau], which is
    E[X**2] * E[Y].
    """
    _closed_form_delta(params)
    orders = (1, 2) if role == "actor" else (2, 3)
    if r not in orders:
        raise ValueError(f"{role} tail asymptotic implemented for r in {set(orders)}, got {r}")
    spec = mixing_spec(params, role, r)
    s = params.a(2) * params.b(1) if role == "actor" else spec.scale
    z = spec.weight_law.size_biased(r)
    return z.tail_amplitude * s**z.tail_index, -z.tail_index


def _positive(k: float) -> float:
    if not float(k) > 0:  # the power laws below have no value at k <= 0
        raise ValueError(f"tail asymptotics need k > 0, got {k}")
    return float(k)


def degree_tail_asymptotic(params: ModelParams, r: int, k: float) -> float:
    """Closed-form tail approximation P(D_r >= k), r in {1, 2}, from the
    order-r size-biased actor weight law (see :func:`_tail_constant`)."""
    const, exp = _tail_constant(params, "actor", r)
    return const * _positive(k) ** exp


def attribute_tail_asymptotic(params: ModelParams, r: int, k: float) -> float:
    """Closed-form tail approximation P(L_r >= k), r in {2, 3}, from the
    order-r size-biased attribute weight law (see :func:`_tail_constant`)."""
    const, exp = _tail_constant(params, "attribute", r)
    return const * _positive(k) ** exp


def _leading(terms: list[tuple[float, float]]) -> tuple[float, float]:
    """Sum the constants of the max-exponent terms (ties within rtol add)."""
    top = max(e for _, e in terms)
    const = math.fsum(c for c, e in terms if abs(e - top) <= _TIE_RTOL * max(1.0, abs(top)))
    return const, top


def tail_weight_asymptotics(params: ModelParams, k: float) -> tuple[float, float]:
    """Leading-order tails of the two route laws (before prefactors).

    Closed route: the stopped-sum tail k**(1-gamma) competes with the order-3
    attribute tail k**(3-alpha); the crossover sits at alpha = gamma + 2.
    Open route: k**(2-gamma) versus two copies of k**(2-alpha), crossing at
    alpha = gamma.  Exact ties (relative 1e-9) sum both constants.
    """
    ca, ea = _leading([_tail_constant(params, "actor", 1),
                        _tail_constant(params, "attribute", 3)])
    attribute2 = _tail_constant(params, "attribute", 2)
    cb, eb = _leading([_tail_constant(params, "actor", 2), attribute2, attribute2])
    return ca * _positive(k) ** ea, cb * _positive(k) ** eb


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
    Where the closed forms apply (:func:`pareto_delta` is not None: a Pareto
    pair with both tail indices above 5) the rows are numeric while the tail
    intervals stay tight (width at most 10% of the midpoint), and past that
    they are the closed-form asymptotics of the size-biased weight laws, with
    no point weights (and hence no c_pred).  Any other pair keeps its numeric
    rows, loose ones included, up to the grid.
    """
    ks = sorted(int(k) for k in ks)
    if ks and ks[0] < 2:
        raise ValueError(f"degree k must be >= 2, got {ks[0]}")
    laws = adaptive_limit_laws(params, max(ks, default=2), k_max, tol)
    return _curve_rows(laws, ks)


def _curve_rows(laws: LimitLaws, ks: list[int]) -> list[TheoryRow]:
    """Rows of :func:`theory_curve` for sorted degrees on the given laws.

    A row is numeric while its degree is on the grid, no earlier row is
    asymptotic and, where the closed forms apply (:func:`pareto_delta` is not
    None: a Pareto pair with both tail indices above 5), both tail intervals
    are tight.  Past that such a pair gets the closed forms; any other pair
    has no honest prediction there and gets no row.  Nor does k = 2, whose
    shifted argument 0 is outside the closed forms.
    """
    params = laws.params
    closed_forms = pareto_delta(params) is not None
    pa, pb = laws.closed_prefactor, laws.open_prefactor
    rows: list[TheoryRow] = []
    for k in ks:
        numeric = k - 2 <= laws.k_max and not (rows and rows[-1].asymptotic)
        if numeric:
            a, b = laws.point_weights(k)
            A, B = laws.tail_weights(k)
            loose = _interval_unreliable(A) or _interval_unreliable(B)
            numeric = not (closed_forms and loose)
        if numeric:
            rows.append(TheoryRow(k, a, b, A, B, _c_from_weights(params.beta, a, b),
                                  _C_from_tails(params.beta, A, B), False))
        elif closed_forms and k > 2:
            # Evaluate the closed forms at the same shifted argument k - 2.
            ta, tb = tail_weight_asymptotics(params, k - 2)
            A = Interval(pa * ta, pa * ta)
            B = Interval(pb * tb, pb * tb)
            rows.append(TheoryRow(k, None, None, A, B, None,
                                  _C_from_tails(params.beta, A, B), True))
    return rows
