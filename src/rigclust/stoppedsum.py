"""Randomly stopped sums of integer laws.

The limiting degree of an actor is ``d = sum_{j <= N} tau_j``, with the count
``N`` independent of the i.i.d. summands.  :func:`pmf_stopped_sum` sums
P(N = j) tau^{*j} term by term for any count pmf.  For mixed Poisson counts
:func:`pmf_stopped_sums` runs a recursion instead, with no count truncation
(Panjer 1981, ASTIN Bull. 12(1); Hesselager 1996, Scand. Actuar. J.).

For a count Poisson at a random rate z W, W >= 1, the summands above 0
number Poisson at rate c W, c = z (1 - t_0), and each follows p = tau given
tau > 0.  For W Pareto with index a their masses m_k fall as c**k below s =
floor(a) + 1 and as c**a above, so d = sum_{k < s} m_k p^{*k} + r, the head
summed directly and r = R(P) from R = sum_{k >= s} m_k y^k, which solves
(1 - y) R' = s m_s y^(s-1) - a R + a Pi, with Pi the Poisson(c) pgf from s on:

    n r_n = n m_s p^{*s}_n + sum_{j=1..n} p_j [(n - j - a j) r_{n-j} + a j pi_{n-j}],
    n pi_n = c sum_{j=1..n} j p_j [pi_{n-j} + Poisson(c; s - 1) p^{*(s-1)}_{n-j}].

Run through the head too, the weights n - j - a j, of either sign, would cost
about a factor c of accuracy per term there.  A finite W mixes compound
Poisson laws, pi with s = 0, one per atom that carries mass.  Against
40-digit sums on 257 entries the masses are within 7e-14 relative for beta
from 0.01 to 100, and within 4e-15 at thinned rates c down to 1e-12.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .mixedpoisson import (_LOG_SUBNORMAL, MixingSpec, Pmf, _log_factorials,
                           _pareto_start)
from .weights import Pareto

__all__ = ["convolve", "pmf_stopped_sum", "pmf_stopped_sums", "tail_from_pmf"]


#: The recursion's entries are multiplied by 2**-_RESCALE once one exceeds
#: 2**_RESCALE; a step grows them by a factor of at most c.
_RESCALE = 512


def _pmf(mass: np.ndarray, tail: float, lo: float) -> Pmf:
    """Pmf with the tightest honest tail bounds: the upper one never below
    zero nor above the grid deficit, the lower one in [0, upper]."""
    tail = min(max(tail, 0.0), max(1.0 - math.fsum(mass), 0.0))
    return Pmf(mass, tail, min(max(lo, 0.0), tail))


def _convolve_raw(p: np.ndarray, q: np.ndarray, k_max: int) -> tuple[np.ndarray, float]:
    """Grid part of the convolution plus the mass pushed beyond k_max."""
    full = np.convolve(p, q)
    if full.size <= k_max + 1:
        out = np.zeros(k_max + 1)
        out[:full.size] = full
        return out, 0.0
    pushed = float(math.fsum(full[k_max + 1:]))
    return np.ascontiguousarray(full[:k_max + 1]), pushed


def convolve(p: Pmf, q: Pmf, k_max: int) -> Pmf:
    """Distribution of the sum of independent draws from ``p`` and ``q``.

    ``tail_mass`` of the result is ``p.tail_mass + q.tail_mass`` plus whatever
    grid mass the convolution pushed beyond ``k_max``, clipped to the grid
    deficit ``1 - sum(mass)`` -- both are upper bounds on the true remaining
    mass (the grid part only ever undercounts), so the smaller one is the
    honest choice and normalization survives even fat input tails.
    ``tail_lo`` adds the pushed mass to the chance that either draw is past
    its grid, ``lo_p + lo_q - lo_p * lo_q``.
    """
    mass, pushed = _convolve_raw(p.mass, q.mass, k_max)
    # A draw is known to lie past k_max only if its grid reaches k_max.
    lo_p, lo_q = (x.tail_lo if x.k_max >= k_max else 0.0 for x in (p, q))
    return _pmf(mass, p.tail_mass + q.tail_mass + pushed, lo_p + lo_q - lo_p * lo_q + pushed)


def _compound_rows(p: np.ndarray, c: float, indices: Sequence[float]) -> np.ndarray:
    """Masses on the grid of ``p`` (p_0 = 0) of sums of N draws from ``p``:
    row 0 for N ~ Poisson(c) at or above the split s (s = 0 without indices),
    then one row per index a for N mixed Poisson over a rate Pareto on [c,
    inf) with index a.  The rows run scaled by e**c and by powers of two, so
    that neither the start values nor the peak leaves double range."""
    k_max = p.size - 1
    # Every mass is below the smallest double if P(Poisson(c) <= K) is, by
    # Chernoff's e^-c (e c / K)^K for c > K.
    if c > k_max and k_max * (1.0 + math.log(c / k_max)) - c < _LOG_SUBNORMAL:
        return np.zeros((1 + len(indices), k_max + 1))
    jp = np.arange(k_max + 1.0) * p
    s = min(max((math.floor(a) + 1 for a in indices), default=0), k_max + 1)
    powers = [np.eye(1, k_max + 1)[0]]  # p^{*0..s} on the grid
    while len(powers) <= s:
        powers.append(np.convolve(powers[-1], p)[:k_max + 1])
    heads, bounds = np.zeros((len(indices), k_max + 1)), []
    for i, a in enumerate(indices):
        m = _pareto_start(a, c, s, _log_factorials(s), scaled=True)
        heads[i] = sum(m_k * power for m_k, power in zip(m[:s], powers))
        bounds.append((m[s] * powers[s]).tolist())
    # The counts just below s feed pi: Poisson(c; s - 1) p^{*(s-1)}, summed
    # against j p_j as the rows are.
    seed = np.zeros(k_max + 1)
    if s:
        seed = math.exp((s - 1) * math.log(c) - math.lgamma(s)) * np.convolve(jp, powers[s - 1])
    seed = seed[:k_max + 1].tolist()
    rows = np.zeros((1 + len(indices), k_max + 1))
    rows[0, 0] = float(s == 0)
    # weights[k_max - j] = (p_j, j p_j): rows[:, :n] @ weights[k_max - n:] sums
    # p_j X_{n-j} and j p_j X_{n-j} over j = 1..n for every row X.
    weights = np.stack([p[1:], jp[1:]], axis=1)[::-1].copy()
    shift = 0
    for n in range(1, k_max + 1):
        (_, pi_sum), *r_sums = (rows[:, :n] @ weights[k_max - n:]).tolist()
        scale = 2.0 ** -shift
        column = [c * (pi_sum + scale * seed[n]) / n] + [
            scale * bound[n] + (n * t_sum - (1.0 + a) * jt_sum + a * pi_sum) / n
            for a, bound, (t_sum, jt_sum) in zip(indices, bounds, r_sums)]
        rows[:, n] = column
        if max(map(abs, column)) > 2.0 ** _RESCALE:
            rows[:, :n + 1] *= 2.0 ** -_RESCALE
            shift += _RESCALE
    # Undo the scale 2**-shift e**c, e**c as 2**m e**(c - m log 2).
    m = math.floor(c / math.log(2.0))
    unscale = math.exp(m * math.log(2.0) - c)
    rows = np.ldexp(rows * unscale, shift - m)
    rows[1:] += np.ldexp(heads * unscale, -m)
    return rows


def pmf_stopped_sums(counts: Sequence[MixingSpec], summand: Pmf, k_max: int,
                     tol: float = 1e-10) -> list[Pmf]:
    """Pmfs of ``sum_{j <= N} tau_j`` on ``0..k_max`` for each mixed Poisson
    count law ``N`` in ``counts`` and one summand law ``tau``, by the
    recursion of the module docstring: one pass for the counts over one law
    and scale, one per atom above 0 that a count weights, for a finite law.

    ``tol`` is the relative accuracy claimed for the masses m: each pmf holds
    (1 - tol) m, and the share this removes joins ``tail_mass``, its grid
    deficit; ``tail_lo`` is 1 - sum(m) less the rounding allowance (k_max +
    1) 2**-52.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    t = np.pad(summand.mass[:k_max + 1], (0, max(k_max - summand.k_max, 0)))
    t_pos = 1.0 - t[0]
    if t[0] > 0.5:  # P(tau > 0) without the cancellation of 1 - t_0
        t_pos = math.fsum(summand.mass[1:]) + 0.5 * (summand.tail_lo + summand.tail_mass)
    if not t_pos > 0.0:
        raise ValueError("the summand must have mass above 0")
    p = np.concatenate([[0.0], t[1:] / t_pos])

    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(counts):
        groups.setdefault((spec.weight_law, spec.scale), []).append(i)
    masses = [np.empty(0)] * len(counts)
    for (law, scale), members in groups.items():
        if isinstance(law, Pareto):
            indices = [law.tail_index - counts[i].bias_order for i in members]
            _, *hs = _compound_rows(p, scale * law.x_min * t_pos, indices)
        else:  # a mixture of the compound Poisson laws of the atoms with mass
            ws = [[w for _, w in law.size_biased(counts[i].bias_order).atoms] for i in members]
            hs = [0.0] * len(members)
            for j, (v, _) in enumerate(law.atoms):
                if any(w[j] for w in ws):
                    c = scale * v * t_pos
                    q = _compound_rows(p, c, [])[0] if c else np.eye(1, k_max + 1)[0]
                    hs = [h + w[j] * q for h, w in zip(hs, ws)]
        for i, h in zip(members, hs):
            masses[i] = h
    allowance = (k_max + 1) * 2.0 ** -52
    return [_pmf((1.0 - tol) * m, 1.0, 1.0 - math.fsum(m) - allowance) for m in masses]


def pmf_stopped_sum(count: Pmf, summand: Pmf, k_max: int,
                    tol: float = 1e-10) -> Pmf:
    """Pmf of ``sum_{j <= N} tau_j`` for ``N ~ count``, ``tau ~ summand``,
    term by term up to the first n with P(N > n) + ``count.tail_mass`` < tol.

    Each term adds its weight times the tail bounds of its power of ``tau``
    (:func:`convolve`).  The count mass left out joins ``tail_mass``, and
    ``tail_lo`` locates it with the bound of tau^{*n}: S_m >= S_n for m > n.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    after = np.concatenate([np.cumsum(count.mass[::-1])[::-1][1:], [0.0]])
    power = Pmf.point(0, k_max)
    acc = np.zeros(k_max + 1)
    hi = lo = 0.0
    for j, w in enumerate(count.mass.tolist()):
        if j:
            power = convolve(power, summand, k_max)
        acc += w * power.mass
        hi, lo = hi + w * power.tail_mass, lo + w * power.tail_lo
        if after[j] + count.tail_mass < tol:
            break
    rest = float(after[j])
    return _pmf(acc, hi + rest + count.tail_mass, lo + (rest + count.tail_lo) * power.tail_lo)


def tail_from_pmf(p: Pmf, k: int) -> tuple[float, float]:
    """Interval [lower, upper] for P(value >= k).

    Both ends sum the grid mass at and above ``k``.  The upper end adds
    ``tail_mass``; the lower end adds ``tail_lo`` while every value beyond the
    grid is at least ``k`` (k <= k_max + 1), and stays 0 past that.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    grid = float(math.fsum(p.mass[k:]))
    upper = min(1.0, grid + p.tail_mass)
    lower = min(upper, grid + p.tail_lo) if k <= p.k_max + 1 else 0.0
    return lower, upper
