"""Randomly stopped sums of integer laws.

The limiting degree of an actor is a sum of a random number of independent
offspring counts: ``d = sum_{j <= N} tau_j`` with the count ``N`` independent
of the i.i.d. summands.  With the count truncated where its remaining
probability drops below ``tol``, its law is a polynomial in ``tau``,

    P(d = s) = sum_{j <= n} P(N = j) * tau^{*j}(s),

evaluated here by blocks (Paterson & Stockmeyer 1973, SIAM J. Comput. 2(1)):
baby steps ``tau^{*0..B}``, shared by every count over one summand, then
Horner in ``tau^{*B}``, about ``B + n / B`` convolutions in place of ``n``.
Nothing cancels, and cutting a partial product at the grid drops only mass
that stays past it.  Every neglected or out-of-grid contribution joins the
tail bound, so the result is a valid :class:`~rigclust.mixedpoisson.Pmf`
whose tail interval is honest; ``tail_lo`` gets only mass known to lie past
the grid.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .mixedpoisson import Pmf

__all__ = ["convolve", "pmf_stopped_sum", "pmf_stopped_sums", "tail_from_pmf"]


#: Block size B, fixed so that a count's bits do not depend on where its grid
#: cuts it; B + n / B is within 25 % of the best, 2 sqrt(n), for n in 250..4000.
_BLOCK = 32


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


def _truncation(count: Pmf, tol: float) -> tuple[int, float]:
    """The first n with P(N > n) + ``count.tail_mass`` < tol (else the last
    grid point), and the grid mass P(n < N <= count.k_max) left out."""
    suffix = np.concatenate([np.cumsum(count.mass[::-1])[::-1], [0.0]])
    below = np.flatnonzero(suffix[1:] + count.tail_mass < tol)
    n = int(below[0]) if below.size else count.mass.size - 1
    return n, float(suffix[n + 1])


def _power_lo(powers: list[Pmf], n: int, k_max: int) -> float:
    """Lower bound on P(S_n > k_max): ``tail_lo`` of tau^{*(n mod B)} times
    G^{*(n div B)}, the power of G = ``powers[-1]`` made by squaring.  A
    remainder of 0 starts from the first power of G taken, not from the unit
    tau^{*0}, whose product with it is that power bit for bit."""
    q, rem = divmod(n, _BLOCK)
    power, base = powers[rem] if rem else None, powers[-1]
    while q:
        if q & 1:
            power = base if power is None else convolve(power, base, k_max)
        q >>= 1
        base = convolve(base, base, k_max) if q else base
    return power.tail_lo if power is not None else 0.0


def pmf_stopped_sums(counts: Sequence[Pmf], summand: Pmf, k_max: int,
                     tol: float = 1e-10) -> list[Pmf]:
    """Pmfs of ``sum_{j <= N} tau_j`` for each count law ``N`` in ``counts``
    and one summand law ``tau``, all on the grid ``0..k_max``.

    Each count is truncated at the first n with P(N > n) + ``count.tail_mass``
    < tol and summed by Horner in G = tau^{*B} over blocks of B weights:

        acc <- cut(acc * G) + sum_i w_{bB+i} tau^{*i}.

    The counts share the baby steps tau^{*0..B} and nothing else, so each
    pmf is bit for bit the one :func:`pmf_stopped_sum` gives for its count
    alone.  ``tail_mass`` adds, per Horner step, W * G.tail_mass plus the mass
    pushed past the grid, with W the count weight in ``acc``; per block, its
    weights times the tails of its powers; and the truncated count mass and
    the count's tail.  ``tail_lo`` applies :func:`convolve`'s rule to each
    Horner step and block, and locates the count mass left out with the
    bound of tau^{*n}.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    cuts = [_truncation(count, tol) for count in counts]
    powers = [Pmf.point(0, k_max)]
    while len(powers) <= min(_BLOCK, max((n for n, _ in cuts), default=0)):
        powers.append(convolve(powers[-1], summand, k_max))
    baby = np.stack([p.mass for p in powers[:_BLOCK]])
    bounds = np.array([(p.tail_mass, p.tail_lo) for p in powers[:_BLOCK]])

    out = []
    for count, (n, rest) in zip(counts, cuts):
        acc = np.zeros(k_max + 1)
        weight = hi = lo = 0.0  # count weight in acc, bounds on its mass past k_max
        top = n - n % _BLOCK
        for start in range(top, -1, -_BLOCK):
            if start < top:
                # acc holds terms w_j X_j, X_j = S_{j-start-B}, each added to
                # an independent Y ~ G.  X_j + Y > k_max if X_j or Y is past
                # k_max, with chance at least lo_j + lo_G - lo_j lo_G as in
                # convolve, or if both are on the grid and the sum is pushed
                # past it.  Linear in lo_j, over the terms that is
                # lo + (W - lo) lo_G, plus the pushed mass.
                G = powers[_BLOCK]
                acc, pushed = _convolve_raw(acc, G.mass, k_max)
                hi += weight * G.tail_mass + pushed
                lo += (weight - lo) * G.tail_lo + pushed
            w = count.mass[start:min(start + _BLOCK, n + 1)]
            # A row sum, not a matrix product: each entry adds its terms in
            # the same order on every grid, which BLAS does not promise.
            acc += (w[:, None] * baby[:w.size]).sum(axis=0)
            weight += float(w.sum())
            block_hi, block_lo = w @ bounds[:w.size]
            hi, lo = hi + block_hi, lo + block_lo
        hi += rest + count.tail_mass
        # Every count value left out, truncated or past the count's grid, is
        # m > n, and S_m >= S_n: P(S_m > k_max) >= P(S_n > k_max).
        located = rest + count.tail_lo
        if located > 0.0:
            lo += located * _power_lo(powers, n, k_max)
        out.append(_pmf(acc, hi, lo))
    return out


def pmf_stopped_sum(count: Pmf, summand: Pmf, k_max: int,
                    tol: float = 1e-10) -> Pmf:
    """Pmf of ``sum_{j <= N} tau_j`` for ``N ~ count``, ``tau ~ summand``.

    The count is truncated at the smallest i with P(N > i) + ``count.tail_mass``
    < tol; the remaining count probability joins the tail bound, as do the
    summand tail bounds and any convolution mass beyond the grid.  This is
    the one-count case of :func:`pmf_stopped_sums`.
    """
    return pmf_stopped_sums([count], summand, k_max, tol)[0]


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
