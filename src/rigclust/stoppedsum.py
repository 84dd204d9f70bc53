"""Randomly stopped sums of integer laws.

The limiting degree of an actor is a sum of a random number of independent
offspring counts: ``d = sum_{j <= N} tau_j`` with the count ``N`` independent
of the i.i.d. summands.  This module evaluates such compound laws by the
direct mixture-of-convolution-powers loop

    P(d = s) = sum_i P(N = i) * tau^{*i}(s),

truncating the count where its remaining probability drops below ``tol`` and
pushing every neglected or out-of-grid contribution into the tail bound, so
the result is a valid :class:`~rigclust.mixedpoisson.Pmf` whose tail interval
is honest; ``tail_lo`` gets only mass known to lie past the grid.  The loop
stops as soon as no later term can change a bit of the accumulated pmf, which
on a wide grid comes long before the count runs out; each convolution is a
single C-level ``numpy.convolve``.

The powers ``tau^{*i}`` depend on the summand alone, so
:func:`pmf_stopped_sums` evaluates several counts over one summand with one
power sequence (``theory.LimitLaws`` makes one call for both degree laws).
The sequence runs until the last count still running stops.  Every count
keeps its own truncation, early stop and order of additions, so each mass and
tail is bit for bit what the count gets alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .mixedpoisson import Pmf

__all__ = [
    "StoppedSumSpec", "convolve", "pmf_stopped_sum", "pmf_stopped_sums", "tail_from_pmf",
]


@dataclass(frozen=True)
class StoppedSumSpec:
    """Count law plus summand law for a randomly stopped sum."""

    count: Pmf
    summand: Pmf


def _pmf(mass: np.ndarray, tail: float, lo: float) -> Pmf:
    """Pmf with the tightest honest tail bounds: the upper one never below
    zero nor above the grid deficit, the lower one in [0, upper]."""
    tail = min(max(tail, 0.0), max(1.0 - math.fsum(mass), 0.0))
    return Pmf(mass, tail, min(max(lo, 0.0), tail))


def _located(p: Pmf, k_max: int) -> float:
    """P(value > k_max) >= ``tail_lo`` if the grid reaches ``k_max``."""
    return p.tail_lo if p.k_max >= k_max else 0.0


def _convolve_raw(p: np.ndarray, q: np.ndarray, k_max: int) -> tuple[np.ndarray, float]:
    """Grid part of the convolution plus the mass pushed beyond k_max."""
    full = np.convolve(p, q)
    if full.size <= k_max + 1:
        out = np.zeros(k_max + 1)
        out[:full.size] = full
        return out, 0.0
    pushed = float(math.fsum(full[k_max + 1:]))
    return np.ascontiguousarray(full[:k_max + 1]), pushed


def convolve(p: Pmf, q: Pmf, k_max: int | None = None) -> Pmf:
    """Distribution of the sum of independent draws from ``p`` and ``q``.

    ``tail_mass`` of the result is ``p.tail_mass + q.tail_mass`` plus whatever
    grid mass the convolution pushed beyond ``k_max``, clipped to the grid
    deficit ``1 - sum(mass)`` -- both are upper bounds on the true remaining
    mass (the grid part only ever undercounts), so the smaller one is the
    honest choice and normalization survives even fat input tails.
    ``tail_lo`` adds the pushed mass to the chance that either draw is past
    its grid, ``lo_p + lo_q - lo_p * lo_q``.  The default grid covers the full
    sum support.
    """
    if k_max is None:
        k_max = p.k_max + q.k_max
    mass, pushed = _convolve_raw(p.mass, q.mass, k_max)
    lo_p, lo_q = _located(p, k_max), _located(q, k_max)
    return _pmf(mass, p.tail_mass + q.tail_mass + pushed, lo_p + lo_q - lo_p * lo_q + pushed)


class _Count:
    """One count of a shared stopped-sum loop: its truncation and running sums."""

    def __init__(self, count: Pmf, k_max: int, tol: float):
        # Remaining count probability after each i: suffix sums + the count's
        # own tail bound.
        suffix = np.concatenate([np.cumsum(count.mass[::-1])[::-1], [0.0]])
        below = np.flatnonzero(suffix[1:] + count.tail_mass < tol)
        self.n_cut = int(below[0]) if below.size else count.mass.size - 1
        self.weights = count.mass
        self.within = np.cumsum(count.mass[self.n_cut::-1])[::-1]  # P(i <= N <= n_cut)
        self.acc = np.zeros(k_max + 1)
        self.acc[0] = count.mass[0]  # the empty sum
        self.acc_tail = float(suffix[self.n_cut + 1]) + count.tail_mass
        self.at_least, self.acc_lo = suffix + count.tail_lo, 0.0  # P(N >= i) >= at_least[i]


def pmf_stopped_sums(counts: Sequence[Pmf], summand: Pmf, k_max: int,
                     tol: float = 1e-10) -> list[Pmf]:
    """Pmfs of ``sum_{j <= N} tau_j`` for each count law ``N`` in ``counts``
    and one summand law ``tau``, all on the grid ``0..k_max``.

    The counts share one sequence of convolution powers tau^{*i}, which runs
    until the last count still running stops.  Each count keeps its own
    truncation, early stop and order of additions, so each pmf is bit for bit
    the one :func:`pmf_stopped_sum` gives for its count alone.

    ``tail_lo`` sums P(N >= i) times the growth of each power's lower bound
    on P(S_i > k_max), grown as in :func:`convolve`.  Summed by parts, that
    counts each term j left out (stopped, truncated or past the count's grid)
    with the bound of the last power made, S_{i-1} <= S_j.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    states = [_Count(count, k_max, tol) for count in counts]

    power = np.zeros(k_max + 1)
    power[0] = 1.0
    power_tail = power_lo = 0.0  # power_lo <= P(S_i > k_max)
    summand_lo = _located(summand, k_max)
    running = [state for state in states if state.n_cut >= 1]
    i = 1
    while running:
        # Each later addition w_j * tau^{*j}[s] is at most within[i] * grid:
        # summands are >= 0 and sum(tau) <= 1, so the grid mass of the powers
        # never grows.  acc only grows, so its spacing does too, and
        # fl(a + x) = a for 0 <= x < ulp(a)/2: every skipped addition would
        # be a no-op.  The factor 0.25 absorbs rounding in the product and the
        # 1e-9 normalization slack of Pmf.  A zero in acc has spacing 5e-324,
        # so the stop cannot fire while one remains.  The skipped tail terms
        # sum to at most within[i] * (power_tail + (n_cut - i + 1) * summand
        # tail + grid): the mass pushed off the grid telescopes to <= grid.
        grid = float(power.sum()) * (1 + 1e-12)
        going = []
        for state in running:
            later = float(state.within[i])
            if later * grid < 0.25 * np.spacing(state.acc).min():
                state.acc_tail += later * (power_tail + (state.n_cut - i + 1)
                                           * summand.tail_mass + grid)
            else:
                going.append(state)
        if not going:
            break
        power, pushed = _convolve_raw(power, summand.mass, k_max)
        power_tail += summand.tail_mass + pushed
        step = summand_lo * (1.0 - power_lo) + pushed
        power_lo += step
        for state in going:
            state.acc_lo += state.at_least[i] * step
            w = state.weights[i]
            if w != 0.0:
                state.acc += w * power
                state.acc_tail += w * power_tail
        running = [state for state in going if state.n_cut > i]
        i += 1
    return [_pmf(state.acc, state.acc_tail, state.acc_lo) for state in states]


def pmf_stopped_sum(spec: StoppedSumSpec, k_max: int | None = None,
                    tol: float = 1e-10) -> Pmf:
    """Pmf of ``sum_{j <= N} tau_j`` for ``N ~ spec.count``, ``tau ~ spec.summand``.

    The count is truncated at the smallest i with P(N > i) < tol; the remaining
    count probability joins the tail bound, as do the summand tail bounds
    (i per convolution power) and any convolution mass beyond the grid.

    The loop stops before term i once P(i <= N <= n_cut) * G is below a
    quarter of the smallest spacing of the accumulated pmf, with G the grid
    mass of tau^{*(i-1)}; no later addition could then change a bit, so the
    mass is the one the full loop gives.  The skipped terms add
    P(i <= N <= n_cut) * (tail of tau^{*(i-1)} + (n_cut - i + 1) * summand
    tail + G) to the tail bound, an upper bound on what the full loop adds.

    The default grid covers the full sum support ``count.k_max *
    summand.k_max``, as in :func:`convolve`.  This is the one-count case of
    :func:`pmf_stopped_sums`.
    """
    count, summand = spec.count, spec.summand
    if k_max is None:
        k_max = count.k_max * summand.k_max
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
