"""Bipartite affiliation sampling and projection to the actor graph.

An attribute i and an actor j link independently with probability
``min(1, x_i * y_j / sqrt(n * m))``.  Two exact generators are provided,
both returning the links as one CSR over attributes (:class:`BipartiteSample`):

* ``reference`` -- scans every (attribute, actor) pair, drawing the uniforms
  for attribute i from a Philox stream keyed by (seed, i).  Counter-based
  streams make the scan embarrassingly parallel *and* reproducible: the
  output depends only on (params, seed), never on how rows are scheduled.
* ``fast`` -- block sampling: attributes and actors are each split into
  weight classes spanning a factor of 2, and every (attribute class, actor
  class) block is drawn from one Philox stream keyed by (seed, block id).
  Inside a block, candidate pairs are found by geometric skipping over the
  flattened block at the block's maximum link probability p_max and kept
  with probability p_ij / p_max (at least 1/4).  Blocks are walked in
  attribute-row chunks of about ``_CHUNK_CANDIDATES`` expected candidates,
  which bounds the temporaries, and one sort of all kept ``attribute * n
  + actor`` keys gives the CSR.  Expected work is proportional to the
  number of links plus the number of blocks rather than n * m.  The law of
  the output is identical to the reference generator (chi-square checked in
  the test suite), though the streams differ.

Projection declares two actors adjacent when some attribute links both, i.e.
every attribute contributes a clique on its actor set; the pairs of all
cliques are enumerated at once from the CSR.  A configurable budget on
candidate pairs aborts degenerate parameter choices before they thrash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mixedpoisson import text_file
from .theory import ModelParams

__all__ = [
    "EdgeBudgetError",
    "BipartiteSample",
    "ProjectedGraph",
    "sample_bipartite",
    "project",
    "graph_from_edges",
    "write_edge_list",
    "DEFAULT_EDGE_BUDGET",
]

DEFAULT_EDGE_BUDGET = 1 << 27

_MASK64 = (1 << 64) - 1
_STREAM_X = 1 << 60
_STREAM_Y = 2 << 60
_STREAM_REF = 3 << 60
_STREAM_FAST = 4 << 60

#: Expected candidates drawn per attribute-row chunk of the fast sampler.  It
#: bounds the sampler's temporaries (a dozen arrays of this length); smaller
#: chunks only add Python iterations.
_CHUNK_CANDIDATES = 1 << 14


class EdgeBudgetError(RuntimeError):
    """Raised when projection would materialise more pairs than allowed."""


def _stream(seed: int, tag: int) -> np.random.Generator:
    # The key MUST be a uint64 array: a plain list of ints above 2**63 would
    # be converted through float64, rounding away the low bits and collapsing
    # nearby (seed, tag) pairs onto one stream.
    key = np.array([seed & _MASK64, tag & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class BipartiteSample:
    """One draw of weights and links, the links as a CSR over attributes:
    attribute i links ``actors[indptr[i]:indptr[i + 1]]``, sorted, unique."""

    x: np.ndarray
    y: np.ndarray
    indptr: np.ndarray
    actors: np.ndarray
    seed: int

    @cached_property
    def links(self) -> tuple:
        """One read-only view of ``actors`` per attribute."""
        view = self.actors.view()
        view.flags.writeable = False
        bounds = self.indptr.tolist()
        return tuple(view[s:e] for s, e in zip(bounds, bounds[1:]))

    @property
    def m(self) -> int:
        return self.x.size

    @property
    def n(self) -> int:
        return self.y.size


def _sample_weights(params: ModelParams, seed: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(params.x_law.sample(_stream(seed, _STREAM_X), params.m), dtype=np.float64)
    y = np.asarray(params.y_law.sample(_stream(seed, _STREAM_Y), params.n), dtype=np.float64)
    return x, y


def _rows_csr(keys: np.ndarray, rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, columns) of sorted ``row * n + column`` keys over `rows` rows.

    The columns are written over ``keys``, so pass an array nothing else uses.
    """
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=rows), out=indptr[1:])
    return indptr, np.remainder(keys, n, out=keys)


def _links_reference(x: np.ndarray, y: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    n, m = y.size, x.size
    root = 1.0 / math.sqrt(n * m)
    # One stream, rekeyed per row to the fresh state of _stream(seed,
    # _STREAM_REF | i): the same bytes without a new Generator per row.
    rng = _stream(seed, _STREAM_REF)
    fresh = rng.bit_generator.state
    key = fresh["state"]["key"]
    keys = []
    for i in range(m):
        key[1] = _STREAM_REF | i
        rng.bit_generator.state = fresh
        p = np.minimum(1.0, (x[i] * root) * y)
        keys.append(i * n + np.flatnonzero(rng.random(n) < p).astype(np.int64))
    return _rows_csr(np.concatenate(keys), m, n)


def _weight_buckets(t_sorted: np.ndarray) -> list[tuple[int, int, float]]:
    """(start, end, cap) ranges over descending weights, each spanning at
    most a factor of 2 so a block's accept ratio stays >= 1/4; weights <= 0
    are left out."""
    buckets = []
    start = 0
    n = t_sorted.size
    while start < n:
        cap = t_sorted[start]
        if cap <= 0.0:
            break  # the remaining weights can never link
        end = int(np.searchsorted(-t_sorted, -cap / 2.0, side="left"))
        end = max(end, start + 1)
        buckets.append((start, end, float(cap)))
        start = end
    return buckets


def _sorted_buckets(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Ids by descending weight, their weights, and the
    :func:`_weight_buckets` ranges over them."""
    order = np.argsort(-w, kind="stable")
    w_sorted = w[order]
    return order, w_sorted, _weight_buckets(w_sorted)


def _bucket_candidates(rng: np.random.Generator, size: int, p: float) -> np.ndarray:
    """Positions of successes in `size` Bernoulli(p) trials via geometric gaps."""
    if p >= 1.0:
        return np.arange(size, dtype=np.int64)
    out = []
    pos = -1
    while True:
        # Mean count of the successes left plus four standard deviations, so
        # one batch almost always passes the end without many spare draws.
        expect = (size - 1 - pos) * p
        gaps = rng.geometric(p, size=int(expect + 4.0 * math.sqrt(expect)) + 16)
        # A gap of size + 1 already passes the end from any pos >= -1; the
        # clip keeps the cumsum from wrapping when p is tiny (numpy returns
        # gaps near 2**63 for p below about 1e-18).
        positions = pos + np.cumsum(np.minimum(gaps, size + 1))
        cut = int(np.searchsorted(positions, size, side="left"))
        out.append(positions[:cut])
        if cut < positions.size:
            return np.concatenate(out) if len(out) > 1 else out[0]
        pos = int(positions[-1])


def _links_fast(x: np.ndarray, y: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    n, m = y.size, x.size
    root = 1.0 / math.sqrt(n * m)
    x_order, x_sorted, x_buckets = _sorted_buckets(x)
    y_order, t_sorted, t_buckets = _sorted_buckets(y * root)
    keys = [np.empty(0, dtype=np.int64)]
    if not t_buckets:
        return _rows_csr(keys[0], m, n)  # every actor weight is zero
    for a, (row_start, row_end, x_cap) in enumerate(x_buckets):
        blocks = [(_stream(seed, _STREAM_FAST | (a * len(t_buckets) + b)),
                   start, end - start, min(1.0, x_cap * t_cap))
                  for b, (start, end, t_cap) in enumerate(t_buckets)]
        per_row = sum(width * p_max for _, _, width, p_max in blocks)
        step = max(1, int(min(row_end - row_start, _CHUNK_CANDIDATES / per_row)))
        for lo in range(row_start, row_end, step):
            rows = min(step, row_end - lo)
            for rng, start, width, p_max in blocks:
                cand = _bucket_candidates(rng, rows * width, p_max)
                r, c = cand // width, start + cand % width
                p = np.minimum(1.0, x_sorted[lo + r] * t_sorted[c])
                keep = rng.random(cand.size) < p / p_max
                keys.append(x_order[lo + r[keep]] * n + y_order[c[keep]])
    return _rows_csr(np.sort(np.concatenate(keys)), m, n)


def sample_bipartite(params: ModelParams, seed: int,
                     generator: str = "reference") -> BipartiteSample:
    """Draw weights and links; deterministic in (params, seed, generator)."""
    x, y = _sample_weights(params, seed)
    if generator == "reference":
        indptr, actors = _links_reference(x, y, seed)
    elif generator == "fast":
        indptr, actors = _links_fast(x, y, seed)
    else:
        raise ValueError(f"generator must be 'reference' or 'fast', got {generator!r}")
    return BipartiteSample(x, y, indptr, actors, seed)


@dataclass(frozen=True)
class ProjectedGraph:
    """Simple undirected graph in CSR form; neighbor lists sorted, no loops.

    ``extra_isolated`` counts further vertices with no edge and no CSR row,
    such as the ids a compactly relabelled edge list skips.
    """

    n: int
    indptr: np.ndarray
    neighbors: np.ndarray
    extra_isolated: int = 0

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def n_edges(self) -> int:
        return self.neighbors.size // 2

    def neighbor_list(self, v: int) -> np.ndarray:
        return self.neighbors[self.indptr[v]:self.indptr[v + 1]]

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges as (u, v) arrays with u < v, lexicographically sorted."""
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        keep = src < self.neighbors
        return src[keep], self.neighbors[keep]


def graph_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> ProjectedGraph:
    """Build the CSR graph from endpoint arrays; dedupes and drops loops.

    Each edge is keyed in both orientations as ``row * n + column``, so n
    must stay below about 3e9 (n**2 < 2**63).  One sort of those keys orders
    them by (row, column), and dropping adjacent repeats dedupes them.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.size and (int(max(u.max(), v.max())) >= n or int(min(u.min(), v.min())) < 0):
        raise ValueError("edge endpoint outside [0, n)")
    keep = u != v
    keys = np.concatenate([(u * np.int64(n) + v)[keep], (v * np.int64(n) + u)[keep]])
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]  # rebinding frees the keys with repeats before _rows_csr
    return ProjectedGraph(n, *_rows_csr(keys, n, n))


def project(sample: BipartiteSample,
            edge_budget: int | None = DEFAULT_EDGE_BUDGET) -> ProjectedGraph:
    """Actor graph: u ~ v iff some attribute links both.

    Each attribute contributes the clique on its actor set; duplicated
    witnesses collapse in the dedupe, so the projection is idempotent in the
    link multiset.  Raises :class:`EdgeBudgetError` before materialising more
    candidate pairs than ``edge_budget``.
    """
    indptr, actors = sample.indptr, sample.actors
    sizes = np.diff(indptr)
    total_pairs = int((sizes * (sizes - 1) // 2).sum())
    if edge_budget is not None and total_pairs > edge_budget:
        raise EdgeBudgetError(
            f"projection would enumerate {total_pairs} candidate pairs, "
            f"exceeding the budget of {edge_budget}")
    # The link at position p pairs with the `later` links after it in its
    # row, positions p + 1 .. p + later[p]: one ragged arange over all rows.
    ahead = np.arange(1, actors.size + 1)
    later = np.repeat(indptr[1:], sizes) - ahead
    partner = np.repeat(ahead - (np.cumsum(later) - later), later)
    partner += np.arange(total_pairs)
    partner = actors[partner]  # drops the positions: two pair-sized arrays, not three
    return graph_from_edges(sample.n, np.repeat(actors, later), partner)


def write_edge_list(g: ProjectedGraph, file) -> None:
    """Whitespace-separated 'u v' lines, 0-based ids, one edge each."""
    with text_file(file, "w") as f:
        eu, ev = g.edge_array()
        f.writelines(f"{a} {b}\n" for a, b in zip(eu.tolist(), ev.tolist()))
