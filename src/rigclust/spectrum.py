"""Degree-conditioned clustering spectra of simple graphs.

For a deterministic graph the degree-k clustering value is the fraction of
adjacent neighbour pairs among all neighbour pairs ('cherries') anchored at
degree-k vertices:

    c(k) = sum_{d(v)=k} triangles(v) / sum_{d(v)=k} C(d(v), 2),

and C(k) is the same ratio with the anchor condition d(v) >= k.  Both are
exactly the conditional probabilities obtained by drawing an ordered triple of
distinct vertices uniformly at random -- the identity the test suite checks by
exhaustive enumeration.

Per-vertex triangle counts come from the degree-ordered orientation: each edge
points from the endpoint with smaller (degree, id) to the larger.  An oriented
edge v -> w and any x in out(w) form a wedge, which is a triangle exactly when
v -> x is an oriented edge too; every triangle is found once this way, from
its lowest and middle corners, and all three corners are credited
(edge-iterator triangle listing; Latapy 2008, "Main-memory triangle
computations for very large (sparse (power-law)) graphs").  The wedges are
made in chunks of about ``_WEDGE_CHUNK`` so the temporaries stay bounded.
Each chunk hashes the keys v*n + x of the oriented edges its wedges can
close into a table of 4 to 8 slots per key, and each wedge's closing key
is tested by one probe of that table; only a probe of a slot that several
keys share is settled by a binary search of the sorted keys.

The steps are independent, so they run on threads, one per CPU the process
may run on by default and never more than there are steps (multicore
edge-iterator counting; Shun and Tangwongsan 2015, "Multicore triangle
computations without tuning").  The threads share the ``_WEDGE_CHUNK``
budget, each step taking ``_WEDGE_CHUNK // threads``, so the temporaries in
flight stay within one chunk's bound; a step makes its wedges by gathers,
which release the interpreter lock where ``np.repeat`` does not.  Every
step adds its corners into one count array under a lock, so the counts are
exact integers, the same on any number of threads.  :func:`run_threads`,
which runs the steps, is the package's one thread runner: the replicates of
:mod:`rigclust.experiment` run through it too.

This module also owns the package's file formats: the 'u v' edge list
(:func:`read_edge_list`, :func:`write_edge_list`) and every CSV table, which
goes through :func:`write_csv`.  Edge lists given as a path are parsed by one
``np.loadtxt`` call; an open file, or anything that call rejects, goes through
the line parser, which names the first malformed line.
"""

from __future__ import annotations

import contextlib
import os
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphgen import ProjectedGraph, graph_from_edges

__all__ = [
    "DataFormatError",
    "ClusteringSpectrum",
    "triangle_counts",
    "clustering_spectrum",
    "usable_cpus",
    "run_threads",
    "pool",
    "read_edge_list",
    "write_edge_list",
    "text_file",
    "write_csv",
    "write_spectrum_csv",
]


#: Wedges plus oriented edges per step of :func:`triangle_counts`; it bounds
#: the temporaries (a few int64 arrays of about this length, and a probe
#: table of up to eight times it).
_WEDGE_CHUNK = 1 << 17

#: Multiplier of the hash that places oriented-edge keys in the table of
#: :func:`_is_key`: 2**64 divided by the golden ratio, rounded to odd.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


#: The largest vertex id read: the vertex count max id + 1 must fit in int64.
_MAX_ID = np.iinfo(np.int64).max - 1


class DataFormatError(ValueError):
    """Malformed external data (edge lists, spectrum tables)."""


def text_file(file, mode: str):
    """Context manager for a path or an open text file: a path (``str`` or
    ``os.PathLike``) is opened as UTF-8 in ``mode`` and closed on exit; an
    open file is used as it is and left open."""
    if isinstance(file, (str, os.PathLike)):
        return open(file, mode, encoding="utf-8")
    return contextlib.nullcontext(file)


def write_csv(file, header, rows) -> None:
    """Write a header line and one line per row to a path or an open text
    file.  A cell is empty for None, written as ``str(int(v))`` for an
    integer and as ``repr(float(v))`` otherwise."""
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))

    with text_file(file, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(cell, row)) + "\n")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_threads(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]`` on up to ``threads`` threads: the calling
    thread and ``min(threads, len(items)) - 1`` helpers take the items from
    one iterator under a lock.  Once ``fn`` raises, no thread takes another
    item, and the first exception is raised once every thread has ended."""
    items = list(items)
    results = [None] * len(items)
    todo = iter(enumerate(items))
    take = threading.Lock()
    errors = []

    def work():
        try:
            while not errors:
                with take:
                    item = next(todo, None)
                if item is None:
                    return
                i, x = item
                results[i] = fn(x)
        except BaseException as exc:  # raised in the calling thread below
            errors.append(exc)

    helpers = [threading.Thread(target=work)
               for _ in range(min(threads, len(items)) - 1)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]
    return results


def triangle_counts(g: ProjectedGraph, threads: int | None = None) -> np.ndarray:
    """Number of triangles through each vertex.

    The wedge steps run on ``threads`` threads (default :func:`usable_cpus`),
    never more than there are steps, so a graph of one step starts none.
    The threads share the ``_WEDGE_CHUNK`` budget, each step taking
    ``_WEDGE_CHUNK // threads``, and add their corners into one array under
    a lock, so the counts are the same integers on any number of threads.
    An exception in any step is raised here once every thread has ended.
    """
    if threads is None:
        threads = usable_cpus()
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    n = g.n
    counts = np.zeros(n, dtype=np.int64)
    rank = _degree_rank(g.degrees)  # orientation low -> high
    src = np.repeat(np.arange(n), g.degrees)
    up = rank[src] < rank[g.neighbors]
    es, ed = src[up], g.neighbors[up]  # oriented edges, sorted by (es, ed)
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(es, minlength=n), out=out_ptr[1:])
    # Sorted keys v*n + x of the oriented edges, closed by a sentinel above
    # every key so that a search never runs off the end.
    keys = np.append(es * np.int64(n) + ed, np.iinfo(np.int64).max)
    # Edge v -> w makes a wedge with each x in out(w); it is a triangle,
    # found only here, when v -> x is an oriented edge too.
    per_edge = np.diff(out_ptr)[ed]
    ends = np.cumsum(per_edge)
    # A step takes about `chunk` wedges and edges together: its edges' rows
    # fill the probe table even where they make no wedge.
    work = ends + np.arange(1, ends.size + 1)
    total = int(work[-1]) if work.size else 0
    chunk = max(1, _WEDGE_CHUNK // threads)
    cuts = np.searchsorted(work, np.arange(chunk, total, chunk), side="right")
    # The bounds come sorted; drop repeats without np.unique, which imports numpy.ma.
    bounds = np.concatenate(([0], cuts, [es.size]))
    bounds = bounds[np.flatnonzero(np.diff(bounds, prepend=-1))]
    add = threading.Lock()

    def step(span):
        a, b = span
        size = per_edge[a:b]
        stop = ends[a:b] - (ends[a - 1] if a else 0)  # wedge ends in the chunk
        w = int(stop[-1])
        # The chunk edge of each wedge, by gathers: np.repeat would hold the
        # interpreter lock.
        e = np.cumsum(np.bincount(stop[:-1], minlength=w)[:w])
        x = ed[(out_ptr[ed[a:b]] + size - stop)[e] + np.arange(w)]
        closing = (es[a:b] * np.int64(n))[e] + x
        # Every closing key lies in the rows es[a]..es[b - 1]; the key just
        # past them bounds the search.
        rows = keys[out_ptr[es[a]]:out_ptr[es[b - 1] + 1] + 1]
        hit = np.flatnonzero(_is_key(closing, rows))
        edge = a + e[hit]
        corners = np.concatenate([es[edge], ed[edge], x[hit]])
        with add:
            np.add.at(counts, corners, 1)

    run_threads(step, zip(bounds[:-1].tolist(), bounds[1:].tolist()), threads)
    return counts


def _degree_rank(degrees: np.ndarray) -> np.ndarray:
    """Position of each vertex in the (degree, id) order.  numpy sorts
    small unsigned keys stably by radix, so the degrees go in narrowed."""
    rank = np.empty(degrees.size, dtype=np.int64)
    small = degrees.astype(np.min_scalar_type(int(degrees.max(initial=0))))
    rank[np.argsort(small, kind="stable")] = np.arange(degrees.size)
    return rank


def _is_key(queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each query is one of ``keys``: sorted distinct int64 at least
    0, the last above every query.

    The keys go into a table of 4 to 8 slots per key, each at the slot of
    its multiplicative hash, with the largest int64 in the empty slots, and
    each query probes its own slot once.  A probe that finds its query is a
    member; one that finds another value at least 0 is not, since at most
    one key hashed there and it is in the slot.  A slot that several keys
    share holds the complement of the one that won it, below 0, and only a
    probe of such a slot falls back to a binary search of the keys.
    """
    bits = keys.size.bit_length() + 2
    slot = _hash(keys, bits)
    table = np.full(1 << bits, np.iinfo(np.int64).max, dtype=np.int64)
    table[slot] = keys
    shared = slot[table[slot] != keys]  # the slots some key lost
    table[shared] = ~table[shared]
    probe = table[_hash(queries, bits)]
    found = probe == queries
    search = np.flatnonzero(probe < 0)
    found[search] = keys[np.searchsorted(keys, queries[search])] == queries[search]
    return found


def _hash(values: np.ndarray, bits: int) -> np.ndarray:
    """Multiplicative hash of values >= 0 into [0, 2**bits): the top bits
    of their product with ``_HASH_MULT``, modulo 2**64."""
    h = values.view(np.uint64) * _HASH_MULT
    h >>= np.uint64(64 - bits)
    return h.view(np.int64)


@dataclass(frozen=True)
class ClusteringSpectrum:
    """Degree-indexed sums: vertex counts, triangle sums, cherry sums.

    Arrays are indexed by degree (0..max degree observed) and hold exact
    integers, so pooled ratios across replicates are ratios of sums.
    """

    n_vertices: np.ndarray
    tri_sum: np.ndarray
    cherry_sum: np.ndarray

    def __post_init__(self):
        for name in ("n_vertices", "tri_sum", "cherry_sum"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.int64))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.n_vertices.size == self.tri_sum.size == self.cherry_sum.size):
            raise ValueError("spectrum arrays must share a length")

    @property
    def max_degree(self) -> int:
        return self.n_vertices.size - 1

    @cached_property
    def cum_tri(self) -> np.ndarray:
        return np.cumsum(self.tri_sum[::-1])[::-1]

    @cached_property
    def cum_cherry(self) -> np.ndarray:
        return np.cumsum(self.cherry_sum[::-1])[::-1]

    def c_at(self, k: int) -> float | None:
        """Clustering at degree exactly k; None when no degree-k cherries."""
        if not (0 <= k <= self.max_degree) or self.cherry_sum[k] == 0:
            return None
        return float(self.tri_sum[k]) / float(self.cherry_sum[k])

    def C_at(self, k: int) -> float | None:
        """Clustering at degree >= k; None when no cherries that high."""
        if k > self.max_degree:
            return None
        k = max(k, 0)
        if self.cum_cherry[k] == 0:
            return None
        return float(self.cum_tri[k]) / float(self.cum_cherry[k])


def clustering_spectrum(g: ProjectedGraph, threads: int | None = None) -> ClusteringSpectrum:
    """Degree-indexed sums of ``g``; ``threads`` as in :func:`triangle_counts`."""
    deg = g.degrees
    tri = triangle_counts(g, threads)
    cherries = deg * (deg - 1) // 2
    length = int(deg.max()) + 1 if g.n else 1
    n_vertices = np.bincount(deg, minlength=length)
    n_vertices[0] += g.extra_isolated
    return ClusteringSpectrum(
        n_vertices=n_vertices,
        tri_sum=np.bincount(deg, weights=tri, minlength=length).astype(np.int64),
        cherry_sum=np.bincount(deg, weights=cherries, minlength=length).astype(np.int64),
    )


def pool(spectra) -> ClusteringSpectrum:
    """Pool replicate spectra by summing counts (ratio-of-sums estimator)."""
    spectra = list(spectra)
    if not spectra:
        raise ValueError("nothing to pool")
    length = max(s.n_vertices.size for s in spectra)

    def _padded(name):
        out = np.zeros(length, dtype=np.int64)
        for s in spectra:
            arr = getattr(s, name)
            out[:arr.size] += arr
        return out

    return ClusteringSpectrum(_padded("n_vertices"), _padded("tri_sum"),
                              _padded("cherry_sum"))


def read_edge_list(file) -> ProjectedGraph:
    """Parse 'u v' lines (blank lines and #-comments allowed) into a graph.

    The vertices are the ids 0..max id, or, when that range is more than
    twice the number of edge lines, only the ids with an edge, relabelled
    in id order, with the other ids up to the max counted in
    ``extra_isolated``.  Either way the CSR stays no longer than the edge
    arrays and every id up to the max counts as a vertex.  Self-loops are
    dropped: they carry no cherry or triangle information.
    """
    edges = _read_bulk(file)
    if edges is None:
        edges = _read_lines(file)
    u, v = edges[:, 0], edges[:, 1]
    n = int(edges.max()) + 1 if edges.size else 0
    if n <= 2 * len(edges):
        return graph_from_edges(n, u, v)
    keep = u != v
    u, v = u[keep], v[keep]
    ids = np.sort(np.concatenate([u, v]))
    ids = ids[np.diff(ids, prepend=-1) != 0]
    g = graph_from_edges(ids.size, np.searchsorted(ids, u), np.searchsorted(ids, v))
    return ProjectedGraph(g.n, g.indptr, g.neighbors, extra_isolated=n - ids.size)


def write_edge_list(g: ProjectedGraph, file) -> None:
    """Whitespace-separated 'u v' lines, 0-based ids, one edge each."""
    with text_file(file, "w") as f:
        eu, ev = g.edge_array()
        f.writelines(f"{a} {b}\n" for a, b in zip(eu.tolist(), ev.tolist()))


def _has_inline_comment(raw: bytes) -> bool:
    """Whether some line has a '#' after its first non-blank character:
    np.loadtxt reads the part before it, but the line format rejects it."""
    at = raw.find(b"#")
    while at >= 0:
        if raw[raw.rfind(b"\n", 0, at) + 1:at].strip():
            return True
        end = raw.find(b"\n", at)
        at = raw.find(b"#", end) if end >= 0 else -1
    return False


def _read_bulk(file) -> np.ndarray | None:
    """(edges, 2) ids of a path in one np.loadtxt call, or None when the
    file needs the line parser: an open file, a path that is not a regular
    file (a pipe cannot be read twice), anything np.loadtxt rejects or warns
    about, a column count other than two, or an id outside 0.._MAX_ID."""
    if not isinstance(file, (str, os.PathLike)) or not os.path.isfile(file):
        return None
    try:
        with open(file, "rb") as f:
            if _has_inline_comment(f.read()):
                return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = np.loadtxt(file, dtype=np.int64, comments="#", ndmin=2,
                               encoding="utf-8")
    except (OSError, ValueError, Warning):
        return None
    if edges.shape[1] != 2 or ((edges < 0) | (edges > _MAX_ID)).any():
        return None
    return edges


def _read_lines(file) -> np.ndarray:
    """The line-by-line parser, which names the first bad line."""
    us, vs = [], []
    with text_file(file, "r") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataFormatError(
                    f"line {lineno}: expected two vertex ids, got {raw!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise DataFormatError(
                    f"line {lineno}: non-integer vertex id in {raw!r}") from exc
            if a < 0 or b < 0:
                raise DataFormatError(f"line {lineno}: negative vertex id in {raw!r}")
            if a > _MAX_ID or b > _MAX_ID:
                raise DataFormatError(
                    f"line {lineno}: vertex id above {_MAX_ID} in {raw!r}")
            us.append(a)
            vs.append(b)
    return np.array([us, vs], dtype=np.int64).T


def write_spectrum_csv(spectrum: ClusteringSpectrum, file) -> None:
    """CSV rows k,n_vertices,tri_sum,cherry_sum,c_k,cum_tri,cum_cherry,C_k.

    A row appears for every degree with cherries at or above it; the ``c_k``
    field is left empty when degree k itself anchors no cherries (the
    conditioning event is empty there, not zero).
    """
    s = spectrum
    write_csv(file, "k,n_vertices,tri_sum,cherry_sum,c_k,cum_tri,cum_cherry,C_k".split(","),
              [(k, s.n_vertices[k], s.tri_sum[k], s.cherry_sum[k], s.c_at(k),
                s.cum_tri[k], s.cum_cherry[k], s.C_at(k))
               for k in range(s.max_degree + 1) if s.cum_cherry[k]])
