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
points from the endpoint with smaller (degree, id) to the larger, every
triangle is discovered exactly once by intersecting the sorted out-lists of an
oriented edge's endpoints, and all three corners are credited.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphgen import ProjectedGraph, graph_from_edges
from .mixedpoisson import text_file

__all__ = [
    "DataFormatError",
    "ClusteringSpectrum",
    "triangle_counts",
    "clustering_spectrum",
    "pool",
    "read_edge_list",
    "write_spectrum_csv",
]


class DataFormatError(ValueError):
    """Malformed external data (edge lists, spectrum tables)."""


def triangle_counts(g: ProjectedGraph) -> np.ndarray:
    """Number of triangles through each vertex."""
    deg = g.degrees
    counts = np.zeros(g.n, dtype=np.int64)
    # rank = position in the (degree, id) order; orientation low -> high.
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.lexsort((np.arange(g.n), deg))] = np.arange(g.n)
    out = []
    for v in range(g.n):
        nb = g.neighbor_list(v)
        out.append(nb[rank[nb] > rank[v]])  # sorted by id since nb is
    for v in range(g.n):
        ov = out[v]
        for w in ov.tolist():
            common = np.intersect1d(ov, out[w], assume_unique=True)
            if common.size:
                counts[v] += common.size
                counts[w] += common.size
                np.add.at(counts, common, 1)
    return counts


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


def clustering_spectrum(g: ProjectedGraph) -> ClusteringSpectrum:
    deg = g.degrees
    tri = triangle_counts(g)
    cherries = deg * (deg - 1) // 2
    length = int(deg.max()) + 1 if g.n else 1
    return ClusteringSpectrum(
        n_vertices=np.bincount(deg, minlength=length),
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

    Vertex count is max id + 1; ids never mentioned are isolated vertices only
    if smaller than some mentioned id.  Self-loops are dropped: they carry no
    cherry or triangle information.
    """
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
            us.append(a)
            vs.append(b)
    if not us:
        return graph_from_edges(0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    u = np.array(us, dtype=np.int64)
    v = np.array(vs, dtype=np.int64)
    return graph_from_edges(int(max(u.max(), v.max())) + 1, u, v)


def write_spectrum_csv(spectrum: ClusteringSpectrum, file) -> None:
    """CSV rows k,n_vertices,tri_sum,cherry_sum,c_k,cum_tri,cum_cherry,C_k.

    A row appears for every degree with cherries at or above it; the ``c_k``
    field is left empty when degree k itself anchors no cherries (the
    conditioning event is empty there, not zero).
    """
    with text_file(file, "w") as f:
        f.write("k,n_vertices,tri_sum,cherry_sum,c_k,cum_tri,cum_cherry,C_k\n")
        for k in range(spectrum.max_degree + 1):
            if spectrum.cum_cherry[k] == 0:
                continue
            c = spectrum.c_at(k)
            C = spectrum.C_at(k)
            f.write(",".join([
                str(k),
                str(int(spectrum.n_vertices[k])),
                str(int(spectrum.tri_sum[k])),
                str(int(spectrum.cherry_sum[k])),
                "" if c is None else repr(c),
                str(int(spectrum.cum_tri[k])),
                str(int(spectrum.cum_cherry[k])),
                "" if C is None else repr(C),
            ]) + "\n")
