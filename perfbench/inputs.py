"""Benchmark inputs, drawn from the workload seed by this directory's own code.

Nothing here imports ``rigclust``: the edge list for ``stats-dense`` and its
clustering oracle must stay byte-identical on every commit, including commits
that change the package's sampler or triangle counter.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: The acceptance experiment: n = m = 10^4, beta = 1, Pareto(1,7)/Pareto(1,6).
COMPARE_SPARSE = {
    "n": 10000, "m": 10000, "beta": 1.0,
    "x_law": "pareto(1,7)", "y_law": "pareto(1,6)",
    "k_min": 3, "k_max": 15, "generator": "fast",
}
#: Replicates per compare process: enough that sampling outweighs the one
#: theory build every process pays.
COMPARE_REPLICATES = 8

#: Heavier weights (x_min = 2) whose limit laws are numeric up to k = 50.
THEORY_DENSE = {
    "n": 10000, "m": 10000, "beta": 1.0,
    "x_law": "pareto(2,7)", "y_law": "pareto(2,6)",
    "k_min": 3, "k_max": 50,
}

#: Attribute cliques drawn with the theory-dense laws at n = m = 3*10^4.
STATS_N = 30000
STATS_M = 30000
STATS_X = (2.0, 7.0)  # (x_min, tail index) of the attribute weights
STATS_Y = (2.0, 6.0)  # (x_min, tail index) of the actor weights


def write_config(path: str, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for key, val in values.items():
            f.write(f"{key} = {val}\n")


def _pareto(rng: np.random.Generator, law: tuple[float, float], size: int) -> np.ndarray:
    x_min, alpha = law
    return x_min * (1.0 - rng.random(size)) ** (-1.0 / alpha)


def clique_union_edges(seed: int, n: int = STATS_N, m: int = STATS_M
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Edges (u < v, sorted, no duplicates) of a union of attribute cliques.

    Attribute i holds Poisson(x_i * sum(y) / sqrt(n m)) actor draws, each
    actor picked with probability proportional to its weight y_j; repeated
    draws collapse.  This follows the model's clique-size law without using
    the package's own sampler.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    x = _pareto(rng, STATS_X, m)
    y = _pareto(rng, STATS_Y, n)
    total = float(y.sum())
    sizes = rng.poisson(x * total / np.sqrt(float(n) * m))
    members = rng.choice(n, size=int(sizes.sum()), p=y / total)
    us, vs = [], []
    at = 0
    for d in sizes.tolist():
        clique = np.unique(members[at:at + d])
        at += d
        if clique.size > 1:
            iu, iv = np.triu_indices(clique.size, 1)
            us.append(clique[iu])
            vs.append(clique[iv])
    keys = np.unique(np.concatenate(us) * np.int64(n) + np.concatenate(vs))
    return keys // n, keys % n


def write_edge_list(path: str, u: np.ndarray, v: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist())))


def spectrum_oracle(u: np.ndarray, v: np.ndarray, block: int = 4096) -> dict:
    """Per-degree vertex, triangle and neighbour-pair sums by sparse algebra.

    Triangles through vertex i are ``diag(A A A)_i / 2``, computed a block of
    rows at a time as the row sums of ``(A_rows A) * A_rows``.  The vertex set
    is ``0..max id``, as the ``stats`` command reads it.
    """
    n = int(max(u.max(), v.max())) + 1
    ones = np.ones(u.size, dtype=np.int64)
    upper = sp.coo_matrix((ones, (u, v)), shape=(n, n)).tocsr()
    adj = (upper + upper.T).tocsr()
    deg = np.diff(adj.indptr).astype(np.int64)
    tri = np.empty(n, dtype=np.int64)
    for start in range(0, n, block):
        rows = adj[start:start + block]
        closed = (rows @ adj).multiply(rows)
        tri[start:start + block] = np.asarray(closed.sum(axis=1)).ravel() // 2
    length = int(deg.max()) + 1
    sums = {name: np.zeros(length, dtype=np.int64)
            for name in ("n_vertices", "tri_sum", "cherry_sum")}
    np.add.at(sums["n_vertices"], deg, 1)
    np.add.at(sums["tri_sum"], deg, tri)
    np.add.at(sums["cherry_sum"], deg, deg * (deg - 1) // 2)
    return sums
