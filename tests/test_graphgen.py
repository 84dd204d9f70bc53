"""Bipartite samplers and clique projection against hand-counted cases."""

import hashlib
import io
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chi2

import rigclust.graphgen as gg
from rigclust import (
    Degenerate,
    EdgeBudgetError,
    ModelParams,
    Pareto,
    ProjectedGraph,
    graph_from_edges,
    project,
    sample_bipartite,
    write_edge_list,
)


def tiny_params(n=5, m=5, beta=1.0, x=1.2, y=0.9):
    return ModelParams(n, m, beta, Degenerate(x), Degenerate(y))


def make_sample(n, links):
    """Hand-built sample: weights are irrelevant once links are fixed."""
    indptr = np.cumsum([0] + [len(a) for a in links])
    actors = np.array([v for a in links for v in a], dtype=np.int64)
    return gg.BipartiteSample(np.ones(len(links)), np.ones(n), indptr, actors, seed=0)


def link_rows(indptr, actors):
    """The per-attribute actor arrays of a CSR."""
    return np.split(actors, indptr[1:-1])


# ---------------------------------------------------------------------------
# Samplers: determinism, clamping, exact Bernoulli law
# ---------------------------------------------------------------------------

def test_sample_is_deterministic_in_seed():
    params = ModelParams(12, 9, 1.0, Pareto(1, 7), Pareto(1, 6))
    for generator in ("reference", "fast"):
        s1 = sample_bipartite(params, 42, generator)
        s2 = sample_bipartite(params, 42, generator)
        assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.y, s2.y)
        assert len(s1.links) == params.m == s1.m and s1.n == params.n
        for a, b in zip(s1.links, s2.links):
            assert np.array_equal(a, b)
        s3 = sample_bipartite(params, 43, generator)
        assert not all(np.array_equal(a, b) for a, b in zip(s1.links, s3.links))


LINK_PINS = [  # (generator, n = m, seed, sha256 of the link rows)
    ("reference", 300, 11, "212ae97d9690c03ad317dbf6e22bd0a506dc513bb78ab4441767e60f596cf920"),
    ("reference", 300, 2**63 + 11,
     "a2f5951672fe07da38ae60f7b1c078c228c51514b0be4574cec2276c8aa967ad"),
    ("fast", 300, 11, "7380d57953876dae834d66f8a939d989cd93e1be6a21deccd421daff0a4115e8"),
    ("fast", 300, 2**63 + 11, "bd4fe7ab888180a52868862c9be7979a1022b7d693cf55e67ec415752572f8ed"),
    ("fast", 20000, 11, "33d84b3c68e44c27f30878c02cd03d5b95263295d7024d930322e4968de6edc6"),
]


@pytest.mark.parametrize("generator, n, seed, digest", LINK_PINS,
                         ids=[f"{seed}-{digest}" for _, _, seed, digest in LINK_PINS])
def test_reference_links_are_pinned(generator, n, seed, digest):
    # Row i of the reference scan reads the Philox stream keyed by
    # (seed, _STREAM_REF | i), and each block of the fast sampler the stream
    # keyed by (seed, _STREAM_FAST | block id); these digests pin those
    # bytes, including a seed at or above 2**63 and, at n = m = 20000, a fast
    # sample drawn in many row chunks.
    params = ModelParams(n, n, 1.0, Pareto(1, 7), Pareto(1, 6))
    h = hashlib.sha256()
    for row in sample_bipartite(params, seed, generator).links:
        h.update(np.int64(row.size).tobytes())
        h.update(row.astype("<i8").tobytes())
    assert h.hexdigest() == digest


def test_projection_is_pinned():
    params = ModelParams(20000, 20000, 1.0, Pareto(1, 7), Pareto(1, 6))
    g = project(sample_bipartite(params, 11, "fast"))
    h = hashlib.sha256(g.indptr.astype("<i8").tobytes())
    h.update(g.neighbors.astype("<i8").tobytes())
    assert h.hexdigest() == "dfdbc5abceca2a5b1fe408f82dcc0cd627b7f2d0d50a5b8d6bc118bc12c20fcf"


def test_links_view_is_read_only_csr():
    params = ModelParams(40, 30, 1.0, Pareto(1, 7), Pareto(1, 6))
    s = sample_bipartite(params, 3, "fast")
    assert s.indptr.dtype == s.actors.dtype == np.int64
    assert s.indptr.size == params.m + 1 and s.indptr[-1] == s.actors.size
    assert all(np.array_equal(a, b) for a, b in zip(s.links, link_rows(s.indptr, s.actors)))
    with pytest.raises(ValueError):
        s.links[int(np.argmax(np.diff(s.indptr)))][0] = 0


def test_generators_share_weight_streams():
    # The weight draws depend only on the seed, not on the link generator,
    # so the two generators describe the same random environment.
    params = ModelParams(20, 15, 2.0, Pareto(1, 7), Pareto(1, 6))
    ref = sample_bipartite(params, 7, "reference")
    fast = sample_bipartite(params, 7, "fast")
    assert np.array_equal(ref.x, fast.x)
    assert np.array_equal(ref.y, fast.y)


def test_links_sorted_int64():
    params = ModelParams(40, 30, 1.0, Pareto(1, 7), Pareto(1, 6))
    for generator in ("reference", "fast"):
        s = sample_bipartite(params, 3, generator)
        for row in s.links:
            assert row.dtype == np.int64
            assert np.all(np.diff(row) > 0)  # strictly increasing: no dupes
            if row.size:
                assert 0 <= row[0] and row[-1] < params.n


def test_probability_clamp_links_everything():
    # w * w / sqrt(nm) > 1: every pair must link.  At n = m = 400 the block
    # holds more pairs than one chunk of the fast sampler may draw, so it is
    # split into several row chunks.
    assert 400 * 400 > gg._CHUNK_CANDIDATES
    for n, w in ((4, 5.0), (400, 50.0)):
        params = ModelParams(n, n, 1.0, Degenerate(w), Degenerate(w))
        for generator in ("reference", "fast"):
            s = sample_bipartite(params, 11, generator)
            assert len(s.links) == n
            for row in s.links:
                assert row.dtype == np.int64
                assert np.array_equal(row, np.arange(n))


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        sample_bipartite(tiny_params(), 0, "bogus")


def test_row_streams_distinct_for_full_range_seeds():
    # Seeds above 2**63 must not collapse the per-attribute streams (a list
    # of huge python ints round-trips through float64 inside numpy unless the
    # key is built as an explicit uint64 array).
    params = ModelParams(200, 50, 1.0, Degenerate(2.0), Degenerate(2.0))
    for seed in (11057097909488678325, 2**63 + 1, 2**64 - 2, 7):
        for generator in ("reference", "fast"):
            s = sample_bipartite(params, seed, generator)
            distinct = {row.tobytes() for row in s.links}
            assert len(distinct) > 40, (seed, generator)


@pytest.mark.parametrize("generator", ["reference", "fast"])
def test_total_link_count_matches_bernoulli_mean(generator):
    # Degenerate weights give one known link probability for all nm pairs;
    # pooled over seeds the link count is Binomial(S*n*m, p).
    params = tiny_params()  # p = 1.2 * 0.9 / 5 = 0.216
    p = 1.2 * 0.9 / 5.0
    n_seeds = 400
    total = sum(sum(row.size for row in sample_bipartite(params, s, generator).links)
                for s in range(n_seeds))
    trials = n_seeds * params.n * params.m
    se = math.sqrt(trials * p * (1 - p))
    assert abs(total - trials * p) < 5 * se


def test_generators_agree_on_mean_link_count():
    # Cheap sanity check that the rejection sampler tracks the scan; the
    # rigorous per-pair comparison lives in the acceptance suite.
    params = ModelParams(60, 60, 1.0, Pareto(1, 7), Pareto(1, 6))
    n_seeds = 40
    counts = {g: [sum(row.size for row in sample_bipartite(params, s, g).links)
                  for s in range(n_seeds)]
              for g in ("reference", "fast")}
    diff = np.mean(counts["reference"]) - np.mean(counts["fast"])
    pooled = np.sqrt((np.var(counts["reference"]) + np.var(counts["fast"])) / n_seeds)
    assert abs(diff) < 5 * pooled


# ---------------------------------------------------------------------------
# Fast-path internals: buckets and geometric skipping
# ---------------------------------------------------------------------------

def test_weight_buckets_partition_within_factor_two():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        t = np.sort(rng.pareto(3.0, size=rng.integers(1, 200)) + 0.01)[::-1]
        buckets = gg._weight_buckets(t)
        assert buckets[0][0] == 0
        for (s0, e0, _), (s1, _, _) in zip(buckets, buckets[1:]):
            assert e0 == s1  # contiguous
        for start, end, cap in buckets:
            assert start < end
            assert cap == t[start]
            chunk = t[start:end]
            assert np.all(chunk <= cap)
            assert np.all(chunk > cap / 2.0)  # accept ratio stays >= 1/2


def test_weight_buckets_drop_zero_tail():
    t = np.array([4.0, 3.0, 0.0, 0.0])
    buckets = gg._weight_buckets(t)
    assert [(s, e) for s, e, _ in buckets] == [(0, 2)]
    assert gg._weight_buckets(np.zeros(3)) == []


def test_bucket_candidates_full_at_probability_one():
    rng = np.random.default_rng(0)
    assert np.array_equal(gg._bucket_candidates(rng, 10, 1.0), np.arange(10))
    assert np.array_equal(gg._bucket_candidates(rng, 10, 1.5), np.arange(10))


def test_bucket_candidates_at_vanishing_probability():
    # Geometric gaps near 2**63 must not wrap around into the block.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        for p in (1e-18, 1e-300):
            assert gg._bucket_candidates(rng, 10, p).size == 0
    indptr, actors = gg._links_fast(np.full(3, 1e-150), np.full(4, 1e-150), seed=1)
    assert np.array_equal(indptr, [0, 0, 0, 0]) and actors.size == 0


def test_bucket_candidates_are_iid_bernoulli():
    # Geometric gaps must reproduce iid Bernoulli(p) positions: the count in
    # each cell is Binomial(R, p) and the cells are independent, so the
    # standardised sum of squares is chi-square with `size` dof.
    rng = np.random.default_rng(99)
    size, p, reps = 8, 0.35, 3000
    counts = np.zeros(size)
    for _ in range(reps):
        pos = gg._bucket_candidates(rng, size, p)
        assert pos.size == 0 or (0 <= pos[0] and pos[-1] < size)
        assert np.all(np.diff(pos) > 0)
        counts[pos] += 1
    stat = np.sum((counts - reps * p) ** 2) / (reps * p * (1 - p))
    assert chi2.sf(stat, df=size) > 1e-3


def assert_link_rows(csr, n, m):
    indptr, actors = csr
    assert indptr.dtype == actors.dtype == np.int64
    assert indptr.size == m + 1 and indptr[0] == 0 and indptr[-1] == actors.size
    for row in link_rows(indptr, actors):
        assert np.all(np.diff(row) > 0)  # sorted and unique
        assert row.size == 0 or (0 <= row[0] and row[-1] < n)


def test_fast_links_match_pair_probabilities_exactly(monkeypatch):
    # Fixed weights spanning several classes on both sides (and some pairs
    # clamped at p = 1): over S seeds each pair's count is Binomial(S, p_ij),
    # independently, so the standardised sum of squares is chi-square.  The
    # small chunk cap splits the larger attribute classes into row chunks.
    monkeypatch.setattr(gg, "_CHUNK_CANDIDATES", 100)
    n = m = 30
    rng = np.random.default_rng(8)
    x = 1.0 + rng.pareto(2.5, size=m) * 3.0
    y = 1.0 + rng.pareto(2.5, size=n) * 3.0
    p = np.minimum(1.0, np.outer(x, y) / math.sqrt(n * m))
    assert p.max() == 1.0 and p.min() < 0.1
    n_seeds = 4000
    row_offsets = np.arange(m) * n
    counts = np.zeros(n * m, dtype=np.int64)
    for seed in range(n_seeds):
        indptr, actors = gg._links_fast(x, y, seed)
        if seed < 50:
            assert_link_rows((indptr, actors), n, m)
        counts += np.bincount(actors + np.repeat(row_offsets, np.diff(indptr)),
                              minlength=n * m)
    counts = counts.reshape(m, n)
    full = p == 1.0
    assert np.all(counts[full] == n_seeds)
    q = p[~full]
    stat = float(np.sum((counts[~full] - n_seeds * q) ** 2 / (n_seeds * q * (1 - q))))
    assert chi2.sf(stat, df=q.size) > 1e-3


def test_fast_generator_skips_nonpositive_weight():
    # Zero-weight attributes and zero-weight actors never link, also when
    # every actor or every attribute weighs zero.
    x = np.array([0.0, 30.0, 0.0, 5.0, 30.0])
    y = np.array([30.0, 0.0, 7.0, 0.0, 30.0, 0.0])
    for seed in range(20):
        csr = gg._links_fast(x, y, seed)
        assert_link_rows(csr, y.size, x.size)
        links = link_rows(*csr)
        assert links[0].size == 0 and links[2].size == 0
        for row in links:
            assert not np.isin(row, [1, 3, 5]).any()
        assert np.array_equal(links[1], [0, 2, 4])  # p >= 1 on these pairs
    assert_link_rows(gg._links_fast(x, np.zeros(4), seed=1), 4, x.size)
    assert_link_rows(gg._links_fast(np.zeros(3), y, seed=1), y.size, 3)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def test_project_cliques_hand_case():
    # Attributes {0,1,2} and {2,3}: a triangle plus the edge 2-3.
    g = project(make_sample(4, [[0, 1, 2], [2, 3]]))
    assert g.n == 4 and g.n_edges == 4
    eu, ev = g.edge_array()
    assert list(zip(eu.tolist(), ev.tolist())) == [(0, 1), (0, 2), (1, 2), (2, 3)]


def test_project_dedupes_shared_witnesses():
    g = project(make_sample(4, [[0, 1], [0, 1, 3]]))
    eu, ev = g.edge_array()
    assert list(zip(eu.tolist(), ev.tolist())) == [(0, 1), (0, 3), (1, 3)]


def test_project_handles_empty_and_singleton_rows():
    g = project(make_sample(3, [[], [1], []]))
    assert g.n_edges == 0
    assert np.array_equal(g.degrees, np.zeros(3))


def test_project_edge_budget():
    links = [list(range(100))]  # one attribute, 4950 candidate pairs
    with pytest.raises(EdgeBudgetError):
        project(make_sample(100, links), edge_budget=1000)
    g = project(make_sample(100, links), edge_budget=None)
    assert g.n_edges == 100 * 99 // 2


def test_project_equals_clique_union():
    # The loop-free pair enumeration against the union of every attribute's
    # clique, built pair by pair; heavy weights give rows of many sizes.
    params = ModelParams(60, 40, 1.0, Pareto(1, 2.5), Pareto(1, 2.5))
    for seed in range(5):
        sample = sample_bipartite(params, seed, "fast")
        pairs = {pair for row in sample.links
                 for pair in itertools.combinations(row.tolist(), 2)}
        eu, ev = project(sample).edge_array()
        assert list(zip(eu.tolist(), ev.tolist())) == sorted(pairs)


def test_projected_graph_invariants():
    params = ModelParams(80, 60, 1.0, Pareto(1, 7), Pareto(1, 6))
    for seed in range(5):
        g = project(sample_bipartite(params, seed, "fast"))
        assert isinstance(g, ProjectedGraph)
        assert g.indptr[0] == 0 and g.indptr[-1] == g.neighbors.size
        assert int(g.degrees.sum()) == 2 * g.n_edges
        for v in range(g.n):
            row = g.neighbor_list(v)
            assert np.all(np.diff(row) > 0)
            assert v not in row
            for w in row.tolist():
                assert v in g.neighbor_list(w)


# ---------------------------------------------------------------------------
# CSR construction and edge-list output
# ---------------------------------------------------------------------------

def test_graph_from_edges_dedupes_and_drops_loops():
    u = np.array([3, 0, 1, 1, 0])
    v = np.array([3, 1, 0, 2, 1])
    g = graph_from_edges(4, u, v)
    assert g.n_edges == 2
    assert np.array_equal(g.degrees, [1, 2, 1, 0])
    assert np.array_equal(g.neighbor_list(1), [0, 2])
    eu, ev = g.edge_array()
    assert list(zip(eu.tolist(), ev.tolist())) == [(0, 1), (1, 2)]
    # The CSR columns are written in place, but never into the caller's arrays.
    u.setflags(write=False)
    v.setflags(write=False)
    again = graph_from_edges(4, u, v)
    assert np.array_equal(again.indptr, g.indptr)
    assert np.array_equal(again.neighbors, g.neighbors)
    loops = graph_from_edges(5, [3, 1], [3, 1])
    assert loops.n_edges == 0
    assert np.array_equal(loops.indptr, np.zeros(6))


def test_project_memory_per_candidate_pair():
    # 211 attributes of 200 distinct actors out of 10**6: 4,198,900 candidate
    # pairs.  ru_maxrss is read in KiB, as Linux reports it.  A new process
    # starts its ru_maxrss at the RSS of the process that spawned it, so the
    # measuring process is spawned by a small hop, not by this one.
    script = """
import resource
import numpy as np
from rigclust.graphgen import BipartiteSample, project
rows, width, n = 211, 200, 10**6
rng = np.random.default_rng(11)
actors = np.concatenate([np.sort(rng.choice(n, width, replace=False)) for _ in range(rows)])
sample = BipartiteSample(np.ones(rows), np.ones(n), np.arange(rows + 1) * width, actors, 11)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
g = project(sample, None)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024, g.n_edges)
"""
    hop = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    proc = subprocess.run([sys.executable, "-c", hop, sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    grown, edges = map(int, proc.stdout.split())
    pairs = 211 * 200 * 199 // 2
    assert 0 < edges <= pairs
    assert grown <= 64 * pairs, f"{grown / pairs:.1f} bytes per candidate pair"


def test_graph_from_edges_matches_set_built_csr():
    rng = np.random.default_rng(8)
    n = 40
    u = rng.integers(0, n, 300)
    v = rng.integers(0, n, 300)
    # Every edge twice, once per orientation, plus the loops drawn above.
    order = rng.permutation(2 * u.size)
    g = graph_from_edges(n, np.concatenate([u, v])[order], np.concatenate([v, u])[order])
    adj = [set() for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    assert np.any(u == v)
    assert g.indptr.dtype == g.neighbors.dtype == np.int64
    assert np.array_equal(g.indptr, np.cumsum([0] + [len(a) for a in adj]))
    assert np.array_equal(g.neighbors, [w for a in adj for w in sorted(a)])


def test_graph_from_edges_validates_endpoints():
    with pytest.raises(ValueError):
        graph_from_edges(3, np.array([0]), np.array([3]))
    with pytest.raises(ValueError):
        graph_from_edges(3, np.array([-1]), np.array([1]))


def test_graph_from_edges_empty():
    g = graph_from_edges(5, np.array([]), np.array([]))
    assert g.n == 5 and g.n_edges == 0
    assert np.array_equal(g.indptr, np.zeros(6))


def test_write_edge_list_golden():
    g = project(make_sample(3, [[0, 1, 2]]))
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert buf.getvalue() == "0 1\n0 2\n1 2\n"


def test_write_edge_list_to_path(tmp_path):
    g = project(make_sample(3, [[0, 2]]))
    path = tmp_path / "edges.txt"
    write_edge_list(g, str(path))
    assert path.read_text() == "0 2\n"
