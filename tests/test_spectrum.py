"""Clustering spectra against exhaustive enumeration and hand-counted graphs."""

import io
import itertools
import os
import sys
import threading
import time

import numpy as np
import pytest

import rigclust.spectrum as spectrum
from rigclust import (
    ClusteringSpectrum,
    DataFormatError,
    clustering_spectrum,
    graph_from_edges,
    pool,
    read_edge_list,
    triangle_counts,
    write_edge_list,
    write_spectrum_csv,
)


def graph_of(n, edges):
    edges = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    return graph_from_edges(n, edges[:, 0], edges[:, 1])


def complete_graph(n):
    return graph_of(n, itertools.combinations(range(n), 2))


def random_graph(rng, n, p):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return graph_of(n, edges)


def adjacency_sets(g):
    return [set(g.neighbor_list(v).tolist()) for v in range(g.n)]


# ---------------------------------------------------------------------------
# Triangle counts
# ---------------------------------------------------------------------------

def test_triangle_counts_hand_graphs():
    assert np.array_equal(triangle_counts(complete_graph(4)), [3, 3, 3, 3])
    assert np.array_equal(triangle_counts(complete_graph(5)), [6, 6, 6, 6, 6])
    star = graph_of(5, [(0, i) for i in range(1, 5)])
    assert np.array_equal(triangle_counts(star), np.zeros(5))
    path = graph_of(4, [(0, 1), (1, 2), (2, 3)])
    assert np.array_equal(triangle_counts(path), np.zeros(4))
    cycle5 = graph_of(5, [(i, (i + 1) % 5) for i in range(5)])
    assert np.array_equal(triangle_counts(cycle5), np.zeros(5))
    tri_pendant = graph_of(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert np.array_equal(triangle_counts(tri_pendant), [1, 1, 1, 0])
    # The orientation ranks vertices in the (degree, id) order of a lexsort,
    # on degrees with many ties and on degrees too wide for one byte.
    for deg in (np.random.default_rng(5).integers(0, 4, 500),
                np.array([300, 2, 300, 0, 2, 70000, 2, 255, 256])):
        rank = np.empty(deg.size, dtype=np.int64)
        rank[np.lexsort((np.arange(deg.size), deg))] = np.arange(deg.size)
        assert np.array_equal(spectrum._degree_rank(deg), rank)


def triple_enumeration_counts(g):
    """Triangles through each vertex, by checking every vertex triple."""
    adj = adjacency_sets(g)
    expect = np.zeros(g.n, dtype=np.int64)
    for a, b, c in itertools.combinations(range(g.n), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            expect[[a, b, c]] += 1
    return expect


def test_triangle_counts_match_triple_enumeration():
    rng = np.random.default_rng(1234)
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(3, 13)), float(rng.uniform(0.2, 0.8)))
        assert np.array_equal(triangle_counts(g), triple_enumeration_counts(g))


@pytest.mark.parametrize("chunk,mult", [
    *(pytest.param(c, spectrum._HASH_MULT, id=str(c)) for c in (1, 3, 7)),
    *(pytest.param(c, np.uint64(0), id=f"{c}-one-slot") for c in (1, 3, 7)),
])
def test_triangle_counts_span_many_wedge_chunks(monkeypatch, chunk, mult):
    # A chunk of a few wedges splits one graph into many steps, and single
    # edges with more wedges than a chunk get a step of their own.  A hash
    # multiplier of 0 sends every key to one slot, so every probe that
    # misses takes the binary search.  Each thread count runs the steps on
    # that many threads, whatever the host's CPUs.
    monkeypatch.setattr(spectrum, "_WEDGE_CHUNK", chunk)
    monkeypatch.setattr(spectrum, "_HASH_MULT", mult)
    rng = np.random.default_rng(99)
    graphs = [random_graph(rng, int(rng.integers(8, 16)), float(rng.uniform(0.3, 0.9)))
              for _ in range(6)]
    for threads in (1, 2, 3):
        for g in graphs:
            assert np.array_equal(triangle_counts(g, threads), triple_enumeration_counts(g))
        assert np.array_equal(triangle_counts(complete_graph(9), threads), np.full(9, 28))


def clique_union(seed, n, cliques):
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(cliques):
        members = rng.choice(n, size=int(rng.integers(2, 14)), replace=False)
        edges.extend(itertools.combinations(members.tolist(), 2))
    return graph_of(n, edges)


def intersection_counts(g):
    adj = adjacency_sets(g)
    return [sum(len(adj[v] & adj[w]) for w in adj[v]) // 2 for v in range(g.n)]


def test_triangle_counts_on_a_clique_union(monkeypatch):
    # Overlapping cliques: many triangles, and in one wedge chunk enough
    # keys that several share a slot of the probe table.  A smaller chunk
    # gives every thread count several steps.
    g = clique_union(2024, 300, 120)
    expect = intersection_counts(g)
    assert np.array_equal(triangle_counts(g, 1), expect)
    monkeypatch.setattr(spectrum, "_WEDGE_CHUNK", 3000)
    for threads in (1, 2, 3):
        assert np.array_equal(triangle_counts(g, threads), expect)


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs, in start order."""
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    return started


def test_triangle_counts_threads_lose_no_update(monkeypatch):
    # More threads than this host has cores, switching as often as the
    # interpreter allows, over hundreds of steps: a corner added outside
    # the lock, or a step taken twice or never, changes a count.
    g = clique_union(7, 200, 150)
    expect = intersection_counts(g)
    monkeypatch.setattr(spectrum, "_WEDGE_CHUNK", 8 * 64)
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: result.append(triangle_counts(g, 8)))
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert np.array_equal(result[0], expect)


def test_triangle_counts_start_no_more_threads_than_steps(monkeypatch, started):
    # One step: the calling thread runs it alone.
    assert np.array_equal(triangle_counts(complete_graph(9), 8), np.full(9, 28))
    assert started == []
    # A triangle's three oriented edges make 1 wedge and 4 units of work:
    # a chunk of 16 // 8 = 2 cuts them into two steps.
    monkeypatch.setattr(spectrum, "_WEDGE_CHUNK", 16)
    assert np.array_equal(triangle_counts(complete_graph(3), 8), [1, 1, 1])
    assert 0 < len(started) <= 2
    with pytest.raises(ValueError, match="threads must be >= 1"):
        triangle_counts(complete_graph(3), 0)


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert spectrum.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert spectrum.usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert spectrum.usable_cpus() == 1


def test_run_threads_returns_results_in_item_order():
    # Later items finish first, so completion order is not item order.
    def square(x):
        time.sleep((8 - x) * 0.005)
        return x * x

    for threads in (1, 3, 8, 20):
        assert spectrum.run_threads(square, range(8), threads) == [x * x for x in range(8)]
    assert spectrum.run_threads(square, [], 4) == []


def test_run_threads_starts_one_helper_fewer_than_it_uses(started):
    for threads, items, helpers in ((3, 5, 2), (8, 2, 1), (4, 1, 0), (1, 6, 0), (4, 0, 0)):
        started.clear()
        assert spectrum.run_threads(str, range(items), threads) == list(map(str, range(items)))
        assert len(started) == helpers
        for t in started:
            t.join(timeout=60)
            assert not t.is_alive()


def test_run_threads_raises_the_first_error_after_every_thread_ends(started):
    # The barrier holds the first three items on three threads until all are
    # taken.  "fast" fails at once; "ok" ends 0.3 s later and, seeing the
    # error, takes no other item; "slow" fails 0.6 s later, and its error is
    # not the one raised, but it has ended when the call returns.
    ended = []
    barrier = threading.Barrier(3)

    def fn(x):
        if x == "never":
            ended.append(x)
            return x
        barrier.wait(timeout=60)
        time.sleep({"fast": 0.0, "ok": 0.3, "slow": 0.6}[x])
        ended.append(x)
        if x != "ok":
            raise ValueError(x)
        return x

    with pytest.raises(ValueError, match="fast"):
        spectrum.run_threads(fn, ["slow", "fast", "ok", "never"], 3)
    assert ended == ["fast", "ok", "slow"]
    assert len(started) == 2 and not any(t.is_alive() for t in started)


def test_triangle_counts_empty_graph():
    g = graph_of(4, [])
    assert np.array_equal(triangle_counts(g), np.zeros(4))


# ---------------------------------------------------------------------------
# Spectrum vs ordered-triple conditional frequencies (exhaustive, exact)
# ---------------------------------------------------------------------------

def brute_triple_counts(adj, k, cumulative):
    """(favourable, total) ordered triples (v, w, u): w, u distinct neighbours
    of an anchor v with the required degree, favourable when w ~ u."""
    num = den = 0
    for v, nbrs in enumerate(adj):
        d = len(nbrs)
        if d >= k if cumulative else d == k:
            for w in nbrs:
                for u in nbrs:
                    if w != u:
                        den += 1
                        if u in adj[w]:
                            num += 1
    return num, den


def assert_matches_brute(g):
    spec = clustering_spectrum(g)
    adj = adjacency_sets(g)
    for k in range(spec.max_degree + 2):
        for cumulative in (False, True):
            num, den = brute_triple_counts(adj, k, cumulative)
            got = spec.C_at(k) if cumulative else spec.c_at(k)
            if den == 0:
                assert got is None, (k, cumulative)
            else:
                # Same rational number, hence the exact same float.
                assert got == num / den, (k, cumulative)


def test_spectrum_equals_conditional_frequencies_on_random_graphs():
    rng = np.random.default_rng(777)
    for _ in range(60):
        n = int(rng.integers(3, 15))
        p = float(rng.choice([0.15, 0.3, 0.5, 0.8]))
        assert_matches_brute(random_graph(rng, n, p))


def test_spectrum_equals_conditional_frequencies_on_special_graphs():
    assert_matches_brute(complete_graph(6))
    assert_matches_brute(graph_of(5, [(0, i) for i in range(1, 5)]))
    assert_matches_brute(graph_of(4, []))
    assert_matches_brute(graph_of(4, [(0, 1), (0, 2), (1, 2), (0, 3)]))


# ---------------------------------------------------------------------------
# Spectrum arrays, ratios, pooling
# ---------------------------------------------------------------------------

@pytest.fixture()
def tri_pendant_spectrum():
    return clustering_spectrum(graph_of(4, [(0, 1), (0, 2), (1, 2), (0, 3)]))


def test_spectrum_arrays_hand_case(tri_pendant_spectrum):
    s = tri_pendant_spectrum
    assert s.max_degree == 3
    assert np.array_equal(s.n_vertices, [0, 1, 2, 1])
    assert np.array_equal(s.tri_sum, [0, 0, 2, 1])
    assert np.array_equal(s.cherry_sum, [0, 0, 2, 3])
    assert np.array_equal(s.cum_tri, [3, 3, 3, 1])
    assert np.array_equal(s.cum_cherry, [5, 5, 5, 3])


def test_spectrum_ratios_hand_case(tri_pendant_spectrum):
    s = tri_pendant_spectrum
    assert s.c_at(1) is None  # degree-1 anchors hold no cherries
    assert s.c_at(2) == 1.0
    assert s.c_at(3) == 1 / 3
    assert s.c_at(99) is None
    assert s.C_at(0) == 0.6
    assert s.C_at(-5) == 0.6
    assert s.C_at(3) == 1 / 3
    assert s.C_at(4) is None


def test_spectrum_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        ClusteringSpectrum(np.zeros(3), np.zeros(2), np.zeros(3))


def test_pool_equals_disjoint_union():
    rng = np.random.default_rng(5)
    g1 = random_graph(rng, 9, 0.5)
    g2 = random_graph(rng, 6, 0.7)
    u1, v1 = g1.edge_array()
    u2, v2 = g2.edge_array()
    union = graph_from_edges(g1.n + g2.n,
                             np.concatenate([u1, u2 + g1.n]),
                             np.concatenate([v1, v2 + g1.n]))
    pooled = pool([clustering_spectrum(g1), clustering_spectrum(g2)])
    direct = clustering_spectrum(union)
    assert np.array_equal(pooled.n_vertices, direct.n_vertices)
    assert np.array_equal(pooled.tri_sum, direct.tri_sum)
    assert np.array_equal(pooled.cherry_sum, direct.cherry_sum)


def test_pool_requires_input():
    with pytest.raises(ValueError):
        pool([])


def test_spectrum_of_empty_graph():
    s = clustering_spectrum(graph_of(0, []))
    assert s.max_degree == 0
    assert s.C_at(0) is None


# ---------------------------------------------------------------------------
# Edge-list I/O
# ---------------------------------------------------------------------------

def test_read_edge_list_round_trip():
    rng = np.random.default_rng(31)
    g = random_graph(rng, 10, 0.4)
    # Pin the last vertex with an edge so the id range survives the trip.
    u, v = g.edge_array()
    g = graph_from_edges(10, np.append(u, 0), np.append(v, 9))
    buf = io.StringIO()
    write_edge_list(g, buf)
    back = read_edge_list(io.StringIO(buf.getvalue()))
    assert back.n == g.n
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.neighbors, g.neighbors)


def test_read_edge_list_from_path(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n\n0 1\n1 2\n")
    for file in (str(path), path):  # a str or an os.PathLike
        g = read_edge_list(file)
        assert g.n == 3 and g.n_edges == 2


def test_read_edge_list_skips_comments_blanks_loops_dupes():
    text = "# header\n\n0 1\n1 1\n1 0\n 2  3 \n"
    g = read_edge_list(io.StringIO(text))
    assert g.n == 4 and g.n_edges == 2
    eu, ev = g.edge_array()
    assert list(zip(eu.tolist(), ev.tolist())) == [(0, 1), (2, 3)]


def test_read_edge_list_reports_line_numbers():
    with pytest.raises(DataFormatError, match="line 2"):
        read_edge_list(io.StringIO("0 1\n1 2 3\n"))
    with pytest.raises(DataFormatError, match="line 3"):
        read_edge_list(io.StringIO("0 1\n\nx 2\n"))
    with pytest.raises(DataFormatError, match="line 1"):
        read_edge_list(io.StringIO("-1 2\n"))
    with pytest.raises(DataFormatError, match="two vertex ids"):
        read_edge_list(io.StringIO("7\n"))


EDGE_TEXTS = {
    "comments and blanks": "# header\n\n  # indented\n0 1\n\n1 2\n# tail\n",
    "loops and duplicates": "0 1\n1 1\n1 0\n0 1\n2 3\n3 3\n",
    "single edge": "4 7\n",
    "empty": "",
    "tabs and CRLF": "0\t1\r\n 1  2 \r\n",
}


@pytest.mark.parametrize("name", sorted(EDGE_TEXTS))
def test_read_edge_list_bulk_equals_line_parser(tmp_path, name):
    text = EDGE_TEXTS[name]
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    bulk = read_edge_list(path)
    lines = read_edge_list(io.StringIO(text))
    assert (bulk.n, bulk.extra_isolated) == (lines.n, lines.extra_isolated)
    assert np.array_equal(bulk.indptr, lines.indptr)
    assert np.array_equal(bulk.neighbors, lines.neighbors)
    # Every case but the empty file is read in bulk.
    assert (spectrum._read_bulk(path) is None) == (name == "empty")


@pytest.mark.parametrize("text", [
    "0 1\n1 2 3\n",
    "0 1\n\na b\n",
    "0 1\n-1 2\n",
    "0 1\n7\n",
    "0 1 # a trailing comment\n",
    "0 1\n2 99999999999999999999\n" + "3 4\n" * 3,
    "0 1\n9223372036854775807 0\n",
])
def test_read_edge_list_path_keeps_line_messages(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(DataFormatError) as from_path:
        read_edge_list(str(path))
    with pytest.raises(DataFormatError) as from_file:
        read_edge_list(io.StringIO(text))
    assert str(from_path.value) == str(from_file.value)
    assert str(from_path.value).startswith(("line 1:", "line 2:", "line 3:"))


def test_read_edge_list_relabels_sparse_ids(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 40000000000\n")
    g = read_edge_list(path)
    assert g.n == 3 and g.extra_isolated == 40000000001 - 3
    s = clustering_spectrum(g)
    assert s.n_vertices.tolist() == [40000000001 - 3, 2, 1]
    assert s.cherry_sum.tolist() == [0, 0, 1] and s.tri_sum.tolist() == [0, 0, 0]


def test_sparse_ids_give_the_dense_spectrum():
    rng = np.random.default_rng(17)
    g = random_graph(rng, 12, 0.5)
    u, v = g.edge_array()
    dense = read_edge_list(io.StringIO("".join(f"{a} {b}\n" for a, b in zip(u, v))))
    spread = read_edge_list(io.StringIO(
        "".join(f"{a * 10**6 + 5} {b * 10**6 + 5}\n" for a, b in zip(u, v))))
    assert spread.n == int((dense.degrees > 0).sum()) and dense.extra_isolated == 0
    s_dense, s_spread = clustering_spectrum(dense), clustering_spectrum(spread)
    top = 10**6 * int(max(u.max(), v.max())) + 5
    assert s_spread.n_vertices[0] == top + 1 - spread.n
    assert np.array_equal(s_spread.n_vertices[1:], s_dense.n_vertices[1:])
    assert np.array_equal(s_spread.tri_sum, s_dense.tri_sum)
    assert np.array_equal(s_spread.cherry_sum, s_dense.cherry_sum)


def test_read_edge_list_empty_input():
    g = read_edge_list(io.StringIO("# nothing\n"))
    assert g.n == 0 and g.n_edges == 0


def test_write_spectrum_csv_golden(tri_pendant_spectrum):
    buf = io.StringIO()
    write_spectrum_csv(tri_pendant_spectrum, buf)
    assert buf.getvalue() == (
        "k,n_vertices,tri_sum,cherry_sum,c_k,cum_tri,cum_cherry,C_k\n"
        "0,0,0,0,,3,5,0.6\n"
        "1,1,0,0,,3,5,0.6\n"
        "2,2,2,2,1.0,3,5,0.6\n"
        "3,1,1,3,0.3333333333333333,1,3,0.3333333333333333\n"
    )


def test_write_spectrum_csv_to_path(tmp_path, tri_pendant_spectrum):
    path = tmp_path / "spec.csv"
    write_spectrum_csv(tri_pendant_spectrum, str(path))
    assert path.read_text().startswith("k,n_vertices")
    other = tmp_path / "spec_pathlike.csv"
    write_spectrum_csv(tri_pendant_spectrum, other)
    assert other.read_text() == path.read_text()
