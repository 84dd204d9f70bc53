"""Tests of the benchmark's output checks, trace aggregation and manifest.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from rigclust import cli  # noqa: E402


def _reference(name):
    return checks.read_theory_rows(os.path.join(HERE, "reference", f"{name}.csv"))


def _rewrite_cell(path, row_index, column, transform):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    col = rows[0].index(column)
    rows[row_index + 1][col] = transform(rows[row_index + 1][col])
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def test_oracle_matches_brute_force_triangles():
    rng = np.random.default_rng(5)
    n = 25
    pairs = [(a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < 0.3]
    u = np.array([a for a, _ in pairs])
    v = np.array([b for _, b in pairs])
    adj = {i: set() for i in range(n)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    tri = [sum(1 for x, y in itertools.combinations(sorted(adj[i]), 2) if y in adj[x])
           for i in range(n)]
    got = inputs.spectrum_oracle(u, v, block=7)
    deg = [len(adj[i]) for i in range(n)]
    for k in range(max(deg) + 1):
        at = [i for i in range(n) if deg[i] == k]
        assert got["n_vertices"][k] == len(at)
        assert got["tri_sum"][k] == sum(tri[i] for i in at)
        assert got["cherry_sum"][k] == len(at) * k * (k - 1) // 2


def test_clique_union_is_seeded():
    a = inputs.clique_union_edges(9, n=500, m=500)
    b = inputs.clique_union_edges(9, n=500, m=500)
    c = inputs.clique_union_edges(10, n=500, m=500)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    assert np.all(a[0] < a[1])


@pytest.mark.parametrize("column,transform", [
    ("tri_sum", lambda s: str(int(s) + 1)),
    ("cherry_sum", lambda s: str(int(s) - 1)),
    ("cum_tri", lambda s: str(int(s) + 3)),
    ("n_vertices", lambda s: str(int(s) + 1)),
    ("C_k", lambda s: repr(float(s) * (1 + 1e-9))),
])
def test_stats_oracle_rejects_corrupted_output(tmp_path, column, transform):
    u, v = inputs.clique_union_edges(3, n=400, m=400)
    edges = str(tmp_path / "edges.txt")
    out = str(tmp_path / "spectrum.csv")
    inputs.write_edge_list(edges, u, v)
    assert cli.main(["stats", "--edges", edges, "--out", out]) == 0
    oracle = inputs.spectrum_oracle(u, v)
    assert checks.check_spectrum(out, oracle) == []
    _rewrite_cell(out, 4, column, transform)
    assert checks.check_spectrum(out, oracle)


def test_stats_oracle_rejects_missing_row(tmp_path):
    u, v = inputs.clique_union_edges(3, n=400, m=400)
    out = str(tmp_path / "spectrum.csv")
    inputs.write_edge_list(str(tmp_path / "e.txt"), u, v)
    assert cli.main(["stats", "--edges", str(tmp_path / "e.txt"), "--out", out]) == 0
    with open(out) as f:
        lines = f.readlines()
    with open(out, "w") as f:
        f.writelines(lines[:-1])
    assert checks.check_spectrum(out, inputs.spectrum_oracle(u, v))


@pytest.mark.parametrize("name", ["theory-dense", "compare-sparse"])
def test_theory_reference_accepts_wider_intervals_only_around_it(name):
    ref = _reference(name)
    assert ref and all(c is not None for c, _, _ in ref.values())
    assert checks.check_theory_rows(ref, ref) == []
    wider = {k: (c + 5e-5, lo - 1e-3, hi + 1e-3) for k, (c, lo, hi) in ref.items()}
    assert checks.check_theory_rows(wider, ref) == []


@pytest.mark.parametrize("corrupt", [
    lambda c, lo, hi: (c + 2e-4, lo, hi),                       # c_pred moved
    lambda c, lo, hi: (c, hi + 1e-6, hi + 2e-6),                # interval moved up
    lambda c, lo, hi: (c, lo - 2e-6, lo - 1e-6),                # interval moved down
    lambda c, lo, hi: (None, lo, hi),                           # row became asymptotic
])
def test_theory_reference_rejects_corrupted_rows(corrupt):
    ref = _reference("theory-dense")
    got = dict(ref)
    got[20] = corrupt(*ref[20])
    assert checks.check_theory_rows(got, ref)


def test_theory_reference_rejects_missing_degree():
    ref = _reference("theory-dense")
    got = {k: row for k, row in ref.items() if k != 50}
    assert checks.check_theory_rows(got, ref)


def _fake_report(out_dir, ref, gap, se, failed):
    with open(os.path.join(out_dir, "report.csv"), "w") as f:
        f.write("k,n_vertices,c_hat,c_se,C_hat,C_se,c_pred,C_pred_lo,C_pred_hi,"
                "c_gap,C_gap\n")
        for k, (c, lo, hi) in sorted(ref.items()):
            mid = 0.5 * (lo + hi)
            f.write(f"{k},10,{c + gap!r},{se},{mid + gap!r},{se},{c!r},{lo!r},{hi!r},"
                    f"{gap!r},{gap!r}\n")
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump({"replicates_failed": failed}, f)


@pytest.mark.parametrize("gap,se,failed,ok", [
    (0.01, "", 0, True),
    (0.06, "", 0, False),          # over the C_gap limit, no standard error
    (0.06, "0.01", 0, True),       # within the limit plus 4 standard errors
    (0.10, "0.01", 0, False),
    (0.01, "", 1, False),          # an aborted replicate
])
def test_compare_check_limits(tmp_path, gap, se, failed, ok):
    ref = _reference("compare-sparse")
    _fake_report(tmp_path, ref, gap=gap, se=se, failed=failed)
    errors, digest = checks.check_compare(str(tmp_path), ref)
    assert (errors == []) == ok and len(digest) == 64


def test_self_times_subtract_children_with_bookkeeping():
    spans = [
        {"name": "a", "parent": -1, "start": 0.0, "end": 10.0, "post": 10.5},
        {"name": "b", "parent": 0, "start": 1.0, "end": 4.0, "post": 4.5},
        {"name": "c", "parent": 1, "start": 2.0, "end": 3.0, "post": 3.0},
    ]
    assert layers.self_times(spans) == [6.5, 2.0, 1.0]


def test_traced_cli_reports_uncalled_functions_as_zero(tmp_path):
    spans = str(tmp_path / "spans.json")
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "tracecli.py"), spans, "3", "--",
         "theory", "--n", "100", "--m", "100", "--beta", "1",
         "--x-law", "pareto(1,7)", "--y-law", "pareto(1,6)",
         "--k-min", "3", "--k-max", "6", "--pmf-k-max", "128",
         "--out", str(tmp_path / "t.csv")],
        env=env, check=True, timeout=120)
    with open(spans) as f:
        trace = json.load(f)
    assert trace["missing"] == [] and trace["exit_code"] == 0
    assert {s["run"] for s in trace["spans"]} == {3}
    metrics = layers.process_metrics(trace)
    assert set(layers.PER_LAYER) - set(metrics) == {
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_frac",
        "trace.accounted_frac"}
    assert metrics["theory.rows"] == 4 and metrics["theory.laws_builds"] == 1
    assert metrics["graphgen.links"] == 0 and metrics["graphgen.sample_s"] == 0
    assert "graphgen.sample" in layers.uncalled(trace)


def test_manifest_matches_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == layers.PER_LAYER
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
