"""Config handling, seed derivation, exponent fits, and the compare pipeline."""

import json
import math
import threading
import warnings

import numpy as np
import pytest

import rigclust.experiment as experiment
from rigclust import (
    ClusteringSpectrum,
    Degenerate,
    EdgeBudgetError,
    ExperimentConfig,
    Finite,
    ModelParams,
    Pareto,
    UsageError,
    WeightLaw,
    build_config,
    config_hash,
    fit_delta,
    parse_law,
    project,
    replicate_seed,
    run,
    sample_bipartite,
)
from rigclust.experiment import (
    canonical_config_text,
    default_delta_window,
    law_to_str,
    read_config,
    simulate,
)


def config_values(**overrides):
    values = {"n": 200, "m": 200, "beta": 1.0,
              "x_law": "pareto(1,7)", "y_law": "pareto(1,6)"}
    values.update(overrides)
    return values


# ---------------------------------------------------------------------------
# Weight-law grammar
# ---------------------------------------------------------------------------

def test_parse_law_round_trip():
    for law in (Pareto(1.0, 6.0), Pareto(2.5, 7.25), Degenerate(1.3),
                Finite(((1.0, 0.5), (3.0, 0.5)))):
        assert parse_law(law_to_str(law)) == law
    # A point mass is the one-atom finite law, and prints as one.
    assert Degenerate(2.0) == Finite(((2.0, 1.0),))
    assert law_to_str(Finite(((2.0, 1.0),))) == "degenerate(2.0)"


def test_parsed_laws_are_weight_laws():
    # WeightLaw is the closed pair of the two law classes.
    assert WeightLaw == Pareto | Finite
    for text in ("pareto(1,6)", "degenerate(1.3)", "finite([(1,0.5),(3,0.5)])"):
        assert isinstance(parse_law(text), WeightLaw)
    assert not isinstance(object(), WeightLaw)


def test_parse_law_accepts_spacing_and_case():
    assert parse_law(" PARETO( 1 , 6 ) ") == Pareto(1.0, 6.0)
    assert parse_law("Degenerate(1.5)") == Degenerate(1.5)
    assert parse_law("finite([(1, 0.25), (2, 0.75)])") == Finite(
        ((1.0, 0.25), (2.0, 0.75)))


@pytest.mark.parametrize("text", [
    "garbage", "pareto(1)", "pareto(1,2,3)", "degenerate()", "degenerate(1,2)",
    "pareto(a,b)", "finite(1,2)", "normal(0,1)", "pareto[1,6]",
])
def test_parse_law_rejects_malformed(text):
    with pytest.raises(UsageError):
        parse_law(text)


def test_law_to_str_rejects_unknown_type():
    with pytest.raises(TypeError):
        law_to_str(object())


# ---------------------------------------------------------------------------
# Config files and coercion
# ---------------------------------------------------------------------------

def test_read_config_parses_comments_and_blanks(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment\n"
        "n = 100\n"
        "m=120   # inline comment\n"
        "\n"
        "x_law = pareto(1, 7)\n")
    assert read_config(str(path)) == {"n": "100", "m": "120",
                                      "x_law": "pareto(1, 7)"}


def test_read_config_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n = 100\nnot a pair\n")
    with pytest.raises(UsageError, match=":2:"):
        read_config(str(path))
    path.write_text("n = 100\n\nwat = 3\n")
    with pytest.raises(UsageError, match=":3:.*unknown config key"):
        read_config(str(path))
    with pytest.raises(UsageError, match="cannot read config"):
        read_config(str(tmp_path / "missing.cfg"))


def test_build_config_coerces_strings():
    cfg = build_config(config_values(
        n="150", beta="2.5", replicates="3", tol="1e-9",
        save_replicates="yes", output_dir=""))
    assert cfg.params.n == 150 and cfg.params.beta == 2.5
    assert cfg.replicates == 3 and cfg.tol == 1e-9
    assert cfg.save_replicates is True
    assert cfg.output_dir is None
    assert cfg.params.x_law == Pareto(1.0, 7.0)


def test_build_config_accepts_law_objects():
    cfg = build_config(config_values(x_law=Degenerate(1.2), y_law=Degenerate(0.9)))
    assert cfg.params.x_law == Degenerate(1.2)


@pytest.mark.parametrize("overrides", [
    {"n": None}, {"beta": None}, {"x_law": None},
    {"n": "ten"}, {"beta": "wide"}, {"replicates": "0"},
    {"save_replicates": "maybe"}, {"k_min": "1"}, {"k_min": "9", "k_max": "5"},
    {"generator": "magic"}, {"n": "2"},
    {"tol": "0"}, {"tol": "-1"}, {"tol": "nan"}, {"tol": "inf"}, {"tol": "1"},
])
def test_build_config_rejects_bad_values(overrides):
    with pytest.raises(UsageError):
        build_config(config_values(**overrides))


def test_experiment_config_validation_direct():
    params = ModelParams(100, 100, 1.0, Pareto(1, 7), Pareto(1, 6))
    with pytest.raises(UsageError):
        ExperimentConfig(params, replicates=0)
    with pytest.raises(UsageError):
        ExperimentConfig(params, k_min=1)
    with pytest.raises(UsageError):
        ExperimentConfig(params, generator="slow")


# ---------------------------------------------------------------------------
# Canonical identity and seeds
# ---------------------------------------------------------------------------

def test_config_hash_ignores_location_keys():
    a = build_config(config_values(output_dir="/tmp/a"))
    b = build_config(config_values(output_dir="/tmp/b"))
    c = build_config(config_values(master_seed="1"))
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert "output_dir" not in canonical_config_text(a)


def test_config_hash_is_sha256_of_canonical_text():
    import hashlib
    cfg = build_config(config_values())
    text = canonical_config_text(cfg)
    assert config_hash(cfg) == hashlib.sha256(text.encode()).hexdigest()
    assert len(config_hash(cfg)) == 64
    # Text is sorted key=value lines, parseable back into a mapping.
    keys = [line.split("=", 1)[0] for line in text.strip().split("\n")]
    assert keys == sorted(keys)


def test_canonical_text_and_hash_are_pinned():
    # Reports and their config hashes are compared across versions: the text
    # form of a config must not drift.
    cfg = build_config(config_values())
    assert canonical_config_text(cfg) == (
        "beta=1.0\n"
        "edge_budget=134217728\n"
        "generator=fast\n"
        "k_max=50\n"
        "k_min=2\n"
        "m=200\n"
        "master_seed=0\n"
        "n=200\n"
        "pmf_k_max=4096\n"
        "replicates=1\n"
        "save_replicates=False\n"
        "tol=1e-10\n"
        "x_law=pareto(1.0,7.0)\n"
        "y_law=pareto(1.0,6.0)\n"
    )
    assert config_hash(cfg) == (
        "33417356cfd120061f9eedf424b9f5553275f5087de0a22188a4d1375d8986db")


def test_replicate_seeds_distinct_and_deterministic():
    seeds = [replicate_seed(12345, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert seeds[7] == replicate_seed(12345, 7)
    assert replicate_seed(1, 0) != replicate_seed(2, 0)


# ---------------------------------------------------------------------------
# Exponent fitting
# ---------------------------------------------------------------------------

def test_fit_delta_recovers_exact_power_law():
    pts = [(k, 3.0 * k ** -1.7) for k in range(2, 40)]
    fit = fit_delta(pts, (5, 30))
    assert fit.slope == pytest.approx(-1.7, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_delta_window_filters_points():
    pts = [(1, 1e9), (10, 10.0), (20, 10.0), (30, 10.0), (1000, 1e-9)]
    fit = fit_delta(pts, (5, 100))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0  # zero variance: perfect by convention
    assert (fit.window, fit.n_points) == ((5, 100), 3)


def test_fit_delta_needs_three_points_and_positive_data():
    with pytest.raises(ValueError, match="at least 3"):
        fit_delta([(10, 1.0), (20, 2.0)], (5, 100))
    with pytest.raises(ValueError, match="positive"):
        fit_delta([(10, 1.0), (20, 0.0), (30, 1.0)], (5, 100))


def test_fit_delta_needs_two_distinct_k():
    # One k gives no slope; polyfit would only warn that the fit is rank
    # deficient and return one anyway.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least 2 distinct k"):
            fit_delta([(4, 1.0), (4, 0.5), (4, 0.25)], (4, 4))
        assert fit_delta([(4, 1.0), (4, 0.5), (8, 0.25)], (4, 8)).n_points == 3


@pytest.mark.parametrize("points,window", [
    ([(10, 1.0), (20, math.nan), (30, 1.0)], (5, 100)),
    ([(10, 1.0), (20, math.inf), (30, 1.0)], (5, 100)),
    ([(10, 1.0), (20, 1.0), (math.inf, 1.0)], (5, math.inf)),
    ([(math.nan, 1.0), (10, 1.0), (20, 1.0), (30, 1.0)], (5, 100)),
], ids=["nan-value", "inf-value", "inf-k", "nan-k"])
def test_fit_delta_rejects_non_finite_data(points, window):
    with pytest.raises(ValueError, match="needs positive finite data"):
        fit_delta(points, window)


def spectrum_with_cherries(cherries):
    arr = np.asarray(cherries, dtype=np.int64)
    return ClusteringSpectrum(np.ones_like(arr), np.zeros_like(arr), arr)


def test_default_delta_window_upper_half():
    s = spectrum_with_cherries([0, 0, 50, 50, 50, 50, 0, 40])
    # Eligible degrees: 2,3,4,5,7 -> upper half 4,5,7.
    assert default_delta_window(s, min_cherries=30) == (4, 7)


def test_default_delta_window_last_three_fallback():
    s = spectrum_with_cherries([0, 0, 50, 50, 50, 50])
    # Eligible 2,3,4,5 -> upper half would be 2 long; falls back to last 3.
    assert default_delta_window(s, min_cherries=30) == (3, 5)


def test_default_delta_window_needs_three_degrees():
    assert default_delta_window(spectrum_with_cherries([0, 0, 50, 50])) is None
    assert default_delta_window(spectrum_with_cherries([0])) is None


# ---------------------------------------------------------------------------
# The compare pipeline
# ---------------------------------------------------------------------------

ROW_KEYS = ("k", "n_vertices", "c_hat", "c_se", "C_hat", "C_se",
            "c_pred", "C_pred_lo", "C_pred_hi", "c_gap", "C_gap")


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = build_config(config_values(
        n=300, m=300, replicates="4", k_max="12",
        save_replicates="true", output_dir=str(out)))
    return cfg, run(cfg), out


def test_run_row_schema(small_report):
    cfg, report, _ = small_report
    assert [r["k"] for r in report.rows] == list(range(2, 13))
    for row in report.rows:
        assert tuple(row.keys()) == ROW_KEYS
        assert isinstance(row["n_vertices"], int)
        if row["c_hat"] is not None:
            assert 0.0 <= row["c_hat"] <= 1.0
        if row["c_hat"] is not None and row["c_pred"] is not None:
            assert row["c_gap"] == pytest.approx(abs(row["c_hat"] - row["c_pred"]))
        assert row["c_pred"] is None or 0.0 < row["c_pred"] <= 1.0
    # This scale always produces low-degree vertices.
    assert report.rows[1]["n_vertices"] > 0
    assert not report.failed
    assert report.pooled.n_vertices.sum() == 4 * 300


def test_run_writes_report_files(small_report):
    cfg, report, out = small_report
    csv_text = (out / "report.csv").read_text()
    header, *lines = csv_text.strip().split("\n")
    assert header == ",".join(ROW_KEYS)
    assert len(lines) == len(report.rows)
    # Empty cells encode None (degrees beyond every replicate's support).
    meta = json.loads((out / "report.json").read_text())
    assert meta["config_hash"] == config_hash(cfg)
    assert meta["replicates_failed"] == 0
    assert meta["config"]["n"] == "300"
    assert meta["delta_theory"] == 0.0  # alpha 7, gamma 6
    runinfo = json.loads((out / "runinfo.json").read_text())
    assert set(runinfo) == {"wall_time_s", "workers", "numpy_version"}
    reps = sorted(p.name for p in (out / "replicates").iterdir())
    assert reps == [f"replicate_{i:04d}.csv" for i in range(4)]


def test_rerun_is_byte_identical(tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        cfg = build_config(config_values(
            n=150, m=150, replicates="2", k_max="8", output_dir=str(out)))
        run(cfg)
        outs.append(out)
    for fname in ("report.csv", "report.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_worker_count_does_not_change_reports(tmp_path):
    # Three workers is more than some machines have CPUs.
    texts = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        cfg = build_config(config_values(
            n=150, m=150, replicates="3", k_max="8", output_dir=str(out)))
        report = run(cfg, workers=workers)
        assert report.workers == workers
        texts.append((out / "report.csv").read_bytes()
                     + (out / "report.json").read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_worker_pool_never_exceeds_replicates(monkeypatch):
    helpers, shares = [], []

    class CountingThread(threading.Thread):
        def __init__(self, *args, **kwargs):
            helpers[-1] += 1
            super().__init__(*args, **kwargs)

    one_replicate = experiment._one_replicate

    def recording(config, index, threads):
        shares[-1].append(threads)
        return one_replicate(config, index, threads)

    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.setattr(experiment, "_one_replicate", recording)
    # Each replicate's triangle counter gets its share of five CPUs; a graph
    # this small is counted in one step, so only replicate threads start.
    monkeypatch.setattr(experiment, "usable_cpus", lambda: 5)
    for replicates, workers in ((2, 5000), (3, 2), (1, 8)):
        helpers.append(0)
        shares.append([])
        cfg = build_config(config_values(n=60, m=60, replicates=str(replicates)))
        assert len(simulate(cfg, workers=workers).spectra) == replicates
    assert helpers == [1, 1, 0]
    assert shares == [[2, 2], [2, 2, 2], [5]]
    with pytest.raises(UsageError, match="workers must be >= 1"):
        simulate(build_config(config_values(n=60, m=60)), workers=0)


def test_run_raises_when_every_replicate_exceeds_budget():
    cfg = build_config(config_values(replicates="2", edge_budget="1"))
    with pytest.raises(EdgeBudgetError):
        run(cfg)


def test_run_reports_partial_budget_failures():
    # Pick a budget between two replicates' candidate-pair counts so exactly
    # the heavier one aborts.
    base = build_config(config_values(replicates="2"))
    counts = []
    for i in range(2):
        sample = sample_bipartite(base.params, replicate_seed(0, i), "fast")
        sizes = np.diff(sample.indptr)
        counts.append(int((sizes * (sizes - 1) // 2).sum()))
    assert counts[0] != counts[1]
    budget = (min(counts) + max(counts)) // 2
    cfg = build_config(config_values(replicates="2", edge_budget=str(budget)))
    report = run(cfg)
    assert len(report.failed) == 1
    assert report.failed[0]["replicate"] == counts.index(max(counts))
    assert "budget" in report.failed[0]["error"]
    # Only the surviving replicate contributes vertices to the pool.
    assert report.pooled.n_vertices.sum() == 200


def test_empirical_matches_projection_by_hand():
    # One replicate: the pooled spectrum must equal the spectrum of the
    # projected graph built from the same derived seed.
    from rigclust import clustering_spectrum
    cfg = build_config(config_values(replicates="1", master_seed="9"))
    report = run(cfg)
    sample = sample_bipartite(cfg.params, replicate_seed(9, 0), cfg.generator)
    direct = clustering_spectrum(project(sample, cfg.edge_budget))
    assert np.array_equal(report.pooled.tri_sum, direct.tri_sum)
    assert np.array_equal(report.pooled.cherry_sum, direct.cherry_sum)
