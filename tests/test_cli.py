"""Command-line behaviour: outputs, routing, and exit codes."""

import itertools
import json
import subprocess
import sys
import time

import pytest

import rigclust.experiment as experiment
import rigclust.spectrum as spectrum
from rigclust import read_edge_list, triangle_counts
from rigclust.cli import (
    EXIT_BUDGET,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    _build_parser,
    _config_from_args,
    main,
)
from rigclust.experiment import CONFIG_PARSERS
from rigclust.mixedpoisson import QuadratureError


BASE = ["--n", "200", "--m", "200", "--beta", "1",
        "--x-law", "pareto(1,7)", "--y-law", "pareto(1,6)"]


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def test_theory_writes_csv(tmp_path, capsys):
    out = tmp_path / "theory.csv"
    code, _, err = run_main(
        ["theory", *BASE, "--k-min", "2", "--k-max", "6", "--out", str(out)],
        capsys)
    assert code == EXIT_OK and err == ""
    header, *lines = out.read_text().strip().split("\n")
    assert header == "k,a,b,A_lo,A_hi,B_lo,B_hi,c_pred,C_pred_lo,C_pred_hi"
    assert [line.split(",")[0] for line in lines] == ["2", "3", "4", "5", "6"]
    assert all(float(line.split(",")[7]) > 0 for line in lines)


def test_theory_stdout_and_negative_exponent_note(capsys):
    code, out, err = run_main(
        ["theory", "--n", "50", "--m", "50", "--beta", "1",
         "--x-law", "pareto(1,6)", "--y-law", "pareto(1,6.5)",
         "--k-max", "4"], capsys)
    assert code == EXIT_OK
    assert out.startswith("k,a,b,")
    assert "negative" in err


def test_theory_reads_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 50\nm = 50\nbeta = 1\n"
                   "x_law = pareto(1,7)\ny_law = pareto(1,6)\nk_max = 9\n")
    code, out, _ = run_main(
        ["theory", "--config", str(cfg), "--k-max", "3"], capsys)
    assert code == EXIT_OK
    assert [line.split(",")[0] for line in out.strip().split("\n")] == ["k", "2", "3"]


@pytest.mark.parametrize("command", ["theory", "compare"])
@pytest.mark.parametrize("flags", [["--beta", "1", "--tol", "0.5"], ["--beta", "1e10"]],
                         ids=["tol=0.5", "beta=1e10"])
def test_loose_degree_two_row_is_left_out(tmp_path, capsys, command, flags):
    # Both make the k = 2 intervals loose; the closed forms have no value at
    # k - 2 = 0, so k = 2 gets no prediction and 3..5 the asymptotic ones.
    out_dir = tmp_path / "out"
    code, out, err = run_main(
        [command, "--n", "300", "--m", "300", *flags, "--x-law", "pareto(1,7)",
         "--y-law", "pareto(1,6)", "--k-min", "2", "--k-max", "5",
         "--replicates", "2", "--output-dir", str(out_dir)], capsys)
    assert code == EXIT_OK and "Traceback" not in err
    if command == "theory":
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[0] for row in rows] == ["3", "4", "5"]
        assert all(row[7] == "" and row[8] != "" for row in rows)  # no c_pred, a C_pred
    else:
        report = (out_dir / "report.csv").read_text().strip().split("\n")
        two, three = report[1].split(","), report[2].split(",")
        assert two[0] == "2" and two[6:9] == ["", "", ""]
        assert three[0] == "3" and three[7] != ""


# ---------------------------------------------------------------------------
# simulate / compare
# ---------------------------------------------------------------------------

def test_simulate_writes_pooled_spectrum(tmp_path, capsys):
    out = tmp_path / "pooled.csv"
    code, _, err = run_main(
        ["simulate", *BASE, "--replicates", "2", "--out", str(out)], capsys)
    assert code == EXIT_OK and err == ""
    assert out.read_text().startswith("k,n_vertices,tri_sum,cherry_sum,")


def test_simulate_stdout_default(capsys):
    code, out, _ = run_main(
        ["simulate", "--n", "80", "--m", "80", "--beta", "1",
         "--x-law", "degenerate(1.2)", "--y-law", "degenerate(0.9)"], capsys)
    assert code == EXIT_OK
    assert out.startswith("k,n_vertices,")


def test_simulate_needs_no_theory(capsys):
    # An infinite fourth moment puts the law outside the limit theory, not
    # outside the simulation.
    code, out, err = run_main(
        ["simulate", "--n", "200", "--m", "200", "--beta", "1",
         "--x-law", "pareto(1,3.5)", "--y-law", "pareto(1,6)"], capsys)
    assert code == EXIT_OK and err == ""
    assert out.startswith("k,n_vertices,")


def test_simulate_output_dir_gets_spectrum_and_replicates(tmp_path, capsys):
    out = tmp_path / "sim"
    code, _, _ = run_main(
        ["simulate", *BASE, "--replicates", "2", "--save-replicates",
         "--output-dir", str(out)], capsys)
    assert code == EXIT_OK
    assert (out / "pooled_spectrum.csv").read_text().startswith("k,n_vertices,")
    assert sorted(p.name for p in (out / "replicates").iterdir()) == [
        "replicate_0000.csv", "replicate_0001.csv"]


@pytest.mark.parametrize("command", ["theory", "compare"])
@pytest.mark.parametrize("law,match", [
    ("pareto(1,3.5)", "fourth moments"),
    ("degenerate(0)", "offspring law undefined"),
    # Weight scales whose moments or densities leave the double range.
    ("pareto(1e45,7)", "x_law x_min**tail_index is too large or too small"),
    ("pareto(1e60,7)", "x_law x_min**tail_index is too large or too small"),
    ("pareto(1e-45,7)", "x_law x_min**tail_index is too large or too small"),
    ("degenerate(1e80)", "x_law E[Z^4] is too large or too small"),
    ("degenerate(1e-160)", "x_law E[Z^3] is too large or too small"),
])
def test_laws_outside_theory_domain_exit_one(tmp_path, capsys, command, law, match):
    code, _, err = run_main(
        [command, "--n", "200", "--m", "200", "--beta", "1", "--x-law", law,
         "--y-law", "pareto(1,6)", "--k-max", "6",
         "--output-dir", str(tmp_path / "out")], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and match in err
    assert err.count("\n") == 1


def test_compare_checks_theory_domain_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("compare sampled a replicate")

    monkeypatch.setattr("rigclust.experiment.sample_bipartite", no_sampling)
    code, _, err = run_main(
        ["compare", "--n", "200", "--m", "200", "--beta", "1",
         "--x-law", "pareto(1,3.5)", "--y-law", "pareto(1,6)",
         "--output-dir", str(tmp_path / "out")], capsys)
    assert code == EXIT_USAGE and "fourth moments" in err


def test_quadrature_failure_exit_one(capsys, monkeypatch):
    def failing_curve(*args, **kwargs):
        raise QuadratureError("panel refinement stalled at 3e-18 > tol 1e-20", 3e-18)

    monkeypatch.setattr("rigclust.cli.theory_curve", failing_curve)
    code, out, err = run_main(["theory", *BASE, "--tol", "1e-20"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "stalled" in err
    assert err.count("\n") == 1


def test_unreachable_tol_fails_fast():
    # Double precision cannot certify 1e-20: the first depth-capped panel
    # that pushes the error bound past tol ends the build.
    argv = ["theory", "--n", "10000", "--m", "10000", "--beta", "1",
            "--x-law", "pareto(1,7)", "--y-law", "pareto(1,6)",
            "--k-min", "3", "--k-max", "15", "--tol", "1e-20"]
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "rigclust", *argv],
                          capture_output=True, text=True, timeout=120)
    assert time.monotonic() - t0 < 10.0
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    assert proc.stderr.startswith("error: panel refinement reached depth")
    assert proc.stderr.count("\n") == 1


def test_tol_far_below_round_off_exits_one(capsys):
    # Both weight sides are lockstep quadratures; the first law whose error
    # bound passes tol ends the run with one line.
    code, out, err = run_main(["theory", *BASE, "--k-min", "3", "--k-max", "15",
                               "--tol", "1e-300"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: panel refinement reached depth 14 with "
                          "accumulated error bound ")
    assert err.endswith(" > tol 1.000e-300\n") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1"])
def test_tol_outside_unit_interval_exit_one(capsys, tol):
    code, _, err = run_main(["theory", *BASE, f"--tol={tol}"], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: tol must be in (0, 1)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["theory", "compare"])
@pytest.mark.parametrize("pmf_k_max", ["0", "-5"])
def test_pmf_k_max_below_one_exit_one(tmp_path, capsys, command, pmf_k_max):
    code, out, err = run_main(
        [command, *BASE, "--k-min", "3", "--k-max", "5",
         f"--pmf-k-max={pmf_k_max}", "--output-dir", str(tmp_path / "out")],
        capsys)
    assert code == EXIT_USAGE and out == ""
    assert err == "error: pmf_k_max must be >= 1\n"


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_negative_edge_budget_exit_one(tmp_path, capsys, monkeypatch, command):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the edge budget was checked after sampling")

    monkeypatch.setattr("rigclust.experiment.sample_bipartite", no_sampling)
    code, out, err = run_main(
        [command, *BASE, "--edge-budget", "-1", "--output-dir", str(tmp_path / "out")],
        capsys)
    assert code == EXIT_USAGE and out == ""
    assert err == "error: edge_budget must be >= 0\n"


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_zero_workers_exit_one(tmp_path, capsys, monkeypatch, command):
    def no_theory(*args, **kwargs):
        raise AssertionError("the worker count was checked after the theory build")

    monkeypatch.setattr("rigclust.experiment.theory_curve", no_theory)
    code, out, err = run_main(
        [command, *BASE, "--workers", "0", "--output-dir", str(tmp_path / "out")],
        capsys)
    assert code == EXIT_USAGE and out == ""
    assert err == "error: workers must be >= 1, got 0\n"


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_memory_error_of_a_replicate_thread_exits_three(tmp_path, capsys, monkeypatch,
                                                        command):
    one_replicate = experiment._one_replicate

    def failing(config, index, threads):
        if index == 1:
            raise MemoryError("replicate 1")
        return one_replicate(config, index, threads)

    monkeypatch.setattr(experiment, "_one_replicate", failing)
    code, out, err = run_main(
        [command, *BASE, "--replicates", "2", "--workers", "2", "--k-max", "6",
         "--output-dir", str(tmp_path / "out")], capsys)
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: out of memory: replicate 1\n"


def test_compare_requires_output_dir(capsys):
    code, _, err = run_main(["compare", *BASE], capsys)
    assert code == EXIT_USAGE
    assert "output-dir" in err


def test_compare_writes_report_and_summary(tmp_path, capsys):
    out = tmp_path / "cmp"
    code, stdout, _ = run_main(
        ["compare", *BASE, "--replicates", "2", "--k-max", "10",
         "--output-dir", str(out)], capsys)
    assert code == EXIT_OK
    assert stdout.startswith("config ")
    assert "2/2 replicates" in stdout
    meta = json.loads((out / "report.json").read_text())
    assert stdout.startswith(f"config {meta['config_hash'][:12]}")
    assert (out / "report.csv").exists() and (out / "runinfo.json").exists()


def test_compare_summary_without_overlapping_degrees(tmp_path, capsys):
    code, stdout, _ = run_main(
        ["compare", "--n", "60", "--m", "60", "--beta", "1", "--x-law", "pareto(1,7)",
         "--y-law", "pareto(1,6)", "--k-min", "16", "--k-max", "18", "--replicates", "2",
         "--output-dir", str(tmp_path / "cmp")], capsys)
    assert code == EXIT_OK
    meta = json.loads((tmp_path / "cmp" / "report.json").read_text())
    assert stdout.splitlines()[0] == (
        f"config {meta['config_hash'][:12]}: 2/2 replicates, no overlapping degrees")


def test_budget_abort_exit_code(tmp_path, capsys):
    code, _, err = run_main(
        ["compare", *BASE, "--edge-budget", "1",
         "--output-dir", str(tmp_path / "x")], capsys)
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_refused_allocation_exit_three(capsys):
    # 10**15 actor weights need 8 PB, beyond any user address space, so numpy
    # refuses the array at once whatever the overcommit setting.
    code, out, err = run_main(
        ["simulate", "--n", str(10**15), "--m", "3", "--beta", "1",
         "--x-law", "pareto(1,7)", "--y-law", "pareto(1,6)"], capsys)
    assert code == EXIT_BUDGET and out == ""
    assert err.startswith("error: out of memory") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# fit-delta / stats
# ---------------------------------------------------------------------------

def test_fit_delta_reads_csv(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    rows = "\n".join(f"{k},{2.0 * k ** -1.5!r}" for k in range(2, 30))
    path.write_text("k,value\n" + rows + "\n")
    code, out, _ = run_main(
        ["fit-delta", str(path), "--window", "4", "25"], capsys)
    assert code == EXIT_OK
    fields = dict(part.split("=") for part in out.split())
    assert float(fields["slope"]) == pytest.approx(-1.5, abs=1e-12)
    assert float(fields["r_squared"]) == pytest.approx(1.0, abs=1e-12)
    assert fields["n"] == "22"  # the rows inside the window, not all 28


def test_fit_delta_named_columns_and_blank_cells(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_text("k,foo,val\n2,x,8.0\n3,x,\n4,x,2.0\n8,x,1.0\n16,x,0.5\n")
    code, out, _ = run_main(
        ["fit-delta", str(path), "--window", "2", "16",
         "--k-col", "k", "--value-col", "val"], capsys)
    assert code == EXIT_OK and "slope=" in out
    # Only the requested columns missing from the header are named.
    code, _, err = run_main(
        ["fit-delta", str(path), "--window", "2", "16", "--k-col", "zz"], capsys)
    assert code == EXIT_DATA and err == f"error: {path}: no column 'zz'\n"
    code, _, err = run_main(
        ["fit-delta", str(path), "--window", "2", "16",
         "--k-col", "k", "--value-col", "zz"], capsys)
    assert code == EXIT_DATA and err == f"error: {path}: no column 'zz'\n"


@pytest.mark.parametrize("content,match", [
    ("", "empty"),
    ("a,b\n1,2\n", "no columns"),
    ("k,value\n1,x\n2,1\n3,1\n4,1\n", "non-numeric"),
    ("k,value\n1,1\n2,1\n", "at least 3"),
])
def test_fit_delta_data_errors(tmp_path, capsys, content, match):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    argv = ["fit-delta", str(path), "--window", "1", "100"]
    if match == "no columns":
        argv += ["--k-col", "k", "--value-col", "value"]
    code, _, err = run_main(argv, capsys)
    assert code == EXIT_DATA
    assert match in err


def test_fit_delta_single_k_exit_two(tmp_path, capsys):
    path = tmp_path / "same.csv"
    path.write_text("k,value\n4,1\n4,0.5\n4,0.25\n")
    code, out, err = run_main(["fit-delta", str(path), "--window", "4", "4"], capsys)
    assert code == EXIT_DATA and out == ""
    assert err == "error: need at least 2 distinct k inside window (4.0, 4.0), have 1\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fit_delta_non_finite_value_exit_two(tmp_path, capsys, value):
    path = tmp_path / "curve.csv"
    path.write_text(f"k,value\n2,1.0\n3,{value}\n4,0.5\n5,0.25\n")
    code, out, err = run_main(["fit-delta", str(path), "--window", "2", "5"], capsys)
    assert code == EXIT_DATA and out == ""
    assert err == f"error: log-log fit needs positive finite data, got (3.0, {value})\n"


def test_fit_delta_nan_k_exit_two(tmp_path, capsys):
    # A nan k lies in no window; it is bad data, not a row to drop.
    path = tmp_path / "curve.csv"
    path.write_text("k,value\nnan,1\n2,1\n3,0.5\n4,0.25\n")
    code, out, err = run_main(["fit-delta", str(path), "--window", "1", "10"], capsys)
    assert code == EXIT_DATA and out == ""
    assert err == "error: log-log fit needs positive finite data, got (nan, 1.0)\n"


@pytest.mark.parametrize("window", [("4", "1"), ("nan", "4"), ("1", "nan")])
def test_fit_delta_bad_window_exit_one(tmp_path, capsys, window):
    # A reversed window or a nan bound is a bad flag, not missing data.
    path = tmp_path / "curve.csv"
    path.write_text("k,value\n2,1\n3,0.5\n4,0.25\n")
    code, out, err = run_main(["fit-delta", str(path), "--window", *window], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: --window") and err.count("\n") == 1


def test_fit_delta_infinite_window_bound(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_text("k,value\n2,1\n3,0.5\n4,0.25\n")
    code, out, _ = run_main(["fit-delta", str(path), "--window", "2", "inf"], capsys)
    assert code == EXIT_OK and "n=3" in out


def test_fit_delta_oversized_field_exit_two(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("k,value\n2," + "9" * 200_000 + "\n")
    code, out, err = run_main(["fit-delta", str(path), "--window", "1", "10"], capsys)
    assert code == EXIT_DATA and out == ""
    assert err.startswith("error: cannot read") and "field limit" in err
    assert err.count("\n") == 1


def test_fit_delta_missing_file(tmp_path, capsys):
    code, _, err = run_main(
        ["fit-delta", str(tmp_path / "nope.csv"), "--window", "1", "9"], capsys)
    assert code == EXIT_DATA
    assert "cannot read" in err


def test_stats_prints_spectrum(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n0 2\n1 2\n0 3\n")
    code, out, _ = run_main(["stats", "--edges", str(path)], capsys)
    assert code == EXIT_OK
    assert "3,1,1,3,0.3333333333333333" in out


@pytest.mark.parametrize("text", ["", "3 3\n5 5\n"], ids=["empty", "loops-only"])
def test_stats_warns_on_a_graph_without_edges(tmp_path, capsys, text):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    code, out, err = run_main(["stats", "--edges", str(path)], capsys)
    assert code == EXIT_OK
    assert out == "k,n_vertices,tri_sum,cherry_sum,c_k,cum_tri,cum_cherry,C_k\n"
    assert err == f"warning: {path} contains no edges\n"


def test_stats_malformed_edges(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\noops\n")
    code, _, err = run_main(["stats", "--edges", str(path)], capsys)
    assert code == EXIT_DATA
    assert "line 2" in err


def test_stats_missing_file(tmp_path, capsys):
    code, _, err = run_main(
        ["stats", "--edges", str(tmp_path / "nope.txt")], capsys)
    assert code == EXIT_DATA
    assert "cannot read" in err and "Traceback" not in err


#: A Latin-1 comment line, which is not valid UTF-8.
NOT_UTF8 = "# caf\xe9\n0 1\n".encode("latin-1")


@pytest.mark.parametrize("argv, code", [
    (["stats", "--edges", "{path}"], EXIT_DATA),
    (["fit-delta", "{path}", "--window", "1", "9"], EXIT_DATA),
    (["theory", "--config", "{path}"], EXIT_USAGE),
], ids=["stats", "fit-delta", "config"])
def test_input_that_is_not_utf8_gets_one_line(tmp_path, capsys, argv, code):
    path = tmp_path / "input.txt"
    path.write_bytes(NOT_UTF8)
    got, out, err = run_main([a.format(path=path) for a in argv], capsys)
    assert got == code and out == ""
    assert err.startswith(f"error: cannot read {'config ' if code == EXIT_USAGE else ''}{path}")
    assert err.count("\n") == 1


def test_stats_reports_memory_error_of_a_kernel_thread(tmp_path, monkeypatch, capsys):
    # The third membership test of the wedge steps fails: whichever thread
    # runs it, the error reaches the caller once every thread has ended.
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in itertools.combinations(range(9), 2)))
    monkeypatch.setattr(spectrum, "_WEDGE_CHUNK", 4)
    is_key = spectrum._is_key

    def failing():
        calls = itertools.count(1)

        def probe(queries, keys):
            if next(calls) == 3:
                raise MemoryError("probe table")
            return is_key(queries, keys)
        return probe

    monkeypatch.setattr(spectrum, "_is_key", failing())
    with pytest.raises(MemoryError, match="probe table"):
        triangle_counts(read_edge_list(str(path)), threads=2)
    monkeypatch.setattr(spectrum, "_is_key", failing())
    monkeypatch.setattr(spectrum, "usable_cpus", lambda: 2)
    code, out, err = run_main(["stats", "--edges", str(path)], capsys)
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: out of memory: probe table\n"


def test_stats_imports_no_scipy(tmp_path):
    # The package runs on numpy alone, and `stats` starts no pool, writes
    # no report, reads no CSV and runs no quadrature, so it must not pay for
    # those imports either.
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n0 2\n1 2\n")
    script = ("import sys, rigclust.cli\n"
              f"code = rigclust.cli.main(['stats', '--edges', {str(path)!r}])\n"
              "print([m for m in sys.modules if m.split('.')[0] in ('scipy',"
              " 'concurrent', 'multiprocessing', 'hashlib', 'json', 'csv')"
              " or m.split('.')[:2] == ['numpy', 'polynomial']], code)")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().split("\n")[-1] == "[] 0"


@pytest.mark.parametrize("argv", [
    ["theory", *BASE, "--k-min", "3", "--k-max", "6"],
    ["compare", *BASE, "--k-min", "3", "--k-max", "6", "--replicates", "2",
     "--workers", "1", "--output-dir", "{out}"],
    ["compare", *BASE, "--k-min", "3", "--k-max", "6", "--replicates", "2",
     "--workers", "2", "--output-dir", "{out}"],
], ids=["theory", "compare", "compare-two-workers"])
def test_theory_and_compare_import_no_scipy(argv, tmp_path):
    # The theory is numpy-only, no command dedupes with np.unique, which
    # imports numpy.ma, and runinfo.json reads no package metadata.  `theory`
    # writes no report; `compare` writes a report, and with two workers it
    # runs its replicates on threads, so it starts no process pool.
    argv = [a.format(out=tmp_path / "out") for a in argv]
    unused = ["scipy", "concurrent", "multiprocessing"]
    if argv[0] == "theory":
        unused += ["hashlib", "json"]
    script = ("import sys, rigclust.cli\n"
              f"code = rigclust.cli.main({argv!r})\n"
              f"print([m for m in sys.modules if m.split('.')[0] in {unused!r}"
              " or m.split('.')[:2] in (['numpy', 'ma'], ['importlib', 'metadata'])],"
              " code)")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().split("\n")[-1] == "[] 0"


# ---------------------------------------------------------------------------
# Usage errors and the module entry point
# ---------------------------------------------------------------------------

def test_usage_errors_exit_one(capsys):
    assert run_main(["theory", "--n", "50"], capsys)[0] == EXIT_USAGE  # missing keys
    assert run_main(["theory", *BASE, "--bogus"], capsys)[0] == EXIT_USAGE
    assert run_main(["theory", *BASE, "--generator", "magic"], capsys)[0] == EXIT_USAGE
    code, _, err = run_main(
        ["theory", "--config", "/nonexistent/exp.cfg"], capsys)
    assert code == EXIT_USAGE and "cannot read config" in err


#: A value other than the default for every config key; None marks a switch.
FLAG_SAMPLES = {
    "n": "150", "m": "160", "replicates": "3", "master_seed": "7",
    "k_min": "3", "k_max": "9", "pmf_k_max": "512", "edge_budget": "1000",
    "beta": "0.5", "tol": "1e-9", "x_law": "pareto(1.5,7)",
    "y_law": "degenerate(2)", "generator": "reference",
    "save_replicates": None, "output_dir": "results",
}


@pytest.mark.parametrize("key", list(CONFIG_PARSERS))
def test_flag_and_config_file_set_keys_alike(tmp_path, key):
    base = tmp_path / "base.cfg"
    base.write_text("n = 200\nm = 200\nbeta = 1\n"
                    "x_law = pareto(1,7)\ny_law = pareto(1,6)\n")
    value = FLAG_SAMPLES[key]
    keyed = tmp_path / "keyed.cfg"
    keyed.write_text(base.read_text()
                     + f"{key} = {'true' if value is None else value}\n")
    flag = ["--" + key.replace("_", "-")] + ([] if value is None else [value])

    def config(*argv):
        return _config_from_args(_build_parser().parse_args(["theory", *argv]))

    by_flag = config("--config", str(base), *flag)
    assert by_flag == config("--config", str(keyed))
    assert by_flag != config("--config", str(base))


def test_bad_flag_value_gets_config_message(capsys):
    code, _, err = run_main(["theory", *BASE, "--n", "ten"], capsys)
    assert code == EXIT_USAGE
    assert err == "error: config key n='ten' is not an integer\n"


@pytest.mark.parametrize("command", ["theory", "simulate", "compare"])
@pytest.mark.parametrize("law", ["finite([(1,'nan')])", "finite([(1,.5),(2,'nan')])"])
def test_nan_atom_probability_exit_one(tmp_path, capsys, command, law):
    code, _, err = run_main(
        [command, *BASE, "--x-law", law, "--output-dir", str(tmp_path / "out")], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "atom probability nan" in err
    assert err.count("\n") == 1


def test_unparsable_law_message_is_the_same_every_run():
    # literal_eval names an unknown name's syntax node by its address.
    argv = [sys.executable, "-m", "rigclust", "theory", *BASE, "--x-law", "finite([(1,nan)])"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    assert [proc.returncode for proc in runs] == [EXIT_USAGE, EXIT_USAGE]
    assert runs[0].stderr == runs[1].stderr
    assert "object at 0x" not in runs[0].stderr and runs[0].stderr.count("\n") == 1


def test_closed_stdout_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "rigclust", "theory", *BASE, "--k-max", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_OK
    assert err == b""


def test_module_entry_point(tmp_path):
    out = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "rigclust", "theory", *BASE,
         "--k-max", "4", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("k,a,b,")
