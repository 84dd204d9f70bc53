"""Command-line behaviour: outputs, routing, and exit codes."""

import json
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from rigclust.cli import (
    EXIT_BUDGET,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WORKER,
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


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1"])
def test_tol_outside_unit_interval_exit_one(capsys, tol):
    code, _, err = run_main(["theory", *BASE, f"--tol={tol}"], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: tol must be in (0, 1)")
    assert err.count("\n") == 1


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


class KilledPool:
    """Stands in for ProcessPoolExecutor: a worker died, no process starts."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, *args):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_killed_worker_exit_four(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("rigclust.experiment.ProcessPoolExecutor", KilledPool)
    code, out, err = run_main(
        [command, *BASE, "--replicates", "2", "--workers", "2", "--k-max", "6",
         "--output-dir", str(tmp_path / "out")], capsys)
    assert code == EXIT_WORKER and out == ""
    assert err == ("error: a worker process died: "
                   "A process in the process pool was terminated abruptly\n")


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


def test_fit_delta_named_columns_and_blank_cells(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_text("k,foo,val\n2,x,8.0\n3,x,\n4,x,2.0\n8,x,1.0\n16,x,0.5\n")
    code, out, _ = run_main(
        ["fit-delta", str(path), "--window", "2", "16",
         "--k-col", "k", "--value-col", "val"], capsys)
    assert code == EXIT_OK and "slope=" in out


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


def test_stats_imports_no_scipy(tmp_path):
    # scipy is only needed by the theory; `stats` must not pay for its import.
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n0 2\n1 2\n")
    script = ("import sys, rigclust.cli\n"
              f"code = rigclust.cli.main(['stats', '--edges', {str(path)!r}])\n"
              "print([m for m in sys.modules if m.startswith('scipy')], code)")
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
