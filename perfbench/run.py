"""Benchmark of the rigclust command line, one fresh process per timed run.

    python3 perfbench/run.py --workload compare-sparse --seed 1 --seconds 36 --trace 0

Run from the repository root.  Each timed operation is a new
``python -m rigclust ...`` process with one worker, so per-process caches
(the limit-law ``lru_cache``, the projection's index cache) never carry over
between samples.  Inputs are made from ``--seed`` before any timing starts,
and every output is checked.  The last line of standard output is a JSON
object ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: end-to-end metrics, medians over the processes of this run;
* ``--trace 1``: per-layer metrics from processes run under tracecli.py,
  plus the tracing overhead against untraced processes of the same run.

Working files go to ``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

import checks  # noqa: E402  (sibling modules; the script directory is on sys.path)
import inputs  # noqa: E402
import layers  # noqa: E402

#: Setup probes per run, after one untimed probe that compiles the package
#: and warms the file cache.
SETUP_PROBES = 7
#: Timed CLI processes per run, at least; more while --seconds allows.
MIN_PROCESSES = 2
#: Seconds after start by which every child has ended: one still running
#: then is killed and counts as failed, so a run ends well within 180 s.
DEADLINE_S = 165.0
STARTED = time.monotonic()
#: BLAS/OpenMP threads of each child: one, like its single worker.
BLAS_THREADS = "1"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "ok_frac": "ratio"}


def _reference(name: str) -> dict:
    return checks.read_theory_rows(os.path.join(HERE, "reference", f"{name}.csv"))


class CompareSparse:
    """``compare`` on the acceptance config; one operation per replicate."""

    name = "compare-sparse"
    ops = inputs.COMPARE_REPLICATES

    def prepare(self, work: str, seed: int) -> None:
        self.config = os.path.join(work, "compare.cfg")
        inputs.write_config(self.config, dict(
            inputs.COMPARE_SPARSE, replicates=self.ops, master_seed=seed))
        self.reference = _reference(self.name)

    def cli_args(self, out: str) -> list[str]:
        return ["compare", "--config", self.config, "--output-dir", out,
                "--workers", "1"]

    def check(self, out: str) -> tuple[list[str], str | None]:
        return checks.check_compare(out, self.reference)


class TheoryDense:
    """``theory`` over k = 3..50 with every row numeric; one operation per row."""

    name = "theory-dense"
    ops = inputs.THEORY_DENSE["k_max"] - inputs.THEORY_DENSE["k_min"] + 1

    def prepare(self, work: str, seed: int) -> None:
        # theory draws nothing at random; the seed only enters the config.
        self.config = os.path.join(work, "theory.cfg")
        inputs.write_config(self.config, dict(inputs.THEORY_DENSE, master_seed=seed))
        self.reference = _reference(self.name)

    def cli_args(self, out: str) -> list[str]:
        return ["theory", "--config", self.config, "--out",
                os.path.join(out, "theory.csv")]

    def check(self, out: str) -> tuple[list[str], str | None]:
        return checks.check_theory(os.path.join(out, "theory.csv"), self.reference), None


class StatsDense:
    """``stats`` on a seeded union of attribute cliques; one operation per call."""

    name = "stats-dense"
    ops = 1
    config = None

    def prepare(self, work: str, seed: int) -> None:
        u, v = inputs.clique_union_edges(seed)
        self.edges = os.path.join(work, "edges.txt")
        inputs.write_edge_list(self.edges, u, v)
        self.oracle = inputs.spectrum_oracle(u, v)

    def cli_args(self, out: str) -> list[str]:
        return ["stats", "--edges", self.edges, "--out",
                os.path.join(out, "spectrum.csv")]

    def check(self, out: str) -> tuple[list[str], str | None]:
        return checks.check_spectrum(os.path.join(out, "spectrum.csv"), self.oracle), None


WORKLOADS = {w.name: w for w in (CompareSparse, TheoryDense, StatsDense)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # Cache bytecode, as an installed package does; the untimed first setup
    # probe compiles the package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str], log: str) -> dict:
    """Run one process to completion: wall seconds, peak RSS, exit code."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(STARTED + DEADLINE_S - time.monotonic(), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mib": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode, "log": log}


def probe_setup(workload, work: str) -> list[float]:
    """Seconds for a fresh interpreter to import rigclust.cli and parse the
    workload's config."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC]
    if workload.config:
        argv.append(workload.config)
    times = []
    for i in range(SETUP_PROBES + 1):
        res = run_child(argv, os.path.join(work, f"probe-{i}.log"))
        if res["exit_code"] != 0:
            with open(res["log"], encoding="utf-8", errors="replace") as f:
                raise SystemExit(f"setup probe failed: {f.read().strip()}")
        times.append(res["wall_s"])
    return times[1:]


def run_once(workload, work: str, index: int, traced: bool) -> dict:
    out = os.path.join(work, f"run-{index}")
    os.makedirs(out)
    argv = [sys.executable]
    if traced:
        spans = os.path.join(work, f"spans-{index}.json")
        argv += [os.path.join(HERE, "tracecli.py"), spans, str(index), "--"]
    else:
        argv += ["-m", "rigclust"]
    res = run_child(argv + workload.cli_args(out), os.path.join(work, f"run-{index}.log"))
    res["traced"] = traced
    errors, digest = [], None
    if res["exit_code"] != 0:
        with open(res["log"], encoding="utf-8", errors="replace") as f:
            errors.append(f"exit code {res['exit_code']}: {f.read().strip()[-500:]}")
    else:
        try:
            errors, digest = workload.check(out)
        except (OSError, ValueError, KeyError) as exc:
            errors = [f"output unreadable: {type(exc).__name__}: {exc}"]
    res["errors"], res["digest"] = errors, digest
    if traced and not errors:
        with open(spans, encoding="utf-8") as f:
            trace = json.load(f)
        res["layers"] = layers.process_metrics(trace)
        res["uncalled"] = layers.uncalled(trace)
    return res


def source_hash() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def digest_errors(workload_name: str, seed: int, digests: list[str]) -> list[str]:
    """Report bytes must agree between processes of this run, and with any
    earlier run of the same sources, workload and seed."""
    if not digests:
        return []
    if len(set(digests)) > 1:
        return ["report.csv/report.json bytes differ between processes of one run"]
    store = os.path.join(WORK, "digests.json")
    known = {}
    if os.path.exists(store):
        with open(store, encoding="utf-8") as f:
            known = json.load(f)
    key = f"{workload_name}:{seed}:{source_hash()}"
    if known.setdefault(key, digests[0]) != digests[0]:
        return ["report.csv/report.json bytes differ from an earlier run of "
                "the same sources and seed"]
    with open(store, "w", encoding="utf-8") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return []


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS)}


def schedule(seconds: float, durations: list[float]) -> bool:
    """Start another process while the run is short of its minimum, or while
    the next one should still end within the run length; never one that
    would likely run past the deadline."""
    if not durations:
        return True
    expect = statistics.median(durations)
    if time.monotonic() + expect > STARTED + DEADLINE_S:
        return False
    return len(durations) < MIN_PROCESSES or sum(durations) + expect <= seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an interrupt so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "rigclust", "cli.py")):
        print(f"error: no rigclust sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    work = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload.prepare(work, args.seed)
        setup = probe_setup(workload, work)
        results = []
        loop_start = time.perf_counter()
        while schedule(args.seconds, [r["wall_s"] for r in results]):
            traced = bool(args.trace) and len(results) % 2 == 1
            results.append(run_once(workload, work, len(results), traced))
        elapsed = time.perf_counter() - loop_start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_runs = [r for r in results if r["errors"]]
    run_errors = digest_errors(workload.name, args.seed,
                               [r["digest"] for r in results if r["digest"]])
    attempted = workload.ops * len(results)
    failed = attempted if run_errors else workload.ops * len(failed_runs)
    setup_s = statistics.median(setup)
    plain = [r for r in results if not r["traced"]]
    if args.trace:
        metrics = trace_metrics(plain, [r for r in results if r["traced"]], setup_s)
        units = layers.PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": setup_s,
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": elapsed, "env": environment(),
        "samples": {"processes": len(plain), "traced": len(results) - len(plain),
                    "setup_probes": len(setup)},
        "process_wall_s": [r["wall_s"] for r in results],
        "setup_s": setup,
        "errors": run_errors + [e for r in failed_runs for e in r["errors"]][:20],
        "uncalled": next((r["uncalled"] for r in results if "uncalled" in r), []),
    }
    with open(os.path.join(WORK, "results.jsonl"), "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    for err in record["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print("run " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def trace_metrics(plain: list[dict], traced: list[dict], setup_s: float) -> dict:
    """Median per-layer values over the traced processes, plus the cost and
    coverage of tracing: overhead against the untraced processes, and the
    share of traced wall time that setup plus all self times account for."""
    traced = [r for r in traced if "layers" in r]
    if not traced:
        return {name: 0.0 for name in layers.PER_LAYER}
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["trace.accounted_frac"] = statistics.median(
        (setup_s + r["layers"]["trace.self_s"]) / r["wall_s"] for r in traced)
    return out


if __name__ == "__main__":
    sys.exit(main())
