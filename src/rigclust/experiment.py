"""Seeded simulation experiments compared against the limit predictions.

A flat ``key=value`` config describes one experiment: model parameters (the
weight laws use a small grammar, e.g. ``pareto(1,6)``), replicate count,
master seed, the degree window to report, and numeric knobs.  Running it
builds the theory curve on that degree window, simulates the replicates (each
from a seed derived purely from the master seed and the replicate index),
pools their clustering spectra by summing counts, fits the tail exponent on
the empirical curve, and writes a report:

* ``report.csv``  -- per-degree empirical and predicted clustering values;
* ``report.json`` -- config echo, config hash, library versions, fit results;
* ``runinfo.json``-- wall-clock details, kept apart so the two files above are
  byte-identical across reruns of the same config;
* ``replicates/`` -- optional per-replicate spectra.

Identical configs yield identical report bytes regardless of worker count:
replicates are independent and the reduction is ordered.
"""

from __future__ import annotations

import ast
import math
import os
import re
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import __version__
from .graphgen import (
    DEFAULT_EDGE_BUDGET,
    EdgeBudgetError,
    project,
    sample_bipartite,
)
from .spectrum import (ClusteringSpectrum, clustering_spectrum, pool, run_threads,
                       usable_cpus, write_csv, write_spectrum_csv)
from .theory import DEFAULT_K_MAX, pareto_delta, ratio_from_coefficient, theory_curve
from .weights import Degenerate, Finite, ModelParams, Pareto, WeightLaw

__all__ = [
    "UsageError",
    "ExperimentConfig",
    "CONFIG_PARSERS",
    "REPORT_COLUMNS",
    "ComparisonReport",
    "FitResult",
    "parse_law",
    "law_to_str",
    "read_config",
    "build_config",
    "canonical_config_text",
    "config_hash",
    "replicate_seed",
    "Simulation",
    "simulate",
    "write_replicates",
    "run",
    "fit_delta",
    "default_delta_window",
]

CALIBRATION_NOTE = (
    "Comparison tolerances and the n=m scale of the acceptance experiment are "
    "calibration choices of this workbench, not quantities derived from the "
    "limit theory; gaps should shrink as n and m grow."
)


class UsageError(ValueError):
    """Bad command line, config key, or config value."""


# ---------------------------------------------------------------------------
# Weight-law grammar:  pareto(x_min, alpha) | degenerate(v) | finite([(v,p),..])
# ---------------------------------------------------------------------------

_LAW_RE = re.compile(r"^\s*(pareto|degenerate|finite)\s*\((.*)\)\s*$", re.IGNORECASE)


def parse_law(text: str) -> WeightLaw:
    m = _LAW_RE.match(text)
    if not m:
        raise UsageError(f"cannot parse weight law {text!r}; expected "
                         "pareto(x_min, alpha), degenerate(v), or finite([(v,p),...])")
    name, body = m.group(1).lower(), m.group(2).strip()
    try:
        args = ast.literal_eval(body if name == "finite" else f"({body},)")
    except (ValueError, SyntaxError, TypeError) as exc:
        # literal_eval's own message can name a syntax node by its address.
        raise UsageError(f"cannot parse weight law {text!r}: its arguments "
                         "must be number literals") from exc
    try:
        if name == "finite":
            return Finite(tuple((float(v), float(p)) for v, p in args))
        if name == "pareto":
            if len(args) != 2:
                raise UsageError(f"pareto takes two arguments, got {len(args)}")
            return Pareto(float(args[0]), float(args[1]))
        if len(args) != 1:
            raise UsageError(f"degenerate takes one argument, got {len(args)}")
        return Degenerate(float(args[0]))
    except UsageError:
        raise
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse weight law {text!r}: {exc}") from exc


def law_to_str(law: WeightLaw) -> str:
    if isinstance(law, Pareto):
        return f"pareto({law.x_min!r},{law.tail_index!r})"
    if isinstance(law, Finite):
        if len(law.atoms) == 1 and law.atoms[0][1] == 1.0:  # a point mass
            return f"degenerate({law.atoms[0][0]!r})"
        atoms = ",".join(f"({v!r},{p!r})" for v, p in law.atoms)
        return f"finite([{atoms}])"
    raise TypeError(f"unknown law {type(law).__name__}")


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    replicates: int = 1
    master_seed: int = 0
    k_min: int = 2
    k_max: int = 50
    #: Cap on the theory grid; the one grid is sized from ``k_max`` (see
    #: :func:`rigclust.theory.adaptive_limit_laws`).
    pmf_k_max: int = DEFAULT_K_MAX
    tol: float = 1e-10
    generator: str = "fast"
    edge_budget: int = DEFAULT_EDGE_BUDGET
    save_replicates: bool = False
    output_dir: str | None = None

    def __post_init__(self):
        if self.replicates < 1:
            raise UsageError("replicates must be >= 1")
        if not (2 <= self.k_min <= self.k_max):
            raise UsageError("need 2 <= k_min <= k_max")
        if self.generator not in ("reference", "fast"):
            raise UsageError(f"generator must be reference|fast, got {self.generator!r}")
        if self.params.n < 3 or self.params.m < 3:
            raise UsageError("simulation needs n, m >= 3")
        if not 0.0 < self.tol < 1.0:  # also rejects nan
            raise UsageError(f"tol must be in (0, 1), got {self.tol!r}")
        if self.pmf_k_max < 1:
            raise UsageError("pmf_k_max must be >= 1")
        if self.edge_budget < 0:
            raise UsageError("edge_budget must be >= 0")


def _int(key, v):
    try:
        return int(v)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key {key}={v!r} is not an integer") from exc


def _float(key, v):
    try:
        return float(v)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key {key}={v!r} is not a number") from exc


def _law(key, v):
    return v if isinstance(v, WeightLaw) else parse_law(str(v))


def _bool(key, v):
    if isinstance(v, bool):
        return v
    s = str(v).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"config key {key}={v!r} is not a boolean")


def _text(key, v):
    return str(v)


def _location(key, v):
    """Where results go: not part of the experiment's identity."""
    return None if v == "" else str(v)


#: Every config key with the parser of its value, in command-line flag order.
#: The :class:`ModelParams` keys are required; every other key defaults to the
#: :class:`ExperimentConfig` field of the same name.
CONFIG_PARSERS = {
    "n": _int, "m": _int, "replicates": _int, "master_seed": _int,
    "k_min": _int, "k_max": _int, "pmf_k_max": _int, "edge_budget": _int,
    "beta": _float, "tol": _float, "x_law": _law, "y_law": _law,
    "generator": _text, "save_replicates": _bool, "output_dir": _location,
}

_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))


def read_config(path: str) -> dict:
    """Flat key=value lines; '#' comments and blank lines ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                if key not in CONFIG_PARSERS:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = val
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return values


def build_config(values: dict) -> ExperimentConfig:
    """Build a validated config from string-or-typed values."""
    for key in _PARAM_KEYS:
        if values.get(key) is None:
            raise UsageError(f"missing required config key {key!r}")
    parsed = {key: parse(key, values[key]) for key, parse in CONFIG_PARSERS.items()
              if values.get(key) is not None}
    try:
        params = ModelParams(**{key: parsed.pop(key) for key in _PARAM_KEYS})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return ExperimentConfig(params, **parsed)


def _identity(config: ExperimentConfig) -> dict[str, str]:
    """Text of every config value except the output location."""
    items = {}
    for key, parse in CONFIG_PARSERS.items():
        if parse is _location:
            continue
        v = getattr(config.params if key in _PARAM_KEYS else config, key)
        items[key] = law_to_str(v) if isinstance(v, WeightLaw) else str(v)
    return items


def canonical_config_text(config: ExperimentConfig) -> str:
    """Stable text form of the experiment identity (location keys excluded)."""
    return "".join(f"{k}={v}\n" for k, v in sorted(_identity(config).items()))


def config_hash(config: ExperimentConfig) -> str:
    import hashlib

    return hashlib.sha256(canonical_config_text(config).encode()).hexdigest()


def replicate_seed(master_seed: int, index: int) -> int:
    """Pure function of (master_seed, index) feeding the graph sampler."""
    ss = np.random.SeedSequence(entropy=[master_seed & ((1 << 64) - 1), index])
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Exponent fitting
# ---------------------------------------------------------------------------

class FitResult(NamedTuple):
    """A log-log fit: its line, the window it was asked for, and the number
    of points inside that window it fitted."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple
    n_points: int


def fit_delta(points, window: tuple[float, float]) -> FitResult:
    """Least squares of log(value) on log(k) within the inclusive window.

    ``points`` is an iterable of (k, value); needs at least three in-window
    points at two or more k, all with k and value positive and finite.  A nan
    k belongs to no window, so it is rejected wherever it appears.
    """
    lo, hi = window
    ks, vs = [], []
    for k, v in points:
        if math.isnan(k) or lo <= k <= hi:
            if not (0 < k < math.inf and 0 < v < math.inf):
                raise ValueError(f"log-log fit needs positive finite data, got ({k}, {v})")
            ks.append(math.log(k))
            vs.append(math.log(v))
    if len(ks) < 3:
        raise ValueError(f"need at least 3 points inside window {window}, have {len(ks)}")
    if len(set(ks)) < 2:
        raise ValueError(f"need at least 2 distinct k inside window {window}, have 1")
    x = np.array(ks)
    y = np.array(vs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return FitResult(float(slope), float(intercept), r2, (lo, hi), len(ks))


_MIN_CHERRIES = 30


def default_delta_window(pooled: ClusteringSpectrum) -> tuple[int, int] | None:
    """Upper half of the degrees whose pooled cherry count reaches
    ``_MIN_CHERRIES``; None when fewer than three such degrees exist."""
    ks = [k for k in range(2, pooled.max_degree + 1)
          if pooled.cherry_sum[k] >= _MIN_CHERRIES]
    if len(ks) < 3:
        return None
    upper = ks[len(ks) // 2:]
    if len(upper) < 3:
        upper = ks[-3:]
    return upper[0], upper[-1]


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------

def _one_replicate(config: ExperimentConfig, index: int, threads: int):
    seed = replicate_seed(config.master_seed, index)
    sample = sample_bipartite(config.params, seed, config.generator)
    try:
        graph = project(sample, config.edge_budget)
    except EdgeBudgetError as exc:
        return index, None, str(exc)
    return index, clustering_spectrum(graph, threads), None


def _pool_size(config: ExperimentConfig, workers: int) -> int:
    """Threads to run the replicates on: never more than there are replicates."""
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    return min(workers, config.replicates)


def _run_replicates(config: ExperimentConfig, workers: int):
    workers = _pool_size(config, workers)
    # The W replicate threads split the CPUs among their triangle counters,
    # so they never start W counting threads per CPU.
    share = max(1, usable_cpus() // workers)
    return run_threads(lambda i: _one_replicate(config, i, share),
                       range(config.replicates), workers)


#: Columns of ``report.csv``, and the keys of each row of a report.
REPORT_COLUMNS = ("k", "n_vertices", "c_hat", "c_se", "C_hat", "C_se", "c_pred",
                  "C_pred_lo", "C_pred_hi", "c_gap", "C_gap")


@dataclass
class ComparisonReport:
    """Everything the compare pipeline produces, ready to serialise."""

    config: ExperimentConfig
    rows: list
    pooled: ClusteringSpectrum
    spectra: list
    failed: list
    delta_fit: FitResult | None
    delta_theory: float | None
    delta_negative: bool
    wall_time_s: float = 0.0
    workers: int = 1

    @property
    def hash(self) -> str:
        return config_hash(self.config)

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "config": _identity(cfg),
            "config_hash": self.hash,
            "package_version": __version__,
            "numpy_version": np.__version__,
            "replicates_total": cfg.replicates,
            "replicates_failed": len(self.failed),
            "failed_details": self.failed,
            "delta_fit": None if self.delta_fit is None else {
                "slope": self.delta_fit.slope,
                "intercept": self.delta_fit.intercept,
                "r_squared": self.delta_fit.r_squared,
                "window": list(self.delta_fit.window),
                "n_points": self.delta_fit.n_points,
            },
            "delta_theory": self.delta_theory,
            "delta_negative": self.delta_negative,
            "calibration_note": CALIBRATION_NOTE,
        }

    def write(self, out_dir: str) -> None:
        import json

        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "report.csv"), REPORT_COLUMNS,
                  [[row[name] for name in REPORT_COLUMNS] for row in self.rows])
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as f:
            json.dump(self.to_json_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        with open(os.path.join(out_dir, "runinfo.json"), "w", encoding="utf-8") as f:
            json.dump({"wall_time_s": self.wall_time_s, "workers": self.workers,
                       "numpy_version": np.__version__}, f, indent=2, sort_keys=True)
            f.write("\n")
        if self.config.save_replicates:
            write_replicates(self.spectra, out_dir)


def _se(values: list) -> float | None:
    vals = [v for v in values if v is not None]
    if len(vals) < 2:
        return None
    return float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


class Simulation(NamedTuple):
    """Replicate spectra in replicate order (None where the edge budget
    aborted one), the abort details, and the pool of the survivors."""

    pooled: ClusteringSpectrum
    spectra: list
    failed: list


def simulate(config: ExperimentConfig, workers: int = 1) -> Simulation:
    """Run every replicate and pool the spectra; no theory is built."""
    results = _run_replicates(config, workers)
    spectra = [spec for _, spec, _ in results]
    failed = [{"replicate": i, "error": err} for i, _, err in results if err]
    good = [s for s in spectra if s is not None]
    if not good:
        raise EdgeBudgetError("every replicate exceeded the edge budget: "
                              + failed[0]["error"])
    return Simulation(pool(good), spectra, failed)


def write_replicates(spectra: list, out_dir: str) -> None:
    """Per-replicate spectrum CSVs under ``out_dir/replicates``."""
    rep_dir = os.path.join(out_dir, "replicates")
    os.makedirs(rep_dir, exist_ok=True)
    for i, spec in enumerate(spectra):
        if spec is not None:
            write_spectrum_csv(spec, os.path.join(rep_dir, f"replicate_{i:04d}.csv"))


def run(config: ExperimentConfig, workers: int = 1) -> ComparisonReport:
    """Predict, simulate, pool, and fit; see the module docstring."""
    t0 = time.monotonic()
    ks = list(range(config.k_min, config.k_max + 1))
    # The theory comes first so that laws outside its domain fail before any
    # replicate is sampled; a bad worker count fails before both.
    _pool_size(config, workers)
    curve = {row.k: row for row in theory_curve(
        config.params, ks, config.pmf_k_max, config.tol)}

    pooled, spectra, failed = simulate(config, workers)
    good = [s for s in spectra if s is not None]

    rows = []
    for k in ks:
        c_hat = pooled.c_at(k)
        C_hat = pooled.C_at(k)
        row = dict.fromkeys(REPORT_COLUMNS)
        row.update(
            k=k,
            n_vertices=int(pooled.n_vertices[k]) if k <= pooled.max_degree else 0,
            c_hat=c_hat,
            c_se=_se([s.c_at(k) for s in good]),
            C_hat=C_hat,
            C_se=_se([s.C_at(k) for s in good]),
        )
        trow = curve.get(k)
        if trow is not None:
            row["c_pred"] = trow.c_pred
            row["C_pred_lo"], row["C_pred_hi"] = trow.C_pred.lo, trow.C_pred.hi
            if c_hat is not None and trow.c_pred is not None:
                row["c_gap"] = abs(c_hat - trow.c_pred)
            if C_hat is not None:
                row["C_gap"] = abs(C_hat - trow.C_pred.mid)
        rows.append(row)

    # Tail-exponent fit on the empirical cumulative curve, mapped through the
    # inverse blend so the fitted slope targets the same exponent as delta.
    delta_fit = None
    window = default_delta_window(pooled)
    if window is not None:
        pts = []
        for k in range(window[0], window[1] + 1):
            C_hat = pooled.C_at(k)
            if C_hat is not None and 0.0 < C_hat < 1.0:
                pts.append((k, ratio_from_coefficient(config.params.beta, C_hat)))
        try:
            delta_fit = fit_delta(pts, window)
        except ValueError:
            pass

    delta_theory = pareto_delta(config.params)
    delta_negative = delta_theory is not None and delta_theory < 0

    report = ComparisonReport(
        config=config, rows=rows, pooled=pooled, spectra=spectra, failed=failed,
        delta_fit=delta_fit, delta_theory=delta_theory, delta_negative=delta_negative,
        wall_time_s=time.monotonic() - t0, workers=workers,
    )
    if config.output_dir:
        report.write(config.output_dir)
    return report
