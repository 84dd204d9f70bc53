"""Command line interface.

Subcommands:

* ``theory``    -- tabulate the predicted clustering curve as CSV;
* ``simulate``  -- run replicates and write the pooled clustering spectrum;
* ``compare``   -- simulate and diff against the predictions (full report);
* ``fit-delta`` -- log-log slope of a two-column CSV within a degree window;
* ``stats``     -- clustering spectrum of an external edge list.

Exit codes: 0 success (also when the reader of stdout closes it early), 1
usage error (including a ``tol`` outside (0, 1), ``--workers`` below 1, a
reversed or ``nan`` ``--window``, ``--save-replicates`` without an output
directory and a config file that is not UTF-8) or weight laws outside the
theory's domain, 2 malformed data (also an edge list or CSV that is not
UTF-8, a CSV field over the ``csv`` module's size limit, or a ``nan`` k for
``fit-delta``), 3 run too large: the edge budget aborted every replicate,
or an allocation was refused.  ``simulate`` and ``compare`` run the
replicates on at most ``--workers`` threads, and on at most one thread per
replicate.

A process entry (the ``rigclust`` console script, ``python -m rigclust``)
calls :func:`main` without ``argv``; only then does ``main`` move the
import-time heap into the cyclic GC's permanent generation, which spares
interpreter finalization its full passes over numpy's and the package's
objects.  Importing this module freezes nothing.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .experiment import (
    CONFIG_PARSERS,
    UsageError,
    _bool,
    _location,
    build_config,
    config_hash,
    fit_delta,
    read_config,
    run,
    simulate,
    write_replicates,
)
from .graphgen import EdgeBudgetError
from .spectrum import (DataFormatError, clustering_spectrum, read_edge_list,
                       write_csv, write_spectrum_csv)
from .theory import pareto_delta, theory_curve
from .weights import DomainError

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    for key, parse in CONFIG_PARSERS.items():
        flags = ["--" + key.replace("_", "-")] + (["-o"] if parse is _location else [])
        action = "store_true" if parse is _bool else "store"
        p.add_argument(*flags, action=action, default=None)


def _config_from_args(args) -> "ExperimentConfig":
    values = read_config(args.config) if args.config else {}
    for key in CONFIG_PARSERS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return build_config(values)


def _cmd_theory(args) -> int:
    config = _config_from_args(args)
    rows = theory_curve(config.params, range(config.k_min, config.k_max + 1),
                        config.pmf_k_max, config.tol)
    header = "k,a,b,A_lo,A_hi,B_lo,B_hi,c_pred,C_pred_lo,C_pred_hi".split(",")
    write_csv(args.out or sys.stdout, header,
              [(r.k, r.a, r.b, *r.A, *r.B, r.c_pred, *r.C_pred) for r in rows])
    d = pareto_delta(config.params)
    if d is not None and d < 0:
        print(f"note: tail-weight exponent delta = {d:g} is negative "
              "(clustering grows with k at large degrees)", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    if config.save_replicates and not config.output_dir:
        raise UsageError("--save-replicates needs --output-dir (or output_dir in the config)")
    sim = simulate(config, workers=args.workers)
    target = args.out
    if config.output_dir:
        os.makedirs(config.output_dir, exist_ok=True)
        target = target or os.path.join(config.output_dir, "pooled_spectrum.csv")
        if config.save_replicates:
            write_replicates(sim.spectra, config.output_dir)
    write_spectrum_csv(sim.pooled, target or sys.stdout)
    if sim.failed:
        print(f"warning: {len(sim.failed)} replicate(s) aborted on the edge budget",
              file=sys.stderr)
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = _config_from_args(args)
    if not config.output_dir:
        raise UsageError("compare needs --output-dir (or output_dir in the config)")
    report = run(config, workers=args.workers)
    gaps = [r["C_gap"] for r in report.rows if r["C_gap"] is not None]
    print(f"config {config_hash(config)[:12]}: "
          f"{config.replicates - len(report.failed)}/{config.replicates} replicates, "
          + (f"max |C_hat - C_pred| = {max(gaps):.4f}" if gaps else "no overlapping degrees"))
    if report.delta_fit is not None:
        line = (f"fitted delta = {report.delta_fit.slope:+.3f} "
                f"(r^2 = {report.delta_fit.r_squared:.3f}, "
                f"window {report.delta_fit.window})")
        if report.delta_theory is not None:
            line += f", theory delta = {report.delta_theory:+.3f}"
        print(line)
    if report.delta_negative:
        print("note: theoretical delta is negative for these laws", file=sys.stderr)
    return EXIT_OK


def _cmd_fit_delta(args) -> int:
    import csv

    lo, hi = args.window
    if not lo <= hi:  # also a nan bound
        raise UsageError(f"--window needs LO <= HI, got {lo} {hi}")
    try:
        with open(args.csv, "r", encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{args.csv}: empty file")
            missing = [c for c in (args.k_col, args.value_col) if c and c not in header]
            if missing:
                raise DataFormatError(f"{args.csv}: no column{'s' * (len(missing) > 1)} "
                                      + "/".join(map(repr, missing)))
            ki = header.index(args.k_col) if args.k_col else 0
            vi = header.index(args.value_col) if args.value_col else 1
            points = []
            for row in reader:
                if not row or len(row) <= max(ki, vi) or not row[vi].strip():
                    continue
                try:
                    points.append((float(row[ki]), float(row[vi])))
                except ValueError as exc:
                    raise DataFormatError(f"{args.csv}: non-numeric row {row!r}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"cannot read {args.csv}: {exc}") from exc
    try:
        fit = fit_delta(points, (lo, hi))
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc
    print(f"slope={fit.slope!r} intercept={fit.intercept!r} "
          f"r_squared={fit.r_squared!r} n={fit.n_points}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    try:
        graph = read_edge_list(args.edges)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {args.edges}: {exc}") from exc
    if graph.n_edges == 0:
        print(f"warning: {args.edges} contains no edges", file=sys.stderr)
    spec = clustering_spectrum(graph)
    write_spectrum_csv(spec, args.out or sys.stdout)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="rigclust", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="tabulate predicted clustering")
    _add_config_flags(p)
    p.add_argument("--out", help="CSV destination (default stdout)")
    p.set_defaults(fn=_cmd_theory)

    p = sub.add_parser("simulate", help="run replicates, write pooled spectrum")
    _add_config_flags(p)
    p.add_argument("--out", help="CSV destination (default stdout/output_dir)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("compare", help="simulate and compare against theory")
    _add_config_flags(p)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("fit-delta", help="log-log slope of a k,value CSV")
    p.add_argument("csv")
    p.add_argument("--window", nargs=2, type=float, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--k-col", help="column name for k (default: first column)")
    p.add_argument("--value-col", help="column name for values (default: second)")
    p.set_defaults(fn=_cmd_fit_delta)

    p = sub.add_parser("stats", help="clustering spectrum of an edge list")
    p.add_argument("--edges", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_stats)
    return parser


def main(argv=None) -> int:
    """Run one command; return its exit code.

    ``argv=None`` means a process entry, reading ``sys.argv``: the heap left
    by the imports is then frozen (``gc.freeze``), so the collections at
    exit skip it.  In-process callers pass ``argv`` and keep their heap as
    it is."""
    if argv is None:
        gc.freeze()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        # Flush here so that a reader closing stdout early is seen below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nobody reads the rest of stdout (`rigclust ... | head`): not an
        # error.  Point stdout at devnull so the flush at shutdown stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EdgeBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        # Any file error the subcommands did not wrap themselves: fail with a
        # clean line rather than a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
