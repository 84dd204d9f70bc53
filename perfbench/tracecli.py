"""Run the rigclust CLI once with spans around each layer's functions.

    python perfbench/tracecli.py SPANS_JSON RUN_ID -- <rigclust arguments>

Each traced function is replaced, at the module attribute its callers look
up, by a wrapper that records a span (name, start, end, parent span, run id,
replicate id) plus counts read from its arguments and return value.  Spans
stay in memory and are written to SPANS_JSON when the CLI returns.  The
package itself is not modified.

``post`` marks the end of a span's bookkeeping: the wrapper's own work after
the call, which belongs to neither the span nor its parent.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

import numpy as np


def _sample_counts(ret, args):
    return {"links": int(sum(a.size for a in ret.links))}


def _project_counts(ret, args):
    sizes = np.array([a.size for a in args["sample"].links], dtype=np.int64)
    return {"candidate_pairs": int((sizes * (sizes - 1) // 2).sum()),
            "edges": int(ret.n_edges)}


def _graph_counts(ret, args):
    return {"edges": int(ret.n_edges)}


def _triangle_counts(ret, args):
    return {"triangles": int(ret.sum()) // 3}


def _spectrum_counts(ret, args):
    return {"wedges": int(ret.cherry_sum.sum())}


def _read_counts(ret, args):
    source = args["file"]
    if not isinstance(source, str):
        return {}
    with open(source, "rb") as f:
        return {"lines_read": sum(chunk.count(b"\n")
                                  for chunk in iter(lambda: f.read(1 << 20), b""))}


def _pmf_counts(ret, args):
    return {"grid_len": int(ret.mass.size), "tail_mass": float(ret.tail_mass)}


def _stopped_sum_counts(ret, args):
    """Count terms the sum loop convolves (its truncation rule, re-derived
    from the arguments) and the multiply-adds that implies."""
    spec = args["spec"]
    count = spec.count
    remaining = np.concatenate([np.cumsum(count.mass[::-1])[::-1][1:], [0.0]])
    below = np.nonzero(remaining + count.tail_mass < args["tol"])[0]
    support = int(below[0]) if below.size else count.mass.size - 1
    grid = int(ret.mass.size)
    return {"count_support": support, "grid_len": grid,
            "conv_ops_computed": support * grid * int(spec.summand.mass.size)}


def _laws_counts(ret, args):
    return {"builds": 1}


def _curve_counts(ret, args):
    numeric = [r for r in ret if not r.asymptotic]
    return {"rows": len(ret), "asymptotic_rows": len(ret) - len(numeric),
            "cpred_width_max": max((r.C_pred.width for r in numeric), default=0.0)}


def _run_counts(ret, args):
    return {"replicates_failed": len(ret.failed)}


def _replicate_counts(ret, args):
    return {"failed": int(ret[2] is not None)}


#: span name -> (patch targets "module:attribute[.method]", counts function).
TARGETS = {
    "experiment.run": (["rigclust.cli:run"], _run_counts),
    "experiment.replicate": (["rigclust.experiment:_one_replicate"], _replicate_counts),
    "experiment.fit": (["rigclust.experiment:fit_delta"], None),
    "experiment.write": (["rigclust.experiment:ComparisonReport.write"], None),
    "graphgen.sample": (["rigclust.experiment:sample_bipartite"], _sample_counts),
    "graphgen.project": (["rigclust.experiment:project"], _project_counts),
    "graphgen.graph_from_edges": (["rigclust.graphgen:graph_from_edges",
                                   "rigclust.spectrum:graph_from_edges"], _graph_counts),
    "spectrum.read": (["rigclust.cli:read_edge_list"], _read_counts),
    "spectrum.spectrum": (["rigclust.experiment:clustering_spectrum",
                           "rigclust.cli:clustering_spectrum"], _spectrum_counts),
    "spectrum.triangles": (["rigclust.spectrum:triangle_counts"], _triangle_counts),
    "spectrum.pool": (["rigclust.experiment:pool"], None),
    "spectrum.write": (["rigclust.cli:write_spectrum_csv",
                        "rigclust.experiment:write_spectrum_csv"], None),
    "theory.curve": (["rigclust.experiment:theory_curve",
                      "rigclust.cli:theory_curve"], _curve_counts),
    "theory.laws": (["rigclust.theory:LimitLaws.__init__"], _laws_counts),
    "mixedpoisson.pmf": (["rigclust.theory:pmf_mixed_poisson",
                          "rigclust.mixedpoisson:pmf_mixed_poisson"], _pmf_counts),
    "mixedpoisson.offspring": (["rigclust.theory:pmf_offspring"], _pmf_counts),
    "stoppedsum.stopped_sum": (["rigclust.theory:pmf_stopped_sum"], _stopped_sum_counts),
    "stoppedsum.convolve": (["rigclust.theory:convolve"], None),
}


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.replicate: int | None = None
        self.missing: list[str] = []

    def wrap(self, name, fn, counts):
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            span = {"name": name, "parent": tracer.stack[-1] if tracer.stack else -1,
                    "run": tracer.run_id, "replicate": tracer.replicate}
            if name == "experiment.replicate":
                index = signature.bind(*args, **kwargs).arguments["index"]
                span["replicate"] = tracer.replicate = index
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                raise
            else:
                span["end"] = time.perf_counter()
                if counts is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["counts"] = counts(ret, bound.arguments)
                return ret
            finally:
                tracer.stack.pop()
                if name == "experiment.replicate":
                    tracer.replicate = None
                span["post"] = time.perf_counter()

        return traced

    def install(self) -> None:
        for name, (targets, counts) in TARGETS.items():
            for target in targets:
                module_name, attr = target.split(":")
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    owner = None
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None)
                if fn is None:
                    self.missing.append(target)
                    continue
                setattr(owner, leaf, self.wrap(name, fn, counts))


def main(argv: list[str]) -> int:
    out_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracecli.py SPANS_JSON RUN_ID -- ARGS...")
    from rigclust import cli

    tracer = Tracer(int(run_id))
    tracer.install()
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump({"spans": tracer.spans, "missing": tracer.missing,
                       "targets": {n: t for n, (t, _) in TARGETS.items()},
                       "exit_code": code}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
