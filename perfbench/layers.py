"""Per-layer metrics from the spans of one traced CLI process.

A span's self time is its duration minus the durations (with bookkeeping) of
its direct children, so self times over all spans add up to the time spent
inside traced functions.  Per-layer ``*_s`` metrics are self times summed
over the process; counts are summed, or maximised where the name says so.
"""

from __future__ import annotations

import statistics

#: name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "graphgen.sample_s": "s",
    "graphgen.links": "count",
    "graphgen.links_per_s": "1/s",
    "graphgen.project_s": "s",
    "graphgen.candidate_pairs": "count",
    "graphgen.edges": "count",
    "graphgen.edge_yield": "ratio",
    "graphgen.graph_from_edges_s": "s",
    "spectrum.triangles_s": "s",
    "spectrum.triangles": "count",
    "spectrum.wedges": "count",
    "spectrum.spectrum_s": "s",
    "spectrum.read_s": "s",
    "spectrum.lines_read": "count",
    "spectrum.pool_s": "s",
    "spectrum.write_s": "s",
    "mixedpoisson.pmf_s": "s",
    "mixedpoisson.pmf_calls": "count",
    "mixedpoisson.grid_len": "count",
    "mixedpoisson.tail_mass_max": "prob",
    "stoppedsum.stopped_sum_s": "s",
    "stoppedsum.count_support": "count",
    "stoppedsum.grid_len": "count",
    "stoppedsum.conv_ops_computed": "count",
    "stoppedsum.convolve_s": "s",
    "theory.laws_s": "s",
    "theory.laws_total_s": "s",
    "theory.laws_builds": "count",
    "theory.curve_s": "s",
    "theory.rows": "count",
    "theory.asymptotic_rows": "count",
    "theory.cpred_width_max": "prob",
    "experiment.replicate_s_p50": "s",
    "experiment.replicate_s_max": "s",
    "experiment.run_s": "s",
    "experiment.fit_s": "s",
    "experiment.write_s": "s",
    "experiment.replicates_failed": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
    "trace.spans": "count",
    "trace.uncalled_targets": "count",
}

#: per-layer ``*_s`` self-time metric -> the span names it sums.
SELF_TIMES = {
    "graphgen.sample_s": ("graphgen.sample",),
    "graphgen.project_s": ("graphgen.project",),
    "graphgen.graph_from_edges_s": ("graphgen.graph_from_edges",),
    "spectrum.triangles_s": ("spectrum.triangles",),
    "spectrum.spectrum_s": ("spectrum.spectrum",),
    "spectrum.read_s": ("spectrum.read",),
    "spectrum.pool_s": ("spectrum.pool",),
    "spectrum.write_s": ("spectrum.write",),
    "mixedpoisson.pmf_s": ("mixedpoisson.pmf", "mixedpoisson.offspring"),
    "stoppedsum.stopped_sum_s": ("stoppedsum.stopped_sum",),
    "stoppedsum.convolve_s": ("stoppedsum.convolve",),
    "theory.laws_s": ("theory.laws",),
    "theory.curve_s": ("theory.curve",),
    "experiment.run_s": ("experiment.run",),
    "experiment.fit_s": ("experiment.fit",),
    "experiment.write_s": ("experiment.write",),
}


def self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["post"] - s["start"]
    return own


def _total(spans, name, key):
    return sum(s.get("counts", {}).get(key, 0) for s in spans if s["name"] == name)


def _largest(spans, name, key):
    return max((s.get("counts", {}).get(key, 0) for s in spans if s["name"] == name),
               default=0)


def process_metrics(trace: dict) -> dict:
    """Per-layer values of one traced process (times in seconds).

    ``trace`` is what tracecli.py wrote.  Functions that were never called
    contribute zeros, so a call moved by a later change shows as a zero here
    rather than as a failure.
    """
    spans = trace["spans"]
    own = self_times(spans)
    out = {metric: sum(t for s, t in zip(spans, own) if s["name"] in names)
           for metric, names in SELF_TIMES.items()}
    replicates = [s["end"] - s["start"] for s in spans
                  if s["name"] == "experiment.replicate"]
    laws = [s["end"] - s["start"] for s in spans if s["name"] == "theory.laws"]
    links = _total(spans, "graphgen.sample", "links")
    pairs = _total(spans, "graphgen.project", "candidate_pairs")
    edges = _total(spans, "graphgen.project", "edges")
    pmf = ("mixedpoisson.pmf", "mixedpoisson.offspring")
    out.update({
        "graphgen.links": links,
        "graphgen.links_per_s": links / out["graphgen.sample_s"] if links else 0.0,
        "graphgen.candidate_pairs": pairs,
        "graphgen.edges": edges,
        "graphgen.edge_yield": edges / pairs if pairs else 0.0,
        "spectrum.triangles": _total(spans, "spectrum.triangles", "triangles"),
        "spectrum.wedges": _total(spans, "spectrum.spectrum", "wedges"),
        "spectrum.lines_read": _total(spans, "spectrum.read", "lines_read"),
        "mixedpoisson.pmf_calls": sum(1 for s in spans if s["name"] == "mixedpoisson.pmf"),
        "mixedpoisson.grid_len": max(_largest(spans, n, "grid_len") for n in pmf),
        "mixedpoisson.tail_mass_max": max(_largest(spans, n, "tail_mass") for n in pmf),
        "stoppedsum.count_support": _total(spans, "stoppedsum.stopped_sum", "count_support"),
        "stoppedsum.grid_len": _largest(spans, "stoppedsum.stopped_sum", "grid_len"),
        "stoppedsum.conv_ops_computed": _total(spans, "stoppedsum.stopped_sum",
                                               "conv_ops_computed"),
        "theory.laws_total_s": sum(laws),
        "theory.laws_builds": len(laws),
        "theory.rows": _total(spans, "theory.curve", "rows"),
        "theory.asymptotic_rows": _total(spans, "theory.curve", "asymptotic_rows"),
        "theory.cpred_width_max": _largest(spans, "theory.curve", "cpred_width_max"),
        "experiment.replicate_s_p50": statistics.median(replicates) if replicates else 0.0,
        "experiment.replicate_s_max": max(replicates, default=0.0),
        "experiment.replicates_failed": _total(spans, "experiment.run", "replicates_failed"),
        "trace.spans": len(spans),
        "trace.uncalled_targets": len(uncalled(trace)),
        "trace.self_s": sum(own),
    })
    return out


def uncalled(trace: dict) -> list[str]:
    """Traced span names with zero calls, plus patch targets that are gone."""
    called = {s["name"] for s in trace["spans"]}
    return sorted(set(trace["targets"]) - called) + trace["missing"]
