"""The benchmark tracer's patch targets and counts fit the live package."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from rigclust import ModelParams, Pareto, project, sample_bipartite

TRACECLI = Path(__file__).resolve().parent.parent / "perfbench" / "tracecli.py"


def load_tracecli():
    spec = importlib.util.spec_from_file_location("tracecli", TRACECLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(target):
    """The object at ``module:attribute[.method]``, or None."""
    module_name, attr = target.split(":")
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_patch_target_resolves():
    # A renamed or moved function would otherwise show up only as an uncalled
    # span in a traced benchmark run.
    targets = [t for names, _ in load_tracecli().TARGETS.values() for t in names]
    assert targets
    missing = [t for t in targets if not callable(resolve(t))]
    assert missing == []


def test_sample_and_project_counts_read_a_real_sample():
    # The counts of the sampler and projection spans read the links of a
    # real sample, so a change of its layout shows here, not as a failed
    # traced benchmark run.
    tracecli = load_tracecli()
    params = ModelParams(200, 150, 1.0, Pareto(1, 7), Pareto(1, 6))
    sample = sample_bipartite(params, 5, "fast")
    graph = project(sample)
    sizes = np.diff(sample.indptr)
    assert tracecli._sample_counts(sample, {}) == {"links": sample.actors.size}
    counts = tracecli._project_counts(graph, {"sample": sample})
    assert counts["candidate_pairs"] == int((sizes * (sizes - 1) // 2).sum()) > 0
    assert counts["edges"] == graph.n_edges
