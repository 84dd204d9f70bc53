"""The benchmark tracer's patch targets all name live package attributes."""

import importlib
import importlib.util
from pathlib import Path

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
