"""The package's module graph: two pipelines that share only the model.

The sampler and the spectrum code read nothing of the limit theory, and the
limit theory reads nothing of the simulation side.  The edges are read from
the source with ``ast``, so imports under ``if TYPE_CHECKING:`` or inside a
function count too; ``rigclust/__init__`` imports every module, so which
modules are loaded says nothing about who imports whom.
"""

import ast
from pathlib import Path

import pytest

import rigclust

PACKAGE = Path(rigclust.__file__).parent


def sibling_imports(source: str) -> set[str]:
    """Sibling modules that a module of the package imports anywhere in its
    ``source``: ``from .x import ...``, ``from . import x`` and
    ``from rigclust.x import ...``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module:
            found.add(node.module.split(".")[0])
        elif node.level == 1:
            found.update(alias.name for alias in node.names
                         if (PACKAGE / f"{alias.name}.py").is_file())
        elif node.module and node.module.startswith("rigclust."):
            found.add(node.module.split(".")[1])
    return found


def package_imports(module: str) -> set[str]:
    return sibling_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_reader_sees_every_kind_of_import():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from . import __version__, theory\n"
        "from .weights import Pareto\n"
        "if TYPE_CHECKING:\n"
        "    from .graphgen import ProjectedGraph\n"
        "def f():\n"
        "    from rigclust.spectrum import pool\n"
    )
    assert sibling_imports(source) == {"theory", "weights", "graphgen", "spectrum"}


@pytest.mark.parametrize("module,allowed", [
    ("graphgen", {"weights"}),
    ("spectrum", {"graphgen"}),
    ("mixedpoisson", {"weights"}),
])
def test_module_imports_only(module, allowed):
    assert package_imports(module) == allowed


@pytest.mark.parametrize("module", ["weights", "mixedpoisson", "stoppedsum", "theory"])
def test_theory_side_imports_no_simulation_side(module):
    simulation_side = {"graphgen", "spectrum", "experiment", "cli"}
    assert package_imports(module) & simulation_side == set()
