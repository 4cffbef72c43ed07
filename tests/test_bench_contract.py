"""What the benchmark's tracer (``bench/tracing.py``) needs of the package:
every function its table names resolves in its module, and the enumerator
yields one item per connected graph, which is how the tracer counts
``graphs.enumerate.graphs``.  A package change that would break
``python3 -m pytest bench`` fails here first.  The tracer is imported as
it is, from the benchmark's directory.

It also pins the package's dead names: the top-level names of
``src/randic`` that no package code loads and no ``__all__`` exports.
Only the tracer's table keeps them, so a new dead helper fails here, and
deleting one shrinks the pinned set."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import randic.cli  # noqa: F401  (loads every randic module the tracer patches)
import randic.graphs
from randic.graphs import edge_mask_count

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
PACKAGE = Path(randic.graphs.__file__).parent
A001349 = {2: 1, 3: 4, 4: 38, 5: 728}  # labeled connected graphs by order


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(BENCH)


def test_every_traced_function_resolves(tracing):
    unresolved = [
        f"{module}.{name}"
        for module, table in tracing.LAYER_FUNCTIONS.items()
        for name in table
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert unresolved == []


@pytest.mark.parametrize("n", sorted(A001349))
def test_enumerator_yields_one_item_per_graph(tracing, n):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        items = list(randic.graphs._connected_masks(n, 0, edge_mask_count(n)))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert len(items) == tracer.enumerated == A001349[n]
    assert tracer.masks == edge_mask_count(n)


def dead_names() -> set[str]:
    """Top-level defs, classes and assignments of the package's modules
    that no module loads, by name or as an attribute, and no ``__all__``
    lists; dunder names aside."""
    defined, loaded = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                defined |= names
                if "__all__" in names:
                    loaded.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id if isinstance(node, ast.Name) else node.attr)
    return {name for name in defined - loaded if not name.startswith("__")}


def test_dead_names_are_the_traced_ones(tracing):
    dead = dead_names()
    assert dead == {
        "_scan_one",
        "charpoly_from_eigenvalues",
        "substitute_quadratic",
        "coefficient_residual",
        "product_over_roots",
    }
    traced = {name for table in tracing.LAYER_FUNCTIONS.values() for name in table}
    assert dead <= traced
