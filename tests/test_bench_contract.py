"""What the benchmark's tracer (``bench/tracing.py``) needs of the package:
every function its table names resolves in its module, and the enumerator
yields one item per connected graph, which is how the tracer counts
``graphs.enumerate.graphs``.  A package change that would break
``python3 -m pytest bench`` fails here first.  The tracer is imported as
it is, from the benchmark's directory."""

import importlib
import sys
from pathlib import Path

import pytest

import randic.cli  # noqa: F401  (loads every randic module the tracer patches)
import randic.graphs
from randic.graphs import edge_mask_count

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
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
