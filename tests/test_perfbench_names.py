"""perfbench's tracer patches names of the program by string.

A rename in ``src/`` would otherwise only surface when the benchmark
runs (the tracer raises on a missing attribute). This parses the name
tables of ``perfbench/tracer.py``, without importing or running it, and
checks each still resolves.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.engine.store import ResultStore
from repro.model.graph import WeightedGraph

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _name_tables():
    """Module-level literal assignments of the tracer: name → value."""
    tables = {}
    for node in ast.parse(TRACER_PATH.read_text()).body:
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                try:
                    tables[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    return tables


TABLES = _name_tables()


@pytest.mark.parametrize(
    "module,function", [(m, f) for m, f, _ in TABLES["FUNCTIONS"]]
)
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


@pytest.mark.parametrize("method", TABLES["ORACLE_METHODS"])
def test_traced_oracle_method_resolves(method):
    assert callable(WeightedGraph.__dict__.get(method))


@pytest.mark.parametrize("method", TABLES["STORE_METHODS"])
def test_traced_store_method_resolves(method):
    assert callable(ResultStore.__dict__.get(method))
