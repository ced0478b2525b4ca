"""The benchmark's tracer binds to functions by name in their home modules;
a rename or an inlined function would break `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import bcp.oracle
from bcp.graph import WeightedGraph

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_their_home_modules():
    tracing = load_tracing()
    for layer, names in tracing.TRACED.items():
        home = importlib.import_module(f"bcp.{layer}")
        for name in names:
            assert callable(getattr(home, name, None)), f"bcp.{layer}.{name}"
    assert callable(bcp.oracle.enumerate_connected_kpartitions)
    assert isinstance(WeightedGraph.__dict__.get("from_edges"), classmethod)
