"""Every function the benchmark's per-layer tracer wraps still exists.

perfbench/tracer.py wraps grothpoly functions by name, so a rename under
src/ would only show when the benchmark runs with --trace 1.  The tracer is
loaded by path and never installed, so no grothpoly function is wrapped.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def grothpoly_module(name):
    return importlib.import_module(f"grothpoly.{name}")


def test_span_group_functions_resolve(tracer):
    for group, (module, names) in tracer.SPAN_GROUPS.items():
        for name in names:
            fn = getattr(grothpoly_module(module), name, None)
            assert inspect.isfunction(fn), (group, module, name)
            assert not inspect.isgeneratorfunction(fn), (group, name)


def test_traced_generators_resolve(tracer):
    module, names = tracer.GENERATORS
    for name in names:
        fn = getattr(grothpoly_module(module), name, None)
        assert inspect.isgeneratorfunction(fn), (module, name)


def test_traced_methods_resolve(tracer):
    wrapped = {module for module, _ in tracer.SPAN_GROUPS.values()}
    assert set(tracer.MODULES) >= wrapped | {tracer.GENERATORS[0]}
    poly = grothpoly_module("ring").TruncPoly
    for name in ("__mul__", "__rmul__", "specialize"):
        assert inspect.isfunction(poly.__dict__.get(name)), name
    sweep = grothpoly_module("grothendieck").FlagSweep
    assert inspect.isfunction(sweep.__dict__.get("value"))
