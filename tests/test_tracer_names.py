"""Every function the benchmark's per-layer tracer wraps still exists, and
a traced CLI run still works.

perfbench/tracer.py wraps grothpoly functions by name and reads some of
their arguments, so a rename or a signature change under src/ would only
show when the benchmark runs with --trace 1.  In this process the tracer is
loaded by path and never installed, so no grothpoly function is wrapped; the
traced run happens in a subprocess.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


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


def traced_report(argv):
    """Run argv through traced_op.py, which installs the tracer and runs the
    CLI, and through the plain CLI; assert both exit 0 with the same stdout
    and return the tracer's report."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_op.py"), *argv],
        capture_output=True, text=True, env=env, timeout=300)
    plain = subprocess.run([sys.executable, "-m", "grothpoly.cli", *argv],
                           capture_output=True, text=True, env=env,
                           timeout=300)
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    marker = "@@perfbench-trace "
    last = traced.stderr.splitlines()[-1]
    assert last.startswith(marker)
    return json.loads(last[len(marker):])


def test_traced_run_matches_plain_cli():
    report = traced_report(["verify", "flagged", "--max-size", "2"])
    assert report["ring.det.calls"] > 0


def test_traced_run_counts_divisions():
    # the bialternants are the only callers of exact_divide
    report = traced_report(["verify", "G", "--max-size", "2"])
    assert report["ring.exact_divide.calls"] > 0
