"""The benchmark tracer wraps package functions by module attribute.

A refactor that drops or renames one of those attributes would make
``benchmarks/run.py --trace 1`` fail; this test fails first. The tracer's
source is only read, never changed.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_binding_resolves():
    bindings = runpy.run_path(str(TRACING))["BINDINGS"]
    assert bindings
    for module_name, attr, _span, _count in bindings:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
