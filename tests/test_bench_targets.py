"""The functions that the benchmark's tracer wraps must exist.

`bench/tracing.py` names nspec functions by module and attribute path;
a rename or deletion would only surface in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("label, module_name, path", _targets())
def test_traced_function_resolves(label, module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), label
