"""Start-up guards: importing nspec and its CLI loads no `dataclasses`
(with `inspect` and the rest it pulls in, it cost a fresh process more
than its own work), no module under `src/nspec` imports it, every name
the package exports exists, and every exported name is one that the
package itself reads."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import nspec

SRC = Path(__file__).parent.parent / "src"


def test_a_fresh_interpreter_imports_nspec_and_its_cli_without_dataclasses():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import nspec; "
            "import nspec.cli; print('dataclasses' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["False"]


def test_no_module_imports_dataclasses():
    offenders = []
    for path in sorted((SRC / "nspec").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(str(path.relative_to(SRC)))
    assert offenders == []


def test_every_exported_name_exists():
    """`from nspec import *` raises on a name in `__all__` that the
    package lacks, and nothing else would notice it."""
    assert [name for name in nspec.__all__ if not hasattr(nspec, name)] == []
    assert len(set(nspec.__all__)) == len(nspec.__all__)


# Exported functions that no module of the package reads, kept because
# `bench/tracing.py` wraps them by name.
TRACED_ONLY = {"compose", "linear_unify"}
TRACING = SRC.parent / "bench" / "tracing.py"


def names_read(path):
    """The names and attribute names that a module's code reads."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_every_exported_name_is_read_by_the_package():
    """The public surface is what the commands run: each name in
    `__all__` is read by a module other than `__init__.py`, is wrapped
    by the bench's tracer, or belongs to `nspec.oracle`, the brute-force
    reference.  A function that only tests call belongs in the tests."""
    read = set().union(*(names_read(path)
                         for path in sorted((SRC / "nspec").glob("*.py"))
                         if path.name != "__init__.py"))
    unread = [name for name in nspec.__all__
              if name not in read and name not in TRACED_ONLY
              and getattr(getattr(nspec, name), "__module__", None) != "nspec.oracle"]
    assert unread == []


def test_every_traced_only_name_is_wrapped_by_the_tracer():
    """An exemption outlives its reason once the tracer stops wrapping
    the function, or once the function is gone."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = {(module, path) for _, module, path in tracing.TARGETS}
    assert {(getattr(nspec, name).__module__, name) for name in TRACED_ONLY} <= wrapped
