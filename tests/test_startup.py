"""Start-up guards: importing nspec and its CLI loads no `dataclasses`
(with `inspect` and the rest it pulls in, it cost a fresh process more
than its own work), no module under `src/nspec` imports it, and every
name the package exports exists."""

import ast
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
