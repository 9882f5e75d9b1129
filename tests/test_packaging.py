"""Packaging: every module the package imports is declared."""

import ast
import re
import sys
from pathlib import Path

import pytest

import twdp

tomllib = pytest.importorskip("tomllib")

ROOT = Path(twdp.__file__).resolve().parents[2]


def imported_modules(path: Path) -> set:
    """The top-level names of the absolute imports of one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imports_are_stdlib_twdp_or_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in deps}
    allowed = set(sys.stdlib_module_names) | {"twdp"} | declared
    sources = sorted((ROOT / "src" / "twdp").glob("*.py"))
    assert sources
    for path in sources:
        assert imported_modules(path) <= allowed, path.name
