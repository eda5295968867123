"""Checks on the package source that need no linter: every import is used."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "atlas"


def unused_imports(source: str) -> list[str]:
    """'line: name' for each imported name the module never reads.

    A name listed in a module-level __all__ counts as read, and so does one
    imported on a line that carries '# noqa: F401'.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_scan_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from dataclasses import dataclass, field, replace\n"
        "from typing import Sequence  # noqa: F401\n"
        "from json import dumps\n"
        "import numpy as np\n"
        "__all__ = ['dumps']\n"
        "def f(x: np.ndarray) -> field:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["2: sys", "3: dataclass", "3: replace"]
