"""Checks that need no linter: every import of the package and of the tests
is used, the package's runtime dependencies are the third-party modules it
imports, and the benchmark harness still finds the names it hooks."""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

from atlas.server import MapBackend, MapServer

from helpers import two_session_map

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "atlas"


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


@pytest.mark.parametrize("path", sorted((ROOT / "tests").glob("*.py")), ids=lambda p: p.name)
def test_tests_have_no_unused_import(path):
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


def third_party_imports(source: str) -> set[str]:
    """The top-level modules a source imports anywhere, function bodies
    included, leaving out the standard library and relative imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - sys.stdlib_module_names


def test_runtime_dependencies_are_the_third_party_imports():
    assert third_party_imports(
        "import os, numpy.linalg\nfrom . import x\ndef f():\n    from scipy import stats\n"
    ) == {"numpy", "scipy"}
    dependencies = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", dep)[0].lower().replace("-", "_") for dep in dependencies}
    imported = set().union(*(third_party_imports(path.read_text()) for path in SOURCE.glob("*.py")))
    assert imported - {SOURCE.name} == declared


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))


def test_benchmark_wraps_and_restores_every_layer_name(perfbench):
    import layers
    from tracer import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)  # KeyError if a wrapped name is gone
    finally:
        wrong = tracer.restore()  # the names installed so far, unwrapped either way
    assert wrong == []


def test_benchmark_fleet_client_tallies_what_the_close_reply_charges(perfbench):
    import workloads

    with MapServer(MapBackend(two_session_map())) as server:
        client = workloads._timed_client_class()(*server.address)
        try:
            client.open_session("class_ratio@0.5", sensor_range=50.0)
            selected = client.query([0.0, 0.0, 0.0]).landmark_ids
            assert len(selected) > 0
            client.report(selected[:1])
            ledger = client.close_session()["ledger"]
        finally:
            client.close_transport()
    assert client.tally == ledger
    assert ledger["queries"] == 1 and ledger["landmarks_sent"] == len(selected)
    assert client.requests == 4
