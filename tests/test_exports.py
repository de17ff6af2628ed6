"""The package root exports exactly the names its callers import from it."""

import ast
import re
from pathlib import Path

import pytest

import cyclic_leibniz

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ["bench/workloads.py", "bench/worker.py", "bench/smoke_test.py", "README.md"]


def imported_names(caller):
    """Names in the caller's ``from cyclic_leibniz import ...`` statements."""
    text = (ROOT / caller).read_text()
    if caller.endswith(".md"):
        text = "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))
    return {
        alias.name
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom) and node.module == "cyclic_leibniz"
        for alias in node.names
    }


@pytest.mark.parametrize("caller", CALLERS)
def test_caller_imports_are_exported(caller):
    names = imported_names(caller)
    assert names, f"{caller} imports nothing from cyclic_leibniz"
    assert names <= set(cyclic_leibniz.__all__)
    assert all(hasattr(cyclic_leibniz, name) for name in names)


def test_every_export_is_imported_by_a_caller():
    imported = set().union(*map(imported_names, CALLERS))
    assert set(cyclic_leibniz.__all__) - {"__version__"} <= imported
