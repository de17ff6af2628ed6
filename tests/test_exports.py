"""The package root exports every name its callers import from it."""

import ast
import re
from pathlib import Path

import pytest

import cyclic_leibniz

ROOT = Path(__file__).resolve().parents[1]


def imported_names(source):
    """Names in ``from cyclic_leibniz import ...`` statements of the source."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "cyclic_leibniz"
        for alias in node.names
    }


@pytest.mark.parametrize(
    "caller",
    ["bench/workloads.py", "bench/worker.py", "bench/smoke_test.py", "README.md"],
)
def test_caller_imports_are_exported(caller):
    text = (ROOT / caller).read_text()
    if caller.endswith(".md"):
        text = "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))
    names = imported_names(text)
    assert names, f"{caller} imports nothing from cyclic_leibniz"
    assert names <= set(cyclic_leibniz.__all__)
    assert all(hasattr(cyclic_leibniz, name) for name in names)
