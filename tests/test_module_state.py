"""No module in src/kerdock rebinds module-level state: there is no `global` statement.

State that outlives a call belongs to an object the caller creates; a module
global that code mutates is shared by every caller in the process.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src/kerdock").rglob("*.py"))


def global_statements(source: str):
    """(line, names) of every `global` statement in the source."""
    return [
        (node.lineno, node.names)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
    ]


def test_the_scan_sees_global_statements():
    source = (
        "X = None\ndef f():\n    global X\n    X = 1\n"
        "def g():\n    y = 0\n    def h():\n        nonlocal y\n"
    )
    assert global_statements(source) == [(3, ["X"])]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_global_statements(path):
    assert global_statements(path.read_text()) == []
