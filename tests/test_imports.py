"""Every imported name is used in its module or re-exported through __all__,
and every __all__ lists exactly its module's public top-level names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src/kerdock", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_sees_unused_and_exported_names():
    source = "import os\nfrom a.b import c, d as e\nfrom f import g\n__all__ = ['g']\nprint(e)\n"
    assert unused_imports(source) == [(1, "os"), (2, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def public_names(path: Path):
    """Non-underscore names a module binds at top level: definitions and
    assignments, and in a package __init__ its imports too (re-exports)."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
            names |= {alias.asname or alias.name for alias in node.names}
    return {name for name in names if not name.startswith("_")}


def declared_all(path: Path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


EXPORTING = [p for p in FILES if p.parent.name == "kerdock" and declared_all(p) is not None]


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.name)
def test_all_lists_exactly_the_public_names(path):
    exported = declared_all(path)
    assert len(exported) == len(set(exported))
    assert set(exported) == public_names(path)
