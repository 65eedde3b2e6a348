"""The public surface: `ictasim.__all__` and what the demos import from it."""

import ast
from pathlib import Path

import ictasim

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_public_names_resolve_and_cover_demo_imports():
    assert [name for name in ictasim.__all__ if not hasattr(ictasim, name)] == []
    imported = set()
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "ictasim":
                imported.update((path.name, alias.name) for alias in node.names)
    assert imported
    assert sorted(item for item in imported if item[1] not in ictasim.__all__) == []
