"""The public surface: `ictasim.__all__`, what the demos import from it, and
the module attributes the benchmark tracer wraps."""

import ast
import importlib
from pathlib import Path

import ictasim

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
TRACER = ROOT / "perfbench" / "tracer.py"


def test_public_names_resolve_and_cover_demo_imports():
    assert [name for name in ictasim.__all__ if not hasattr(ictasim, name)] == []
    imported = set()
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "ictasim":
                imported.update((path.name, alias.name) for alias in node.names)
    assert imported
    assert sorted(item for item in imported if item[1] not in ictasim.__all__) == []


def test_traced_names_resolve_to_callables():
    # The tracer replaces (module, attribute) pairs listed in its WRAPS; a
    # renamed or removed attribute would stop a traced benchmark run.
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    wraps = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPS"]
    )
    assert wraps
    missing = [
        (module, attr)
        for module, attr, *_ in wraps
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
