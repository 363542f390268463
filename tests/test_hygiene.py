"""Static checks on the package source that need no linter."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cgoplane"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
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
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_detector_sees_unused_and_used_names():
    src = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
           "from typing import Callable, Sequence\n"
           "def f(g: Callable) -> None:\n    np.zeros(1)\n")
    assert unused_imports(src) == ["Sequence (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def json_calls_allowing_nan(source: str) -> list[int]:
    """Lines of json.dump/json.dumps calls that do not pass allow_nan=False."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                and node.func.attr in ("dump", "dumps")):
            continue
        if not any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                   and k.value.value is False for k in node.keywords):
            lines.append(node.lineno)
    return lines


def test_detector_sees_json_calls_allowing_nan():
    src = ("import json\njson.dumps({})\njson.dump({}, fh, allow_nan=False)\n"
           "json.dumps({}, allow_nan=True)\njson.loads('1')\n")
    assert json_calls_allowing_nan(src) == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_json_output_refuses_nan(path):
    # JSON has no NaN or Infinity; Python's default writes them anyway
    assert json_calls_allowing_nan(path.read_text()) == []
