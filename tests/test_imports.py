"""Every name a `fairsaoml` module imports is used in that module.

No linter ships with the test dependencies, so this check walks each
module's syntax tree: an imported name counts as used when it appears as a
bare name anywhere in the code or inside a string annotation.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fairsaoml"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _names(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    used = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        annotations = ([node.returns] if isinstance(node, ast.FunctionDef) else
                       [node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign)) else [])
        for ann in filter(None, annotations):
            # forward references such as -> "TaskBatch"
            for const in ast.walk(ann):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    used |= _names(ast.parse(const.value, mode="eval"))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detects_unused_import():
    source = ("import os\nimport numpy as np\nfrom typing import List, Dict\n"
              "def f(x: 'List[int]') -> None:\n    return np.sum(x)\n")
    assert unused_imports(source) == ["Dict (line 3)", "os (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
