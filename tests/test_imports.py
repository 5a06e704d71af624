"""Every name a `fairsaoml` module imports is used in that module, and every
function, class, method and property it defines is used somewhere in the package.
Running the CLI loads nothing beyond the standard library and numpy.

No linter ships with the test dependencies, so these checks walk each
module's syntax tree: an imported name counts as used when it appears as a
bare name anywhere in the code or inside a string annotation, and a defined
name counts as used when a bare name or an attribute of that name appears in
any module outside its own definition.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairsaoml

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


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods and properties of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def dead_names(sources: dict, exempt=frozenset()) -> list:
    """Defined names of `sources` (module name -> code) that no code outside
    their own definition refers to; dunders and `exempt` names are skipped."""
    trees = {module: ast.parse(code) for module, code in sources.items()}
    refs = [(module, n.lineno, n.id if isinstance(n, ast.Name) else n.attr)
            for module, tree in trees.items() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))]
    dead = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__") or name in exempt:
                continue
            if not any(ref == name and not (m == module and
                                            node.lineno <= line <= node.end_lineno)
                       for m, line, ref in refs):
                dead.append(f"{module}.{qualname} (line {node.lineno})")
    return sorted(dead)


def test_detects_dead_name():
    sources = {"a": ("def used():\n    return 1\n\ndef recursive(n):\n"
                     "    return recursive(n - 1)\n\nclass C:\n"
                     "    def __init__(self):\n        self.x = used()\n"
                     "    @property\n    def p(self):\n        return 1\n"),
               "b": "from a import C\nC().q\n"}
    # C is used by module b; p and recursive are referred to by nothing else
    assert dead_names(sources) == ["a.C.p (line 11)", "a.recursive (line 4)"]
    assert dead_names(sources, exempt={"p", "recursive"}) == []


def test_no_dead_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert dead_names(sources, exempt=set(fairsaoml.__all__)) == []


def test_cli_commands_load_only_stdlib_and_numpy(tmp_path):
    """`gen-data`, `run` and `report` on a tiny config load no third-party module
    other than numpy: start-up and peak memory pay for nothing else."""
    config, data, out = tmp_path / "c.json", tmp_path / "d.csv", tmp_path / "out"
    config.write_text(json.dumps({"scheme": "dgc", "reps": 1, "out": str(out), "stream": {
        "environments": [{"n_tasks": 2, "dim": 2, "boundary": [1.0, 0.0]}]}}))
    code = ("import sys; before = set(sys.modules); from fairsaoml.cli import main; "
            f"assert main(['gen-data', '--config', {str(config)!r}, '--out', {str(data)!r}]) == 0; "
            f"assert main(['run', '--config', {str(config)!r}]) == 0; "
            f"assert main(['report', '--artifacts', {str(out)!r}]) == 0; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert {"fairsaoml", "numpy"} <= loaded
    # numpy.random's Cython extensions register these two
    cython = {m for m in loaded if m.startswith("_cython_")} | {"cython_runtime"}
    assert loaded - set(sys.stdlib_module_names) - cython - {"numpy", "fairsaoml"} == set()
