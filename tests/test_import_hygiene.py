"""Every name a module of the package imports is used in that module,
every third-party module it imports is a declared dependency, the
command line loads no click, and the package and pyproject.toml name the
same version."""
import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kgyukawa

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kgyukawa"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of source that no other node
    of it reads; ``from __future__`` imports bind none."""
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
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = ("import math\nimport numpy as np\nfrom .errors import DomainError, _finite\n"
              "np.zeros(_finite(1, 'x'))\n")
    assert unused_imports(source) == ["math (line 1)", "DomainError (line 3)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports of source outside the stdlib."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__"}


def test_every_third_party_import_is_a_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"]}
    assert third_party_imports("import numpy.linalg as la\nfrom scipy import linalg\n"
                               "import math\nfrom . import x\n") == {"numpy", "scipy"}
    used = set().union(*(third_party_imports(p.read_text(encoding="utf-8"))
                         for p in PACKAGE.glob("*.py")))
    assert used and used <= declared


def test_the_command_line_loads_no_click():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import kgyukawa.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert kgyukawa.__version__ == project["version"]
