"""Every name a module of the package imports is used in that module,
every public function and class the package defines has a caller in it
or a stated reason to stay, every third-party module it imports is a
declared dependency, the command line loads no click, and the package
and pyproject.toml name the same version."""
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


# Public names that stay without a caller in the package, and why.
UNCALLED_PUBLIC = {
    "map_to_nu": "acceptance criterion 7 imports and probes it",
    "derive_coefficients": "acceptance criterion 7 imports and probes it",
    "energy_relation_residual": "a perfbench per-layer name",
    "eigenvalue_k": "a perfbench per-layer name; acceptance criterion 7 probes it",
    "effective_ode_coefficient": "a perfbench per-layer name",
}


def uncalled_public(sources: dict[str, str]) -> list[str]:
    """The public top-level functions and classes defined in sources, a
    map of module name to source, that no module other than __init__
    refers to (as an ast.Name or ast.Attribute) outside their own
    definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()
             if name != "__init__"}
    defined = {node.name: node for tree in trees.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    referred = {}  # name -> the top-level statements that refer to it
    for tree in trees.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    referred.setdefault(name, set()).add(id(stmt))
    return [name for name, node in defined.items()
            if not referred.get(name, set()) - {id(node)}]


def test_checker_finds_an_uncalled_public_name():
    sources = {"a": "def used():\n    pass\n\ndef alone():\n    return alone()\n"
                    "class _Private:\n    pass\n",
               "b": "from .a import used\nx = used()\n",
               "__init__": "from .a import alone\nalone\n"}
    assert uncalled_public(sources) == ["alone"]


def test_every_public_name_has_a_caller_or_a_reason():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    uncalled = uncalled_public(sources)
    assert [name for name in uncalled if name not in UNCALLED_PUBLIC] == []
    # a name that gained a caller leaves the list
    assert [name for name in UNCALLED_PUBLIC if name not in uncalled] == []


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
