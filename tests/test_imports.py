"""Every imported name in the package and its tests is used, and the
package does not import `dataclasses`.

An AST scan: a name bound by an import statement must be read somewhere
in the same module, as a plain name, as the base of an attribute, or
inside a string annotation.  `from __future__` imports are exempt, and
so are the re-exports a package `__init__.py` names in `__all__`.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "smfgeo").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def imported_names(tree):
    """{bound name: line} for every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotation_names(node):
    """Names read by a string annotation, such as "Isometry"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return used_names(ast.parse(node.value, mode="eval"))
        except SyntaxError:
            return set()
    return set()


def used_names(tree):
    """Every name the module reads."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return used


def exported_names(tree):
    """The names listed in a module-level `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    if path.name == "__init__.py":
        used |= exported_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n"
                     "def f(x: 'Fraction') -> int:\n    return lcm(x)\n")
    names = imported_names(tree)
    assert sorted(n for n in names if n not in used_names(tree)) == ["gcd", "os"]
    assert "Fraction" in used_names(tree)


def imported_modules(tree):
    """The module named by every import statement."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
    return out


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "smfgeo").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_does_not_import_dataclasses(path):
    # `dataclasses` pulls in `inspect`, and its decorators run at import:
    # together about 30 ms of every CLI command's cold start.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert "dataclasses" not in imported_modules(tree)


def test_fresh_import_leaves_dataclasses_out():
    # -S: no site hooks, so the check sees what the package imports.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import smfgeo.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_fresh_import_leaves_hashlib_out():
    # `hashlib` loads OpenSSL's `_hashlib`, which only `content_hash`
    # needs; it imports it on its first call.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import smfgeo; "
            "print(sorted({'hashlib', '_hashlib'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
