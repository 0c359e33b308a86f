"""No caller outside `surface.py` counts triangles with `len(<expr>.tris)`.

An AST scan of the package and the scripts.  Reading `tris` builds every
planned sector of a grown surface, so a count must come from
`n_triangles()`, which reads the ring plans and builds nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [p for p in sorted((ROOT / "src" / "smfgeo").glob("*.py"))
           if p.name != "surface.py"] + sorted((ROOT / "scripts").glob("*.py"))


def tris_lengths(tree):
    """Lines of every `len(<expr>.tris)` call in the module."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "len"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "tris"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_triangle_count_through_tris(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert tris_lengths(tree) == []


def test_scan_finds_a_triangle_count_through_tris():
    tree = ast.parse("n = len(surf.tris)\nm = len(tris)\n"
                     "k = surf.n_triangles()\nb = len(f(x).tris)\n")
    assert tris_lengths(tree) == [1, 4]
