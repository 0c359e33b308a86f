"""No caller outside `surface.py` counts triangles with `len(<expr>.tris)`
or rings with `len(<expr>.rings)`.

An AST scan of the package and the scripts.  Reading `tris` builds every
planned sector of a grown surface, and reading `rings` makes the vertex
tables of the whole surface, so a count must come from `n_triangles()`
or `n_rings()`, which read the ring plans and build nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [p for p in sorted((ROOT / "src" / "smfgeo").glob("*.py"))
           if p.name != "surface.py"] + sorted((ROOT / "scripts").glob("*.py"))


def lengths_of(tree, attr):
    """Lines of every `len(<expr>.<attr>)` call in the module."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "len"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == attr]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_triangle_count_through_tris(path):
    assert lengths_of(_parse(path), "tris") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_ring_count_through_rings(path):
    assert lengths_of(_parse(path), "rings") == []


def test_scan_finds_a_triangle_count_through_tris():
    tree = ast.parse("n = len(surf.tris)\nm = len(tris)\n"
                     "k = surf.n_triangles()\nb = len(f(x).tris)\n")
    assert lengths_of(tree, "tris") == [1, 4]


def test_scan_finds_a_ring_count_through_rings():
    tree = ast.parse("n = len(surf.rings)\nm = len(rings)\n"
                     "k = surf.n_rings()\nc = surf.rings[2]\n"
                     "b = len(f(x).rings)\nt = len(surf.tris)\n")
    assert lengths_of(tree, "rings") == [1, 5]
