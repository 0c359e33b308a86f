"""Only `from_triangles` and `grow_frontier` make a Triangulation.

An AST scan of the package.  A surface is built in two ways:
`surface.from_triangles` pairs the edges of a triangle list into a
surface with no ring plan, and `surface.grow_frontier` adds ring plans to
a surface.  No other code in the package calls the constructor, so every
surface has its adjacency, degrees and boundary worked out by one of the
two.  Tests still build surfaces directly, for instance to hand
`validate` a broken one.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "smfgeo").glob("*.py"))
# The module-level functions that may call the constructor.
BUILDERS = {"from_triangles", "grow_frontier"}


def _is_construction(node):
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return getattr(f, "id", None) == "Triangulation" \
        or getattr(f, "attr", None) == "Triangulation"


def constructions(tree):
    """Lines of every `Triangulation(...)` call outside the module-level
    functions named in `BUILDERS`."""
    return sorted(node.lineno for top in tree.body
                  if not (isinstance(top, ast.FunctionDef)
                          and top.name in BUILDERS)
                  for node in ast.walk(top) if _is_construction(node))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_surface_builders_make_a_triangulation(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert constructions(tree) == []


def test_scan_finds_each_triangulation_made_elsewhere():
    tree = ast.parse("def from_triangles(t):\n"
                     "    return Triangulation(t)\n"
                     "def grow_frontier(s):\n"
                     "    return Triangulation(s)\n"
                     "def seed():\n"
                     "    return Triangulation([])\n"
                     "s = surface.Triangulation([])\n"
                     "class Builder:\n"
                     "    def from_triangles(self):\n"
                     "        return Triangulation(self.tris)\n"
                     "ok = isinstance(s, Triangulation)\n")
    assert constructions(tree) == [6, 7, 10]
