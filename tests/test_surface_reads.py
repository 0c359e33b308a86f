"""No caller outside `surface.py` reads a whole-surface container.

An AST scan of the package and the scripts.  Reading `tris` or `adj`
builds every planned sector of a grown surface, and reading a vertex
table (`degree`, `ring_of`, `rings`, `boundary`, `frontier`) makes all
five for the whole surface.  A count must come from `n_triangles()` or
`n_rings()`, a neighbour from `neighbor`, a ring from `ring_cycle` or
`birth_ring`, and the interior vertices of degree other than 6 from
`curved_vertices`, which read the ring plans and build only what they
touch.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [p for p in sorted((ROOT / "src" / "smfgeo").glob("*.py"))
           if p.name != "surface.py"] + sorted((ROOT / "scripts").glob("*.py"))


WHOLE = ("tris", "adj", "degree", "ring_of", "rings", "boundary", "frontier")
# The names that hold a surface in the package and the scripts, read as a
# variable (`surf.adj`) or an attribute (`self.surf.adj`).  Other objects
# carry fields of these names too: a `_Builder` (`b.degree`), parsed
# arguments (`args.rings`), an end trace (`res.rings`), a band (`band.tris`).
SURFACE_NAMES = {"surf", "surface", "s", "s2", "flat", "semi", "silo"}


def whole_reads(tree):
    """(line, container) of every read of a whole-surface container off a
    name that holds a surface."""
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in WHOLE \
                and isinstance(node.ctx, ast.Load):
            owner = node.value
            name = getattr(owner, "id", None) or getattr(owner, "attr", None)
            if name in SURFACE_NAMES:
                reads.append((node.lineno, node.attr))
    return sorted(reads)


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_whole_surface_read(path):
    assert whole_reads(_parse(path)) == []


def test_scan_finds_each_whole_surface_read():
    tree = ast.parse("a = surf.tris[t]\n"
                     "b = surf.adj.get((t, e))\n"
                     "c = s.degree[v]\n"
                     "d = self.surf.ring_of[v]\n"
                     "e = surface.rings[2]\n"
                     "f = s2.boundary\n"
                     "g = v in silo.frontier\n"
                     "h = sorted(semi.degree.items())\n")
    assert whole_reads(tree) == [
        (1, "tris"), (2, "adj"), (3, "degree"), (4, "ring_of"), (5, "rings"),
        (6, "boundary"), (7, "frontier"), (8, "degree")]


def test_scan_ignores_fields_of_other_objects():
    tree = ast.parse("b.degree[v] = 0\n"
                     "x = b.degree.get(v)\n"
                     "b.rings = [cycle]\n"
                     "for k in args.rings: pass\n"
                     "r = res.rings\n"
                     "band = self.tris = set()\n"
                     "n = len(band.tris)\n"
                     "m = surf.n_triangles() + surf.n_rings()\n"
                     "c = surf.ring_cycle(2)\n")
    assert whole_reads(tree) == []
