"""Only `validate` and `n_vertices` read a whole-surface view.

An AST scan of the package and the scripts.  A Triangulation stores its
base and its ring plans; `tris`, `adj`, `degree`, `ring_of`, `rings`,
`boundary` and `frontier` are views of them, made on first read and
kept.  Reading `tris` makes the vertices of every planned triangle of a
grown surface, reading `adj` works out every neighbour, and reading a
vertex view makes that table for the whole surface.  A count must come
from `n_triangles()` or `n_rings()`, a neighbour from `neighbor`, a ring
from `ring_cycle` or `birth_ring`, and the interior vertices of degree
other than 6 from `curved_vertices`, which read the ring plans and make
only what they touch.  Inside `surface.py` the same holds for
`Triangulation`'s own methods: outside the view definitions, `validate`
and `n_vertices`, they read the base fields (`_base_degree`, ...) and
the plans, not `self.<view>`.  Outside `surface.py` no module or script
uses a private field (`_tris`, `_plans`, ...) of a surface at all.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SURFACE = ROOT / "src" / "smfgeo" / "surface.py"
MODULES = [p for p in sorted((ROOT / "src" / "smfgeo").glob("*.py"))
           if p != SURFACE] + sorted((ROOT / "scripts").glob("*.py"))


WHOLE = ("tris", "adj", "degree", "ring_of", "rings", "boundary", "frontier")
# The names that hold a surface in the package and the scripts, read as a
# variable (`surf.adj`) or an attribute (`self.surf.adj`).  Other objects
# carry fields of these names too: a `_Builder` (`b.degree`), parsed
# arguments (`args.rings`), an end trace (`res.rings`), a band (`band.tris`).
SURFACE_NAMES = {"surf", "surface", "s", "s2", "flat", "semi", "silo"}
# The functions of surface.py, besides the views, that read the views.
VIEW_READERS = {"validate", "n_vertices"}


def _owner(node):
    """The name an attribute is read off: `surf` in `surf.adj` and in
    `self.surf.adj`."""
    return getattr(node.value, "id", None) or getattr(node.value, "attr", None)


def whole_reads(tree, names=SURFACE_NAMES):
    """(line, container) of every read of a whole-surface container off
    one of `names`, the names that hold a surface."""
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in WHOLE
                  and isinstance(node.ctx, ast.Load) and _owner(node) in names)


def private_uses(tree):
    """(line, field) of every use of a private field (`_name`, not a
    dunder) off a name that holds a surface."""
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr.startswith("_")
                  and not node.attr.startswith("__")
                  and _owner(node) in SURFACE_NAMES)


def _is_view(node):
    return isinstance(node, ast.FunctionDef) and any(
        getattr(d, "id", None) == "cached_property"
        for d in node.decorator_list)


def own_view_reads(tree):
    """(line, view) of every read of a view in surface.py outside the view
    definitions and `VIEW_READERS`: off `self` in `Triangulation`, and
    off a name that holds a surface anywhere."""
    reads = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Triangulation":
            for item in node.body:
                if not _is_view(item) and getattr(item, "name", None) \
                        not in VIEW_READERS:
                    reads += whole_reads(item, SURFACE_NAMES | {"self"})
        elif getattr(node, "name", None) not in VIEW_READERS:
            reads += whole_reads(node)
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_surface_field_used(path):
    assert private_uses(_parse(path)) == []


def test_scan_finds_each_private_field_use():
    tree = ast.parse("a = surf._tris[t]\n"
                     "b = self.surf._adj.get((t, e))\n"
                     "silo._made = {}\n"
                     "c = s.tris\n"
                     "d = b._plans\n"
                     "e = surf.__class__\n"
                     "f = surf._next_plan().size\n")
    assert private_uses(tree) == [(1, "_tris"), (2, "_adj"), (3, "_made"),
                                  (7, "_next_plan")]


def test_surface_module_reads_no_view():
    assert own_view_reads(_parse(SURFACE)) == []


def test_own_scan_finds_a_view_read_in_a_method():
    tree = ast.parse("class Triangulation:\n"
                     "    @cached_property\n"
                     "    def frontier(self):\n"
                     "        return frozenset(self.boundary)\n"
                     "    def n_vertices(self):\n"
                     "        return len(self.degree)\n"
                     "    def on_frontier(self, v):\n"
                     "        return v in self.frontier\n"
                     "class _Builder:\n"
                     "    def add(self, v):\n"
                     "        self.degree[v] = len(self.tris)\n"
                     "def validate(surf):\n"
                     "    return surf.adj\n"
                     "def develop(surf):\n"
                     "    return surf.adj\n")
    assert own_view_reads(tree) == [(8, "frontier"), (15, "adj")]
