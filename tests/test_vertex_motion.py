"""The chart motion round a vertex, `chart.vertex_motion`.

Between two triangles of one fan the motion is a rotation about the
vertex by k = 4 * (s_out - s_in) - 2 * m turns of 30 degrees, for a path
of m sectors counterclockwise.  It is checked here against the edge
gluings composed one fan edge at a time along the same path, both ways
round, at vertices of degree 5, 6 and 7, and all 54 motions (slot in,
slot out, m mod 6) against the closed form in exact arithmetic; an edge
gluing is the one-sector clockwise motion.  An AST scan checks that the
engine's vertex crossing makes no fan unfolding: `cross_vertex` and
`fan_sector` compose no gluings and call neither `fan_frames` nor
`surf.transfer`.
"""

import ast
from itertools import product
from pathlib import Path

import pytest

from smfgeo import chart, numbers
from smfgeo.builders import build_semi_paradoxist, build_silo
from smfgeo.numbers import Scalars

FLOAT = Scalars("float")
EXACT = Scalars("exact")
ROOT = Path(__file__).resolve().parent.parent
ENGINE = ROOT / "src" / "smfgeo" / "engine.py"


@pytest.fixture(scope="module")
def surfaces():
    return {"semi3": build_semi_paradoxist(3), "silo3": build_silo(3)}


def composed(surf, ctx, v, i, m):
    """The motion from the chart of fan triangle i at v to the triangle m
    sectors on, as the edge gluings composed one fan edge at a time."""
    fan = surf.fan_ccw(v)
    t, s = fan[i]
    motion = chart.Isometry.identity(ctx)
    for _ in range(abs(m)):
        # Counterclockwise leaves across the edge arriving at v,
        # clockwise across the edge leaving it.
        e = (s + 2) % 3 if m > 0 else s
        motion = surf.transfer(ctx, t, e).compose(motion)
        t, e2 = surf.neighbor(t, e)
        s = e2 if m > 0 else (e2 + 1) % 3
    assert (t, s) == fan[(i + m) % len(fan)]
    return motion


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
@pytest.mark.parametrize("name,v,deg", [("semi3", 0, 5), ("silo3", 6, 6),
                                        ("silo3", 11, 7)],
                         ids=["degree-5", "degree-6", "degree-7"])
def test_closed_form_is_the_composed_gluings(surfaces, name, v, deg, ctx):
    surf = surfaces[name]
    fan = surf.fan_ccw(v)
    assert len(fan) == deg and not surf.on_frontier(v)
    for i, (_, s_in) in enumerate(fan):
        for j, (_, s_out) in enumerate(fan):
            for m in ((j - i) % deg, (j - i) % deg - deg):
                got = chart.vertex_motion(ctx, s_in, s_out, m)
                want = composed(surf, ctx, v, i, m)
                assert got.k == want.k, (i, j, m)
                if ctx.exact:
                    assert (got.xa, got.xb, got.ya, got.yb, got.d) == (
                        want.xa, want.xb, want.ya, want.yb, want.d), (i, j, m)
                else:
                    assert abs(got.tx - want.tx) <= 1e-15, (i, j, m)
                    assert abs(got.ty - want.ty) <= 1e-15, (i, j, m)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_every_motion_is_the_exact_closed_form(mode):
    # In a fresh context: the rotation by k = 4 * (s_out - s_in) - 2 * m
    # turns that carries corner s_in onto corner s_out, worked out in
    # exact arithmetic; a float motion is the exact one rounded once.
    # Paths of m and m - 6 sectors share one motion.
    ctx = Scalars(mode)
    cs = chart.corners(EXACT)
    for s_in, s_out, m in product(range(3), range(3), range(6)):
        got = chart.vertex_motion(ctx, s_in, s_out, m)
        k = (4 * (s_out - s_in) - 2 * m) % 12
        c, s = numbers._COS30[k], numbers._SIN30[k]
        (px, py), (qx, qy) = cs[s_in], cs[s_out]
        want = (qx - (c * px - s * py), qy - (s * px + c * py))
        assert (got.k, got.tx, got.ty) == (
            k, *(want if ctx.exact else map(float, want))), (s_in, s_out, m)
        assert got.ctx is ctx
        assert chart.vertex_motion(ctx, s_in, s_out, m - 6) is got
    assert None not in ctx.motions


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_gluing_is_the_one_sector_clockwise_motion(ctx):
    for e, e2 in product(range(3), repeat=2):
        assert chart.gluing(ctx, e, e2) is \
            chart.vertex_motion(ctx, e, (e2 + 1) % 3, -1)


# Names whose calls would unfold a fan or glue charts edge by edge.
UNFOLDING = {"fan_frames", "compose", "transfer"}


def unfolding_calls(tree, functions):
    """(function, called name) for each call in the module-level
    functions named in `functions` whose name is in `UNFOLDING`."""
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in functions:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = getattr(f, "id", None) or getattr(f, "attr", None)
                    if name in UNFOLDING:
                        found.append((top.name, name))
    return found


def test_vertex_crossing_makes_no_fan_unfolding():
    tree = ast.parse(ENGINE.read_text(encoding="utf-8"), filename=str(ENGINE))
    names = {top.name for top in tree.body
             if isinstance(top, ast.FunctionDef)}
    assert {"cross_vertex", "fan_sector"} <= names
    assert unfolding_calls(tree, {"cross_vertex", "fan_sector"}) == []


def test_scan_finds_each_unfolding_call():
    tree = ast.parse("def cross_vertex(surf, ctx):\n"
                     "    frames = fan_frames(surf, ctx, 0, (0, 0))\n"
                     "    return frames[1][2].compose(frames[0][2])\n"
                     "def fan_sector(surf, ctx):\n"
                     "    return surf.transfer(ctx, 0, 1).k\n"
                     "def fan_frames(surf, ctx):\n"
                     "    return a.compose(b)\n")
    assert unfolding_calls(tree, {"cross_vertex", "fan_sector"}) == [
        ("cross_vertex", "fan_frames"), ("cross_vertex", "compose"),
        ("fan_sector", "transfer")]
