import math
import sys
from functools import cached_property
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

# The whole-surface views of a Triangulation.
VIEWS = ("tris", "adj", "degree", "ring_of", "rings", "boundary", "frontier")


@pytest.fixture()
def whole_surface_calls(monkeypatch):
    """Names of the whole-surface views, in the order they are made,
    that some surface makes while the test runs.  A view is made on its
    first read of a surface, so each surface adds a name once."""
    from smfgeo.surface import Triangulation
    calls = []
    for name in VIEWS:
        def make(surf, name=name, real=Triangulation.__dict__[name].func):
            calls.append(name)
            return real(surf)
        view = cached_property(make)
        view.__set_name__(Triangulation, name)
        monkeypatch.setattr(Triangulation, name, view)
    return calls


@pytest.fixture()
def call_counts(monkeypatch):
    """Calls of `engine.step`, `classify._probe` and `classify._trace_end`
    made while the test runs, by those names.  Each is wrapped with a
    counter for the test, and monkeypatch restores it afterwards."""
    from smfgeo import classify, engine
    counts = {}
    for mod, name in ((engine, "step"), (classify, "_probe"),
                      (classify, "_trace_end")):
        key = f"{mod.__name__.rpartition('.')[2]}.{name}"
        counts[key] = 0

        def counted(*args, _key=key, _real=getattr(mod, name), **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.fixture()
def isometry_counts(monkeypatch):
    """Calls of `Isometry.compose`, and inverses `Isometry.inverse` made
    rather than returned as kept, while the test runs, in both
    representations (`chart.Isometry` and `chart.ExactIsometry`).  The
    builders' shared exact context starts the test with an empty motion
    table, so the inverses it makes count the same whichever tests ran
    before."""
    from smfgeo import builders, chart
    monkeypatch.setattr(builders._EXACT, "motions", [None] * 54)
    counts = {"Isometry.compose": 0, "Isometry.inverse": 0}
    for cls in (chart.Isometry, chart.ExactIsometry):
        def compose(self, other, _real=cls.__dict__["compose"]):
            counts["Isometry.compose"] += 1
            return _real(self, other)

        def inverse(self, _real=cls.__dict__["inverse"]):
            counts["Isometry.inverse"] += self._inv is None
            return _real(self)
        monkeypatch.setattr(cls, "compose", compose)
        monkeypatch.setattr(cls, "inverse", inverse)
    return counts


@pytest.fixture()
def partitions(monkeypatch):
    """Every run `classify._Partitioner` that `classify_point` tallies
    while the test runs, in order."""
    from smfgeo import classify
    parts = []

    def tally(part, _real=classify._tally):
        parts.append(part)
        return _real(part)
    monkeypatch.setattr(classify, "_tally", tally)
    return parts


def assert_tiles(part):
    """The intervals and unknown arcs of a run partition tile [0, 180)
    degrees once: in order, each arc starts where the one before it
    ended (to 1e-9 degrees), none is reversed or 180 degrees wide or
    more, and their widths add up to 180 (to 1e-6)."""
    arcs = sorted([(i.lo, i.hi) for i in part.result_intervals]
                  + list(part.result_unknown))
    end = 0.0
    for lo, hi in arcs:
        assert abs(lo - end) <= 1e-9, (end, lo, hi)
        assert 0.0 <= hi - lo < 180.0, (lo, hi)
        end = hi
    assert abs(sum(hi - lo for lo, hi in arcs) - 180.0) <= 1e-6


def built(surf):
    """Triangles of `surf` whose vertices are made: the base's, and the
    planned triangles some read has made."""
    return len(surf._tris) + len(surf._made)


def fan_turn(surf, ctx, ev):
    """Equal-angle oracle for the vertex crossing `ev`: (k, turn).

    The back direction `-incoming_dir` lies k fan sectors counterclockwise
    of `tri_in` (clockwise for k < 0), nearest by fan angle; `turn` is the
    counterclockwise fan angle in degrees from it to the outgoing
    direction, walked one fan edge at a time with `surf.neighbor` and
    measured by atan2 in each triangle's own chart, with no unfolding.
    The equal-angle rule makes it 30 degrees times the degree."""
    from smfgeo import chart
    v = ev.vertex

    def angle(t, w):
        # From the clockwise side of t's sector at v, in (-180, 180].
        s = surf.vertex_slot(t, v)
        cs = chart.corners(ctx)
        ux = float(cs[(s + 1) % 3][0] - cs[s][0])
        uy = float(cs[(s + 1) % 3][1] - cs[s][1])
        wx, wy = float(w[0]), float(w[1])
        return math.degrees(math.atan2(ux * wy - uy * wx, ux * wx + uy * wy))

    def step(t, ccw):
        s = surf.vertex_slot(t, v)
        return surf.neighbor(t, (s + 2) % 3 if ccw else s)[0]

    a = angle(ev.tri_in, (-ev.incoming_dir[0], -ev.incoming_dir[1]))
    k = 0 if 0.0 <= a <= 60.0 else math.floor(a / 60.0)
    t = ev.tri_in
    for _ in range(abs(k)):
        t = step(t, k > 0)
    turn = -(a - 60.0 * k)
    for _ in range(ev.cone_angle_deg // 60):
        if t == ev.tri_out:
            return k, turn + angle(t, ev.outgoing_dir)
        t = step(t, True)
        turn += 60.0
    raise AssertionError(f"triangle {ev.tri_out} is not in the fan of {v}")


def turned_back_signs(ctx, ev):
    """Does the vertex crossing `ev` glue along its turn?  The signs of
    the cross and the dot product of the outgoing direction with the
    back direction `-incoming_dir`, turned by half the cone angle and
    carried by `ev.gluing` into the outgoing chart: (0, 1) when the two
    point the same way."""
    from smfgeo import chart
    bx, by = chart.rotate(ctx, ev.cone_angle_deg // 60,
                          -ev.incoming_dir[0], -ev.incoming_dir[1])
    gx, gy = ev.gluing.apply_vec(bx, by)
    ox, oy = ev.outgoing_dir
    return (ctx.sign(chart.cross(gx, gy, ox, oy)),
            ctx.sign(chart.dot(gx, gy, ox, oy)))
