import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fan_turn, turned_back_signs
from smfgeo import chart, engine
from smfgeo.builders import (
    build_flat_plane,
    build_semi_paradoxist,
    build_silo,
    middle_line_ray,
    resolve_point,
    resolve_ray,
    straddle_pair,
)
from smfgeo.engine import (
    EdgeCrossing,
    FrontierReached,
    GrowthLimit,
    VertexCrossing,
    cross_vertex,
    detect_closure,
    fan_frames,
    intersect_paths,
    make_ray,
    step,
    trace,
    transfer_edge,
)
from smfgeo.numbers import Scalars
from smfgeo.surface import (
    FrontierVertex,
    SurfacePoint,
    canonicalize_point,
    from_triangles,
    normalize_bary,
)

FLOAT = Scalars("float")
EXACT = Scalars("exact")
THIRD = Fraction(1, 3)
CENTROID = (THIRD, THIRD, THIRD)


@pytest.fixture(scope="module")
def flat3():
    return build_flat_plane(3)


@pytest.fixture(scope="module")
def semi3():
    return build_semi_paradoxist(3)


@pytest.fixture(scope="module")
def semi5():
    return build_semi_paradoxist(5)


@pytest.fixture(scope="module")
def silo3():
    return build_silo(3)


def fan_angle_sides(surf, ctx, vertex, tri_in, d_in, out_ray):
    """Independent oracle: fan angles between incoming and outgoing lines.

    Unfolds the full fan and accumulates sector angles from the reversed
    incoming direction to the outgoing direction, counterclockwise.
    Returns (ccw_side, cw_side) in degrees.
    """
    slot = surf.vertex_slot(tri_in, vertex)
    frames = fan_frames(surf, ctx, vertex, (tri_in, slot))
    deg = surf.degree[vertex]
    cone = 60.0 * deg
    bx, by = frames[0][2].apply_vec(-d_in[0], -d_in[1])
    cs = chart.corners(ctx)

    def within(frame, s, w):
        ex, ey = frame.apply_vec(cs[(s + 1) % 3][0] - cs[s][0],
                                 cs[(s + 1) % 3][1] - cs[s][1])
        ex, ey = float(ex), float(ey)
        ang = math.degrees(
            math.atan2(ex * w[1] - ey * w[0], ex * w[0] + ey * w[1]))
        return ang % 360.0

    base = within(frames[0][2], frames[0][1], (float(bx), float(by)))
    out_t = out_ray.point.tri
    j = next(i for i, (t, _, _) in enumerate(frames) if t == out_t)
    frame = frames[j][2]
    wx, wy = frame.apply_vec(*out_ray.dir)
    off = within(frame, frames[j][1], (float(wx), float(wy)))
    ccw = (60.0 * j + off - base) % cone
    return ccw, cone - ccw


class TestStep:
    def test_centroid_to_edge_midpoint(self, flat3):
        # Aim at the midpoint of local edge 0 from the centroid.
        cs = chart.corners(EXACT)
        mid = ((cs[0][0] + cs[1][0]) * EXACT.half, (cs[0][1] + cs[1][1]) * EXACT.half)
        c = chart.xy_of_bary(EXACT, tuple(EXACT.of(x) for x in CENTROID))
        ray = make_ray(flat3, EXACT, 0, CENTROID, (mid[0] - c[0], mid[1] - c[1]))
        seg, hit = step(ray, flat3, EXACT)
        assert hit[0] == "edge" and hit[1] == 0
        b = normalize_bary(EXACT, chart.bary_of_xy(EXACT, *seg.b))
        assert b[0] == EXACT.half and b[1] == EXACT.half

    def test_centroid_to_vertex(self, flat3):
        cs = chart.corners(EXACT)
        c = chart.xy_of_bary(EXACT, tuple(EXACT.of(x) for x in CENTROID))
        ray = make_ray(flat3, EXACT, 0, CENTROID,
                       (cs[2][0] - c[0], cs[2][1] - c[1]))
        seg, hit = step(ray, flat3, EXACT)
        assert hit[0] == "vertex"
        assert hit[1] == flat3.tris[0][2]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_chord_length_at_most_one(self, data):
        surf = build_flat_plane(2)
        tri = data.draw(st.integers(0, surf.n_triangles() - 1))
        b = [data.draw(st.integers(1, 7)) for _ in range(3)]
        s = sum(b)
        bary = tuple(Fraction(x, s) for x in b)
        theta = data.draw(st.floats(0, 359.9))
        try:
            ray = make_ray(surf, FLOAT, tri, bary, FLOAT.direction(theta))
            seg, _ = step(ray, surf, FLOAT)
        except FrontierReached:
            return
        assert seg.length() <= 1.0 + 1e-9


class TestBulkInvariants:
    def test_chord_lengths_10k_random_rays(self, flat3):
        rng = random.Random(99)
        n = 0
        while n < 10_000:
            tri = rng.randrange(flat3.n_triangles())
            w = [rng.random() + 1e-3 for _ in range(3)]
            s = sum(w)
            bary = tuple(x / s for x in w)
            theta = rng.uniform(0, 360)
            try:
                ray = make_ray(flat3, FLOAT, tri, bary, FLOAT.direction(theta))
                seg, _ = step(ray, flat3, FLOAT)
            except FrontierReached:
                continue
            assert seg.length() <= 1.0 + 1e-9
            n += 1

    def test_transfer_collinearity_10k_random_crossings(self, flat3):
        # Unfold oracle: the gluing isometry applied to the incoming
        # direction must match the transferred direction exactly.
        rng = random.Random(7)
        keys = sorted(flat3.adj)
        cs = chart.corners(FLOAT)
        n = 0
        while n < 10_000:
            t, e = keys[rng.randrange(len(keys))]
            split = rng.uniform(0.05, 0.95)
            b = [0.0, 0.0, 0.0]
            b[e] = 1.0 - split
            b[(e + 1) % 3] = split
            ex = cs[(e + 1) % 3][0] - cs[e][0]
            ey = cs[(e + 1) % 3][1] - cs[e][1]
            along = rng.uniform(-2.0, 2.0)
            d = (ex * along + ey, ey * along - ex)  # outward component
            nxt = transfer_edge(flat3, FLOAT, t, e, tuple(b), d)
            iso = flat3.transfer(FLOAT, t, e)
            dd = iso.apply_vec(*d)
            c = dd[0] * nxt.dir[1] - dd[1] * nxt.dir[0]
            norm = math.hypot(*dd) * math.hypot(*nxt.dir)
            assert abs(c) / norm < 1e-9
            n += 1


class TestTransfer:
    def test_shared_point_same_split(self, flat3):
        half = EXACT.half
        # Exit through edge 0 of triangle 0 at its midpoint.
        exit_b = (half, half, EXACT.zero)
        d = (EXACT.zero, EXACT.of(-1))  # pointing out of the triangle
        nxt = transfer_edge(flat3, EXACT, 0, 0, exit_b, d)
        t2, e2 = flat3.adj[(0, 0)]
        assert nxt.point.tri == t2
        assert nxt.point.bary[e2] == half and nxt.point.bary[(e2 + 1) % 3] == half

    def test_perpendicular_stays_perpendicular(self, flat3):
        half = EXACT.half
        exit_b = (half, half, EXACT.zero)
        d = (EXACT.zero, EXACT.of(-1))  # perpendicular to edge 0, outward
        nxt = transfer_edge(flat3, EXACT, 0, 0, exit_b, d)
        t2, e2 = flat3.adj[(0, 0)]
        cs = chart.corners(EXACT)
        ex = cs[(e2 + 1) % 3][0] - cs[e2][0]
        ey = cs[(e2 + 1) % 3][1] - cs[e2][1]
        assert chart.dot(ex, ey, *nxt.dir) == EXACT.zero

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_unfold_collinearity(self, data):
        # Oracle: unfold the two charts with the gluing isometry and check
        # the directions agree exactly.
        surf = build_flat_plane(2)
        keys = sorted(surf.adj)
        t, e = keys[data.draw(st.integers(0, len(keys) - 1))]
        split = Fraction(data.draw(st.integers(1, 9)), 10)
        b = [EXACT.zero] * 3
        b[e] = EXACT.of(1 - split)
        b[(e + 1) % 3] = EXACT.of(split)
        num = data.draw(st.integers(-3, 3))
        den = data.draw(st.integers(1, 4))
        # Direction with an inward component relative to edge e.
        cs = chart.corners(EXACT)
        ex, ey = cs[(e + 1) % 3][0] - cs[e][0], cs[(e + 1) % 3][1] - cs[e][1]
        nx, ny = -ey, ex  # inward normal (CCW triangle keeps interior left)
        d = (ex * EXACT.frac(num, den) - nx, ey * EXACT.frac(num, den) - ny)
        nxt = transfer_edge(surf, EXACT, t, e, tuple(b), d)
        iso = surf.transfer(EXACT, t, e)
        dd = iso.apply_vec(*d)
        assert chart.cross(dd[0], dd[1], *nxt.dir) == EXACT.zero
        assert chart.dot(dd[0], dd[1], *nxt.dir) > EXACT.zero


class TestCrossVertex:
    def test_degree_6_goes_straight(self, flat3):
        # Any incoming direction continues collinearly in the unfolded fan.
        interior6 = next(v for v, d in flat3.degree.items()
                         if d == 6 and v not in flat3.frontier)
        t, s = flat3.incident(interior6)
        cs = chart.corners(EXACT)
        c = chart.xy_of_bary(EXACT, tuple(EXACT.of(x) for x in CENTROID))
        d_in = (cs[s][0] - c[0], cs[s][1] - c[1])
        out, ev = cross_vertex(flat3, EXACT, interior6, t, d_in)
        ccw, cw = fan_angle_sides(flat3, EXACT, interior6, t, d_in, out)
        assert ccw == pytest.approx(180.0, abs=1e-9)
        assert cw == pytest.approx(180.0, abs=1e-9)
        assert ev.cone_angle_deg == 360

    @pytest.mark.parametrize("degree,expected", [(5, 150.0), (6, 180.0), (7, 210.0)])
    def test_equal_angle_rule_along_edge(self, semi5, degree, expected):
        surf = semi5
        v = {5: 0, 7: 1}.get(degree)
        if v is None:
            v = next(w for w, d in surf.degree.items()
                     if d == 6 and w not in surf.frontier)
        ray = middle_line_ray(surf, EXACT, v)
        seg, hit = step(ray, surf, EXACT)
        assert hit == ("vertex", v)
        out, ev = cross_vertex(surf, EXACT, v, ray.point.tri, ray.dir)
        ccw, cw = fan_angle_sides(surf, EXACT, v, ray.point.tri, ray.dir, out)
        assert ccw == pytest.approx(expected, abs=1e-9)
        assert cw == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("theta", [7.0, 23.0, 41.0, 55.0])
    def test_equal_angle_rule_generic_incoming(self, semi5, theta):
        # Arbitrary arrival directions: both side angles equal half the
        # cone angle, for all three degrees.
        flat6 = next(v for v, d in semi5.degree.items()
                     if d == 6 and v not in semi5.frontier)
        for v in (0, 1, flat6):
            t, s = semi5.incident(v)
            cs = chart.corners(FLOAT)
            # arrive at the corner from a point on the opposite edge
            lam = theta / 100.0
            px = cs[(s + 1) % 3][0] * (1 - lam) + cs[(s + 2) % 3][0] * lam
            py = cs[(s + 1) % 3][1] * (1 - lam) + cs[(s + 2) % 3][1] * lam
            d_in = (cs[s][0] - px, cs[s][1] - py)
            out, ev = cross_vertex(semi5, FLOAT, v, t, d_in)
            ccw, cw = fan_angle_sides(semi5, FLOAT, v, t, d_in, out)
            half = 30.0 * semi5.degree[v]
            assert ccw == pytest.approx(half, abs=1e-9)
            assert cw == pytest.approx(half, abs=1e-9)

    def test_degree7_line_isolation(self, semi5):
        # A line through a degree-7 vertex is isolated: perturbing its
        # direction by any small nonzero angle leaves a direction gap of
        # about 30 degrees just past the vertex, no matter how small the
        # perturbation.
        import math as m
        ray = middle_line_ray(semi5, FLOAT, 1)
        seg, hit = step(ray, semi5, FLOAT)
        assert hit == ("vertex", 1)
        out, ev = cross_vertex(semi5, FLOAT, 1, ray.point.tri, ray.dir)
        out_theta = m.atan2(float(out.dir[1]), float(out.dir[0]))
        for delta in (1e-3, 1e-5, 1e-7):
            for sign in (1, -1):
                c, s = m.cos(sign * delta), m.sin(sign * delta)
                d2 = (ray.dir[0] * c - ray.dir[1] * s,
                      ray.dir[0] * s + ray.dir[1] * c)
                p2 = trace(make_ray(semi5, FLOAT, ray.point.tri,
                                    tuple(float(x) for x in ray.point.bary), d2),
                           semi5, FLOAT, arc_budget=3.0, growth_budget=10**6)
                hitseg = [sg for sg in p2.segments if sg.tri == ev.tri_out]
                if not hitseg:
                    continue
                sg = hitseg[0]
                th = m.atan2(sg.b[1] - sg.a[1], sg.b[0] - sg.a[0])
                gap = abs((m.degrees(th - out_theta) + 180) % 360 - 180)
                assert gap > 25.0, (delta, sign, gap)

    def test_degree5_bisects_opposite_triangle(self, semi5):
        # Incoming along an edge: outgoing runs through the middle of the
        # opposite triangle (equal barycentric weights on the far edge).
        ray = middle_line_ray(semi5, EXACT, 0)
        out, _ = cross_vertex(semi5, EXACT, 0, ray.point.tri, ray.dir)
        seg, hit = step(out, semi5, EXACT)
        b = normalize_bary(EXACT, chart.bary_of_xy(EXACT, *seg.b))
        nz = sorted(float(x) for x in b if not EXACT.is_zero(x))
        assert nz == pytest.approx([0.5, 0.5])


def arrival_off_fan(surf, ctx, turn):
    """(arrival triangle, direction) at vertex 0 from its smallest
    triangle, the back direction being that triangle's first fan edge
    turned clockwise: by `turn` radians in float mode, by `turn` times
    its normal in exact mode.  That turn leaves the triangle's sector for
    its clockwise neighbour's."""
    t, s = surf.incident(0)
    cs = chart.corners(ctx)
    ux, uy = cs[(s + 1) % 3][0] - cs[s][0], cs[(s + 1) % 3][1] - cs[s][1]
    if ctx.exact:
        bx, by = ux + uy * turn, uy - ux * turn
    else:
        c, sn = math.cos(turn), math.sin(turn)
        bx, by = c * ux + sn * uy, c * uy - sn * ux
    return t, (-bx, -by)


@pytest.mark.parametrize("tri", [41, 45, 50])
def test_vertex_point_off_by_float_dirt_gets_the_vertex_ray(tri):
    # The first snap leaves these barycentrics off the vertex and the
    # second puts them on it; the ray must be the clean vertex point's.
    surf = build_semi_paradoxist(4)
    dirty = SurfacePoint(tri, (-8.5e-9, -8.5e-9, 1.1))
    clean = SurfacePoint(tri, (0.0, 0.0, 1.0))
    for k in range(24):
        d = FLOAT.direction(15.0 * k)
        assert engine.ray_canonical(surf, FLOAT, dirty, d) == \
            engine.ray_canonical(surf, FLOAT, clean, d)


class TestVertexRay:
    """A ray at a vertex is carried by the fan sector nearest, by fan
    angle, to the triangle its direction is given in."""

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_degree_7_takes_the_nearer_sector(self, silo3, ctx):
        # 90 degrees clockwise of triangle 38's sector at its corner 2:
        # two sectors clockwise, not four counterclockwise (210 degrees
        # away on the 420-degree cone).
        v = silo3.triangle(38)[2]
        assert silo3.degree[v] == 7
        corner = SurfacePoint(38, (ctx.zero, ctx.zero, ctx.one))
        ray = engine.ray_canonical(silo3, ctx, corner,
                                   (-ctx.half_sqrt3, ctx.half))
        fan = [t for t, _ in silo3.fan_ccw(v)]
        assert ray.point.tri == 72
        assert (fan.index(38) - fan.index(72)) % 7 == 2

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_opposite_the_bisector_goes_counterclockwise(self, semi3, ctx):
        # At the degree-5 vertex 0 the direction opposite a sector's
        # bisector lies 180 degrees from it both ways round; the tie
        # goes counterclockwise, three sectors on.
        t, s = semi3.incident(0)
        cs = chart.corners(ctx)
        ux, uy = cs[(s + 1) % 3][0] - cs[s][0], cs[(s + 1) % 3][1] - cs[s][1]
        mx, my = chart.rotate(ctx, 1, ux, uy)
        corner = [ctx.zero, ctx.zero, ctx.zero]
        corner[s] = ctx.one
        ray = engine.ray_canonical(semi3, ctx, SurfacePoint(t, tuple(corner)),
                                   (-mx, -my))
        fan = [f for f, _ in semi3.fan_ccw(0)]
        assert (fan.index(ray.point.tri) - fan.index(t)) % 5 == 3

    def test_missing_part_of_a_frontier_fan_is_refused(self):
        # Vertex 0 of two triangles has a fan of 120 degrees: a direction
        # inside it is carried, one clockwise of it is a FrontierVertex.
        surf = from_triangles([(0, 1, 2), (0, 2, 3)])
        corner = SurfacePoint(0, (1, 0, 0))
        ray = engine.ray_canonical(surf, FLOAT, corner, FLOAT.direction(90.0))
        assert ray.point.tri == 1
        with pytest.raises(FrontierVertex, match="open edge"):
            engine.ray_canonical(surf, FLOAT, corner, FLOAT.direction(-30.0))


def assert_turned_from_the_clockwise_neighbour(surf, ctx, turn):
    # Just clockwise of the arrival's sector, as a microchord that clips
    # its corner leaves it, however small the step past the fan edge.
    assert surf.degree[0] == 5
    t, d = arrival_off_fan(surf, ctx, turn)
    out, ev = cross_vertex(surf, ctx, 0, t, d)
    assert out.point.tri == ev.tri_out
    k, ccw = fan_turn(surf, ctx, ev)
    assert k == -1
    assert ccw == pytest.approx(150.0, abs=1e-9)
    assert 300.0 - ccw == pytest.approx(150.0, abs=1e-9)


class TestFanDirt:
    """A float back direction just outside the arrival triangle's fan
    sector, by float dirt or by more, is continued: the arrival sector
    refuses it and the clockwise neighbour's sector holds it."""

    def test_float_dirt_is_accepted(self, semi3):
        t, d = arrival_off_fan(semi3, FLOAT, 1e-8)
        out, ev = cross_vertex(semi3, FLOAT, 0, t, d)
        assert out.point.tri == ev.tri_out == 15
        assert_turned_from_the_clockwise_neighbour(semi3, FLOAT, 1e-8)

    def test_more_than_dirt_is_refused(self, semi3):
        # Refused by the arrival triangle's closed sector, not by
        # cross_vertex: the walk moves one sector clockwise.
        t, d = arrival_off_fan(semi3, FLOAT, 1e-5)
        t0, _, _, moved = engine.fan_sector(semi3, FLOAT, 0, t,
                                            (-d[0], -d[1]), closed=True)
        assert moved == -1 and t0 != t
        assert_turned_from_the_clockwise_neighbour(semi3, FLOAT, 1e-5)


class TestBackDirectionOffTheArrivalSector:
    """A back direction outside the arrival triangle's sector is turned
    from the sector that holds it, in exact mode as in float mode."""

    @pytest.mark.parametrize("ctx,turn", [(EXACT, Fraction(1, 10**8))],
                             ids=["exact-1e-8"])
    def test_turned_from_the_clockwise_neighbour(self, semi3, ctx, turn):
        assert_turned_from_the_clockwise_neighbour(semi3, ctx, turn)

    @pytest.mark.parametrize("ctx,k30,sectors", [
        (FLOAT, 5, 2), (EXACT, 5, 2), (FLOAT, 3, 1), (EXACT, 3, 1),
        (FLOAT, 4, 2), (EXACT, 4, 2)],
        ids=["float", "exact", "float-90", "exact-90", "float-120",
             "exact-120"])
    def test_turned_across_the_seam(self, semi3, ctx, k30, sectors):
        # A back direction 90, 120 or 150 degrees counterclockwise of the
        # arrival triangle's first fan edge lies one or two sectors on;
        # the turn of 150 degrees from there crosses the seam of the
        # degree-5 fan unfolded from the arrival triangle.  The gluing
        # follows the sectors the direction took, so it carries the
        # turned back direction onto the outgoing one.
        t, s = semi3.incident(0)
        cs = chart.corners(ctx)
        bx, by = chart.rotate(ctx, k30, cs[(s + 1) % 3][0] - cs[s][0],
                              cs[(s + 1) % 3][1] - cs[s][1])
        out, ev = cross_vertex(semi3, ctx, 0, t, (-bx, -by))
        k, ccw = fan_turn(semi3, ctx, ev)
        assert k == sectors
        assert ccw == pytest.approx(150.0, abs=1e-9)
        assert ev.outgoing_dir == out.dir
        assert turned_back_signs(ctx, ev) == (0, 1)


class TestTrace:
    def test_flat_trace_is_straight(self, flat3):
        ray = make_ray(flat3, FLOAT, 0, CENTROID, FLOAT.direction(23.0))
        path = trace(ray, flat3, FLOAT, arc_budget=3.0, growth_budget=len(flat3.tris))
        pts = developed_polyline(path, FLOAT)
        assert len(pts) >= 3
        x0, y0 = pts[0]
        x1, y1 = pts[-1]
        for (x, y) in pts[1:-1]:
            d = abs((x1 - x0) * (y - y0) - (y1 - y0) * (x - x0))
            assert d < 1e-9

    def test_arc_length_additivity(self, flat3):
        ray = make_ray(flat3, FLOAT, 0, CENTROID, FLOAT.direction(37.0))
        path = trace(ray, flat3, FLOAT, arc_budget=2.5, growth_budget=10**6)
        assert path.arc_length == pytest.approx(
            sum(s.length() for s in path.segments))

    def test_time_reversal(self, silo3):
        ray = make_ray(silo3, FLOAT, 20, (0.21, 0.33, 0.46), FLOAT.direction(74.0))
        path = trace(ray, silo3, FLOAT, arc_budget=4.0, growth_budget=10**6)
        # Reverse from the terminal state and trace back the same length.
        last = path.segments[-1]
        dx = last.b[0] - last.a[0]
        dy = last.b[1] - last.a[1]
        endb = normalize_bary(FLOAT, chart.bary_of_xy(FLOAT, *last.b))
        back = make_ray(path.surface, FLOAT, last.tri, endb, (-dx, -dy))
        rpath = trace(back, path.surface, FLOAT,
                      arc_budget=path.arc_length + 1e-6, growth_budget=10**6)
        # Entry points of the forward trace, walked from its end, must
        # match the reverse trace's exit points in order.
        fwd = [canonicalize_point(
            SurfacePoint(s.tri, normalize_bary(FLOAT, chart.bary_of_xy(FLOAT, *s.a))),
            path.surface, FLOAT) for s in path.segments]
        rev = [canonicalize_point(
            SurfacePoint(s.tri, normalize_bary(FLOAT, chart.bary_of_xy(FLOAT, *s.b))),
            rpath.surface, FLOAT) for s in rpath.segments]
        # Skip fwd[0]: the original start is mid-triangle, not an event
        # boundary, so the reverse trace passes over it.
        n = min(len(fwd) - 1, len(rev))
        assert n >= len(fwd) - 2
        for k in range(n):
            p, q = fwd[len(fwd) - 1 - k], rev[k]
            assert p.tri == q.tri
            for x, y in zip(p.bary, q.bary):
                assert float(x) == pytest.approx(float(y), abs=1e-7)

    def test_silo_circle_closes_with_period_5(self, silo3):
        line = resolve_ray(silo3, FLOAT, silo3.labels["l"])
        path = trace(line, silo3, FLOAT, arc_budget=20.0, growth_budget=10**6)
        period = detect_closure(path)
        assert period == pytest.approx(5.0, abs=1e-9)

    def test_silo_circle_exact_mode(self, silo3):
        line = resolve_ray(silo3, EXACT, silo3.labels["l"])
        path = trace(line, silo3, EXACT, arc_budget=20.0, growth_budget=10**6)
        assert detect_closure(path) == 5.0

    def test_flat_line_never_closes(self, flat3):
        ray = make_ray(flat3, FLOAT, 0, CENTROID, FLOAT.direction(10.0))
        path = trace(ray, flat3, FLOAT, arc_budget=30.0, growth_budget=10**6)
        assert detect_closure(path) is None

    def test_closed_path_retrace_same_period(self, silo3):
        line = resolve_ray(silo3, FLOAT, silo3.labels["l"])
        path = trace(line, silo3, FLOAT, arc_budget=20.0, growth_budget=10**6)
        # Re-trace from a point half way along the first segment.
        seg = path.segments[0]
        mx = (seg.a[0] + seg.b[0]) / 2
        my = (seg.a[1] + seg.b[1]) / 2
        b = normalize_bary(FLOAT, chart.bary_of_xy(FLOAT, mx, my))
        ray2 = make_ray(path.surface, FLOAT, seg.tri, b,
                        (seg.b[0] - seg.a[0], seg.b[1] - seg.a[1]))
        path2 = trace(ray2, path.surface, FLOAT, arc_budget=20.0,
                      growth_budget=10**6)
        assert detect_closure(path2) == pytest.approx(5.0, abs=1e-9)

    def test_trace_determinism(self, silo3):
        ray = make_ray(silo3, FLOAT, 20, (0.2, 0.3, 0.5), FLOAT.direction(67.0))
        p1 = trace(ray, silo3, FLOAT, arc_budget=15.0, growth_budget=10**6)
        p2 = trace(ray, silo3, FLOAT, arc_budget=15.0, growth_budget=10**6)
        assert [(s.tri, s.a, s.b) for s in p1.segments] == \
            [(s.tri, s.a, s.b) for s in p2.segments]
        assert [(a, type(e).__name__) for a, e in p1.events] == \
            [(a, type(e).__name__) for a, e in p2.events]
        assert p1.arc_length == p2.arc_length

    def test_grow_on_demand(self):
        surf = build_flat_plane(1)
        ray = make_ray(surf, FLOAT, 0, CENTROID, FLOAT.direction(11.0))
        path = trace(ray, surf, FLOAT, arc_budget=6.0, growth_budget=10**5)
        assert path.surface.n_triangles() > surf.n_triangles()
        assert any(isinstance(ev, type(path.events[-1][1]))
                   for _, ev in path.events)

    def test_growth_limit_event(self):
        surf = build_flat_plane(1)
        ray = make_ray(surf, FLOAT, 0, CENTROID, FLOAT.direction(11.0))
        path = trace(ray, surf, FLOAT, arc_budget=50.0, growth_budget=10)
        assert any(isinstance(ev, GrowthLimit) for _, ev in path.events)

    @pytest.mark.parametrize("budget,triangles,arc", [
        (10**6, 838_825, 11.061),
        (5 * 10**6, 2_196_040, 12.145),
    ], ids=["default", "five_million"])
    def test_growth_budget_is_the_only_cap(self, silo3, budget, triangles,
                                           arc):
        # The long silo(3) trace into the degree-7 region: its next ring
        # after 838,825 triangles takes the surface to 2,196,040, which a
        # budget over 10^6 admits.
        ray = make_ray(silo3, FLOAT, 20, (0.2, 0.3, 0.5),
                       FLOAT.direction(67.0))
        path = trace(ray, silo3, FLOAT, arc_budget=15.0, growth_budget=budget)
        assert path.surface.n_triangles() == triangles
        end, ev = path.events[-1]
        assert isinstance(ev, GrowthLimit)
        assert end == pytest.approx(arc, abs=1e-3)

    def test_growth_bug_propagates(self, monkeypatch):
        # Only surface errors mean "cannot grow"; any other error inside
        # growth is a bug and must not become a silent GrowthLimit.
        def broken(surf, rings, budget):
            raise RuntimeError("bug inside growth")

        monkeypatch.setattr(engine, "grow_frontier", broken)
        surf = build_flat_plane(1)
        ray = make_ray(surf, FLOAT, 0, CENTROID, FLOAT.direction(11.0))
        with pytest.raises(RuntimeError, match="bug inside growth"):
            trace(ray, surf, FLOAT, arc_budget=50.0, growth_budget=10**5)

    @pytest.mark.parametrize("rings_before", [0, 1])
    def test_ring_over_growth_budget_is_never_built(self, monkeypatch,
                                                      rings_before):
        # The budget admits `rings_before` rings and stops one triangle
        # short of the next; that ring must be refused, not built.
        from smfgeo.surface import grow_frontier
        surf = build_flat_plane(1)
        last = grow_frontier(surf, rings_before) if rings_before else surf
        budget = len(last.tris) + last._next_plan().size - 1
        built = []

        def counting(s, rings, limit):
            assert limit == budget
            out = grow_frontier(s, rings, limit)
            built.append(len(out.tris))
            return out

        monkeypatch.setattr(engine, "grow_frontier", counting)
        ray = make_ray(surf, FLOAT, 0, CENTROID, FLOAT.direction(11.0))
        path = trace(ray, surf, FLOAT, arc_budget=50.0, growth_budget=budget)
        assert len(built) == rings_before
        assert isinstance(path.events[-1][1], GrowthLimit)
        if rings_before:
            assert path.surface.content_hash() == last.content_hash()
        else:
            assert path.surface is surf

    def test_growth_limit_exceeded_ends_trace(self, monkeypatch):
        from smfgeo.surface import GrowthLimitExceeded

        def over_budget(surf, rings, budget):
            raise GrowthLimitExceeded("triangle budget reached")

        monkeypatch.setattr(engine, "grow_frontier", over_budget)
        surf = build_flat_plane(1)
        ray = make_ray(surf, FLOAT, 0, CENTROID, FLOAT.direction(11.0))
        path = trace(ray, surf, FLOAT, arc_budget=50.0, growth_budget=10**5)
        assert isinstance(path.events[-1][1], GrowthLimit)
        assert path.surface is surf


class TestStraddle:
    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_middle_line_is_the_straddle_line_at_offset_0(self, semi5, ctx):
        for v in semi5.curved_vertices():
            mid = middle_line_ray(semi5, ctx, v)
            assert straddle_pair(semi5, ctx, v, offset=0) == (mid, mid)

    def test_elliptic_straddle_lines_converge_and_meet(self, semi5):
        a, b = straddle_pair(semi5, FLOAT, 0)
        pa = trace(a, semi5, FLOAT, arc_budget=10.0, growth_budget=10**6)
        pb = trace(b, pa.surface, FLOAT, arc_budget=10.0, growth_budget=10**6)
        pts = intersect_paths(pa, pb, pb.surface, FLOAT)
        assert len(pts) >= 1

    def test_hyperbolic_straddle_lines_diverge(self, semi5):
        a, b = straddle_pair(semi5, FLOAT, 1)
        pa = trace(a, semi5, FLOAT, arc_budget=50.0, growth_budget=10**6)
        pb = trace(b, pa.surface, FLOAT, arc_budget=50.0, growth_budget=10**6)
        pts = intersect_paths(pa, pb, pb.surface, FLOAT)
        assert pts == []


class TestIntersections:
    def test_two_lines_one_triangle(self, flat3):
        a = make_ray(flat3, FLOAT, 0, CENTROID, FLOAT.direction(0.0))
        b = make_ray(flat3, FLOAT, 0, CENTROID, FLOAT.direction(77.0))
        pa = trace(a, flat3, FLOAT, arc_budget=0.4, growth_budget=10**6)
        pb = trace(b, flat3, FLOAT, arc_budget=0.4, growth_budget=10**6)
        pts = intersect_paths(pa, pb, flat3, FLOAT)
        assert len(pts) == 1
        c = canonicalize_point(SurfacePoint(0, tuple(FLOAT.of(x) for x in CENTROID)),
                               flat3, FLOAT)
        assert pts[0].tri == c.tri

    def test_crossing_on_shared_edge_counts_once(self, flat3):
        # Both paths pass through the same edge point transversally.
        half = Fraction(1, 2)
        a = make_ray(flat3, FLOAT, 0, (half, half, Fraction(0)),
                     FLOAT.direction(90.0))
        b = make_ray(flat3, FLOAT, 0, (half, half, Fraction(0)),
                     FLOAT.direction(150.0))
        pa = trace(a, flat3, FLOAT, arc_budget=1.0, growth_budget=10**6)
        pb = trace(b, flat3, FLOAT, arc_budget=1.0, growth_budget=10**6)
        pts = intersect_paths(pa, pb, flat3, FLOAT)
        assert len(pts) == 1

    def test_straddle_pair_meets_once_in_exact_mode(self):
        # The degree-5 straddle lines converge and meet once, in triangle
        # 10; exact mode keys the point by its exact barycentrics and finds
        # the point float mode finds.
        surf = build_semi_paradoxist(6)
        meets = {}
        for ctx in (FLOAT, EXACT):
            a, b = straddle_pair(surf, ctx, 0)
            pa = trace(a, surf, ctx, arc_budget=10.0, growth_budget=10**6)
            pb = trace(b, pa.surface, ctx, arc_budget=10.0,
                       growth_budget=10**6)
            meets[ctx.mode] = intersect_paths(pa, pb, pb.surface, ctx)
        (exact,), (flt,) = meets["exact"], meets["float"]
        assert exact.tri == flt.tri == 10
        assert [float(x) for x in exact.bary] == pytest.approx(
            [float(x) for x in flt.bary], abs=1e-9)

    def test_self_intersection_brute_force_oracle(self, silo3):
        # A near-horizontal helix on the silo cylinder self-intersects after
        # one winding; brute force all segment pairs as the oracle.
        p = resolve_point(silo3, FLOAT, silo3.labels["P"])
        ray = make_ray(silo3, FLOAT, p.tri, tuple(float(x) for x in p.bary),
                       FLOAT.direction(2.0))
        path = trace(ray, silo3, FLOAT, arc_budget=11.0, growth_budget=10**6)
        pts = intersect_paths(path, path, path.surface, FLOAT)
        brute = set()
        segs = path.segments
        for i in range(len(segs)):
            for j in range(i + 2, len(segs)):
                if segs[i].tri != segs[j].tri:
                    continue
                got = chart.segment_intersection(
                    FLOAT, segs[i].a, segs[i].b, segs[j].a, segs[j].b)
                for x, y in got:
                    bp = canonicalize_point(
                        SurfacePoint(segs[i].tri,
                                     normalize_bary(FLOAT, chart.bary_of_xy(FLOAT, x, y))),
                        path.surface, FLOAT)
                    brute.add((bp.tri, tuple(round(float(w), 6) for w in bp.bary)))
        got_keys = {(p.tri, tuple(round(float(w), 6) for w in p.bary)) for p in pts}
        assert got_keys == brute

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    @pytest.mark.parametrize("a0,a1,b0,b1,want", [
        ((0, 0), (2, 0), (1, 0), (3, 0), [(1, 0), (2, 0)]),
        ((0, 0), (1, 0), (1, 0), (3, 0), [(1, 0)]),
        ((0, 0), (1, 0), (2, 0), (3, 0), []),
        ((1, 0), (1, 0), (0, 0), (3, 0), [(1, 0)]),
        ((3, 0), (1, 0), (0, 0), (2, 0), [(2, 0), (1, 0)]),
    ], ids=["overlap", "touch", "apart", "point", "reversed"])
    def test_collinear_segments(self, ctx, a0, a1, b0, b1, want):
        pt = lambda p: (ctx.of(p[0]), ctx.of(p[1]))
        got = chart.segment_intersection(ctx, pt(a0), pt(a1), pt(b0), pt(b1))
        assert [(float(x), float(y)) for x, y in got] == want


def placements(path, ctx):
    """Placement of each chord's triangle in the first chord's chart,
    composed from the inverse motions of the crossings between them."""
    frames = [chart.Isometry.identity(ctx)]
    for _, ev in path.events:
        if isinstance(ev, (EdgeCrossing, VertexCrossing)):
            frames.append(frames[-1].compose(ev.gluing.inverse()))
    return frames[:len(path.segments)]


def developed_polyline(path, ctx):
    """The path's chords laid flat by `placements`, as float points."""
    frames = placements(path, ctx)
    pts = [frames[0].apply(*path.segments[0].a)]
    pts += [f.apply(*seg.b) for seg, f in zip(path.segments, frames)]
    return [(float(x), float(y)) for x, y in pts]


def turn_deg(u, v):
    """Counterclockwise angle from direction u to direction v, in degrees."""
    ux, uy, vx, vy = (float(c) for c in (*u, *v))
    return math.degrees(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy))


class TestCrossingMotions:
    """Composing the crossings' motions lays a traced strip flat."""

    def test_flat_line_never_turns(self, flat3):
        ray = make_ray(flat3, FLOAT, 0, CENTROID, FLOAT.direction(19.0))
        path = trace(ray, flat3, FLOAT, arc_budget=2.0, growth_budget=10**6)
        frames = placements(path, FLOAT)
        dirs = [f.apply_vec(s.b[0] - s.a[0], s.b[1] - s.a[1])
                for s, f in zip(path.segments, frames)]
        assert len(dirs) >= 3
        assert all(abs(turn_deg(dirs[0], w)) < 1e-9 for w in dirs)

    @pytest.mark.parametrize("vertex,degree,bend", [(0, 5, 30), (1, 7, -30)],
                             ids=["degree5", "degree7"])
    def test_vertex_bends_the_developed_line(self, semi5, vertex, degree,
                                             bend):
        # Laid flat along the fan's counterclockwise side, the line turns
        # clockwise by the defect, 180 - cone / 2 degrees.
        ray = middle_line_ray(semi5, FLOAT, vertex)
        path = trace(ray, semi5, FLOAT, arc_budget=2.0, growth_budget=10**6)
        frames = placements(path, FLOAT)
        k = 0
        for _, ev in path.events:
            if isinstance(ev, VertexCrossing) and ev.vertex == vertex:
                break
            k += isinstance(ev, (EdgeCrossing, VertexCrossing))
        else:
            pytest.fail(f"the line does not cross vertex {vertex}")
        assert ev.cone_angle_deg == 60 * degree
        before = frames[k].apply_vec(*ev.incoming_dir)
        after = frames[k + 1].apply_vec(*ev.outgoing_dir)
        assert -turn_deg(before, after) == pytest.approx(bend, abs=1e-9)

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_placed_triangles_share_the_crossed_edge(self, silo3, ctx):
        ray = make_ray(silo3, ctx, 20, (Fraction(1, 5), Fraction(3, 10),
                                        Fraction(1, 2)), (3, 1))
        path = trace(ray, silo3, ctx, arc_budget=3.0, growth_budget=10**6)
        frames = placements(path, ctx)
        cs = chart.corners(ctx)
        crossings = [ev for _, ev in path.events
                     if isinstance(ev, (EdgeCrossing, VertexCrossing))]
        assert len(crossings) >= 5
        assert all(isinstance(ev, EdgeCrossing) for ev in crossings)
        for ev, f, g in zip(crossings, frames, frames[1:]):
            # Edge e runs from corner e to corner e + 1; the neighbour
            # holds it from corner e2 + 1 to corner e2.
            _, e2 = path.surface.neighbor(ev.tri, ev.edge)
            ends = [f.apply(*cs[ev.edge]), f.apply(*cs[(ev.edge + 1) % 3])]
            there = [g.apply(*cs[(e2 + 1) % 3]), g.apply(*cs[e2])]
            for (x, y), (x2, y2) in zip(ends, there):
                # Exact equality in exact mode, within eps in float mode.
                assert ctx.eq(x, x2) and ctx.eq(y, y2)


class TestConsumerAgreement:
    """`trace` and the classifier's one-end trace both consume `walk`;
    wherever both run, their crossings and closures must agree exactly."""

    @staticmethod
    def crossings(events):
        out = []
        for arc, ev in events:
            if isinstance(ev, EdgeCrossing):
                out.append((arc, "edge", ev.tri, ev.edge))
            elif isinstance(ev, VertexCrossing):
                out.append((arc, "vertex", ev.vertex))
        return out

    @staticmethod
    def classifier_end(surf, ctx, ray, arc):
        from smfgeo.classify import Budgets, ModelAnalysis, _trace_end
        return _trace_end(surf, ctx, ray, ModelAnalysis(surf, ctx),
                          Budgets(arc=arc), None)

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_semi_events_match(self, ctx):
        surf = build_semi_paradoxist(4)
        cs = chart.corners(ctx)
        # The last direction points from the centroid at corner 0, so
        # that line runs through vertices.
        dirs = [(3, 1), (1, 4), (-2, 5),
                (-ctx.half, -cs[2][1] * ctx.frac(1, 3))]
        vertices = 0
        for d in dirs:
            ray = make_ray(surf, ctx, 0, CENTROID, d)
            path = trace(ray, surf, ctx, arc_budget=12.0,
                         growth_budget=len(surf.tris))
            end = self.classifier_end(surf, ctx, ray, 12.0)
            a = self.crossings(path.events)
            b = self.crossings(end.events)
            n = min(len(a), len(b))
            assert n >= 8
            assert a[:n] == b[:n]
            vertices += sum(1 for ev in a[:n] if ev[1] == "vertex")
        assert vertices > 0

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_silo_closed_period_matches(self, ctx, silo3):
        ray = resolve_ray(silo3, ctx, silo3.labels["l"])
        path = trace(ray, silo3, ctx, arc_budget=20.0,
                     growth_budget=len(silo3.tris))
        end = self.classifier_end(silo3, ctx, ray, 20.0)
        assert end.kind == "closed"
        assert end.closure_period == detect_closure(path)

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_icosahedron_closed_period_matches(self, ctx):
        # No band on a closed surface: both periods come from the walk.
        from smfgeo import smf
        from tests.test_surface import ICOSAHEDRON
        text = "smf 1\n" + "".join(f"t {a} {b} {c}\n" for a, b, c in ICOSAHEDRON)
        doc, _ = smf.parse_manifold(text + "line m 0 1/2 1/2 0 30\n")
        surf, _ = smf.to_triangulation(doc)
        ray = resolve_ray(surf, ctx, surf.labels["m"])
        path = trace(ray, surf, ctx, arc_budget=40.0,
                     growth_budget=len(surf.tris))
        end = self.classifier_end(surf, ctx, ray, 40.0)
        assert end.kind == "closed"
        assert end.closure_period == detect_closure(path)
        assert self.crossings(end.events) == self.crossings(path.events)


class TestWalkExitPoints:
    """`walk` puts each edge crossing at the exit point its chord ends at."""

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_edge_crossing_is_chord_end(self, ctx):
        from smfgeo.engine import Segment, walk
        surf = build_semi_paradoxist(4)
        cs = chart.corners(ctx)
        # The last direction runs from the centroid through corner 0 and
        # on through vertices only.
        dirs = [(3, 1), (1, 4), (-2, 5),
                (-ctx.half, -cs[2][1] * ctx.frac(1, 3))]
        crossings = 0
        for d in dirs:
            ray = make_ray(surf, ctx, 0, CENTROID, d)
            for item, _, _ in walk(ray, surf, ctx):
                if isinstance(item, Segment):
                    seg = item
                elif isinstance(item, EdgeCrossing):
                    crossings += 1
                    assert item.tri == seg.tri
                    want = normalize_bary(
                        ctx, chart.bary_of_xy(ctx, seg.b[0], seg.b[1]))
                    if ctx.exact:
                        assert item.point.bary == want
                    else:
                        assert all(abs(a - b) <= 1e-12
                                   for a, b in zip(item.point.bary, want))
        assert crossings >= 24


class TestClosurePeriod:
    @staticmethod
    def chord_from(ctx, surf, offset):
        """The start ray of a flat trace, its base point, and a chord of
        length 1/4 in its triangle on its line, starting `offset` past the
        base point along the ray."""
        from smfgeo.engine import Segment
        ray = make_ray(surf, ctx, 0, CENTROID, (1, 0))
        sx, sy = chart.xy_of_bary(ctx, ray.point.bary)
        dx, dy = ray.dir
        ax, ay = sx + dx * offset, sy + dy * offset
        quarter = ctx.frac(1, 4)
        seg = Segment(ray.point.tri, (ax, ay),
                      (ax + dx * quarter, ay + dy * quarter))
        return ray, (sx, sy), seg

    def test_exact_start_parameter_is_decided_exactly(self, flat3):
        from smfgeo.engine import closure_period
        # The base point lies 4e-13 of the chord's length before its start:
        # the chord passes the start ray's line but not the start.
        tiny = EXACT.of(Fraction(1, 10**13))
        ray, start_xy, seg = self.chord_from(EXACT, flat3, tiny)
        assert closure_period(EXACT, ray, start_xy, seg, 3.0, 2) is None
        ray, start_xy, seg = self.chord_from(EXACT, flat3, EXACT.zero)
        assert closure_period(EXACT, ray, start_xy, seg, 3.0, 2) == 3.0
