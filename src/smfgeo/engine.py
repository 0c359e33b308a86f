"""Geodesic engine.

Geodesics are straight inside each triangle chart, transferred across
edges by the gluing isometry (so that unfolding two adjacent triangles
makes the segments collinear) and continued across a vertex of degree d
so that the angle on each side of the line equals half the cone angle
d * 60 degrees.

`walk` is the one stepping loop: it yields each chord and each crossing
in turn, and every tracer (`trace` here, the classifier's one-end
traces) is a consumer that adds its own stopping rules.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from operator import attrgetter

from . import chart
from .chart import Isometry, cross, dot
from .numbers import Scalars, q3_chord
from .surface import (
    GROWTH_BUDGET,
    FrontierVertex,
    SurfaceError,
    SurfacePoint,
    Triangulation,
    UnmatchedEdge,
    Value,
    canonicalize_point,
    grow_frontier,
    normalize_bary,
    point_at_vertex,
    snap_bary,
)


class EngineError(Exception):
    pass


class FrontierReached(EngineError):
    """A trace ran into an unmatched edge; the caller may grow and retry."""

    def __init__(self, tri, edge):
        super().__init__(f"frontier at edge {edge} of triangle {tri}")
        self.tri = tri
        self.edge = edge


class Ray(Value):
    """Canonical surface point plus direction in that triangle's chart."""

    __slots__ = ("point", "dir")

    def __init__(self, point: SurfacePoint, dir: tuple):
        self.point = point
        self.dir = dir

    def __repr__(self):
        return f"Ray({self.point}, dir=({self.dir[0]}, {self.dir[1]}))"


class Segment(Value):
    """A chord inside triangle `tri`, from `a` to `b` in its chart.

    Equality and hash read `tri`, `a` and `b`.
    """

    __slots__ = ("tri", "a", "b", "_length", "exit_b")
    _key = attrgetter("tri", "a", "b")

    def __init__(self, tri: int, a: tuple, b: tuple, exit_b: tuple = None):
        self.tri = tri
        self.a = a  # entry point, chart coords
        self.b = b  # exit point, chart coords
        # Computed once: the walk's stall guard and every consumer need it.
        self._length = math.hypot(float(b[0]) - float(a[0]),
                                  float(b[1]) - float(a[1]))
        # Normalized barycentrics of `b` when `step` made the chord.
        self.exit_b = exit_b

    def length(self) -> float:
        return self._length


# -- path events -----------------------------------------------------------


class EdgeCrossing(Value):
    """The walk leaving `tri` across `edge` at `point`.

    Equality and hash ignore `gluing`.
    """

    __slots__ = ("tri", "edge", "point", "gluing")
    _key = attrgetter("tri", "edge", "point")

    def __init__(self, tri: int, edge: int, point: SurfacePoint, gluing=None):
        self.tri = tri
        self.edge = edge
        self.point = point
        # Isometry from chart(tri) to the neighbor's chart across `edge`.
        self.gluing = gluing


class VertexCrossing(Value):
    """The walk passing vertex `vertex` from `tri_in` into `tri_out`.

    Equality and hash ignore `gluing`.
    """

    __slots__ = ("vertex", "incoming_dir", "outgoing_dir", "cone_angle_deg",
                 "tri_in", "tri_out", "gluing")
    _key = attrgetter(*__slots__[:-1])

    def __init__(self, vertex: int, incoming_dir: tuple, outgoing_dir: tuple,
                 cone_angle_deg: int, tri_in: int, tri_out: int, gluing=None):
        self.vertex = vertex
        self.incoming_dir = incoming_dir
        self.outgoing_dir = outgoing_dir
        self.cone_angle_deg = cone_angle_deg
        self.tri_in = tri_in
        self.tri_out = tri_out
        # Isometry from chart(tri_in) to chart(tri_out), made by cross_vertex.
        self.gluing = gluing


class Closure(namedtuple("Closure", "period")):
    __slots__ = ()


class ArcBudgetExhausted(namedtuple("ArcBudgetExhausted", "arc")):
    __slots__ = ()


class GrowthLimit(namedtuple("GrowthLimit", "detail")):
    __slots__ = ()


class GeodesicPath:
    __slots__ = ("start", "segments", "events", "arc_length", "surface")

    def __init__(self, start: Ray, segments: list = None, events: list = None,
                 arc_length: float = 0.0, surface: Triangulation = None):
        self.start = start
        self.segments = [] if segments is None else segments
        # (signed arc position, event)
        self.events = [] if events is None else events
        self.arc_length = arc_length
        self.surface = surface


# -- ray canonical form ----------------------------------------------------


def fan_frames(surf: Triangulation, ctx: Scalars, v: int, start):
    """Unfold the fan around v into the plane with v at the origin.

    Returns [(tri, slot, frame)] in CCW order starting from `start`
    (a (tri, slot) pair); frame maps that triangle's chart into the
    common plane.
    """
    t0, s0 = start
    fan = surf.fan_ccw(v)
    if (t0, s0) not in fan:
        raise EngineError(f"triangle {t0} not incident to vertex {v}")
    i0 = fan.index((t0, s0))
    fan = fan[i0:] + fan[:i0]
    cs = chart.corners(ctx)
    px, py = cs[s0]
    frames = [(t0, s0, Isometry(ctx, 0, -px, -py))]
    for j in range(1, len(fan)):
        tp, sp = fan[j - 1]
        t, s = fan[j]
        # CCW around v leaves triangle tp across the edge arriving at v.
        iso = surf.transfer(ctx, tp, (sp + 2) % 3)
        frames.append((t, s, frames[-1][2].compose(iso.inverse())))
    return frames


def _sector_sides(ctx, s):
    """The chart edges leaving corner `s`, as vectors: the clockwise and
    the counterclockwise side of the triangle's sector at that corner."""
    cs = chart.corners(ctx)
    (x0, y0), (x1, y1), (x2, y2) = cs[s], cs[(s + 1) % 3], cs[(s + 2) % 3]
    return (x1 - x0, y1 - y0), (x2 - x0, y2 - y0)


def fan_sector(surf: Triangulation, ctx: Scalars, v: int, tri: int, d,
               closed: bool):
    """The sector of the fan at v that holds direction `d` (in the chart
    of `tri`, a triangle at v): closed, or half-open without its
    counterclockwise side.

    A walk from `tri` crosses one fan edge at a time, towards the side
    of the sector's bisector `d` lies on (counterclockwise on a tie): the
    sector found is the one nearest to `tri` by fan angle.  `d` is
    carried there by `chart.vertex_motion`, one turn from `tri`'s chart.
    Returns (tri, slot of v, `d` in its chart, sectors moved,
    counterclockwise positive).  Raises FrontierVertex at an open edge
    of the fan.
    """
    sign = ctx.sign
    s = s0 = surf.vertex_slot(tri, v)
    w = d
    moved = 0
    # A direction lies at most 180 degrees, three moves, from the first
    # sector's bisector.
    for _ in range(4):
        (ux, uy), (vx, vy) = _sector_sides(ctx, s)
        c2 = sign(cross(w[0], w[1], vx, vy))
        if sign(cross(ux, uy, w[0], w[1])) >= 0 and (
                c2 > 0 or closed and c2 == 0):
            return tri, s, w, moved
        mx, my = chart.rotate(ctx, 1, ux, uy)
        ccw = sign(cross(mx, my, w[0], w[1])) >= 0
        # Counterclockwise around v leaves across the edge arriving at v.
        e = (s + 2) % 3 if ccw else s
        nbr = surf.neighbor(tri, e)
        if nbr is None:
            raise FrontierVertex(f"vertex {v}: the direction lies past "
                                 f"the open edge {e} of triangle {tri}")
        moved += 1 if ccw else -1
        tri, e2 = nbr
        s = e2 if ccw else (e2 + 1) % 3
        w = chart.vertex_motion(ctx, s0, s, moved).apply_vec(*d)
    raise EngineError(f"direction not in any fan sector at vertex {v}")


def ray_canonical(surf: Triangulation, ctx: Scalars, point: SurfacePoint, d) -> Ray:
    """Express (point, direction) with the correct carrying triangle.

    Edge points with an along-edge direction are carried by the triangle
    on the left of travel; vertex points by the fan sector, half-open,
    that holds the direction and lies nearest to the given triangle by
    fan angle, ties counterclockwise (`fan_sector`: the planar direction
    alone is ambiguous on a 300- or 420-degree cone).
    """
    b = normalize_bary(ctx, point.bary)
    p, zeros = canonicalize_point(SurfacePoint(point.tri, b), surf, ctx,
                                  with_zeros=True)
    # Tested on the canonical point: in float mode the second snap can put
    # on a vertex a point that the first left just off it.
    v = point_at_vertex(surf, p, ctx)
    if v is not None:
        t, s, d, _ = fan_sector(surf, ctx, v, point.tri, d, closed=False)
        b = [ctx.zero, ctx.zero, ctx.zero]
        b[s] = ctx.one
        return Ray(SurfacePoint(t, tuple(b)), tuple(d))
    if p.tri != point.tri:
        # Direction must follow the point into the canonical triangle.
        d = link_iso(surf, ctx, point.tri, p.tri).apply_vec(*d)
    if zeros:
        e = (zeros[0] + 1) % 3
        cs = chart.corners(ctx)
        ex = cs[(e + 1) % 3][0] - cs[e][0]
        ey = cs[(e + 1) % 3][1] - cs[e][1]
        c = ctx.sign(cross(ex, ey, d[0], d[1]))
        if c < 0 or (c == 0 and ctx.sign(dot(ex, ey, d[0], d[1])) < 0):
            # Direction leaves the triangle (or runs along the edge with
            # this triangle on the right): carry by the neighbor.
            if surf.neighbor(p.tri, e) is not None:
                return _across(surf, ctx, p.tri, e, p.bary, d)
    return Ray(p, tuple(d))


def make_ray(surf: Triangulation, ctx: Scalars, tri: int, bary, d) -> Ray:
    """Build a canonical ray from raw barycentrics and a chart direction."""
    b = normalize_bary(ctx, tuple(ctx.of(x) for x in bary))
    dx, dy = ctx.of(d[0]), ctx.of(d[1])
    ux, uy, _ = ctx.try_unit(dx, dy)
    return ray_canonical(surf, ctx, SurfacePoint(tri, b), (ux, uy))


# -- stepping --------------------------------------------------------------


def step(ray: Ray, surf: Triangulation, ctx: Scalars):
    """Maximal straight chord from the ray inside its triangle.

    Returns (segment, hit) where hit is ("edge", e) or ("vertex", v).
    Raises FrontierReached when the chord exits through an unmatched edge.
    Each sign is decided once: that of each barycentric velocity, of
    each coordinate the chord runs down towards zero, and of the exit
    time.  The exit's zero slots, which name the hit, come from the snap
    of its barycentrics (`snap_bary`), or in exact mode from the integer
    kernel `numbers.q3_chord`, which reduces each exit value once and
    skips the snap when the entry sums to exactly 1 (the velocities sum
    to 0, so the exit does too).
    """
    t = ray.point.tri
    b = ray.point.bary
    if ctx.exact:
        chord = q3_chord(b, ray.dir)
    else:
        sign = ctx.sign
        db = chart.bary_velocity(ctx, *ray.dir)
        t_exit = None
        for i in range(3):
            if sign(db[i]) < 0:
                sb = sign(b[i])
                if sb >= 0:
                    cand = -b[i] / db[i] if sb > 0 else ctx.zero
                    if t_exit is None or ctx.lt(cand, t_exit):
                        t_exit = cand
        st = -1 if t_exit is None else sign(t_exit)
        if st == 0:
            # A zero-length chord (within eps) squeezing past a vertex:
            # take it and let the exit snap resolve the hit.
            t_exit = abs(t_exit)
        chord = None if st < 0 else snap_bary(ctx, (
            b[0] + db[0] * t_exit, b[1] + db[1] * t_exit, b[2] + db[2] * t_exit))
    if chord is None:
        raise EngineError(f"ray does not advance inside triangle {t}: {ray}")
    exit_b, zeros = chord
    if zeros is None:  # an exact entry that does not sum to 1
        exit_b, zeros = snap_bary(ctx, exit_b)
    seg = Segment(t, chart.xy_of_bary(ctx, b), chart.xy_of_bary(ctx, exit_b),
                  exit_b)
    if len(zeros) >= 2:
        slot = next(i for i in range(3) if i not in zeros)
        return seg, ("vertex", surf.triangle(t)[slot])
    e = (zeros[0] + 1) % 3
    if surf.neighbor(t, e) is None:
        raise FrontierReached(t, e)
    return seg, ("edge", e)


def transfer_edge(surf: Triangulation, ctx: Scalars, tri: int, edge: int,
                  exit_b, d, iso=None) -> Ray:
    """Re-express an edge-exit ray in the neighbor's chart; `iso` is the
    gluing across the edge when the caller has already looked it up."""
    return _across(surf, ctx, tri, edge, exit_b, d, iso)


def _across(surf, ctx, tri, edge, bary, d, iso=None) -> Ray:
    """The point `bary` on edge `edge` of `tri` and direction `d`, in the
    chart of the neighbor across that edge."""
    nbr = surf.neighbor(tri, edge)
    if nbr is None:
        raise UnmatchedEdge(f"edge {edge} of triangle {tri}")
    t2, e2 = nbr
    nb = [ctx.zero, ctx.zero, ctx.zero]
    nb[e2] = bary[(edge + 1) % 3]
    nb[(e2 + 1) % 3] = bary[edge]
    if iso is None:
        iso = surf.transfer(ctx, tri, edge)
    return Ray(SurfacePoint(t2, tuple(nb)), iso.apply_vec(*d))


def cross_vertex(surf: Triangulation, ctx: Scalars, v: int, arrival_tri: int,
                 d):
    """Continue a geodesic through vertex v by the equal-angle rule.

    `d` is the arrival direction in the chart of `arrival_tri` (pointing
    at v). The outgoing ray leaves v so the fan angle on each side
    between the incoming and outgoing lines is half the cone angle.

    The turn is counted from the closed sector that holds the back
    direction `-d`, nearest to `arrival_tri` by intrinsic fan angle
    (`fan_sector`; a microchord that clips a corner can leave it in a
    neighbour's), not by planar containment, as a degree-7 fan spans
    more than 360 degrees.  Returns (outgoing Ray, VertexCrossing event).
    This is where a vertex crossing's chart motion is made: the event's
    `gluing`, `chart.vertex_motion` along the sectors the direction took
    (the walk's, then the turn's), takes `arrival_tri`'s chart to the
    outgoing triangle's.
    """
    if surf.on_frontier(v):
        raise FrontierVertex(f"vertex {v} has an incomplete fan")
    fan = surf.fan_ccw(v)
    deg = len(fan)
    if deg not in (5, 6, 7):
        raise EngineError(f"vertex {v} has degree {deg}")
    t0, s0, (bx, by), moved = fan_sector(surf, ctx, v, arrival_tri,
                                         (-d[0], -d[1]), closed=True)
    # The outgoing direction, deg * 30 degrees on from the back direction,
    # lies deg // 2 sectors on from t0's, or one more where it passes a
    # fan edge: the outgoing sector holds its clockwise side only.
    (ux, uy), (vx, vy) = _sector_sides(ctx, s0)
    if deg % 2:
        mx, my = chart.rotate(ctx, 1, ux, uy)
        off = deg // 2 + (ctx.sign(cross(mx, my, bx, by)) >= 0)
    else:
        off = deg // 2 + (ctx.sign(cross(bx, by, vx, vy)) == 0)
    t, s = fan[(fan.index((t0, s0)) + off) % deg]
    # Turn the back direction by half the cone angle in t0's chart, then
    # carry it `off` sectors on, into the outgoing triangle's chart.
    wx, wy = chart.rotate(ctx, deg, bx, by)
    out_d = chart.vertex_motion(ctx, s0, s, off).apply_vec(wx, wy)
    b = [ctx.zero, ctx.zero, ctx.zero]
    b[s] = ctx.one
    out = Ray(SurfacePoint(t, tuple(b)), out_d)
    motion = chart.vertex_motion(ctx, surf.vertex_slot(arrival_tri, v), s,
                                 moved + off)
    ev = VertexCrossing(v, tuple(d), tuple(out_d), 60 * deg, arrival_tri, t,
                        motion)
    return out, ev


def reverse_ray(surf: Triangulation, ctx: Scalars, ray: Ray) -> Ray:
    """The opposite ray of the line through `ray`."""
    v = point_at_vertex(surf, ray.point, ctx)
    d = (-ray.dir[0], -ray.dir[1])
    if v is None:
        return ray_canonical(surf, ctx, ray.point, d)
    out, _ = cross_vertex(surf, ctx, v, ray.point.tri, d)
    return out


# -- tracing ---------------------------------------------------------------


# Shortest arc length after which a return through the start ray (or a
# repeated vertex state) counts as a closure.
MIN_PERIOD = 1e-7


def closure_period(ctx, start: Ray, start_xy, seg: Segment, arc, nth):
    """Period when `seg`, the `nth` chord (from 1) of a trace from `start`
    and reached at arc length `arc`, passes back through the start ray
    (`start_xy` is its base point in chart coordinates).  The first chord
    leaves the start itself and never closes.  The chord must run along
    the start direction, on its line, with the start at a parameter in
    [0, 1]: each test is one decision of `ctx`, exact in exact mode and
    within eps in float mode."""
    if nth < 2 or seg.tri != start.point.tri:
        return None
    sdx = seg.b[0] - seg.a[0]
    sdy = seg.b[1] - seg.a[1]
    dx, dy = start.dir
    sign = ctx.sign
    if sign(cross(sdx, sdy, dx, dy)) != 0 or sign(dot(sdx, sdy, dx, dy)) <= 0:
        return None
    wx = start_xy[0] - seg.a[0]
    wy = start_xy[1] - seg.a[1]
    if sign(cross(sdx, sdy, wx, wy)) != 0:
        return None
    # The chord is not null: it ran along the start direction.
    t = dot(sdx, sdy, wx, wy) / dot(sdx, sdy, sdx, sdy)
    if ctx.lt(t, ctx.zero) or ctx.lt(ctx.one, t):
        return None
    period = arc + min(max(float(t), 0.0), 1.0) * seg.length()
    return period if period > MIN_PERIOD else None


def walk(ray: Ray, surf: Triangulation, ctx: Scalars, grow=None,
         canonical=False):
    """Step the geodesic through `ray`, chord by chord.

    Yields (item, ray, surface) triples: first the chord inside the
    current triangle (a Segment, with the ray it was stepped from), then
    the crossing at its end (an EdgeCrossing at the exit point of that
    triangle, in canonical form with `canonical`, or a VertexCrossing)
    with the ray leaving it.  A consumer may stop between the two.  At
    the frontier the surface is replaced by `grow(surface)`; when there
    is no `grow` or it returns None, and after a run of degenerate
    chords, the walk ends with a GrowthLimit.
    """
    stalled = 0
    seg = None
    while True:
        if seg is not None and ctx.is_zero(seg.length()):
            stalled += 1
            if stalled > 6:
                yield GrowthLimit("degenerate stall"), ray, surf
                return
        else:
            stalled = 0
        try:
            seg, hit = step(ray, surf, ctx)
        except FrontierReached as fr:
            grown = grow(surf) if grow else None
            if grown is None:
                yield GrowthLimit(str(fr)), ray, surf
                return
            surf = grown
            continue
        yield seg, ray, surf
        exit_b = seg.exit_b
        if hit[0] == "vertex":
            v = hit[1]
            if surf.on_frontier(v):
                grown = grow(surf) if grow else None
                if grown is None:
                    yield GrowthLimit(f"frontier vertex {v}"), ray, surf
                    return
                surf = grown
            ray, ev = cross_vertex(surf, ctx, v, seg.tri, ray.dir)
        else:
            e = hit[1]
            iso = surf.transfer(ctx, seg.tri, e)
            point = SurfacePoint(seg.tri, exit_b)
            if canonical:
                point = canonicalize_point(point, surf, ctx)
            ev = EdgeCrossing(seg.tri, e, point, iso)
            ray = transfer_edge(surf, ctx, seg.tri, e, exit_b, ray.dir, iso)
        yield ev, ray, surf


def _trace_one_way(ray: Ray, surf: Triangulation, ctx: Scalars, arc_budget,
                   growth_budget):
    """Forward trace; returns ((segments, events, arc), final surf)."""
    segments = []
    events = []
    arc = 0.0
    start_xy = chart.xy_of_bary(ctx, ray.point.bary)
    grow = partial(_try_grow, growth_budget=growth_budget)
    for item, _, surf in walk(ray, surf, ctx, grow, canonical=True):
        if isinstance(item, Segment):
            segments.append(item)
            period = closure_period(ctx, ray, start_xy, item, arc,
                                    len(segments))
            arc += item.length()
            if period is not None:
                events.append((period, Closure(period)))
                break
            continue
        if isinstance(item, GrowthLimit):
            events.append((arc, item))
            break
        events.append((arc, item))
        if arc >= arc_budget:
            events.append((arc, ArcBudgetExhausted(arc)))
            break
    return (segments, events, arc), surf


def _try_grow(surf: Triangulation, growth_budget: int):
    # grow_frontier refuses a ring over the budget before it copies the
    # surface; a surface without rule or frontier raises too.
    try:
        return grow_frontier(surf, 1, growth_budget)
    except SurfaceError:
        return None


def stitch(start: Ray, surf: Triangulation, fwd, back=None) -> GeodesicPath:
    """Path of one traced end, `fwd` = (segments, events, arc); the end
    `back` traced from the reversed ray, if given, goes in front of it,
    reversed and at negative arc positions."""
    segments, events, arc = fwd
    path = GeodesicPath(start, list(segments), list(events), arc, surf)
    if back is not None:
        bsegs, bevents, barc = back
        path.segments[:0] = [Segment(s.tri, s.b, s.a) for s in reversed(bsegs)]
        path.events[:0] = [(-a, ev) for a, ev in reversed(bevents)]
        path.arc_length = barc + arc
    return path


# Default arc budget of a trace and of a classification probe.
ARC_BUDGET = 200.0


def trace(ray: Ray, surf: Triangulation, ctx: Scalars, arc_budget=ARC_BUDGET,
          growth_budget=GROWTH_BUDGET, two_sided=False) -> GeodesicPath:
    """Trace the geodesic through `ray` until a terminal event.

    Lazy surfaces are grown on demand within `growth_budget` triangles.
    With `two_sided`, the reversed ray is traced as well and stitched in
    front with negative arc positions.
    """
    fwd, surf = _trace_one_way(ray, surf, ctx, arc_budget, growth_budget)
    back = None
    if two_sided and not any(isinstance(ev, Closure) for _, ev in fwd[1]):
        back, surf = _trace_one_way(reverse_ray(surf, ctx, ray), surf, ctx,
                                    arc_budget, growth_budget)
    return stitch(ray, surf, fwd, back)


def detect_closure(path: GeodesicPath):
    """Smallest recurrence arc length recorded on the path, if any."""
    periods = [ev.period for _, ev in path.events if isinstance(ev, Closure)]
    return min(periods) if periods else None


# -- intersections ---------------------------------------------------------


def _point_key(surf, ctx, pt: SurfacePoint):
    cp = canonicalize_point(pt, surf, ctx)
    if ctx.exact:
        return (cp.tri, cp.bary)
    return (cp.tri, tuple(round(float(x), 7) for x in cp.bary))


def intersect_paths(a: GeodesicPath, b: GeodesicPath, surf: Triangulation,
                    ctx: Scalars):
    """All common surface points, deduplicated through canonical form."""
    self_mode = a is b
    closed = self_mode and detect_closure(a) is not None
    n = len(a.segments)
    by_tri = {}
    for i, seg in enumerate(b.segments):
        by_tri.setdefault(seg.tri, []).append((i, seg))
    found = {}
    for i, seg in enumerate(a.segments):
        for j, other in by_tri.get(seg.tri, ()):
            if self_mode:
                # Consecutive segments share a boundary point by
                # construction; only non-adjacent visits intersect.
                if abs(i - j) <= 1:
                    continue
                if closed and {i, j} == {0, n - 1}:
                    continue
            pts = chart.segment_intersection(ctx, seg.a, seg.b, other.a, other.b)
            for x, y in pts:
                bpt = normalize_bary(ctx, chart.bary_of_xy(ctx, x, y))
                sp = SurfacePoint(seg.tri, bpt)
                found[_point_key(surf, ctx, sp)] = canonicalize_point(sp, surf, ctx)
    return list(found.values())


# -- chart links -----------------------------------------------------------


def link_iso(surf, ctx, tri_a: int, tri_b: int) -> Isometry:
    """Chart(tri_a) -> chart(tri_b) for one triangle or two across an edge.

    The motion across a vertex is made where the crossing is decided:
    `cross_vertex` puts it on its VertexCrossing as `gluing`.
    """
    if tri_a == tri_b:
        return Isometry.identity(ctx)
    for e in range(3):
        nbr = surf.neighbor(tri_a, e)
        if nbr and nbr[0] == tri_b:
            return surf.transfer(ctx, tri_a, e)
    raise EngineError(f"triangles {tri_a}, {tri_b} share no edge")
