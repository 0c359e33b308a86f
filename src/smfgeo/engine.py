"""Geodesic engine.

Geodesics are straight inside each triangle chart, transferred across
edges by the gluing isometry (so that unfolding two adjacent triangles
makes the segments collinear) and continued across a vertex of degree d
so that the angle on each side of the line equals half the cone angle
d * 60 degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import chart
from .chart import Isometry, cross, dot
from .numbers import Scalars
from .surface import (
    FrontierVertex,
    SurfaceError,
    SurfacePoint,
    Triangulation,
    UnmatchedEdge,
    canonicalize_point,
    grow_frontier,
    normalize_bary,
    point_at_vertex,
)


class EngineError(Exception):
    pass


class FrontierReached(EngineError):
    """A trace ran into an unmatched edge; the caller may grow and retry."""

    def __init__(self, tri, edge):
        super().__init__(f"frontier at edge {edge} of triangle {tri}")
        self.tri = tri
        self.edge = edge


@dataclass(frozen=True)
class Ray:
    """Canonical surface point plus direction in that triangle's chart."""

    point: SurfacePoint
    dir: tuple

    def __repr__(self):
        return f"Ray({self.point}, dir=({self.dir[0]}, {self.dir[1]}))"


@dataclass(frozen=True)
class Segment:
    tri: int
    a: tuple  # entry point, chart coords
    b: tuple  # exit point, chart coords

    def length(self) -> float:
        dx = float(self.b[0]) - float(self.a[0])
        dy = float(self.b[1]) - float(self.a[1])
        return math.hypot(dx, dy)


# -- path events -----------------------------------------------------------


@dataclass(frozen=True)
class EdgeCrossing:
    tri: int
    edge: int
    point: SurfacePoint


@dataclass(frozen=True)
class VertexCrossing:
    vertex: int
    incoming_dir: tuple
    outgoing_dir: tuple
    cone_angle_deg: int
    tri_in: int
    tri_out: int


@dataclass(frozen=True)
class Closure:
    period: float


@dataclass(frozen=True)
class ArcBudgetExhausted:
    arc: float


@dataclass(frozen=True)
class GrowthLimit:
    detail: str


@dataclass
class GeodesicPath:
    start: Ray
    segments: list = field(default_factory=list)
    events: list = field(default_factory=list)  # (signed arc position, event)
    arc_length: float = 0.0
    two_sided: bool = False
    surface: Triangulation = None

    def terminal_events(self):
        return [ev for _, ev in self.events
                if isinstance(ev, (Closure, ArcBudgetExhausted, GrowthLimit))]

    def by_triangle(self):
        d = {}
        for i, seg in enumerate(self.segments):
            d.setdefault(seg.tri, []).append(i)
        return d


@dataclass
class Line:
    """A two-sided geodesic, possibly closed with a period."""

    path: GeodesicPath
    period: float = None

    @property
    def closed(self) -> bool:
        return self.period is not None


# -- ray canonical form ----------------------------------------------------


def _sector_take(ctx, ux, uy, wx, wy, vx, vy):
    """Does direction w belong to the CCW sector from u to v?

    A direction along u belongs to this sector (carrying triangle on the
    left of travel); a direction along v belongs to the next one.
    """
    c1 = ctx.sign(cross(ux, uy, wx, wy))
    c2 = ctx.sign(cross(wx, wy, vx, vy))
    if c1 == 0 and ctx.sign(dot(ux, uy, wx, wy)) > 0:
        return True
    return c1 > 0 and c2 > 0


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


def ray_canonical(surf: Triangulation, ctx: Scalars, point: SurfacePoint, d) -> Ray:
    """Express (point, direction) with the correct carrying triangle.

    Edge points with an along-edge direction are carried by the triangle
    on the left of travel; vertex points by the fan sector containing
    the direction, resolved by nearest fan walk from the given chart
    (the planar direction alone is ambiguous on a 420-degree cone).
    """
    b = normalize_bary(ctx, point.bary)
    p = SurfacePoint(point.tri, b)
    v = point_at_vertex(surf, p, ctx)
    if v is not None:
        return _vertex_ray(surf, ctx, v, d, surf.vertex_slot(p.tri, v), p.tri)
    p = canonicalize_point(p, surf, ctx)
    if p.tri != point.tri:
        # Direction must follow the point into the canonical triangle.
        path_iso = _edge_move_iso(surf, ctx, point, p)
        d = path_iso.apply_vec(*d)
    zeros = [i for i in range(3) if ctx.is_zero(p.bary[i])]
    if zeros:
        e = (zeros[0] + 1) % 3
        cs = chart.corners(ctx)
        ex = cs[(e + 1) % 3][0] - cs[e][0]
        ey = cs[(e + 1) % 3][1] - cs[e][1]
        c = ctx.sign(cross(ex, ey, d[0], d[1]))
        if c < 0 or (c == 0 and ctx.sign(dot(ex, ey, d[0], d[1])) < 0):
            # Direction leaves the triangle (or runs along the edge with
            # this triangle on the right): carry by the neighbor.
            nbr = surf.adj.get((p.tri, e))
            if nbr is not None:
                iso = surf.transfer(ctx, p.tri, e)
                t2, e2 = nbr
                nb = [ctx.zero, ctx.zero, ctx.zero]
                nb[e2] = p.bary[(e + 1) % 3]
                nb[(e2 + 1) % 3] = p.bary[e]
                return Ray(SurfacePoint(t2, tuple(nb)), iso.apply_vec(*d))
    return Ray(p, tuple(d))


def _edge_move_iso(surf, ctx, old: SurfacePoint, new: SurfacePoint) -> Isometry:
    """Isometry chart(old.tri) -> chart(new.tri) when canonicalization moved p."""
    for e in range(3):
        nbr = surf.adj.get((old.tri, e))
        if nbr and nbr[0] == new.tri:
            return surf.transfer(ctx, old.tri, e)
    # Vertex move: go through the fan.
    v = point_at_vertex(surf, new, ctx)
    if v is None:
        raise EngineError("canonicalization moved point between non-adjacent triangles")
    s_old = surf.vertex_slot(old.tri, v)
    frames = fan_frames(surf, ctx, v, (old.tri, s_old))
    f0 = frames[0][2]
    for t, s, frame in frames:
        if t == new.tri:
            return frame.inverse().compose(f0)
    raise EngineError("vertex fan does not reach canonical triangle")


def _vertex_ray(surf, ctx, v, d, slot, tri) -> Ray:
    """Canonical ray at a vertex: fan sector containing d, preferring the
    sector nearest (in fan steps) to the chart the direction was given in."""
    frames = fan_frames(surf, ctx, v, (tri, slot))
    w = frames[0][2].apply_vec(*d)
    cs = chart.corners(ctx)
    n = len(frames)
    order = [0]
    for k in range(1, n // 2 + 1):
        order.append(k)
        if k != n - k:
            order.append(n - k)
    for j in order:
        t, s, frame = frames[j % n]
        u1x, u1y = frame.apply_vec(cs[(s + 1) % 3][0] - cs[s][0],
                                   cs[(s + 1) % 3][1] - cs[s][1])
        u2x, u2y = frame.apply_vec(cs[(s + 2) % 3][0] - cs[s][0],
                                   cs[(s + 2) % 3][1] - cs[s][1])
        if _sector_take(ctx, u1x, u1y, w[0], w[1], u2x, u2y):
            b = [ctx.zero, ctx.zero, ctx.zero]
            b[s] = ctx.one
            return Ray(SurfacePoint(t, tuple(b)), frame.inverse().apply_vec(*w))
    raise EngineError(f"direction not in any fan sector at vertex {v}")


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
    """
    t = ray.point.tri
    b = ray.point.bary
    dxy = ray.dir
    db = chart.bary_velocity(ctx, dxy[0], dxy[1])
    t_exit = None
    for i in range(3):
        if ctx.sign(db[i]) < 0 and ctx.sign(b[i]) >= 0:
            cand = -b[i] / db[i] if ctx.sign(b[i]) > 0 else ctx.zero
            if t_exit is None or ctx.lt(cand, t_exit):
                t_exit = cand
    if t_exit is None or ctx.sign(t_exit) < 0:
        raise EngineError(f"ray does not advance inside triangle {t}: {ray}")
    if ctx.sign(t_exit) == 0 and not ctx.exact:
        # Microscopic chord squeezing past a vertex: take it and let the
        # exit snap resolve the hit (vertex tolerance semantics).
        t_exit = abs(float(t_exit))
    exit_b = normalize_bary(
        ctx, (b[0] + db[0] * t_exit, b[1] + db[1] * t_exit, b[2] + db[2] * t_exit))
    a_xy = chart.xy_of_bary(ctx, b)
    b_xy = chart.xy_of_bary(ctx, exit_b)
    seg = Segment(t, a_xy, b_xy)
    zeros = [i for i in range(3) if ctx.is_zero(exit_b[i])]
    if len(zeros) >= 2:
        slot = next(i for i in range(3) if i not in zeros)
        return seg, ("vertex", surf.tris[t][slot])
    e = (zeros[0] + 1) % 3
    if (t, e) not in surf.adj:
        raise FrontierReached(t, e)
    return seg, ("edge", e)


def transfer_edge(surf: Triangulation, ctx: Scalars, tri: int, edge: int,
                  exit_b, d) -> Ray:
    """Re-express an edge-exit ray in the neighbor's chart."""
    nbr = surf.adj.get((tri, edge))
    if nbr is None:
        raise UnmatchedEdge(f"edge {edge} of triangle {tri}")
    t2, e2 = nbr
    iso = surf.transfer(ctx, tri, edge)
    nb = [ctx.zero, ctx.zero, ctx.zero]
    nb[e2] = exit_b[(edge + 1) % 3]
    nb[(e2 + 1) % 3] = exit_b[edge]
    return Ray(SurfacePoint(t2, tuple(nb)), iso.apply_vec(*d))


def cross_vertex(surf: Triangulation, ctx: Scalars, v: int, arrival_tri: int,
                 d):
    """Continue a geodesic through vertex v by the equal-angle rule.

    `d` is the arrival direction in the chart of `arrival_tri` (pointing
    at v). The outgoing ray leaves v so the fan angle on each side
    between the incoming and outgoing lines is half the cone angle.

    The target sector is found by accumulating intrinsic fan angle, not
    by planar containment: a degree-7 fan unfolds past 360 degrees, so
    planar sector tests are ambiguous in the overlap wedge.
    Returns (outgoing Ray, VertexCrossing event).
    """
    if v in surf.frontier:
        raise FrontierVertex(f"vertex {v} has an incomplete fan")
    deg = surf.degree[v]
    if deg not in (5, 6, 7):
        raise EngineError(f"vertex {v} has degree {deg}")
    slot = surf.vertex_slot(arrival_tri, v)
    frames = fan_frames(surf, ctx, v, (arrival_tri, slot))
    bx, by = frames[0][2].apply_vec(-d[0], -d[1])
    cs = chart.corners(ctx)

    def sector_edges(j):
        t, s, frame = frames[j]
        u1 = frame.apply_vec(cs[(s + 1) % 3][0] - cs[s][0],
                             cs[(s + 1) % 3][1] - cs[s][1])
        u2 = frame.apply_vec(cs[(s + 2) % 3][0] - cs[s][0],
                             cs[(s + 2) % 3][1] - cs[s][1])
        return u1, u2

    # Anchor at the sector actually containing the back direction; the
    # arrival label can be off by a step after a degenerate microchord.
    # Nearest-first keeps the 420-degree overlap unambiguous.
    order = [0]
    for k in range(1, deg // 2 + 1):
        order.append(k % deg)
        if (deg - k) % deg not in order:
            order.append(deg - k)
    j0 = None
    for j in order:
        (u1x, u1y), (u2x, u2y) = sector_edges(j)
        c0 = ctx.sign(cross(u1x, u1y, bx, by))
        c60 = ctx.sign(cross(bx, by, u2x, u2y))
        if c0 >= 0 and c60 >= 0:
            j0 = j
            break
    if j0 is None and not ctx.exact:
        # Tolerance dirt: accept the sector with the least violation.
        best = None
        n = math.hypot(float(bx), float(by))
        for j in order:
            (u1x, u1y), (u2x, u2y) = sector_edges(j)
            worst = min(float(cross(u1x, u1y, bx, by)),
                        float(cross(bx, by, u2x, u2y))) / n
            if best is None or worst > best[1]:
                best = (j, worst)
        if best is not None and best[1] > -1e-6:
            j0 = best[0]
    if j0 is None:
        raise EngineError(f"arrival direction not inside the fan at vertex {v}")
    (u1x, u1y), (u2x, u2y) = sector_edges(j0)
    c0 = ctx.sign(cross(u1x, u1y, bx, by))
    c60 = ctx.sign(cross(bx, by, u2x, u2y))
    mx, my = chart.rotate(ctx, 1, u1x, u1y)
    cmid = ctx.sign(cross(mx, my, bx, by))
    if c0 == 0:
        off = deg // 2
    elif c60 == 0:
        off = 1 + deg // 2
    elif cmid < 0:
        off = deg // 2 if deg % 2 == 0 else (deg - 1) // 2
    else:
        off = (deg + 1) // 2
    j = (j0 + off) % deg
    # Rotate the back direction CCW by half the cone angle (deg * 30 deg);
    # modulo 360 this is the outgoing planar direction in the fan plane.
    wx, wy = chart.rotate(ctx, deg, bx, by)
    t, s, frame = frames[j]
    out_d = frame.inverse().apply_vec(wx, wy)
    b = [ctx.zero, ctx.zero, ctx.zero]
    b[s] = ctx.one
    out = Ray(SurfacePoint(t, tuple(b)), out_d)
    ev = VertexCrossing(v, tuple(d), tuple(out_d), 60 * deg, arrival_tri, t)
    return out, ev


def reverse_ray(surf: Triangulation, ctx: Scalars, ray: Ray) -> Ray:
    """The opposite ray of the line through `ray`."""
    v = point_at_vertex(surf, ray.point, ctx)
    d = (-ray.dir[0], -ray.dir[1])
    if v is None:
        return ray_canonical(surf, ctx, ray.point, d)
    if v in surf.frontier:
        raise FrontierVertex(f"vertex {v} has an incomplete fan")
    out, _ = cross_vertex(surf, ctx, v, ray.point.tri, d)
    return out


# -- tracing ---------------------------------------------------------------


def _segment_recurrence(ctx, seg: Segment, start_xy, start_dir):
    """Parameter in [0, 1] where the segment passes through the start ray,
    or None.  Float mode uses a drift-tolerant threshold."""
    sdx = seg.b[0] - seg.a[0]
    sdy = seg.b[1] - seg.a[1]
    tol = None if ctx.exact else max(ctx.eps, 1e-7)
    cx = cross(sdx, sdy, start_dir[0], start_dir[1])
    dt = dot(sdx, sdy, start_dir[0], start_dir[1])
    if tol is None:
        if ctx.sign(cx) != 0 or ctx.sign(dt) <= 0:
            return None
    elif abs(float(cx)) > tol or float(dt) <= 0:
        return None
    wx = start_xy[0] - seg.a[0]
    wy = start_xy[1] - seg.a[1]
    off = cross(sdx, sdy, wx, wy)
    if tol is None:
        if ctx.sign(off) != 0:
            return None
    elif abs(float(off)) > tol:
        return None
    uu = float(dot(sdx, sdy, sdx, sdy))
    if uu == 0.0:
        return None
    t = float(dot(sdx, sdy, wx, wy)) / uu
    lo = -1e-12 if tol is None else -tol
    hi = 1.0 - lo
    if lo <= t <= hi:
        return min(max(t, 0.0), 1.0)
    return None


def _trace_one_way(ray: Ray, surf: Triangulation, ctx: Scalars, arc_budget,
                   growth_budget, watch_closure=True, hooks=None):
    """Forward trace; returns (segments, events, arc, final surf, final ray)."""
    segments = []
    events = []
    arc = 0.0
    start_xy = chart.xy_of_bary(ctx, ray.point.bary)
    start_tri = ray.point.tri
    start_dir = ray.dir
    cur = ray
    stalled = 0
    while True:
        if len(segments) and segments[-1].length() < 1e-12:
            stalled += 1
            if stalled > 6:
                events.append((arc, GrowthLimit("degenerate stall")))
                return segments, events, arc, surf, cur
        else:
            stalled = 0
        try:
            seg, hit = step(cur, surf, ctx)
        except FrontierReached as fr:
            surf2 = _try_grow(surf, growth_budget)
            if surf2 is None:
                events.append((arc, GrowthLimit(str(fr))))
                return segments, events, arc, surf, cur
            surf = surf2
            cur = Ray(cur.point, cur.dir)  # same coordinates, new version
            continue
        segments.append(seg)
        if watch_closure and len(segments) > 1 and seg.tri == start_tri:
            t = _segment_recurrence(ctx, seg, start_xy, start_dir)
            if t is not None and (t > 0 or arc > 0):
                period = arc + t * seg.length()
                if period > 10 * float(ctx.eps):
                    arc += seg.length()
                    events.append((period, Closure(period)))
                    return segments, events, arc, surf, cur
        arc += seg.length()
        exit_b = chart.bary_of_xy(ctx, seg.b[0], seg.b[1])
        exit_b = normalize_bary(ctx, exit_b)
        if hit[0] == "vertex":
            v = hit[1]
            if v in surf.frontier:
                surf2 = _try_grow(surf, growth_budget)
                if surf2 is None:
                    events.append((arc, GrowthLimit(f"frontier vertex {v}")))
                    return segments, events, arc, surf, cur
                surf = surf2
            nxt, ev = cross_vertex(surf, ctx, v, seg.tri, cur.dir)
            events.append((arc, ev))
            cur = nxt
        else:
            e = hit[1]
            nxt = transfer_edge(surf, ctx, seg.tri, e, exit_b, cur.dir)
            pt = canonicalize_point(SurfacePoint(seg.tri, exit_b), surf, ctx)
            events.append((arc, EdgeCrossing(seg.tri, e, pt)))
            cur = nxt  # transversal transfer lands in canonical ray form
        if hooks:
            res = hooks(surf, cur, arc, segments, events)
            if res == "stop":
                return segments, events, arc, surf, cur
        if arc >= arc_budget:
            events.append((arc, ArcBudgetExhausted(arc)))
            return segments, events, arc, surf, cur


def _try_grow(surf: Triangulation, growth_budget: int):
    if surf.rule is None or not surf.frontier:
        return None
    if len(surf.tris) >= growth_budget:
        return None
    try:
        grown = grow_frontier(surf, 1)
    except SurfaceError:
        return None
    if len(grown.tris) > growth_budget:
        return None
    return grown


def trace(ray: Ray, surf: Triangulation, ctx: Scalars, arc_budget=200.0,
          growth_budget=1_000_000, two_sided=False, hooks=None) -> GeodesicPath:
    """Trace the geodesic through `ray` until a terminal event.

    Lazy surfaces are grown on demand within `growth_budget` triangles.
    With `two_sided`, the reversed ray is traced as well and stitched in
    front with negative arc positions.
    """
    segments, events, arc, surf, _ = _trace_one_way(
        ray, surf, ctx, arc_budget, growth_budget, hooks=hooks)
    path = GeodesicPath(start=ray, two_sided=two_sided, surface=surf)
    if two_sided and not any(isinstance(ev, Closure) for _, ev in events):
        back = reverse_ray(surf, ctx, ray)
        bsegs, bevents, barc, surf, _ = _trace_one_way(
            back, surf, ctx, arc_budget, growth_budget,
            watch_closure=False, hooks=hooks)
        path.surface = surf
        path.segments = [Segment(s.tri, s.b, s.a) for s in reversed(bsegs)]
        path.events = [(-a, ev) for a, ev in reversed(bevents)]
        path.arc_length = barc + arc
    else:
        path.arc_length = arc
    path.segments += segments
    path.events += events
    return path


def detect_closure(path: GeodesicPath):
    """Smallest recurrence arc length recorded on the path, if any."""
    periods = [ev.period for _, ev in path.events if isinstance(ev, Closure)]
    return min(periods) if periods else None


def line_through(surf: Triangulation, ctx: Scalars, tri: int, bary, d,
                 arc_budget=200.0, growth_budget=1_000_000) -> Line:
    """Trace the full line through a point and wrap it as a Line."""
    ray = make_ray(surf, ctx, tri, bary, d)
    path = trace(ray, surf, ctx, arc_budget, growth_budget, two_sided=True)
    return Line(path, detect_closure(path))


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


# -- unfolding ---------------------------------------------------------------


@dataclass
class UnfoldedStrip:
    triangles: list   # (tri, ((x,y), (x,y), (x,y)))
    polyline: list    # (x, y) floats
    bends: list       # (index into polyline, signed bend degrees)


def unfold_strip(path: GeodesicPath, surf: Triangulation, ctx: Scalars) -> UnfoldedStrip:
    """Lay the path's triangle sequence flat and map the geodesic onto it.

    The polyline is straight across every edge crossing and bends by the
    defect angle (180 - cone/2, signed) at vertex crossings, where the
    fan is unfolded along its counterclockwise side.
    """
    if not path.segments:
        return UnfoldedStrip([], [], [])
    frames = [Isometry.identity(ctx)]
    segs = path.segments
    for k in range(1, len(segs)):
        prev, curn = segs[k - 1], segs[k]
        iso = _strip_link(surf, ctx, prev, curn)
        frames.append(frames[-1].compose(iso.inverse()))
    cs = chart.corners(ctx)
    placed = []
    for seg, frame in zip(segs, frames):
        pts = tuple(tuple(float(c) for c in frame.apply(px, py)) for px, py in cs)
        placed.append((seg.tri, pts))
    poly = [tuple(float(c) for c in frames[0].apply(*segs[0].a))]
    for seg, frame in zip(segs, frames):
        poly.append(tuple(float(c) for c in frame.apply(*seg.b)))
    bends = []
    for k, (_, ev) in enumerate(path.events):
        if isinstance(ev, VertexCrossing):
            bends.append((ev.vertex, 180 - ev.cone_angle_deg // 2))
    return UnfoldedStrip(placed, poly, bends)


def link_iso(surf, ctx, tri_a: int, tri_b: int) -> Isometry:
    """Chart(tri_a) -> chart(tri_b) across an edge or around a shared vertex."""
    if tri_a == tri_b:
        return Isometry.identity(ctx)
    for e in range(3):
        nbr = surf.adj.get((tri_a, e))
        if nbr and nbr[0] == tri_b:
            return surf.transfer(ctx, tri_a, e)
    shared = set(surf.tris[tri_a]) & set(surf.tris[tri_b])
    if not shared:
        raise EngineError(
            f"triangles {tri_a}, {tri_b} share no vertex")
    v = min(shared)
    frames = fan_frames(surf, ctx, v, (tri_a, surf.vertex_slot(tri_a, v)))
    f0 = frames[0][2]
    for t, s, frame in frames:
        if t == tri_b:
            return frame.inverse().compose(f0)
    raise EngineError(f"fan walk from {tri_a} never reaches {tri_b}")


def _strip_link(surf, ctx, prev: Segment, curn: Segment) -> Isometry:
    """Chart(prev.tri) -> chart(curn.tri), unfolding CCW around vertices."""
    return link_iso(surf, ctx, prev.tri, curn.tri)
