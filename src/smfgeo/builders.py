"""Model builders: flat plane, the adjacent 5-7 pair model, and the silo.

Each builder seeds a small disk, a triangle list that
`surface.from_triangles` pairs into a surface, grows rings under a
generation rule and exposes named fixtures (points, vertices and line
specs) whose classifications, not coordinates, are the contract.  Fixture positions
are computed once with exact arithmetic so both number modes see the
same points.

A builder returns the planned surface of `grow_frontier`, whose plans
refuse a gap under 2 and a closing ring (SurfaceError); placing the
fixtures builds only the sectors it reads.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import chart, engine
from .numbers import Q3, Scalars
from .surface import (
    GenerationRule,
    SurfacePoint,
    Triangulation,
    canonicalize_point,
    develop,
    from_triangles,
    grow_frontier,
    normalize_bary,
)

RULE_FLAT = GenerationRule("flat", (6,))
RULE_SEMI = GenerationRule("semi_paradoxist", (6,), special=((0, 5), (1, 7)))
RULE_SILO = GenerationRule("silo", (5, 5, 6, 7))

# Vertex ids fixed by the seeds.
SEMI_ELLIPTIC_VERTEX = 0   # degree 5
SEMI_HYPERBOLIC_VERTEX = 1  # degree 7
SILO_APEX_VERTEX = 0

_EXACT = Scalars("exact")

_F3 = Fraction(1, 3)
_CENTROID = (_F3, _F3, _F3)


class PointFixture(namedtuple("PointFixture", "tri bary")):
    """`bary` holds Fractions or Q3s: it is mode independent."""

    __slots__ = ()


class EdgePointFixture(namedtuple("EdgePointFixture", "u v t")):
    """`t` is the exact parameter from u to v, a Fraction or a Q3."""

    __slots__ = ()


class VertexFixture(namedtuple("VertexFixture", "vertex")):
    __slots__ = ()


class LineFixture(namedtuple("LineFixture", "tri bary dirvec theta_deg",
                             defaults=(None, None))):
    """`dirvec` is an exact chart direction (Q3, Q3); `theta_deg` the
    float-mode fallback for arbitrary angles."""

    __slots__ = ()


def resolve_point(surf: Triangulation, ctx: Scalars, fx) -> SurfacePoint:
    if isinstance(fx, VertexFixture):
        from .surface import vertex_point
        return vertex_point(surf, ctx, fx.vertex)
    if isinstance(fx, EdgePointFixture):
        return point_on_edge(surf, ctx, fx.u, fx.v, fx.t)
    b = tuple(ctx.of(x) for x in fx.bary)
    return canonicalize_point(SurfacePoint(fx.tri, b), surf, ctx)


def resolve_ray(surf: Triangulation, ctx: Scalars, fx: LineFixture) -> engine.Ray:
    if fx.dirvec is not None:
        d = (ctx.of(fx.dirvec[0]), ctx.of(fx.dirvec[1]))
    else:
        d = ctx.direction(fx.theta_deg)
    return engine.make_ray(surf, ctx, fx.tri, fx.bary, d)


# -- seeds -----------------------------------------------------------------


def _seed_fan(n: int, rule: GenerationRule) -> Triangulation:
    """n triangles around vertex 0 (ring 0), on the cycle 1..n (ring 1)."""
    ring = range(1, n + 1)
    return from_triangles([(0, v, v % n + 1) for v in ring], rule,
                          rings=((0,), tuple(ring)),
                          ring_of={0: 0, **dict.fromkeys(ring, 1)})


def build_flat_plane(radius: int) -> Triangulation:
    """Disk of the regular triangular tiling, every interior vertex degree 6."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    surf = grow_frontier(_seed_fan(6, RULE_FLAT), radius - 1)
    surf.labels.update(_flat_fixtures(surf))
    return surf


def _flat_fixtures(surf: Triangulation):
    # l runs east through the centroid of seed triangle 0; P sits a
    # couple of rows north of it.
    labels = {
        "O": PointFixture(0, _CENTROID),
        "l": LineFixture(0, _CENTROID, dirvec=(Q3(1), Q3(0))),
    }
    if surf.n_rings() >= 3:
        ray = engine.make_ray(surf, _EXACT, 0, _CENTROID, (Q3(0), Q3(1)))
        tri = _triangle_at(surf, ray, 1.6)
        labels["P"] = PointFixture(tri, _CENTROID)
    return labels


# The named fixtures sit up to four rows from the 5-7 pair; builds are
# grown at least this far so their construction walks stay inside.
SEMI_FIXTURE_RADIUS = 8


def build_semi_paradoxist(radius: int) -> Triangulation:
    """Planar disk with one degree-5 and one degree-7 vertex sharing an edge."""
    if radius < 2:
        raise ValueError("radius must be >= 2")
    # The degree-5 vertex 0 and the degree-7 vertex 1 share the edge of
    # two triangles.
    surf = from_triangles([(0, 1, 2), (1, 0, 3)], RULE_SEMI)
    surf = grow_frontier(surf, max(radius, SEMI_FIXTURE_RADIUS))
    surf.labels.update(_semi_fixtures(surf))
    return surf


# Calibrated placements for the 5-7 pair model.  The line runs through the
# degree-5 vertex (labeled O in the figures), bending 30 degrees there, so
# it pinches a 150-degree side whose nearby points see every line cross,
# and opens a 210-degree side with an arc of parallels.  P sits off to the
# side where exactly the one parallel survives.  Coordinates are in the
# seed triangle's chart (degree-5 vertex at the origin, degree-7 vertex
# at (1,0)); see scripts/calibrate_fixtures.py for the survey.
SEMI_L_DIR = (Q3(0), Q3(1))      # chart of seed triangle 0: away from the edge
SEMI_P_AT = (-2.0, 0.45)
SEMI_Q_AT = (0.5, 1.8)
SEMI_R_AT = (2.0, 1.35)
SEMI_CUT_OFFSET = Fraction(7, 20)
SEMI_CUT_DIR = (Q3(5), Q3(1))    # irrational slope relative to the rows


def _semi_fixtures(surf: Triangulation):
    ev = SEMI_ELLIPTIC_VERTEX
    labels = {
        "E": VertexFixture(ev),
        "H": VertexFixture(SEMI_HYPERBOLIC_VERTEX),
        "O": VertexFixture(ev),
        "l": LineFixture(0, (Fraction(1), Fraction(0), Fraction(0)),
                         dirvec=SEMI_L_DIR),
    }
    at = (SEMI_P_AT, SEMI_Q_AT, SEMI_R_AT)
    for name, t in zip("PQR", _triangles_near(surf, at)):
        labels[name] = PointFixture(t, _CENTROID)
    # Hidden cut ray for the flat-complement development, heading east at
    # a slope that never meets a lattice vertex.
    tc = Fraction(1) - SEMI_CUT_OFFSET
    labels["_cut"] = LineFixture(0, (tc, SEMI_CUT_OFFSET, Fraction(0)),
                                 dirvec=SEMI_CUT_DIR)
    return labels


# Squared centroid distances closer than this are a tie, which the
# triangle placed first keeps.
CENTROID_TIE = 1e-9


def _triangles_near(surf: Triangulation, targets) -> list:
    """For each xy of `targets`, the triangle whose developed centroid is
    closest to it, in one winding naive float development anchored at
    triangle 0."""
    ctx = Scalars("float")
    cs = chart.corners(ctx)
    cx = sum(c[0] for c in cs) / 3
    cy = sum(c[1] for c in cs) / 3
    nearest = {}   # triangle -> squared distance to the nearest target
    best = [(float("inf"), 0)] * len(targets)
    # Development stops at triangles whose centroid lies farther than 8
    # from every target.
    for t, frame in develop(surf, ctx, 0, chart.Isometry.identity(ctx),
                            lambda t, e, t2: nearest[t] <= 64.0):
        px, py = frame.apply(cx, cy)
        dists = [(px - x) ** 2 + (py - y) ** 2 for x, y in targets]
        nearest[t] = min(dists)
        for i, d in enumerate(dists):
            if d < best[i][0] - CENTROID_TIE:
                best[i] = (d, t)
    return [t for _, t in best]


def build_silo(hyperbolic_rings: int) -> Triangulation:
    """Cone cap of six degree-5 vertices on a one-row cylinder, extended
    below by degree-7 rings."""
    if hyperbolic_rings < 0:
        raise ValueError("hyperbolic_rings must be >= 0")
    surf = grow_frontier(_seed_fan(5, RULE_SILO), 2 + hyperbolic_rings)
    surf.labels.update(_silo_fixtures(surf, hyperbolic_rings))
    return surf


# Each model builder by the name an SMF `model` line and `smfgeo search`
# give it, with the one parameter it takes and that parameter's default.
MODELS = {"flat": (build_flat_plane, "radius", 3),
          "semi_paradoxist": (build_semi_paradoxist, "radius", 4),
          "silo": (build_silo, "rings", 3)}


# Calibrated placements for the silo (see scripts/calibrate_fixtures.py).
# The line through vertex I runs down a chain of alternating vertices and
# edge midpoints; Q' sits on its ring-8 edge crossing, deep enough that I
# is its only sightline to the silo, and Q'' a quarter edge to the side.
SILO_QPRIME_RING_OFFSET = 5   # Q' sits where the line through I meets this ring
SILO_QSECOND_SHIFT = Fraction(1, 4)  # Q'' slide along that ring edge


def _silo_fixtures(surf: Triangulation, hyperbolic_rings: int):
    ctx = _EXACT
    labels = {"C": VertexFixture(SILO_APEX_VERTEX),
              "R": PointFixture(0, _CENTROID)}
    # l runs along the ring-2 cycle, cap on its left.
    cyc = surf.ring_cycle(2)
    a, bb = cyc[0], cyc[1]
    t, e = surf.directed_edge(a, bb)
    half = Fraction(1, 2)
    bary = [Fraction(0)] * 3
    bary[e] = half
    bary[(e + 1) % 3] = half
    cs = chart.corners(ctx)
    dx = cs[(e + 1) % 3][0] - cs[e][0]
    dy = cs[(e + 1) % 3][1] - cs[e][1]
    labels["l"] = LineFixture(t, tuple(bary), dirvec=(dx, dy))
    # P: centroid of the cylinder-row triangle under l's base edge.
    t_down, _ = surf.directed_edge(bb, a)
    labels["P"] = PointFixture(t_down, _CENTROID)
    if hyperbolic_rings >= 1:
        cyc3 = surf.ring_cycle(3)
        t_q, _ = surf.directed_edge(cyc3[1], cyc3[0])
        labels["Q"] = PointFixture(t_q, _CENTROID)
        labels["I"] = VertexFixture(cyc3[0])
        labels["F"] = VertexFixture(cyc3[1])
    if hyperbolic_rings >= 1 + SILO_QPRIME_RING_OFFSET:
        qp, qpp = _silo_far_points(surf, ctx, cyc3[0])
        labels["Qp"] = qp
        labels["Qpp"] = qpp
    return labels


def _silo_far_points(surf: Triangulation, ctx: Scalars, vertex_i: int):
    """Q' on the outward continuation of a line through vertex I, Q''
    slid sideways along the same ring edge."""
    up = _vertex_bisector_ray(surf, ctx, vertex_i, toward_ring=2)
    down = engine.reverse_ray(surf, ctx, up)
    ring = 3 + SILO_QPRIME_RING_OFFSET
    hit = _ring_crossing(surf, ctx, down, ring)
    if hit is None:
        raise RuntimeError("silo too small for the far fixtures")
    (u, v), tpar = hit
    shift = tpar + SILO_QSECOND_SHIFT
    if not shift < 1:
        shift = tpar - SILO_QSECOND_SHIFT
    return EdgePointFixture(u, v, tpar), EdgePointFixture(u, v, shift)


# -- geometric helpers used by the builders --------------------------------


def _vertex_bisector_ray(surf, ctx, v, toward_ring) -> engine.Ray:
    """Ray from v through the opposite edge midpoint of the middle fan
    triangle on the side where every vertex ring is <= v's birth ring."""
    fan = surf.fan_ccw(v)
    n = len(fan)
    own = surf.birth_ring(v)
    flags = [surf.tri_ring(t) <= own for t, _ in fan]
    if not any(flags) or all(flags):
        raise RuntimeError(f"vertex {v} has no proper inner fan arc")
    start = next(i for i in range(n) if flags[i] and not flags[i - 1])
    run = []
    i = start
    while flags[i % n]:
        run.append(fan[i % n])
        i += 1
    t, s = run[len(run) // 2]
    cs = chart.corners(ctx)
    mx = (cs[(s + 1) % 3][0] + cs[(s + 2) % 3][0]) * ctx.half
    my = (cs[(s + 1) % 3][1] + cs[(s + 2) % 3][1]) * ctx.half
    d = (mx - cs[s][0], my - cs[s][1])
    b = [ctx.zero, ctx.zero, ctx.zero]
    b[s] = ctx.one
    return engine.ray_canonical(surf, ctx, SurfacePoint(t, tuple(b)), d)


def _triangle_at(surf: Triangulation, ray: engine.Ray, arc: float) -> int:
    """Triangle reached after walking `arc` along the ray."""
    path = engine.trace(ray, surf, _EXACT, arc_budget=arc + 2.0,
                        growth_budget=surf.n_triangles())
    acc = 0.0
    for seg in path.segments:
        acc += seg.length()
        if acc >= arc:
            return seg.tri
    return path.segments[-1].tri


def _ring_crossing(surf: Triangulation, ctx, ray: engine.Ray, ring: int):
    """First crossing of a ring cycle: ((u, v), exact edge parameter).

    The parameter runs from ring vertex u toward ring vertex v along the
    crossed cycle edge.
    """
    if ring >= surf.n_rings():
        return None
    on_ring = set(surf.ring_cycle(ring))
    path = engine.trace(ray, surf, ctx, arc_budget=4.0 * ring + 10.0,
                        growth_budget=surf.n_triangles())
    for _, ev in path.events:
        if isinstance(ev, engine.EdgeCrossing):
            u, v = surf.edge_vertices(ev.tri, ev.edge)
            if u in on_ring and v in on_ring:
                p = ev.point
                slot_u = surf.vertex_slot(p.tri, u)
                return (u, v), ctx.one - p.bary[slot_u]
    return None


def point_on_edge(surf: Triangulation, ctx, u: int, v: int, t) -> SurfacePoint:
    """The point at parameter t from u to v along the edge (u, v)."""
    tri, e = surf.directed_edge(u, v)
    tt = ctx.of(t)
    b = [ctx.zero, ctx.zero, ctx.zero]
    b[e] = ctx.one - tt
    b[(e + 1) % 3] = tt
    return canonicalize_point(SurfacePoint(tri, tuple(b)), surf, ctx)


# -- straddle-line figures (degree 5 and degree 7 neighborhoods) ------------


def straddle_pair(surf: Triangulation, ctx: Scalars, v: int, offset=None,
                  back=None):
    """Two rays parallel to a line through vertex v, offset half an edge
    to each side, launched from half a unit before the vertex.

    Built in the unfolded fan frame so both rays enter the triangles on
    either side of v; their behavior beyond v separates degree 5 from
    degree 7.
    """
    offset = ctx.half if offset is None else ctx.of(offset)
    back = ctx.half if back is None else ctx.of(back)
    return tuple(_fan_ray(surf, ctx, v, offset * ctx.of(sgn), back)
                 for sgn in (1, -1))


def middle_line_ray(surf: Triangulation, ctx: Scalars, v: int):
    """Ray along the first fan edge into vertex v (the middle line of the
    straddle figures), starting half a unit before the vertex."""
    return _fan_ray(surf, ctx, v, ctx.zero, ctx.half)


def _fan_ray(surf, ctx, v, offset, back) -> engine.Ray:
    """Ray along the first fan edge into vertex v, i.e. the unfolded image
    of the edge from v to its CCW neighbor, moved `offset` to its left in
    the unfolded fan plane and starting `back` before the vertex, in the
    fan triangle that holds its start."""
    frames = engine.fan_frames(surf, ctx, v, surf.incident(v))
    cs = chart.corners(ctx)
    _, s, f0 = frames[0]
    ux, uy = f0.apply_vec(cs[(s + 1) % 3][0] - cs[s][0],
                          cs[(s + 1) % 3][1] - cs[s][1])
    x, y = -ux * back - uy * offset, -uy * back + ux * offset
    for t, _, frame in frames:
        inv = frame.inverse()
        b = chart.bary_of_xy(ctx, *inv.apply(x, y))
        if all(ctx.sign(c) >= 0 for c in b):
            return engine.ray_canonical(surf, ctx, SurfacePoint(
                t, normalize_bary(ctx, b)), inv.apply_vec(ux, uy))
    raise RuntimeError("fan-plane point lies outside the unfolded fan")
