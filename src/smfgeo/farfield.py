"""Far-field machinery behind the parallelism certificates.

Three sound ways a traced line can be certified to never meet the
reference line without tracing forever:

* closure: the traced line is a closed geodesic missing the target;
* ring escape: the trace crossed an audited convex ring outward, and
  the target lies strictly inside that ring (a Gauss-Bonnet argument
  shows the trace can never re-enter);
* flat-complement analysis: outside an audited ring the surface is flat
  with a pure translation holonomy, so straight tails can be compared
  in one developed plane.  A single cut ray keeps the development
  single valued; the shift across the cut is read off that same
  development's seams, and every tail decision is a sign test through
  the run's `Scalars` (exact in exact mode).

The same machinery resolves crossings that lie far beyond any sensible
arc budget (nearly parallel directions) in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import chart
from .chart import Isometry, cross, dot
from .numbers import Scalars
from .surface import IncompleteRing, Triangulation, develop, seams


# -- ring audits -------------------------------------------------------------


@dataclass(frozen=True)
class RingAudit:
    ring: int
    surface_hash: str
    passed: bool
    outward_angles: tuple  # (vertex, degrees) per ring vertex

    @property
    def audit_id(self) -> str:
        return f"ring{self.ring}@{self.surface_hash}"


def ring_inner_count(surf: Triangulation, v: int, k: int) -> int:
    """Incident triangles of a ring-k vertex lying on the inner side."""
    ring_of, tris = surf.ring_of, surf.tris
    return sum(1 for t, _ in surf.fan_ccw(v)
               if all(ring_of[w] <= k for w in tris[t]))


def audit_ring_convexity(surf: Triangulation, ring: int) -> RingAudit:
    """Pass iff every ring vertex shows at least 180 degrees on the
    outward side, so an outward crossing can never be undone."""
    if ring < 1 or ring >= len(surf.rings):
        raise IncompleteRing(f"ring {ring} does not exist")
    cyc = surf.rings[ring]
    angles = []
    ok = True
    for v in cyc:
        if v in surf.frontier:
            raise IncompleteRing(f"ring {ring} vertex {v} is on the frontier")
        inner = ring_inner_count(surf, v, ring)
        outward = 60 * (surf.degree[v] - inner)
        angles.append((v, outward))
        if outward < 180:
            ok = False
    return RingAudit(ring, surf.content_hash(), ok, tuple(angles))


class RingMonitor:
    """Detects ring crossings along a trace and their direction."""

    def __init__(self, surf: Triangulation):
        self.surf = surf
        self.edge_ring = {}
        self.on_own_cycle = set()   # vertices on the cycle of their ring
        for k in range(1, len(surf.rings)):
            cyc = surf.rings[k]
            n = len(cyc)
            for i in range(n):
                self.edge_ring[frozenset((cyc[i], cyc[(i + 1) % n]))] = k
            self.on_own_cycle.update(v for v in cyc if surf.ring_of[v] == k)

    def crossing(self, tri_from: int, edge: int):
        """(ring, outward?) when the crossed edge lies on a ring cycle."""
        surf = self.surf
        u, v = surf.edge_vertices(tri_from, edge)
        k = self.edge_ring.get(frozenset((u, v)))
        if k is None:
            return None
        third = next(w for w in surf.tris[tri_from] if w not in (u, v))
        outward = surf.ring_of[third] <= k
        return k, outward

    def vertex_passage(self, v: int, tri_in: int, tri_out: int):
        """(ring, outward?) when a vertex crossing steps over a ring cycle."""
        surf = self.surf
        if v not in self.on_own_cycle:
            return None
        k = surf.ring_of[v]
        rin = max(surf.ring_of[w] for w in surf.tris[tri_in])
        rout = max(surf.ring_of[w] for w in surf.tris[tri_out])
        if rin <= k and rout > k:
            return k, True
        if rin > k and rout <= k:
            return k, False
        return None


def max_ring_of_path(surf: Triangulation, segments) -> int:
    return max((max(surf.ring_of[v] for v in surf.tris[s.tri])
                for s in segments), default=0)


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class ClosureCertificate:
    period: float

    kind = "closure"


@dataclass(frozen=True)
class RingEscapeCertificate:
    rings_crossed: tuple  # strictly increasing ring indices
    escape_ring: int
    audit_id: str

    kind = "ring_escape"


@dataclass(frozen=True)
class FlatSeparationCertificate:
    """Both straight tails compared against both target tails in the
    developed flat complement; every admissible copy misses."""

    detail: str

    kind = "flat_separation"


# -- silo band ---------------------------------------------------------------


@dataclass
class BandExit:
    kind: str        # "top", "bottom", "top_vertex", "bottom_vertex", "closed"
    ray: object = None        # ((u, v), t, strip direction) at the exit edge
    vertex: int = None
    dir_in: tuple = None
    arc: float = 0.0


class BandFrame:
    """Developed coordinates for one flat cylinder row of the silo.

    The row between ring `top` and ring `top+1` unrolls to the strip
    0 <= y <= h with x periodic of period = ring length; y = h on the
    top cycle.
    """

    def __init__(self, surf: Triangulation, ctx: Scalars, top: int):
        self.surf = surf
        self.ctx = ctx
        self.top = top
        cyc_top = surf.rings[top]
        cyc_bot = surf.rings[top + 1]
        if len(cyc_top) != len(cyc_bot):
            raise ValueError("band rows must have equal cycle lengths")
        self.period = len(cyc_top)
        self.h = ctx.half_sqrt3
        band = set()
        ring_of = surf.ring_of
        for t, tv in enumerate(surf.tris):
            rs = {ring_of[v] for v in tv}
            if rs <= {top, top + 1} and len(rs) == 2:
                band.add(t)
        self.tris = band
        # Anchor: the top cycle's first edge (a, b) runs along y = h, +x
        # direction.  The band triangle under it carries the directed edge
        # (b, a); its frame maps b to (1, h) and a to (0, h), band below.
        a, b = cyc_top[0], cyc_top[1]
        t0, e0 = surf.directed_edge(b, a)
        cs = chart.corners(ctx)
        px, py = cs[e0]
        qx, qy = cs[(e0 + 1) % 3]
        # map p -> (1, h), q -> (0, h): rotation aligning (q - p) to (-1, 0)
        k = self._rot_to(ctx, qx - px, qy - py, ctx.of(-1), ctx.zero)
        rx, ry = chart.rotate(ctx, k, px, py)
        base = Isometry(ctx, k, ctx.one - rx, self.h - ry)
        # Each triangle is placed once: the band is a cycle, and placing a
        # triangle again would shift its frame by the period.
        self.frames = dict(develop(surf, ctx, t0, base,
                                   lambda t, e, t2: t2 in band))
        self.top_edges = self._cycle_edges(cyc_top)
        self.bot_edges = self._cycle_edges(cyc_bot)

    def _cycle_edges(self, cyc):
        out = []
        for i in range(len(cyc)):
            out.append((cyc[i], cyc[(i + 1) % len(cyc)]))
        return out

    @staticmethod
    def _rot_to(ctx, ax, ay, bx, by):
        for k in range(12):
            rx, ry = chart.rotate(ctx, k, ax, ay)
            if ctx.is_zero(rx - bx) and ctx.is_zero(ry - by):
                return k
        raise ValueError("directions not 30-degree related")

    def coords(self, tri: int, xy):
        return self.frames[tri].apply(*xy)

    def x_mod(self, x):
        """Reduce a strip x-coordinate into [0, period)."""
        ctx = self.ctx
        p = self.period
        if not ctx.exact:
            return x % p
        n = math.floor(float(x) / p)
        # exact adjustment around the float guess
        while x - n * p >= p:
            n += 1
        while x - n * p < 0:
            n -= 1
        return x - ctx.of(n * p)

    def locate_top(self, x):
        """Surface point on the top cycle at strip coordinate x."""
        return self._locate(self.top_edges, x, True)

    def locate_bottom(self, x):
        return self._locate(self.bot_edges, x, False)

    def _locate(self, edges, x, is_top):
        ctx = self.ctx
        x = self.x_mod(x)
        i = min(int(float(x)), self.period - 1)
        # top cycle runs toward +x from vertex 0; adjust for rounding
        while i > 0 and ctx.lt(x, ctx.of(i)):
            i -= 1
        while i < self.period - 1 and not ctx.lt(x, ctx.of(i + 1)):
            i += 1
        u, v = edges[i]
        t = x - ctx.of(i)
        return (u, v), t

    def transit(self, surf, ctx, tri: int, xy, d):
        """Fast-forward a straight run through the band.

        Returns a BandExit describing where and how the ray leaves.
        Directions are taken in the band strip frame.
        """
        fx, fy = self.coords(tri, xy)
        dxv, dyv = self.frames[tri].apply_vec(*d)
        sy = ctx.sign(dyv)
        if sy == 0:
            return BandExit("closed", arc=float(self.period))
        if sy > 0:
            ty = self.h - fy
            target_top = True
        else:
            ty = fy
            target_top = False
        steps = ty / (dyv if sy > 0 else -dyv)
        x_hit = fx + dxv * steps
        seg_len = math.hypot(float(dxv), float(dyv)) * float(steps)
        (u, v), tpar = (self.locate_top(x_hit) if target_top
                        else self.locate_bottom(x_hit))
        near0 = ctx.is_zero(tpar)
        near1 = ctx.is_zero(tpar - ctx.one)
        if near0 or near1:
            vert = u if near0 else v
            return BandExit("top_vertex" if target_top else "bottom_vertex",
                            vertex=vert, arc=seg_len,
                            dir_in=(dxv, dyv))
        return BandExit("top" if target_top else "bottom",
                        arc=seg_len,
                        ray=((u, v), tpar, (dxv, dyv)))


# -- flat complement ----------------------------------------------------------


@dataclass
class TailData:
    """A straight escaped tail (or tail piece) in developed coordinates."""

    base: tuple      # developed base point
    dir: tuple       # developed direction (not necessarily unit)
    arc0: float      # arc length along the line when the piece starts
    speed: float     # |dir| as float, converts parameters to arc length
    kcut: int = 0    # signed cut crossings accumulated by the access chain
    limit: object = None  # parameter bound (run scalar) of a leading piece


class FlatComplement:
    """Developed view of the flat region outside an audited convex ring.

    Valid when the generation rule makes every vertex outside `ring`
    degree 6 and the total defect inside is zero, so the outside
    holonomy is a pure translation.  The development never steps across
    an edge of the cut ray, so it is single valued; crossing the cut
    shifts the developed picture by `delta`, read off the development's
    own seams (see `calibrate_cut`).

    `cut` is (cut edges, base triangle, base point, direction) of the
    cut ray, or None when the core carries no curvature.
    """

    def __init__(self, surf: Triangulation, ctx: Scalars, ring: int,
                 anchor_tri: int, cut):
        if surf.rule is None or not surf.rule.flat_outside(0):
            raise ValueError("flat complement needs an all-degree-6 exterior rule")
        self.surf = surf
        self.ctx = ctx
        self.ring = ring
        inside = sum(360 - 60 * surf.degree[v] for v in surf.degree
                     if v not in surf.frontier and surf.ring_of[v] <= ring
                     and surf.degree[v] != 6)
        if inside != 0:
            raise ValueError("flat complement needs zero enclosed defect")
        ring_of = surf.ring_of
        self.outside = {t for t, tv in enumerate(surf.tris)
                        if max(ring_of[v] for v in tv) > ring}
        if anchor_tri not in self.outside:
            raise ValueError("anchor triangle must lie outside the ring")
        self.cut = None       # (base, dir) developed cut ray, or None
        self.cut_edges = frozenset() if cut is None else cut[0]
        self.delta = (ctx.zero, ctx.zero)
        # All frames come from one BFS forest rooted at the anchor that never
        # steps across the cut or into the inside, so every placement is
        # single valued over the cut complement.
        self.frames = dict(develop(
            surf, ctx, anchor_tri, Isometry.identity(ctx),
            lambda t, e, t2: t2 in self.outside and frozenset(
                surf.edge_vertices(t, e)) not in self.cut_edges))
        if cut is None:
            return
        _, base_tri, xy, d = cut
        frame = self.corridor_frame(base_tri)
        self.cut = (frame.apply(*xy), frame.apply_vec(*d))
        self.calibrate_cut()

    def corridor_frame(self, target_tri: int) -> Isometry:
        """Placement of a triangle's chart in the developed plane."""
        got = self.frames.get(target_tri)
        if got is None:
            if target_tri not in self.outside:
                raise ValueError(
                    f"triangle {target_tri} is not outside ring {self.ring}")
            raise ValueError(f"no corridor reaches triangle {target_tri}")
        return got

    def calibrate_cut(self):
        """Read the per-crossing shift `delta` off the development's seams.

        The development disagrees with a straight step exactly where the
        step crosses the cut.  Each such seam must lie on a cut edge, carry
        no rotation and shift the step's placement by +delta when the step
        leaves the cut's right side for its left (-delta the other way).
        The seams are compared through the run's scalars, so in exact mode
        the translation holonomy is certified exactly.
        """
        surf, ctx = self.surf, self.ctx
        _, (dx, dy) = self.cut
        gx, gy = ctx.half, ctx.sqrt3 * ctx.frac(1, 6)  # chart centroid
        delta = None
        for t, e, direct, have in seams(surf, ctx, self.frames):
            if frozenset(surf.edge_vertices(t, e)) not in self.cut_edges:
                raise ValueError("development disagrees off the cut")
            if direct.k != have.k:
                raise ValueError("outside holonomy has a rotation part")
            c1x, c1y = self.frames[t].apply(gx, gy)
            c2x, c2y = direct.apply(gx, gy)
            side = ctx.sign(cross(dx, dy, c2x - c1x, c2y - c1y))
            if side == 0:
                raise ValueError("cut seam steps along the cut")
            sx, sy = direct.tx - have.tx, direct.ty - have.ty
            shift = (sx, sy) if side > 0 else (-sx, -sy)
            if delta is None:
                delta = shift
            elif not (ctx.eq(shift[0], delta[0]) and ctx.eq(shift[1], delta[1])):
                raise ValueError("cut seams disagree on the holonomy shift")
        if delta is not None:
            self.delta = delta

    def cut_images(self):
        """Developed images of the cut's two banks."""
        base, d = self.cut
        dx, dy = self.delta
        other = ((base[0] + dx, base[1] + dy), d)
        return (base, d), other


def _solve(ctx, p, u, q, v):
    """Parameters (t, s), in run scalars, where p + t u meets q + s v;
    None when u and v are parallel."""
    den = cross(u[0], u[1], v[0], v[1])
    if ctx.is_zero(den):
        return None
    wx, wy = q[0] - p[0], q[1] - p[1]
    return cross(wx, wy, v[0], v[1]) / den, cross(wx, wy, u[0], u[1]) / den


def _arc(piece: TailData, t) -> float:
    """Arc length at parameter t of a tail piece (t clamped at 0)."""
    return piece.arc0 + max(float(t), 0.0) * piece.speed


def split_tail_at_cut(ctx, tail: TailData, fc: "FlatComplement"):
    """Split an escaped tail at its (at most one) cut crossing.

    The tail's own development continues straight through the crossing;
    only the cut-class bookkeeping changes, so the genuine-meeting test
    can shift by the right number of holonomy offsets.
    """
    if fc.cut is None:
        return [tail]
    _, (dx, dy) = fc.cut
    side = ctx.sign(cross(dx, dy, tail.dir[0], tail.dir[1]))
    if side == 0:
        return [tail]
    best = None
    for base, d in fc.cut_images():
        t, s = _solve(ctx, tail.base, tail.dir, base, d)
        if ctx.sign(t) > 0 and ctx.sign(s) >= 0 and (
                best is None or ctx.lt(t, best)):
            best = t
    if best is None:
        return [tail]
    base = (tail.base[0] + tail.dir[0] * best,
            tail.base[1] + tail.dir[1] * best)
    piece1 = TailData(tail.base, tail.dir, tail.arc0, tail.speed,
                      kcut=tail.kcut, limit=best)
    piece2 = TailData(base, tail.dir, _arc(tail, best), tail.speed,
                      kcut=tail.kcut + side)
    return [piece1, piece2]


def tails_meet(ctx, a: TailData, b: TailData, holonomy):
    """First genuine meeting of two developed tail pieces, as arc lengths.

    The pieces' developed frames differ by (a.kcut - b.kcut) holonomy
    shifts; parallel pieces meet only if exactly collinear.
    """
    shift = ctx.of(a.kcut - b.kcut)
    q = (b.base[0] + shift * holonomy[0], b.base[1] + shift * holonomy[1])
    u, v = a.dir, b.dir
    hit = _solve(ctx, a.base, u, q, v)
    if hit is None:
        wx, wy = q[0] - a.base[0], q[1] - a.base[1]
        if not ctx.is_zero(cross(u[0], u[1], wx, wy)):
            return None
        t = dot(wx, wy, u[0], u[1]) / dot(u[0], u[1], u[0], u[1])
        if ctx.sign(dot(u[0], u[1], v[0], v[1])) > 0:
            # Same direction, collinear: overlap from the later base on.
            if ctx.sign(t) > 0:
                return (_arc(a, t), b.arc0)
            s = -dot(wx, wy, v[0], v[1]) / dot(v[0], v[1], v[0], v[1])
            return (a.arc0, _arc(b, s))
        # Opposite directions: they meet if the bases face each other.
        if ctx.sign(t) >= 0:
            return (_arc(a, t), b.arc0)
        return None
    t, s = hit
    if ctx.sign(t) < 0 or ctx.sign(s) < 0:
        return None
    if a.limit is not None and ctx.lt(a.limit, t):
        return None
    if b.limit is not None and ctx.lt(b.limit, s):
        return None
    return (_arc(a, t), _arc(b, s))
