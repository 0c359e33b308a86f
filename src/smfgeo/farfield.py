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
from collections import namedtuple

from . import chart
from .chart import Isometry, cross, dot
from .numbers import Scalars
from .surface import IncompleteRing, Triangulation, develop, seams


# -- ring audits -------------------------------------------------------------


class RingAudit(namedtuple("RingAudit",
                           "ring surface_hash passed outward_angles")):
    """`outward_angles` holds (vertex, degrees) per ring vertex."""

    __slots__ = ()

    @property
    def audit_id(self) -> str:
        return f"ring{self.ring}@{self.surface_hash}"


def audit_ring_convexity(surf: Triangulation, ring: int) -> RingAudit:
    """Pass iff every ring vertex shows at least 180 degrees on the
    outward side, so an outward crossing can never be undone.

    The outward side of a vertex of ring k holds the triangles that ring
    k + 1 adds at it, its gap in the plan of ring k + 1, so it shows 60
    degrees per triangle of that gap (`Triangulation.outward_counts`):
    the audit reads the plans and builds nothing.
    """
    if ring < 1 or ring >= surf.n_rings():
        raise IncompleteRing(f"ring {ring} does not exist")
    cyc = surf.ring_cycle(ring)
    gaps = surf.outward_counts(ring)
    if gaps is None:
        v = cyc[0]
        if surf.on_frontier(v):
            raise IncompleteRing(f"ring {ring} vertex {v} is on the frontier")
        raise IncompleteRing(f"no ring plan grows on ring {ring}")
    angles = tuple(zip(cyc, [60 * k for k in gaps]))
    return RingAudit(ring, surf.content_hash(),
                     all(a >= 180 for _, a in angles), angles)


def ring_crossing(surf: Triangulation, tri_from: int, tri_to: int,
                  vertex: int = None):
    """(ring, outward?) when a step from `tri_from` to `tri_to` crosses a
    ring cycle, else None.

    The cycle rings[k] separates the triangles of ring <= k from those
    of ring > k (see `Triangulation.tri_ring`).  A step across an edge
    crosses the cycle of the smaller of the two triangle rings; a step
    through `vertex` can only cross the cycle of the vertex's own ring.
    Ring 0 has no cycle.  The crossing is outward when `tri_to` lies
    beyond the cycle.
    """
    r_from, r_to = surf.tri_ring(tri_from), surf.tri_ring(tri_to)
    k = min(r_from, r_to) if vertex is None else surf.birth_ring(vertex)
    if k == 0 or (r_from <= k) == (r_to <= k):
        return None
    return k, r_to > k


def max_ring_of_path(surf: Triangulation, segments) -> int:
    return max((surf.tri_ring(s.tri) for s in segments), default=0)


# -- certificates -------------------------------------------------------------


class ClosureCertificate(namedtuple("ClosureCertificate", "period")):
    __slots__ = ()
    kind = "closure"


class RingEscapeCertificate(namedtuple(
        "RingEscapeCertificate", "rings_crossed escape_ring audit_id")):
    """`rings_crossed` holds strictly increasing ring indices."""

    __slots__ = ()
    kind = "ring_escape"


class FlatSeparationCertificate(namedtuple("FlatSeparationCertificate",
                                           "detail")):
    """Both straight tails compared against both target tails in the
    developed flat complement; every admissible copy misses."""

    __slots__ = ()
    kind = "flat_separation"


# -- silo band ---------------------------------------------------------------


class BandExit(namedtuple("BandExit", "kind tri dir edge bary vertex arc x",
                          defaults=(None, None, None, None, None, 0.0, None))):
    """Where a straight run through a band leaves it, in the chart of a
    band triangle `tri`; `dir` is the run's direction in that chart and
    `arc` the length run inside the band.

    kind "top" or "bottom": through the interior of local edge `edge` of
    `tri`, at barycentrics `bary`.  kind "top_vertex" or "bottom_vertex":
    through the cycle vertex `vertex`, and `tri` is the first band
    triangle in its fan; `x` is the unreduced strip x of either exit.
    kind "closed": the run stays in the band and circles it once per `arc`.
    """

    __slots__ = ()


class BandFrame:
    """Developed coordinates for one flat cylinder row of the silo.

    The row between ring `top` and ring `top+1` unrolls to the strip
    0 <= y <= h with x periodic of period = ring length; y = h on the
    top cycle.  Its triangles are those of ring top + 1.
    """

    def __init__(self, surf: Triangulation, ctx: Scalars, top: int):
        self.surf = surf
        self.ctx = ctx
        self.top = top
        cyc_top = self.cycle_top = surf.ring_cycle(top)
        cyc_bot = self.cycle_bottom = surf.ring_cycle(top + 1)
        if len(cyc_top) != len(cyc_bot):
            raise ValueError("band rows must have equal cycle lengths")
        n = self.period = len(cyc_top)
        self.h = ctx.half_sqrt3
        band = self.tris = set(range(surf.ring_start(top + 1),
                                     surf.ring_start(top + 2)))
        # The band triangle and local edge on each cycle edge, by side:
        # the top cycle's edge i is that triangle's directed edge
        # (top[i+1], top[i]), the bottom cycle's is (bot[i], bot[i+1]).
        self.edge_tris = {
            "top": [surf.directed_edge(cyc_top[(i + 1) % n], cyc_top[i])
                    for i in range(n)],
            "bottom": [surf.directed_edge(cyc_bot[i], cyc_bot[(i + 1) % n])
                       for i in range(n)]}
        # The first band triangle in each cycle vertex's fan.
        self.vertex_tris = {v: next(t for t, _ in surf.fan_ccw(v) if t in band)
                            for v in cyc_top + cyc_bot}
        # Anchor: the top cycle's first edge (a, b) runs along y = h, +x
        # direction.  The band triangle under it carries the directed edge
        # (b, a); its frame maps b to (1, h) and a to (0, h), band below.
        t0, e0 = self.edge_tris["top"][0]
        cs = chart.corners(ctx)
        # Edge e0 runs at 120 * e0 degrees; turned to (-1, 0), it maps
        # corner e0 to (1, h) and corner e0 + 1 to (0, h).
        k = (6 - 4 * e0) % 12
        rx, ry = chart.rotate(ctx, k, *cs[e0])
        base = Isometry(ctx, k, ctx.one - rx, self.h - ry)
        # Each triangle is placed once: the band is a cycle, and placing a
        # triangle again would shift its frame by the period.
        self.frames = dict(develop(surf, ctx, t0, base,
                                   lambda t, e, t2: t2 in band))
        # Strip x of each cycle's vertex 0; the bottom's is half an edge off.
        t = self.vertex_tris[cyc_bot[0]]
        bx, _ = self.frames[t].apply(*cs[surf.vertex_slot(t, cyc_bot[0])])
        self.x0 = {"top": ctx.zero, "bottom": self.x_mod(bx)}

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

    def transit(self, surf, ctx, tri: int, xy, d) -> BandExit:
        """Fast-forward the straight run from `xy` in direction `d`, both
        in the chart of band triangle `tri`, to where it leaves the band.

        The exit is found in the strip and handed back in the chart of the
        band triangle on the cycle edge or vertex it leaves by (see `carry`).
        """
        frame = self.frames[tri]
        fx, fy = frame.apply(*xy)
        dxv, dyv = frame.apply_vec(*d)
        sy = ctx.sign(dyv)
        if sy == 0:
            return BandExit("closed", arc=float(self.period))
        target_top = sy > 0
        ty = self.h - fy if target_top else fy
        steps = ty / (dyv if target_top else -dyv)
        side = "top" if target_top else "bottom"
        xu = fx + dxv * steps
        x = self.x_mod(xu - self.x0[side])
        seg_len = math.hypot(float(dxv), float(dyv)) * float(steps)
        # Cycle edge i spans [i, i + 1) in x from the cycle's vertex 0,
        # toward +x; adjust for rounding.
        i = min(int(float(x)), self.period - 1)
        while i > 0 and ctx.lt(x, ctx.of(i)):
            i -= 1
        while i < self.period - 1 and not ctx.lt(x, ctx.of(i + 1)):
            i += 1
        tpar = x - ctx.of(i)
        cyc = self.cycle_top if target_top else self.cycle_bottom
        near0 = ctx.is_zero(tpar)
        if near0 or ctx.is_zero(tpar - ctx.one):
            v = cyc[i] if near0 else cyc[(i + 1) % self.period]
            t = self.vertex_tris[v]
            return BandExit(side + "_vertex", t,
                            self.frames[t].inverse().apply_vec(dxv, dyv),
                            vertex=v, arc=seg_len, x=xu)
        t, e = self.edge_tris[side][i]
        # The band triangle runs the top cycle's edges backwards.
        s = ctx.one - tpar if target_top else tpar
        b = [ctx.zero, ctx.zero, ctx.zero]
        b[e] = ctx.one - s
        b[(e + 1) % 3] = s
        return BandExit(side, t, self.frames[t].inverse().apply_vec(dxv, dyv),
                        edge=e, bary=tuple(b), arc=seg_len, x=xu)

    def carry(self, tri: int, exit: BandExit) -> Isometry:
        """The isometry from the chart of `exit.tri` into the chart of band
        triangle `tri` along the run `transit` took from `tri` to `exit`.
        The strip places `exit.tri` whole periods from the run's copy,
        whose chart origin lies within one edge of the exit's `x`: rounding
        finds how many, so the result is exact in exact mode."""
        place = self.frames[exit.tri]
        n = round(float(exit.x - place.tx) / self.period)
        run = Isometry(self.ctx, place.k,
                       place.tx + self.ctx.of(n * self.period), place.ty)
        return self.frames[tri].inverse().compose(run)


# -- flat complement ----------------------------------------------------------


class TailData(namedtuple("TailData", "base dir arc0 speed kcut limit",
                          defaults=(0, None))):
    """A straight escaped tail (or tail piece) in developed coordinates:
    its developed base point and direction (not necessarily unit), the
    arc length along the line where the piece starts, its speed |dir| as
    a float, which converts parameters to arc length, the signed cut
    crossings the access chain accumulated, and the parameter bound (a
    run scalar) of a leading piece."""

    __slots__ = ()


class FlatComplement:
    """Developed view of the flat region outside an audited convex ring.

    Valid when the generation rule makes every vertex outside `ring`
    degree 6 and the total defect inside is zero, so the outside
    holonomy is a pure translation, and when the cut's two banks develop
    apart, so a side of the developed cut line is a bank (`side`).  The
    development never steps across an edge of the cut ray, so it is
    single valued; crossing the cut shifts the developed picture by
    `delta`, read off the development's own seams (see `calibrate_cut`).

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
        inside = sum(360 - 60 * d for v, d in surf.curved_vertices().items()
                     if surf.birth_ring(v) <= ring)
        if inside != 0:
            raise ValueError("flat complement needs zero enclosed defect")
        self.outside = range(surf.ring_start(ring + 1), surf.n_triangles())
        if anchor_tri not in self.outside:
            raise ValueError("anchor triangle must lie outside the ring")
        self.cut = None       # (base, dir) developed cut ray, or None
        self.cut_edges = frozenset() if cut is None else cut[0]
        self.delta = (ctx.zero, ctx.zero)
        # All frames come from one BFS forest rooted at the anchor that never
        # steps across the cut or into the inside, so every placement is
        # single valued over the cut complement.
        self.tree = set()
        self.frames = dict(develop(
            surf, ctx, anchor_tri, Isometry.identity(ctx),
            lambda t, e, t2: t2 in self.outside and frozenset(
                surf.edge_vertices(t, e)) not in self.cut_edges, self.tree))
        if cut is None:
            return
        _, base_tri, xy, d = cut
        frame = self.corridor_frame(base_tri)
        self.cut = (frame.apply(*xy), frame.apply_vec(*d))
        self.calibrate_cut()
        if ctx.sign(cross(*self.cut[1], *self.delta)) > 0:
            raise ValueError("the cut's images from its two banks overlap")
        self.cut_bank = self.bank(base_tri)

    def corridor_frame(self, target_tri: int) -> Isometry:
        """Placement of a triangle's chart in the developed plane."""
        got = self.frames.get(target_tri)
        if got is None:
            if target_tri not in self.outside:
                raise ValueError(
                    f"triangle {target_tri} is not outside ring {self.ring}")
            raise ValueError(f"no corridor reaches triangle {target_tri}")
        return got

    def side(self, q) -> int:
        """Side of the developed cut line q lies on: 1 left, -1 right."""
        (bx, by), (dx, dy) = self.cut
        return self.ctx.sign(cross(dx, dy, q[0] - bx, q[1] - by))

    def bank(self, tri: int) -> int:
        """Side of the bank triangle tri was developed from: that of its
        corners on an edge the cut does not cross."""
        e = next(e for e in range(3) if frozenset(
            self.surf.edge_vertices(tri, e)) not in self.cut_edges)
        return self.side(self.frames[tri].apply(*chart.corners(self.ctx)[e]))

    def calibrate_cut(self):
        """Read the per-crossing shift `delta` off the development's seams.

        The development disagrees with a straight step exactly where the
        step crosses the cut.  Each such seam must lie on a cut edge, carry
        no rotation and shift the step's placement by +delta when it leaves
        the right bank, the one its triangle was developed from, for the
        left (-delta the other way).  The seams are compared through the
        run's scalars, so in exact mode the holonomy is certified exactly.
        """
        surf, ctx = self.surf, self.ctx
        delta = None
        for t, e, direct, have in seams(surf, ctx, self.frames, self.tree):
            if frozenset(surf.edge_vertices(t, e)) not in self.cut_edges:
                raise ValueError("development disagrees off the cut")
            if direct.k != have.k:
                raise ValueError("outside holonomy has a rotation part")
            side = -self.bank(t)
            if side == 0:
                raise ValueError("the cut passes through a vertex")
            sx, sy = direct.tx - have.tx, direct.ty - have.ty
            shift = (sx, sy) if side > 0 else (-sx, -sy)
            if delta is None:
                delta = shift
            elif not (ctx.eq(shift[0], delta[0]) and ctx.eq(shift[1], delta[1])):
                raise ValueError("cut seams disagree on the holonomy shift")
        if delta is not None:
            self.delta = delta

    def place_tail(self, tri: int, xy):
        """(developed base point, starting `kcut`) of a tail based at xy in
        triangle tri, where the developed cut line is the cut from both
        banks: a triangle developed from the other bank than the cut's
        base triangle moves by one holonomy shift.  The side of that line
        the point lies on picks the bank the tail starts on."""
        p = self.corridor_frame(tri).apply(*xy)
        if self.cut is None:
            return p, 0
        own, (dx, dy) = self.cut_bank, self.delta
        if self.bank(tri) != own:
            p = (p[0] - own * dx, p[1] - own * dy)
        return p, -own if self.side(p) == -own else 0


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
    hit = fc.cut and _solve(ctx, tail.base, tail.dir, *fc.cut)
    if not hit or ctx.sign(hit[0]) <= 0 or ctx.sign(hit[1]) < 0:
        return [tail]
    t = hit[0]
    at = (tail.base[0] + tail.dir[0] * t, tail.base[1] + tail.dir[1] * t)
    side = ctx.sign(cross(*fc.cut[1], *tail.dir))
    return [TailData(tail.base, tail.dir, tail.arc0, tail.speed, tail.kcut, t),
            TailData(at, tail.dir, _arc(tail, t), tail.speed, tail.kcut + side)]


def tails_meet(ctx, a: TailData, b: TailData, holonomy):
    """First genuine meeting of two developed tail pieces, as arc lengths.

    The pieces' developed frames differ by (a.kcut - b.kcut) holonomy
    shifts; parallel pieces meet only if exactly collinear, first where
    their parameter ranges [0, limit] overlap along `a`.
    """
    shift = ctx.of(a.kcut - b.kcut)
    q = (b.base[0] + shift * holonomy[0], b.base[1] + shift * holonomy[1])
    u, v = a.dir, b.dir
    hit = _solve(ctx, a.base, u, q, v)
    if hit is None:
        wx, wy = q[0] - a.base[0], q[1] - a.base[1]
        if not ctx.is_zero(cross(u[0], u[1], wx, wy)):
            return None
        # Collinear: b's base is at a's parameter t0, which moves by r per
        # unit of b's; b's first point along a is checked like a crossing.
        uu = dot(u[0], u[1], u[0], u[1])
        t0 = dot(wx, wy, u[0], u[1]) / uu
        r = dot(u[0], u[1], v[0], v[1]) / uu
        lo = t0 if ctx.sign(r) > 0 else (
            None if b.limit is None else t0 + r * b.limit)
        t = lo if lo is not None and ctx.sign(lo) > 0 else ctx.zero
        hit = t, (t - t0) / r
    t, s = hit
    if ctx.sign(t) < 0 or ctx.sign(s) < 0:
        return None
    if a.limit is not None and ctx.lt(a.limit, t):
        return None
    if b.limit is not None and ctx.lt(b.limit, s):
        return None
    return (_arc(a, t), _arc(b, s))
