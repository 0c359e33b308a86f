"""Parallelism taxonomy of a point with respect to a line.

The direction circle at P (line directions, period 180 degrees) is
partitioned into intervals of uniform behavior bounded by critical
directions: directions whose line hits a vertex within the arc budget,
directions to the ends of the reference line's chords, where a crossing
with it moves across an edge, and directions whose escaped tails turn
exactly parallel to a tail of the reference line (asymptotic flips).
One witness per interval plus every boundary direction is classified
as Crossing, ParallelCertified or Unknown, and the counts map onto the
taxonomy.

Parallel verdicts are never guessed: they carry a closure certificate,
an audited ring-escape certificate, or a flat-complement separation
certificate (see farfield).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from operator import itemgetter

from . import chart, engine, farfield
from .chart import cross
from .engine import (
    ARC_BUDGET,
    Closure,
    EdgeCrossing,
    EngineError,
    GrowthLimit,
    Ray,
    Segment,
    VertexCrossing,
)
from .numbers import Scalars
from .surface import (
    GROWTH_BUDGET,
    GrowthLimitExceeded,
    SurfaceError,
    SurfacePoint,
    Triangulation,
    Value,
    canonicalize_point,
    grow_frontier,
    normalize_bary,
    point_at_vertex,
    vertex_point,
)
from .farfield import (
    BandFrame,
    ClosureCertificate,
    FlatSeparationCertificate,
    RingEscapeCertificate,
    audit_ring_convexity,
    ring_crossing,
)

ELLIPTIC = "elliptic"
EUCLIDEAN = "euclidean"
FINITELY_HYPERBOLIC = "finitely_hyperbolic"
REGULARLY_HYPERBOLIC = "regularly_hyperbolic"
EXTREMELY_HYPERBOLIC = "extremely_hyperbolic"
COMPLETELY_HYPERBOLIC = "completely_hyperbolic"
UNDETERMINED = "undetermined"


class Budgets(Value):
    __slots__ = ("arc", "growth", "split_depth")

    def __init__(self, arc: float = ARC_BUDGET, growth: int = GROWTH_BUDGET,
                 split_depth: int = 48):
        self.arc = arc
        self.growth = growth
        # Halvings of one cone; corner splits do not count.
        self.split_depth = split_depth

    def doubled(self) -> "Budgets":
        return Budgets(self.arc * 2, self.growth * 2, self.split_depth + 8)


class Crossing(Value):
    __slots__ = ("point", "arc", "via_vertices", "where")
    kind = "crossing"

    def __init__(self, point, arc: float, via_vertices: tuple = (),
                 where: str = "traced"):
        self.point = point  # SurfacePoint for located hits, None for far hits
        self.arc = arc
        self.via_vertices = via_vertices
        self.where = where


class ParallelCertified(Value):
    __slots__ = ("certificates", "via_vertices")
    kind = "parallel"

    def __init__(self, certificates: tuple, via_vertices: tuple = ()):
        self.certificates = certificates
        self.via_vertices = via_vertices


class Unknown(Value):
    __slots__ = ("reason",)
    kind = "unknown"

    def __init__(self, reason: str):
        self.reason = reason


class DirectionInterval(namedtuple("DirectionInterval", "lo hi status witness")):
    """`lo` and `hi` in degrees, 0 <= lo <= hi <= 180."""

    __slots__ = ()


class IsolatedDirection(namedtuple("IsolatedDirection", "theta direction status")):
    __slots__ = ()


class PointClassification:
    __slots__ = ("kind", "count", "intervals", "isolated", "parallel_arcs",
                 "crossing_arcs", "unknown_arcs")

    def __init__(self, kind: str, count: int = 0, intervals: list = None,
                 isolated: list = None, parallel_arcs: int = 0,
                 crossing_arcs: int = 0, unknown_arcs: int = 0):
        self.kind = kind
        self.count = count
        self.intervals = [] if intervals is None else intervals
        self.isolated = [] if isolated is None else isolated
        self.parallel_arcs = parallel_arcs
        self.crossing_arcs = crossing_arcs
        self.unknown_arcs = unknown_arcs


# -- model analysis ----------------------------------------------------------


class ModelAnalysis:
    """Per-surface far-field context shared by every classification."""

    def __init__(self, surf: Triangulation, ctx: Scalars):
        self.surf = surf
        self.ctx = ctx
        self.audits = {}
        self.bands = []
        self.band_tris = {}
        rule = surf.rule.name if surf.rule else ""
        if rule == "silo":
            self.kind = "compact_target"
            for top in (1, 2):
                if surf.n_rings() >= top + 2:
                    band = BandFrame(surf, ctx, top)
                    self.bands.append(band)
                    for t in band.tris:
                        self.band_tris[t] = band
        elif rule in ("flat", "semi_paradoxist"):
            self.kind = "flat_complement"
        else:
            self.kind = "generic"

    def audit(self, ring: int) -> farfield.RingAudit:
        a = self.audits.get(ring)
        if a is None:
            a = audit_ring_convexity(self.surf, ring)
            self.audits[ring] = a
        return a

    def audited_pass(self, ring: int) -> bool:
        # A ring below the last has no frontier vertex.
        return 1 <= ring < self.surf.n_rings() - 1 and self.audit(ring).passed

    def escape_certifiable(self, ring: int, target_max_ring: int) -> bool:
        if target_max_ring >= ring:
            return False
        if self.surf.rule is None or \
                not self.surf.rule.nonpositive_defect_outside(ring):
            return False
        return self.audited_pass(ring)


# -- reference line context --------------------------------------------------


class TailInfo(namedtuple("TailInfo", "escape_tri xy dir arc0 event0")):
    """`event0` is the first trace event of the tail: its escape crossing,
    if any."""

    __slots__ = ()


class LineContext:
    __slots__ = ("ray", "path", "surf", "ctx", "by_tri", "max_ring", "closed",
                 "period", "core_ring", "tail_pieces", "tail_dirs",
                 "flat_complement", "on_vertices")

    def __init__(self, ray: Ray, path: engine.GeodesicPath,
                 surf: Triangulation, ctx: Scalars, by_tri: dict,
                 max_ring: int, closed: bool, period: float = None,
                 core_ring: int = None, on_vertices: frozenset = frozenset()):
        self.ray = ray
        self.path = path
        self.surf = surf
        self.ctx = ctx
        self.by_tri = by_tri
        self.max_ring = max_ring
        self.closed = closed
        self.period = period
        self.core_ring = core_ring
        self.tail_pieces = None      # developed TailData pieces
        self.tail_dirs = None        # developed tail directions
        self.flat_complement = None  # developed far field
        self.on_vertices = on_vertices  # vertices the line passes through

    def segments_in(self, tri):
        return self.by_tri.get(tri, ())


def _index_segments(path):
    d = {}
    for seg in path.segments:
        d.setdefault(seg.tri, []).append(seg)
    return d


def _path_vertices(path):
    return frozenset(ev.vertex for _, ev in path.events
                     if isinstance(ev, VertexCrossing))


def build_line_context(surf: Triangulation, ctx: Scalars, ray: Ray,
                       analysis: ModelAnalysis, budgets: Budgets,
                       min_core: int = None) -> LineContext:
    if analysis.kind == "flat_complement":
        core = _default_core_ring(surf, analysis, min_core)
        res_f = _trace_end(surf, ctx, ray, analysis, budgets, None,
                           escape_ring=core)
        back = engine.reverse_ray(surf, ctx, ray)
        res_b = _trace_end(surf, ctx, back, analysis, budgets, None,
                           escape_ring=core)
        if res_f.kind != "escaped" or res_b.kind != "escaped":
            raise ValueError("reference line must escape the core ring")
        path = engine.stitch(ray, surf, (res_f.segments, res_f.events, res_f.arc),
                             (res_b.segments, res_b.events, res_b.arc))
        lctx = LineContext(ray, path, surf, ctx, _index_segments(path),
                           farfield.max_ring_of_path(surf, path.segments),
                           closed=False, core_ring=core,
                           on_vertices=_path_vertices(path))
        fc = lctx.flat_complement = farfield.FlatComplement(
            surf, ctx, core, res_f.tail.escape_tri,
            _cut_ray(surf, ctx, analysis, budgets, core))
        pieces = []
        dirs = []
        for t in (res_f.tail, res_b.tail):
            td = _developed_tail(fc, t)
            dirs.append(td.dir)
            pieces.extend(farfield.split_tail_at_cut(ctx, td, fc))
        lctx.tail_pieces = pieces
        lctx.tail_dirs = dirs
        return lctx
    path = engine.trace(ray, surf, ctx, arc_budget=budgets.arc,
                        growth_budget=surf.n_triangles(), two_sided=True)
    period = engine.detect_closure(path)
    return LineContext(ray, path, surf, ctx, _index_segments(path),
                       farfield.max_ring_of_path(surf, path.segments),
                       closed=period is not None, period=period,
                       on_vertices=_path_vertices(path))


def _default_core_ring(surf, analysis, min_core=None):
    worst = max(map(surf.birth_ring, surf.curved_vertices()), default=0)
    k = max(2, worst + 1, min_core or 0)
    while k < surf.n_rings() - 1:
        if analysis.audited_pass(k):
            return k
        k += 1
    raise ValueError("no audited convex ring encloses the core")


def _cut_ray(surf, ctx, analysis, budgets, core_ring):
    if not surf.curved_vertices():
        return None
    fx = surf.labels.get("_cut")
    if fx is None:
        raise ValueError("model with curvature needs a _cut fixture")
    from .builders import resolve_ray
    ray = resolve_ray(surf, ctx, fx)
    res = _trace_end(surf, ctx, ray, analysis, budgets, None,
                     escape_ring=core_ring)
    t = res.tail
    if t is None:
        raise ValueError("cut ray failed to escape the core ring")
    # The cut runs on straight past the escape, up to six arc budgets.
    after = engine.trace(res.end, surf, ctx,
                         arc_budget=6 * budgets.arc - res.arc,
                         growth_budget=surf.n_triangles()).events
    crossed = [ev for _, ev in res.events[t.event0:]]
    crossed += [ev for _, ev in after]
    cut_edges = frozenset(frozenset(surf.edge_vertices(ev.tri, ev.edge))
                          for ev in crossed if isinstance(ev, EdgeCrossing))
    return (cut_edges, t.escape_tri, t.xy, t.dir)


def _developed_tail(fc, tail: TailInfo) -> farfield.TailData:
    d = fc.corridor_frame(tail.escape_tri).apply_vec(*tail.dir)
    base, kcut = fc.place_tail(tail.escape_tri, tail.xy)
    return farfield.TailData(base, d, tail.arc0,
                             math.hypot(float(d[0]), float(d[1])), kcut)


# -- one-end tracing ----------------------------------------------------


class EndResult:
    __slots__ = ("kind", "segments", "events", "arc", "crossing", "chord",
                 "tail", "rings", "escape_ring", "closure_period",
                 "via_vertices", "steps", "marks", "carrier", "carrier_xy",
                 "band_tokens", "tokens", "end", "_frame")

    def __init__(self, kind: str, segments: list, events: list, arc: float,
                 crossing: tuple = None, chord: Segment = None,
                 tail: TailInfo = None, rings: tuple = (),
                 escape_ring: int = None, closure_period: float = None,
                 via_vertices: tuple = (), steps: list = None,
                 marks: list = None, carrier: int = None,
                 carrier_xy: tuple = None, band_tokens: tuple = (),
                 tokens: tuple = (), end: Ray = None):
        self.kind = kind            # crossed | escaped | closed | unknown
        self.segments = segments
        self.events = events
        self.arc = arc
        self.crossing = crossing    # (point, arc, where)
        self.chord = chord          # the chord of the reference line crossed
        self.tail = tail
        self.rings = rings
        self.escape_ring = escape_ring
        self.closure_period = closure_period
        self.via_vertices = via_vertices
        # The start chart's identity, then the motion of each crossing: the
        # placement after n crossings is steps[0] o ... o steps[n].
        self.steps = steps
        # (tri, how many of `steps` place it, entered by a crossing) of each
        # triangle the trace entered outside a band.
        self.marks = marks
        self.carrier = carrier      # carrying triangle of the traced ray
        self.carrier_xy = carrier_xy  # ray base point in the carrier chart
        self.band_tokens = band_tokens  # collapsed band transit outcomes
        self.tokens = tokens        # concrete itinerary tokens before any transit
        self.end = end              # the ray the trace stopped at
        self._frame = None

    def _placements(self):
        """The placement after each of `steps`, in order."""
        frame = self.steps[0]
        out = [frame]
        for step in self.steps[1:]:
            frame = frame.compose(step)
            out.append(frame)
        return out

    @property
    def frames(self):
        """(tri, placement in the start chart, entered by a crossing) of
        each triangle in `marks`, composed from `steps` on each read; None
        once dropped.  Setting None drops them and keeps `frame`."""
        if self.marks is None:
            return None
        placed = self._placements()
        self._frame = placed[-1]
        return [(tri, placed[n - 1], crossed) for tri, n, crossed in self.marks]

    @frames.setter
    def frames(self, value):
        if value is not None:
            raise ValueError("frames are made from steps; only None is set")
        self._frame = self.frame
        self.steps = self.marks = None

    @property
    def frame(self) -> chart.Isometry:
        """The last placement, of the triangle the trace ended in, in the
        start chart; composed on the first read."""
        if self._frame is None:
            self._frame = self._placements()[-1]
        return self._frame


def _trace_end(surf, ctx, ray, analysis, budgets, lctx,
               escape_ring=None) -> EndResult:
    """One end of the line through `ray`, walked until it crosses the
    reference line, closes, escapes a certified ring or runs out of
    budget.  A silo band is crossed in one `BandFrame.transit`; its exit
    is booked as one crossing, like the walk's, with the frame carried by
    `BandFrame.carry`.  Transits add to `band_tokens`; after the first,
    no crossing adds to `tokens`.  The trace keeps the motion of each
    crossing in `steps` and marks each triangle it entered outside a
    band; the placements in the start chart (`frames`, `frame`) are
    composed only when read."""
    segments = []
    events = []
    steps = [chart.Isometry.identity(ctx)]
    marks = []
    rings_crossed = []
    via_vertices = []
    band_tokens = []
    tokens = []
    arc = 0.0
    cur = ray
    start_xy = chart.xy_of_bary(ctx, ray.point.bary)
    bands = analysis.band_tris

    def result(kind, **kw):
        return EndResult(kind, segments, events, arc,
                         rings=tuple(rings_crossed),
                         via_vertices=tuple(via_vertices),
                         steps=steps, marks=marks,
                         carrier=ray.point.tri, carrier_xy=start_xy,
                         band_tokens=tuple(band_tokens),
                         tokens=tuple(tokens), end=cur, **kw)

    def certified(k):
        if escape_ring is not None and k >= escape_ring:
            return True
        return lctx is not None and analysis.escape_certifiable(k, lctx.max_ring)

    if ray.point.tri not in bands:
        marks.append((ray.point.tri, 1, False))
    while True:
        band = bands.get(cur.point.tri)
        if band is None:
            crossings = engine.walk(cur, surf, ctx)
        else:
            tri = cur.point.tri
            exit_ = band.transit(surf, ctx, tri,
                                 chart.xy_of_bary(ctx, cur.point.bary), cur.dir)
            arc += exit_.arc
            if exit_.kind == "closed":
                events.append((arc, Closure(exit_.arc)))
                band_tokens.append(("closed", band.top))
                return result("closed", closure_period=exit_.arc)
            if exit_.vertex is not None:
                try:
                    cur, item = engine.cross_vertex(surf, ctx, exit_.vertex,
                                                    exit_.tri, exit_.dir)
                except (EngineError, SurfaceError):
                    return result("unknown")
                band_tokens.append(("v", exit_.vertex))
            else:
                e = exit_.edge
                pt = canonicalize_point(SurfacePoint(exit_.tri, exit_.bary),
                                        surf, ctx)
                iso = surf.transfer(ctx, exit_.tri, e)
                cur = engine.transfer_edge(surf, ctx, exit_.tri, e,
                                           normalize_bary(ctx, exit_.bary),
                                           exit_.dir, iso)
                band_tokens.append((exit_.kind, band.top))
                if lctx is not None and _point_on_line(ctx, pt, lctx):
                    return result("crossed", crossing=(pt, arc, "band"))
                item = EdgeCrossing(exit_.tri, e, pt, iso)
            steps.append(band.carry(tri, exit_))
            crossings = ((item, cur, surf),)
        for item, cur, _ in crossings:
            if isinstance(item, Segment):
                segments.append(item)
                if lctx is not None:
                    got = _hit_reference(ctx, item, lctx)
                    if got is not None:
                        (x, y), chord = got
                        bpt = normalize_bary(ctx, chart.bary_of_xy(ctx, x, y))
                        pt = canonicalize_point(SurfacePoint(item.tri, bpt),
                                                surf, ctx)
                        arc += math.hypot(float(x) - float(item.a[0]),
                                          float(y) - float(item.a[1]))
                        return result("crossed", crossing=(pt, arc, "traced"),
                                      chord=chord)
                period = engine.closure_period(ctx, ray, start_xy, item, arc,
                                               len(segments))
                arc += item.length()
                if period is not None:
                    events.append((period, Closure(period)))
                    return result("closed", closure_period=period)
                continue
            if isinstance(item, GrowthLimit):
                return result("unknown")
            events.append((arc, item))
            if isinstance(item, VertexCrossing):
                v = item.vertex
                via_vertices.append(v)
                if not band_tokens:
                    tokens.append(("v", v))
                if lctx is not None and v in lctx.on_vertices:
                    return result("crossed", crossing=(
                        vertex_point(surf, ctx, v), arc, "vertex"))
                ring_info = ring_crossing(surf, item.tri_in, cur.point.tri, v)
            else:
                ring_info = ring_crossing(surf, item.tri, cur.point.tri)
                if not band_tokens:
                    tokens.append((item.tri, item.edge))
            steps.append(item.gluing.inverse())
            if ring_info is not None:
                k, outward = ring_info
                if outward:
                    rings_crossed.append(k)
                    if certified(k):
                        tail = TailInfo(cur.point.tri,
                                        chart.xy_of_bary(ctx, cur.point.bary),
                                        cur.dir, arc, len(events) - 1)
                        return result("escaped", tail=tail, escape_ring=k)
            if arc >= budgets.arc:
                return result("unknown")
            if cur.point.tri in bands:
                break  # the next transit starts here
            # Entered by a crossing, unless a transit led here.
            marks.append((cur.point.tri, len(steps), band is None))


def _hit_reference(ctx, seg, lctx: LineContext):
    """(first point, chord) where `seg` meets a chord of l, or None."""
    for other in lctx.segments_in(seg.tri):
        pts = chart.segment_intersection(ctx, seg.a, seg.b, other.a, other.b)
        if pts:
            return pts[0], other
    return None


def _point_on_line(ctx, pt: SurfacePoint, lctx: LineContext) -> bool:
    for other in lctx.segments_in(pt.tri):
        xy = chart.xy_of_bary(ctx, pt.bary)
        if chart.on_segment(ctx, xy, other.a, other.b):
            return True
    return False


# -- direction-level classification --------------------------------------------


def classify_direction(P: SurfacePoint, d, lctx: LineContext,
                       analysis: ModelAnalysis, budgets: Budgets):
    """Status of the line through P with chart direction d."""
    return _probe(P, d, lctx, analysis, budgets).status


class Probe:
    __slots__ = ("dvec", "fwd", "bwd", "status", "corners", "keys")

    def __init__(self, dvec: tuple, fwd: EndResult, bwd: EndResult, status,
                 corners: list = None, keys: frozenset = None):
        self.dvec = dvec
        self.fwd = fwd
        self.bwd = bwd
        self.status = status
        self.corners = corners  # see _Partitioner; None until a cone reads it
        self.keys = keys        # the corner list's vertex keys

    def signature(self):
        return (_sig(self.fwd), _sig(self.bwd))


def _sig(res: EndResult):
    return (res.kind, res.tokens, res.band_tokens, res.escape_ring)


def _probe(P: SurfacePoint, d, lctx, analysis, budgets) -> Probe:
    surf, ctx = analysis.surf, analysis.ctx
    ray = engine.ray_canonical(surf, ctx, P, d)
    fwd = _trace_end(surf, ctx, ray, analysis, budgets, lctx,
                     escape_ring=lctx.core_ring)
    if fwd.kind in ("closed", "crossed"):
        # The forward end decides the line.  A backward end would only add
        # its tokens to the signature, and they change where its arc ends.
        return Probe(d, fwd, fwd, _end_status(fwd))
    try:
        back = engine.reverse_ray(surf, ctx, ray)
    except (EngineError, SurfaceError):
        return Probe(d, fwd, fwd, Unknown("reverse ray unavailable"))
    bwd = _trace_end(surf, ctx, back, analysis, budgets, lctx,
                     escape_ring=lctx.core_ring)
    status = _assemble(fwd, bwd, lctx, analysis)
    return Probe(d, fwd, bwd, status)


def _end_status(res: EndResult):
    """Status of a line decided by one end that crossed l or closed."""
    if res.kind == "crossed":
        pt, arc, where = res.crossing
        return Crossing(pt, arc, res.via_vertices, where)
    return ParallelCertified((ClosureCertificate(res.closure_period),),
                             res.via_vertices)


def _assemble(fwd: EndResult, bwd: EndResult, lctx: LineContext,
              analysis: ModelAnalysis):
    if bwd.kind == "crossed":
        pt, arc, where = bwd.crossing
        return Crossing(pt, arc, fwd.via_vertices + bwd.via_vertices, where)
    if fwd.kind == "unknown" or bwd.kind == "unknown":
        return Unknown(f"budget exhausted ({fwd.kind}/{bwd.kind})")
    # Both ends escaped (or one closed without crossing, handled above).
    certs = []
    fc = lctx.flat_complement
    if fc is not None:
        hits = []
        for res in (fwd, bwd):
            td = _developed_tail(fc, res.tail)
            for piece in farfield.split_tail_at_cut(analysis.ctx, td, fc):
                for lpiece in lctx.tail_pieces:
                    got = farfield.tails_meet(analysis.ctx, piece, lpiece,
                                              fc.delta)
                    if got is not None:
                        hits.append(got)
        if hits:
            hits.sort()
            return Crossing(None, hits[0][0],
                            fwd.via_vertices + bwd.via_vertices, "far_field")
        certs.append(FlatSeparationCertificate(
            f"tails vs {len(lctx.tail_pieces)} reference pieces"))
    for res in (fwd, bwd):
        if res.kind == "escaped":
            audit = analysis.audit(res.escape_ring)
            certs.append(RingEscapeCertificate(res.rings, res.escape_ring,
                                               audit.audit_id))
        elif res.kind == "closed":
            certs.append(ClosureCertificate(res.closure_period))
    return ParallelCertified(tuple(certs),
                             fwd.via_vertices + bwd.via_vertices)


# -- the direction partition ---------------------------------------------------


def _halfcirc(ctx, d):
    """Fold a direction vector to the upper half circle (line direction)."""
    x, y = d
    sy = ctx.sign(y)
    if sy < 0 or (sy == 0 and ctx.sign(x) < 0):
        return (-x, -y)
    return (x, y)


def _theta_deg(d) -> float:
    return math.degrees(math.atan2(float(d[1]), float(d[0]))) % 180.0


def _blend(ctx, u, v, lam_num: int, lam_den: int):
    """Direction strictly between u and v (convex combination)."""
    a = ctx.frac(lam_den - lam_num, lam_den)
    b = ctx.frac(lam_num, lam_den)
    return (u[0] * a + v[0] * b, u[1] * a + v[1] * b)


def _fold_key(h):
    """Sort key of a folded direction h = (x, y): the pseudo-angle
    -x / (|x| + y), which rises strictly from -1 at 0 degrees towards 1
    at 180 degrees; the unfolded 180-degree seed (-1, 0) keys 1, above
    every folded direction.  One division in the run's scalars: exact in
    exact mode, a float in float mode."""
    x, y = h
    return -x / (abs(x) + y)


class _Partitioner:
    """Partition of the direction circle at P into uniform intervals.

    Every direction it holds lies on the closed upper half plane, folded
    by `_halfcirc` and ordered by `_fold_key`, but the 180-degree seed
    (-1, 0).  A cone is a 30-degree seed or a piece of one, so it never
    wraps past the fold; one whose ends have no positive cross sign
    (narrower than eps in float) holds no direction.

    A cone (u, v) closes on one of five events, never on its width.  In
    the order `run` checks them:

    - corner split: a corner of the probe at u or at v lies inside it;
    - equal ends: the probes at u and v have one signature;
    - midpoint window: the probe at its midpoint m is crossed or escaped
      at both ends with no band transit, and no corner of m lies inside
      the cone, so every direction of the cone passes m's edges;
    - blend pair: its probes at 1/1024 and 1023/1024 agree;
    - split depth: its halvings reached `Budgets.split_depth` (an
      unknown arc).  Any other cone is halved at m.

    Every probe is traced once, keeping each crossing's motion.  The
    first time a cone reads its corners, the frames are composed from
    those and its corner list is built from them: the directions from P,
    in P's chart, of the triangle corners its traces developed and of the
    two ends of a chord of l it crossed.  A corner list is

    - built at most once per probe, with its vertex keys (`Probe.keys`),
      which enter `corner_keys` once the probe bounds a cone;
    - deduplicated: one entry per direction key, placed where the key
      was first met and holding the direction last met, and a vertex
      shared with the previous strip triangle is not developed again;
      a chord end leaves an entry with its key as it is;
    - folded, and sorted by its fold key, a pseudo-angle in the run's
      scalars, so that a cone takes its corners as one span found by
      bisection.

    The cache keeps only what the partition reads: a probe drops the
    segments and events of both ends when it is traced, and their frames
    once its corner list exists.  A probe that only compares signatures
    or gives a witness never builds one.
    """

    def __init__(self, P, lctx, analysis, budgets):
        self.P = P
        self.lctx = lctx
        self.analysis = analysis
        self.budgets = budgets
        self.ctx = analysis.ctx
        self.surf = analysis.surf
        # The vertex test each probe's `engine.ray_canonical` makes: at a
        # vertex the probes would start in triangles that share only that
        # vertex with P's, and `engine.link_iso` links no such pair.
        base = canonicalize_point(
            SurfacePoint(P.tri, normalize_bary(self.ctx, P.bary)),
            self.surf, self.ctx)
        if point_at_vertex(self.surf, base, self.ctx) is not None:
            raise ValueError("classification base point must not be a vertex")
        self.cache = {}
        self.intervals = []   # (u, v, probe) closed uniform
        self.unknowns = []    # (u, v)
        self.boundaries = {}  # key -> (dvec, probe)
        self.corner_keys = set()
        self.splits = 0

    def probe(self, d) -> Probe:
        key = self._key(d)
        got = self.cache.get(key)
        if got is None:
            got = _probe(self.P, d, self.lctx, self.analysis, self.budgets)
            for res in (got.fwd, got.bwd):
                res.segments = res.events = None
            self.cache[key] = got
        return got

    def _key(self, d):
        return self._folded_key(_halfcirc(self.ctx, d))

    def _folded_key(self, h):
        """`_key` of a direction `_halfcirc` has folded already."""
        if self.ctx.exact:
            return (h[0], h[1])
        n = math.hypot(float(h[0]), float(h[1])) or 1.0
        return (round(float(h[0]) / n, 12), round(float(h[1]) / n, 12))

    def _corner_list(self, pr: Probe):
        """Corner list of `pr`, (fold key, order met, folded direction)
        entries sorted by fold key, built with its vertex keys from its
        frames on the first call, which drops the frames.  A crossed
        chord's ends develop with the crossing end's last frame.  Each
        direction is `Isometry.offset`, one integer expression in exact
        mode."""
        if pr.corners is not None:
            return pr.corners
        ctx = self.ctx
        surf = self.surf
        triangle = surf.triangle
        cs = chart.corners(ctx)
        # direction key -> (order first met, folded direction last met)
        met = {}
        ends = []
        for res in ((pr.fwd,) if pr.bwd is pr.fwd else (pr.fwd, pr.bwd)):
            # The carrier chart turns into P's by the link's inverse.
            k = -engine.link_iso(surf, ctx, self.P.tri, res.carrier).k
            pc = res.carrier_xy

            def develop(frame, c):
                # (key, folded direction) from P to c placed by `frame`
                w0 = frame.offset(c, pc, k)
                if w0 is None:
                    return None
                h = _halfcirc(ctx, w0)
                return self._folded_key(h), h

            prev = None
            for tri, frame, crossed in res.frames:
                # Across a crossing, the corners shared with the previous
                # triangle develop where they did in it.
                done = triangle(prev) if crossed else ()
                prev = tri
                for c, vtx in zip(cs, triangle(tri)):
                    got = None if vtx in done else develop(frame, c)
                    if got is not None:
                        seen = met.get(got[0])
                        met[got[0]] = (seen[0] if seen else len(met), got[1])
            if res.chord is not None:
                ends += (develop(res.frame, c)
                         for c in (res.chord.a, res.chord.b))
        keys = frozenset(met)
        for got in ends:
            if got is not None and got[0] not in met:
                met[got[0]] = (len(met), got[1])
        entries = [(_fold_key(h), i, h) for i, h in met.values()]
        entries.sort(key=itemgetter(0))
        pr.corners, pr.keys = entries, keys
        pr.fwd.frames = pr.bwd.frames = None
        return entries

    def _inside(self, entries, u, v):
        """(order met, direction) of each corner-list entry strictly inside
        the open cone (u, v), taken from the span its ends' keys bisect."""
        ctx = self.ctx
        if ctx.sign(cross(u[0], u[1], v[0], v[1])) <= 0:
            return
        first = itemgetter(0)
        for k in range(bisect_right(entries, _fold_key(u), key=first),
                       bisect_left(entries, _fold_key(v), key=first)):
            _, i, w = entries[k]
            if _strictly_between(ctx, u, v, w):
                yield i, w

    def _corners_inside(self, pr: Probe, u, v):
        """Corner directions of `pr` strictly inside the open cone (u, v),
        in the order the probe met them."""
        inside = self._inside(self._corner_list(pr), u, v)
        return [w for _, w in sorted(inside, key=itemgetter(0))]

    def _window_closes(self, u, v, pm: Probe) -> bool:
        """Does the probe `pm` at the midpoint of (u, v) close the cone on
        its window?  See the class docstring."""
        return all(res.kind in ("crossed", "escaped") and not res.band_tokens
                   for res in (pm.fwd, pm.bwd)) \
            and next(self._inside(self._corner_list(pm), u, v), None) is None

    def _split_points(self, raw):
        """Folded corners from `raw` in fold-key order, one per direction:
        a corner merges into the one before it when the sign of their
        cross product is 0, which is exactly parallel in exact mode and
        within eps in float mode."""
        ctx = self.ctx
        corners = []
        for w in sorted(raw, key=_fold_key):
            if not corners or ctx.sign(cross(*corners[-1], *w)) != 0:
                corners.append(w)
        return corners

    def run(self):
        ctx = self.ctx
        # Each cone's second end lies strictly CCW of its first, the last
        # one at 180 degrees unfolded, so convex blends stay folded.
        seeds = [ctx.cos_sin_deg(30 * k) for k in range(6)]
        seeds.append((-ctx.one, ctx.zero))
        work = []
        for i in range(len(seeds) - 1):
            work.append((seeds[i], seeds[i + 1], 0))
        while work:
            u, v, depth = work.pop()
            pu = self.probe(u)
            pv = self.probe(v)
            self.boundaries.setdefault(self._key(u), (u, pu))
            self.boundaries.setdefault(self._key(v), (v, pv))
            corners = self._split_points(
                self._corners_inside(pu, u, v) +
                self._corners_inside(pv, u, v))
            self.corner_keys.update(pu.keys, pv.keys)
            if corners:
                self.splits += len(corners)
                if self.splits > 3000:
                    self.unknowns.append((u, v))
                    continue
                pts = [u] + corners + [v]
                for i in range(len(pts) - 1):
                    work.append((pts[i], pts[i + 1], depth))
                continue
            if pu.signature() == pv.signature():
                self.intervals.append((u, v, None))
                continue
            m = _blend(ctx, u, v, 1, 2)
            if self._window_closes(u, v, self.probe(m)):
                self.intervals.append((u, v, None))
                continue
            # A boundary endpoint (vertex hit or flip) shows a different
            # signature than the open interval; close out when the interior
            # is uniform just inside both ends.
            pa_d = _blend(ctx, u, v, 1, 1024)
            pb_d = _blend(ctx, u, v, 1023, 1024)
            pra = self.probe(pa_d)
            prb = self.probe(pb_d)
            if pra.signature() == prb.signature():
                self.intervals.append((u, v, None))
                continue
            if depth >= self.budgets.split_depth:
                self.unknowns.append((u, v))
                continue
            work.append((u, m, depth + 1))
            work.append((m, v, depth + 1))
        self._asymptotic_flips()
        self._finalize()
        return self

    def _asymptotic_flips(self):
        """Split intervals at directions whose tails turn parallel to a
        tail of the reference line.  (A band circle's direction at P is a
        multiple of 30 degrees, a seed boundary, never inside an interval.)"""
        ctx = self.ctx
        fc = self.lctx.flat_complement
        out = []
        for (u, v, _) in self.intervals:
            w = _blend(ctx, u, v, 1, 2)
            pr = self.probe(w)
            cands = {}
            for res in (pr.fwd, pr.bwd):
                # Only an end that crossed edges alone is turned by its
                # frame's rotation: a vertex bends the line.
                if fc is None or res.kind != "escaped" or res.via_vertices \
                        or res.band_tokens:
                    continue
                inv = engine.link_iso(self.surf, ctx, self.P.tri,
                                      res.carrier).inverse()
                fk = fc.corridor_frame(res.tail.escape_tri).k
                for tdir in self.lctx.tail_dirs:
                    cand = chart.rotate(ctx, res.frame.k - fk, *tdir)
                    cand = _halfcirc(ctx, inv.apply_vec(*cand))
                    if _strictly_between(ctx, u, v, cand):
                        cands[self._key(cand)] = cand
            if not cands:
                out.append((u, v, pr))
                continue
            pts = [u] + sorted(cands.values(), key=_fold_key) + [v]
            for i in range(len(pts) - 1):
                a, b = pts[i], pts[i + 1]
                wm = _blend(ctx, a, b, 1, 2)
                out.append((a, b, self.probe(wm)))
                if i + 1 < len(pts) - 1:
                    self.boundaries.setdefault(
                        self._key(pts[i + 1]),
                        (pts[i + 1], self.probe(pts[i + 1])))
        self.intervals = out

    def _finalize(self):
        def degrees(u, v):
            # Only the 180-degree end reads below its start.
            lo, hi = _theta_deg(u), _theta_deg(v)
            return lo, hi + 180.0 if hi < lo else hi

        self.result_intervals = [
            DirectionInterval(*degrees(u, v), pr.status,
                              (float(pr.dvec[0]), float(pr.dvec[1])))
            for (u, v, pr) in self.intervals]
        self.result_isolated = sorted(
            (IsolatedDirection(_theta_deg(d), (float(d[0]), float(d[1])),
                               pr.status)
             for d, pr in self.boundaries.values()), key=itemgetter(0))
        self.result_unknown = [degrees(u, v) for (u, v) in self.unknowns]


def _strictly_between(ctx, u, v, w) -> bool:
    """Is direction w strictly inside the cone from u to v (< 180 deg)?"""
    return ctx.sign(cross(u[0], u[1], v[0], v[1])) > 0 \
        and ctx.sign(cross(u[0], u[1], w[0], w[1])) > 0 \
        and ctx.sign(cross(w[0], w[1], v[0], v[1])) > 0


# -- point-level classification ------------------------------------------------


def classify_point(P: SurfacePoint, lctx: LineContext,
                   analysis: ModelAnalysis, budgets: Budgets) -> PointClassification:
    """Taxonomy of P with respect to the reference line."""
    surf, ctx = analysis.surf, analysis.ctx
    part = _Partitioner(P, lctx, analysis, budgets)
    if _point_on_line(ctx, canonicalize_point(P, surf, ctx), lctx):
        raise ValueError("classification base point lies on the line")
    return _tally(part.run())


def _tally(part) -> PointClassification:
    intervals = part.result_intervals
    isolated = part.result_isolated
    unknown_arcs = len(part.result_unknown)
    par_arcs = sum(1 for i in intervals if i.status.kind == "parallel")
    cross_arcs = sum(1 for i in intervals if i.status.kind == "crossing")
    unknown_arcs += sum(1 for i in intervals if i.status.kind == "unknown")
    iso_par = [i for i in isolated if i.status.kind == "parallel"]
    iso_cross = [i for i in isolated if i.status.kind == "crossing"]
    iso_unknown = [i for i in isolated if i.status.kind == "unknown"]

    def out(kind, count=0):
        return PointClassification(kind, count, intervals, isolated,
                                   par_arcs, cross_arcs, unknown_arcs)

    if unknown_arcs or iso_unknown:
        if par_arcs >= 1 and cross_arcs >= 1:
            return out(REGULARLY_HYPERBOLIC)
        return out(UNDETERMINED)
    if par_arcs == 0:
        npar = len(iso_par)
        if npar == 0:
            return out(ELLIPTIC)
        if npar == 1:
            return out(EUCLIDEAN, 1)
        return out(FINITELY_HYPERBOLIC, npar)
    if cross_arcs >= 1:
        return out(REGULARLY_HYPERBOLIC)
    ncross = len(iso_cross)
    if ncross == 0:
        return out(COMPLETELY_HYPERBOLIC)
    return out(EXTREMELY_HYPERBOLIC, ncross)


def critical_directions(P: SurfacePoint, lctx: LineContext,
                        analysis: ModelAnalysis, budgets: Budgets):
    """Sorted vertex-hitting line directions at P, in degrees [0, 180).

    Found by adaptive subdivision: an interval closes when its endpoint
    itineraries match and the swept corridor holds no vertex; corridor
    corners are returned exactly.  A P at a vertex is a ValueError.
    """
    part = _Partitioner(P, lctx, analysis, budgets).run()
    return sorted({round(_theta_deg(d), 9) for d in part.corner_keys})


# -- other classifier operations -----------------------------------------------


def enclosed_defect(path: engine.GeodesicPath, surf: Triangulation,
                    ctx: Scalars) -> int:
    """Defect sum, in degrees, of the vertices enclosed on the compact
    side of a closed geodesic."""
    if engine.detect_closure(path) is None:
        raise ValueError("path is not closed")
    neighbor = surf.neighbor
    crossed = set()
    for _, ev in path.events:
        if isinstance(ev, EdgeCrossing):
            crossed.add(frozenset((ev.tri, neighbor(ev.tri, ev.edge)[0])))
    # A geodesic running along an edge severs that adjacency link too.
    for seg in path.segments:
        ab = chart.bary_of_xy(ctx, *seg.a)
        bb = chart.bary_of_xy(ctx, *seg.b)
        for i in range(3):
            if ctx.is_zero(ab[i]) and ctx.is_zero(bb[i]):
                e = (i + 1) % 3
                nbr = neighbor(seg.tri, e)
                if nbr:
                    crossed.add(frozenset((seg.tri, nbr[0])))
    # Components of the triangle adjacency graph with crossed links
    # removed; the enclosed side is one not touching the frontier.
    seen = {}
    open_comps = set()
    comp = 0
    for t0 in range(surf.n_triangles()):
        if t0 in seen:
            continue
        stack = [t0]
        seen[t0] = comp
        while stack:
            t = stack.pop()
            for e in range(3):
                nbr = neighbor(t, e)
                if nbr is None:
                    open_comps.add(comp)
                elif nbr[0] not in seen \
                        and frozenset((t, nbr[0])) not in crossed:
                    seen[nbr[0]] = comp
                    stack.append(nbr[0])
        comp += 1
    if comp < 2:
        raise ValueError("closed path does not separate the surface")
    inside = set(range(comp)) - open_comps
    if not inside:
        raise ValueError("no disk side found for the closed path")
    total = 0
    for v, d in surf.curved_vertices().items():
        if {seen[t] for t, _ in surf.fan_ccw(v)} <= inside:
            total += 360 - 60 * d
    return total


def connect_by_segments(p: SurfacePoint, q: SurfacePoint,
                        surf: Triangulation, ctx: Scalars):
    """Finite chain of straight in-triangle chords from p to q."""
    p = canonicalize_point(p, surf, ctx)
    q = canonicalize_point(q, surf, ctx)
    if p.tri == q.tri:
        return [(p, q)]
    prev = {p.tri: None}
    queue = [p.tri]
    qi = 0
    while qi < len(queue):
        t = queue[qi]
        qi += 1
        if t == q.tri:
            break
        for e in range(3):
            nbr = surf.neighbor(t, e)
            if nbr and nbr[0] not in prev:
                prev[nbr[0]] = (t, e)
                queue.append(nbr[0])
    if q.tri not in prev:
        raise ValueError("points are not connected")
    hops = []
    t = q.tri
    while prev[t] is not None:
        hops.append(prev[t])
        t = prev[t][0]
    hops.reverse()
    chain = []
    cur = p
    for (t, e) in hops:
        # midpoint of the doorway edge, expressed in triangle t
        b = [ctx.zero, ctx.zero, ctx.zero]
        b[e] = ctx.half
        b[(e + 1) % 3] = ctx.half
        door = canonicalize_point(SurfacePoint(t, tuple(b)), surf, ctx)
        chain.append((cur, door))
        cur = door
    chain.append((cur, q))
    return chain


def find_unjoinable_pair(surf: Triangulation, ctx: Scalars,
                         lctx: LineContext, analysis: ModelAnalysis,
                         budgets: Budgets, candidates):
    """A pair (p, q) with every line through p missing q, or None.

    A point completely hyperbolic with respect to the reference line
    misses every point of that line; q is taken on the line itself, so
    the per-direction certificates double as the pair's evidence.
    """
    for P in candidates:
        cls = classify_point(P, lctx, analysis, budgets)
        if cls.kind == COMPLETELY_HYPERBOLIC:
            qseg = lctx.path.segments[0]
            qb = normalize_bary(ctx, chart.bary_of_xy(
                ctx,
                (qseg.a[0] + qseg.b[0]) * ctx.half,
                (qseg.a[1] + qseg.b[1]) * ctx.half))
            q = canonicalize_point(SurfacePoint(qseg.tri, qb), surf, ctx)
            return P, q, cls
    return None


def ensure_rings(surf: Triangulation, n: int,
                 budget: int = GROWTH_BUDGET) -> Triangulation:
    """Grow the surface until it has at least n ring cycles; a ring that
    would take it past `budget` triangles raises GrowthLimitExceeded
    before it is built."""
    if surf.n_rings() >= n:
        return surf
    return grow_frontier(surf, n - surf.n_rings(), budget)


class Session:
    """What one command derives from one base surface and one Scalars,
    each built once: the surface grown to each ring count its queries
    need, one ModelAnalysis per grown surface, and one LineContext per
    surface, line, core ring and budgets.  A session serves one command;
    a grown surface is kept only when a query runs on it."""

    def __init__(self, surf: Triangulation, ctx: Scalars):
        self.base = surf
        self.ctx = ctx
        self.surfaces = {surf.n_rings(): surf}   # ring count -> surface
        self.analyses = {}                        # ring count -> analysis
        self.lines = {}   # (ring count, line ray, core, budgets) -> context

    def grown(self, rings: int, budget: int) -> Triangulation:
        """The base surface with at least `rings` ring cycles, grown from
        the largest smaller one held.  GrowthLimitExceeded when growth
        would pass `budget` triangles; ring totals only rise, so a held
        surface over the budget is refused too."""
        held = self.surfaces
        rings = max(rings, self.base.n_rings())
        surf = held.get(rings)
        if surf is None:
            below = held[max(k for k in held if k < rings)]
            surf = held[rings] = ensure_rings(below, rings, budget)
        elif surf is not self.base and surf.n_triangles() > budget:
            raise GrowthLimitExceeded(
                f"{surf.n_triangles()} triangles, over the budget of {budget}")
        return surf

    def analysis(self, surf: Triangulation) -> ModelAnalysis:
        rings = surf.n_rings()
        got = self.analyses.get(rings)
        if got is None:
            got = self.analyses[rings] = ModelAnalysis(surf, self.ctx)
        return got

    def line_context(self, surf: Triangulation, lray: Ray, budgets: Budgets,
                     points) -> LineContext:
        """Context of the line through `lray` on `surf` for queries at
        `points`; on flat-complement models its core ring lies outside
        every point's triangle."""
        analysis = self.analysis(surf)
        core = None
        if analysis.kind == "flat_complement":
            core = _default_core_ring(surf, analysis, 1 + max(
                surf.tri_ring(P.tri) for P in points))
        key = (surf.n_rings(), lray, core, budgets)
        lctx = self.lines.get(key)
        if lctx is None:
            lctx = self.lines[key] = build_line_context(
                surf, self.ctx, lray, analysis, budgets, min_core=core)
        return lctx


def classify_labeled(surf: Triangulation, ctx: Scalars, point_label: str,
                     line_label: str, budgets: Budgets,
                     session: Session = None):
    """Classify a named fixture point against a named fixture line.

    The query runs on `surf` grown to four rings past the point's ring,
    and to at least seven; `session` (a Session on `surf` and `ctx`, a
    new one when None) holds the grown surfaces, analyses and line
    contexts that queries share.  Returns (classification, surf,
    analysis, line context).  When those rings would pass the growth
    budget, the classification is undetermined, with one unknown arc
    that names the budget, and the base surface comes back with no
    analysis or line context.
    """
    from .builders import resolve_point, resolve_ray
    session = session or Session(surf, ctx)
    P0 = resolve_point(surf, ctx, surf.labels[point_label])
    want = 0
    if surf.rule is not None:
        p_ring = surf.tri_ring(P0.tri)
        want = max(p_ring + 4, 7)
    try:
        surf = session.grown(want, budgets.growth)
    except GrowthLimitExceeded:
        unknown = Unknown(f"growth budget: {want} rings pass "
                          f"{budgets.growth} triangles")
        arc = DirectionInterval(0.0, 180.0, unknown, (1.0, 0.0))
        return (PointClassification(UNDETERMINED, intervals=[arc],
                                    unknown_arcs=1), surf, None, None)
    P = resolve_point(surf, ctx, surf.labels[point_label])
    lray = resolve_ray(surf, ctx, surf.labels[line_label])
    lctx = session.line_context(surf, lray, budgets, [P])
    analysis = session.analysis(surf)
    cls = classify_point(P, lctx, analysis, budgets)
    return cls, surf, analysis, lctx


def search_finitely_hyperbolic(configurations, budgets: Budgets):
    """Scan (surface, ctx, line ray, base points) configurations for
    candidate finitely hyperbolic points.

    A candidate must show only isolated parallel directions, each passing
    through a degree-7 vertex, and no parallel arc; reported candidates
    keep an undetermined caveat, never a proof.
    """
    out = []
    for (name, surf, ctx, lray, points) in configurations:
        if not points:
            continue  # no probe point: no line context to build
        curved = surf.curved_vertices()
        session = Session(surf, ctx)
        analysis = session.analysis(surf)
        lctx = session.line_context(surf, lray, budgets, points)
        for P in points:
            try:
                cls = classify_point(P, lctx, analysis, budgets)
            except ValueError:
                continue  # probe on the line or at a vertex
            if cls.kind != FINITELY_HYPERBOLIC:
                continue
            # Only isolated parallels pinned to a line through a degree-7
            # vertex exploit the isolation property; anything else is not
            # a candidate.
            iso_par = [i for i in cls.isolated if i.status.kind == "parallel"]
            pinned = bool(iso_par) and all(
                any(curved.get(v) == 7
                    for v in getattr(i.status, "via_vertices", ()))
                for i in iso_par)
            if not pinned:
                continue
            out.append({
                "model": name,
                "point": P,
                "classification": cls,
                "caveat": "finite-budget evidence only, not a proof",
            })
    return out
