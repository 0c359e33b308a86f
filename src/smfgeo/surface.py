"""Combinatorial surface of unit equilateral triangles.

A Triangulation stores oriented triangles (counterclockwise under one
global orientation), edge adjacency, vertex degrees and the lazy growth
frontier.  All geometry lives in per-triangle canonical charts; this
module owns the combinatorics, canonical point forms, planar development
and the ring grower used by the model builders.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import chart
from .numbers import Scalars


class SurfaceError(Exception):
    pass


class UnknownTriangle(SurfaceError):
    pass


class GrowthLimitExceeded(SurfaceError):
    pass


class FrontierVertex(SurfaceError):
    pass


class UnmatchedEdge(SurfaceError):
    pass


class IncompleteRing(SurfaceError):
    pass


@dataclass(frozen=True)
class SurfacePoint:
    """A point as (triangle, barycentric coordinates)."""

    tri: int
    bary: tuple

    def __repr__(self):
        b = ", ".join(str(x) for x in self.bary)
        return f"SurfacePoint(t{self.tri}; {b})"


@dataclass(frozen=True)
class Violation:
    kind: str
    element: tuple
    detail: str = ""


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations

    def add(self, kind, element, detail=""):
        self.violations.append(Violation(kind, element, detail))

    def kinds(self):
        return {v.kind for v in self.violations}


@dataclass(frozen=True)
class GenerationRule:
    """Target vertex degrees for lazy outward growth.

    ``ring_degrees[i]`` is the degree for vertices born on growth ring i
    (the last entry repeats forever); ``special`` pins individual seed
    vertices regardless of ring.
    """

    name: str
    ring_degrees: tuple
    special: tuple = ()  # ((vertex, degree), ...)

    def degree_for(self, v: int, ring: int) -> int:
        for sv, sd in self.special:
            if sv == v:
                return sd
        i = ring if ring < len(self.ring_degrees) else len(self.ring_degrees) - 1
        return self.ring_degrees[i]

    def flat_outside(self, ring: int) -> bool:
        """True when every vertex born after `ring` has degree 6."""
        for i in range(ring + 1, len(self.ring_degrees)):
            if self.ring_degrees[i] != 6:
                return False
        return self.ring_degrees[-1] == 6

    def nonpositive_defect_outside(self, ring: int) -> bool:
        """True when every vertex born after `ring` has degree >= 6."""
        for i in range(ring + 1, len(self.ring_degrees)):
            if self.ring_degrees[i] < 6:
                return False
        return self.ring_degrees[-1] >= 6


class Triangulation:
    """Immutable-by-convention triangulated surface.

    Readers may share an instance freely; growth produces a new one.
    """

    def __init__(self, tris, adj, degree, frontier, boundary, rings, ring_of,
                 rule=None, labels=None, max_triangles=1_000_000):
        self.tris = tris            # list[(v0, v1, v2)] CCW
        self.adj = adj              # {(t, e): (t', e')} symmetric
        self.degree = degree        # {v: incident triangle count}
        self.frontier = frontier    # frozenset of boundary vertices
        self.boundary = boundary    # tuple: boundary vertex cycle, interior on the left
        self.rings = rings          # tuple of vertex cycles, rings[k] = boundary after k growths
        self.ring_of = ring_of      # {v: ring index at birth}
        self.rule = rule
        self.labels = dict(labels or {})
        self.max_triangles = max_triangles
        self._vert_tri = None
        self._hash = None
        # Open directed edges {(u, v): (t, e)}, handed over by
        # _Builder.freeze so the next growth need not rescan every edge;
        # None for a surface built directly.
        self._open_edges = None

    # -- basic queries -------------------------------------------------

    def n_triangles(self) -> int:
        return len(self.tris)

    def n_vertices(self) -> int:
        return len(self.degree)

    def edge_vertices(self, t: int, e: int):
        tv = self.tris[t]
        return tv[e], tv[(e + 1) % 3]

    def directed_edge(self, u: int, v: int):
        """(triangle, edge) of the directed edge u -> v."""
        for t, tv in enumerate(self.tris):
            for e in range(3):
                if tv[e] == u and tv[(e + 1) % 3] == v:
                    return t, e
        raise SurfaceError(f"directed edge ({u},{v}) not found")

    def vertex_slot(self, t: int, v: int) -> int:
        tv = self.tris[t]
        for i in range(3):
            if tv[i] == v:
                return i
        raise SurfaceError(f"vertex {v} not in triangle {t}")

    def incident(self, v: int):
        """One incident (triangle, slot) per vertex, cached."""
        if self._vert_tri is None:
            m = {}
            for t, tv in enumerate(self.tris):
                for i in range(3):
                    m.setdefault(tv[i], (t, i))
            self._vert_tri = m
        return self._vert_tri[v]

    def fan_ccw(self, v: int):
        """Incident (triangle, slot) pairs in CCW order around v.

        For an interior vertex this is the full cycle; for a frontier
        vertex the contiguous fan from the clockwise-most triangle.
        """
        t0, s0 = self.incident(v)
        fan = [(t0, s0)]
        # Walk CCW: leave across the edge arriving at v, i.e. edge (slot+2).
        t, s = t0, s0
        closed = False
        for _ in range(len(self.tris) + 1):
            nxt = self.adj.get((t, (s + 2) % 3))
            if nxt is None:
                break
            t, e = nxt
            s = e  # v sits at slot e of the neighbor
            if (t, s) == (t0, s0):
                closed = True
                break
            fan.append((t, s))
        if closed:
            return fan
        # Walk CW from the start to find the fan's other end.
        t, s = t0, s0
        head = []
        for _ in range(len(self.tris) + 1):
            nxt = self.adj.get((t, s))
            if nxt is None:
                break
            t, e = nxt
            s = (e + 1) % 3
            head.append((t, s))
        head.reverse()
        return head + fan

    # -- identity ------------------------------------------------------

    def content_hash(self) -> str:
        if self._hash is None:
            h = hashlib.sha256()
            for tv in self.tris:
                h.update(f"{tv[0]},{tv[1]},{tv[2]};".encode())
            h.update(b"|")
            for v in sorted(self.frontier):
                h.update(f"{v},".encode())
            self._hash = h.hexdigest()[:16]
        return self._hash

    # -- chart transfer ------------------------------------------------

    def transfer(self, ctx: Scalars, t: int, e: int) -> chart.Isometry:
        """Rigid motion from chart(t) to the neighbor chart across edge e."""
        nbr = self.adj.get((t, e))
        if nbr is None:
            raise UnmatchedEdge(f"edge {e} of triangle {t} is unmatched")
        return chart.gluing(ctx, e, nbr[1])


# -- planar development ----------------------------------------------------


def develop(surf: Triangulation, ctx: Scalars, root: int,
            frame: chart.Isometry, admit):
    """Lay triangles flat in one plane, breadth first from `root`.

    The neighbour t2 across edge e of a placed triangle t is placed once,
    with t's frame carried across e, when ``admit(t, e, t2)`` holds.
    Yields (triangle, frame) in placement order; a triangle is yielded
    before its neighbours are looked at, so `admit` may read what the
    consumer recorded for it.
    """
    frames = {root: frame}
    order = [root]
    for t in order:
        f = frames[t]
        yield t, f
        for e in range(3):
            nbr = surf.adj.get((t, e))
            if nbr and nbr[0] not in frames and admit(t, e, nbr[0]):
                frames[nbr[0]] = f.compose(surf.transfer(ctx, t, e).inverse())
                order.append(nbr[0])


def seams(surf: Triangulation, ctx: Scalars, frames):
    """Edges between two placed triangles whose placements disagree.

    Yields (t, e, direct, have) in `frames` order, once from each side:
    `direct` places t's neighbour across e from t's frame, `have` is the
    neighbour's own frame.
    """
    for t, f in frames.items():
        for e in range(3):
            nbr = surf.adj.get((t, e))
            if not nbr or nbr[0] not in frames:
                continue
            direct = f.compose(surf.transfer(ctx, t, e).inverse())
            have = frames[nbr[0]]
            if direct.k != have.k or not ctx.is_zero(direct.tx - have.tx) \
                    or not ctx.is_zero(direct.ty - have.ty):
                yield t, e, direct, have


# -- canonical points ----------------------------------------------------


def normalize_bary(ctx: Scalars, bary):
    """Snap near-zero barycentrics to zero and rescale to sum 1."""
    b = list(bary)
    for i in range(3):
        if ctx.is_zero(b[i]):
            b[i] = ctx.zero
        elif not ctx.exact and -8 * ctx.eps <= b[i] < 0:
            # numerical dirt from tolerance-boundary constructions
            b[i] = ctx.zero
    s = b[0] + b[1] + b[2]
    if ctx.is_zero(s):
        raise SurfaceError("degenerate barycentric coordinates")
    if not ctx.eq(s, ctx.one):
        b = [x / s for x in b]
    return tuple(b)


def canonicalize_point(p: SurfacePoint, surf: Triangulation, ctx: Scalars) -> SurfacePoint:
    """Unique representative for a surface point.

    Interior points are unchanged, edge points move to the incident
    triangle with the smaller id, vertex points to the smallest incident
    triangle with the vertex in the lowest local slot.
    """
    if not (0 <= p.tri < len(surf.tris)):
        raise UnknownTriangle(f"triangle {p.tri} not in surface")
    b = normalize_bary(ctx, p.bary)
    zeros = [i for i in range(3) if b[i] is ctx.zero or ctx.is_zero(b[i])]
    if not zeros:
        return SurfacePoint(p.tri, b)
    if len(zeros) == 1:
        i = zeros[0]
        e = (i + 1) % 3
        nbr = surf.adj.get((p.tri, e))
        if nbr is None or nbr[0] >= p.tri:
            return SurfacePoint(p.tri, b)
        t2, e2 = nbr
        nb = [ctx.zero, ctx.zero, ctx.zero]
        nb[e2] = b[(e + 1) % 3]
        nb[(e2 + 1) % 3] = b[e]
        return SurfacePoint(t2, tuple(nb))
    # Vertex point.
    slot = next(i for i in range(3) if i not in zeros)
    v = surf.tris[p.tri][slot]
    best_t, best_s = p.tri, slot
    for t, s in surf.fan_ccw(v):
        if t < best_t:
            best_t, best_s = t, s
    nb = [ctx.zero, ctx.zero, ctx.zero]
    nb[best_s] = ctx.one
    return SurfacePoint(best_t, tuple(nb))


def vertex_point(surf: Triangulation, ctx: Scalars, v: int) -> SurfacePoint:
    t, s = surf.incident(v)
    b = [ctx.zero, ctx.zero, ctx.zero]
    b[s] = ctx.one
    return canonicalize_point(SurfacePoint(t, tuple(b)), surf, ctx)


def point_at_vertex(surf: Triangulation, p: SurfacePoint, ctx: Scalars):
    """The global vertex id when p sits on a vertex, else None."""
    b = p.bary
    ones = [i for i in range(3) if ctx.eq(b[i], ctx.one)]
    if len(ones) == 1 and all(ctx.is_zero(b[i]) for i in range(3) if i != ones[0]):
        return surf.tris[p.tri][ones[0]]
    return None


# -- validation ----------------------------------------------------------


def validate(surf: Triangulation) -> ValidationReport:
    """Check the surface axioms; violations are data, not exceptions."""
    rep = ValidationReport()
    # Undirected edge multiplicity.
    edge_uses = {}
    for t, tv in enumerate(surf.tris):
        if len(set(tv)) != 3:
            rep.add("DegenerateTriangle", (t,), f"repeated vertex in {tv}")
            continue
        for e in range(3):
            u, v = surf.edge_vertices(t, e)
            edge_uses.setdefault(frozenset((u, v)), []).append((t, e))
    for key, uses in edge_uses.items():
        if len(uses) > 2:
            rep.add("EdgeShared3", tuple(sorted(key)),
                    f"edge in {len(uses)} triangles: {uses}")
    # Adjacency symmetry, orientation, coverage.
    for (t, e), (t2, e2) in surf.adj.items():
        back = surf.adj.get((t2, e2))
        if back != (t, e):
            rep.add("AdjacencyAsymmetric", (t, e), f"maps to {(t2, e2)} which maps to {back}")
            continue
        if t2 >= len(surf.tris):
            rep.add("UnknownNeighbor", (t, e), f"neighbor {t2} missing")
            continue
        u, v = surf.edge_vertices(t, e)
        u2, v2 = surf.edge_vertices(t2, e2)
        if (u, v) != (v2, u2):
            kind = "OrientationFlip" if {u, v} == {u2, v2} else "EdgeMismatch"
            rep.add(kind, (t, e), f"{(u, v)} glued to {(u2, v2)}")
    for t, tv in enumerate(surf.tris):
        for e in range(3):
            if (t, e) in surf.adj:
                continue
            u, v = surf.edge_vertices(t, e)
            if u not in surf.frontier or v not in surf.frontier:
                rep.add("EdgeUnmatched", (t, e),
                        f"open edge ({u},{v}) off the frontier")
    # Degrees.
    counts = {}
    for tv in surf.tris:
        for v in tv:
            counts[v] = counts.get(v, 0) + 1
    for v, d in surf.degree.items():
        actual = counts.get(v, 0)
        if actual != d:
            rep.add("DegreeMismatch", (v,), f"stored {d}, actual {actual}")
        if v in surf.frontier:
            if actual > 7:
                rep.add("BadDegree", (v,), f"frontier vertex degree {actual} > 7")
        elif actual not in (5, 6, 7):
            rep.add("BadDegree", (v,), f"interior vertex degree {actual}")
    for v in counts:
        if v not in surf.degree:
            rep.add("DegreeMismatch", (v,), "vertex missing from degree map")
    # Connectivity over triangle adjacency.
    if surf.tris:
        seen = {0}
        stack = [0]
        while stack:
            t = stack.pop()
            for e in range(3):
                nbr = surf.adj.get((t, e))
                if nbr and nbr[0] not in seen:
                    seen.add(nbr[0])
                    stack.append(nbr[0])
        if len(seen) != len(surf.tris):
            missing = sorted(set(range(len(surf.tris))) - seen)
            rep.add("Disconnected", (missing[0],),
                    f"{len(missing)} triangles unreachable from 0")
    return rep


# -- construction and growth ---------------------------------------------


class _Builder:
    """Mutable scratch space used by seeds and by grow_frontier.

    `freeze` hands the builder's containers to the new Triangulation, so
    the builder must not be used after it.
    """

    def __init__(self, max_triangles=1_000_000):
        self.tris = []
        self.adj = {}
        self.degree = {}
        self.pending = {}  # directed open edge (u, v) -> (t, e)
        self.ring_of = {}
        self.rings = []
        self.max_triangles = max_triangles
        self.next_vertex = 0

    @classmethod
    def from_surface(cls, surf: Triangulation) -> "_Builder":
        b = cls(surf.max_triangles)
        b.tris = list(surf.tris)
        b.adj = dict(surf.adj)
        b.degree = dict(surf.degree)
        b.ring_of = dict(surf.ring_of)
        b.rings = list(surf.rings)
        b.next_vertex = max(surf.degree) + 1 if surf.degree else 0
        if surf._open_edges is not None:
            b.pending = dict(surf._open_edges)
            return b
        for t, tv in enumerate(b.tris):
            for e in range(3):
                if (t, e) not in b.adj:
                    b.pending[(tv[e], tv[(e + 1) % 3])] = (t, e)
        return b

    def new_vertex(self, ring: int) -> int:
        v = self.next_vertex
        self.next_vertex += 1
        self.degree[v] = 0
        self.ring_of[v] = ring
        return v

    def add_triangle(self, a: int, b: int, c: int) -> int:
        tris = self.tris
        t = len(tris)
        if t >= self.max_triangles:
            raise GrowthLimitExceeded(
                f"triangle budget {self.max_triangles} reached")
        tris.append((a, b, c))
        degree = self.degree
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
        degree[c] = degree.get(c, 0) + 1
        adj = self.adj
        pending = self.pending
        # Each edge's (t, e) tuple is at once its adj key, the other
        # side's adj value and its pending entry: one object, not three.
        te = (t, 0)
        other = pending.pop((b, a), None)
        if other is not None:
            adj[te] = other
            adj[other] = te
        elif pending.setdefault((a, b), te) is not te:
            raise SurfaceError(f"duplicate directed edge ({a},{b})")
        te = (t, 1)
        other = pending.pop((c, b), None)
        if other is not None:
            adj[te] = other
            adj[other] = te
        elif pending.setdefault((b, c), te) is not te:
            raise SurfaceError(f"duplicate directed edge ({b},{c})")
        te = (t, 2)
        other = pending.pop((a, c), None)
        if other is not None:
            adj[te] = other
            adj[other] = te
        elif pending.setdefault((c, a), te) is not te:
            raise SurfaceError(f"duplicate directed edge ({c},{a})")
        return t

    def boundary_cycle(self):
        """Open directed edges chained into the boundary vertex cycle."""
        nxt = {}
        for (u, v) in self.pending:
            if u in nxt:
                raise SurfaceError(f"non-manifold boundary at vertex {u}")
            nxt[u] = v
        if not nxt:
            return ()
        start = min(nxt)
        cyc = [start]
        v = nxt[start]
        while v != start:
            cyc.append(v)
            v = nxt[v]
            if len(cyc) > len(nxt):
                raise SurfaceError("boundary is not a single cycle")
        if len(cyc) != len(nxt):
            raise SurfaceError("boundary is not a single cycle")
        return tuple(cyc)

    def freeze(self, rule, labels, boundary=None) -> Triangulation:
        bd = self.boundary_cycle() if boundary is None else boundary
        surf = Triangulation(
            tris=self.tris,
            adj=self.adj,
            degree=self.degree,
            frontier=frozenset(bd),
            boundary=bd,
            rings=tuple(self.rings),
            ring_of=self.ring_of,
            rule=rule,
            labels=labels,
            max_triangles=self.max_triangles,
        )
        surf._open_edges = self.pending
        # The surface owns the containers now; a stray later use of the
        # builder fails here instead of changing a frozen surface.
        self.tris = self.adj = self.degree = self.ring_of = None
        self.pending = self.rings = None
        return surf


def _ring_gaps(rule: GenerationRule, cycle, degree, ring_of):
    """{v: k} with k = target - deg(v), the triangles missing outside
    each vertex v of the boundary `cycle`."""
    gaps = {}
    for v in cycle:
        k = rule.degree_for(v, ring_of[v]) - degree[v]
        if k < 2:
            raise SurfaceError(
                f"rule {rule.name} leaves vertex {v} with gap {k} < 2")
        gaps[v] = k
    return gaps


def _planned_size(gaps) -> int:
    # A vertex with gap k gets k - 2 "down" triangles of its own and
    # shares two "up" triangles with its boundary neighbours: k - 1 each.
    return sum(gaps.values()) - len(gaps)


def ring_size(surf: Triangulation) -> int:
    """Number of triangles that growing `surf` by one ring adds."""
    if surf.rule is None:
        raise SurfaceError("surface has no generation rule")
    return _planned_size(_ring_gaps(surf.rule, surf.boundary, surf.degree,
                                    surf.ring_of))


def _grow_one_ring(b: _Builder, rule: GenerationRule, cycle, gaps):
    """Complete every vertex of the boundary `cycle` to its rule degree,
    one ring out, and return the new boundary cycle.

    Per boundary vertex v the gap outside is filled by k = gaps[v]
    triangles: one "up" triangle per flanking boundary edge plus m = k - 2
    "down" triangles pivoting around v between fresh outer vertices.
    """
    ring = len(b.rings)
    n = len(cycle)
    m = {v: k - 2 for v, k in gaps.items()}
    starts = [i for i, v in enumerate(cycle) if m[v] > 0]
    if not starts:
        raise SurfaceError("ring would close the surface; unsupported")
    s = starts[0]
    order = [cycle[(s + j) % n] for j in range(n)]

    apex = {}  # apex[i] = outer apex vertex of the up-triangle on edge (order[i] -> order[i+1])
    outer_first = b.new_vertex(ring)   # apex of edge (order[0] -> order[1])
    apex[0] = outer_first
    b.add_triangle(order[1], order[0], outer_first)

    def add_downs(v, w_prev, w_new, mids_count):
        chain = [w_prev]
        for _ in range(mids_count - 1):
            chain.append(b.new_vertex(ring))
        chain.append(w_new)
        for a, c in zip(chain, chain[1:]):
            b.add_triangle(v, a, c)

    for j in range(1, n):
        v = order[j]
        w_prev = apex[j - 1]
        if m[v] == 0:
            apex[j] = w_prev
        else:
            apex[j] = b.new_vertex(ring)
            add_downs(v, w_prev, apex[j], m[v])
        nxt = order[(j + 1) % n]
        if j < n - 1:
            b.add_triangle(nxt, v, apex[j])
        else:
            # Last edge closes onto the first apex.
            b.add_triangle(order[0], v, apex[j])
    # Deferred: the start vertex's down triangles (its right flank is apex[n-1]).
    add_downs(order[0], apex[n - 1], outer_first, m[order[0]])

    for v in cycle:
        target = rule.degree_for(v, b.ring_of[v])
        if b.degree[v] != target:
            raise SurfaceError(
                f"growth bug: vertex {v} completed at degree {b.degree[v]},"
                f" target {target}")
    bd = b.boundary_cycle()
    b.rings.append(bd)
    return bd


def grow_frontier(surf: Triangulation, rings: int,
                  budget: int = None) -> Triangulation:
    """Push the frontier outward by `rings` layers under the surface rule.

    Each ring is planned before it is built (its size is `ring_size` of
    the surface grown so far): one that would take the surface past
    `budget` triangles, or past `max_triangles`, raises
    GrowthLimitExceeded before anything of it is copied or added.
    """
    rule = surf.rule
    if rule is None:
        raise SurfaceError("surface has no generation rule")
    if not surf.frontier:
        raise SurfaceError("surface has no frontier")
    limit = surf.max_triangles if budget is None else \
        min(budget, surf.max_triangles)
    cycle = surf.boundary
    b = None
    for _ in range(rings):
        state = b or surf
        gaps = _ring_gaps(rule, cycle, state.degree, state.ring_of)
        total = len(state.tris) + _planned_size(gaps)
        if total > limit:
            raise GrowthLimitExceeded(
                f"next ring would make {total} triangles, over the budget"
                f" of {limit}")
        b = b or _Builder.from_surface(surf)
        cycle = _grow_one_ring(b, rule, cycle, gaps)
    return (b or _Builder.from_surface(surf)).freeze(rule, surf.labels, cycle)


def angle_defect_deg(surf: Triangulation, v: int) -> int:
    """360 - 60 * degree, in degrees, for a non-frontier vertex."""
    if v in surf.frontier:
        raise FrontierVertex(f"vertex {v} is on the frontier")
    return 360 - 60 * surf.degree[v]
