"""Combinatorial surface of unit equilateral triangles.

A Triangulation stores oriented triangles (counterclockwise under one
global orientation), edge adjacency, vertex degrees and the growth
frontier.  All geometry lives in per-triangle canonical charts; this
module owns the combinatorics, canonical point forms, planar development
and the ring growth used by the model builders.

A surface is built in two ways only.  `from_triangles` pairs the edges
of a triangle list into a surface with no ring plan: the model seeds
and every explicit SMF list are built so.  `grow_frontier` adds ring
plans to a surface and shares its base.

Growth plans rings instead of building them: a ring's size and the ids
of all its triangles, vertices and neighbours follow from the degree
pattern of the boundary it grows on.  A planned ring is its plan: a
neighbour is worked out from the plans when asked, and a planned
triangle's vertices are made, with the rest of its sector (the
triangles outside one boundary vertex), the first time something reads
them.  Ring questions (vertex degrees, birth rings, ring cycles, the
ring of a triangle, the content hash) are answered from the plans and
make nothing.  A surface stores only its base, its plans and what it has
worked out of them; the whole-surface containers are views of them,
made on first read for `validate` and for tests.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import sub

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


class Value:
    """Base of the hashed value types.  Equality and hash read the fields
    `_key` gets, every slot unless a class names fewer, as a dataclass's
    generated methods did: another class compares as NotImplemented, and
    the hash is that of the field tuple.  Nothing assigns to a field
    after construction, so values are hashed and shared freely."""

    __slots__ = ()

    def _key(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self.__class__._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.__class__._key(self))


class SurfacePoint(Value):
    """A point as (triangle, barycentric coordinates)."""

    __slots__ = ("tri", "bary")

    def __init__(self, tri: int, bary: tuple):
        self.tri = tri
        self.bary = bary

    def __repr__(self):
        b = ", ".join(str(x) for x in self.bary)
        return f"SurfacePoint(t{self.tri}; {b})"


class Violation(Value):
    __slots__ = ("kind", "element", "detail")

    def __init__(self, kind: str, element: tuple, detail: str = ""):
        self.kind = kind
        self.element = element
        self.detail = detail


class ValidationReport:
    __slots__ = ("violations",)

    def __init__(self):
        self.violations = []

    def ok(self) -> bool:
        return not self.violations

    def add(self, kind, element, detail=""):
        self.violations.append(Violation(kind, element, detail))

    def kinds(self):
        return {v.kind for v in self.violations}


class GenerationRule(Value):
    """Target vertex degrees for lazy outward growth.

    ``ring_degrees[i]`` is the degree for vertices born on growth ring i
    (the last entry repeats forever); ``special`` pins individual seed
    vertices regardless of ring: ((vertex, degree), ...).
    """

    __slots__ = ("name", "ring_degrees", "special")

    def __init__(self, name: str, ring_degrees: tuple, special: tuple = ()):
        self.name = name
        self.ring_degrees = ring_degrees
        self.special = special

    def degree_for(self, v: int, ring: int) -> int:
        for sv, sd in self.special:
            if sv == v:
                return sd
        return self.ring_degree(ring)

    def ring_degree(self, ring: int) -> int:
        """Degree of the vertices born on `ring` that `special` does not pin."""
        return self.ring_degrees[min(ring, len(self.ring_degrees) - 1)]

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
    Build one with `from_triangles` or `grow_frontier`; the constructor
    keeps the containers it is given as they are.

    A surface is its base plus planned rings (`_RingPlan`): the ids,
    vertices and neighbours of every planned triangle are fixed by the
    plan.  `neighbor` works a planned neighbour out from the plans, and
    `triangle` makes a planned triangle's vertices, a sector at a time;
    both keep what they work out, which never changes what a reader
    sees.  Ring questions make nothing: the triangle count
    (`n_triangles`), the ring count (`n_rings`), a ring cycle
    (`ring_cycle`), the triangles outside a ring's vertices
    (`outward_counts`, which ring audits read), a ring's triangle ids
    (`ring_start`), a vertex's birth ring (`birth_ring`), the interior
    vertices of degree other than 6 (`curved_vertices`), `on_frontier`,
    `tri_ring` and `content_hash` are read off the base and the plans.

    The whole-surface containers are views of the base and the plans,
    made on first read and kept: `tris` makes every planned triangle's
    vertices and `adj` works out every neighbour; `degree`, `ring_of`,
    `rings`, `boundary` and `frontier` make neither.  Only `validate`,
    `n_vertices` and tests read them.  A surface carries no triangle
    cap: the budget passed to `grow_frontier` bounds growth.
    """

    def __init__(self, tris, adj, degree, frontier, boundary, rings, ring_of,
                 rule=None, labels=None, plans=()):
        self.rule = rule
        self.labels = dict(labels or {})
        # The base's triangles, and the adjacency worked out so far: the
        # base's own, and each planned neighbour once something asked.
        self._tris = tris
        self._adj = adj
        self._plans = plans
        self._plan_bases = tuple(p.base for p in plans)
        self._plan_vbases = tuple(p.vbase for p in plans)
        # The base the planned rings grow on, the whole surface when there
        # is no plan: {v: incident triangle count}, the frontier vertices,
        # the boundary cycle (interior on the left), the ring cycles
        # (rings[k] = boundary after k growths) and {v: ring at birth}.
        self._base_degree = degree
        self._base_frontier = frontier
        self._base_boundary = boundary
        self._base_rings = rings
        self._base_ring_of = ring_of
        # Vertices of the planned triangles made so far, {t: (v0, v1, v2)}.
        self._made = {}
        self._vert_tri = None
        self._hash = None
        self._next = None   # plan of the ring grown next, made on demand
        # Open directed edges {(u, v): (t, e)} of the base, which link the
        # first planned ring to it; `grow_frontier` works them out when it
        # first plans a ring on the base, None before.
        self._open_edges = None

    # -- whole-surface views -------------------------------------------

    @cached_property
    def tris(self):
        """list[(v0, v1, v2)] CCW, every planned triangle made: read off
        the plans a ring at a time (`_planned_runs`) and kept as made."""
        tris = list(self._tris)
        for run in self._planned_runs():
            tris += zip(*[iter(run)] * 3)
        self._made.update(enumerate(tris[len(self._tris):], len(self._tris)))
        return tris

    @cached_property
    def adj(self):
        """{(t, e): (t', e')} symmetric, every planned neighbour worked
        out."""
        for t in range(self.n_triangles()):
            for e in range(3):
                self.neighbor(t, e)
        return self._adj

    @cached_property
    def degree(self):
        """{v: incident triangle count}: the interior's, then the
        frontier's from the last plan."""
        if not self._plans:
            return self._base_degree
        last = self._plans[-1]
        degree = dict(self._interior_degrees())
        degree.update(sorted(zip(last.outer_ids(), last.outer_degrees())))
        return degree

    @cached_property
    def ring_of(self):
        """{v: ring index at birth}."""
        ring_of = dict(self._base_ring_of)
        for p in self._plans:
            ring_of.update(dict.fromkeys(range(p.vbase, p.vend), p.ring))
        return ring_of

    @cached_property
    def rings(self):
        """Tuple of vertex cycles: rings[k] is the boundary after k
        growths."""
        return tuple(map(self.ring_cycle, range(self.n_rings())))

    @cached_property
    def boundary(self):
        """The frontier's vertex cycle, interior on the left."""
        return self.rings[-1] if self._plans else self._base_boundary

    @cached_property
    def frontier(self):
        """Frozenset of the boundary's vertices."""
        return frozenset(self.boundary) if self._plans else self._base_frontier

    # -- basic queries -------------------------------------------------

    def n_triangles(self) -> int:
        """Triangle count: the base's, or the end of the last plan's ids."""
        if self._plans:
            last = self._plans[-1]
            return last.base + last.size
        return len(self._tris)

    def n_rings(self) -> int:
        """Number of ring cycles, `len(rings)`: the base's plus one per plan."""
        return len(self._base_rings) + len(self._plans)

    def _plan_of_ring(self, k: int):
        """The plan that makes ring k, or None for a ring of the base or
        one past the last."""
        i = k - len(self._base_rings)
        return self._plans[i] if 0 <= i < len(self._plans) else None

    def ring_cycle(self, k: int) -> tuple:
        """The vertex cycle `rings[k]`, from the base or from the plan that
        makes it."""
        p = self._plan_of_ring(k)
        return self._base_rings[k] if p is None else tuple(p.outer_ids())

    def outward_counts(self, k: int):
        """Triangles outside each vertex of `rings[k]`, in cycle order, as
        bytes: the gaps of the plan that grows on ring k.  None when no
        plan does: ring k is the frontier, or the base holds the ring
        outside it."""
        p = self._plan_of_ring(k + 1)
        if p is None:
            return None
        s = p.n - p.start   # the sector of cycle position 0
        return p.ks[s:] + p.ks[:s]

    def ring_start(self, k: int) -> int:
        """First triangle id of planned ring k; `n_triangles()` past the
        last ring.  A planned ring's triangles are the ids from its start
        to the next ring's."""
        if k < len(self._base_rings):
            raise SurfaceError(f"ring {k} is a ring of the base")
        p = self._plan_of_ring(k)
        return self.n_triangles() if p is None else p.base

    def birth_ring(self, v: int) -> int:
        """Ring index at birth of vertex v, from the base or its plan."""
        i = bisect_right(self._plan_vbases, v) - 1
        return self._base_ring_of[v] if i < 0 else self._plans[i].ring

    def curved_vertices(self) -> dict:
        """{v: degree} of the interior vertices whose degree is not 6, in
        id order; reads no whole-surface view."""
        return {v: d for v, d in self._interior_degrees() if d != 6}

    def _interior_degrees(self):
        """(v, degree) of every vertex off the frontier, in id order: the
        base's from its table, a planned ring's from the rule, since
        growing a ring completes the boundary under it (the base's too)
        to the rule's degrees."""
        plans, rule = self._plans, self.rule
        edge = set(plans[0].inner) if plans else self._base_frontier
        for v, d in sorted(self._base_degree.items()):
            if v not in edge:
                yield v, d
            elif plans:
                yield v, rule.degree_for(v, self._base_ring_of[v])
        for p in plans[:-1]:
            new = range(p.vbase, p.vend)
            if any(v in new for v, _ in rule.special):
                yield from ((v, rule.degree_for(v, p.ring)) for v in new)
            else:
                yield from zip(new, repeat(rule.ring_degree(p.ring)))

    def n_vertices(self) -> int:
        return len(self.degree)

    def triangle(self, t: int):
        """Vertices (v0, v1, v2) of triangle t; a planned triangle's are
        made with the rest of its sector on first read."""
        tris = self._tris
        if t < len(tris):
            return tris[t]
        tv = self._made.get(t)
        if tv is None:
            p = self._plans[bisect_right(self._plan_bases, t) - 1]
            j, first = p.sector_of(t - p.base)
            tvs = p.sector(j)
            self._made.update(zip([p.base + (first + c) % p.size
                                   for c in range(len(tvs))], tvs))
            tv = self._made[t]
        return tv

    def neighbor(self, t: int, e: int):
        """(t', e') across edge e of triangle t, or None at the frontier."""
        nbr = self._adj.get((t, e))
        if nbr is None and self._plans:
            nbr = self._plan_neighbor(t, e)
        return nbr

    def on_frontier(self, v: int) -> bool:
        """Is v on the frontier (of the last planned ring, if any)?"""
        if self._plans:
            last = self._plans[-1]
            return last.vbase <= v < last.vend
        return v in self._base_frontier

    def edge_vertices(self, t: int, e: int):
        tv = self.triangle(t)
        return tv[e], tv[(e + 1) % 3]

    def directed_edge(self, u: int, v: int):
        """(triangle, edge) of the directed edge u -> v, found in u's fan."""
        try:
            fan = self.fan_ccw(u)
        except KeyError:
            fan = ()
        for t, s in fan:
            if self.triangle(t)[(s + 1) % 3] == v:
                return t, s
        raise SurfaceError(f"directed edge ({u},{v}) not found")

    def tri_ring(self, t: int) -> int:
        """Ring of triangle t: the largest birth ring of its vertices.

        The triangles of ring k > 0 lie between the cycles rings[k - 1]
        and rings[k].  A planned triangle's ring is its plan's, since each
        planned triangle has a vertex the plan makes.
        """
        i = bisect_right(self._plan_bases, t)
        if i:
            return self._plans[i - 1].ring
        ring_of = self._base_ring_of
        a, b, c = self._tris[t]
        return max(ring_of[a], ring_of[b], ring_of[c])

    def vertex_slot(self, t: int, v: int) -> int:
        tv = self.triangle(t)
        for i in range(3):
            if tv[i] == v:
                return i
        raise SurfaceError(f"vertex {v} not in triangle {t}")

    def incident(self, v: int):
        """(triangle, slot) of the smallest triangle at v, cached."""
        m = self._vert_tri
        if m is None:
            m = {}
            for t, tv in enumerate(self._tris):
                for i in range(3):
                    m.setdefault(tv[i], (t, i))
            self._vert_tri = m
        hit = m.get(v)
        if hit is None:
            i = bisect_right(self._plan_vbases, v) - 1
            if i < 0 or v >= self._plans[i].vend:
                raise KeyError(v)
            p = self._plans[i]
            hit = (p.base + p.incident_offset(v), 2)
        return hit

    def fan_ccw(self, v: int):
        """Incident (triangle, slot) pairs in CCW order around v.

        For an interior vertex this is the full cycle; for a frontier
        vertex the contiguous fan from the clockwise-most triangle.
        """
        t0, s0 = self.incident(v)
        fan = [(t0, s0)]
        adj = self._adj
        cap = self.n_triangles() + 1
        # Walk CCW: leave across the edge arriving at v, i.e. edge (slot+2).
        t, s = t0, s0
        closed = False
        for _ in range(cap):
            e = (s + 2) % 3
            nxt = adj.get((t, e)) or self.neighbor(t, e)
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
        for _ in range(cap):
            nxt = adj.get((t, s)) or self.neighbor(t, s)
            if nxt is None:
                break
            t, e = nxt
            s = (e + 1) % 3
            head.append((t, s))
        head.reverse()
        return head + fan

    # -- identity ------------------------------------------------------

    def content_hash(self) -> str:
        """Digest of every triangle's vertices in id order and of the
        frontier.  Planned rings are read from their plans, a ring at a
        time, so hashing makes nothing and reads no whole-surface view."""
        if self._hash is None:
            import hashlib   # here, so importing the package loads no OpenSSL
            last = self._plans[-1] if self._plans else None
            frontier = sorted(self._base_frontier) if last is None \
                else range(last.vbase, last.vend)
            h = hashlib.sha256()
            base = self._tris
            runs = (list(chain.from_iterable(base[i:i + _RUN]))
                    for i in range(0, len(base), _RUN))
            for run in chain(runs, self._planned_runs()):
                h.update((("%d,%d,%d;" * (len(run) // 3)) % tuple(run))
                         .encode())
            h.update(b"|")
            for i in range(0, len(frontier), _RUN):
                part = frontier[i:i + _RUN]
                h.update((("%d," * len(part)) % tuple(part)).encode())
            self._hash = h.hexdigest()[:16]
        return self._hash

    def _planned_runs(self):
        """Every planned triangle's vertex ids in id order, flat, as each
        plan's `strip` gives them, with the boundary ids of each plan from
        the plan before (`outer_ids`)."""
        plans = self._plans
        ids = plans and plans[0].inner
        for p in plans:
            yield from p.strip(ids)
            if p is not plans[-1]:
                ids = p.outer_ids()

    # -- chart transfer ------------------------------------------------

    def transfer(self, ctx: Scalars, t: int, e: int) -> chart.Isometry:
        """Rigid motion from chart(t) to the neighbor chart across edge e."""
        nbr = self._adj.get((t, e)) or self.neighbor(t, e)
        if nbr is None:
            raise UnmatchedEdge(f"edge {e} of triangle {t} is unmatched")
        return chart.gluing(ctx, e, nbr[1])

    # -- planned rings ---------------------------------------------------

    def _next_plan(self) -> "_RingPlan":
        """Plan of the ring that growing this surface adds next."""
        if self._next is None:
            rule = self.rule
            if rule is None:
                raise SurfaceError("surface has no generation rule")
            if self._plans:
                self._next = self._plans[-1].following(rule)
            else:
                if not self._base_frontier:
                    raise SurfaceError("surface has no frontier")
                cycle = tuple(self._base_boundary)
                degree = self._base_degree
                gaps = [rule.degree_for(v, self._base_ring_of[v]) - degree[v]
                        for v in cycle]
                for v, k in zip(cycle, gaps):
                    if k < 2:
                        raise _short_gap(rule, v, k)
                vbase = max(degree) + 1 if degree else 0
                self._next = _RingPlan(len(self._base_rings), len(self._tris),
                                       vbase, cycle, bytes(gaps))
        return self._next

    def _plan_neighbor(self, t: int, e: int):
        """(t', e') across edge e of a planned triangle t or of an open
        edge of the base, read off the plans and kept in `_adj`; None at
        the frontier.

        A ring is one cyclic strip in id order: each triangle's edge 2
        meets the next triangle's left edge (edge 0 of a down triangle,
        edge 1 of an up triangle).  An up triangle's edge 0 lies on the
        boundary the ring grows on, a down triangle's edge 1 on the
        boundary it makes.
        """
        plans = self._plans
        i = bisect_right(self._plan_bases, t) - 1
        if i < 0:
            # An open edge of the base faces the first planned ring.
            u, w = self.edge_vertices(t, e)
            p = plans[0]
            j = p.position(u)
            if j is None or p.vertex(j + 1) != w:
                return None
            nbr = (p.base + p.up[j], 0)
        else:
            p = plans[i]
            o = t - p.base
            ju, up, nxt = p.up.floor(o)   # t's sector, or the one before
            is_up = up == o
            if e == 2:   # past sector n - 1 the next up is up 0, at `size`
                o += 1
                nbr = (p.base + o % p.size, 1 if o == (nxt or p.size) else 0)
            elif e == (1 if is_up else 0):
                nbr = (p.base + (o - 1) % p.size, 2)
            elif not is_up:
                # Down c's edge 1 is edge c of the boundary the ring makes,
                # on which the next ring's up c - start stands.
                if i + 1 == len(plans):
                    return None   # the frontier
                r = plans[i + 1]
                nbr = (r.base + r.up[(o - ju - 1 - r.start) % r.n], 0)
            elif i:
                # Up j's edge 0 is edge start + j of the boundary the ring
                # grows on, the previous ring's down there ...
                q = plans[i - 1]
                nbr = (q.base + q.down_offset((p.start + ju) % p.n), 1)
            else:
                # ... or the base's open edge.
                nbr = self._open_edges[p.vertex(ju), p.vertex(ju + 1)]
        self._adj[t, e] = nbr
        self._adj[nbr] = (t, e)
        return nbr


# -- planar development ----------------------------------------------------


def develop(surf: Triangulation, ctx: Scalars, root: int,
            frame: chart.Isometry, admit, tree=None):
    """Lay triangles flat in one plane, breadth first from `root`.

    The neighbour t2 across edge e of a placed triangle t is placed once,
    with t's frame carried across e, when ``admit(t, e, t2)`` holds.
    Yields (triangle, frame) in placement order; a triangle is yielded
    before its neighbours are looked at, so `admit` may read what the
    consumer recorded for it.  A set `tree` gets both sides, (t, e) and
    the neighbour's (t2, e2), of each edge a triangle was placed across.
    """
    frames = {root: frame}
    order = [root]
    adj = surf._adj
    for t in order:
        f = frames[t]
        yield t, f
        for e in range(3):
            nbr = adj.get((t, e)) or surf.neighbor(t, e)
            if nbr and nbr[0] not in frames and admit(t, e, nbr[0]):
                frames[nbr[0]] = f.compose(surf.transfer(ctx, t, e).inverse())
                order.append(nbr[0])
                if tree is not None:
                    tree |= {(t, e), nbr}


def seams(surf: Triangulation, ctx: Scalars, frames, tree):
    """Edges between two placed triangles whose placements disagree.

    Yields (t, e, direct, have) in `frames` order, once from each side:
    `direct` places t's neighbour across e from t's frame, `have` is the
    neighbour's own frame.  The edges `develop` placed a triangle across,
    in `tree`, agree by construction and are skipped.
    """
    for t, f in frames.items():
        for e in range(3):
            if (t, e) in tree:
                continue
            nbr = surf.neighbor(t, e)
            if not nbr or nbr[0] not in frames:
                continue
            direct = f.compose(surf.transfer(ctx, t, e).inverse())
            have = frames[nbr[0]]
            if direct.k != have.k or not ctx.is_zero(direct.tx - have.tx) \
                    or not ctx.is_zero(direct.ty - have.ty):
                yield t, e, direct, have


# -- canonical points ----------------------------------------------------


def snap_bary(ctx: Scalars, bary):
    """Snap near-zero barycentrics to zero and rescale them to sum 1.

    Returns (bary, zero_slots): the snapped coordinates as a tuple, and
    the ascending slots i where `ctx.is_zero(bary[i])` holds for them,
    exactly the slots a retest would find.  A coordinate snaps to
    `ctx.zero` when it is zero to tolerance or, in float mode only, lies
    within 8 eps below zero (numerical dirt from tolerance-boundary
    constructions).  A sum off 1 divides every coordinate; a snapped
    zero stays zero then, so only the others are tested again.  Raises
    SurfaceError when the sum is zero or not a number.
    """
    is_zero = ctx.is_zero
    b = list(bary)
    if ctx.exact:
        zeros = [i for i in range(3) if is_zero(b[i])]
    else:
        # |x| <= eps or the dirt rule -8 eps <= x < 0, as one interval.
        lo, hi = -8 * ctx.eps, ctx.eps
        zeros = [i for i in range(3) if lo <= b[i] <= hi]
    for i in zeros:
        b[i] = ctx.zero
    s = b[0] + b[1] + b[2]
    if is_zero(s):
        raise SurfaceError("degenerate barycentric coordinates")
    if not ctx.eq(s, ctx.one):
        if s != s:
            raise SurfaceError("barycentric coordinates are not numbers")
        b = [x / s for x in b]
        zeros = [i for i in range(3) if i in zeros or is_zero(b[i])]
    return tuple(b), tuple(zeros)


def normalize_bary(ctx: Scalars, bary):
    """The snapped, rescaled barycentrics of `snap_bary`."""
    return snap_bary(ctx, bary)[0]


def canonicalize_point(p: SurfacePoint, surf: Triangulation, ctx: Scalars,
                       with_zeros=False):
    """Unique representative for a surface point.

    Interior points are unchanged, edge points move to the incident
    triangle with the smaller id, vertex points to the smallest incident
    triangle with the vertex in the lowest local slot.  With
    `with_zeros`, returns (point, zero slots of its barycentrics) as
    `snap_bary` does.
    """
    if not (0 <= p.tri < surf.n_triangles()):
        raise UnknownTriangle(f"triangle {p.tri} not in surface")
    b, zeros = snap_bary(ctx, p.bary)
    out = SurfacePoint(p.tri, b)
    if len(zeros) == 1:
        e = (zeros[0] + 1) % 3
        nbr = surf.neighbor(p.tri, e)
        if nbr is not None and nbr[0] < p.tri:
            t2, e2 = nbr
            nb = [ctx.zero, ctx.zero, ctx.zero]
            nb[e2] = b[(e + 1) % 3]
            nb[(e2 + 1) % 3] = b[e]
            out, zeros = SurfacePoint(t2, tuple(nb)), ((e2 + 2) % 3,)
    elif zeros:
        # Vertex point.
        slot = next(i for i in range(3) if i not in zeros)
        v = surf.triangle(p.tri)[slot]
        best_t, best_s = p.tri, slot
        for t, s in surf.fan_ccw(v):
            if t < best_t:
                best_t, best_s = t, s
        nb = [ctx.zero, ctx.zero, ctx.zero]
        nb[best_s] = ctx.one
        out = SurfacePoint(best_t, tuple(nb))
        zeros = tuple(i for i in range(3) if i != best_s)
    return (out, zeros) if with_zeros else out


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
        return surf.triangle(p.tri)[ones[0]]
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


def from_triangles(tris, rule=None, rings=None, ring_of=None):
    """The surface, with no ring plan, of `tris`: vertex triples,
    counterclockwise, in triangle id order.

    Vertex degrees are counted in the order vertices are first met, and
    one pass pairs each directed edge (u, v) with an open (v, u).  The
    edges left open chain into the boundary cycle, which starts at its
    smallest vertex.  `rings` defaults to that cycle alone and `ring_of`
    to ring 0 for every vertex.  Raises SurfaceError for a directed edge
    used twice or for open edges that do not form one cycle.
    """
    tris = list(tris)
    degree = {}
    for v in chain.from_iterable(tris):
        degree[v] = degree.get(v, 0) + 1
    adj, pending = {}, {}   # pending: open directed edge (u, v) -> (t, e)
    pop, setdefault = pending.pop, pending.setdefault
    for t, (a, b, c) in enumerate(tris):
        # Each edge's (t, e) tuple is at once its adj key, the other
        # side's adj value and its pending entry: one object, not three.
        for te, u, v in (((t, 0), a, b), ((t, 1), b, c), ((t, 2), c, a)):
            other = pop((v, u), None)
            if other is not None:
                adj[te] = other
                adj[other] = te
            elif setdefault((u, v), te) is not te:
                raise SurfaceError(f"duplicate directed edge ({u},{v})")
    nxt = {}
    for u, v in pending:
        if nxt.setdefault(u, v) != v:
            raise SurfaceError(f"non-manifold boundary at vertex {u}")
    # A triangle adds as many edges into a vertex as out of it, and a pair
    # takes one of each away, so `nxt` is a permutation of its vertices.
    boundary = [min(nxt)] if nxt else []
    while len(boundary) < len(nxt):
        boundary.append(nxt[boundary[-1]])
    if len(set(boundary)) < len(boundary):
        raise SurfaceError("boundary is not a single cycle")
    boundary = tuple(boundary)
    return Triangulation(
        tris, adj, degree, frozenset(boundary), boundary,
        (boundary,) if rings is None else tuple(rings),
        dict.fromkeys(degree, 0) if ring_of is None else ring_of,
        rule=rule)


def _short_gap(rule, v, k):
    return SurfaceError(f"rule {rule.name} leaves vertex {v} with gap {k} < 2")


# Entries per block of a `_Prefix`: a power of two, so that an entry's
# block and place in it are a shift and a mask.
_SHIFT = 10
_BLOCK = 1 << _SHIFT
_MASK = _BLOCK - 1
# Triangles per run of vertex ids that hashing and `tris` read a ring in.
_RUN = 1 << 16


class _Prefix:
    """Running sum 0, g[0] - less, g[0] + g[1] - 2 * less, ... over gap
    bytes g: entry j is the sum of g[i] - less for i < j, for j in
    0..len(g).  The gaps are at least `less`, so the sum never falls.

    It is kept as the entry at the start of each block of `_BLOCK`
    entries, from one `sum` per block of gap bytes (`block_sums`, shared
    by the sums over the same gaps); a block's own entries are made with
    one `accumulate` the first time something reads one of them.  A long
    ring read at a few sectors fills a few blocks."""

    __slots__ = ("gaps", "table", "n", "starts", "blocks")

    def __init__(self, gaps: bytes, less: int, block_sums):
        self.gaps, self.n = gaps, len(gaps) + 1
        self.table = bytes(less) + bytes(range(256 - less))   # g -> g - less
        self.starts = list(accumulate(
            (s - less * _BLOCK for s in block_sums), initial=0))
        self.blocks = [None] * len(self.starts)

    @staticmethod
    def block_sums(gaps: bytes) -> list:
        """Sum of each whole block of `gaps` but the last: what the block
        starts of a prefix over them are made from."""
        return [sum(gaps[i - _BLOCK:i])
                for i in range(_BLOCK, len(gaps) + 1, _BLOCK)]

    def _fill(self, b: int):
        i = b << _SHIFT
        blk = self.blocks[b] = array("q", accumulate(
            self.gaps[i:i + _BLOCK - 1].translate(self.table),
            initial=self.starts[b]))
        return blk

    def __getitem__(self, j: int) -> int:
        if j < 0:
            j += self.n
            if j < 0:
                raise IndexError("prefix index out of range")
        return (self.blocks[j >> _SHIFT] or self._fill(j >> _SHIFT))[j & _MASK]

    def floor(self, x: int):
        """(j, entry j, entry j + 1) for the last entry j at most x, read
        from one block; entry -1 and entry n are None."""
        b = bisect_right(self.starts, x) - 1
        if b < 0:
            return -1, None, 0
        blk = self.blocks[b] or self._fill(b)
        i = bisect_right(blk, x)
        j = (b << _SHIFT) + i - 1
        if i == len(blk):   # entry j + 1 starts the next block, if any
            return j, blk[-1], self.starts[b + 1] if j + 1 < self.n else None
        return j, blk[i - 1], blk[i]


class _RingPlan:
    """One ring of outward growth, planned from the gaps of the boundary
    it grows on (gap k = rule degree - degree of a boundary vertex).

    `inner` is that boundary: a vertex cycle, or the plan of the ring
    that made it.  The ring has one sector per boundary vertex, in
    sector order: the boundary rotated to start at its first vertex with
    k > 2 (`start` is that position).  Sector j is the k - 1 triangles
    outside its vertex v: k - 2 "down" triangles (v, chain[c],
    chain[c + 1]) around it, then the "up" triangle (next vertex, v,
    apex) on the boundary edge to its successor.  The chain runs from
    the previous sector's apex through the sector's own new vertices to
    its apex; a sector with k = 2 adds no vertex and shares the previous
    apex.

    Ids are the ones building the ring triangle by triangle assigns: up
    0 first, then sectors 1..n-1 (downs, then up), then sector 0's downs;
    each sector's apex is born before its chain vertices, and sector 0's
    chain vertices come last.  `index` sets up `up` and `dn`, the
    running sums that place each sector, as `_Prefix`es: their entries
    are made a block at a time, where something reads them.  A plan is
    immutable, but for the blocks it fills, and shared by every surface
    grown from it.
    """

    __slots__ = ("ring", "base", "size", "vbase", "vend", "start", "n",
                 "ks", "kmax", "inner", "up", "dn", "_pos")

    def __init__(self, ring, base, vbase, inner, gaps: bytes):
        n = len(gaps)
        s = n - len(gaps.lstrip(b"\x02"))
        if s == n:
            raise SurfaceError("ring would close the surface; unsupported")
        self.ring, self.base, self.vbase, self.inner = ring, base, vbase, inner
        self.start, self.n = s, n
        self.ks = gaps[s:] + gaps[:s]   # gaps in sector order
        # Sum and largest gap, one count per value (the rule bounds them).
        total, left, k = 0, n, 1
        while left:
            k += 1
            c = gaps.count(k)
            total += k * c
            left -= c
        self.size, self.kmax = total - n, k
        self.vend = vbase + self.size - n
        self.up = self.dn = self._pos = None

    def index(self):
        """Set up the prefix sums that place each sector (a ring that is
        only measured, never added to a surface, needs none): up[j] is the
        offset of sector j's up triangle, dn[j] the number of down
        triangles, and of new vertices, in sectors 1..j.  Each is a
        `_Prefix`, a running sum over the gaps of sectors 1..n-1 less 1
        and less 2 (gaps are at least 2): one `sum` per block of gaps
        gives both their block starts, and a block's entries are made
        when something first reads one."""
        if self.up is None:
            ks = self.ks[1:]
            sums = _Prefix.block_sums(ks)
            self.up, self.dn = _Prefix(ks, 1, sums), _Prefix(ks, 2, sums)

    def vertex(self, j: int) -> int:
        """Boundary vertex of sector j."""
        c = (self.start + j) % self.n
        inner = self.inner
        return inner.outer_id(c) if isinstance(inner, _RingPlan) else inner[c]

    def apex(self, j: int) -> int:
        """Apex of sector j (j = -1 is sector n - 1)."""
        j %= self.n
        ks = self.ks
        while j and ks[j] == 2:
            j -= 1
        return self.vbase + 1 + self.dn[j - 1] if j else self.vbase

    def sector(self, j: int) -> list:
        """Vertices of sector j's triangles in strip order: its k - 2
        downs (v, chain[c], chain[c + 1]), then its up (w, v, apex), for
        the boundary vertices v and w of sectors j and j + 1.  They lie at
        offsets up[j - 1] + 1 .. up[j], taken cyclically: sector 0's
        downs end the ring and its up opens it."""
        v, w = self.vertex(j), self.vertex(j + 1)
        m = self.ks[j] - 2
        a = self.apex(j)
        if not m:
            return [(w, v, a)]
        # Chain vertex c is a + c, but sector 0's chain vertices are born
        # last.
        c0 = a if j else self.vbase + self.dn[-1]
        chain = [self.apex(j - 1), *range(c0 + 1, c0 + m), a]
        return [*zip(repeat(v), chain, chain[1:]), (w, v, a)]

    def strip(self, ids):
        """Vertex ids of the ring's triangles in id order, flat, in lists
        of at most `_RUN` triangles, as `sector` gives them: up 0, sectors
        1..n-1 (downs, then up), then sector 0's downs.  One walk with the
        last apex and the next new vertex id, over `ids`, the vertex ids
        of the boundary the ring grows on."""
        s, vbase, full = self.start, self.vbase, 3 * (_RUN - self.kmax)
        vs = [*ids[s:], *ids[:s]]
        apex, new = vbase, vbase + 1
        run = [vs[1 % self.n], vs[0], apex]
        for k, v, w in zip(self.ks[1:], vs[1:], vs[2:] + vs[:1]):
            if k > 2:   # downs along the chain apex, a + 1, ..., new - 1, a
                a, b = new, apex
                new += k - 2
                for c in range(a + 1, new):
                    run += (v, b, c)
                    b = c
                run += (v, b, a)
                apex = a
            run += (w, v, apex)
            if len(run) > full:
                yield run
                run = []
        for c in (*range(new, self.vend), vbase):   # sector 0's chain
            run += (vs[0], apex, c)
            apex = c
        yield run

    def sector_of(self, o: int):
        """(sector of the triangle at offset o, offset of the sector's
        first triangle, taken cyclically)."""
        ju, up, _ = self.up.floor(o)
        if up == o:   # the up of sector ju, its last triangle
            return ju, (o + 2 - self.ks[ju]) % self.size
        return (ju + 1) % self.n, up + 1

    def down_offset(self, c: int) -> int:
        """Offset of the c-th down triangle, whose edge 1 is edge c of the
        boundary the ring makes."""
        return c + 1 + self.dn.floor(c)[0]

    def position(self, u: int):
        """Sector of inner boundary vertex u, or None."""
        if self._pos is None:
            self._pos = {w: (c - self.start) % self.n
                         for c, w in enumerate(self.inner)}
        return self._pos.get(u)

    def incident_offset(self, v: int) -> int:
        """Offset of the smallest triangle at new vertex v; v sits at its
        slot 2."""
        w = v - self.vbase
        dn, up, n = self.dn, self.up, self.n
        if w == 0 or w > dn[n - 1]:
            # The first apex ends up 0; a chain vertex of sector 0 the
            # down before it.
            return up[n - 1] + w - dn[n - 1] if w else 0
        i, below, _ = dn.floor(w - 1)   # w is a vertex of sector i + 1
        c = w - below - 1
        # The apex ends the sector's last down, chain vertex c its c-th.
        return up[i + 1] - 1 if c == 0 else up[i] + c

    # Positions on the boundary the ring makes count from its smallest
    # vertex, the first apex; the vertices of sector j >= 1 sit at
    # positions dn[j - 1] + 1 .. dn[j], chain first, apex last, and
    # sector 0's chain at the end.

    def outer_id(self, c: int) -> int:
        """Vertex at position c of the boundary the ring makes."""
        dn = self.dn
        if c == 0 or c > dn[-1]:
            return self.vbase + c
        _, below, last = dn.floor(c - 1)   # the sector c is a position of
        return self.vbase + (below + 1 if c == last else c + 1)

    def outer_ids(self):
        """The cycle the ring makes: vbase + c + 1 at position c, less
        k - 2 at the apex of a sector 1..n-1 and 1 elsewhere off a chain;
        one `replace` per gap value, k = 2 first, makes those amounts."""
        d = self.ks[1:].replace(b"\x02", b"")
        for k in range(3, self.kmax + 1):
            d = d.replace(bytes((k,)), bytes(k - 3) + bytes((k - 2,)))
        d = b"\x01" + d + b"\x01" * (self.ks[0] - 3)
        return list(map(sub, range(self.vbase + 1, self.vend + 1), d))

    def outer_degrees(self) -> bytes:
        """Degrees of the boundary the ring makes, by position: a chain
        vertex has degree 2, an apex spanning z sectors with k = 2 has
        degree z + 3.

        The gaps of sectors 1..n-1 are rewritten with one `replace` per
        gap value: k = 2 adds no vertex and becomes a 0 (one more
        sector under the apex before it), then each k from 4 up becomes
        its k - 3 chain vertices and its apex (k = 3 is its apex already),
        so no rewrite meets the 2s and 3s an earlier one wrote.  The 0s
        then merge into the apex before them."""
        ks = self.ks
        d = ks[1:].replace(b"\x02", b"\x00")
        for k in range(4, self.kmax + 1):
            d = d.replace(bytes((k,)), b"\x02" * (k - 3) + b"\x03")
        d = b"\x03" + d + b"\x02" * (ks[0] - 3)
        top = 3
        while b"\x00" in d:
            d = d.replace(bytes((top, 0)), bytes((top + 1,)))
            top += 1
        return d

    def following(self, rule: GenerationRule) -> "_RingPlan":
        """Plan of the next ring out, from this ring's pattern alone."""
        degs = self.outer_degrees()
        target = rule.ring_degree(self.ring)
        # Gap max(target - d, 0) for each degree d.
        gaps = degs.translate(bytes(range(target, 0, -1)).ljust(256, b"\x00"))
        pins = [(v, d) for v, d in rule.special if self.vbase <= v < self.vend]
        if pins or b"\x00" in gaps or b"\x01" in gaps:
            self.index()
            gaps = bytearray(gaps)
            for v, d in pins:
                c = self.outer_ids().index(v)
                gaps[c] = max(d - degs[c], 0)
            if b"\x00" in gaps or b"\x01" in gaps:
                c = next(c for c, k in enumerate(gaps) if k < 2)
                v = self.outer_id(c)
                raise _short_gap(rule, v, rule.degree_for(v, self.ring) - degs[c])
            gaps = bytes(gaps)
        return _RingPlan(self.ring + 1, self.base + self.size, self.vend,
                         self, gaps)


# Default growth budget, in triangles; the budget a caller passes to
# grow_frontier is the only cap on a surface.
GROWTH_BUDGET = 1_000_000


def grow_frontier(surf: Triangulation, rings: int,
                  budget: int = GROWTH_BUDGET) -> Triangulation:
    """Push the frontier outward by `rings` layers under the surface rule.

    The rings are planned, not built: the new surface shares `surf`'s
    base and plans, adds a plan per ring, and starts from copies of the
    neighbours and planned vertices `surf` has worked out.  `budget` is
    the only limit on the result: a ring that would take the surface past
    `budget` triangles raises GrowthLimitExceeded, naming that budget,
    before the new surface is made.
    """
    plans = []
    total = surf.n_triangles()
    for _ in range(rings):
        plan = plans[-1].following(surf.rule) if plans else surf._next_plan()
        total += plan.size
        if total > budget:
            raise GrowthLimitExceeded(
                f"next ring would make {total} triangles, over the budget"
                f" of {budget}")
        plan.index()
        plans.append(plan)
    grown = Triangulation(
        surf._tris, dict(surf._adj), surf._base_degree, surf._base_frontier,
        surf._base_boundary, surf._base_rings, surf._base_ring_of,
        rule=surf.rule, labels=surf.labels, plans=surf._plans + tuple(plans))
    grown._made = dict(surf._made)
    grown._open_edges = surf._open_edges or {
        (tv[e], tv[(e + 1) % 3]): (t, e) for t, tv in enumerate(surf._tris)
        for e in range(3) if (t, e) not in surf._adj}
    return grown
