from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from smfgeo import chart, numbers
from smfgeo.builders import build_flat_plane, build_semi_paradoxist, build_silo
from smfgeo.numbers import Scalars
from smfgeo.surface import (
    GrowthLimitExceeded,
    SurfacePoint,
    Triangulation,
    canonicalize_point,
    grow_frontier,
    validate,
)

FLOAT = Scalars("float")
EXACT = Scalars("exact")


@pytest.fixture(scope="module")
def flat2():
    return build_flat_plane(2)


@pytest.fixture(scope="module")
def silo3():
    return build_silo(3)


@pytest.fixture(scope="module")
def semi4():
    return build_semi_paradoxist(4)


class TestBuilders:
    def test_flat_radius_1(self):
        surf = build_flat_plane(1)
        assert surf.n_triangles() == 6
        interior = [v for v in surf.degree if v not in surf.frontier]
        assert interior == [0]
        assert surf.degree[0] == 6

    def test_flat_radius_2_counts(self, flat2):
        # Oracle: direct enumeration of the 2-ring hexagon.
        assert flat2.n_triangles() == 24
        assert validate(flat2).ok()

    def test_flat_total_defect_zero(self, flat2):
        total = sum(360 - 60 * flat2.degree[v]
                    for v in flat2.degree if v not in flat2.frontier)
        assert total == 0

    def test_flat_growth_determinism(self, flat2):
        a = grow_frontier(flat2, 2)
        b = grow_frontier(grow_frontier(flat2, 1), 1)
        assert a.tris == b.tris
        assert a.adj == b.adj
        assert a.content_hash() == b.content_hash()

    def test_silo_cap_counts(self):
        # Oracle: angle-sum identity F*180 = sum of vertex angles plus the
        # Euler formula V - E + F = 1 on the cap disk force 15 triangles,
        # 6 interior vertices and a boundary cycle of 5.
        surf = build_silo(0)
        # cap = seed fan + first ring = triangles of rings 0..2
        cap_tris = [t for t in range(surf.n_triangles())
                    if all(surf.ring_of[v] <= 2 for v in surf.tris[t])]
        assert len(cap_tris) == 15
        interior = [v for v, d in surf.degree.items()
                    if v not in surf.frontier and surf.ring_of[v] <= 1]
        assert len(interior) == 6
        assert all(surf.degree[v] == 5 for v in interior)
        assert len(surf.rings[2]) == 5

    def test_silo_cap_defect(self):
        surf = build_silo(0)
        total = sum(360 - 60 * surf.degree[v]
                    for v in surf.degree
                    if v not in surf.frontier and surf.ring_of[v] <= 1)
        assert total == 360

    def test_silo_validates(self, silo3):
        assert validate(silo3).ok()

    def test_silo_degrees(self, silo3):
        for v, d in silo3.degree.items():
            if v in silo3.frontier:
                continue
            ring = silo3.ring_of[v]
            if ring <= 1:
                assert d == 5
            elif ring == 2:
                assert d == 6
            else:
                assert d == 7

    def test_silo_six_elliptic_only(self, silo3):
        deg5 = [v for v, d in silo3.degree.items()
                if d == 5 and v not in silo3.frontier]
        assert len(deg5) == 6
        deg7_above = [v for v, d in silo3.degree.items()
                      if d == 7 and silo3.ring_of[v] < 3 and v not in silo3.frontier]
        assert deg7_above == []

    def test_semi_validates(self, semi4):
        assert validate(semi4).ok()

    def test_semi_exactly_one_5_and_7_adjacent(self, semi4):
        deg5 = [v for v, d in semi4.degree.items()
                if d == 5 and v not in semi4.frontier]
        deg7 = [v for v, d in semi4.degree.items()
                if d == 7 and v not in semi4.frontier]
        assert deg5 == [0] and deg7 == [1]
        edges = {frozenset(semi4.edge_vertices(t, e))
                 for t in range(semi4.n_triangles()) for e in range(3)}
        assert frozenset((0, 1)) in edges

    def test_semi_total_defect_zero(self, semi4):
        total = sum(360 - 60 * semi4.degree[v]
                    for v in semi4.degree if v not in semi4.frontier)
        assert total == 0

    def test_semi_l_through_o(self, semi4):
        # The line fixture is anchored at the vertex labeled O.
        from smfgeo.builders import resolve_ray
        from smfgeo.surface import point_at_vertex
        ray = resolve_ray(semi4, FLOAT, semi4.labels["l"])
        o_fx = semi4.labels["O"]
        assert point_at_vertex(semi4, ray.point, FLOAT) == o_fx.vertex

    def test_grow_silo_one_ring_validates(self, silo3):
        assert validate(grow_frontier(silo3, 1)).ok()

    def test_growth_limit(self):
        surf = build_flat_plane(2)
        with pytest.raises(GrowthLimitExceeded):
            grow_frontier(surf, 2, 30)

    def test_budget_over_a_million_is_honoured(self):
        # silo(6) at 16 rings has 838,825 triangles and its next ring
        # 1,357,215 more: the default budget refuses that ring, and a
        # larger budget passed to grow_frontier lets it grow.
        base = build_silo(6)
        surf = grow_frontier(base, 16 - len(base.rings))
        assert surf.n_triangles() == 838_825
        with pytest.raises(GrowthLimitExceeded,
                           match="2196040 triangles, over the budget of "
                                 "1000000$"):
            grow_frontier(surf, 1)
        assert grow_frontier(surf, 1, 3 * 10**6).n_triangles() == 2_196_040


ICOSAHEDRON = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 5, 10), (1, 10, 6), (1, 6, 2), (2, 6, 7), (2, 7, 3),
    (3, 7, 8), (3, 8, 4), (4, 8, 9), (4, 9, 5), (5, 9, 10),
    (6, 10, 11), (6, 11, 7), (7, 11, 8), (8, 11, 9), (9, 11, 10),
]


class TestClosedSurfaces:
    def test_all_degree5_closed_surface_validates(self):
        # Twenty triangles, every vertex of degree 5, no frontier.
        from smfgeo.surface import from_triangles
        surf = from_triangles(ICOSAHEDRON)
        assert surf.frontier == frozenset()
        assert validate(surf).ok()
        assert all(d == 5 for d in surf.degree.values())

    def test_closed_surface_through_smf(self):
        from smfgeo import smf
        text = "smf 1\n" + "".join(f"t {a} {b} {c}\n" for a, b, c in ICOSAHEDRON)
        doc, diags = smf.parse_manifold(text)
        assert not diags
        surf, diags = smf.to_triangulation(doc)
        assert not diags and validate(surf).ok()


class TestGrowthDeterminism:
    def test_silo_two_by_one_equals_one_by_two(self, silo3):
        a = grow_frontier(silo3, 2)
        b = grow_frontier(grow_frontier(silo3, 1), 1)
        assert a.tris == b.tris
        assert a.adj == b.adj
        assert a.content_hash() == b.content_hash()


def _growth_state(surf):
    return (surf.tris, surf.adj, surf.degree, surf.rings, surf.ring_of,
            surf.frontier, surf.content_hash())


class TestSingleCopyGrowth:
    def test_growing_twice_leaves_base_unchanged(self, silo3):
        before = (list(silo3.tris), dict(silo3.adj), dict(silo3.degree),
                  silo3.frontier, silo3.content_hash())
        a = grow_frontier(silo3, 1)
        b = grow_frontier(silo3, 1)
        assert (silo3.tris, silo3.adj, silo3.degree, silo3.frontier,
                silo3.content_hash()) == before
        assert _growth_state(a) == _growth_state(b)
        assert a.tris is not b.tris and a.adj is not b.adj

    def test_rebuilt_surface_grows_like_frozen_one(self, semi4):
        # A Triangulation built directly has no carried open-edge map, so
        # its growth rescans the edges; the result must not differ.
        rebuilt = Triangulation(
            tris=list(semi4.tris), adj=dict(semi4.adj),
            degree=dict(semi4.degree), frontier=semi4.frontier,
            boundary=semi4.boundary, rings=semi4.rings,
            ring_of=dict(semi4.ring_of), rule=semi4.rule,
            labels=semi4.labels)
        assert rebuilt._open_edges is None
        assert semi4._open_edges is not None
        assert _growth_state(grow_frontier(rebuilt, 2)) == \
            _growth_state(grow_frontier(semi4, 2))

    @pytest.mark.parametrize("build", [
        lambda: build_flat_plane(2),
        lambda: build_semi_paradoxist(2),
        lambda: build_silo(0),
    ], ids=["flat", "semi", "silo"])
    def test_ring_size_matches_growth(self, build):
        surf = build()
        for _ in range(4):
            planned = surf._next_plan().size
            grown = grow_frontier(surf, 1)
            assert len(grown.tris) - len(surf.tris) == planned
            surf = grown

    def test_over_budget_ring_refused_before_copy(self, monkeypatch):
        surf = build_flat_plane(2)
        assert len(surf.tris) + surf._next_plan().size == 54

        def no_copy(self, *args, **kwargs):
            raise AssertionError("surface created for a refused ring")
        monkeypatch.setattr(Triangulation, "__init__", no_copy)
        with pytest.raises(GrowthLimitExceeded, match="budget of 53$"):
            grow_frontier(surf, 1, 53)
        monkeypatch.undo()
        assert len(grow_frontier(surf, 1, 54).tris) == 54


class TestSharedEdgeLength:
    def test_shared_edges_unit_length(self, silo3):
        # Both chart embeddings of every shared edge have length 1.
        from smfgeo import chart
        cs = chart.corners(EXACT)
        for (t, e) in silo3.adj:
            a, b = cs[e], cs[(e + 1) % 3]
            n2 = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
            assert n2 == EXACT.one


class TestCanonicalize:
    def test_interior_fixed(self, flat2):
        third = Fraction(1, 3)
        p = SurfacePoint(0, (EXACT.of(third),) * 3)
        assert canonicalize_point(p, flat2, EXACT) == p

    def test_edge_point_moves_to_lower_id(self, flat2):
        # Edge shared between triangles 0 and 1 (seed fan neighbors).
        nbr = flat2.adj[(1, 2)]
        assert nbr[0] == 0 or nbr[0] == 2
        half = EXACT.half
        p = SurfacePoint(1, (half, half, EXACT.zero))
        # point on edge 0 of triangle 1? build from edge 2 instead
        q = SurfacePoint(1, (half, EXACT.zero, half))
        cq = canonicalize_point(q, flat2, EXACT)
        assert cq.tri <= 1

    def test_vertex_point_canonical(self, flat2):
        p = SurfacePoint(3, (EXACT.one, EXACT.zero, EXACT.zero))
        c = canonicalize_point(p, flat2, EXACT)
        assert c.tri == 0
        assert c.bary[0] == EXACT.one

    def test_unknown_triangle(self, flat2):
        from smfgeo.surface import UnknownTriangle
        with pytest.raises(UnknownTriangle):
            canonicalize_point(SurfacePoint(999, (1, 0, 0)), flat2, EXACT)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_idempotent_on_random_points(self, data):
        surf = build_flat_plane(2)
        tri = data.draw(st.integers(0, surf.n_triangles() - 1))
        w = [data.draw(st.integers(0, 8)) for _ in range(3)]
        if sum(w) == 0:
            w[0] = 1
        s = sum(w)
        bary = tuple(EXACT.frac(x, s) for x in w)
        p = canonicalize_point(SurfacePoint(tri, bary), surf, EXACT)
        assert canonicalize_point(p, surf, EXACT) == p


class TestMutationSuite:
    """The validator must flag every seeded axiom violation."""

    def _base(self):
        return build_flat_plane(2)

    def _clone(self, surf, **over):
        kw = dict(tris=list(surf.tris), adj=dict(surf.adj),
                  degree=dict(surf.degree), frontier=surf.frontier,
                  boundary=surf.boundary, rings=surf.rings,
                  ring_of=dict(surf.ring_of), rule=surf.rule,
                  labels=surf.labels)
        kw.update(over)
        return Triangulation(**kw)

    def test_edge_shared_by_three(self):
        surf = self._base()
        u, v = surf.edge_vertices(0, 0)
        w = max(surf.degree) + 1
        tris = list(surf.tris) + [(u, v, w)]
        deg = dict(surf.degree)
        for x in (u, v):
            deg[x] += 1
        deg[w] = 1
        bad = self._clone(surf, tris=tris, degree=deg,
                          frontier=surf.frontier | {w})
        rep = validate(bad)
        assert any(v.kind == "EdgeShared3" for v in rep.violations)

    def test_orientation_flip(self):
        surf = self._base()
        tris = list(surf.tris)
        a, b, c = tris[0]
        tris[0] = (a, c, b)  # reverse orientation of one triangle
        bad = self._clone(surf, tris=tris)
        rep = validate(bad)
        assert not rep.ok()
        assert {"OrientationFlip", "EdgeMismatch"} & rep.kinds()

    def test_degree_out_of_range(self):
        surf = self._base()
        interior = next(v for v in surf.degree if v not in surf.frontier)
        deg = dict(surf.degree)
        deg[interior] = 4
        bad = self._clone(surf, degree=deg)
        rep = validate(bad)
        kinds = rep.kinds()
        assert "BadDegree" in kinds or "DegreeMismatch" in kinds
        named = [v.element for v in rep.violations
                 if v.kind in ("BadDegree", "DegreeMismatch")]
        assert (interior,) in named

    def test_adjacency_flip_detected(self):
        surf = self._base()
        adj = dict(surf.adj)
        (t, e) = next(k for k in adj if k[0] == 0)
        t2, e2 = adj[(t, e)]
        # Point the link at the wrong edge of the neighbor.
        adj[(t, e)] = (t2, (e2 + 1) % 3)
        bad = self._clone(surf, adj=adj)
        assert not validate(bad).ok()

    def test_disconnection_detected(self):
        surf = self._base()
        adj = {k: v for k, v in surf.adj.items() if 0 not in (k[0], v[0])}
        frontier = set(surf.frontier) | set(surf.tris[0])
        bad = self._clone(surf, adj=adj, frontier=frozenset(frontier))
        rep = validate(bad)
        assert "Disconnected" in rep.kinds()

    def test_dangling_open_edge(self):
        surf = self._base()
        adj = dict(surf.adj)
        k = next(k for k in adj if adj[k][0] != k[0])
        v = adj.pop(k)
        adj.pop(v)
        bad = self._clone(surf, adj=adj)
        rep = validate(bad)
        assert "EdgeUnmatched" in rep.kinds()


def _glued_pair(e, e2):
    """Two triangles whose edge e and edge e2 are glued to each other."""
    t0 = (0, 1, 2)
    u, v = t0[e], t0[(e + 1) % 3]
    t1 = [None] * 3
    t1[e2], t1[(e2 + 1) % 3], t1[(e2 + 2) % 3] = v, u, 3
    adj = {(0, e): (1, e2), (1, e2): (0, e)}
    return Triangulation([t0, tuple(t1)], adj, {}, frozenset(), (), (), {})


class TestTransferTable:
    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_all_edge_pairs_match_corner_formula(self, ctx):
        cs = chart.corners(ctx)
        exact = chart.corners(EXACT)
        for e in range(3):
            for e2 in range(3):
                iso = _glued_pair(e, e2).transfer(ctx, 0, e)
                # Corner formula, exact: rotate by k*30 degrees, then
                # carry corner e onto the neighbor's corner e2 + 1.  A
                # float motion is the exact one rounded once.
                k = (4 * e2 + 6 - 4 * e) % 12
                c, s = numbers._COS30[k], numbers._SIN30[k]
                px, py = exact[e]
                qx, qy = exact[(e2 + 1) % 3]
                want = (qx - (c * px - s * py), qy - (s * px + c * py))
                assert iso.k == k
                assert (iso.tx, iso.ty) == (want if ctx.exact
                                            else tuple(map(float, want)))
                # The shared edge lands on itself, endpoints swapped.
                if ctx.exact:
                    assert iso.apply(*cs[e]) == cs[(e2 + 1) % 3]
                    assert iso.apply(*cs[(e + 1) % 3]) == cs[e2]
                else:
                    for got, want in ((iso.apply(*cs[e]), cs[(e2 + 1) % 3]),
                                      (iso.apply(*cs[(e + 1) % 3]), cs[e2])):
                        assert got == pytest.approx(want, abs=1e-15)

    def test_table_is_per_context_and_shared(self, flat2):
        ctx = Scalars("exact")
        t, e = next(iter(flat2.adj))
        a = flat2.transfer(ctx, t, e)
        assert flat2.transfer(ctx, t, e) is a
        assert a.ctx is ctx
        assert flat2.transfer(Scalars("exact"), t, e) is not a
