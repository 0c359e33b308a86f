import copy
import math
import random
from fractions import Fraction
from functools import cmp_to_key
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_tiles, turned_back_signs
from smfgeo import chart, engine
from smfgeo import classify as C
from smfgeo.builders import (
    LineFixture,
    build_flat_plane,
    build_semi_paradoxist,
    build_silo,
    resolve_point,
    resolve_ray,
)
from smfgeo.classify import (
    Budgets,
    ModelAnalysis,
    build_line_context,
    classify_direction,
    classify_labeled,
    classify_point,
    connect_by_segments,
    critical_directions,
    enclosed_defect,
    find_unjoinable_pair,
    search_finitely_hyperbolic,
)
from smfgeo.farfield import audit_ring_convexity
from smfgeo.numbers import Q3, Scalars
from smfgeo.surface import SurfacePoint, canonicalize_point

FLOAT = Scalars("float")
EXACT = Scalars("exact")
B = Budgets()


@pytest.fixture(scope="module")
def silo():
    return C.ensure_rings(build_silo(6), 12)


@pytest.fixture(scope="module")
def silo_ctxs(silo):
    an = ModelAnalysis(silo, FLOAT)
    lray = resolve_ray(silo, FLOAT, silo.labels["l"])
    lctx = build_line_context(silo, FLOAT, lray, an, B)
    return an, lctx


@pytest.fixture(scope="module")
def semi():
    return build_semi_paradoxist(4)


class TestRingAudit:
    def test_hyperbolic_ring_convex(self, silo):
        a = audit_ring_convexity(silo, 4)
        assert a.passed
        assert all(ang >= 180 for _, ang in a.outward_angles)
        assert all(ang == 240 or ang == 300 for _, ang in a.outward_angles)

    def test_crown_ring_passes_at_180_and_ring_0_is_refused(self, silo):
        # Ring 1 is the degree-5 crown around the apex, and the first
        # ring a plan grows on: each crown vertex keeps two cap triangles
        # inside, so 300 - 120 = 180 degrees face outward.  Ring 0 is the
        # apex alone and is rejected.
        a1 = audit_ring_convexity(silo, 1)
        assert a1.passed
        assert [v for v, _ in a1.outward_angles] == list(silo.rings[1])
        assert {ang for _, ang in a1.outward_angles} == {180}
        from smfgeo.surface import IncompleteRing
        with pytest.raises(IncompleteRing):
            audit_ring_convexity(silo, 0)

    def test_fails_inside_cap(self):
        # A ring through a cone vertex from the flat side: take the semi
        # model's first ring, which passes the degree-5 and degree-7 pair
        # on its inside; outward angles at ring vertices stay >= 180 so
        # it passes, but auditing requires completeness.
        surf = build_semi_paradoxist(3)
        a = audit_ring_convexity(surf, 2)
        assert a.passed is True

    def test_audited_pass_skips_incomplete_rings(self):
        surf = build_semi_paradoxist(3)
        an = ModelAnalysis(surf, FLOAT)
        last = len(surf.rings) - 1  # the frontier ring
        assert [an.audited_pass(k) for k in (0, last, last + 1)] \
            == [False, False, False]
        assert an.audited_pass(2) is True

    def test_audited_pass_bug_propagates(self, monkeypatch):
        def broken(surf, ring):
            raise RuntimeError("bug in audit")
        monkeypatch.setattr(C, "audit_ring_convexity", broken)
        an = ModelAnalysis(build_semi_paradoxist(3), FLOAT)
        with pytest.raises(RuntimeError, match="bug in audit"):
            an.audited_pass(2)


class TestSiloClassifications:
    @pytest.mark.parametrize("name,want,count", [
        ("P", C.EUCLIDEAN, 1),
        ("R", C.ELLIPTIC, 0),
        ("Q", C.REGULARLY_HYPERBOLIC, 0),
        ("Qp", C.EXTREMELY_HYPERBOLIC, 1),
        ("Qpp", C.COMPLETELY_HYPERBOLIC, 0),
    ])
    def test_fixture(self, silo, silo_ctxs, name, want, count):
        an, lctx = silo_ctxs
        P = resolve_point(silo, FLOAT, silo.labels[name])
        cls = classify_point(P, lctx, an, B)
        assert cls.kind == want
        assert cls.count == count
        assert cls.unknown_arcs == 0

    def test_qprime_crossing_through_vertex_I(self, silo, silo_ctxs):
        an, lctx = silo_ctxs
        P = resolve_point(silo, FLOAT, silo.labels["Qp"])
        cls = classify_point(P, lctx, an, B)
        crossings = [i for i in cls.isolated if i.status.kind == "crossing"]
        assert len(crossings) == 1
        assert silo.labels["I"].vertex in crossings[0].status.via_vertices

    def test_parallel_certificates_present(self, silo, silo_ctxs):
        an, lctx = silo_ctxs
        P = resolve_point(silo, FLOAT, silo.labels["Q"])
        cls = classify_point(P, lctx, an, B)
        for iv in cls.intervals:
            if iv.status.kind == "parallel":
                kinds = {c.kind for c in iv.status.certificates}
                assert kinds <= {"ring_escape", "closure", "flat_separation"}
                assert kinds
                for c in iv.status.certificates:
                    if c.kind == "ring_escape":
                        assert list(c.rings_crossed) == sorted(set(c.rings_crossed))
                        assert audit_ring_convexity(silo, c.escape_ring).passed

    def test_horizontal_direction_closed_parallel(self, silo, silo_ctxs):
        an, lctx = silo_ctxs
        P = resolve_point(silo, FLOAT, silo.labels["P"])
        st = classify_direction(P, FLOAT.direction(0.0), lctx, an, B)
        assert st.kind == "parallel"
        assert any(c.kind == "closure" for c in st.certificates)

    def test_back_direction_past_the_degree_5_seam(self, silo):
        # The backward end of this probe reaches vertex 1 from a microchord
        # that clips the corner of triangle 0: its back direction lies in
        # the clockwise neighbour's sector, past the seam of the fan
        # unfolded counterclockwise from triangle 0.  It is turned from
        # that sector.
        b = Budgets(arc=4.0)
        an = ModelAnalysis(silo, FLOAT)
        lctx = build_line_context(
            silo, FLOAT, resolve_ray(silo, FLOAT, silo.labels["l"]), an, b)
        Q = resolve_point(silo, FLOAT, silo.labels["Q"])
        st = classify_direction(Q, (-1.5000000037252899, 2.0207259486160822),
                                lctx, an, b)
        assert st.kind == "crossing"

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_crossings_glue_along_the_turn(self, ctx, monkeypatch):
        # At vertex 1 (degree 5) a backward end arrives in triangle 13
        # with its back direction two sectors on and leaves through
        # triangle 4, four sectors counterclockwise of 13 and also its
        # clockwise neighbour: the gluing is the motion along the four.
        crossings = []

        def spy(surf, ctx, *args, _real=engine.cross_vertex):
            out, ev = _real(surf, ctx, *args)
            crossings.append((ctx, ev))
            return out, ev
        monkeypatch.setattr(engine, "cross_vertex", spy)
        classify_labeled(build_silo(6), ctx, "Q", "l", Budgets(arc=4.0))
        for c, ev in crossings:
            assert turned_back_signs(c, ev) == (0, 1), \
                (ev.vertex, ev.tri_in, ev.tri_out)
        assert (1, 13, 4) in {(ev.vertex, ev.tri_in, ev.tri_out)
                              for _, ev in crossings}

    # A short arc budget leaves some directions unknown, and an unknown
    # makes the point undetermined unless a parallel arc and a crossing
    # arc both stand.
    @pytest.mark.parametrize("name,arc,want,unknown_arcs,iso_unknown", [
        ("Q", 4.0, C.REGULARLY_HYPERBOLIC, 30, 23),
        ("Qp", 4.0, C.UNDETERMINED, 0, 1),
        ("R", 2.0, C.UNDETERMINED, 1, 0),
    ])
    def test_fixture_with_unknowns(self, name, arc, want, unknown_arcs,
                                   iso_unknown, partitions):
        cls, *_ = classify_labeled(build_silo(6), FLOAT, name, "l",
                                   Budgets(arc=arc))
        assert_tiles(partitions[-1])
        assert cls.kind == want
        assert cls.unknown_arcs == unknown_arcs
        assert [i.status.kind for i in cls.isolated].count("unknown") \
            == iso_unknown


class TestSemiClassifications:
    @pytest.mark.parametrize("name,want", [
        ("P", C.EUCLIDEAN),
        ("Q", C.ELLIPTIC),
        ("R", C.REGULARLY_HYPERBOLIC),
    ])
    def test_fixture(self, semi, name, want):
        cls, _, _, _ = classify_labeled(semi, FLOAT, name, "l", B)
        assert cls.kind == want
        assert cls.unknown_arcs == 0

    def test_line_contexts_own_their_far_field(self):
        # Two line contexts with different core rings on one analysis:
        # the second must use its own flat complement, not the first's.
        surf = C.ensure_rings(build_semi_paradoxist(4), 12)
        lray = resolve_ray(surf, FLOAT, surf.labels["l"])
        P = resolve_point(surf, FLOAT, surf.labels["P"])
        an = ModelAnalysis(surf, FLOAT)
        build_line_context(surf, FLOAT, lray, an, B, min_core=7)
        lctx = build_line_context(surf, FLOAT, lray, an, B, min_core=4)
        cls = classify_point(P, lctx, an, B)
        fresh = ModelAnalysis(surf, FLOAT)
        want = classify_point(
            P, build_line_context(surf, FLOAT, lray, fresh, B, min_core=4),
            fresh, B)
        assert (cls.kind, cls.count) == (want.kind, want.count) \
            == (C.EUCLIDEAN, 1)


class TestFlat:
    def test_any_point_euclidean(self):
        surf = build_flat_plane(3)
        cls, _, _, _ = classify_labeled(surf, FLOAT, "P", "l", B)
        assert cls.kind == C.EUCLIDEAN
        assert cls.count == 1

    def test_exact_mode_euclidean(self):
        surf = build_flat_plane(3)
        cls, _, _, _ = classify_labeled(surf, EXACT, "P", "l", B)
        assert cls.kind == C.EUCLIDEAN
        assert cls.count == 1

    def test_flat_parallel_direction_certified(self):
        surf = C.ensure_rings(build_flat_plane(3), 9)
        an = ModelAnalysis(surf, FLOAT)
        lray = resolve_ray(surf, FLOAT, surf.labels["l"])
        lctx = build_line_context(surf, FLOAT, lray, an, B, min_core=4)
        P = resolve_point(surf, FLOAT, surf.labels["P"])
        # l runs east; the east direction at P is the one parallel.
        st = classify_direction(P, FLOAT.direction(0.0), lctx, an, B)
        assert st.kind == "parallel"
        st2 = classify_direction(P, FLOAT.direction(41.0), lctx, an, B)
        assert st2.kind == "crossing"

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_off_lattice_line_splits_at_its_asymptotic_flip(self, ctx):
        # A line at atan2(1, 5) off the lattice: the direction at P
        # parallel to it is no 30-degree seed, so only the split at the
        # asymptotic flip can isolate it.
        surf = build_flat_plane(3)
        third = Fraction(1, 3)
        surf.labels["m"] = LineFixture(0, (third, third, third),
                                       dirvec=(Q3(5), Q3(1)))
        cls, _, _, _ = classify_labeled(surf, ctx, "P", "m", B)
        assert cls.kind == C.EUCLIDEAN
        assert cls.count == 1
        assert cls.unknown_arcs == 0
        parallel = [i.theta for i in cls.isolated
                    if i.status.kind == "parallel"]
        assert parallel == [pytest.approx(math.degrees(math.atan2(1, 5)),
                                          abs=1e-9)]


class TestCriticalDirections:
    def test_flat_tiny_budget_sees_own_corners(self):
        surf = C.ensure_rings(build_flat_plane(3), 9)
        an = ModelAnalysis(surf, FLOAT)
        lray = resolve_ray(surf, FLOAT, surf.labels["l"])
        lctx = build_line_context(surf, FLOAT, lray, an, Budgets(30.0, 10**6))
        P = canonicalize_point(
            SurfacePoint(40, tuple(FLOAT.of(1) / 3 for _ in range(3))),
            surf, FLOAT)
        crit = critical_directions(P, lctx, an, Budgets(0.35, 10**6))
        assert len(crit) == 3
        assert crit == sorted(crit)
        assert len(set(crit)) == len(crit)

    @pytest.mark.parametrize("bary", [(0, 0, 1), (-8.5e-9, -8.5e-9, 1.1)],
                             ids=["clean", "float-dirt"])
    def test_vertex_base_point_is_refused(self, bary):
        # At a vertex the probes start in triangles that share only the
        # vertex with P's; the partition refuses P before probing.
        surf = C.ensure_rings(build_flat_plane(3), 9)
        an = ModelAnalysis(surf, FLOAT)
        lray = resolve_ray(surf, FLOAT, surf.labels["l"])
        lctx = build_line_context(surf, FLOAT, lray, an, Budgets(30.0, 10**6))
        P = SurfacePoint(40, tuple(FLOAT.of(x) for x in bary))
        with pytest.raises(ValueError, match="must not be a vertex"):
            critical_directions(P, lctx, an, Budgets(0.35, 10**6))

    def test_silo_qprime_sees_direction_through_I(self, silo, silo_ctxs):
        an, lctx = silo_ctxs
        P = resolve_point(silo, FLOAT, silo.labels["Qp"])
        cls = classify_point(P, lctx, an, B)
        hit = [i for i in cls.isolated if i.status.kind == "crossing"]
        crit = critical_directions(P, lctx, an, B)
        assert any(abs(c - hit[0].theta) < 1e-6 for c in crit)


class TestPartitionSoundness:
    def test_witness_status_reproduced_inside_intervals(self, silo, silo_ctxs):
        an, lctx = silo_ctxs
        P = resolve_point(silo, FLOAT, silo.labels["Q"])
        cls = classify_point(P, lctx, an, B)
        rng = random.Random(5)
        checked = 0
        for iv in cls.intervals:
            if iv.hi - iv.lo < 1e-5 or checked > 8:
                continue
            checked += 1
            for _ in range(3):
                th = rng.uniform(iv.lo + 1e-7, iv.hi - 1e-7)
                st = classify_direction(P, FLOAT.direction(th), lctx, an, B)
                if st.kind == "unknown" or iv.status.kind == "unknown":
                    continue
                assert st.kind == iv.status.kind, (iv.lo, iv.hi, th)

    def test_intervals_cover_half_circle(self, silo, silo_ctxs):
        an, lctx = silo_ctxs
        P = resolve_point(silo, FLOAT, silo.labels["P"])
        cls = classify_point(P, lctx, an, B)
        ivs = sorted(cls.intervals, key=lambda i: i.lo)
        total = sum(i.hi - i.lo for i in ivs)
        assert total == pytest.approx(180.0, abs=1e-6)
        for a, b in zip(ivs, ivs[1:]):
            assert b.lo == pytest.approx(a.hi, abs=1e-9)


class TestStability:
    def test_certificates_survive_budget_doubling(self, silo):
        results = {}
        for budgets in (B, B.doubled()):
            surf = silo
            an = ModelAnalysis(surf, FLOAT)
            lray = resolve_ray(surf, FLOAT, surf.labels["l"])
            lctx = build_line_context(surf, FLOAT, lray, an, budgets)
            for name in ("P", "R", "Q", "Qp", "Qpp"):
                P = resolve_point(surf, FLOAT, surf.labels[name])
                cls = classify_point(P, lctx, an, budgets)
                results.setdefault(name, []).append(cls.kind)
        for name, kinds in results.items():
            assert kinds[0] == kinds[1], name

    def test_monotone_refinement_semi(self, semi):
        kinds = []
        for budgets in (B, B.doubled()):
            for name in ("P", "Q", "R"):
                cls, *_ = classify_labeled(semi, FLOAT, name, "l", budgets)
                kinds.append((name, budgets.arc, cls.kind))
        small = {n: k for n, a, k in kinds if a == B.arc}
        big = {n: k for n, a, k in kinds if a != B.arc}
        for n in small:
            if small[n] != C.UNDETERMINED:
                assert big[n] == small[n]


class TestGaussBonnet:
    def test_silo_circle_encloses_360(self, silo):
        lray = resolve_ray(silo, FLOAT, silo.labels["l"])
        path = engine.trace(lray, silo, FLOAT, arc_budget=20.0,
                            growth_budget=len(silo.tris), two_sided=True)
        assert enclosed_defect(path, silo, FLOAT) == 360

    def test_not_closed_rejected(self, silo):
        P = resolve_point(silo, FLOAT, silo.labels["P"])
        ray = engine.ray_canonical(silo, FLOAT, P, FLOAT.direction(33.0))
        path = engine.trace(ray, silo, FLOAT, arc_budget=5.0,
                            growth_budget=len(silo.tris))
        with pytest.raises(ValueError):
            enclosed_defect(path, silo, FLOAT)

    def test_exact_mode_agrees(self, silo):
        lray = resolve_ray(silo, EXACT, silo.labels["l"])
        path = engine.trace(lray, silo, EXACT, arc_budget=20.0,
                            growth_budget=len(silo.tris), two_sided=True)
        assert enclosed_defect(path, silo, EXACT) == 360


class TestConnectivity:
    def test_same_triangle_single_segment(self, silo):
        p = SurfacePoint(0, (FLOAT.of(0.5), FLOAT.of(0.3), FLOAT.of(0.2)))
        q = SurfacePoint(0, (FLOAT.of(0.2), FLOAT.of(0.3), FLOAT.of(0.5)))
        chain = connect_by_segments(p, q, silo, FLOAT)
        assert len(chain) == 1

    def test_far_points_finite_chain(self, silo):
        qpp = resolve_point(silo, FLOAT, silo.labels["Qpp"])
        p = resolve_point(silo, FLOAT, silo.labels["P"])
        chain = connect_by_segments(qpp, p, silo, FLOAT)
        assert 1 <= len(chain) <= silo.n_triangles()
        for (a, b), (c, d) in zip(chain, chain[1:]):
            assert b.tri == c.tri or canonicalize_point(b, silo, FLOAT) == \
                canonicalize_point(c, silo, FLOAT)


class TestUnjoinablePair:
    def test_silo_pair_certified_and_connectable(self, silo, silo_ctxs):
        an, lctx = silo_ctxs
        qpp = resolve_point(silo, FLOAT, silo.labels["Qpp"])
        got = find_unjoinable_pair(silo, FLOAT, lctx, an, B, [qpp])
        assert got is not None
        p, q, evidence = got
        assert evidence.kind == C.COMPLETELY_HYPERBOLIC
        assert evidence.unknown_arcs == 0
        chain = connect_by_segments(p, q, silo, FLOAT)
        assert len(chain) >= 1

    def test_flat_plane_has_none(self):
        surf = C.ensure_rings(build_flat_plane(3), 9)
        an = ModelAnalysis(surf, FLOAT)
        lray = resolve_ray(surf, FLOAT, surf.labels["l"])
        lctx = build_line_context(surf, FLOAT, lray, an, B, min_core=4)
        P = resolve_point(surf, FLOAT, surf.labels["P"])
        assert find_unjoinable_pair(surf, FLOAT, lctx, an, B, [P]) is None


class TestSearch:
    def test_flat_family_empty(self):
        surf = C.ensure_rings(build_flat_plane(3), 9)
        cfg = [("flat", surf, FLOAT,
                resolve_ray(surf, FLOAT, surf.labels["l"]),
                [resolve_point(surf, FLOAT, surf.labels["P"])])]
        assert search_finitely_hyperbolic(cfg, B) == []

    def test_silo_family_no_candidates(self, silo):
        pts = [resolve_point(silo, FLOAT, silo.labels[k])
               for k in ("P", "Q", "Qp", "Qpp")]
        cfg = [("silo", silo, FLOAT,
                resolve_ray(silo, FLOAT, silo.labels["l"]), pts)]
        assert search_finitely_hyperbolic(cfg, B) == []

    def test_candidates_pinned_to_degree7(self, semi):
        # The 5-7 pair model harbors candidate finitely hyperbolic points
        # right next to the degree-7 vertex; any candidate the search
        # reports must pin every isolated parallel to a line through it.
        surf = C.ensure_rings(semi, 9)
        an = ModelAnalysis(surf, FLOAT)
        from smfgeo.builders import _triangles_near, _CENTROID
        [t] = _triangles_near(surf, [(1.0, 0.45)])
        P = canonicalize_point(
            SurfacePoint(t, tuple(FLOAT.of(x) for x in _CENTROID)), surf, FLOAT)
        cfg = [("semi", surf, FLOAT,
                resolve_ray(surf, FLOAT, surf.labels["l"]), [P])]
        found = search_finitely_hyperbolic(cfg, B)
        for cand in found:
            assert "caveat" in cand
            cls = cand["classification"]
            iso_par = [i for i in cls.isolated if i.status.kind == "parallel"]
            for i in iso_par:
                assert any(surf.degree.get(v) == 7
                           for v in i.status.via_vertices)


class TestClosedSurface:
    def test_icosahedron_point_is_elliptic(self):
        # On the all-degree-5 closed surface every line closes up and
        # every point is elliptic: no parallels exist at all.
        from smfgeo import smf
        from tests.test_surface import ICOSAHEDRON
        text = "smf 1\n" + "".join(f"t {a} {b} {c}\n" for a, b, c in ICOSAHEDRON)
        text += "point X 16 1/3 1/3 1/3\nline m 0 1/2 1/2 0 30\n"
        doc, diags = smf.parse_manifold(text)
        surf, diags = smf.to_triangulation(doc)
        assert not diags
        budgets = Budgets(40.0, 10**5)
        an = ModelAnalysis(surf, FLOAT)
        lray = resolve_ray(surf, FLOAT, surf.labels["m"])
        lctx = build_line_context(surf, FLOAT, lray, an, budgets)
        assert lctx.closed
        assert lctx.period == pytest.approx(3 * math.sqrt(3), abs=1e-9)
        P = resolve_point(surf, FLOAT, surf.labels["X"])
        cls = classify_point(P, lctx, an, budgets)
        assert cls.kind == C.ELLIPTIC
        assert cls.unknown_arcs == 0


    def test_icosahedron_point_is_elliptic_exact(self):
        from smfgeo import smf
        from tests.test_surface import ICOSAHEDRON
        text = "smf 1\n" + "".join(f"t {a} {b} {c}\n" for a, b, c in ICOSAHEDRON)
        text += "point X 16 1/3 1/3 1/3\nline m 0 1/2 1/2 0 30\n"
        doc, diags = smf.parse_manifold(text)
        surf, diags = smf.to_triangulation(doc)
        assert not diags
        budgets = Budgets(40.0, 10**5)
        an = ModelAnalysis(surf, EXACT)
        lray = resolve_ray(surf, EXACT, surf.labels["m"])
        lctx = build_line_context(surf, EXACT, lray, an, budgets)
        assert lctx.closed
        P = resolve_point(surf, EXACT, surf.labels["X"])
        part = C._Partitioner(P, lctx, an, budgets).run()
        cls = C._tally(part)
        assert cls.kind == C.ELLIPTIC
        assert cls.unknown_arcs == 0
        # Crossing corners close the cones where a crossing changes
        # triangle; halving towards those directions took over 14,000.
        assert len(part.cache) < 1000


class TestCrossingEvents:
    """A cone closes on a geometric event, never on its width: where a
    crossing with l moves to the next triangle, the ends of l's chord are
    corners."""

    @pytest.mark.parametrize("model,ctx", [
        (lambda: build_flat_plane(3), FLOAT),
        (lambda: build_semi_paradoxist(4), EXACT),
    ], ids=["flat-float", "semi-exact"])
    def test_no_sliver_intervals(self, model, ctx):
        cls, _, _, _ = classify_labeled(model(), ctx, "P", "l", B)
        assert cls.kind == C.EUCLIDEAN and cls.unknown_arcs == 0
        assert all(i.hi - i.lo >= 1e-6 for i in cls.intervals)

    def test_crossing_forward_end_decides_the_probe(self, silo, silo_ctxs):
        # At 210 degrees the line from Q' crosses l after passing vertex I.
        an, lctx = silo_ctxs
        P = resolve_point(silo, FLOAT, silo.labels["Qp"])
        pr = C._probe(P, FLOAT.direction(210.0), lctx, an, B)
        assert pr.fwd.kind == "crossed"
        assert pr.bwd is pr.fwd
        assert pr.status.kind == "crossing"
        assert pr.status.via_vertices == pr.fwd.via_vertices
        assert silo.labels["I"].vertex in pr.fwd.via_vertices


class TestBandTransitFrames:
    """A framed end trace carries its frame across each band transit, so
    the chords after it develop onto the start line."""

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_chords_after_transits_develop_on_the_line(self, ctx):
        session = C.Session(build_silo(6), ctx)
        surf = session.grown(10, 10**6)
        third = Fraction(1, 3)
        ray = engine.make_ray(surf, ctx, 0, (third, third, third), (5, -1))
        res = C._trace_end(surf, ctx, ray, session.analysis(surf),
                           Budgets(arc=6.0), None)
        assert res.band_tokens == (("bottom", 1), ("bottom", 2))
        # The walk restarts after the transits with an uncrossed entry.
        restart = [i for i, (_, _, crossed) in enumerate(res.frames)
                   if not crossed][1]
        later = list(zip(res.segments, res.frames))[restart:]
        assert later
        sx, sy = res.carrier_xy
        dx, dy = ray.dir
        for seg, (tri, frame, _) in later:
            assert seg.tri == tri
            for p in (seg.a, seg.b):
                px, py = frame.apply(*p)
                assert ctx.sign(chart.cross(dx, dy, px - sx, py - sy)) == 0


class TestEndFrames:
    """An end trace's last frame places its end triangle in the start
    chart, so with no vertex crossing it turns the end direction back into
    the start direction: the rotation `_asymptotic_flips` reads."""

    @pytest.fixture(scope="class", params=[FLOAT, EXACT],
                    ids=["float", "exact"])
    def semi_part(self, request):
        ctx = request.param
        _, surf, an, lctx = classify_labeled(build_semi_paradoxist(4), ctx,
                                             "P", "l", B)
        P = resolve_point(surf, ctx, surf.labels["P"])
        return C._Partitioner(P, lctx, an, B).run()

    def test_frame_turns_the_end_direction_to_the_start(self, semi_part):
        part = semi_part
        ctx, surf = part.ctx, part.surf
        kinds = set()
        for pr in part.cache.values():
            ray = engine.ray_canonical(surf, ctx, part.P, pr.dvec)
            ends = [(pr.fwd, ray)]
            if pr.bwd is not pr.fwd:
                ends.append((pr.bwd, engine.reverse_ray(surf, ctx, ray)))
            for res, start in ends:
                if res.via_vertices:
                    continue
                kinds.add(res.kind)
                assert res.carrier == start.point.tri
                got = res.frame.apply_vec(*res.end.dir)
                if ctx.exact:
                    assert got == start.dir
                else:
                    assert math.dist(got, start.dir) <= ctx.eps
        assert {"crossed", "escaped"} <= kinds

    def test_flip_at_an_ends_own_tail_is_its_witness(self, semi_part):
        # Were l's tail parallel to the tail of an escaped end, the line of
        # that end would turn parallel to it: `_asymptotic_flips` splits
        # the interval at the witness direction.
        part = semi_part
        fc = part.lctx.flat_complement
        turned = 0
        for u, v, pr in part.intervals:
            for res in (pr.fwd, pr.bwd):
                if res.kind != "escaped" or res.via_vertices:
                    continue
                turned += res.frame.k % 6 != 0
                lctx = copy.copy(part.lctx)
                lctx.tail_dirs = [C._developed_tail(fc, res.tail).dir]
                flips = C._Partitioner(part.P, lctx, part.analysis, B)
                flips.cache = dict(part.cache)
                flips.intervals = [(u, v, None)]
                flips._asymptotic_flips()
                assert [flips._key(b) for _, b, _ in flips.intervals] == \
                    [part._key(pr.dvec), part._key(v)]
        assert turned


class TestModeAgreement:
    def test_silo_exact_matches_float(self):
        surf_f = build_silo(6)
        surf_e = build_silo(6)
        for name in ("P", "R", "Q", "Qp", "Qpp"):
            cf, surf_f, _, _ = classify_labeled(surf_f, FLOAT, name, "l", B)
            ce, surf_e, _, _ = classify_labeled(surf_e, EXACT, name, "l", B)
            assert cf.kind == ce.kind, name
            assert cf.count == ce.count, name

    def test_semi_exact_matches_float(self):
        surf_f = build_semi_paradoxist(4)
        surf_e = build_semi_paradoxist(4)
        for name in ("P", "Q", "R"):
            cf, surf_f, _, _ = classify_labeled(surf_f, FLOAT, name, "l", B)
            ce, surf_e, _, _ = classify_labeled(surf_e, EXACT, name, "l", B)
            assert cf.kind == ce.kind, name


class TestSteppingErrors:
    """On the stepping path only engine and surface errors mean Unknown;
    any other exception is a bug and propagates."""

    @pytest.fixture(scope="class")
    def semi_probe(self):
        _, surf, analysis, lctx = classify_labeled(
            build_semi_paradoxist(4), FLOAT, "P", "l", B)
        return resolve_point(surf, FLOAT, surf.labels["P"]), lctx, analysis

    @staticmethod
    def band_vertex_ray():
        # From a band triangle's centroid straight at one of its corners:
        # the band transit ends at that vertex.
        surf = build_silo(4)
        analysis = ModelAnalysis(surf, EXACT)
        t = min(analysis.bands[0].tris)
        cs = chart.corners(EXACT)
        third = EXACT.frac(1, 3)
        d = (-(cs[1][0] + cs[2][0]) * third, -(cs[1][1] + cs[2][1]) * third)
        ray = engine.ray_canonical(
            surf, EXACT, SurfacePoint(t, (third, third, third)), d)
        return surf, analysis, ray

    @staticmethod
    def raising(exc):
        def fn(*args, **kwargs):
            raise exc
        return fn

    def test_band_vertex_crossing_bug_propagates(self, monkeypatch):
        surf, analysis, ray = self.band_vertex_ray()
        monkeypatch.setattr(engine, "cross_vertex",
                            self.raising(RuntimeError("bug in cross_vertex")))
        with pytest.raises(RuntimeError, match="bug in cross_vertex"):
            C._trace_end(surf, EXACT, ray, analysis, B, None)

    def test_band_vertex_crossing_engine_error_is_unknown(self, monkeypatch):
        surf, analysis, ray = self.band_vertex_ray()
        assert C._trace_end(surf, EXACT, ray, analysis, B,
                            None).band_tokens[0][0] == "v"
        monkeypatch.setattr(engine, "cross_vertex",
                            self.raising(engine.EngineError("no fan")))
        res = C._trace_end(surf, EXACT, ray, analysis, B, None)
        assert res.kind == "unknown"
        assert res.band_tokens == () and res.via_vertices == ()

    def test_reverse_ray_bug_propagates(self, semi_probe, monkeypatch):
        P, lctx, analysis = semi_probe
        monkeypatch.setattr(engine, "reverse_ray",
                            self.raising(RuntimeError("bug in reverse_ray")))
        with pytest.raises(RuntimeError, match="bug in reverse_ray"):
            C._probe(P, FLOAT.direction(40.0), lctx, analysis, B)

    def test_reverse_ray_engine_error_is_unknown(self, semi_probe, monkeypatch):
        P, lctx, analysis = semi_probe
        monkeypatch.setattr(engine, "reverse_ray",
                            self.raising(engine.EngineError("no reverse")))
        probe = C._probe(P, FLOAT.direction(40.0), lctx, analysis, B)
        assert probe.status == C.Unknown("reverse ray unavailable")


# -- partition tiling --------------------------------------------------------


TILING_FIXTURES = {
    "silo": (lambda: build_silo(6), ("P", "R", "Q", "Qp", "Qpp")),
    "semi": (lambda: build_semi_paradoxist(4), ("P", "Q", "R")),
    "flat": (lambda: build_flat_plane(3), ("P",)),
}


def refuses_budget(model, name, arc):
    """Does the line l not escape the core ring of `model` within `arc`?"""
    return model != "silo" and (
        arc <= 3 or (model, name, arc) == ("semi", "P", 4))


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("model", sorted(TILING_FIXTURES))
def test_partition_tiles_the_half_circle(model, mode, partitions):
    # At tight arc budgets too, where cones are halved to split depth and
    # float ends lie within eps of each other.
    build, names = TILING_FIXTURES[model]
    ctx = FLOAT if mode == "float" else EXACT
    base = build()
    session = C.Session(base, ctx)
    for name in names:
        for arc in (2.0, 3.0, 4.0, 5.0, 8.0, 25.0):
            query = (base, ctx, name, "l", Budgets(arc=arc), session)
            if refuses_budget(model, name, arc):
                with pytest.raises(ValueError, match="escape the core ring"):
                    classify_labeled(*query)
                continue
            classify_labeled(*query)
            assert_tiles(partitions[-1])


# -- corner lists ------------------------------------------------------------


def reference_corners_inside(part, pr, u, v):
    """The corner search as it was before corner lists: every corner of
    every framed triangle developed again for each cone, and the two ends
    of a crossed chord of l developed from the end's last frame.  Returns
    the corners strictly inside (u, v) and the keys of every vertex
    corner seen; chord ends are not in that key set, and one with the key
    of a vertex corner adds nothing."""
    ctx = part.ctx
    surf = part.surf
    out = {}
    keys = set()
    ends = []
    cs = chart.corners(ctx)
    for res in (pr.fwd, pr.bwd):
        if not res.frames:
            continue
        inv = engine.link_iso(surf, ctx, part.P.tri, res.carrier).inverse()
        pcx, pcy = res.carrier_xy

        def develop(frame, c):
            px, py = frame.apply(*c)
            vx, vy = px - pcx, py - pcy
            if ctx.sign(vx) == 0 and ctx.sign(vy) == 0:
                return None
            return inv.apply_vec(vx, vy)

        for tri, frame, _ in res.frames:
            for c in cs:
                w0 = develop(frame, c)
                if w0 is None:
                    continue
                w = C._halfcirc(ctx, w0)
                keys.add(part._key(w))
                if C._strictly_between(ctx, u, v, w):
                    out[part._key(w)] = w
        if res.chord is not None:
            ends += [develop(res.frames[-1][1], c)
                     for c in (res.chord.a, res.chord.b)]
    for w0 in ends:
        if w0 is None:
            continue
        w = C._halfcirc(ctx, w0)
        if part._key(w) not in keys and C._strictly_between(ctx, u, v, w):
            out[part._key(w)] = w
    return list(out.values()), keys


def assert_same_corners(part, got, want):
    """Exact mode: equal lists.  Float mode develops a vertex once where
    the reference developed it again from each strip triangle, so the
    directions may differ in the last bits: equal keys, and coordinates
    equal to 1e-12 of the length."""
    if part.ctx.exact:
        assert got == want
        return
    def key(w):
        return part._key(C._halfcirc(part.ctx, w))
    assert [key(w) for w in got] == [key(w) for w in want]
    for a, b in zip(got, want):
        assert math.dist(a, b) <= 1e-12 * math.hypot(*b)


class RecordingPartitioner(C._Partitioner):
    """Keeps every cone's corner search, (u, v, probe direction, corners),
    and apart from those every midpoint window check, (u, v, midpoint
    direction, closed)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.searches = []
        self.windows = []

    def _corners_inside(self, pr, u, v):
        got = super()._corners_inside(pr, u, v)
        self.searches.append((u, v, pr.dvec, got))
        return got

    def _window_closes(self, u, v, pm):
        got = super()._window_closes(u, v, pm)
        self.windows.append((u, v, pm.dvec, got))
        return got


def assert_window_closures_certified(part):
    """Every cone closed on its midpoint's window: a freshly framed
    midpoint has no reference corner inside the cone, both blend probes
    have the midpoint's signature (so the blend pair would have closed
    the cone too), and neither blend probe was traced."""
    ctx = part.ctx
    args = (part.lctx, part.analysis, part.budgets)
    closed = [(u, v, d) for u, v, d, got in part.windows if got]
    assert closed
    for u, v, d in closed:
        assert part._key(d) == part._key(C._blend(ctx, u, v, 1, 2))
        framed = C._probe(part.P, d, *args)
        assert reference_corners_inside(part, framed, u, v)[0] == []
        for lam in (1, 1023):
            b = C._blend(ctx, u, v, lam, 1024)
            assert part._key(b) not in part.cache
            assert C._probe(part.P, b, *args).signature() == \
                framed.signature()


# Pinned from the partition before corner lists: the number of corner
# keys, the first 16 hex digits of the SHA-256 of their sorted reprs, and
# the critical directions (the same in both modes).
PINNED_CORNERS = {
    ("silo", "Q", "float"): (7, "5666e06635b36313"),
    ("silo", "Q", "exact"): (10, "f7f9713468e947a2"),
    ("semi", "P", "float"): (34, "95d5a86679c642de"),
    ("semi", "P", "exact"): (50, "77ab336d267b19ea"),
}
PINNED_CRITICAL = {
    "silo": [10.893394649, 16.102113752, 30.0, 90.0, 150.0, 169.106605351,
             173.413224446],
    "semi": [4.715003954, 6.586775554, 8.213210702, 10.893394649,
             16.102113752, 21.051724435, 22.410910531, 24.182474356, 30.0,
             38.948275565, 43.897886248, 49.106605351, 53.413224446,
             55.284996046, 70.893394649, 76.102113752, 77.78365116,
             81.051724435, 82.410910531, 84.791280897, 90.0, 97.589089469,
             103.897886248, 109.106605351, 126.586775554, 130.893394649,
             136.102113752, 150.0, 158.948275565, 163.897886248,
             169.106605351, 173.413224446, 175.284996046, 176.329503492],
}


@pytest.fixture(scope="module", params=sorted(PINNED_CORNERS),
                ids=lambda case: "-".join(case))
def corner_run(request):
    model, name, mode = request.param
    ctx = FLOAT if mode == "float" else EXACT
    base = build_silo(6) if model == "silo" else build_semi_paradoxist(4)
    _, surf, an, lctx = classify_labeled(base, ctx, name, "l", B)
    P = resolve_point(surf, ctx, surf.labels[name])
    return request.param, RecordingPartitioner(P, lctx, an, B).run()


class TestCornerLists:
    def test_every_cone_gets_the_reference_corners(self, corner_run):
        _, part = corner_run
        framed = {}
        keys = set()
        for u, v, d, got in part.searches:
            key = part._key(d)
            if key not in framed:
                framed[key] = C._probe(part.P, d, part.lctx, part.analysis,
                                       part.budgets)
            want, seen = reference_corners_inside(part, framed[key], u, v)
            assert_same_corners(part, got, want)
            keys |= seen
        assert len(framed) >= 5
        assert keys == part.corner_keys

    def test_corner_keys_and_critical_directions_pinned(self, corner_run):
        import hashlib
        case, part = corner_run
        text = "\n".join(sorted(repr(k) for k in part.corner_keys))
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert (len(part.corner_keys), digest) == PINNED_CORNERS[case]
        crit = critical_directions(part.P, part.lctx, part.analysis, B)
        assert crit == PINNED_CRITICAL[case[0]]

    def test_corner_lists_sorted_deduplicated_and_slim(self, corner_run):
        _, part = corner_run
        ctx = part.ctx
        searched = {part._key(d) for _, _, d, _ in part.searches}
        # Probes that only compared signatures or gave a witness built none.
        assert any(pr.corners is None for pr in part.cache.values())
        for key, pr in part.cache.items():
            for res in (pr.fwd, pr.bwd):
                assert res.segments is None and res.events is None
            # A corner search builds the list, and the frames go then.
            assert key not in searched or pr.corners is not None
            if pr.corners is None:
                continue
            assert pr.fwd.frames is None and pr.bwd.frames is None
            folded = [h for _, _, h in pr.corners]
            assert folded == [C._halfcirc(ctx, h) for h in folded]
            keys = [part._key(h) for h in folded]
            assert len(set(keys)) == len(keys)
            for a, b in zip(folded, folded[1:]):
                if ctx.exact:
                    assert ctx.sign(chart.cross(a[0], a[1], b[0], b[1])) >= 0
                else:
                    assert math.atan2(a[1], a[0]) <= math.atan2(b[1], b[0])

    def test_window_closed_cones_agree_with_the_blend_pair(self, corner_run):
        _, part = corner_run
        assert_window_closures_certified(part)

    def test_window_closed_cones_on_flat_agree_with_the_blend_pair(self):
        _, surf, an, lctx = classify_labeled(build_flat_plane(3), FLOAT,
                                             "P", "l", B)
        P = resolve_point(surf, FLOAT, surf.labels["P"])
        assert_window_closures_certified(
            RecordingPartitioner(P, lctx, an, B).run())

    @staticmethod
    def flat_part(ctx):
        # Arc budget 0.35 from a centroid: the corner list holds the three
        # corners of P's own triangle, at 30, 90 and 150 degrees.
        surf = C.ensure_rings(build_flat_plane(3), 9)
        an = ModelAnalysis(surf, ctx)
        lray = resolve_ray(surf, ctx, surf.labels["l"])
        lctx = build_line_context(surf, ctx, lray, an, Budgets(30.0, 10**6))
        third = ctx.frac(1, 3)
        P = canonicalize_point(SurfacePoint(40, (third, third, third)),
                               surf, ctx)
        return C._Partitioner(P, lctx, an, Budgets(0.35, 10**6))

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_window_closes_only_on_crossed_or_escaped_ends_without_corners(
            self, ctx):
        # The corners of the probe at 60 degrees lie at 30, 90 and 150.
        part = self.flat_part(ctx)
        built = part.probe(ctx.cos_sin_deg(60))
        assert part._corner_list(built)
        a, b = ctx.cos_sin_deg(30), ctx.cos_sin_deg(90)
        clear = (C._blend(ctx, a, b, 1, 6), C._blend(ctx, a, b, 5, 6))
        holed = (ctx.cos_sin_deg(0), ctx.cos_sin_deg(120))

        def window(fwd, bwd, band=(), cone=clear):
            # A stand-in with the built probe's corner list and these ends.
            pm = C.Probe(built.dvec, SimpleNamespace(kind=fwd, band_tokens=band),
                         SimpleNamespace(kind=bwd, band_tokens=()),
                         built.status, built.corners, built.keys)
            return part._window_closes(*cone, pm)

        assert window("crossed", "crossed")
        assert window("escaped", "escaped")
        assert not window("crossed", "crossed", cone=holed)
        assert not window("escaped", "escaped", band=(("top", 1),))
        for other in ("closed", "unknown"):
            assert not window(other, "escaped")
            assert not window("escaped", other)

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_corner_list_is_built_when_a_cone_reads_it(self, ctx,
                                                       call_counts):
        # A direction first probed only for its signature has no corner
        # list yet.  Used as a cone's end, it builds one from the frames
        # it kept, with no second trace, and shows the corners its lines
        # pass.
        part = self.flat_part(ctx)
        d = ctx.cos_sin_deg(60)
        pr = part.probe(d)
        assert pr.corners is None and pr.fwd.frames
        u, v = ctx.cos_sin_deg(0), ctx.cos_sin_deg(120)
        got = part._corners_inside(part.probe(d), u, v)
        assert call_counts["classify._probe"] == 1
        assert pr.corners and pr.fwd.frames is None
        framed = C._probe(part.P, d, part.lctx, part.analysis, part.budgets)
        assert_same_corners(
            part, got, reference_corners_inside(part, framed, u, v)[0])
        assert {round(C._theta_deg(w), 9) for w in got} == {30.0, 90.0}

    @pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
    def test_bisection_picks_the_reference_corners(self, ctx):
        part = self.flat_part(ctx)
        d = ctx.cos_sin_deg(60)
        pr = part.probe(d)
        framed = C._probe(part.P, d, part.lctx, part.analysis, part.budgets)
        # The six seed cones, the last one closed by the unfolded (-1, 0).
        cones = [(ctx.cos_sin_deg(30 * k), ctx.cos_sin_deg(30 * k + 30))
                 for k in range(5)]
        cones.append((ctx.cos_sin_deg(150), (-ctx.one, ctx.zero)))
        # Cones a millionth of 60 degrees wide around each corner.
        for c in (30, 90, 150):
            lo, mid, hi = (ctx.cos_sin_deg(c + k) for k in (-30, 0, 30))
            cones.append((C._blend(ctx, lo, mid, 999_999, 1_000_000),
                          C._blend(ctx, mid, hi, 1, 1_000_000)))
        for u, v in cones:
            got = part._corners_inside(pr, u, v)
            assert_same_corners(
                part, got, reference_corners_inside(part, framed, u, v)[0])
        for u, v in cones[-3:]:
            assert part._corners_inside(pr, u, v)


# -- corner order and merging ------------------------------------------------


# Float directions: any angle on a millidegree grid, or one within eps of
# 0 or 180 degrees, at a few lengths.
_near_axis_rad = st.builds(lambda axis, k: axis + k * 1e-10,
                           st.sampled_from([0.0, math.pi, 2 * math.pi]),
                           st.integers(-9, 9))
_grid_rad = st.integers(0, 359_999).map(lambda n: math.radians(n / 1000))
float_directions = st.builds(
    lambda a, r: (r * math.cos(a), r * math.sin(a)),
    st.one_of(_grid_rad, _near_axis_rad), st.sampled_from([0.5, 1.0, 3.0, 40.0]))

# Exact directions: small Q(sqrt 3) components, and some within 1e-12
# of 0 or 180 degrees or on the axis.
_q3_part = st.builds(Q3, st.integers(-5, 5), st.integers(-5, 5))
_near_axis_exact = st.builds(
    lambda sx, sy: (Q3(sx), Q3(Fraction(sy, 10**12))),
    st.sampled_from([-1, 1]), st.integers(-3, 3))
exact_directions = st.one_of(
    st.tuples(_q3_part, _q3_part).filter(
        lambda d: d[0].sign() != 0 or d[1].sign() != 0),
    _near_axis_exact)


def ccw_before(ctx, a, b):
    """Reference comparator of folded directions: a comes before b when b
    lies counterclockwise of a."""
    return -ctx.sign(chart.cross(a[0], a[1], b[0], b[1]))


class TestCornerOrder:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(float_directions, min_size=2, max_size=30))
    def test_fold_key_orders_as_atan2_in_float(self, ds):
        folded = [C._halfcirc(FLOAT, d) for d in ds]
        by_key = sorted(folded, key=C._fold_key)
        angles = [math.atan2(h[1], h[0]) for h in by_key]
        for a, b in zip(angles, angles[1:]):
            assert a <= b + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(exact_directions, min_size=2, max_size=20))
    def test_fold_key_orders_as_cross_signs_in_exact(self, ds):
        folded = [C._halfcirc(EXACT, d) for d in ds]
        want = sorted(folded, key=cmp_to_key(
            lambda a, b: ccw_before(EXACT, a, b)))
        assert sorted(folded, key=C._fold_key) == want

    @staticmethod
    def split(ctx, raw):
        return C._Partitioner._split_points(SimpleNamespace(ctx=ctx), raw)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 9)),
                    min_size=1, max_size=12),
           st.lists(st.sampled_from(["scaled", "near", "none"]),
                    min_size=12, max_size=12),
           st.randoms(use_true_random=False))
    def test_split_points_merge_by_the_sign_of_cross(self, bases, copies, rnd):
        # Base directions on distinct lines, each perhaps with a copy on
        # the same line or one turned by a cross product of about 1e-12.
        lines = {}
        for a, b in bases:
            g = math.gcd(a, b)
            lines[(a // g, b // g)] = None
        near = sum(1 for _, c in zip(lines, copies) if c == "near")
        for ctx in (FLOAT, EXACT):
            raw = []
            for (a, b), copy in zip(lines, copies):
                raw.append((ctx.of(a), ctx.of(b)))
                if copy == "scaled":
                    raw.append((ctx.of(3 * a), ctx.of(3 * b)))
                elif copy == "near":
                    nudge = ctx.of(Fraction(1, 10**12)) if ctx.exact else 1e-12
                    raw.append((ctx.of(a) + nudge, ctx.of(b)))
            rnd.shuffle(raw)
            got = self.split(ctx, raw)
            # Float mode merges the near copies too; exact mode only the
            # exactly parallel ones.
            assert len(got) == len(lines) + (near if ctx.exact else 0)
            for p, q in zip(got, got[1:]):
                assert ctx.sign(chart.cross(p[0], p[1], q[0], q[1])) > 0
            for w in raw:
                assert any(ctx.sign(chart.cross(c[0], c[1], w[0], w[1])) == 0
                           for c in got)

