"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import math
import time

import pytest

from smfgeo import chart, engine, netdraw
from smfgeo import classify as C
from smfgeo.builders import (
    build_flat_plane,
    build_semi_paradoxist,
    build_silo,
    middle_line_ray,
    resolve_point,
    resolve_ray,
    straddle_pair,
)
from smfgeo.classify import Budgets, ModelAnalysis, build_line_context
from smfgeo.numbers import Scalars
from smfgeo.surface import Triangulation, validate

FLOAT = Scalars("float")
EXACT = Scalars("exact")
DEFAULT = Budgets()


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def fan_angles(surf, ctx, v, tri_in, d_in, out_ray):
    slot = surf.vertex_slot(tri_in, v)
    frames = engine.fan_frames(surf, ctx, v, (tri_in, slot))
    cone = 60.0 * surf.degree[v]
    bx, by = frames[0][2].apply_vec(-d_in[0], -d_in[1])
    cs = chart.corners(ctx)

    def ang(frame, s, w):
        ex, ey = frame.apply_vec(cs[(s + 1) % 3][0] - cs[s][0],
                                 cs[(s + 1) % 3][1] - cs[s][1])
        ex, ey = float(ex), float(ey)
        return math.degrees(math.atan2(ex * w[1] - ey * w[0],
                                       ex * w[0] + ey * w[1])) % 360.0

    base = ang(frames[0][2], frames[0][1], (float(bx), float(by)))
    j = next(i for i, (t, _, _) in enumerate(frames) if t == out_ray.point.tri)
    w = frames[j][2].apply_vec(*out_ray.dir)
    off = ang(frames[j][2], frames[j][1], (float(w[0]), float(w[1])))
    ccw = (60.0 * j + off - base) % cone
    return ccw, cone - ccw


class TestCriterion1:
    def test_vertex_rule_angles(self):
        t0 = time.monotonic()
        surf = build_semi_paradoxist(3)
        flat6 = next(v for v, d in surf.degree.items()
                     if d == 6 and v not in surf.frontier)
        results = {}
        for ctx, tol in ((EXACT, 0.0), (FLOAT, 1e-9)):
            for v, expected in ((0, 150.0), (flat6, 180.0), (1, 210.0)):
                ray = middle_line_ray(surf, ctx, v)
                seg, hit = engine.step(ray, surf, ctx)
                assert hit == ("vertex", v)
                out, ev = engine.cross_vertex(surf, ctx, v, ray.point.tri,
                                              ray.dir)
                ccw, cw = fan_angles(surf, ctx, v, ray.point.tri, ray.dir, out)
                assert abs(ccw - expected) <= max(tol, 1e-9), (v, ccw)
                assert abs(cw - expected) <= max(tol, 1e-9), (v, cw)
                results[(ctx.mode, v)] = (ccw, cw)
        dt = time.monotonic() - t0
        verdict(1, dt < 1.0,
                f"equal-angle rule gives (150,150)/(180,180)/(210,210) in "
                f"both modes, {dt:.2f}s")


def ring_cross_positions(surf, path, ring):
    cyc = surf.rings[ring]
    n = len(cyc)
    edge_pos = {}
    for i in range(n):
        edge_pos[(cyc[i], cyc[(i + 1) % n])] = i
    out = []
    for _, ev in path.events:
        if isinstance(ev, engine.EdgeCrossing):
            u, v = surf.edge_vertices(ev.tri, ev.edge)
            for (a, b), i in edge_pos.items():
                if {a, b} == {u, v}:
                    p = ev.point
                    slot = surf.vertex_slot(p.tri, a)
                    t = 1.0 - float(p.bary[slot])
                    out.append(i + t)
                    break
            else:
                continue
            break
    return out


class TestCriterion2:
    def test_straddle_behaviors(self):
        surf = build_semi_paradoxist(6)
        t0 = time.monotonic()
        a, b = straddle_pair(surf, FLOAT, 0)
        pa = engine.trace(a, surf, FLOAT, arc_budget=10.0, growth_budget=10**6)
        pb = engine.trace(b, pa.surface, FLOAT, arc_budget=10.0,
                          growth_budget=10**6)
        pts = engine.intersect_paths(pa, pb, pb.surface, FLOAT)
        t_ell = time.monotonic() - t0
        assert pts, "degree-5 straddle pair must intersect within budget 10"

        t0 = time.monotonic()
        a7, b7 = straddle_pair(surf, FLOAT, 1)
        pa7 = engine.trace(a7, surf, FLOAT, arc_budget=50.0, growth_budget=10**6)
        pb7 = engine.trace(b7, pa7.surface, FLOAT, arc_budget=50.0,
                           growth_budget=10**6)
        surf7 = pb7.surface
        pts7 = engine.intersect_paths(pa7, pb7, surf7, FLOAT)
        assert pts7 == [], "degree-7 straddle pair must not intersect in 50"
        seps = []
        for ring in range(3, 9):
            if ring >= len(surf7.rings):
                break
            qa = ring_cross_positions(surf7, pa7, ring)
            qb = ring_cross_positions(surf7, pb7, ring)
            if qa and qb:
                n = len(surf7.rings[ring])
                d = abs(qa[0] - qb[0])
                seps.append(min(d, n - d))
        t_hyp = time.monotonic() - t0
        assert len(seps) >= 3, f"need several ring separations, got {seps}"
        assert all(y > x for x, y in zip(seps, seps[1:])), seps
        verdict(2, t_ell < 1.0 and t_hyp < 1.0,
                f"5-pair meets in budget 10 ({t_ell:.2f}s), 7-pair separates "
                f"{[round(s, 3) for s in seps]} in budget 50 ({t_hyp:.2f}s)")


class TestCriterion3:
    def test_semi_paradoxist_classifications(self):
        t0 = time.monotonic()
        surf = build_semi_paradoxist(4)
        got = {}
        for name in ("P", "Q", "R"):
            cls, surf, _, _ = C.classify_labeled(surf, FLOAT, name, "l",
                                                 DEFAULT)
            got[name] = cls
        dt = time.monotonic() - t0
        ok = (got["P"].kind == C.EUCLIDEAN and got["Q"].kind == C.ELLIPTIC
              and got["R"].kind == C.REGULARLY_HYPERBOLIC
              and all(c.unknown_arcs == 0 for c in got.values()))
        verdict(3, ok and dt < 30.0,
                f"P={got['P'].kind}, Q={got['Q'].kind}, R={got['R'].kind}, "
                f"zero undetermined, {dt:.1f}s")


class TestCriterion4:
    def test_silo_model(self):
        t0 = time.monotonic()
        surf = build_silo(6)
        lray = resolve_ray(surf, FLOAT, surf.labels["l"])
        lpath = engine.trace(lray, surf, FLOAT, arc_budget=20.0,
                             growth_budget=len(surf.tris), two_sided=True)
        period = engine.detect_closure(lpath)
        assert period == pytest.approx(5.0, abs=1e-9)
        defect = C.enclosed_defect(lpath, surf, FLOAT)
        assert defect == 360
        got = {}
        for name in ("P", "R", "Q", "Qp", "Qpp"):
            cls, surf, _, _ = C.classify_labeled(surf, FLOAT, name, "l",
                                                 DEFAULT)
            got[name] = cls
        ok = (got["P"].kind == C.EUCLIDEAN
              and got["R"].kind == C.ELLIPTIC
              and got["Q"].kind == C.REGULARLY_HYPERBOLIC
              and got["Qp"].kind == C.EXTREMELY_HYPERBOLIC
              and got["Qp"].count == 1
              and got["Qpp"].kind == C.COMPLETELY_HYPERBOLIC)
        crossings = [i for i in got["Qp"].isolated
                     if i.status.kind == "crossing"]
        vertex_i = surf.labels["I"].vertex
        ok = ok and len(crossings) == 1 and \
            vertex_i in crossings[0].status.via_vertices
        dt = time.monotonic() - t0
        verdict(4, ok and dt < 300.0,
                f"period={period}, defect={defect}, "
                f"P/R/Q/Q'/Q''={[got[k].kind for k in ('P','R','Q','Qp','Qpp')]}, "
                f"Q' crossing via vertex I, {dt:.1f}s")


class TestCriterion5:
    def test_unjoinable_pair(self):
        t0 = time.monotonic()
        surf = C.ensure_rings(build_silo(6), 12)
        an = ModelAnalysis(surf, FLOAT)
        lray = resolve_ray(surf, FLOAT, surf.labels["l"])
        lctx = build_line_context(surf, FLOAT, lray, an, DEFAULT)
        candidates = [resolve_point(surf, FLOAT, surf.labels["Qpp"]),
                      resolve_point(surf, FLOAT, surf.labels["Qp"])]
        got = C.find_unjoinable_pair(surf, FLOAT, lctx, an, DEFAULT,
                                     candidates)
        assert got is not None
        p, q, evidence = got
        assert evidence.kind == C.COMPLETELY_HYPERBOLIC
        assert evidence.unknown_arcs == 0
        chain = C.connect_by_segments(p, q, surf, FLOAT)
        assert 1 <= len(chain) <= surf.n_triangles()
        dt = time.monotonic() - t0
        verdict(5, dt < 300.0,
                f"unjoinable pair certified ({evidence.kind}), joined by "
                f"{len(chain)} segments, {dt:.1f}s")


def sweep_check(surf, ctx, analysis, lctx, P, budgets, n, rng_offset=0.0):
    """Dense-direction oracle: partition lookup vs per-direction classifier."""
    part = C._Partitioner(P, lctx, analysis, budgets).run()
    ivs = sorted(part.result_intervals, key=lambda i: i.lo)
    bounds = {}
    for iso in part.result_isolated:
        bounds[round(iso.theta, 7)] = iso.status.kind
    import bisect
    los = [iv.lo for iv in ivs]

    def lookup(theta):
        key = round(theta, 7)
        if key in bounds:
            return bounds[key]
        for b in bounds:
            if abs(b - theta) < 1e-7:
                return bounds[b]
        i = bisect.bisect_right(los, theta) - 1
        if 0 <= i < len(ivs) and ivs[i].lo <= theta <= ivs[i].hi:
            return ivs[i].status.kind
        return None

    disagreements = 0
    unknowns = 0
    checked = 0
    for k in range(n):
        theta = (k + rng_offset) * 180.0 / n
        want = lookup(theta)
        if want is None or want == "unknown":
            unknowns += 1
            continue
        st = C.classify_direction(P, ctx.direction(theta), lctx, analysis,
                                  budgets)
        checked += 1
        if st.kind == "unknown":
            unknowns += 1
            continue
        if st.kind != want:
            disagreements += 1
    return checked, unknowns, disagreements


class TestCriterion6:
    def test_oracle_equivalence(self):
        t0 = time.monotonic()
        reduced = Budgets(25.0, 10**6)
        total = {"checked": 0, "unknown": 0, "bad": 0}
        n = 100_000 // 3 + 1
        for build, name in ((build_flat_plane, "flat"),
                            (build_semi_paradoxist, "semi"),
                            (build_silo, "silo")):
            surf = build(6) if name != "flat" else build(3)
            cls, surf, analysis, lctx = C.classify_labeled(
                surf, FLOAT, "P", "l", reduced)
            P = resolve_point(surf, FLOAT, surf.labels["P"])
            checked, unknowns, bad = sweep_check(
                surf, FLOAT, analysis, lctx, P, reduced, n)
            total["checked"] += checked
            total["unknown"] += unknowns
            total["bad"] += bad
        dt = time.monotonic() - t0
        verdict(6, total["bad"] == 0 and dt < 600.0,
                f"{total['checked']} sampled directions agree "
                f"({total['unknown']} unknown excluded), "
                f"{total['bad']} disagreements, {dt:.0f}s")


class TestCriterion7:
    def test_certificate_stability(self):
        t0 = time.monotonic()
        flips = []
        for build, names, arg in (
                (build_silo, ("P", "R", "Q", "Qp", "Qpp"), 6),
                (build_semi_paradoxist, ("P", "Q", "R"), 4)):
            base = {}
            surf_small = build(arg)
            for name in names:
                cls, surf_small, _, _ = C.classify_labeled(
                    surf_small, FLOAT, name, "l", DEFAULT)
                base[name] = cls
            surf_big = build(arg)
            for name in names:
                cls2, surf_big, _, _ = C.classify_labeled(
                    surf_big, FLOAT, name, "l", DEFAULT.doubled())
                if base[name].kind != C.UNDETERMINED and \
                        cls2.kind != base[name].kind:
                    flips.append((name, base[name].kind, cls2.kind))
                # parallel-certified directions must not flip to crossing
                small_iso = {round(i.theta, 6): i.status.kind
                             for i in base[name].isolated}
                for i in cls2.isolated:
                    k = round(i.theta, 6)
                    if small_iso.get(k) == "parallel" and \
                            i.status.kind == "crossing":
                        flips.append((name, "parallel->crossing", i.theta))
        dt = time.monotonic() - t0
        verdict(7, not flips,
                f"no ParallelCertified or classification flips under doubled "
                f"budgets ({dt:.0f}s)" if not flips else f"flips: {flips}")


class TestCriterion8:
    def test_mode_agreement(self):
        t0 = time.monotonic()
        # vertex rule events and straddle itineraries
        surf_f = build_semi_paradoxist(6)
        surf_e = build_semi_paradoxist(6)

        def tokens(path):
            out = []
            for _, ev in path.events:
                if isinstance(ev, engine.EdgeCrossing):
                    out.append((ev.tri, ev.edge))
                elif isinstance(ev, engine.VertexCrossing):
                    out.append(("v", ev.vertex))
            return out

        for v in (0, 1):
            for ray_fn in (middle_line_ray,):
                rf = ray_fn(surf_f, FLOAT, v)
                re_ = ray_fn(surf_e, EXACT, v)
                pf = engine.trace(rf, surf_f, FLOAT, arc_budget=10.0,
                                  growth_budget=10**6)
                pe = engine.trace(re_, surf_e, EXACT, arc_budget=10.0,
                                  growth_budget=10**6)
                assert tokens(pf) == tokens(pe), f"event sequences differ at {v}"
                assert abs(pf.arc_length - pe.arc_length) < 1e-9
        # silo circle: exact closure at exactly 5
        silo_f = build_silo(6)
        silo_e = build_silo(6)
        lf = resolve_ray(silo_f, FLOAT, silo_f.labels["l"])
        le = resolve_ray(silo_e, EXACT, silo_e.labels["l"])
        pf = engine.trace(lf, silo_f, FLOAT, arc_budget=20.0,
                          growth_budget=len(silo_f.tris), two_sided=True)
        pe = engine.trace(le, silo_e, EXACT, arc_budget=20.0,
                          growth_budget=len(silo_e.tris), two_sided=True)
        per_f = engine.detect_closure(pf)
        per_e = engine.detect_closure(pe)
        assert per_e == 5.0
        assert abs(per_f - per_e) < 1e-9
        assert C.enclosed_defect(pf, silo_f, FLOAT) == \
            C.enclosed_defect(pe, silo_e, EXACT) == 360
        # classifications agree between modes
        mismatches = []
        for name in ("P", "R", "Q", "Qp", "Qpp"):
            cf, silo_f, _, _ = C.classify_labeled(silo_f, FLOAT, name, "l",
                                                  DEFAULT)
            ce, silo_e, _, _ = C.classify_labeled(silo_e, EXACT, name, "l",
                                                  DEFAULT)
            if (cf.kind, cf.count) != (ce.kind, ce.count):
                mismatches.append((name, cf.kind, ce.kind))
        for name in ("P", "Q", "R"):
            cf, surf_f, _, _ = C.classify_labeled(surf_f, FLOAT, name, "l",
                                                  DEFAULT)
            ce, surf_e, _, _ = C.classify_labeled(surf_e, EXACT, name, "l",
                                                  DEFAULT)
            if (cf.kind, cf.count) != (ce.kind, ce.count):
                mismatches.append((name, cf.kind, ce.kind))
        dt = time.monotonic() - t0
        verdict(8, not mismatches,
                f"exact and float agree on events, period, defect and all 8 "
                f"fixture classifications ({dt:.0f}s)"
                if not mismatches else f"mismatches: {mismatches}")


class TestCriterion9:
    def test_figures(self):
        t0 = time.monotonic()
        surf = build_semi_paradoxist(4)
        d5, paths5 = netdraw.figure_fan(surf, FLOAT, 0)
        ok5 = len(d5.triangles) == 5 and len(d5.cut_edges) >= 2
        mids = []
        for t, pts in d5.triangles:
            for i in range(3):
                a, b = pts[i], pts[(i + 1) % 3]
                mids.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
        middle5 = [pl for lab, pl in d5.polylines if lab == "middle"]

        def passes(polys, pt, tol=1e-6):
            for pl in polys:
                for a, b in zip(pl, pl[1:]):
                    ux, uy = b[0] - a[0], b[1] - a[1]
                    wx, wy = pt[0] - a[0], pt[1] - a[1]
                    L2 = ux * ux + uy * uy
                    if L2 == 0:
                        continue
                    s = (wx * ux + wy * uy) / L2
                    if -tol <= s <= 1 + tol and \
                            abs(ux * wy - uy * wx) / math.sqrt(L2) < tol:
                        return True
            return False

        ok5 = ok5 and any(passes(middle5, m) for m in mids)
        d7, paths7 = netdraw.figure_fan(surf, FLOAT, 1)
        fan7 = [t for t, _ in d7.triangles]
        used = {lab: {seg.tri for seg in p.segments if seg.tri in fan7}
                for lab, p in paths7}
        ok7 = (len(d7.triangles) == 7 and len(d7.cut_edges) >= 4
               and not (used["left"] & used["right"])
               and len(fan7) - len(used["left"] | used["right"]) >= 1)
        import xml.etree.ElementTree as ET
        for d in (d5, d7):
            ET.fromstring(netdraw.render_svg(d))
        dt = time.monotonic() - t0
        verdict(9, ok5 and ok7,
                f"figure nets: 5-fan with cut and bisecting middle line, "
                f"7-fan in two cut pieces with straddle lines a triangle "
                f"apart ({dt:.1f}s)")


class TestCriterion10:
    def test_mutation_suite(self):
        t0 = time.monotonic()
        surf = build_flat_plane(2)
        caught = 0
        total = 0

        def clone(**over):
            kw = dict(tris=list(surf.tris), adj=dict(surf.adj),
                      degree=dict(surf.degree), frontier=surf.frontier,
                      boundary=surf.boundary, rings=surf.rings,
                      ring_of=dict(surf.ring_of), rule=surf.rule,
                      labels=surf.labels)
            kw.update(over)
            return Triangulation(**kw)

        # edge shared by three
        u, v = surf.edge_vertices(0, 0)
        w = max(surf.degree) + 1
        deg = dict(surf.degree)
        deg[u] += 1
        deg[v] += 1
        deg[w] = 1
        bad = clone(tris=list(surf.tris) + [(u, v, w)], degree=deg,
                    frontier=surf.frontier | {w})
        total += 1
        caught += 0 if validate(bad).ok() else 1
        # orientation flip
        tris = list(surf.tris)
        a, b, c = tris[3]
        tris[3] = (a, c, b)
        total += 1
        caught += 0 if validate(clone(tris=tris)).ok() else 1
        # degree out of range (4 and 8)
        for fake in (4, 8):
            interior = next(x for x in surf.degree if x not in surf.frontier)
            deg = dict(surf.degree)
            deg[interior] = fake
            total += 1
            caught += 0 if validate(clone(degree=deg)).ok() else 1
        # adjacency asymmetry
        adj = dict(surf.adj)
        k = next(iter(adj))
        t2, e2 = adj[k]
        adj[k] = (t2, (e2 + 1) % 3)
        total += 1
        caught += 0 if validate(clone(adj=adj)).ok() else 1
        # disconnection
        adj = {kk: vv for kk, vv in surf.adj.items()
               if 0 not in (kk[0], vv[0])}
        total += 1
        caught += 0 if validate(clone(
            adj=adj, frontier=frozenset(set(surf.frontier) | set(surf.tris[0])))).ok() else 1
        # dangling open edge off the frontier
        adj = dict(surf.adj)
        kk = next(k for k in adj if adj[k][0] != k[0])
        vv = adj.pop(kk)
        adj.pop(vv)
        total += 1
        caught += 0 if validate(clone(adj=adj)).ok() else 1
        dt = time.monotonic() - t0
        verdict(10, caught == total,
                f"validator flagged {caught}/{total} seeded violations "
                f"({dt:.1f}s)")
