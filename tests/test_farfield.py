"""The flat complement's cut development and the developed tail tests.

The shift across the cut comes from the seams of the cut development
itself, and every tail decision is a sign test through `Scalars`, so
exact mode decides exactly and float mode within the run's epsilon.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from smfgeo import classify as C, farfield
from smfgeo.builders import (
    build_flat_plane,
    build_semi_paradoxist,
    resolve_point,
    resolve_ray,
)
from smfgeo.chart import Isometry, cross, dot
from smfgeo.engine import make_ray, trace
from smfgeo.farfield import (
    FlatComplement,
    TailData,
    split_tail_at_cut,
    tails_meet,
)
from smfgeo.numbers import Q3, Scalars
from smfgeo.surface import seams

FLOAT = Scalars("float")
EXACT = Scalars("exact")
B = C.Budgets()
_built = {}


def far_field(ctx):
    """The far field of semi(4)'s line l for the query at P, with the
    grown surface, the cut tuple and the anchor it was built from."""
    if ctx.mode not in _built:
        surf = build_semi_paradoxist(4)
        session = C.Session(surf, ctx)
        grown = session.grown(9, B.growth)
        P = resolve_point(grown, ctx, grown.labels["P"])
        lray = resolve_ray(grown, ctx, grown.labels["l"])
        lctx = session.line_context(grown, lray, B, [P])
        fc = lctx.flat_complement
        cut = C._cut_ray(grown, ctx, session.analysis(grown), B,
                         lctx.core_ring)
        _built[ctx.mode] = (grown, fc, cut, next(iter(fc.frames)))
    return _built[ctx.mode]


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_outside_is_every_triangle_past_the_ring(ctx):
    # The far fields of the fixture queries: semi's Q and R share one,
    # P needs a wider core ring, and flat P has its own.
    fields = {}
    for build, points in ((lambda: build_semi_paradoxist(4), "PQR"),
                          (lambda: build_flat_plane(3), "P")):
        surf = build()
        session = C.Session(surf, ctx)
        for p in points:
            _, grown, _, lctx = C.classify_labeled(surf, ctx, p, "l", B,
                                                   session)
            fields[id(lctx.flat_complement)] = grown, lctx.flat_complement
    assert len(fields) == 3
    for grown, fc in fields.values():
        assert set(fc.outside) == {t for t in range(grown.n_triangles())
                                   if grown.tri_ring(t) > fc.ring}


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_every_seam_is_a_cut_edge_carrying_delta(ctx):
    surf, fc, _, _ = far_field(ctx)
    dx, dy = fc.delta
    assert not (ctx.is_zero(dx) and ctx.is_zero(dy))
    found = list(seams(surf, ctx, fc.frames, fc.tree))
    assert len(found) == 12
    for t, e, direct, have in found:
        assert frozenset(surf.edge_vertices(t, e)) in fc.cut_edges
        assert direct.k == have.k
        sx, sy = direct.tx - have.tx, direct.ty - have.ty
        if ctx.exact:
            assert (sx, sy) in ((dx, dy), (-dx, -dy))
        else:
            assert (ctx.eq(sx, dx) and ctx.eq(sy, dy)) or \
                (ctx.eq(sx, -dx) and ctx.eq(sy, -dy))


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_seams_skip_only_tree_edges(ctx):
    # The development's tree edges agree by construction: skipping them
    # leaves the seams a scan of every placed adjacency finds, in order.
    surf, fc, _, _ = far_field(ctx)

    def plain(found):
        return [(t, e, d.k, d.tx, d.ty, h.k, h.tx, h.ty)
                for t, e, d, h in found]
    assert len(fc.tree) == 2 * (len(fc.frames) - 1)
    assert plain(seams(surf, ctx, fc.frames, fc.tree)) == \
        plain(seams(surf, ctx, fc.frames, set()))


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_a_gap_in_the_cut_is_refused(ctx):
    surf, fc, cut, anchor = far_field(ctx)
    seam_edges = {frozenset(surf.edge_vertices(t, e))
                  for t, e, _, _ in seams(surf, ctx, fc.frames, fc.tree)}
    assert len(seam_edges) == 6
    again = FlatComplement(surf, ctx, fc.ring, anchor, cut)
    assert again.delta == fc.delta
    for edge in seam_edges:
        with pytest.raises(ValueError, match="off the cut"):
            FlatComplement(surf, ctx, fc.ring, anchor,
                           (cut[0] - {edge},) + cut[1:])


def test_exact_split_stays_in_q3():
    _, fc, _, _ = far_field(EXACT)
    (bx, by), (dx, dy) = fc.cut
    # A tail that starts left of the cut ray and crosses it at base + 2 d.
    nx, ny = -dy, dx
    tail = TailData((bx + 2 * dx + nx, by + 2 * dy + ny), (-nx, -ny),
                    1.5, math.hypot(float(dx), float(dy)))
    first, second = split_tail_at_cut(EXACT, tail, fc)
    assert isinstance(first.limit, Q3) and first.limit.sign() > 0
    assert all(isinstance(c, Q3) for c in second.base + second.dir)
    assert second.kcut == -1 and first.kcut == 0
    assert second.base == (tail.base[0] - nx * first.limit,
                           tail.base[1] - ny * first.limit)
    assert fc.side(second.base) == 0
    # The cut is a ray: a tail crossing its line behind the base stays whole.
    behind = TailData((bx - 2 * dx + nx, by - 2 * dy + ny), (-nx, -ny),
                      0.0, 1.0)
    assert split_tail_at_cut(EXACT, behind, fc) == [behind]
    # The leading piece ends at the cut: a line crossing the tail beyond
    # the cut meets the whole tail, but not the leading piece.
    past = TailData((tail.base[0] - 2 * nx * first.limit - dx,
                     tail.base[1] - 2 * ny * first.limit - dy), (dx, dy),
                    0.0, 1.0)
    assert tails_meet(EXACT, tail, past, fc.delta) is not None
    assert tails_meet(EXACT, past, tail, fc.delta) is not None
    assert tails_meet(EXACT, first, past, fc.delta) is None
    assert tails_meet(EXACT, past, first, fc.delta) is None


@pytest.mark.parametrize("tamper,message", [
    (lambda ctx, f: Isometry(ctx, f.k, f.tx + ctx.one, f.ty), "disagree"),
    (lambda ctx, f: Isometry(ctx, f.k + 1, f.tx, f.ty), "rotation"),
])
def test_inconsistent_seams_are_refused(tamper, message, monkeypatch):
    surf, fc, cut, anchor = far_field(EXACT)

    def tampered(surf, ctx, frames, tree):
        found = list(seams(surf, ctx, frames, tree))
        t, e, direct, have = found[-1]
        return found[:-1] + [(t, e, tamper(ctx, direct), have)]

    monkeypatch.setattr(farfield, "seams", tampered)
    with pytest.raises(ValueError, match=message):
        FlatComplement(surf, EXACT, fc.ring, anchor, cut)


def test_split_bookkeeping_follows_the_surface():
    # A straight line traced on the surface across the cut: the corridor
    # frames place it on its own straight development before the split,
    # and `kcut` shifts of `delta` off it after.  A triangle with a cut
    # edge is placed from one bank, so inside it either placement may hold.
    ctx = EXACT
    surf, fc, _, _ = far_field(ctx)
    (bx, by), (dx, dy) = fc.cut
    norm = math.hypot(float(dx), float(dy))
    g = (ctx.half, ctx.sqrt3 * ctx.frac(1, 6))  # chart centroid
    banks = {t for t in fc.frames
             if any(frozenset(surf.edge_vertices(t, e)) in fc.cut_edges
                    for e in range(3))}

    def start(t):
        # 2..5 units along the cut ray and 0.5..1.5 units to its left
        if t in banks:
            return False
        cx, cy = fc.frames[t].apply(*g)
        along = float(dot(cx - bx, cy - by, dx, dy)) / norm
        left = float(cross(dx, dy, cx - bx, cy - by)) / norm
        return 2 < along < 5 and 0.5 < left < 1.5

    t0 = next(t for t in fc.frames if start(t))
    frame = fc.frames[t0]
    u = (dy, -dx)
    third = ctx.frac(1, 3)
    ray = make_ray(surf, ctx, t0, (third,) * 3,
                   frame.inverse().apply_vec(*u))
    path = trace(ray, surf, ctx, arc_budget=3.0,
                 growth_budget=len(surf.tris))
    tail = TailData(frame.apply(*g), u, 0.0, norm)
    first, second = split_tail_at_cut(ctx, tail, fc)
    assert second.kcut != 0
    seen = set()
    for seg in path.segments:
        px, py = fc.frames[seg.tri].apply(*seg.b)
        on = [k for k in (0, second.kcut)
              if cross(u[0], u[1], px + k * fc.delta[0] - tail.base[0],
                       py + k * fc.delta[1] - tail.base[1]) == 0]
        assert len(on) == 1
        k = on[0]
        t = dot(px + k * fc.delta[0] - tail.base[0],
                py + k * fc.delta[1] - tail.base[1], *u) / dot(*u, *u)
        if seg.tri not in banks:
            assert (k == 0) == (t < first.limit)
            seen.add(k)
    assert seen == {0, second.kcut}


def _q3(n):
    return st.builds(lambda a, b: Q3(Fraction(a, 2), Fraction(b, 2)),
                     st.integers(-n, n), st.integers(-n, n))


_points = st.tuples(_q3(8), _q3(8))


def _tail(ctx, base, d, arc0, kcut, limit):
    if not ctx.exact:
        base = tuple(float(c) for c in base)
        d = tuple(float(c) for c in d)
        limit = None if limit is None else float(limit)
    return TailData(base, d, arc0, math.hypot(float(d[0]), float(d[1])),
                    kcut=kcut, limit=limit)


def _clear(x):
    """Exactly zero, or well outside the float tolerance band."""
    return x.sign() == 0 or abs(float(x)) > 1e-6


@settings(max_examples=300, deadline=None)
@given(pa=_points, ua=_points, pb=_points, ub=_points, hol=_points,
       kcuts=st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
       limits=st.tuples(st.none() | st.integers(1, 6),
                        st.none() | st.integers(1, 6)),
       arcs=st.tuples(st.integers(0, 20), st.integers(0, 20)))
def test_tails_meet_agrees_across_modes(pa, ua, pb, ub, hol, kcuts, limits,
                                        arcs):
    den = cross(ua[0], ua[1], ub[0], ub[1])
    assume(abs(float(den)) > 0.05)
    shift = kcuts[0] - kcuts[1]
    qx, qy = pb[0] + shift * hol[0], pb[1] + shift * hol[1]
    wx, wy = qx - pa[0], qy - pa[1]
    t = cross(wx, wy, ub[0], ub[1]) / den
    s = cross(wx, wy, ua[0], ua[1]) / den
    assume(_clear(t) and _clear(s))
    for lim, x in zip(limits, (t, s)):
        assume(lim is None or _clear(x - lim))
    got = {}
    for ctx in (EXACT, FLOAT):
        a = _tail(ctx, pa, ua, float(arcs[0]), kcuts[0],
                  None if limits[0] is None else Q3(limits[0]))
        b = _tail(ctx, pb, ub, float(arcs[1]), kcuts[1],
                  None if limits[1] is None else Q3(limits[1]))
        holonomy = hol if ctx.exact else tuple(float(c) for c in hol)
        got[ctx.mode] = tails_meet(ctx, a, b, holonomy)
    exact, flt = got["exact"], got["float"]
    assert (exact is None) == (flt is None)
    if exact is not None:
        for x, y in zip(exact, flt):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(x))


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
@pytest.mark.parametrize("b_base,b_dir,limits,want", [
    ((5, 0), (1, 0), (None, None), (5.0, 0.0)),
    ((5, 0), (1, 0), (1, None), None),
    ((-5, 0), (1, 0), (None, 2), None),
    ((5, 0), (-1, 0), (None, None), (0.0, 5.0)),
    ((5, 0), (-1, 0), (None, 2), (3.0, 2.0)),
    ((5, 0), (-1, 0), (2, 2), None),
], ids=["same", "same-a-limit", "same-b-limit", "facing", "facing-b-limit",
        "facing-both-limits"])
def test_collinear_tails_meet_inside_both_ranges(ctx, b_base, b_dir, limits,
                                                 want):
    # a runs from the origin along +x; the first meeting along a is the
    # start of the overlap of both pieces' parameter ranges.
    a = _tail(ctx, (Q3(0), Q3(0)), (Q3(1), Q3(0)), 0.0, 0,
              None if limits[0] is None else Q3(limits[0]))
    b = _tail(ctx, tuple(map(Q3, b_base)), tuple(map(Q3, b_dir)), 0.0, 0,
              None if limits[1] is None else Q3(limits[1]))
    got = tails_meet(ctx, a, b, (ctx.zero, ctx.zero))
    assert got == (None if want is None else pytest.approx(want))


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_tail_based_in_a_bank_triangle_starts_on_its_own_side(ctx):
    # Triangle 312 of semi(4)'s far field for P is one the cut passes
    # through, developed from the other bank than the cut's base triangle.
    # A straight line from its centroid across the cut, developed as a
    # tail, must put every point the line reaches outside the triangles
    # the cut passes through on exactly one of its pieces, shifted by that
    # piece's `kcut` holonomy shifts.
    surf, fc, _, _ = far_field(ctx)
    banks = {t for t in fc.frames
             if any(frozenset(surf.edge_vertices(t, e)) in fc.cut_edges
                    for e in range(3))}
    assert 312 in banks
    _, (dx, dy) = fc.cut
    g = (ctx.half, ctx.sqrt3 * ctx.frac(1, 6))  # chart centroid
    u = fc.frames[312].inverse().apply_vec(dy, -dx)
    tail = C.TailInfo(312, g, u, 0.0, 0)
    pieces = split_tail_at_cut(ctx, C._developed_tail(fc, tail), fc)
    assert len(pieces) == 2
    third = ctx.frac(1, 3)
    path = trace(make_ray(surf, ctx, 312, (third,) * 3, u), surf, ctx,
                 arc_budget=3.0, growth_budget=surf.n_triangles())
    outside = [s for s in path.segments if s.tri not in banks]
    assert len(outside) >= 5
    for seg in outside:
        px, py = fc.frames[seg.tri].apply(*seg.b)
        on = []
        for p in pieces:
            qx = px + p.kcut * fc.delta[0] - p.base[0]
            qy = py + p.kcut * fc.delta[1] - p.base[1]
            t = dot(qx, qy, *p.dir) / dot(*p.dir, *p.dir)
            if ctx.is_zero(cross(*p.dir, qx, qy)) and ctx.sign(t) >= 0 \
                    and (p.limit is None or not ctx.lt(p.limit, t)):
                on.append(p.kcut)
        assert len(on) == 1, (seg.tri, on)


def test_overlapping_cut_images_are_refused(monkeypatch):
    # Flipping every seam's shift develops the left bank to the right of
    # the right bank's image of the cut, where a side of the cut line no
    # longer tells the banks apart.
    surf, fc, cut, anchor = far_field(EXACT)
    real = farfield.seams

    def flipped(surf, ctx, frames, tree):
        for t, e, direct, have in real(surf, ctx, frames, tree):
            yield t, e, Isometry(ctx, direct.k, 2 * have.tx - direct.tx,
                                 2 * have.ty - direct.ty), have

    monkeypatch.setattr(farfield, "seams", flipped)
    with pytest.raises(ValueError, match="overlap"):
        FlatComplement(surf, EXACT, fc.ring, anchor, cut)
