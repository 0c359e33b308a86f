"""The chord kernel: `step`, the barycentric snap and the value types.

The walk digests below were recorded with the kernel that decided each
sign twice and ran on frozen dataclasses; the present kernel must step
exactly the same chords, bit for bit, in both number modes.  The exact
kernel on integer triples must also agree with a generic `step` on Q3
operations, kept here, on random entries and directions.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from smfgeo import chart
from smfgeo.builders import (
    build_flat_plane,
    build_semi_paradoxist,
    build_silo,
)
from smfgeo.classify import Budgets, Crossing, _blend
from smfgeo.cli import RunConfig
from smfgeo.engine import (
    ARC_BUDGET,
    EdgeCrossing,
    EngineError,
    FrontierReached,
    GrowthLimit,
    Ray,
    Segment,
    VertexCrossing,
    make_ray,
    step,
    walk,
)
from smfgeo.numbers import DEFAULT_EPS, Q3, Scalars, q3_chord
from smfgeo.surface import (
    GROWTH_BUDGET,
    GenerationRule,
    SurfaceError,
    SurfacePoint,
    Violation,
    snap_bary,
)

FLOAT = Scalars("float")
EXACT = Scalars("exact")
SURFACES = {
    "flat3": lambda: build_flat_plane(3),
    "semi4": lambda: build_semi_paradoxist(4),
    "silo3": lambda: build_silo(3),
}


def random_rays(surf, ctx, n, seed):
    """`n` seeded rays: rational barycentrics (some on edges and at
    vertices) and directions that are either 30-degree multiples or
    small integer vectors."""
    rng = random.Random(seed)
    for _ in range(n):
        tri = rng.randrange(surf.n_triangles() // 3)
        w = [rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(3)]
        if sum(w) == 0:
            w[rng.randrange(3)] = 1
        bary = tuple(Fraction(x, sum(w)) for x in w)
        if rng.random() < 0.5:
            d = ctx.cos_sin_deg(30 * rng.randrange(12))
        else:
            d = (0, 0)
            while d == (0, 0):
                d = (rng.randint(-4, 4), rng.randint(-4, 4))
        try:
            yield make_ray(surf, ctx, tri, bary, d)
        except (EngineError, SurfaceError):
            continue  # a vertex point whose fan is not complete


def _ray_key(ray):
    return (ray.point.tri, ray.point.bary, ray.dir)


def walk_digest(surf, ctx, n=96, seed=7, max_items=160):
    """sha256 over every chord and crossing that `walk` yields for the
    seeded rays: each segment's tri, a, b and exit_b, each hit's kind
    and event fields, and the ray leaving it."""
    h = hashlib.sha256()
    for k, ray in enumerate(random_rays(surf, ctx, n, seed)):
        h.update(repr(("ray", _ray_key(ray))).encode())
        items = walk(ray, surf, ctx, canonical=k % 2 == 0)
        for _, (item, out, _) in zip(range(max_items), items):
            if isinstance(item, Segment):
                rec = ("S", item.tri, item.a, item.b, item.exit_b)
            elif isinstance(item, EdgeCrossing):
                rec = ("E", item.tri, item.edge, item.point.tri,
                       item.point.bary, _ray_key(out))
            elif isinstance(item, VertexCrossing):
                rec = ("V", item.vertex, item.incoming_dir, item.outgoing_dir,
                       item.cone_angle_deg, item.tri_in, item.tri_out,
                       _ray_key(out))
            else:
                assert isinstance(item, GrowthLimit)
                rec = ("G", item.detail)
            h.update(repr(rec).encode())
    return h.hexdigest()


# Recorded with the previous kernel (see the module docstring).
WALK_DIGESTS = {
    ("flat3", "float"):
        "a85678ca655b7ca850308c255024b80c3e34ac80aa3b5c9697ed3f7c3afafdfe",
    ("flat3", "exact"):
        "38afdc4391c9412cfd26d5953fc3acb75813fc6465f4f6103b9d3ce6df29eead",
    ("semi4", "float"):
        "b8639c3dad0ba307242fadc2a1cc9c7df6561556781374102837c92dac52a01a",
    ("semi4", "exact"):
        "d698b49f70a000f1ad36c1c210c17e8397e5846a2fcbb6d87aa1f8e0f21ea23e",
    ("silo3", "float"):
        "6496c5fc2d6b0d7f18d42e189a600e17ab5acb209bf7c4ae3c9b8df69d780f15",
    ("silo3", "exact"):
        "01e52f3d487f18bd6ca8511406929d6d5eb4ed65d0c2261b7e381e2d1f4e8e24",
}


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
@pytest.mark.parametrize("name", sorted(SURFACES))
def test_walk_matches_recorded_digest(name, ctx):
    got = walk_digest(SURFACES[name](), ctx)
    assert got == WALK_DIGESTS[(name, ctx.mode)]


# -- the snap routine ----------------------------------------------------------


def old_normalize(ctx, bary):
    """The snap as it was written before `snap_bary` reported zero slots."""
    b = list(bary)
    for i in range(3):
        if ctx.sign(b[i]) == 0:
            b[i] = ctx.zero
        elif not ctx.exact and -8 * ctx.eps <= b[i] < 0:
            b[i] = ctx.zero
    s = b[0] + b[1] + b[2]
    if ctx.sign(s) == 0:
        raise SurfaceError("degenerate barycentric coordinates")
    if ctx.sign(s - ctx.one) != 0:
        b = [x / s for x in b]
    return tuple(b)


EPS = FLOAT.eps
_near = st.sampled_from([0.0, -0.0, EPS, -EPS, 8 * EPS, -8 * EPS, 9 * EPS,
                         -9 * EPS, 2 * EPS, -2 * EPS])
_coord = st.one_of(
    st.builds(lambda c, f: c * (1 + f), _near, st.floats(-1e-3, 1e-3)),
    st.floats(-12 * EPS, 12 * EPS),
    st.floats(-2.0, 2.0),
)


@settings(max_examples=400, deadline=None)
@given(st.tuples(_coord, _coord, _coord))
def test_snap_zero_slots_equal_a_retest(bary):
    try:
        want = old_normalize(FLOAT, bary)
    except SurfaceError:
        with pytest.raises(SurfaceError):
            snap_bary(FLOAT, bary)
        return
    got, zeros = snap_bary(FLOAT, bary)
    assert [repr(x) for x in got] == [repr(x) for x in want]
    assert zeros == tuple(i for i in range(3) if FLOAT.sign(got[i]) == 0)


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.fractions(-2, 2, max_denominator=12)] * 3))
def test_snap_exact_zero_slots(bary):
    bary = tuple(EXACT.of(x) for x in bary)
    try:
        want = old_normalize(EXACT, bary)
    except SurfaceError:
        with pytest.raises(SurfaceError):
            snap_bary(EXACT, bary)
        return
    got, zeros = snap_bary(EXACT, bary)
    assert got == want
    assert zeros == tuple(i for i in range(3) if got[i].sign() == 0)


def test_scalars_zero_tests_agree_with_sign():
    nan, inf = float("nan"), float("inf")
    for x in (0.0, -0.0, EPS, -EPS, 1.5 * EPS, -1.5 * EPS, 1.0, nan, inf, -inf):
        assert FLOAT.is_zero(x) == (FLOAT.sign(x) == 0)
        assert FLOAT.eq(x, 0.0) == (FLOAT.sign(x - 0.0) == 0)
    for x in (EXACT.zero, EXACT.one, EXACT.sqrt3 - EXACT.one, 0, Fraction(1, 3)):
        assert EXACT.is_zero(x) == (EXACT.sign(x) == 0)
        assert EXACT.eq(x, x) and not EXACT.eq(x, x + EXACT.half)


# -- value types -----------------------------------------------------------------


def test_value_type_equality_and_hash():
    p = SurfacePoint(4, (0.25, 0.75, 0.0))
    q = SurfacePoint(4, (0.25, 0.75, 0.0))
    assert p == q and hash(p) == hash((4, (0.25, 0.75, 0.0)))
    s1 = Segment(4, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0, 0.0))
    s2 = Segment(4, (0.0, 0.0), (1.0, 0.0), None)
    assert s1 == s2 and hash(s1) == hash((4, (0.0, 0.0), (1.0, 0.0)))
    assert s1.length() == 1.0
    e1 = EdgeCrossing(4, 2, p, gluing="one")
    e2 = EdgeCrossing(4, 2, q, gluing="other")
    assert e1 == e2 and hash(e1) == hash((4, 2, p))
    r = Ray(p, (1.0, 0.0))
    assert r == Ray(q, (1.0, 0.0)) and hash(r) == hash((p, (1.0, 0.0)))
    assert r != Ray(p, (0.0, 1.0))
    turn = (9, (1.0, 0.0), (0.5, 0.5), 420, 4, 5)
    v1 = VertexCrossing(*turn, gluing="one")
    v2 = VertexCrossing(*turn, gluing="other")
    assert v1 == v2 and hash(v1) == hash(v2) == hash(turn)
    assert v1 != VertexCrossing(*turn[:-1], 6)
    c = Crossing(p, 2.5, (3,), "far")
    assert c == Crossing(q, 2.5, (3,), "far") and hash(c) == hash((p, 2.5, (3,), "far"))
    assert c != Crossing(p, 2.5) and Crossing(None, 1.0).via_vertices == ()
    bad = Violation("BadDegree", (7,), "interior vertex degree 4")
    assert bad == Violation("BadDegree", (7,), "interior vertex degree 4")
    assert hash(bad) == hash(("BadDegree", (7,), "interior vertex degree 4"))
    assert bad != Violation("BadDegree", (7,))
    rule = GenerationRule("silo", (5, 5, 6, 7))
    assert rule == GenerationRule("silo", (5, 5, 6, 7), ())
    assert hash(rule) == hash(("silo", (5, 5, 6, 7), ()))
    assert rule != GenerationRule("silo", (5, 5, 6, 7), ((0, 5),))
    b = Budgets()
    assert b == Budgets(ARC_BUDGET, GROWTH_BUDGET, 48)
    assert hash(b) == hash((ARC_BUDGET, GROWTH_BUDGET, 48))
    assert b != b.doubled()
    for obj, fields in ((p, (4, (0.25, 0.75, 0.0))),
                        (s1, (4, (0.0, 0.0), (1.0, 0.0))),
                        (e1, (4, 2, p)), (r, (p, (1.0, 0.0))), (v1, turn),
                        (c, (p, 2.5, (3,), "far")),
                        (bad, ("BadDegree", (7,), "interior vertex degree 4")),
                        (rule, ("silo", (5, 5, 6, 7), ())),
                        (b, (ARC_BUDGET, GROWTH_BUDGET, 48))):
        assert obj != fields and fields != obj
        assert not hasattr(obj, "__dict__")
    # The run configuration is a namedtuple: its hash is its field tuple's,
    # and, as a tuple, it also equals that tuple, so nothing compares it
    # with anything but another RunConfig.
    cfg = RunConfig()
    want = ("float", DEFAULT_EPS, ARC_BUDGET, GROWTH_BUDGET, 1)
    assert cfg == RunConfig(**cfg._asdict()) and hash(cfg) == hash(want)
    assert cfg != RunConfig(number_mode="exact") and tuple(cfg) == want
    assert RunConfig._fields == ("number_mode", "epsilon", "arc_budget",
                                 "growth_budget", "threads")


# -- exact and float traces agree --------------------------------------------------


MARGIN = 1e-6


def _events(surf, ctx, tri, bary, k, max_items):
    """The walk's crossings from a ray, and the smallest nonzero
    barycentric any chord exit has."""
    ray = make_ray(surf, ctx, tri, bary, ctx.cos_sin_deg(30 * k))
    out = []
    closest = 1.0
    for _, (item, _, _) in zip(range(max_items), walk(ray, surf, ctx)):
        if isinstance(item, Segment):
            for x in item.exit_b:
                if x != 0:
                    closest = min(closest, abs(float(x)))
        elif isinstance(item, EdgeCrossing):
            out.append(("E", item.tri, item.edge))
        elif isinstance(item, VertexCrossing):
            out.append(("V", item.vertex, item.tri_out))
        else:
            out.append(("G", item.detail))
    return out, closest


_SURF = {name: SURFACES[name]() for name in ("semi4", "silo3")}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_SURF)), data=st.data())
def test_exact_and_float_walks_cross_the_same_edges(name, data):
    surf = _SURF[name]
    tri = data.draw(st.integers(0, surf.n_triangles() // 3))
    w = data.draw(st.tuples(*[st.integers(0, 7)] * 3).filter(any))
    bary = tuple(Fraction(x, sum(w)) for x in w)
    k = data.draw(st.integers(0, 11))
    try:
        exact, closest = _events(surf, EXACT, tri, bary, k, 120)
    except (EngineError, SurfaceError):
        return  # a start vertex whose fan is not complete
    # Away from the tolerance band: no exact chord ends within MARGIN
    # of a vertex or an edge it does not lie on.
    if closest <= MARGIN:
        return
    fl, _ = _events(surf, FLOAT, tri, bary, k, 120)
    assert fl == exact


# -- the exact kernel against a generic Q3 step ------------------------------------


def generic_chord(b, d):
    """Exit barycentrics and zero slots of the chord from `b` along `d`,
    found as float mode finds them, with Q3 operations that each reduce
    their result; None when no coordinate runs down towards zero."""
    ctx = EXACT
    db = chart.bary_velocity(ctx, *d)
    t_exit = None
    for i in range(3):
        if db[i].sign() < 0 and b[i].sign() >= 0:
            cand = -b[i] / db[i]
            if t_exit is None or cand < t_exit:
                t_exit = cand
    if t_exit is None:
        return None
    return snap_bary(ctx, tuple(b[i] + db[i] * t_exit for i in range(3)))


def _generic_xy(b):
    return (b[1] + b[2] * EXACT.half, b[2] * EXACT.half_sqrt3)


def generic_step(ray, surf):
    """`step` in exact mode, on `generic_chord`."""
    t, b = ray.point.tri, ray.point.bary
    chord = generic_chord(b, ray.dir)
    if chord is None:
        raise EngineError(f"ray does not advance inside triangle {t}")
    exit_b, zeros = chord
    seg = Segment(t, _generic_xy(b), _generic_xy(exit_b), exit_b)
    if len(zeros) >= 2:
        slot = next(i for i in range(3) if i not in zeros)
        return seg, ("vertex", surf.triangle(t)[slot])
    e = (zeros[0] + 1) % 3
    if surf.neighbor(t, e) is None:
        raise FrontierReached(t, e)
    return seg, ("edge", e)


def _outcome(fn, *args):
    """(value, None) or (None, type of the engine or surface error)."""
    try:
        return fn(*args), None
    except (EngineError, SurfaceError) as exc:
        return None, type(exc)


def _triples(values):
    return [(q._a, q._b, q._d) for q in values]


def _canonical(q):
    return type(q) is Q3 and q._d > 0 and math.gcd(q._a, q._b, q._d) == 1


def check_step_matches_generic(ray, surf):
    """Run both steps on `ray`; return the hit (None when both raised)."""
    got, got_err = _outcome(step, ray, surf, EXACT)
    want, want_err = _outcome(generic_step, ray, surf)
    assert got_err is want_err
    chord = q3_chord(ray.point.bary, ray.dir)
    want_chord, chord_err = _outcome(generic_chord, ray.point.bary, ray.dir)
    assert (chord is None) == (want_chord is None and chord_err is None)
    if chord is not None:
        exit_b, zeros = chord
        assert all(_canonical(q) for q in exit_b)
        if zeros is None:  # the snap fallback
            assert sum(ray.point.bary) != 1
            snapped, snap_err = _outcome(snap_bary, EXACT, exit_b)
            assert snap_err is chord_err
            exit_b, zeros = snapped or (None, None)
        else:
            assert sum(ray.point.bary) == 1 and chord_err is None
        if chord_err is None:
            assert _triples(exit_b) == _triples(want_chord[0])
            assert zeros == want_chord[1]
    if want_err is not None:
        return None
    (seg, hit), (want_seg, want_hit) = got, want
    assert hit == want_hit
    assert seg.tri == want_seg.tri
    for q, w in ((seg.a, want_seg.a), (seg.b, want_seg.b),
                 (seg.exit_b, want_seg.exit_b)):
        assert all(_canonical(x) for x in q)
        assert _triples(q) == _triples(w)
    return hit


_q3 = st.builds(lambda a, b, d: Q3(Fraction(a, d), Fraction(b, d)),
                st.integers(-6, 6), st.integers(-3, 3), st.integers(1, 12))
_weight = st.one_of(
    st.just(Q3(0)),
    st.builds(lambda a, b, d: Q3(Fraction(a, d), Fraction(b, d)),
              st.integers(0, 6), st.integers(0, 3), st.integers(1, 9)),
    _q3,
)


@st.composite
def exact_entries(draw):
    """Barycentrics: interior, edge and vertex points (zero weights),
    some with a negative weight, normalized to sum 1 or, now and then,
    left with another sum."""
    w = draw(st.tuples(_weight, _weight, _weight))
    s = w[0] + w[1] + w[2]
    if s.sign() == 0 or draw(st.integers(0, 5)) == 0:
        return w
    return tuple(x / s for x in w)


@st.composite
def exact_directions(draw, b):
    """Unnormalized Q3 directions: random vectors, vectors at a corner of
    the chart (ties), unit 30-degree multiples and blends of two."""
    def one():
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return draw(st.tuples(_q3, _q3))
        if kind == 1:
            cx, cy = chart.corners(EXACT)[draw(st.integers(0, 2))]
            x, y = _generic_xy(b)
            return (cx - x, cy - y)
        return EXACT.cos_sin_deg(30 * draw(st.integers(0, 11)))
    u = one()
    if draw(st.booleans()):
        return u
    num, den = draw(st.sampled_from([(1, 2), (1, 1024), (1023, 1024), (1, 3)]))
    return _blend(EXACT, u, one(), num, den)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(_SURF)), data=st.data())
def test_exact_kernel_matches_generic_step(name, data):
    surf = _SURF[name]
    tri = data.draw(st.integers(0, surf.n_triangles() - 1))
    b = data.draw(exact_entries())
    d = data.draw(exact_directions(b))
    check_step_matches_generic(Ray(SurfacePoint(tri, b), d), surf)


def _ray(b, d, tri=0):
    return Ray(SurfacePoint(tri, tuple(EXACT.of(x) for x in b)),
               tuple(EXACT.of(x) for x in d))


H = Fraction(1, 2)


@pytest.mark.parametrize("b, d, kind, zero_length", [
    # From the centroid straight at vertex 1: two exit times tie.
    ((Fraction(1, 3),) * 3, (H, -Q3(0, Fraction(1, 6))), "vertex", False),
    # From the midpoint of edge 0 straight at vertex 2: a tie again.
    ((H, H, 0), (0, 1), "vertex", False),
    # From edge 1 (b0 = 0) away from vertex 0: a zero-length chord.
    ((0, H, H), (1, 0), "edge", True),
    # From vertex 0 out of the triangle: a zero-length chord to a vertex.
    ((1, 0, 0), (-1, 0), "vertex", True),
    # An entry summing to 2 goes through the snap.
    ((Fraction(2, 3),) * 3, (1, 0), "edge", False),
    # Nothing runs down: no exit.
    ((0, 0, 1), (0, 0), None, None),
])
def test_exact_kernel_ties_and_zero_length_chords(b, d, kind, zero_length):
    surf = _SURF["semi4"]
    ray = _ray(b, d)
    hit = check_step_matches_generic(ray, surf)
    assert (hit and hit[0]) == kind
    if kind is not None:
        seg, _ = step(ray, surf, EXACT)
        assert (seg.a == seg.b) == zero_length
