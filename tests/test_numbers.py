import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from smfgeo import chart, numbers
from smfgeo.numbers import Q3, Scalars, q3_sqrt

rationals = st.fractions(max_denominator=50)
q3s = st.builds(Q3, rationals, rationals)


class TestQ3:
    def test_basic_arithmetic(self):
        a = Q3(1, 1)           # 1 + sqrt3
        b = Q3(Fraction(1, 2), -1)
        assert float(a) == pytest.approx(1 + math.sqrt(3))
        assert float(a + b) == pytest.approx(float(a) + float(b))
        assert float(a * b) == pytest.approx(float(a) * float(b))
        assert (a - a).sign() == 0

    def test_division_inverts_multiplication(self):
        a = Q3(2, Fraction(1, 3))
        b = Q3(-1, Fraction(5, 7))
        assert (a * b) / b == a

    def test_sign_mixed_cases(self):
        assert Q3(-1, 1).sign() == 1      # sqrt3 > 1
        assert Q3(2, -1).sign() == 1      # 2 > sqrt3
        assert Q3(1, -1).sign() == -1
        assert Q3(-2, 1).sign() == -1
        assert Q3(0, 0).sign() == 0

    @given(a=q3s, b=q3s)
    def test_sign_agrees_with_float(self, a, b):
        d = a - b
        f = float(d)
        if abs(f) > 1e-6:
            assert d.sign() == (1 if f > 0 else -1)

    @given(a=q3s, b=q3s, c=q3s)
    def test_field_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        if c.sign() != 0:
            assert (a * c) / c == a

    def test_rotation_closure(self):
        ctx = Scalars("exact")
        x, y = Q3(1), Q3(0)
        for k in range(12):
            c, s = ctx.cos_sin_deg(30 * k)
            assert (c * c + s * s) == Q3(1)

    def test_sqrt(self):
        assert q3_sqrt(Q3(4)) == Q3(2)
        assert q3_sqrt(Q3(3)) == Q3(0, 1)
        assert q3_sqrt(Q3(0, 2)) is None or float(q3_sqrt(Q3(0, 2))) ** 2 == pytest.approx(2 * math.sqrt(3))
        # (1 + sqrt3)^2 = 4 + 2 sqrt3
        r = q3_sqrt(Q3(4, 2))
        assert r == Q3(1, 1)
        assert q3_sqrt(Q3(-1)) is None

    @given(a=q3s)
    def test_sqrt_of_square(self, a):
        r = q3_sqrt(a * a)
        assert r is not None
        assert r == abs(a)


class TestScalars:
    @pytest.mark.parametrize("eps", [0.0, -1e-9, math.nan, math.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="finite positive"):
            Scalars("float", eps=eps)

    def test_float_mode_tolerance(self):
        ctx = Scalars("float", eps=1e-9)
        assert ctx.sign(5e-10) == 0
        assert ctx.sign(2e-9) == 1
        assert ctx.eq(1.0, 1.0 + 1e-10)

    def test_exact_mode_is_exact(self):
        ctx = Scalars("exact")
        tiny = Q3(Fraction(1, 10**30))
        assert ctx.sign(tiny) == 1

    def test_direction_table(self):
        fctx = Scalars("float")
        for deg in (0, 30, 60, 90, 150, 210):
            c, s = fctx.direction(deg)
            assert c == pytest.approx(math.cos(math.radians(deg)))
            assert s == pytest.approx(math.sin(math.radians(deg)))
        ectx = Scalars("exact")
        c, s = ectx.direction(150)
        assert float(c) == pytest.approx(-math.sqrt(3) / 2)
        assert float(s) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            ectx.direction(45)

    def test_try_unit(self):
        ectx = Scalars("exact")
        ux, uy, ok = ectx.try_unit(Q3(3), Q3(4))
        assert ok and ux == Q3(Fraction(3, 5)) and uy == Q3(Fraction(4, 5))
        # components (1, sqrt3): norm 2, exactly representable
        ux, uy, ok = ectx.try_unit(Q3(1), Q3(0, 1))
        assert ok and ux == Q3(Fraction(1, 2))
        # norm sqrt(1 + 3*4) = sqrt(13): not in the field
        ux, uy, ok = ectx.try_unit(Q3(1), Q3(0, 2))
        assert not ok


# -- the integer kernel against a reference model --------------------------
#
# The reference keeps a + b*sqrt(3) as a pair of Fractions and does the
# field operations on the pair directly.

small_ints = st.integers(-10**6, 10**6)
nonzero_q3s = q3s.filter(lambda q: q.sign() != 0)


def ref(q):
    return (q.a, q.b)


def ref_mul(x, y):
    (a1, b1), (a2, b2) = x, y
    return (a1 * a2 + 3 * b1 * b2, a1 * b2 + b1 * a2)


def ref_sign(x):
    a, b = x
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    d = a * a - 3 * b * b
    return (1 if d > 0 else -1) if a > 0 else (-1 if d > 0 else 1)


def assert_canonical(q):
    assert type(q._a) is int and type(q._b) is int and type(q._d) is int
    assert q._d > 0
    assert math.gcd(q._a, q._b, q._d) == 1


class TestQ3Kernel:
    @given(a=rationals, b=rationals)
    def test_constructor_round_trip(self, a, b):
        q = Q3(a, b)
        assert_canonical(q)
        assert ref(q) == (a, b)
        assert isinstance(q.a, Fraction) and isinstance(q.b, Fraction)

    @given(a=small_ints, b=small_ints)
    def test_int_constructor(self, a, b):
        q = Q3(a, b)
        assert_canonical(q)
        assert ref(q) == (a, b)

    @given(x=q3s, y=q3s)
    def test_ring_operations(self, x, y):
        rx, ry = ref(x), ref(y)
        for got, want in ((x + y, (rx[0] + ry[0], rx[1] + ry[1])),
                          (x - y, (rx[0] - ry[0], rx[1] - ry[1])),
                          (x * y, ref_mul(rx, ry)),
                          (-x, (-rx[0], -rx[1]))):
            assert_canonical(got)
            assert ref(got) == want

    @given(x=q3s, y=nonzero_q3s)
    def test_division(self, x, y):
        (a1, b1), (a2, b2) = ref(x), ref(y)
        n = a2 * a2 - 3 * b2 * b2
        q = x / y
        assert_canonical(q)
        assert ref(q) == ((a1 * a2 - 3 * b1 * b2) / n, (b1 * a2 - a1 * b2) / n)

    @given(x=q3s)
    def test_division_by_zero(self, x):
        with pytest.raises(ZeroDivisionError):
            x / Q3(0)

    @given(x=q3s, n=st.integers(0, 6))
    def test_pow(self, x, n):
        want = (Fraction(1), Fraction(0))
        for _ in range(n):
            want = ref_mul(want, ref(x))
        got = x ** n
        assert_canonical(got)
        assert ref(got) == want

    @given(x=q3s, y=q3s)
    def test_sign_and_comparisons(self, x, y):
        assert x.sign() == ref_sign(ref(x))
        s = ref_sign((x.a - y.a, x.b - y.b))
        assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
        assert (x == y) == (s == 0) and (x != y) == (s != 0)

    @given(r=rationals, n=small_ints, b=rationals.filter(lambda b: b != 0))
    def test_mixed_operands(self, r, n, b):
        assert Q3(r) == r and r == Q3(r) and Q3(n) == n
        assert Q3(r, b) != r and Q3(n, b) != n
        assert ref(Q3(r) + n) == (r + n, 0) and ref(n - Q3(0, b)) == (n, -b)
        assert ref(r * Q3(0, b)) == (0, r * b)
        assert (Q3(r) < n) == (r < n) and (n <= Q3(r)) == (n <= r)

    @given(r=rationals, n=small_ints, x=q3s, y=q3s)
    def test_hash_contract(self, r, n, x, y):
        assert hash(Q3(r)) == hash(r)
        assert hash(Q3(n)) == hash(n)
        if x == y:
            assert hash(x) == hash(y)
        assert hash(Q3(x.a, x.b)) == hash(x)

    @given(x=q3s)
    def test_float_bit_identical(self, x):
        assert float(x) == float(x.a) + float(x.b) * math.sqrt(3.0)

    @given(x=q3s)
    def test_sqrt_results(self, x):
        r = q3_sqrt(x)
        if r is not None:
            assert r.sign() >= 0 and r * r == x
        assert q3_sqrt(x * x) == abs(x)
        assert q3_sqrt(3 * x * x) == abs(x) * Q3(0, 1)

    def test_sqrt_pinned(self):
        assert q3_sqrt(Q3(Fraction(9, 4))) == Q3(Fraction(3, 2))
        assert q3_sqrt(Q3(Fraction(4, 3))) == Q3(0, Fraction(2, 3))
        assert q3_sqrt(Q3(7, 4)) == Q3(2, 1)       # (2 + sqrt3)^2
        assert q3_sqrt(Q3(2)) is None
        assert q3_sqrt(Q3(1, 1)) is None
        assert q3_sqrt(Q3(0)) == Q3(0)

    def test_repr_unchanged(self):
        assert repr(Q3(Fraction(1, 2), -3)) == "Q3(1/2, -3)"
        assert repr(Q3(0, Fraction(-2, 6))) == "Q3(0, -1/3)"


class TestKernelTables:
    @settings(deadline=None)
    @given(x=q3s, y=q3s)
    def test_exact_rotate_matches_generic(self, x, y):
        ctx = Scalars("exact")
        for k in range(-12, 24):
            c, s = numbers._COS30[k % 12], numbers._SIN30[k % 12]
            got = chart.rotate(ctx, k, x, y)
            assert got == (c * x - s * y, s * x + c * y)
            for q in got:
                assert_canonical(q)

    def test_exact_rotate_coerces_rationals(self):
        ctx = Scalars("exact")
        for k in range(12):
            got = chart.rotate(ctx, k, 1, Fraction(1, 2))
            assert all(type(q) is Q3 for q in got)
            assert got == chart.rotate(ctx, k, Q3(1), Q3(Fraction(1, 2)))

    def test_float_cos_sin_table(self):
        ctx = Scalars("float")
        for k in range(-12, 24):
            want = (float(numbers._COS30[k % 12]), float(numbers._SIN30[k % 12]))
            assert ctx.cos_sin_deg(30 * k) == want

    @given(x=st.floats(-1e6, 1e6), y=st.floats(-1e6, 1e6))
    def test_float_rotate_matches_generic(self, x, y):
        ctx = Scalars("float")
        for k in range(-12, 24):
            c, s = float(numbers._COS30[k % 12]), float(numbers._SIN30[k % 12])
            got = chart.rotate(ctx, k, x, y)
            want = (c * x - s * y, s * x + c * y)
            # Bit-equal, signed zeros included.
            assert [math.copysign(1.0, v) for v in got] == \
                [math.copysign(1.0, v) for v in want]
            assert got == want


# Rationals whose hash is -1 before Python maps it to -2 (a numerator of
# -(d + modulus) over d), and whose denominator has no inverse modulo it.
_MODULUS = sys.hash_info.modulus
HASH_EDGES = [Fraction(-(d + _MODULUS), d) for d in (2, 3, 7)] + \
    [Fraction(1, _MODULUS), Fraction(-3, 2 * _MODULUS), Fraction(-1, 2)]


class TestQ3Hash:
    @given(f=st.fractions() | st.sampled_from(HASH_EDGES)
           | st.builds(Fraction, st.integers(), st.integers(1, 2 ** 70)))
    def test_rational_hash_is_fractions(self, f):
        assert hash(Q3(f)) == hash(f)
        assert hash(Q3(f, 0)) == hash(f)

    def test_hash_edges(self):
        assert [hash(Q3(f)) for f in HASH_EDGES] == \
            [hash(f) for f in HASH_EDGES]
        assert hash(HASH_EDGES[0]) == -2
        assert hash(Q3(HASH_EDGES[3])) == sys.hash_info.inf


# -- integer isometries -------------------------------------------------------

EXACT = Scalars("exact")
FLOAT = Scalars("float")


def generic_apply(k, t, p):
    """The motion's formula on generic Q3 arithmetic."""
    c, s = numbers._COS30[k % 12], numbers._SIN30[k % 12]
    x, y = p
    return (c * x - s * y + t[0], s * x + c * y + t[1])


def assert_canonical_iso(m):
    assert type(m) is chart.ExactIsometry and 0 <= m.k < 12
    assert all(type(v) is int for v in (m.xa, m.xb, m.ya, m.yb, m.d))
    assert m.d > 0 and math.gcd(m.xa, m.xb, m.ya, m.yb, m.d) == 1
    for q in (m.tx, m.ty):
        assert_canonical(q)


ks = st.integers(-24, 24)


class TestExactIsometry:
    @settings(deadline=None)
    @given(k=ks, tx=q3s, ty=q3s, j=ks, ux=q3s, uy=q3s, px=q3s, py=q3s)
    def test_integer_motion_matches_generic(self, k, tx, ty, j, ux, uy,
                                            px, py):
        a = chart.Isometry(EXACT, k, tx, ty)
        b = chart.Isometry(EXACT, j, ux, uy)
        assert_canonical_iso(a)
        assert (a.k, a.tx, a.ty) == (k % 12, tx, ty)
        got = a.apply(px, py)
        assert got == generic_apply(k, (tx, ty), (px, py))
        for q in got + a.apply_vec(px, py):
            assert_canonical(q)
        ab = a.compose(b)
        assert_canonical_iso(ab)
        assert (ab.k, (ab.tx, ab.ty)) == \
            ((k + j) % 12, generic_apply(k, (tx, ty), (ux, uy)))
        inv = a.inverse()
        assert_canonical_iso(inv)
        assert (inv.k, (inv.tx, inv.ty)) == \
            (-k % 12, generic_apply(-k, (0, 0), (-tx, -ty)))
        assert inv is a.inverse()
        one = a.compose(inv)
        assert (one.k, one.xa, one.xb, one.ya, one.yb, one.d) == \
            (0, 0, 0, 0, 0, 1)

    @settings(deadline=None)
    @given(k=ks, tx=q3s, ty=q3s, j=ks, px=q3s, py=q3s, ox=q3s, oy=q3s)
    def test_offset_is_one_reduction_of_the_generic_steps(self, k, tx, ty,
                                                          j, px, py, ox, oy):
        a = chart.Isometry(EXACT, k, tx, ty)
        x, y = generic_apply(k, (tx, ty), (px, py))
        got = a.offset((px, py), (ox, oy), j)
        if x == ox and y == oy:
            assert got is None
            return
        assert got == chart.rotate(EXACT, j, x - ox, y - oy)
        for q in got:
            assert_canonical(q)
        assert a.offset((px, py), a.apply(px, py), j) is None


def test_float_gluing_inverses_are_kept_and_bit_identical():
    # Each of the nine shared gluings keeps the inverse it made with the
    # formula of a fresh one, bit for bit (signed zeros included).
    ctx = Scalars("float")
    for e in range(3):
        for e2 in range(3):
            g = chart.gluing(ctx, e, e2)
            inv = g.inverse()
            assert inv is g.inverse() is chart.gluing(ctx, e, e2).inverse()
            fx, fy = chart.rotate(ctx, -g.k, -g.tx, -g.ty)
            fresh = (-g.k % 12, fx, fy)
            got = (inv.k, inv.tx, inv.ty)
            assert got == fresh
            assert [math.copysign(1.0, v) for v in got[1:]] == \
                [math.copysign(1.0, v) for v in fresh[1:]]
            assert type(inv) is chart.Isometry


def test_isometry_representation_follows_the_mode():
    assert type(chart.Isometry.identity(FLOAT)) is chart.Isometry
    assert type(chart.Isometry.identity(EXACT)) is chart.ExactIsometry
    m = chart.Isometry(FLOAT, 13, 0.5, -1.0)
    assert (m.k, m.tx, m.ty) == (1, 0.5, -1.0)
