"""Scalar kernel shared by every geometric routine.

Two number modes, fixed per run:

* float mode: ordinary doubles, all equality decisions made against a
  configurable tolerance ``eps`` (edge-length units).
* exact mode: elements of Q(sqrt 3), kept as three integers
  (a + b*sqrt 3) / d in lowest terms.  This field is closed under the
  chart transfer isometries and under rotation by any multiple of 30
  degrees, so the whole engine can run exactly.

Every Q3 operation ends in a gcd reduction; the hot kernels work on the
integers and reduce each value they return once.  They are `q3_chord`
(the integer kernel of `engine.step`), `q3_rotate`, and the exact frames
of `chart.ExactIsometry`, which keep a translation as integers over one
denominator and compose, invert and develop corners on those.  One
integer rotation, `turn30`, serves `q3_rotate` and the frames.
`q3_chord` leaves the exit of an entry that does not sum to exactly 1 for
`surface.snap_bary` to snap.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import gcd

SQRT3 = math.sqrt(3.0)
_HASH_MODULUS = sys.hash_info.modulus


class Q3:
    """Exact scalar (a + b*sqrt(3)) / d with integers a, b, d.

    The form is canonical: d > 0 and gcd(a, b, d) == 1, so two values are
    equal exactly when their triples are.  The constructor takes ints and
    Fractions, Q3(a, b) = a + b*sqrt(3); ``.a`` and ``.b`` read the
    rational parts back as Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a=0, b=0):
        if type(a) is int and type(b) is int:
            self._a, self._b, self._d = a, b, 1
            return
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        da, db = a.denominator, b.denominator
        d = math.lcm(da, db)
        # Both parts are in lowest terms, so over their lcm the triple is too.
        self._a = a.numerator * (d // da)
        self._b = b.numerator * (d // db)
        self._d = d

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __repr__(self):
        return f"Q3({self.a}, {self.b})"

    def __add__(self, other):
        if type(other) is not Q3:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _q3(self._a + other._a, self._b + other._b, d1)
        return _q3(self._a * d2 + other._a * d1,
                   self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Q3:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _q3(self._a - other._a, self._b - other._b, d1)
        return _q3(self._a * d2 - other._a * d1,
                   self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        if type(other) is not Q3:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _q3(a1 * a2 + 3 * b1 * b2, a1 * b2 + b1 * a2,
                   self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Q3:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        # Multiply through by the conjugate a2 - b2 sqrt3.
        n = a2 * a2 - 3 * b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 3)")
        d2 = other._d
        a = (a1 * a2 - 3 * b1 * b2) * d2
        b = (b1 * a2 - a1 * b2) * d2
        d = self._d * n
        if d < 0:
            a, b, d = -a, -b, -d
        return _q3(a, b, d)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Q3(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def sign(self) -> int:
        """Exact sign of (a + b*sqrt(3)) / d."""
        return _sign(self._a, self._b)

    def _cmp(self, other):
        """Sign of self - other, or None when other is not a field element."""
        if type(other) is not Q3:
            other = _coerce(other)
            if other is None:
                return None
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _sign(self._a - other._a, self._b - other._b)
        return _sign(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1)

    def __eq__(self, other):
        if type(other) is not Q3:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        # A rational value hashes like the int or Fraction it equals; an
        # irrational one equals neither, so its triple is enough.
        if self._b == 0:
            a, d = self._a, self._d
            if d == 1:
                return hash(a)
            # Fraction's hash of a / d, made without the Fraction.
            try:
                h = hash(hash(abs(a)) * pow(d, -1, _HASH_MODULUS))
            except ValueError:  # d is a multiple of the (prime) modulus
                h = sys.hash_info.inf
            h = h if a >= 0 else -h
            return -2 if h == -1 else h
        return hash((self._a, self._b, self._d))

    def __float__(self):
        # int / int is correctly rounded, as float(Fraction) is.
        d = self._d
        return self._a / d + (self._b / d) * SQRT3


_new = object.__new__


def _raw(a, b, d):
    """Q3 from a triple already in canonical form."""
    q = _new(Q3)
    q._a = a
    q._b = b
    q._d = d
    return q


def _q3(a, b, d):
    """Q3 from integers with d > 0, reduced to canonical form."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    q = _new(Q3)
    q._a = a
    q._b = b
    q._d = d
    return q


def _sign(a, b):
    """Exact sign of a + b*sqrt(3) for integers a, b."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a >= 0 and b > 0:
        return 1
    if a <= 0 and b < 0:
        return -1
    # Mixed signs: compare a^2 with 3 b^2 (never equal, sqrt 3 is irrational).
    n = a * a - 3 * b * b
    return 1 if (n > 0) == (a > 0) else -1


def _coerce(x):
    if isinstance(x, Q3):
        return x
    if isinstance(x, int):
        return _raw(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _raw(x.numerator, 0, x.denominator)
    return None


def _frac_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def q3_sqrt(x: Q3):
    """Exact square root of x in Q(sqrt 3), or None when not representable.

    Solves (u + v sqrt 3)^2 = a + b sqrt 3, i.e. u^2 + 3 v^2 = a, 2uv = b.
    """
    if x.sign() < 0:
        return None
    a, b = x.a, x.b
    if b == 0:
        u = _frac_sqrt(a)
        if u is not None:
            return Q3(u, 0)
        v = _frac_sqrt(a / 3)
        if v is not None:
            return Q3(0, v)
        return None
    disc = _frac_sqrt(a * a - 3 * b * b)
    if disc is None:
        return None
    for u2 in ((a + disc) / 2, (a - disc) / 2):
        u = _frac_sqrt(u2)
        if u is not None and u != 0:
            v = b / (2 * u)
            if u * u + 3 * v * v == a:
                r = Q3(u, v)
                return r if r.sign() >= 0 else -r
    return None


# The float-mode tolerance of a run that names none (edge lengths).
DEFAULT_EPS = 1e-9
# An angle within this many degrees of a whole number is that number.
WHOLE_DEGREE_SLACK = 1e-12

# cos/sin of 30 k degrees, exact, index k mod 12.
_HALF = Fraction(1, 2)
_COS30 = [
    Q3(1), Q3(0, _HALF), Q3(_HALF), Q3(0), Q3(-_HALF), Q3(0, -_HALF),
    Q3(-1), Q3(0, -_HALF), Q3(-_HALF), Q3(0), Q3(_HALF), Q3(0, _HALF),
]
_SIN30 = [
    Q3(0), Q3(_HALF), Q3(0, _HALF), Q3(1), Q3(0, _HALF), Q3(_HALF),
    Q3(0), Q3(-_HALF), Q3(0, -_HALF), Q3(-1), Q3(0, -_HALF), Q3(-_HALF),
]
# The same table as floats, for float-mode rotations.
COS_SIN30_FLOAT = [(float(c), float(s)) for c, s in zip(_COS30, _SIN30)]


def turn30(k30: int, xa, xb, ya, yb):
    """Rotate ((xa + xb sqrt3)/d, (ya + yb sqrt3)/d) by k30 * 30 degrees
    counterclockwise, on the integers: returns (xa, xb, ya, yb, h), the
    rotated vector over h * d, with h 2 when k30 is not a multiple of 3
    and 1 when it is.

    The 30 or 60 degrees below a quarter turn halve the vector and
    multiply one part by sqrt 3, which on the integers is the swap
    (a, b) -> (3b, a); quarter turns only swap and negate.
    """
    q, r = divmod(k30 % 12, 3)
    h = 1
    if r == 1:    # (sqrt3 x - y, x + sqrt3 y) / 2
        xa, xb, ya, yb, h = 3 * xb - ya, xa - yb, xa + 3 * yb, xb + ya, 2
    elif r == 2:  # (x - sqrt3 y, sqrt3 x + y) / 2
        xa, xb, ya, yb, h = xa - 3 * yb, xb - ya, 3 * xb + ya, xa + yb, 2
    if q == 1:
        return -ya, -yb, xa, xb, h
    if q == 2:
        return -xa, -xb, -ya, -yb, h
    if q == 3:
        return ya, yb, -xa, -xb, h
    return xa, xb, ya, yb, h


def q3_ints(x, y):
    """(xa, xb, ya, yb, d): the exact pair (x, y) as integers over one
    denominator d > 0, x = (xa + xb sqrt3)/d and y = (ya + yb sqrt3)/d.
    The denominator is the product of the two when they differ."""
    if type(x) is not Q3:
        x = _coerce(x)
    if type(y) is not Q3:
        y = _coerce(y)
    xd, yd = x._d, y._d
    if xd == yd:
        return x._a, x._b, y._a, y._b, xd
    return x._a * yd, x._b * yd, y._a * xd, y._b * xd, xd * yd


def q3_rotate(k30: int, x, y):
    """Rotate the exact vector (x, y) by k30 * 30 degrees counterclockwise
    (`turn30`), reducing each value once; a quarter turn of a pair over
    one denominator needs no reduction."""
    if type(x) is not Q3:
        x = _coerce(x)
    if type(y) is not Q3:
        y = _coerce(y)
    xa, xb, ya, yb, d = q3_ints(x, y)
    xa, xb, ya, yb, h = turn30(k30, xa, xb, ya, yb)
    if h == 1 and x._d == y._d:
        return _raw(xa, xb, d), _raw(ya, yb, d)
    return _q3(xa, xb, h * d), _q3(ya, yb, h * d)


def q3_xy_of_bary(b):
    """Chart point (b1 + b2 / 2, b2 sqrt3 / 2) of exact barycentrics."""
    _, u, w = b
    if type(u) is not Q3 or type(w) is not Q3:
        u, w = _coerce(u), _coerce(w)
    a1, b1, d1, a2, b2, d2 = u._a, u._b, u._d, w._a, w._b, w._d
    return (_q3(2 * a1 * d2 + a2 * d1, 2 * b1 * d2 + b2 * d1, 2 * d1 * d2),
            _q3(3 * b2, a2, 2 * d2))


def q3_chord(bary, d):
    """Exit barycentrics of the chord from exact `bary` along direction `d`.

    On integer triples: the entry over one denominator, the velocities
    over another (a positive scale, which leaves the exit unchanged), the
    exit slot by cross-multiplied signs, one reduction per exit value.
    Of equal exit times the first slot wins; a slot at zero exits at once.
    Returns None when no coordinate runs down towards zero, else (exit,
    zero slots), with slots None when the entry does not sum to exactly 1.
    """
    x, y = d
    if type(x) is not Q3 or type(y) is not Q3:
        x, y = _coerce(x), _coerce(y)
    xa, xb, ya, yb = x._a, x._b, y._a, y._b
    if x._d != y._d:
        xa, xb, ya, yb = xa * y._d, xb * y._d, ya * x._d, yb * x._d
    # (dx - dy / sqrt3, 2 dy / sqrt3) times 3 and the common denominator
    # of d, as pairs (a, b) for a + b sqrt3.
    p1, q1, p2, q2 = 3 * (xa - yb), 3 * xb - ya, 6 * yb, 2 * ya
    vp, vq = (-p1 - p2, p1, p2), (-q1 - q2, q1, q2)
    b0, b1, b2 = bary
    if type(b0) is not Q3 or type(b1) is not Q3 or type(b2) is not Q3:
        b0, b1, b2 = _coerce(b0), _coerce(b1), _coerce(b2)
    d0, d1, d2 = b0._d, b1._d, b2._d
    db = d0 if d0 == d1 == d2 else math.lcm(d0, d1, d2)
    m0, m1, m2 = db // d0, db // d1, db // d2
    ea = (b0._a * m0, b1._a * m1, b2._a * m2)
    eb = (b0._b * m0, b1._b * m1, b2._b * m2)
    i = None
    for k in range(3):
        pk, qk = vp[k], vq[k]
        if _sign(pk, qk) >= 0 or _sign(ea[k], eb[k]) < 0:
            continue
        if i is not None:
            # Exit time -e/v of slot k below slot i's, i.e. e_k v_i >
            # e_i v_k (both velocities are negative).
            ak, bk, ai, bi, p, q = ea[k], eb[k], ea[i], eb[i], vp[i], vq[i]
            if _sign(ak * p + 3 * bk * q - ai * pk - 3 * bi * qk,
                     ak * q + bk * p - ai * qk - bi * pk) <= 0:
                continue
        i = k
    if i is None:
        return None
    ai, bi, p, q = ea[i], eb[i], vp[i], vq[i]
    # exit_k = (e_k v_i - v_k e_i) / (db v_i); an irrational v_i goes
    # into the denominator through its conjugate p - q sqrt3.
    cp, cq, den = (p, -q, db * (p * p - 3 * q * q)) if q else (1, 0, db * p)
    if den < 0:
        cp, cq, den = -cp, -cq, -den
    out, zeros = [], []
    for k in range(3):
        ak, bk, pk, qk = ea[k], eb[k], vp[k], vq[k]
        na = ak * p + 3 * bk * q - pk * ai - 3 * qk * bi
        nb = ak * q + bk * p - pk * bi - qk * ai
        if na == 0 and nb == 0:
            zeros.append(k)
        out.append(_q3(na * cp + 3 * nb * cq, nb * cp + na * cq, den))
    unit = ea[0] + ea[1] + ea[2] == db and eb[0] + eb[1] + eb[2] == 0
    return tuple(out), tuple(zeros) if unit else None


def positive(x) -> float:
    """`x` as a float, if it is finite and positive; else ValueError."""
    got = float(x)
    if not 0 < got < math.inf:
        raise ValueError(f"{x!r} is not a finite positive number")
    return got


def positive_int(x) -> int:
    """`x` as an int, if it is an int or the text of one, and above 0;
    else ValueError."""
    try:
        got = int(x) if type(x) in (int, str) else None
    except ValueError:
        got = None
    if got is None or got <= 0:
        raise ValueError(f"{x!r} is not a positive integer")
    return got


class Scalars:
    """Number-mode context: constructors, constants and comparisons.

    All geometric code funnels its equality and sign decisions through
    this object so that a single run is uniformly tolerant (float mode)
    or uniformly exact (exact mode).
    """

    def __init__(self, mode: str = "float", eps: float = DEFAULT_EPS):
        if mode not in ("float", "exact"):
            raise ValueError(f"unknown number mode {mode!r}")
        self.mode = mode
        self.eps = positive(eps)
        self.exact = mode == "exact"
        # chart.vertex_motion's table of the 54 fan motions, filled on
        # first use.
        self.motions = [None] * 54
        if self.exact:
            self.zero = Q3(0)
            self.one = Q3(1)
            self.half = Q3(_HALF)
            self.sqrt3 = Q3(0, 1)
        else:
            self.zero = 0.0
            self.one = 1.0
            self.half = 0.5
            self.sqrt3 = SQRT3
        # Chart constants: the height sqrt(3)/2 of a unit triangle and
        # 2/sqrt(3) = (2/3) sqrt(3), rounded as (2/3) * sqrt(3) in float.
        self.half_sqrt3 = self.half * self.sqrt3
        self.two_over_sqrt3 = self.frac(2, 3) * self.sqrt3

    def __repr__(self):
        return f"Scalars(mode={self.mode!r}, eps={self.eps!r})"

    def of(self, x):
        """Convert an int, Fraction, float or Q3 into a run scalar."""
        if self.exact:
            if isinstance(x, Q3):
                return x
            if isinstance(x, (int, Fraction)):
                return Q3(x)
            if isinstance(x, float):
                if x != int(x):
                    raise TypeError(f"non-integral float {x} not exact; pass a Fraction")
                return Q3(int(x))
            raise TypeError(f"cannot make exact scalar from {type(x).__name__}")
        return float(x)

    def frac(self, num: int, den: int = 1):
        if self.exact:
            return Q3(Fraction(num, den))
        return num / den

    def sign(self, x) -> int:
        """Sign with tolerance snap in float mode, exact otherwise."""
        if self.exact:
            return x.sign() if isinstance(x, Q3) else (0 if x == 0 else (1 if x > 0 else -1))
        if abs(x) <= self.eps:
            return 0
        return 1 if x > 0 else -1

    def is_zero(self, x) -> bool:
        """sign(x) == 0, decided in one call (NaN is not zero)."""
        if self.exact:
            return x.sign() == 0 if type(x) is Q3 else x == 0
        return abs(x) <= self.eps

    def eq(self, x, y) -> bool:
        """sign(x - y) == 0, decided in one call."""
        d = x - y
        if self.exact:
            return d.sign() == 0 if type(d) is Q3 else d == 0
        return abs(d) <= self.eps

    def lt(self, x, y) -> bool:
        return self.sign(x - y) < 0

    def le(self, x, y) -> bool:
        return self.sign(x - y) <= 0

    def cos_sin_deg(self, deg: int):
        """Exact (cos, sin) of an angle that is a multiple of 30 degrees."""
        if deg % 30 != 0:
            raise ValueError(f"{deg} is not a multiple of 30")
        k = (deg // 30) % 12
        if self.exact:
            return _COS30[k], _SIN30[k]
        return COS_SIN30_FLOAT[k]

    def direction(self, theta_deg: float):
        """Unit direction vector for an angle in degrees.

        Exact mode accepts only multiples of 30 degrees (other exact
        directions must be supplied as vectors).
        """
        if self.exact:
            k = round(theta_deg)
            if abs(theta_deg - k) > WHOLE_DEGREE_SLACK or k % 30 != 0:
                raise ValueError(
                    f"exact mode needs a 30-degree multiple, got {theta_deg}")
            return self.cos_sin_deg(int(k))
        r = math.radians(theta_deg)
        return math.cos(r), math.sin(r)

    def try_unit(self, dx, dy):
        """Normalize (dx, dy) when the norm is exactly representable.

        Returns (ux, uy, was_normalized).  Float mode always normalizes;
        exact mode keeps the vector unnormalized when |d| leaves Q(sqrt 3).
        """
        if not self.exact:
            n = math.hypot(dx, dy)
            if n == 0.0:
                raise ZeroDivisionError("null direction")
            return dx / n, dy / n, True
        n2 = dx * dx + dy * dy
        if n2.sign() == 0:
            raise ZeroDivisionError("null direction")
        r = q3_sqrt(n2)
        if r is None:
            return dx, dy, False
        return dx / r, dy / r, True
