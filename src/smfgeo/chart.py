"""Planar kernel for the canonical triangle chart.

Every triangle is drawn in its own chart with local vertex 0 at (0,0),
vertex 1 at (1,0) and vertex 2 at (1/2, sqrt(3)/2).  Points inside a
chart are plain (x, y) pairs of run scalars; all decisions go through
the Scalars context so the same code runs in float and exact mode.
"""

from __future__ import annotations

from math import gcd

from .numbers import (COS_SIN30_FLOAT, Scalars, _q3, q3_ints, q3_rotate,
                      q3_xy_of_bary, turn30)


def corners(ctx: Scalars):
    """Chart positions of the three local vertices."""
    return ((ctx.zero, ctx.zero), (ctx.one, ctx.zero),
            (ctx.half, ctx.half_sqrt3))


def xy_of_bary(ctx: Scalars, b):
    if ctx.exact:
        return q3_xy_of_bary(b)
    b0, b1, b2 = b
    x = b1 + b2 * ctx.half
    y = b2 * ctx.half_sqrt3
    return (x, y)


def bary_of_xy(ctx: Scalars, x, y):
    # y = b2 * sqrt(3)/2  =>  b2 = y * 2/sqrt(3)
    b2 = y * ctx.two_over_sqrt3
    b1 = x - b2 * ctx.half
    b0 = ctx.one - b1 - b2
    return (b0, b1, b2)


def bary_velocity(ctx: Scalars, dx, dy):
    """Barycentric rate of change along a chart direction (sums to 0)."""
    db2 = dy * ctx.two_over_sqrt3
    db1 = dx - db2 * ctx.half
    db0 = -db1 - db2
    return (db0, db1, db2)


def cross(ax, ay, bx, by):
    return ax * by - ay * bx

def dot(ax, ay, bx, by):
    return ax * bx + ay * by


def rotate(ctx: Scalars, k30: int, x, y):
    """Rotate (x, y) by k30 * 30 degrees counterclockwise."""
    if ctx.exact:
        return q3_rotate(k30, x, y)
    c, s = COS_SIN30_FLOAT[k30 % 12]
    return (c * x - s * y, s * x + c * y)


class Isometry:
    """Orientation-preserving rigid motion: rotation by k*30 deg, then
    translation by (tx, ty).

    Closed under composition; the rotation index keeps exact mode exact.
    `Isometry(ctx, k, tx, ty)` makes the representation of ctx's mode:

    - float mode: this class, with float tx and ty and float arithmetic;
    - exact mode: `ExactIsometry`, which keeps the translation as
      integers over one denominator and reads tx and ty as Q3 values.

    An isometry is not changed once made, except that it keeps its
    inverse the first time `inverse` is asked.  Two threads that ask at
    once compute equal inverses, and either may be kept.
    """

    __slots__ = ("ctx", "k", "tx", "ty", "_inv")

    def __new__(cls, ctx: Scalars, k: int, tx, ty):
        if ctx.exact:
            return _exact(ctx, k % 12, *q3_ints(tx, ty))
        return _float(ctx, k % 12, tx, ty)

    @classmethod
    def identity(cls, ctx: Scalars):
        return cls(ctx, 0, ctx.zero, ctx.zero)

    def apply(self, x, y):
        c, s = COS_SIN30_FLOAT[self.k]
        return (c * x - s * y + self.tx, s * x + c * y + self.ty)

    def apply_vec(self, x, y):
        c, s = COS_SIN30_FLOAT[self.k]
        return (c * x - s * y, s * x + c * y)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self o other)(p) = self(other(p))."""
        tx, ty = self.apply(other.tx, other.ty)
        return _float(self.ctx, (self.k + other.k) % 12, tx, ty)

    def inverse(self) -> "Isometry":
        inv = self._inv
        if inv is None:
            k = -self.k % 12
            c, s = COS_SIN30_FLOAT[k]
            x, y = -self.tx, -self.ty
            inv = self._inv = _float(self.ctx, k, c * x - s * y,
                                     s * x + c * y)
        return inv

    def offset(self, p, origin, k: int):
        """The vector from `origin` to this motion's image of `p`, turned
        by k * 30 degrees; None where the two points meet (within eps in
        float mode)."""
        px, py = self.apply(*p)
        vx, vy = px - origin[0], py - origin[1]
        ctx = self.ctx
        if ctx.sign(vx) == 0 and ctx.sign(vy) == 0:
            return None
        c, s = COS_SIN30_FLOAT[k % 12]
        return (c * vx - s * vy, s * vx + c * vy)

    def __repr__(self):
        return f"Isometry(k={self.k}, t=({self.tx}, {self.ty}))"


class ExactIsometry(Isometry):
    """Exact-mode isometry: the translation is the integers (xa, xb, ya,
    yb, d), tx = (xa + xb sqrt3)/d and ty = (ya + yb sqrt3)/d, kept
    canonical: d > 0 and gcd(xa, xb, ya, yb, d) == 1.  `compose` and
    `inverse` work on the integers and reduce once, with one gcd; `apply`
    and `offset` reduce each coordinate they return once.  tx and ty are
    canonical Q3 values made when read."""

    __slots__ = ("xa", "xb", "ya", "yb", "d")

    @property
    def tx(self):
        return _q3(self.xa, self.xb, self.d)

    @property
    def ty(self):
        return _q3(self.ya, self.yb, self.d)

    def apply(self, x, y):
        xa, xb, ya, yb, e = q3_ints(x, y)
        xa, xb, ya, yb, h = turn30(self.k, xa, xb, ya, yb)
        e *= h
        d = self.d
        de = d * e
        return (_q3(xa * d + self.xa * e, xb * d + self.xb * e, de),
                _q3(ya * d + self.ya * e, yb * d + self.yb * e, de))

    def apply_vec(self, x, y):
        return q3_rotate(self.k, x, y)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self o other)(p) = self(other(p))."""
        xa, xb, ya, yb, h = turn30(self.k, other.xa, other.xb,
                                   other.ya, other.yb)
        e = h * other.d
        d = self.d
        return _exact(self.ctx, (self.k + other.k) % 12,
                      xa * d + self.xa * e, xb * d + self.xb * e,
                      ya * d + self.ya * e, yb * d + self.yb * e, e * d)

    def inverse(self) -> "Isometry":
        inv = self._inv
        if inv is None:
            k = -self.k % 12
            xa, xb, ya, yb, h = turn30(k, -self.xa, -self.xb,
                                       -self.ya, -self.yb)
            inv = self._inv = _exact(self.ctx, k, xa, xb, ya, yb,
                                     h * self.d)
        return inv

    def offset(self, p, origin, k: int):
        """The vector from `origin` to this motion's image of `p`, turned
        by k * 30 degrees; None where the two points meet.  One integer
        expression, each coordinate reduced once."""
        xa, xb, ya, yb, e = q3_ints(*p)
        xa, xb, ya, yb, h = turn30(self.k, xa, xb, ya, yb)
        e *= h
        oa, ob, pa, pb, f = q3_ints(*origin)
        d = self.d
        # image - origin, over e * d * f
        df, ef, ed = d * f, e * f, e * d
        xa = xa * df + self.xa * ef - oa * ed
        xb = xb * df + self.xb * ef - ob * ed
        ya = ya * df + self.ya * ef - pa * ed
        yb = yb * df + self.yb * ef - pb * ed
        if not (xa or xb or ya or yb):
            return None
        xa, xb, ya, yb, h = turn30(k, xa, xb, ya, yb)
        den = h * ed * f
        return _q3(xa, xb, den), _q3(ya, yb, den)


_new = object.__new__


def _float(ctx, k, tx, ty):
    """Float isometry from a reduced rotation index k."""
    m = _new(Isometry)
    m.ctx, m.k, m.tx, m.ty, m._inv = ctx, k, tx, ty, None
    return m


def _exact(ctx, k, xa, xb, ya, yb, d):
    """Exact isometry from a reduced k and integers with d > 0, made
    canonical with one gcd."""
    g = gcd(xa, xb, ya, yb, d)
    if g != 1:
        xa //= g
        xb //= g
        ya //= g
        yb //= g
        d //= g
    m = _new(ExactIsometry)
    m.ctx, m.k, m._inv = ctx, k, None
    m.xa, m.xb, m.ya, m.yb, m.d = xa, xb, ya, yb, d
    return m


def gluing(ctx: Scalars, e: int, e2: int) -> Isometry:
    """Rigid motion from a chart to its neighbor's across local edge e,
    which the neighbor meets with its edge e2: the one-sector clockwise
    fan motion round the vertex at slot e, which the neighbor has at slot
    e2 + 1, `vertex_motion(ctx, e, (e2 + 1) % 3, -1)`."""
    i = 18 * e + 6 * ((e2 + 1) % 3) + 5
    return ctx.motions[i] or _fan_motion(ctx, i)


def vertex_motion(ctx: Scalars, s_in: int, s_out: int, m: int) -> Isometry:
    """Rigid motion from a chart with vertex v at slot `s_in` to the chart
    m fan sectors counterclockwise round v (clockwise for m < 0), with v
    at slot `s_out`: the m fan edges' `gluing`s composed.  It depends on
    m mod 6 only, so it is one of 54, each made once per context."""
    i = 18 * s_in + 6 * s_out + m % 6
    return ctx.motions[i] or _fan_motion(ctx, i)


# Chart corners as integers (xa, xb, ya, yb) over 2, as in ExactIsometry.
_CORNERS2 = ((0, 0, 0, 0), (2, 0, 0, 0), (1, 0, 0, 1))
# Each fan motion's k, exact translation (xa, xb, ya, yb, d) and float
# translation, by `vertex_motion`'s index, made on first use.
_FAN = [None] * 54


def _fan_motion(ctx: Scalars, i: int) -> Isometry:
    """Make entry i of ctx's motion table from the exact closed form: the
    turn by k = 4 * (s_out - s_in) - 2 * m, each fan edge's 4 * (slot
    after - slot before) - 2 (+ 2 clockwise), then the shift that carries
    corner s_in onto corner s_out.  A float entry is the exact one rounded
    once.  Threads that race to make an entry make equal ones."""
    fan = _FAN[i]
    if fan is None:
        s_in, s_out, m = i // 18, i // 6 % 3, i % 6
        k = (4 * (s_out - s_in) - 2 * m) % 12
        *turned, h = turn30(k, *_CORNERS2[s_in])
        xa, xb, ya, yb = (q * h - r for q, r in zip(_CORNERS2[s_out], turned))
        d = 2 * h
        fan = _FAN[i] = (k, (xa, xb, ya, yb, d),
                         (float(_q3(xa, xb, d)), float(_q3(ya, yb, d))))
    k, exact, floats = fan
    motion = _exact(ctx, k, *exact) if ctx.exact else _float(ctx, k, *floats)
    ctx.motions[i] = motion
    return motion


def segment_intersection(ctx: Scalars, a0, a1, b0, b1):
    """Proper or touching intersection of two closed segments.

    Returns a list of (x, y) points: one point for a transversal or
    touching intersection, both overlap endpoints for collinear overlap.
    """
    ax, ay = a0
    bx, by = a1
    cx, cy = b0
    dx, dy = b1
    ux, uy = bx - ax, by - ay
    vx, vy = dx - cx, dy - cy
    wx, wy = cx - ax, cy - ay
    den = cross(ux, uy, vx, vy)
    if ctx.sign(den) != 0:
        t = cross(wx, wy, vx, vy) / den
        s = cross(wx, wy, ux, uy) / den
        z, o = ctx.zero, ctx.one
        if ctx.le(z, t) and ctx.le(t, o) and ctx.le(z, s) and ctx.le(s, o):
            return [(ax + ux * t, ay + uy * t)]
        return []
    # Parallel: either disjoint or collinear.
    if ctx.sign(cross(wx, wy, ux, uy)) != 0:
        return []
    uu = dot(ux, uy, ux, uy)
    if ctx.sign(uu) == 0:
        # a is a single point
        if on_segment(ctx, (ax, ay), b0, b1):
            return [(ax, ay)]
        return []
    t0 = dot(wx, wy, ux, uy) / uu
    t1 = t0 + dot(vx, vy, ux, uy) / uu
    lo, hi = (t0, t1) if ctx.le(t0, t1) else (t1, t0)
    lo = lo if ctx.lt(ctx.zero, lo) else ctx.zero
    hi = hi if ctx.lt(hi, ctx.one) else ctx.one
    if ctx.lt(hi, lo):
        return []
    pts = [(ax + ux * lo, ay + uy * lo)]
    if ctx.lt(lo, hi):
        pts.append((ax + ux * hi, ay + uy * hi))
    return pts


def on_segment(ctx: Scalars, p, s0, s1):
    """Closed-segment membership test with the context's tolerance."""
    px, py = p
    ax, ay = s0
    bx, by = s1
    ux, uy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    if ctx.sign(cross(ux, uy, wx, wy)) != 0:
        return False
    t = dot(wx, wy, ux, uy)
    uu = dot(ux, uy, ux, uy)
    return ctx.le(ctx.zero, t) and ctx.le(t, uu)
