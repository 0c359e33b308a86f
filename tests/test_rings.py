"""The triangle-ring index and the facts read from it.

`Triangulation.tri_ring` is the one record of which ring a triangle lies
in.  Ring crossings and the silo's band rows are read from it; here they
are checked against references built from the ring cycles themselves.
"""

from fractions import Fraction

import pytest

from smfgeo import chart, classify as C, engine
from smfgeo.builders import build_flat_plane, build_semi_paradoxist, build_silo
from smfgeo.farfield import BandFrame, ring_crossing
from smfgeo.numbers import Scalars
from smfgeo.surface import SurfacePoint, canonicalize_point

FLOAT = Scalars("float")
EXACT = Scalars("exact")

SURFACES = {
    "silo6@12": lambda: C.ensure_rings(build_silo(6), 12),
    "semi4@12": lambda: C.ensure_rings(build_semi_paradoxist(4), 12),
    "flat3@9": lambda: C.ensure_rings(build_flat_plane(3), 9),
}


class CycleReference:
    """Ring crossings decided from the cycle edges of `surf.rings`."""

    def __init__(self, surf):
        self.surf = surf
        self.edge_ring = {}
        self.on_own_cycle = set()
        for k in range(1, len(surf.rings)):
            cyc = surf.rings[k]
            for i in range(len(cyc)):
                self.edge_ring[frozenset((cyc[i], cyc[(i + 1) % len(cyc)]))] = k
            self.on_own_cycle.update(v for v in cyc if surf.ring_of[v] == k)

    def ring(self, t):
        return max(self.surf.ring_of[w] for w in self.surf.tris[t])

    def edge(self, t, e):
        """(ring, outward?) when edge e of t lies on a ring cycle."""
        u, v = self.surf.edge_vertices(t, e)
        k = self.edge_ring.get(frozenset((u, v)))
        if k is None:
            return None
        third = next(w for w in self.surf.tris[t] if w not in (u, v))
        return k, self.surf.ring_of[third] <= k

    def vertex(self, v, t_in, t_out):
        """(ring, outward?) when a step at v from t_in to t_out crosses
        the cycle v lies on."""
        if v not in self.on_own_cycle:
            return None
        k = self.surf.ring_of[v]
        r_in, r_out = self.ring(t_in), self.ring(t_out)
        if r_in <= k < r_out:
            return k, True
        if r_out <= k < r_in:
            return k, False
        return None


@pytest.fixture(scope="module", params=sorted(SURFACES))
def surf(request):
    return SURFACES[request.param]()


def test_tri_ring_is_the_largest_vertex_ring(surf):
    for t, tv in enumerate(surf.tris):
        assert surf.tri_ring(t) == max(surf.ring_of[v] for v in tv)


def test_edge_steps_match_the_cycle_edges(surf):
    ref = CycleReference(surf)
    crossings = 0
    for (t, e), (t2, _) in surf.adj.items():
        want = ref.edge(t, e)
        assert ring_crossing(surf, t, t2) == want, (t, e)
        crossings += want is not None
    assert crossings > 0


def test_vertex_steps_match_the_cycle_vertices(surf):
    ref = CycleReference(surf)
    passages = 0
    for v in surf.degree:
        if v in surf.frontier:
            continue
        fan = [t for t, _ in surf.fan_ccw(v)]
        for a in fan:
            for b in fan:
                want = ref.vertex(v, a, b)
                assert ring_crossing(surf, a, b, v) == want, (v, a, b)
                passages += want is not None
    assert passages > 0


@pytest.mark.parametrize("rings", [7, 9, 12])
def test_band_rows_are_the_two_ring_triangles(rings):
    surf = C.ensure_rings(build_silo(6), rings)
    for top in (1, 2):
        band = BandFrame(surf, FLOAT, top)
        two_ring = {t for t, tv in enumerate(surf.tris)
                    if {surf.ring_of[v] for v in tv} == {top, top + 1}}
        assert band.tris == two_ring
        assert set(band.frames) == two_ring


def test_band_exit_tables_carry_the_cycles():
    surf = C.ensure_rings(build_silo(6), 9)
    band = BandFrame(surf, FLOAT, 1)
    top, bot = surf.rings[1], surf.rings[2]
    n = band.period
    for i in range(n):
        t, e = band.edge_tris["top"][i]
        assert t in band.tris
        assert surf.edge_vertices(t, e) == (top[(i + 1) % n], top[i])
        t, e = band.edge_tris["bottom"][i]
        assert t in band.tris
        assert surf.edge_vertices(t, e) == (bot[i], bot[(i + 1) % n])
    for v in top + bot:
        fan_band = [t for t, _ in surf.fan_ccw(v) if t in band.tris]
        assert band.vertex_tris[v] == fan_band[0]


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
@pytest.mark.parametrize("top", [1, 2])
def test_band_transit_exits_where_the_walk_does(ctx, top):
    # Both cycles' exits, through edges, from one band triangle's centroid.
    surf = C.ensure_rings(build_silo(6), 9)
    band = BandFrame(surf, ctx, top)
    third = Fraction(1, 3)
    for d in ((5, -1), (1, 2), (-3, 1), (2, -7), (-4, -3), (7, 2)):
        ray = engine.make_ray(surf, ctx, min(band.tris), (third,) * 3, d)
        for ev, cur, _ in engine.walk(ray, surf, ctx, canonical=True):
            if isinstance(ev, engine.EdgeCrossing) and \
                    cur.point.tri not in band.tris:
                break
        got = band.transit(surf, ctx, ray.point.tri,
                           chart.xy_of_bary(ctx, ray.point.bary), ray.dir)
        assert got.kind in ("top", "bottom")
        pt = canonicalize_point(SurfacePoint(got.tri, got.bary), surf, ctx)
        assert pt.tri == ev.point.tri, d
        assert all(ctx.eq(x, y) for x, y in zip(pt.bary, ev.point.bary)), d
