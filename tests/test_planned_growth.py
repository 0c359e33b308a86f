"""Planned growth: `grow_frontier` plans rings and builds each sector on
first use.  Whatever order the sectors are built in, the completed
surface must equal the one that building whole rings triangle by
triangle gave; the digests below were recorded from that construction.
"""

import hashlib
import random
import tracemalloc
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from smfgeo.builders import build_flat_plane, build_semi_paradoxist, build_silo
from smfgeo.engine import (
    EdgeCrossing,
    GrowthLimit,
    VertexCrossing,
    make_ray,
    trace,
)
from smfgeo.farfield import audit_ring_convexity
from smfgeo.numbers import Scalars
from smfgeo.surface import (
    GenerationRule,
    GrowthLimitExceeded,
    IncompleteRing,
    SurfaceError,
    Triangulation,
    _BLOCK,
    _RingPlan,
    grow_frontier,
)

from conftest import built

FLOAT = Scalars("float")

BASES = {
    "flat2": lambda: build_flat_plane(2),
    "semi4": lambda: build_semi_paradoxist(4),
    "silo3": lambda: build_silo(3),
}
# A seed with no ring grown on it: its surface has no ring plan.
UNGROWN = {"flat1": lambda: build_flat_plane(1)}
_built = {}


def base(name, rebuilt=False):
    """The named base surface; `rebuilt` gives a copy built directly from
    its containers, which has no planned rings, so the first ring grown
    on it is linked to it through its open edges."""
    if (name, rebuilt) not in _built:
        s = {**BASES, **UNGROWN}[name]()
        if rebuilt:
            s = Triangulation(
                tris=list(s.tris), adj=dict(s.adj), degree=dict(s.degree),
                frontier=s.frontier, boundary=s.boundary, rings=s.rings,
                ring_of=dict(s.ring_of), rule=s.rule, labels=s.labels)
        _built[name, rebuilt] = s
    return _built[name, rebuilt]


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# base+rings -> digests of tris, adj, degree (in iteration order), ring_of,
# rings, boundary and frontier, and the content hash, as `growth_fields`
# computes them.
GROWN = {
    "flat2+1": ("486ab367e74b26b9", "3ba5ff2ecfd75b17", "f9dd100a3d4d133a", "be522e9b70eb2fe6", "82d86d1d46c9e358", "0e16a4157771fe34", "e51cf9a1932a0680", "b6c3aac3757de31a"),
    "flat2+2": ("a010af5725f6ab06", "8e8fda9b65f6b5b9", "e29c7656108721b6", "24a63e458650eeae", "efd26995cf4dfc6d", "42ed39a4315d79fd", "899e9cc73c59ea8f", "95746f24f6a4bc21"),
    "flat2+3": ("7c65b86976c91fc2", "293a98f9749388e4", "e97dfc20637bec31", "6ebdd5087e410fef", "b25907bb31689c0e", "b57052a637e81538", "8e2eafaf108e891e", "252ee5fd500d8ede"),
    "flat2+4": ("8f786530ad4c1d4d", "2eb1d5d97cfa1894", "aed71e0b3a3bd616", "a5138a8ddf31c703", "36d5421ee05dd188", "f51fa754fccbdb78", "6e902bcf8dbce53b", "26b31dfbae72086b"),
    "semi4+1": ("9aa0d5a28e7a5b68", "3e74a00e0448eaa2", "ccfb4ae55c0aede0", "57cf6a31a47b9458", "c6fa801f3c77b913", "698fb0df49a98436", "9dec232b00f86473", "445224a0b722ef16"),
    "semi4+2": ("ecc3c215321dad1f", "374f459cdb258bd8", "c60e21dc59e6641d", "5b3ca7894b7d55a4", "42dad90899b5dac8", "51faa1083d7362a6", "61d76c07d20dc2bd", "2e0852bbb61997d2"),
    "semi4+3": ("52a8001234cf2e60", "e2da7e10afc7d88f", "c164459e1339dea0", "b5beff1c0992bb21", "14af36bbed72b302", "c8d9e39b15241a0c", "1ec6cb36c906f495", "8281b7ecf4ef3069"),
    "semi4+4": ("bf522e9a8b2b09c2", "78851a9699698a40", "213b023af18c41d3", "29fce6f685c86223", "1be64d93264143d5", "4e1a29cb91c09cd4", "a4c38e87d503305c", "a48de4d8db1303b3"),
    "silo3+1": ("9c6b0a0532ee34a0", "0bfd8e3e348d793e", "5a00695b475a6df6", "c63f0892209c29e8", "92b303b9e2364368", "03ad16c28ded9e0e", "ba50f42b97f413cf", "c78330fec43c478c"),
    "silo3+2": ("9b5f435ef5a32f49", "e5350187dcf750bf", "e02565917331e1fc", "b30baacc5860304d", "707c7f24e2285aaa", "b1ff9be8934d17cf", "f54cf298b383d823", "9e349e345c75d66f"),
    "silo3+3": ("59ef145d33553a4c", "43c2abdf324bc43a", "7dc96070c1980e12", "701f2ace5d7151df", "1bdfe573f6ae262f", "2686e4be10b687b4", "348f42a73594ea78", "8b141c8ce6f9e080"),
    "silo3+4": ("209cfa29fb6d75fe", "d55b321f04f079fd", "347b3d6397a4dc1e", "0df82c60d1372c9c", "5073e729ac66f672", "1d58537d678206e8", "60820ce0cabd04f5", "bf21d02b8e0cc0c5"),
}


def growth_fields(s):
    return (digest(s.tris), digest(sorted(s.adj.items())),
            digest(list(s.degree.items())), digest(list(s.ring_of.items())),
            digest(s.rings), digest(s.boundary), digest(sorted(s.frontier)),
            s.content_hash())


class TestSectorsInAnyOrder:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(BASES)), rebuilt=st.booleans(),
           rings=st.integers(1, 4), rng=st.randoms(use_true_random=False),
           data=st.data())
    def test_completed_surface_matches_whole_rings(self, name, rebuilt,
                                                   rings, rng, data):
        b = base(name, rebuilt)
        surf = grow_frontier(b, rings)
        n = surf.n_triangles()
        assert built(surf) == built(b)
        ids = list(range(n))
        rng.shuffle(ids)
        for t in ids[:data.draw(st.integers(0, len(ids)))]:
            how = rng.randrange(3)
            if how == 0:
                surf.triangle(t)
            elif how == 1:
                surf.neighbor(t, rng.randrange(3))
            else:
                surf.fan_ccw(surf.triangle(t)[rng.randrange(3)])
        assert growth_fields(surf) == GROWN[f"{name}+{rings}"]
        assert built(surf) == n

    def test_growing_a_planned_surface_keeps_its_base_planned(self):
        planned = grow_frontier(base("silo3"), 1)
        grown = grow_frontier(planned, 1)
        assert built(planned) == built(base("silo3"))
        grown.tris   # builds every sector of the grown surface
        assert grown.content_hash() == GROWN["silo3+2"][-1]
        assert built(planned) == built(base("silo3"))
        assert planned.content_hash() == GROWN["silo3+1"][-1]


def ring_answers(surf, order):
    """What `surf` answers to ring questions, asked in `order`."""
    n = surf.n_triangles()
    ask = {
        "rings": lambda: surf.rings,
        "len(rings)": lambda: len(surf.rings),
        "boundary": lambda: surf.boundary,
        "frontier": lambda: surf.frontier,
        "ring_of": lambda: list(surf.ring_of.items()),
        "degree": lambda: list(surf.degree.items()),
        "tri_ring": lambda: [surf.tri_ring(t) for t in range(n)],
        "content_hash": surf.content_hash,
    }
    return {q: ask[q]() for q in order}


class TestRingAnswersFromPlans:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(BASES)), rebuilt=st.booleans(),
           rings=st.integers(1, 4), rng=st.randoms(use_true_random=False),
           data=st.data())
    def test_ring_reads_build_nothing(self, name, rebuilt, rings, rng, data):
        b = base(name, rebuilt)
        surf = grow_frontier(b, rings)
        ids = list(range(surf.n_triangles()))
        rng.shuffle(ids)
        for t in ids[:data.draw(st.integers(0, 20))]:
            surf.triangle(t)
        before = built(surf)
        order = ["rings", "len(rings)", "boundary", "frontier", "ring_of",
                 "degree", "tri_ring", "content_hash"]
        rng.shuffle(order)
        got = ring_answers(surf, order)
        assert built(surf) == before
        whole = grow_frontier(b, rings)
        whole.tris
        assert got == ring_answers(whole, order)
        assert got["content_hash"] == GROWN[f"{name}+{rings}"][-1]

    def test_ring_count_of_a_large_silo_builds_no_sector(self):
        silo = build_silo(6)
        surf = grow_frontier(silo, 16 - len(silo.rings))
        assert surf.n_triangles() == 838_825
        assert len(surf.rings) == 16
        assert built(surf) == built(silo)

    def test_growth_holds_no_slot_per_planned_triangle(self):
        # Growth shares the base and the plans and copies only what the
        # surface it grows from has worked out: growing silo(6) from 2,625
        # to 838,825 triangles allocates its plans, gap bytes and a block
        # start per 1,024 sectors, under 1 MB; not a slot per planned
        # triangle (14 MB when it did), nor whole prefix arrays (4 MB).
        silo = build_silo(6)
        tracemalloc.start()
        try:
            surf = grow_frontier(silo, 16 - silo.n_rings())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert surf.n_triangles() == 838_825
        assert peak < 2 * 2**20


def fan_audit(surf, ring):
    """The ring audit by fan walks on a completed surface: the outward
    angle at a ring vertex is 60 degrees per incident triangle of a ring
    above `ring`.  Returns (passed, outward angles, audit id), or the
    message of the IncompleteRing the audit raises."""
    if ring < 1 or ring >= len(surf.rings):
        return f"ring {ring} does not exist"
    angles = []
    for v in surf.rings[ring]:
        if v in surf.frontier:
            return f"ring {ring} vertex {v} is on the frontier"
        inner = sum(1 for t, _ in surf.fan_ccw(v) if surf.tri_ring(t) <= ring)
        angles.append((v, 60 * (surf.degree[v] - inner)))
    return (all(a >= 180 for _, a in angles), tuple(angles),
            f"ring{ring}@{surf.content_hash()}")


class TestAuditsFromPlans:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted({**BASES, **UNGROWN})),
           rings=st.integers(0, 3),
           rng=st.randoms(use_true_random=False), data=st.data())
    def test_audits_build_nothing_and_match_fan_walks(self, name, rings,
                                                      rng, data):
        b = base(name)
        surf = grow_frontier(b, rings)
        ids = list(range(surf.n_triangles()))
        rng.shuffle(ids)
        for t in ids[:data.draw(st.integers(0, 20))]:
            surf.triangle(t)
        whole = grow_frontier(b, rings)
        whole.tris
        for k in range(surf.n_rings() + 1):
            before = built(surf)
            try:
                a = audit_ring_convexity(surf, k)
                got = (a.passed, a.outward_angles, a.audit_id)
            except IncompleteRing as exc:
                got = str(exc)
            assert built(surf) == before
            assert got == fan_audit(whole, k)


def path_record(path):
    segs = [(s.tri, s.a, s.b) for s in path.segments]
    evs = []
    for arc, ev in path.events:
        if isinstance(ev, EdgeCrossing):
            evs.append(("edge", arc, ev.tri, ev.edge, ev.point.tri,
                        ev.point.bary))
        elif isinstance(ev, VertexCrossing):
            evs.append(("vertex", arc, ev.vertex, ev.incoming_dir,
                        ev.outgoing_dir, ev.cone_angle_deg, ev.tri_in,
                        ev.tri_out))
        elif isinstance(ev, GrowthLimit):
            evs.append(("limit", arc, ev.detail))
        else:
            evs.append((type(ev).__name__, arc))
    return segs, evs


class TestTracesOnPlannedSurfaces:
    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(BASES)), rebuilt=st.booleans(),
           rings=st.integers(1, 3), pick=st.floats(0, 1, exclude_max=True),
           w=st.tuples(*[st.integers(1, 20)] * 3),
           degrees=st.floats(0, 360, exclude_max=True),
           extra=st.integers(0, 2))
    def test_planned_and_completed_surfaces_trace_alike(
            self, name, rebuilt, rings, pick, w, degrees, extra):
        fresh = grow_frontier(base(name, rebuilt), rings)
        whole = grow_frontier(base(name, rebuilt), rings)
        whole.tris  # a whole-surface read completes it
        tri = int(pick * fresh.n_triangles())
        bary = tuple(FLOAT.of(x / sum(w)) for x in w)
        # Room for `extra` more rings.
        budget = grow_frontier(base(name), rings + extra).n_triangles()
        paths = []
        for surf in (fresh, whole):
            ray = make_ray(surf, FLOAT, tri, bary, FLOAT.direction(degrees))
            paths.append(path_record(trace(ray, surf, FLOAT, arc_budget=6.0,
                                           growth_budget=budget,
                                           two_sided=True)))
        assert paths[0] == paths[1]


# The benchmark's trace_grow rays (silo(3), triangle 20, 61..73 degrees):
# degrees -> digests of the segments and events of the trace that built
# every ring whole, and its last event.
TRACE_GROW = {
    61: ("8d14912fb1c12ea7", "175bb25a3bc24a5c", 11.38699718543358, 527780),
    62: ("d11639e3db006e7f", "da1902b425a67a28", 11.437422672542153, 527826),
    63: ("6ef006efc46d3c21", "28d93414adab8268", 11.565309303923133, 528622),
    64: ("b9f3b04db85ead7d", "9920c3015e614bf6", 11.699692322137478, 529986),
    65: ("4bfd7f574339aeab", "1b3311a50d6cc468", 11.840884229013524, 533557),
    66: ("ea990d702d14c410", "48a80a56a627aaae", 10.918755947056548, 533560),
    67: ("5e336d1c553bdb49", "220c06280d32febc", 11.060689147265919, 542913),
    68: ("1db4db37b4027790", "ef7fed1536215bed", 11.209820523603986, 542924),
    69: ("7952f833976c6d25", "f42fdfef7fee4e48", 11.366538020786413, 542953),
    70: ("44cc52d50de18736", "83732a112924060e", 11.470655525822668, 543031),
    71: ("65931b72440ecca6", "d4456e3617745d50", 10.556953195777695, 567707),
    72: ("248d5f10669842bb", "9be02e5ae57e84c5", 10.721239577626847, 567707),
    73: ("583a66211cc1d6d7", "199cf6c10af8c0ba", 10.894090912751851, 567711),
}


def filled_blocks(prefix):
    return sum(b is not None for b in prefix.blocks)


class TestTraceGrowRay:
    @pytest.mark.parametrize("degrees", sorted(TRACE_GROW))
    def test_trace_builds_only_the_sectors_it_crosses(self, degrees):
        segs_digest, evs_digest, arc, tri = TRACE_GROW[degrees]
        surf = build_silo(3)
        ray = make_ray(surf, FLOAT, 20, (0.2, 0.3, 0.5),
                       FLOAT.direction(float(degrees)))
        path = trace(ray, surf, FLOAT, arc_budget=15.0, growth_budget=10**6)
        segs, evs = path_record(path)
        assert digest(segs) == segs_digest
        assert digest(evs) == evs_digest
        assert evs[-1] == ("limit", arc, f"frontier at edge 1 of triangle {tri}")
        assert path.surface.n_triangles() == 838_825
        assert built(path.surface) < 10_000
        # The ray crosses the 143,285-sector last ring near one place, so
        # its prefix sums are made there only.
        last = path.surface._plans[-1]
        assert (last.n, len(last.up.blocks)) == (143_285, 140)
        assert filled_blocks(last.up) <= 2


SCANNED = {"flat3": lambda: build_flat_plane(3),
           "semi4": lambda: build_semi_paradoxist(4),
           "silo3": lambda: build_silo(3)}


class TestVertexLookups:
    @pytest.mark.parametrize("name", sorted(SCANNED))
    def test_incident_is_the_smallest_triangle(self, name):
        surf = grow_frontier(SCANNED[name](), 1)   # a planned ring too
        first = {}
        for t, tv in enumerate(surf.tris):
            for i in range(3):
                first.setdefault(tv[i], (t, i))
        for v in surf.degree:
            assert surf.incident(v) == first[v]

    @pytest.mark.parametrize("name", sorted(SCANNED))
    def test_directed_edge_matches_scan(self, name):
        surf = SCANNED[name]()

        def scan(u, v):
            for t, tv in enumerate(surf.tris):
                for e in range(3):
                    if tv[e] == u and tv[(e + 1) % 3] == v:
                        return t, e
            raise SurfaceError(f"directed edge ({u},{v}) not found")

        for tv in surf.tris:
            for e in range(3):
                u, v = tv[e], tv[(e + 1) % 3]
                assert surf.directed_edge(u, v) == scan(u, v)
        outer = surf.boundary
        missing = [(outer[1], outer[0]), (0, 0), (0, max(surf.degree) + 1),
                   (max(surf.degree) + 1, 0)]
        for u, v in missing:
            with pytest.raises(SurfaceError) as want:
                scan(u, v)
            with pytest.raises(SurfaceError) as got:
                surf.directed_edge(u, v)
            assert str(got.value) == str(want.value)


# Plans of silo(6) grown to 16 rings, the rings the trace_grow ray reads:
# ring -> digests of ks, up, dn and outer_degrees(), as `plan_fields`
# computes them; recorded from the per-sector kernels (up and dn summed
# sector by sector, outer degrees joined per sector).
SILO6_PLANS = {
    2: ("f814c0702b2c2a60", "ecff9218a3252f30", "86c1b3261036a829", "f814c0702b2c2a60"),
    3: ("f814c0702b2c2a60", "ecff9218a3252f30", "86c1b3261036a829", "f814c0702b2c2a60"),
    4: ("3b838a825ae47bb0", "8e18d04bb2a6a16c", "ecff9218a3252f30", "ccd82ed41bebbeec"),
    5: ("056a4545822c6fe9", "3faf41bfbd914860", "e4a7b9e41a63bdb7", "7c00a241255db956"),
    6: ("703df5b3f0787074", "c651b3da5d26519c", "0d9868558b9040d6", "b6754ade46ef262f"),
    7: ("26f83b7db443de5f", "21ad198c838a22a1", "aa8ac4c80c16ba3b", "3094e7a75f241614"),
    8: ("0b884f45f2a8fad3", "d5d8ecdf3fb7fbb4", "ed10ac4fa7ee9443", "7733e4439adb2fa2"),
    9: ("07bb46d1a3533c40", "cbb38d14a7fe10a3", "0ec1b643183253f1", "fe22eb51b26f8d32"),
    10: ("8e0911930d520fc4", "b30af2e2c96f0ee9", "89bd085d59199dd8", "c28cf54a9c8e5a8e"),
    11: ("360cc6e040df3172", "0a8a9547c2fe3e26", "45dca7cc64874600", "c64a5a0c2d832bbf"),
    12: ("fade11487bfa3b91", "217e3ee056f145af", "bf5ec0df9deb3c26", "028057e9292a2acd"),
    13: ("7688b5e6ea830db3", "916b778a33dbe7a8", "f2428b5fbc16e120", "05eb07560a3134e7"),
    14: ("0ec5170a0ec33e5c", "2eeb80908ea97354", "6de0cbab876b07e1", "36df0e93c3551773"),
    15: ("b0a054c9fee9ce30", "743eb10ad4e23911", "286c4b7a1b321996", "5a9008e11387c12a"),
}
# The ring a 17th growth would add: (n, size, digest of ks).
SILO6_REFUSED = (375_125, 1_357_215, "f21835b195eba54b")


def plan_fields(plan):
    return (digest(plan.ks), digest(plan.up.tolist()),
            digest(plan.dn.tolist()), digest(plan.outer_degrees()))


def silo6_at_16_rings():
    silo = build_silo(6)
    return grow_frontier(silo, 16 - silo.n_rings())


# The per-sector formulas the byte kernels of _RingPlan must agree with.

def reference_index(ks):
    """up[j]: sum of k - 1 over sectors 1..j; dn[j]: of k - 2."""
    up, dn = [0], [0]
    for k in ks[1:]:
        up.append(up[-1] + k - 1)
        dn.append(dn[-1] + k - 2)
    return up, dn


def reference_outer_degrees(ks):
    """Sector 0's apex, then per sector 1..n-1 its k - 3 chain vertices
    and its apex, or one more degree on the apex before it if k = 2;
    sector 0's chain vertices last."""
    degs = [3]
    for k in ks[1:]:
        if k == 2:
            degs[-1] += 1
        else:
            degs += [2] * (k - 3) + [3]
    return bytes(degs + [2] * (ks[0] - 3))


def check_prefix_sums(plan):
    """up and dn of an indexed plan against `reference_index`: every entry,
    by index from either end and through `tolist`, and `right` and `left`
    at every value from 0 to past the total against `bisect`."""
    n = plan.n
    for got, want in zip((plan.up, plan.dn), reference_index(plan.ks)):
        assert got.tolist() == want
        assert [got[j] for j in range(n)] == want
        assert [got[j - n] for j in range(n)] == want
        for j in (n, -n - 1):
            with pytest.raises(IndexError):
                got[j]
        for x in range(-1, want[-1] + 2):
            assert got.right(x) == bisect_right(want, x)
            assert got.left(x) == bisect_left(want, x)


gap_strings = st.lists(st.integers(2, 7), min_size=1, max_size=3000).filter(
    lambda ks: max(ks) > 2).map(bytes)


class TestRingPlanKernels:
    @settings(max_examples=60, deadline=None)
    @given(gaps=gap_strings, target=st.integers(4, 8), pin=st.data())
    def test_kernels_match_per_sector_formulas(self, gaps, target, pin):
        n = len(gaps)
        plan = _RingPlan(3, 100, 1000, tuple(range(n)), gaps)
        s = plan.start
        assert plan.ks == gaps[s:] + gaps[:s] and plan.ks[0] > 2
        plan.index()
        check_prefix_sums(plan)
        degs = reference_outer_degrees(plan.ks)
        assert plan.outer_degrees() == degs
        assert len(degs) == plan.vend - plan.vbase

        special = ()
        if pin.draw(st.booleans()):
            c = pin.draw(st.integers(0, len(degs) - 1))
            special = ((plan.outer_ids()[c], pin.draw(st.integers(4, 9))),)
        rule = GenerationRule("r", (target,), special)
        pinned = dict(special)
        ids = plan.outer_ids()
        want = [max(pinned.get(v, target) - d, 0) for v, d in zip(ids, degs)]
        short = next((c for c, k in enumerate(want) if k < 2), None)
        if short is not None:
            v = ids[short]
            refusal = (f"rule r leaves vertex {v} with gap "
                       f"{pinned.get(v, target) - degs[short]} < 2")
        elif max(want) == 2:
            refusal = "ring would close the surface; unsupported"
        else:
            nxt = plan.following(rule)
            assert (nxt.ring, nxt.base, nxt.vbase, nxt.inner) == (
                4, 100 + plan.size, plan.vend, plan)
            k0 = bytes(want).lstrip(b"\x02")
            assert nxt.ks == k0 + bytes(want)[:len(want) - len(k0)]
            return
        with pytest.raises(SurfaceError) as exc:
            plan.following(rule)
        assert str(exc.value) == refusal

    # Sector counts about a block end: one block an entry short of full,
    # one full block, and a last block of one entry after one or two.
    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   2 * _BLOCK + 1])
    def test_prefix_sums_across_block_ends(self, n):
        rng = random.Random(n)
        gaps = bytes([3] + [rng.choice((2, 2, 3, 4, 7)) for _ in range(n - 1)])
        plan = _RingPlan(3, 100, 1000, tuple(range(n)), gaps)
        plan.index()
        assert len(plan.up.blocks) == -(-n // _BLOCK)
        assert filled_blocks(plan.up) == filled_blocks(plan.dn) == 0
        check_prefix_sums(plan)

    @settings(max_examples=60, deadline=None)
    @given(gaps=st.one_of(gap_strings, st.lists(
        st.sampled_from((2, 3, 4, 9, 17, 40, 255)), min_size=1,
        max_size=500).filter(lambda ks: max(ks) > 2).map(bytes)))
    def test_size_and_largest_gap_are_sum_and_max(self, gaps):
        # Counted per gap value, not summed per gap.
        plan = _RingPlan(3, 100, 1000, tuple(range(len(gaps))), gaps)
        assert plan.size == sum(gaps) - len(gaps)
        assert plan.kmax == max(gaps)
        assert plan.vend == 1000 + sum(gaps) - 2 * len(gaps)

    def test_plans_trace_grow_reaches_are_pinned(self):
        surf = silo6_at_16_rings()
        plans = {p.ring: plan_fields(p) for p in surf._plans}
        assert plans == SILO6_PLANS
        refused = surf._plans[-1].following(surf.rule)
        assert (refused.n, refused.size, digest(refused.ks)) == SILO6_REFUSED

    def test_refused_ring_is_planned_in_little_memory(self):
        # Planning the refused 17th ring reads the 143,285 sectors of the
        # 16th in a few passes over byte strings, about 1.1 MiB; joining a
        # byte string per sector took 12.5 MiB.
        surf = silo6_at_16_rings()
        tracemalloc.start()
        try:
            with pytest.raises(GrowthLimitExceeded) as exc:
                grow_frontier(surf, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value) == ("next ring would make 2196040 triangles,"
                                  " over the budget of 1000000")
        assert peak < 2 * 2**20
