"""Planned growth: `grow_frontier` plans rings and builds each sector on
first use.  Whatever order the sectors are built in, the completed
surface must equal the one that building whole rings triangle by
triangle gave; the digests below were recorded from that construction.
"""

import hashlib
import random
import tracemalloc
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from smfgeo import smf
from smfgeo.builders import (
    _seed_fan,
    build_flat_plane,
    build_semi_paradoxist,
    build_silo,
)
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
    _RUN,
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


def rebuild(s):
    """A copy of `s` built directly from its containers, which has no
    planned rings, so the first ring grown on it is linked to it through
    its open edges."""
    return Triangulation(
        tris=list(s.tris), adj=dict(s.adj), degree=dict(s.degree),
        frontier=s.frontier, boundary=s.boundary, rings=s.rings,
        ring_of=dict(s.ring_of), rule=s.rule, labels=s.labels)


def base(name, rebuilt=False):
    """The named base surface, shared by every test that asks for it;
    `rebuilt` gives it rebuilt."""
    if (name, rebuilt) not in _built:
        s = {**BASES, **UNGROWN}[name]()
        _built[name, rebuilt] = rebuild(s) if rebuilt else s
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


def trace_grow_surface():
    """silo(3) grown a ring at a time until the 10**6 budget refuses the
    next: the 838,825-triangle surface the trace_grow rays end on."""
    surf = build_silo(3)
    while True:
        try:
            surf = grow_frontier(surf, 1)
        except GrowthLimitExceeded:
            return surf


def explicit_hexagon():
    """An explicit SMF triangle list: six triangles round vertex 0."""
    fan = [(0, c, c % 6 + 1) for c in range(1, 7)]
    doc, _ = smf.parse_manifold(
        "smf 1\n" + "".join(f"t {a} {b} {c}\n" for a, b, c in fan))
    return smf.to_triangulation(doc)[0]


HASHED = {
    "silo3+1": lambda: grow_frontier(build_silo(3), 1),   # 8 rings
    "silo6": lambda: build_silo(6),                       # 10 rings
    "silo6+2": lambda: grow_frontier(build_silo(6), 2),   # 12 rings
    "silo6+4": lambda: grow_frontier(build_silo(6), 4),   # 14 rings
    "trace_grow": trace_grow_surface,                     # 16 rings
    "semi4": lambda: build_semi_paradoxist(4),
    "flat3+4": lambda: grow_frontier(build_flat_plane(3), 4),
    "hexagon": explicit_hexagon,
}
# name -> (triangle count, content hash), recorded when hashing still made
# each planned sector's triangles through `_RingPlan.sector`.
CONTENT_HASHES = {
    "silo3+1": (400, "c78330fec43c478c"),
    "silo6": (2625, "8b141c8ce6f9e080"),
    "silo6+2": (17_875, "0adfcfac9757e7f4"),
    "silo6+4": (122_400, "8538bba22c05091b"),
    "trace_grow": (838_825, "41f1125729a9dfa3"),
    "semi4": (450, "1b856be819767822"),
    "flat3+4": (294, "2f45fe39dc9e334b"),
    "hexagon": (6, "91ba10d56a785953"),
}


class TestContentHash:
    @pytest.mark.parametrize("name", sorted(HASHED))
    def test_content_hash_is_pinned(self, name):
        surf = HASHED[name]()
        assert (surf.n_triangles(), surf.content_hash()) == \
            CONTENT_HASHES[name]

    @pytest.mark.parametrize("name", ["silo6+2", "semi4"])
    def test_tris_are_the_triangles_in_id_order(self, name):
        fresh = HASHED[name]()
        want = [fresh.triangle(t) for t in range(fresh.n_triangles())]
        surf = HASHED[name]()
        assert surf.tris == want
        assert built(surf) == len(want)

    @pytest.mark.parametrize("name, rings, pinned", [
        ("silo3", 5, "silo6+2"), ("semi4", 2, None), ("flat2", 3, None)])
    def test_hashing_makes_nothing(self, name, rings, pinned):
        # A rebuilt base of its own: a shared one keeps the plan of the
        # ring grown on it, whose prefix sums other tests read.
        surf = grow_frontier(rebuild(BASES[name]()), rings)
        got = surf.content_hash()
        assert surf._made == {}
        assert all(b is None for p in surf._plans
                   for b in (*p.up.blocks, *p.dn.blocks))
        if pinned:
            assert got == CONTENT_HASHES[pinned][1]

    def test_hashing_a_large_surface_peaks_under_32_mib(self):
        # Hashing reads a planned ring in runs of at most _RUN triangles,
        # and the frontier in runs of _RUN vertices: 17 MiB.  A string per
        # frontier vertex, joined, peaked at 38.7 MiB; a ring in one run,
        # at 62 MiB.  Nothing it reads stays: plans that kept their
        # boundary ids held 8.8 MiB after the call.
        surf = trace_grow_surface()
        tracemalloc.start()
        try:
            got = surf.content_hash()
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == CONTENT_HASHES["trace_grow"][1]
        assert peak < 32 * 2**20
        assert left < 2**20


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
# Its refusal under the default budget.
SILO6_OVER = ("next ring would make 2196040 triangles, over the budget of"
              " 1000000")


def plan_fields(plan):
    return (digest(plan.ks), digest(entries(plan.up, plan.n)),
            digest(entries(plan.dn, plan.n)), digest(plan.outer_degrees()))


def entries(prefix, n):
    return [prefix[j] for j in range(n)]


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
    by index from either end, and `floor` at every value from -1 to past
    the total against `bisect_right`."""
    n = plan.n
    for got, want in zip((plan.up, plan.dn), reference_index(plan.ks)):
        assert entries(got, n) == want
        assert [got[j - n] for j in range(n)] == want
        for j in (n, -n - 1):
            with pytest.raises(IndexError):
                got[j]
        for x in range(-1, want[-1] + 2):
            j = bisect_right(want, x) - 1
            assert got.floor(x) == (j, want[j] if j >= 0 else None,
                                    want[j + 1] if j + 1 < n else None)


gap_strings = st.lists(st.integers(2, 7), min_size=1, max_size=3000).filter(
    lambda ks: max(ks) > 2).map(bytes)


def sector_triangles(plan):
    """Every triangle of an indexed plan in id order, placed from
    `sector(j)` at offsets up[j - 1] + 1 .. up[j], taken cyclically."""
    tris = [None] * plan.size
    for j in range(plan.n):
        first = plan.up[j - 1] + 1
        for c, tv in enumerate(plan.sector(j)):
            tris[(first + c) % plan.size] = tv
    return tris


def strip_triangles(plan, ids):
    """The triangles `plan.strip(ids)` gives, for the boundary ids `ids`,
    and the number of runs it gives them in; every run is whole triangles
    and at most `_RUN` of them."""
    runs = list(plan.strip(ids))
    assert all(0 < len(r) <= 3 * _RUN and len(r) % 3 == 0 for r in runs)
    flat = iter([v for r in runs for v in r])
    return list(zip(flat, flat, flat)), len(runs)


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

    @settings(max_examples=60, deadline=None)
    @given(gaps=gap_strings, k0=st.sampled_from((3, 4, 7)),
           head=st.integers(0, 3), tail=st.integers(0, 3),
           extra=st.integers(1, 5), pin=st.data())
    def test_strip_gives_the_sectors_at_their_ids(self, gaps, k0, head, tail,
                                                  extra, pin):
        # Sector 0 (k0 = 3: a single down) is followed by `head` sectors of
        # k = 2 and preceded, across the wrap, by `tail` of them: the
        # boundary's leading 2s, which the plan moves to the end.
        gaps = b"\x02" * tail + bytes((k0,)) + b"\x02" * head + gaps
        n = len(gaps)
        plan = _RingPlan(3, 100, 10_000, tuple(range(7, 7 + 3 * n, 3)), gaps)
        assert plan.start == tail and plan.ks[0] == k0
        plan.index()
        want = sector_triangles(plan)   # boundary ids read from `inner`
        assert strip_triangles(plan, list(plan.inner)) == (want, 1)
        # The ring grown on it, with one vertex pinned a degree or more
        # over the rest: its boundary is the cycle `outer_ids` gives,
        # against `sector`, which reads it position by position.
        degs = plan.outer_degrees()
        ids = plan.outer_ids()
        assert ids == [plan.outer_id(c) for c in range(len(degs))]
        target = max(degs) + 2
        v = ids[pin.draw(st.integers(0, len(ids) - 1))]
        nxt = plan.following(GenerationRule("r", (target,),
                                            ((v, target + extra),)))
        nxt.index()
        want = sector_triangles(nxt)
        assert strip_triangles(nxt, ids) == (want, 1)
        assert len(set(want)) == nxt.size

    def test_strip_of_a_ring_longer_than_a_run(self):
        rng = random.Random(5)
        gaps = bytes([4] + [rng.choice((2, 3, 4, 7)) for _ in range(60_000)])
        plan = _RingPlan(3, 100, 10**6, tuple(range(len(gaps))), gaps)
        plan.index()
        assert plan.size > 2 * _RUN
        want = sector_triangles(plan)
        got, runs = strip_triangles(plan, list(plan.inner))
        assert got == want and runs >= 2

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
        # The refused 17th ring is measured from the 16th's size and sector
        # count, about 1 KiB; planning it would read the 16th's 143,285
        # sectors in byte passes, about 1.1 MiB.
        surf = silo6_at_16_rings()
        tracemalloc.start()
        try:
            with pytest.raises(GrowthLimitExceeded) as exc:
                grow_frontier(surf, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value) == SILO6_OVER
        assert peak < 64 * 2**10

    def test_refusing_the_17th_ring_plans_nothing(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(_RingPlan, name)

            def wrapper(self, *args):
                calls.append(name)
                return real(self, *args)
            return wrapper

        surf = silo6_at_16_rings()
        for name in ("following", "outer_degrees", "__init__"):
            monkeypatch.setattr(_RingPlan, name, counted(name))
        with pytest.raises(GrowthLimitExceeded) as exc:
            grow_frontier(surf, 1)
        assert str(exc.value) == SILO6_OVER
        assert calls == [] and surf._next is None

    def test_growing_after_a_refusal_plans_the_refused_ring(self):
        # The refusal caches no plan, so a larger budget plans the 17th
        # ring afresh: the ring and surface the refused ring would make.
        surf = silo6_at_16_rings()
        with pytest.raises(GrowthLimitExceeded):
            grow_frontier(surf, 1)
        grown = grow_frontier(surf, 1, 3 * 10**6)
        ring = grown._plans[-1]
        assert (ring.n, ring.size, digest(ring.ks)) == SILO6_REFUSED
        assert grown.n_triangles() == 2_196_040
        assert grown.content_hash() == "72204c06d200edaa"

    @settings(max_examples=100, deadline=None)
    @given(gaps=gap_strings, target=st.integers(5, 9), pin=st.data())
    def test_next_size_is_the_size_following_plans(self, gaps, target, pin):
        # The closed form is the next ring's size wherever `following`
        # plans it and no pin lies on this ring's new vertices, and a ring
        # `next_accepted` vouches for is one `following` plans: the
        # shortcut never hides a short gap or a closing ring.
        plan = _RingPlan(3, 100, 1000, tuple(range(len(gaps))), gaps)
        special = ()
        if pin.draw(st.booleans()):
            v = pin.draw(st.integers(plan.vbase - 2, plan.vend + 1))
            special = ((v, pin.draw(st.integers(4, 9))),)
        rule = GenerationRule("r", (target,), special)
        try:
            size = plan.following(rule).size
        except SurfaceError:
            assert not plan.next_accepted(rule)
            return
        if not any(plan.vbase <= v < plan.vend for v, _ in special):
            assert plan.next_size(rule) == size


# Rings refused for their shape, whatever the budget, on a degree-5 seed
# fan: (rule, rings grown first, refusal).  The (5, 7, 5) and closing
# rings are grown on a plan whose closed form passes a budget of the
# surface's own size; `following` still decides them.
SHAPE_REFUSALS = [
    (GenerationRule("short", (5, 3)), 0,
     "rule short leaves vertex 1 with gap 1 < 2"),
    (GenerationRule("r", (5, 7, 5)), 2,
     "rule r leaves vertex 22 with gap 1 < 2"),
    (GenerationRule("closing", (5,)), 1,
     "ring would close the surface; unsupported"),
]


@pytest.mark.parametrize("rule,rings,refusal", SHAPE_REFUSALS,
                         ids=["short", "short_after_plans", "closing"])
def test_shape_refusal_comes_before_the_budget(rule, rings, refusal):
    surf = grow_frontier(_seed_fan(5, rule), rings)
    budget = surf.n_triangles()
    if surf._plans:
        assert surf._plans[-1].next_size(rule) > 0
    with pytest.raises(SurfaceError) as exc:
        grow_frontier(surf, 1, budget)
    assert type(exc.value) is SurfaceError
    assert str(exc.value) == refusal
