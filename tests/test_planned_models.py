"""Models stay planned.

A builder returns the planned surface that growth gives, and loading a
model runs no `surface.validate`: plan construction refuses a gap under 2
and a ring that would close the surface, and those refusals are the
runtime check.  These tests show that every model, completed, passes
`validate` at its fixture size and over a sweep of radii; that the last
plan's frontier degrees, the one `validate` rule plan construction does
not enforce, stay at most 7; that `curved_vertices`, the degree read the
classifier and the CLI use, agrees with the `degree` view; and that
building a model builds few of its triangles.
"""

import pytest

from smfgeo import builders, smf
from smfgeo.builders import (
    _seed_fan,
    build_flat_plane,
    build_semi_paradoxist,
    build_silo,
)
from smfgeo.surface import (
    GenerationRule,
    SurfaceError,
    develop,
    grow_frontier,
    validate,
)

from conftest import built

BUILD = {"flat": build_flat_plane, "semi": build_semi_paradoxist,
         "silo": build_silo}
# Each model over a sweep of sizes; the fixture sizes are flat 3, semi 4
# and silo 6.
SIZES = ([("flat", r) for r in range(1, 9)]
         + [("semi", r) for r in range(2, 12)]
         + [("silo", r) for r in range(9)])
IDS = [f"{name}{size}" for name, size in SIZES]


def table_scan(surf):
    """The interior vertices of degree other than 6, read off the `degree`
    and `frontier` views of the whole surface."""
    return [(v, d) for v, d in sorted(surf.degree.items())
            if d != 6 and v not in surf.frontier]


@pytest.mark.parametrize("name,size", SIZES, ids=IDS)
def test_completed_model_validates(name, size):
    assert validate(BUILD[name](size)).ok()


@pytest.mark.parametrize("name,size", SIZES, ids=IDS)
def test_frontier_degrees_from_the_last_plan(name, size, whole_surface_calls):
    surf = BUILD[name](size)
    if surf._plans:
        outer = surf._plans[-1].outer_degrees()
        cycle = surf.ring_cycle(surf.n_rings() - 1)
        assert whole_surface_calls == []
    else:
        cycle = sorted(surf.frontier)
        outer = [surf.degree[v] for v in cycle]
    assert max(outer) <= 7
    surf.tris
    assert [surf.degree[v] for v in cycle] == list(outer)


@pytest.mark.parametrize("name,size", SIZES, ids=IDS)
def test_curved_vertices_match_the_table_scan(name, size, whole_surface_calls):
    surf = BUILD[name](size)
    curved = surf.curved_vertices()
    assert whole_surface_calls == []
    surf.tris
    assert list(curved.items()) == table_scan(surf)


@pytest.mark.parametrize("pin", [(7, 5), (10, 7), (31, 5)])
def test_curved_vertices_of_a_vertex_pinned_in_a_planned_ring(pin):
    rule = GenerationRule("pinned", (6,), special=(pin,))
    surf = grow_frontier(_seed_fan(6, rule), 5)
    assert surf.curved_vertices() == dict([pin])
    surf.tris
    assert table_scan(surf) == [pin]


def test_building_semi_makes_few_triangles():
    # Placing semi(4)'s fixtures develops out to a centroid distance of 8
    # from them, which reaches all 450 triangles, but development reads
    # neighbours only: it made all 450 when a neighbour meant building its
    # sector, and makes the 2 of the base now.
    semi = build_semi_paradoxist(4)
    assert semi.n_triangles() == 450 and built(semi) <= 20


@pytest.mark.parametrize("radius", range(2, 11))
def test_semi_fixtures_are_placed_in_one_development(radius, monkeypatch):
    # P, Q and R share one development from triangle 0, and they sit on
    # the same triangles at every radius.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return develop(*args, **kwargs)
    monkeypatch.setattr(builders, "develop", counted)
    semi = build_semi_paradoxist(radius)
    assert [semi.labels[name].tri for name in "PQR"] == [78, 35, 31]
    assert calls == [0]


def test_building_a_model_builds_few_triangles():
    # Placing the fixtures reads only the sectors near them: 61 of silo(6)'s
    # 2,625 triangles and 15 of flat(3)'s 54 when this was written.
    silo, flat = build_silo(6), build_flat_plane(3)
    assert silo.n_triangles() == 2625 and built(silo) <= 100
    assert flat.n_triangles() == 54 and built(flat) <= 20


@pytest.mark.parametrize("rule,message", [
    (GenerationRule("short", (5, 3)), "gap 1 < 2"),
    (GenerationRule("closing", (5,)), "would close the surface"),
])
def test_plan_refusals_are_model_diagnostics(monkeypatch, rule, message):
    def build(rings):
        return grow_frontier(_seed_fan(5, rule), 2 + rings)

    with pytest.raises(SurfaceError, match=message):
        build(0)
    monkeypatch.setitem(builders.MODELS, "silo", (build, "rings", 3))
    doc, diags = smf.parse_manifold("smf 1\nmodel silo rings=0\n")
    assert diags == []
    surf, diags = smf.to_triangulation(doc)
    assert surf is None
    assert [d.code for d in diags] == ["BadModelParams"]
    assert message in diags[0].message
