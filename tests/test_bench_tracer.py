"""The benchmark's layer tracer (bench/tracer.py) wraps package functions
by name from outside the package.  Renaming or removing a traced layer,
or turning one into a generator, breaks its traced pass; this test makes
such a change fail here as well."""

import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from smfgeo import classify, engine, surface
from smfgeo.builders import build_flat_plane
from smfgeo.engine import EdgeCrossing, VertexCrossing, make_ray
from smfgeo.numbers import Scalars

BENCH = Path(__file__).resolve().parents[1] / "bench"
FLOAT = Scalars("float")
CENTROID = (Fraction(1, 3),) * 3


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def test_tracer_installs_counts_and_uninstalls(tracer):
    originals = (engine.step, engine.transfer_edge, engine.cross_vertex,
                 surface.grow_frontier)
    surf = build_flat_plane(1)
    ray = make_ray(surf, FLOAT, 0, CENTROID, FLOAT.direction(11.0))
    with tracer.Tracer() as tr:
        assert engine.step is not originals[0]
        assert classify.grow_frontier is engine.grow_frontier
        assert engine.grow_frontier is not originals[3]
        # Called through the module: the tracer patches module globals.
        path = engine.trace(ray, surf, FLOAT, arc_budget=6.0,
                            growth_budget=10**5)
    assert (engine.step, engine.transfer_edge, engine.cross_vertex,
            surface.grow_frontier) == originals
    assert engine.grow_frontier is originals[3]
    stats = tr.layer_stats()
    grown = stats["surface.grow_frontier"]["calls"]
    assert grown >= 1
    assert stats["engine.trace"]["calls"] == 1
    # Every chord is one step; a step that meets the frontier is retried
    # after growth.
    assert len(path.segments) <= stats["engine.step"]["calls"] \
        <= len(path.segments) + grown
    edges = sum(isinstance(ev, EdgeCrossing) for _, ev in path.events)
    vertices = sum(isinstance(ev, VertexCrossing) for _, ev in path.events)
    assert stats["engine.transfer_edge"]["calls"] == edges
    assert stats["engine.cross_vertex"]["calls"] == vertices
