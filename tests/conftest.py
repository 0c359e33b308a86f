import sys
from functools import cached_property
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

# The whole-surface views of a Triangulation.
VIEWS = ("tris", "adj", "degree", "ring_of", "rings", "boundary", "frontier")


@pytest.fixture()
def whole_surface_calls(monkeypatch):
    """Names of the whole-surface views, in the order they are made,
    that some surface makes while the test runs.  A view is made on its
    first read of a surface, so each surface adds a name once."""
    from smfgeo.surface import Triangulation
    calls = []
    for name in VIEWS:
        def make(surf, name=name, real=Triangulation.__dict__[name].func):
            calls.append(name)
            return real(surf)
        view = cached_property(make)
        view.__set_name__(Triangulation, name)
        monkeypatch.setattr(Triangulation, name, view)
    return calls


@pytest.fixture()
def call_counts(monkeypatch):
    """Calls of `engine.step`, `classify._probe` and `classify._trace_end`
    made while the test runs, by those names.  Each is wrapped with a
    counter for the test, and monkeypatch restores it afterwards."""
    from smfgeo import classify, engine
    counts = {}
    for mod, name in ((engine, "step"), (classify, "_probe"),
                      (classify, "_trace_end")):
        key = f"{mod.__name__.rpartition('.')[2]}.{name}"
        counts[key] = 0

        def counted(*args, _key=key, _real=getattr(mod, name), **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.fixture()
def isometry_counts(monkeypatch):
    """Calls of `Isometry.compose`, and inverses `Isometry.inverse` made
    rather than returned as kept, while the test runs, in both
    representations (`chart.Isometry` and `chart.ExactIsometry`).  The
    builders' shared exact context starts the test with no gluing table,
    so the inverses it makes count the same whichever tests ran before."""
    from smfgeo import builders, chart
    monkeypatch.setattr(builders._EXACT, "gluings", None)
    counts = {"Isometry.compose": 0, "Isometry.inverse": 0}
    for cls in (chart.Isometry, chart.ExactIsometry):
        def compose(self, other, _real=cls.__dict__["compose"]):
            counts["Isometry.compose"] += 1
            return _real(self, other)

        def inverse(self, _real=cls.__dict__["inverse"]):
            counts["Isometry.inverse"] += self._inv is None
            return _real(self)
        monkeypatch.setattr(cls, "compose", compose)
        monkeypatch.setattr(cls, "inverse", inverse)
    return counts


def built(surf):
    """Triangles of `surf` whose vertices are made: the base's, and the
    planned triangles some read has made."""
    return len(surf._tris) + len(surf._made)
