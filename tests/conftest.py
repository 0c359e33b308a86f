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


def built(surf):
    """Triangles of `surf` whose vertices are made: the base's, and the
    planned triangles some read has made."""
    return len(surf._tris) + len(surf._made)
