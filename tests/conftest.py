import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


@pytest.fixture()
def whole_surface_calls(monkeypatch):
    """Names of the calls, in order, that complete a surface (`_complete`)
    or make its vertex tables (`_tables`) while the test runs."""
    from smfgeo.surface import Triangulation
    calls = []
    for method in ("_complete", "_tables"):
        def wrapped(surf, method=method, real=getattr(Triangulation, method)):
            calls.append(method)
            return real(surf)
        monkeypatch.setattr(Triangulation, method, wrapped)
    return calls
