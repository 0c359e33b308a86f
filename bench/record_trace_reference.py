#!/usr/bin/env python3
"""Record the trace_grow reference events for every seeded direction.

    python3 bench/record_trace_reference.py

Writes bench/trace_reference.json: for each direction, the event kinds
and arc positions of the trace, terminal event last.  The oracle
compares later traces against it; re-record only when a change to the
tracer's geometry is intended.
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
from smfgeo import Scalars, build_silo, make_ray, trace  # noqa: E402


def main():
    ctx = Scalars("float")
    surf = build_silo(inputs.TRACE_RINGS)
    out = {"ray": {"silo_rings": inputs.TRACE_RINGS, "tri": inputs.TRACE_TRI,
                   "bary": list(inputs.TRACE_BARY), "arc": inputs.TRACE_ARC,
                   "growth": inputs.TRACE_GROWTH},
           "directions": {}}
    for deg in inputs.TRACE_DIRECTIONS:
        ray = make_ray(surf, ctx, inputs.TRACE_TRI, inputs.TRACE_BARY,
                       ctx.direction(float(deg)))
        path = trace(ray, surf, ctx, arc_budget=inputs.TRACE_ARC,
                     growth_budget=inputs.TRACE_GROWTH)
        out["directions"][str(deg)] = {
            "triangles": path.surface.n_triangles(),
            "events": [[a, type(ev).__name__] for a, ev in path.events],
        }
        print(deg, len(path.events), path.events[-1], flush=True)
        del path
        gc.collect()
    (HERE / "trace_reference.json").write_text(
        json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
