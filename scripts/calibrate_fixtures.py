"""Survey the parallelism taxonomy around each model's fixtures.

Classifies centroids of triangles near the interesting regions and
prints a map, used to choose and freeze the named fixture placements.

Run:  python3 scripts/calibrate_fixtures.py [semi|silo|flat]
"""

import math
import sys
import time

sys.path.insert(0, "src")

from smfgeo.numbers import Scalars
from smfgeo.builders import (build_flat_plane, build_semi_paradoxist,
                             build_silo, resolve_point, resolve_ray)
from smfgeo import classify as C
from smfgeo import engine as E
from smfgeo import chart as ch
from smfgeo.surface import SurfacePoint, develop

FLOAT = Scalars("float")
SHORT = {
    "elliptic": "ell", "euclidean": "EUC", "finitely_hyperbolic": "FIN",
    "regularly_hyperbolic": "reg", "extremely_hyperbolic": "EXT",
    "completely_hyperbolic": "CPL", "undetermined": "???",
}


def dev_positions(surf, ctx, base_tri, max_ring):
    """Approximate developed centroid per triangle via BFS (winding-naive)."""
    frames = develop(surf, ctx, base_tri, ch.Isometry.identity(ctx),
                     lambda t, e, t2: surf.tri_ring(t2) <= max_ring)
    cs = ch.corners(ctx)
    cx = sum(c[0] for c in cs) / 3
    cy = sum(c[1] for c in cs) / 3
    return {t: tuple(float(x) for x in f.apply(cx, cy)) for t, f in frames}


def survey_semi(max_ring=4):
    session = C.Session(build_semi_paradoxist(6), FLOAT)
    budget = C.Budgets()
    surf = session.grown(max_ring + 5, budget.growth)
    pos = dev_positions(surf, FLOAT, 0, max_ring)
    points = {t: SurfacePoint(t, (FLOAT.of(1) / 3,) * 3) for t in pos}
    analysis = session.analysis(surf)
    lray = resolve_ray(surf, FLOAT, surf.labels["l"])
    lctx = session.line_context(surf, lray, budget, points.values())
    rows = {}
    t0 = time.time()
    for t, (x, y) in sorted(pos.items()):
        P = points[t]
        try:
            cls = C.classify_point(P, lctx, analysis, budget)
            tag = SHORT[cls.kind]
        except ValueError:
            tag = "onl"
        except Exception:
            tag = "ERR"
        rows.setdefault(round(y / 0.45), []).append((x, tag, t))
    for yk in sorted(rows, reverse=True):
        line = sorted(rows[yk])
        print(f"y~{yk * 0.45:6.2f}: " + "  ".join(f"{tag}@t{t}({x:+.1f})"
                                                  for x, tag, t in line))
    print(f"[{time.time() - t0:.0f}s]")


def survey_named(model):
    if model == "silo":
        surf = build_silo(6)
        names = ("P", "R", "Q", "Qp", "Qpp")
    elif model == "flat":
        surf = build_flat_plane(4)
        names = ("P",)
    else:
        surf = build_semi_paradoxist(6)
        names = ("P", "Q", "R")
    budget = C.Budgets()
    session = C.Session(surf, FLOAT)
    for name in names:
        t0 = time.time()
        cls, _, _, _ = C.classify_labeled(surf, FLOAT, name, "l", budget,
                                          session)
        print(f"{name:4s} -> {cls.kind:24s} count={cls.count} "
              f"par={cls.parallel_arcs} cross={cls.crossing_arcs} "
              f"unk={cls.unknown_arcs} [{time.time() - t0:.1f}s]")


if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) > 1 else "semi"
    if which == "semi-map":
        survey_semi()
    else:
        survey_named(which)
