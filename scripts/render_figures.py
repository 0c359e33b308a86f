"""Render the straddle-line figures and a silo overview as SVG files.

Run:  python3 scripts/render_figures.py [outdir]
"""

import sys

sys.path.insert(0, "src")

from smfgeo import netdraw
from smfgeo.builders import build_semi_paradoxist, build_silo, resolve_ray
from smfgeo import engine
from smfgeo.numbers import Scalars

FLOAT = Scalars("float")


def main(outdir="."):
    semi = build_semi_paradoxist(4)
    for vertex, name in ((0, "fan5_elliptic"), (1, "fan7_hyperbolic")):
        drawing, _ = netdraw.figure_fan(semi, FLOAT, vertex)
        path = f"{outdir}/{name}.svg"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(netdraw.render_svg(drawing))
        print(f"wrote {path}: {len(drawing.triangles)} triangles, "
              f"{len(drawing.cut_edges)} cut edges")

    silo = build_silo(2)
    lray = resolve_ray(silo, FLOAT, silo.labels["l"])
    lpath = engine.trace(lray, silo, FLOAT, arc_budget=6.0,
                         growth_budget=silo.n_triangles(), two_sided=True)
    band = [t for t in range(silo.n_triangles()) if silo.tri_ring(t) <= 3]
    drawing = netdraw.draw_pieces(silo, FLOAT, [band], paths=[("l", lpath)])
    path = f"{outdir}/silo_band.svg"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(netdraw.render_svg(drawing))
    print(f"wrote {path}: the cap and first rows cut open, with the "
          f"closed line around the cylinder")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
