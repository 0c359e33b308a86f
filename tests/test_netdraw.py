import math
import xml.etree.ElementTree as ET

import pytest

from smfgeo import netdraw
from smfgeo.builders import build_flat_plane, build_semi_paradoxist
from smfgeo.numbers import Scalars

FLOAT = Scalars("float")


@pytest.fixture(scope="module")
def semi():
    return build_semi_paradoxist(4)


def segs_of(drawing, label):
    return [pl for lab, pl in drawing.polylines if lab == label]


def passes_through(polylines, pt, tol=1e-6):
    for pl in polylines:
        for a, b in zip(pl, pl[1:]):
            ux, uy = b[0] - a[0], b[1] - a[1]
            wx, wy = pt[0] - a[0], pt[1] - a[1]
            L2 = ux * ux + uy * uy
            if L2 == 0:
                continue
            t = (wx * ux + wy * uy) / L2
            if -tol <= t <= 1 + tol:
                d = abs(ux * wy - uy * wx) / math.sqrt(L2)
                if d < tol:
                    return True
    return False


class TestFanFigures:
    def test_five_fan_structure(self, semi):
        drawing, _ = netdraw.figure_fan(semi, FLOAT, 0)
        assert len(drawing.triangles) == 5
        # one cut, drawn from both of its sides
        assert len(drawing.cut_edges) == 2
        assert len(drawing.polylines) >= 3

    def test_five_fan_middle_line_bisects_opposite_triangle(self, semi):
        drawing, paths = netdraw.figure_fan(semi, FLOAT, 0)
        # The middle line enters along an edge and leaves through the
        # midpoint of the opposite triangle's far edge.  In the unfolded
        # picture the far edge midpoints are vertices of the drawing at
        # distance 1 from the apex; check the polyline passes through one.
        mids = []
        for t, pts in drawing.triangles:
            for i in range(3):
                a, b = pts[i], pts[(i + 1) % 3]
                mids.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
        middle = segs_of(drawing, "middle")
        assert middle
        assert any(passes_through(middle, m) for m in mids)

    def test_seven_fan_structure(self, semi):
        drawing, _ = netdraw.figure_fan(semi, FLOAT, 1)
        assert len(drawing.triangles) == 7
        # split into two pieces: the piece seam is cut on both sides,
        # appearing at least twice beyond the fan's own closing cut
        assert len(drawing.cut_edges) >= 4

    def test_seven_fan_straddle_lines_separated(self, semi):
        drawing, paths = netdraw.figure_fan(semi, FLOAT, 1)
        # the left and right lines pass through disjoint triangle sets
        # inside the fan, separated by at least the middle triangle
        fan = [t for t, _ in drawing.triangles]
        used = {}
        for label, path in paths:
            used[label] = {seg.tri for seg in path.segments if seg.tri in fan}
        assert used["left"] & used["right"] == set()
        assert len(fan) - len(used["left"] | used["right"]) >= 1

    def test_five_fan_straddle_lines_share_a_triangle(self, semi):
        drawing, paths = netdraw.figure_fan(semi, FLOAT, 0)
        fan = [t for t, _ in drawing.triangles]
        used = {}
        for label, path in paths:
            used[label] = {seg.tri for seg in path.segments if seg.tri in fan}
        assert used["left"] & used["right"]

    def test_six_fan_no_cut_no_bend(self):
        surf = build_flat_plane(3)
        interior6 = next(v for v, d in surf.degree.items()
                         if d == 6 and v not in surf.frontier)
        drawing, paths = netdraw.figure_fan(surf, FLOAT, interior6)
        assert len(drawing.triangles) == 6
        assert drawing.cut_edges == []
        # middle line unfolds straight: its polyline points are collinear
        for pl in segs_of(drawing, "middle"):
            x0, y0 = pl[0]
            x1, y1 = pl[-1]
            for (x, y) in pl[1:-1]:
                assert abs((x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)) < 1e-6


class TestDrawingInvariants:
    def test_shared_edges_coincide_unless_cut(self, semi):
        drawing, _ = netdraw.figure_fan(semi, FLOAT, 0)
        # every adjacent placed pair shares two corner points exactly,
        # except across the declared cut
        placed = dict(drawing.triangles)
        cut_tris = {t for _, _, t, _ in drawing.cut_edges}
        tris = list(placed)
        shared_counts = []
        for i, t1 in enumerate(tris):
            for t2 in tris[i + 1:]:
                shared = 0
                for p in placed[t1]:
                    for q in placed[t2]:
                        if abs(p[0] - q[0]) < 1e-6 and abs(p[1] - q[1]) < 1e-6:
                            shared += 1
                if shared:
                    shared_counts.append(shared)
        assert shared_counts.count(2) >= 3

    def test_polylines_continuous(self, semi):
        drawing, _ = netdraw.figure_fan(semi, FLOAT, 0)
        for label, pl in drawing.polylines:
            for a, b in zip(pl, pl[1:]):
                assert math.hypot(b[0] - a[0], b[1] - a[1]) < 2.0

    def test_region_not_unfoldable_reported(self, semi):
        fan = netdraw.fan_region(semi, 1)  # 420 degrees in one piece
        with pytest.raises(netdraw.RegionNotUnfoldable) as exc:
            netdraw.unfold_region(semi, FLOAT, fan)
        assert len(exc.value.pair) == 2


class TestSvg:
    def test_well_formed_and_bounded(self, semi):
        for v in (0, 1):
            drawing, _ = netdraw.figure_fan(semi, FLOAT, v)
            svg = netdraw.render_svg(drawing)
            root = ET.fromstring(svg)
            assert root.tag.endswith("svg")
            w = float(root.attrib["width"])
            h = float(root.attrib["height"])
            assert w > 0 and h > 0
            for poly in root.iter():
                pts = poly.attrib.get("points")
                if not pts:
                    continue
                for pair in pts.split():
                    x, y = map(float, pair.split(","))
                    assert math.isfinite(x) and math.isfinite(y)
                    assert -1 <= x <= w + 1 and -1 <= y <= h + 1

    def test_scale_default(self, semi):
        drawing, _ = netdraw.figure_fan(semi, FLOAT, 0)
        svg100 = netdraw.render_svg(drawing, scale=100.0)
        svg50 = netdraw.render_svg(drawing, scale=50.0)
        w100 = float(ET.fromstring(svg100).attrib["width"])
        w50 = float(ET.fromstring(svg50).attrib["width"])
        assert w100 == pytest.approx(2 * w50)

    def test_cut_edges_dashed(self, semi):
        drawing, _ = netdraw.figure_fan(semi, FLOAT, 0)
        svg = netdraw.render_svg(drawing)
        assert "stroke-dasharray" in svg
