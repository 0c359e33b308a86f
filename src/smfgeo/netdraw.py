"""Unfolded nets of surface regions rendered as SVG.

A region of triangles is laid flat by developing along a spanning tree
of its adjacency graph; shared edges not in the tree whose two
placements disagree are cuts, drawn twice with dashed strokes the way
the figures cut open a cone vertex.
"""

from __future__ import annotations

from . import chart, engine
from .numbers import Scalars
from .surface import Triangulation, develop, seams

# Two placed triangles touching within this slack do not overlap.
OVERLAP_SLACK = 1e-9
# Chord ends closer than this join into one polyline.
JOIN_GAP = 1e-6


class RegionNotUnfoldable(Exception):
    def __init__(self, t1, t2):
        super().__init__(f"triangles {t1} and {t2} overlap after unfolding")
        self.pair = (t1, t2)


class NetDrawing:
    __slots__ = ("triangles", "polylines", "cut_edges", "labels")

    def __init__(self):
        self.triangles = []  # (tri, ((x,y),)*3)
        self.polylines = []  # (label, [(x,y), ...])
        self.cut_edges = []  # ((x,y),(x,y), tri, edge)
        self.labels = []     # (text, (x,y))

    def bounds(self):
        xs = [p[0] for _, pts in self.triangles for p in pts]
        ys = [p[1] for _, pts in self.triangles for p in pts]
        for _, pl in self.polylines:
            xs += [p[0] for p in pl]
            ys += [p[1] for p in pl]
        if not xs:
            return (0.0, 0.0, 1.0, 1.0)
        return (min(xs), min(ys), max(xs), max(ys))


def fan_region(surf: Triangulation, v: int):
    """The triangles of the full fan around a vertex."""
    return [t for t, _ in surf.fan_ccw(v)]


def unfold_region(surf: Triangulation, ctx: Scalars, tris, base: int = None):
    """Planar placements for a connected set of triangles.

    Returns (placements {tri: Isometry}, cuts [(tri, edge)]).  Raises
    RegionNotUnfoldable when two placed triangles overlap with positive
    area.
    """
    region = list(dict.fromkeys(tris))
    if not region:
        raise ValueError("empty region")
    inset = set(region)
    base = region[0] if base is None else base
    tree = set()
    placements = dict(develop(surf, ctx, base, chart.Isometry.identity(ctx),
                              lambda t, e, t2: t2 in inset, tree))
    if len(placements) != len(inset):
        missing = sorted(inset - set(placements))
        raise ValueError(f"region is not connected: {missing} unreachable")
    cuts = []
    for t, e, _, _ in seams(surf, ctx, {t: placements[t] for t in region},
                            tree):
        if surf.neighbor(t, e) not in cuts:
            cuts.append((t, e))
    _check_overlaps(surf, ctx, placements)
    return placements, cuts


def _check_overlaps(surf, ctx, placements):
    cs = chart.corners(ctx)
    polys = {}
    for t, frame in placements.items():
        polys[t] = [tuple(float(c) for c in frame.apply(*p)) for p in cs]
    items = sorted(polys)
    for i, t1 in enumerate(items):
        for t2 in items[i + 1:]:
            if _tri_overlap(polys[t1], polys[t2]):
                raise RegionNotUnfoldable(t1, t2)


def _tri_overlap(a, b) -> bool:
    """Positive-area overlap test via separating axes, with tolerance."""
    for poly1, poly2 in ((a, b), (b, a)):
        for i in range(3):
            x1, y1 = poly1[i]
            x2, y2 = poly1[(i + 1) % 3]
            nx, ny = y2 - y1, x1 - x2
            amax = max(nx * p[0] + ny * p[1] for p in poly1)
            amin = min(nx * p[0] + ny * p[1] for p in poly1)
            bmax = max(nx * p[0] + ny * p[1] for p in poly2)
            bmin = min(nx * p[0] + ny * p[1] for p in poly2)
            if bmin >= amax - OVERLAP_SLACK or amin >= bmax - OVERLAP_SLACK:
                return False
    return True


def draw_region(surf: Triangulation, ctx: Scalars, tris, paths=(),
                point_labels=(), base: int = None) -> NetDrawing:
    """Build a NetDrawing for one simply-unfoldable region."""
    return draw_pieces(surf, ctx, [list(tris)], paths=paths,
                       point_labels=point_labels, base=base)


def draw_pieces(surf: Triangulation, ctx: Scalars, pieces, paths=(),
                point_labels=(), base: int = None, gap: float = 0.5) -> NetDrawing:
    """Build a NetDrawing from one or more region pieces laid side by side.

    Edges between different pieces are cuts, drawn dashed in both
    pieces; geodesic polylines are split into connected runs inside each
    piece.
    """
    drawing = NetDrawing()
    cs = chart.corners(ctx)
    allset = set()
    for p in pieces:
        allset |= set(p)
    x_shift = 0.0
    for idx, tris in enumerate(pieces):
        placements, cuts = unfold_region(surf, ctx, tris,
                                         base if idx == 0 else None)
        inset = set(tris)
        for t in tris:
            for e in range(3):
                nbr = surf.neighbor(t, e)
                if nbr and nbr[0] in allset and nbr[0] not in inset:
                    cuts.append((t, e))
        xs = []
        for t, frame in placements.items():
            for p in cs:
                xs.append(float(frame.apply(*p)[0]))
        lo = min(xs)
        shift = x_shift - lo
        x_shift += (max(xs) - lo) + gap

        def place(frame, px, py):
            q = frame.apply(px, py)
            return (float(q[0]) + shift, float(q[1]))

        for t, frame in sorted(placements.items()):
            pts = tuple(place(frame, *p) for p in cs)
            drawing.triangles.append((t, pts))
        seen_cut = set()
        for (t, e) in cuts:
            t2, e2 = surf.neighbor(t, e)
            for (tt, ee) in ((t, e), (t2, e2)):
                if (tt, ee) in seen_cut or tt not in placements:
                    continue
                seen_cut.add((tt, ee))
                frame = placements[tt]
                a = place(frame, *cs[ee])
                b = place(frame, *cs[(ee + 1) % 3])
                drawing.cut_edges.append((a, b, tt, ee))
        for label, path in paths:
            run = []
            for seg in path.segments:
                if seg.tri not in placements:
                    if len(run) >= 2:
                        drawing.polylines.append((label, run))
                    run = []
                    continue
                frame = placements[seg.tri]
                a = place(frame, *seg.a)
                b = place(frame, *seg.b)
                if not run:
                    run = [a, b]
                elif (abs(run[-1][0] - a[0]) < JOIN_GAP
                      and abs(run[-1][1] - a[1]) < JOIN_GAP):
                    run.append(b)
                else:
                    if len(run) >= 2:
                        drawing.polylines.append((label, run))
                    run = [a, b]
            if len(run) >= 2:
                drawing.polylines.append((label, run))
        for text, sp in point_labels:
            if sp.tri in placements:
                xy = chart.xy_of_bary(ctx, sp.bary)
                drawing.labels.append((text, place(placements[sp.tri], *xy)))
    return drawing


PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")


def render_svg(drawing: NetDrawing, scale: float = 100.0) -> str:
    """Emit the drawing as a standalone SVG 1.1 document."""
    x0, y0, x1, y1 = drawing.bounds()
    pad = 0.25
    x0 -= pad
    y0 -= pad
    x1 += pad
    y1 += pad
    w = (x1 - x0) * scale
    h = (y1 - y0) * scale

    def sx(p):
        return (p[0] - x0) * scale

    def sy(p):
        return h - (p[1] - y0) * scale  # y up

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{w:.1f}" height="{h:.1f}" '
               f'viewBox="0 0 {w:.1f} {h:.1f}">')
    out.append('<g fill="#f4f1e8" stroke="#555555" stroke-width="1">')
    for t, pts in drawing.triangles:
        d = " ".join(f"{sx(p):.2f},{sy(p):.2f}" for p in pts)
        out.append(f'<polygon points="{d}"><title>triangle {t}</title></polygon>')
    out.append('</g>')
    out.append('<g fill="none" stroke="#aa3311" stroke-width="2" '
               'stroke-dasharray="7,5">')
    for a, b, t, e in drawing.cut_edges:
        out.append(f'<line x1="{sx(a):.2f}" y1="{sy(a):.2f}" '
                   f'x2="{sx(b):.2f}" y2="{sy(b):.2f}">'
                   f'<title>cut t{t} e{e}</title></line>')
    out.append('</g>')
    for i, (label, pl) in enumerate(drawing.polylines):
        color = PALETTE[i % len(PALETTE)]
        d = " ".join(f"{sx(p):.2f},{sy(p):.2f}" for p in pl)
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="2.5" '
                   f'points="{d}"><title>{label}</title></polyline>')
    out.append('<g font-family="sans-serif" font-size="14" fill="#111111">')
    for text, p in drawing.labels:
        out.append(f'<text x="{sx(p) + 4:.2f}" y="{sy(p) - 4:.2f}">{text}</text>')
    out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


def figure_fan(surf: Triangulation, ctx: Scalars, vertex: int,
               arc_budget: float = 2.5):
    """The straddle figure around a vertex: its fan, the middle line and
    the two flanking lines, as (drawing, paths).

    A 420-degree fan cannot lie flat in one piece, so it is cut into two
    arcs shown side by side, the way a physical model opens with scissors.
    """
    from .builders import middle_line_ray, straddle_pair
    tris = fan_region(surf, vertex)
    mid = middle_line_ray(surf, ctx, vertex)
    a, b = straddle_pair(surf, ctx, vertex)
    paths = []
    for label, ray in (("middle", mid), ("left", a), ("right", b)):
        paths.append((label, engine.trace(
            ray, surf, ctx, arc_budget=arc_budget,
            growth_budget=surf.n_triangles(), two_sided=True)))
    if len(tris) <= 6:
        pieces = [tris]
    else:
        half = (len(tris) + 1) // 2
        pieces = [tris[:half], tris[half:]]
    drawing = draw_pieces(surf, ctx, pieces, paths=paths, base=tris[0])
    return drawing, paths
