"""SMF text format: manifold descriptions, scene queries, JSON reports.

The manifold format is line oriented, `#` starts a comment, tokens are
whitespace separated and the `smf <version>` header is mandatory:

    smf 1
    model silo rings=3            # or an explicit triangle list: t 0 1 2
    point P 17 1/3 1/3 1/3
    line  l 6 0 1/2 1/2 0

Scene files hold one query per line: trace / classify / render; any
other keyword is an `UnknownQuery` diagnostic.  Parsing is total:
malformed input produces positioned diagnostics, never an exception.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction

from .builders import (
    LineFixture,
    PointFixture,
    build_flat_plane,
    build_semi_paradoxist,
    build_silo,
)
from .numbers import positive, positive_int
from .surface import (GROWTH_BUDGET, SurfaceError, Value, from_triangles,
                      validate)

SMF_VERSION = 1


class Diagnostic(namedtuple("Diagnostic", "line column code message")):
    __slots__ = ()

    def __str__(self):
        return f"{self.line}:{self.column}: {self.code}: {self.message}"


class SmfDocument:
    __slots__ = ("version", "model", "triangles", "points", "lines")

    def __init__(self):
        self.version = SMF_VERSION
        self.model = None    # (name, {param: value}, line_no, col)
        self.triangles = []  # (v0, v1, v2, line_no)
        self.points = {}     # label -> (PointFixture, line_no, col)
        self.lines = {}      # label -> (LineFixture, line_no, col)


# -- queries -------------------------------------------------------------


class TraceQuery(Value):
    __slots__ = ("line_label", "arc", "growth", "two_sided")

    def __init__(self, line_label: str, arc: float = None, growth: int = None,
                 two_sided: bool = True):
        self.line_label = line_label
        self.arc = arc
        self.growth = growth
        self.two_sided = two_sided


class ClassifyQuery(Value):
    __slots__ = ("point_label", "line_label", "arc", "growth")

    def __init__(self, point_label: str, line_label: str, arc: float = None,
                 growth: int = None):
        self.point_label = point_label
        self.line_label = line_label
        self.arc = arc
        self.growth = growth


class RenderQuery(Value):
    __slots__ = ("region", "paths", "out")

    def __init__(self, region: tuple, paths: tuple = (), out: str = None):
        self.region = region  # ("fan", vertex_label) or ("tris", (ids...))
        self.paths = paths    # line labels
        self.out = out


def _tokenize(text):
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        yield ln, body


def _num(tok: str):
    if "/" in tok:
        a, b = tok.split("/", 1)
        return Fraction(int(a), int(b))
    if "." in tok or "e" in tok or "E" in tok:
        return float(tok)
    return Fraction(int(tok))


def _fixture_fault(b, theta=0.0):
    """Why a fixture's barycentrics `b`, or a line's angle `theta`, name
    no point or direction, or None."""
    if not math.isfinite(theta):
        return f"angle {theta} is not finite"
    if any(isinstance(x, float) and not math.isfinite(x) for x in b):
        return "barycentrics must be finite"
    if any(x < 0 for x in b):
        return "barycentrics must not be negative"
    if not any(b):
        return "barycentrics must not all be zero"
    return None


def parse_manifold(text: str):
    """Parse SMF text. Returns (SmfDocument or None, [Diagnostic])."""
    doc = SmfDocument()
    diags = []
    saw_header = False
    for ln, body in _tokenize(text):
        toks = body.split()
        col = body.index(toks[0]) + 1
        kw = toks[0]
        try:
            if not saw_header:
                if kw != "smf":
                    diags.append(Diagnostic(ln, col, "MissingHeader",
                                            "file must start with 'smf <version>'"))
                    return None, diags
                if len(toks) != 2 or not toks[1].isdigit():
                    diags.append(Diagnostic(ln, col, "BadHeader",
                                            "expected 'smf <version>'"))
                    return None, diags
                doc.version = int(toks[1])
                if doc.version != SMF_VERSION:
                    diags.append(Diagnostic(ln, col, "BadVersion",
                                            f"unsupported version {doc.version}"))
                    return None, diags
                saw_header = True
                continue
            if kw == "model":
                if doc.model is not None:
                    diags.append(Diagnostic(ln, col, "BadModel",
                                            "a second 'model' line"))
                    continue
                if len(toks) < 2:
                    diags.append(Diagnostic(ln, col, "BadModel", "missing model name"))
                    continue
                params = {}
                ok = True
                for t in toks[2:]:
                    if "=" not in t:
                        diags.append(Diagnostic(ln, col, "BadModel",
                                                f"expected key=value, got {t!r}"))
                        ok = False
                        break
                    k, v = t.split("=", 1)
                    params[k] = v
                if ok:
                    doc.model = (toks[1], params, ln, col)
            elif kw == "t":
                if len(toks) != 4:
                    diags.append(Diagnostic(ln, col, "BadTriangle",
                                            "expected 't v0 v1 v2'"))
                    continue
                doc.triangles.append((int(toks[1]), int(toks[2]), int(toks[3]), ln))
            elif kw == "point":
                if len(toks) != 6:
                    diags.append(Diagnostic(ln, col, "BadPoint",
                                            "expected 'point L tri b0 b1 b2'"))
                    continue
                bary = tuple(_num(t) for t in toks[3:6])
                fault = _fixture_fault(bary)
                if fault:
                    diags.append(Diagnostic(ln, col, "BadPoint", fault))
                    continue
                doc.points[toks[1]] = (PointFixture(int(toks[2]), bary),
                                       ln, col)
            elif kw == "line":
                if len(toks) != 7:
                    diags.append(Diagnostic(ln, col, "BadLine",
                                            "expected 'line L tri b0 b1 b2 thetadeg'"))
                    continue
                bary = tuple(_num(t) for t in toks[3:6])
                theta = float(toks[6])
                fault = _fixture_fault(bary, theta)
                if fault:
                    diags.append(Diagnostic(ln, col, "BadLine", fault))
                    continue
                doc.lines[toks[1]] = (LineFixture(int(toks[2]), bary,
                                                  theta_deg=theta), ln, col)
            else:
                diags.append(Diagnostic(ln, col, "UnknownDirective", kw))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            diags.append(Diagnostic(ln, col, "BadNumber", str(exc)))
    if not saw_header:
        diags.append(Diagnostic(1, 1, "MissingHeader", "empty file"))
        return None, diags
    if doc.model is None and not doc.triangles:
        diags.append(Diagnostic(1, 1, "EmptyBody",
                                "need a 'model' line or triangle list"))
    if doc.model is not None and doc.triangles:
        diags.append(Diagnostic(1, 1, "MixedBody",
                                "cannot mix 'model' with explicit triangles"))
    if diags:
        return None, diags
    return doc, []


def to_triangulation(doc: SmfDocument):
    """Realize a document. Returns (Triangulation or None, [Diagnostic]).

    Only an explicit triangle list, which comes from outside, is checked
    whole (`surface.validate`).  A model comes back planned; the growth
    refusals that check it as it is built are BadModelParams here."""
    diags = []
    if doc.model is not None:
        name, params, ln, col = doc.model
        # Each builder with the one parameter it takes and its default.
        models = {"flat": (build_flat_plane, "radius", 3),
                  "semi_paradoxist": (build_semi_paradoxist, "radius", 4),
                  "silo": (build_silo, "rings", 3)}
        if name not in models:
            return None, [Diagnostic(ln, col, "UnknownModel", name)]
        build, key, default = models[name]
        extra = ", ".join(sorted(set(params) - {key}))
        if extra:
            return None, [Diagnostic(ln, col, "BadModelParams",
                                     f"model {name} takes {key}=, not {extra}")]
        try:
            surf = build(int(params.get(key, default)))
        except (ValueError, RuntimeError, SurfaceError) as exc:
            return None, [Diagnostic(ln, col, "BadModelParams", str(exc))]
    elif len(doc.triangles) > GROWTH_BUDGET:
        return None, [Diagnostic(1, 1, "BadTriangulation", f"{len(doc.triangles)} "
                                 f"triangles, over the growth budget of {GROWTH_BUDGET}")]
    else:
        uses = {}   # undirected edge -> its first use (u, w), then 2
        for (v0, v1, v2, ln) in doc.triangles:
            dup = None
            for u, w in ((v0, v1), (v1, v2), (v2, v0)):
                key = frozenset((u, w))
                first = uses.get(key)
                if first is None:
                    uses[key] = (u, w)
                elif first == 2:
                    return None, [Diagnostic(
                        ln, 1, "EdgeShared3",
                        f"edge ({u},{w}) already shared by two triangles")]
                else:
                    uses[key] = 2
                    # Used twice one way, the edge was never paired; a
                    # loop (u, u) pairs with itself.
                    if dup is None and first == (u, w) and u != w:
                        dup = first
            if dup is not None:
                return None, [Diagnostic(
                    ln, 1, "EdgeShared3",
                    f"duplicate directed edge ({dup[0]},{dup[1]})")]
        try:
            surf = from_triangles(tv[:3] for tv in doc.triangles)
        except SurfaceError as exc:
            return None, [Diagnostic(1, 1, "BadTriangulation", str(exc))]
    for kind, fixtures in (("point", doc.points), ("line", doc.lines)):
        for label, (fx, ln, col) in fixtures.items():
            if fx.tri >= surf.n_triangles():
                diags.append(Diagnostic(ln, col, "UnknownTriangle",
                                        f"{kind} {label}: triangle {fx.tri}"))
            else:
                surf.labels[label] = fx
    if not diags and doc.model is None:
        diags = validation_diagnostics(surf)
    return (None, diags) if diags else (surf, [])


def validation_diagnostics(surf) -> list:
    """The first 20 violations `surface.validate` finds, as diagnostics;
    on a planned surface this builds every sector."""
    return [Diagnostic(1, 1, v.kind, f"{v.element}: {v.detail}")
            for v in validate(surf).violations[:20]]


def print_manifold(doc: SmfDocument) -> str:
    """Canonical text for a document; print/parse round-trips."""
    out = [f"smf {doc.version}"]
    if doc.model is not None:
        name, params, _, _ = doc.model
        kv = " ".join(f"{k}={params[k]}" for k in sorted(params))
        out.append(f"model {name}{(' ' + kv) if kv else ''}")
    for (v0, v1, v2, _) in doc.triangles:
        out.append(f"t {v0} {v1} {v2}")
    for label in sorted(doc.points):
        fx = doc.points[label][0]
        b = " ".join(str(x) for x in fx.bary)
        out.append(f"point {label} {fx.tri} {b}")
    for label in sorted(doc.lines):
        fx = doc.lines[label][0]
        b = " ".join(str(x) for x in fx.bary)
        out.append(f"line {label} {fx.tri} {b} {fx.theta_deg:g}")
    return "\n".join(out) + "\n"


# -- scene queries ---------------------------------------------------------


def parse_scene(text: str, doc_labels):
    """Parse scene queries against known fixture labels.

    Returns (queries, [Diagnostic]); unresolved labels are diagnostics.
    """
    queries = []
    diags = []
    for ln, body in _tokenize(text):
        toks = body.split()
        col = body.index(toks[0]) + 1
        kw = toks[0]
        opts = {}
        pos = []
        bad = False
        for t in toks[1:]:
            if "=" in t:
                k, v = t.split("=", 1)
                opts[k] = v
            else:
                pos.append(t)
        try:
            if kw == "trace":
                if len(pos) != 1:
                    raise ValueError("expected 'trace <line> [arc=..]'")
                _need_label(pos[0], doc_labels, ln, col, diags)
                queries.append(TraceQuery(
                    pos[0], arc=_opt_float(opts, "arc"),
                    growth=_opt_int(opts, "growth"),
                    two_sided=opts.get("two_sided", "true") != "false"))
            elif kw == "classify":
                if len(pos) != 2:
                    raise ValueError("expected 'classify <point> <line>'")
                _need_label(pos[0], doc_labels, ln, col, diags)
                _need_label(pos[1], doc_labels, ln, col, diags)
                queries.append(ClassifyQuery(
                    pos[0], pos[1], arc=_opt_float(opts, "arc"),
                    growth=_opt_int(opts, "growth")))
            elif kw == "render":
                if len(pos) >= 2 and pos[0] == "fan":
                    _need_label(pos[1], doc_labels, ln, col, diags)
                    region = ("fan", pos[1])
                elif len(pos) >= 2 and pos[0] == "tris":
                    region = ("tris", tuple(int(x) for x in pos[1].split(",")))
                else:
                    raise ValueError("expected 'render fan <vertex>' or "
                                     "'render tris <id,id,...>'")
                paths = tuple(x for x in opts.get("paths", "").split(",") if x)
                for p in paths:
                    _need_label(p, doc_labels, ln, col, diags)
                queries.append(RenderQuery(region, paths, opts.get("out")))
            else:
                diags.append(Diagnostic(ln, col, "UnknownQuery", kw))
        except (ValueError, OverflowError) as exc:
            diags.append(Diagnostic(ln, col, "BadQuery", str(exc)))
    return queries, diags


def _need_label(label, labels, ln, col, diags):
    if label not in labels:
        diags.append(Diagnostic(ln, col, "UnknownLabel", label))


def _opt_float(opts, key):
    return positive(opts[key]) if key in opts else None


def _opt_int(opts, key):
    return positive_int(opts[key]) if key in opts else None


# -- structured reports -----------------------------------------------------


def classification_report(model_name, query, cls, budgets, mode, surface_hash,
                          config=None):
    """JSON-ready report for a classification result."""
    intervals = [{
        "lo": round(i.lo, 9),
        "hi": round(i.hi, 9),
        "status": i.status.kind,
        "witness": [round(x, 12) for x in i.witness],
    } for i in cls.intervals]
    isolated = [{
        "theta": round(i.theta, 9),
        "status": i.status.kind,
    } for i in cls.isolated]
    certs = []
    for i in list(cls.intervals) + list(cls.isolated):
        st = i.status
        if st.kind == "parallel":
            for c in st.certificates:
                entry = {"kind": c.kind}
                if c.kind == "closure":
                    entry["period"] = c.period
                elif c.kind == "ring_escape":
                    entry["escape_ring"] = c.escape_ring
                    entry["audit"] = c.audit_id
                elif c.kind == "flat_separation":
                    entry["detail"] = c.detail
                certs.append(entry)
    return {
        "model": model_name,
        "query": query,
        "result": {"kind": cls.kind, "count": cls.count,
                   "parallel_arcs": cls.parallel_arcs,
                   "crossing_arcs": cls.crossing_arcs,
                   "unknown_arcs": cls.unknown_arcs},
        "evidence": {"intervals": intervals, "isolated": isolated,
                     "certificates": certs},
        "budgets": {"arc": budgets.arc, "growth": budgets.growth},
        "mode": mode,
        "surface": surface_hash,
        "config": config or {},
    }


def dumps_report(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
