"""Command line front end.

Subcommands: validate, trace, classify, render, audit, search.  Exit
codes: 0 success, 1 diagnostics or violations, 2 usage errors.  Every
report embeds the effective run configuration and the content hash of
the triangulation it ran against, so identical inputs give identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple

from . import classify as cls_mod
from . import engine, smf
from .builders import (_CENTROID, MODELS, PointFixture, VertexFixture,
                       resolve_point, resolve_ray)
from .numbers import DEFAULT_EPS, Scalars, positive, positive_int
from .surface import GROWTH_BUDGET, GrowthLimitExceeded, SurfaceError

CONFIG_ENV = "SMFGEO_CONFIG"


class RunConfig(namedtuple(
        "RunConfig", "number_mode epsilon arc_budget growth_budget threads",
        defaults=("float", DEFAULT_EPS, engine.ARC_BUDGET, GROWTH_BUDGET, 1))):
    __slots__ = ()

    def scalars(self) -> Scalars:
        if self.number_mode == "exact":
            return Scalars("exact")
        return Scalars("float", eps=self.epsilon)

    def budgets(self) -> cls_mod.Budgets:
        return cls_mod.Budgets(self.arc_budget, self.growth_budget)


def _load_env_defaults():
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        out = {name: data[name] for name in RunConfig._fields if name in data}
        if out.get("number_mode", "float") not in ("float", "exact"):
            raise ValueError(f"{out['number_mode']!r} is not float or exact")
        for name in {"epsilon", "arc_budget"} & out.keys():
            out[name] = positive(out[name])
        for name in {"growth_budget", "threads"} & out.keys():
            out[name] = positive_int(out[name])
        return out
    except (OSError, TypeError, ValueError) as exc:
        print(f"warning: ignoring {CONFIG_ENV}: {exc}", file=sys.stderr)
        return {}


def _common_options(default=None):
    common = argparse.ArgumentParser(add_help=False, argument_default=default)
    common.add_argument("--exact", action="store_true",
                        help="run in the exact quadratic-field mode")
    common.add_argument("--epsilon", type=positive,
                        help="float-mode tolerance in edge lengths")
    common.add_argument("--arc-budget", type=positive)
    common.add_argument("--growth-budget", type=positive_int)
    common.add_argument("--threads", type=positive_int,
                        help="accepted for compatibility; queries run "
                             "sequentially")
    common.add_argument("-o", "--out", help="output path")
    return common


def _build_parser():
    # The shared options are accepted before and after the subcommand.
    # The subcommand's copy leaves unset options out of the namespace
    # (SUPPRESS), so it does not reset a value given before it.
    common = _common_options(argparse.SUPPRESS)
    p = argparse.ArgumentParser(
        prog="smfgeo", parents=[_common_options()],
        description="Piecewise-flat S-manifolds: geodesics and the "
                    "parallel-postulate taxonomy.")
    sub = p.add_subparsers(dest="command")
    sp = sub.add_parser("validate", parents=[common],
                        help="check a manifold file")
    sp.add_argument("smf")
    sp = sub.add_parser("trace", parents=[common], help="trace scene lines")
    sp.add_argument("smf")
    sp.add_argument("scene")
    sp = sub.add_parser("classify", parents=[common],
                        help="classify scene points (JSON report)")
    sp.add_argument("smf")
    sp.add_argument("scene")
    sp = sub.add_parser("render", parents=[common],
                        help="render scene regions as SVG")
    sp.add_argument("smf")
    sp.add_argument("scene")
    sp = sub.add_parser("audit", parents=[common],
                        help="audit ring convexity")
    sp.add_argument("smf")
    sp.add_argument("--rings", required=True, type=_ring_range,
                    help="a..b inclusive")
    sp = sub.add_parser("search", parents=[common],
                        help="scan a model family for finitely "
                             "hyperbolic candidates")
    sp.add_argument("family", help="flat | semi_paradoxist | silo")
    sp.add_argument("--rings", default="3..4", type=_ring_range,
                    help="family parameter range, a..b inclusive")
    return p


def _ring_range(text: str) -> range:
    """The rings `a..b`, inclusive, or the one ring `a`: the type of both
    `--rings` options, so a malformed or reversed range is a usage error."""
    lo, dots, hi = text.partition("..")
    try:
        rings = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        rings = None
    if not rings:
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}: expected a..b with a <= b")
    return rings


def _given(value, default):
    """A scene's budget where it gives one, else the configured one."""
    return default if value is None else value


def _config_from(args) -> RunConfig:
    base = RunConfig()._asdict()
    base.update(_load_env_defaults())
    if args.exact:
        base["number_mode"] = "exact"
    if args.epsilon is not None:
        base["epsilon"] = args.epsilon
    if args.arc_budget is not None:
        base["arc_budget"] = args.arc_budget
    if args.growth_budget is not None:
        base["growth_budget"] = args.growth_budget
    if args.threads is not None:
        base["threads"] = args.threads
    return RunConfig(**base)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_surface(path):
    """The triangulation of an SMF file, or None after printing its
    diagnostics."""
    doc, diags = smf.parse_manifold(_read(path))
    if not diags:
        surf, diags = smf.to_triangulation(doc)
    for d in diags:
        print(f"{path}:{d}", file=sys.stderr)
    return None if diags else surf


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    config = _config_from(args)
    try:
        return _dispatch(args, config)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, SurfaceError, engine.EngineError) as exc:
        # e.g. a scene angle the exact mode cannot represent, or a ray
        # at a frontier vertex into the missing part of its fan
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args, config: RunConfig) -> int:
    ctx = config.scalars()
    budgets = config.budgets()
    if args.command in ("validate", "trace", "classify", "render", "audit"):
        surf = _load_surface(args.smf)
        if surf is None:
            return 1
    if args.command == "validate":
        # Loading checked a triangle list whole; a model (the only surface
        # with a rule) loads planned, so it is completed and checked here.
        diags = [] if surf.rule is None else smf.validation_diagnostics(surf)
        for d in diags:
            print(f"{args.smf}:{d}", file=sys.stderr)
        if diags:
            return 1
        print(f"ok: {surf.n_triangles()} triangles, "
              f"{surf.n_vertices()} vertices, hash {surf.content_hash()}")
        return 0

    if args.command == "audit":
        out = {"model": args.smf, "mode": config.number_mode,
               "surface": surf.content_hash(), "config": config._asdict(),
               "audits": []}
        code = 0
        from .farfield import audit_ring_convexity
        for k in args.rings:
            try:
                a = audit_ring_convexity(surf, k)
                out["audits"].append({
                    "ring": k, "passed": a.passed, "id": a.audit_id,
                    "outward_angles": list(a.outward_angles)})
                if not a.passed:
                    code = 1
            except SurfaceError as exc:
                out["audits"].append({"ring": k, "error": str(exc)})
                code = 1
        _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out)
        return code

    if args.command == "search":
        if args.family not in MODELS:
            print(f"error: unknown family {args.family}", file=sys.stderr)
            return 2
        results = []
        for n in args.rings:
            try:
                s = MODELS[args.family][0](n)
            except ValueError as exc:
                print(f"note: {args.family}({n}) skipped: {exc}",
                      file=sys.stderr)
                continue
            try:
                s = cls_mod.ensure_rings(s, min(12, n + 6), budgets.growth)
            except GrowthLimitExceeded as exc:
                print(f"note: {args.family}({n}) skipped: {exc}",
                      file=sys.stderr)
                continue
            pts = [resolve_point(s, ctx, fx) for name, fx in sorted(s.labels.items())
                   if name in ("P", "Q", "R", "Qp", "Qpp")]
            pts.extend(_probe_points_near_curvature(s, ctx))
            lray = resolve_ray(s, ctx, s.labels["l"])
            found = cls_mod.search_finitely_hyperbolic(
                [(f"{args.family}({n})", s, ctx, lray, pts)], budgets)
            results.extend(found)
        out = {"family": args.family, "mode": config.number_mode,
               "config": config._asdict(),
               "candidates": [
                   {"model": f["model"], "point": repr(f["point"]),
                    "caveat": f["caveat"]} for f in results]}
        _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out)
        return 0

    queries, diags = smf.parse_scene(_read(args.scene), set(surf.labels))
    if diags:
        for d in diags:
            print(f"{args.scene}:{d}", file=sys.stderr)
        return 1

    if args.command == "trace":
        tqs = [q for q in queries if isinstance(q, smf.TraceQuery)]
        if not tqs:
            print("error: no trace query in scene", file=sys.stderr)
            return 1
        out = {"model": args.smf, "mode": config.number_mode,
               "surface": surf.content_hash(), "config": config._asdict(),
               "traces": []}
        for q in tqs:
            ray = resolve_ray(surf, ctx, surf.labels[q.line_label])
            path = engine.trace(ray, surf, ctx,
                                arc_budget=_given(q.arc, config.arc_budget),
                                growth_budget=_given(q.growth,
                                                     config.growth_budget),
                                two_sided=q.two_sided)
            period = engine.detect_closure(path)
            out["traces"].append({
                "line": q.line_label,
                "segments": len(path.segments),
                "arc_length": round(path.arc_length, 9),
                "closed": period is not None,
                "period": period,
                "events": _event_summary(path),
            })
        _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out)
        return 0

    if args.command == "classify":
        cqs = [q for q in queries if isinstance(q, smf.ClassifyQuery)]
        if not cqs:
            print("error: no classify query in scene", file=sys.stderr)
            return 1
        session = cls_mod.Session(surf, ctx)

        def run_one(q):
            b = cls_mod.Budgets(_given(q.arc, config.arc_budget),
                                _given(q.growth, config.growth_budget))
            cls, s2, _, _ = cls_mod.classify_labeled(
                surf, ctx, q.point_label, q.line_label, b, session)
            return smf.classification_report(
                args.smf, f"classify {q.point_label} {q.line_label}",
                cls, b, config.number_mode, s2.content_hash(),
                config._asdict())

        # Threads do not speed up this pure-Python work, so --threads is
        # accepted and the queries run one after another.
        reports = [run_one(q) for q in cqs]
        _emit(json.dumps({"reports": reports}, indent=2, sort_keys=True) + "\n",
              args.out)
        return 0

    if args.command == "render":
        from . import netdraw   # here, so no other command loads it
        rqs = [q for q in queries if isinstance(q, smf.RenderQuery)]
        if not rqs:
            print("error: no render query in scene", file=sys.stderr)
            return 1
        code = 0
        for i, q in enumerate(rqs):
            if q.region[0] == "fan":
                fx = surf.labels[q.region[1]]
                if not isinstance(fx, VertexFixture):
                    print(f"error: {q.region[1]} is not a vertex fixture",
                          file=sys.stderr)
                    code = 1
                    continue
                tris = netdraw.fan_region(surf, fx.vertex)
            else:
                tris = list(q.region[1])
                n = surf.n_triangles()
                missing = [t for t in tris if not 0 <= t < n]
                if missing:
                    print(f"error: triangle {missing[0]} is not in the "
                          f"surface ({n} triangles)", file=sys.stderr)
                    code = 1
                    continue
            paths = []
            for label in q.paths:
                ray = resolve_ray(surf, ctx, surf.labels[label])
                paths.append((label, engine.trace(
                    ray, surf, ctx, arc_budget=min(config.arc_budget, 8.0),
                    growth_budget=surf.n_triangles(), two_sided=True)))
            point_labels = []
            inset = set(tris)
            for name, fx in sorted(surf.labels.items()):
                if name.startswith("_"):
                    continue
                try:
                    sp = resolve_point(surf, ctx, fx)
                except (SurfaceError, TypeError):
                    # TypeError: a decimal barycentric has no exact value
                    continue
                if sp.tri in inset:
                    point_labels.append((name, sp))
            try:
                drawing = netdraw.draw_region(surf, ctx, tris, paths=paths,
                                              point_labels=point_labels)
            except netdraw.RegionNotUnfoldable as exc:
                print(f"error: {exc}", file=sys.stderr)
                code = 1
                continue
            svg = netdraw.render_svg(drawing)
            target = q.out or args.out or f"net_{i}.svg"
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(svg)
            print(f"wrote {target}: {len(drawing.triangles)} triangles, "
                  f"{len(drawing.polylines)} polylines, "
                  f"{len(drawing.cut_edges)} cut edges "
                  f"(config {json.dumps(config._asdict(), sort_keys=True)})")
        return code

    print(f"error: unhandled command {args.command}", file=sys.stderr)
    return 2


def _probe_points_near_curvature(surf, ctx, limit=24):
    """Centroids of triangles surrounding the non-flat vertices; these
    neighborhoods are where isolated parallel directions can pin to a
    line through a degree-7 vertex."""
    near = {}   # fan triangles and their neighbours, in the order met
    for v in surf.curved_vertices():
        if len(near) >= limit:
            break
        for t, _ in surf.fan_ccw(v):
            near[t] = None
            for e in range(3):
                nbr = surf.neighbor(t, e)
                if nbr:
                    near[nbr[0]] = None
    return [resolve_point(surf, ctx, PointFixture(t, _CENTROID))
            for t in list(near)[:limit]]


def _event_summary(path):
    out = []
    for a, ev in path.events:
        name = type(ev).__name__
        entry = {"arc": round(a, 9), "event": name}
        if isinstance(ev, engine.VertexCrossing):
            entry["vertex"] = ev.vertex
            entry["cone_deg"] = ev.cone_angle_deg
        out.append(entry)
    return out


if __name__ == "__main__":
    sys.exit(main())
