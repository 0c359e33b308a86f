#!/usr/bin/env python3
"""smfgeo benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (single process, single thread):

  fixtures_float  `cli.main(["classify", ...])` in process, once per scene:
                  silo rings=6 (P, R, Q, Qp, Qpp), semi_paradoxist
                  radius=4 (P, Q, R) and flat radius=3 (P), float mode.
  fixtures_exact  the silo and semi scenes with --exact.  A float pass
                  over the same scenes runs first, untimed, for the
                  mode-agreement check.
  trace_grow      the public `trace` from silo(3), triangle 20,
                  barycentric (0.2, 0.3, 0.5), arc 15, growth budget 1e6,
                  in a seeded direction of 61..73 degrees; it grows the
                  surface to about 840k triangles.

With --trace 0 the run prints the end-to-end metrics: setup_s (import
in a fresh interpreter, input generation and base surfaces; median of
set-ups spread over the run), wall_s (median wall time of one pass;
passes repeat until --seconds have elapsed) and peak_rss_mb (ru_maxrss of this process).  Both times
are in reference seconds: every timed segment is scaled by the host's
speed sampled while it ran (see calibrate.py), so that the host's
changing speed does not show; the unscaled medians are printed too.  With
--trace 1 it makes the same untraced passes, then one more pass with
every layer wrapped (see tracer.py), and prints the per-layer metrics
and the tracing overhead.  Every output is checked (see oracle.py);
the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("fixtures_float", "fixtures_exact", "trace_grow")
# Set-ups per run: one before the first pass, one after every pass (so
# the samples span the run, like the passes), and more at the end until
# there are this many.
SETUP_REPEATS = 9
# No pass starts if the previous pass's duration would carry the run
# past this many seconds; every run must end well inside 180 s.
DEADLINE_S = 140.0

# Per-layer metrics: (name, unit, end-to-end metric and workload it
# should move).  Names are "<module>.<layer>.<field>"; fields are
# calls (exact count), s (inclusive seconds) and self_s (inclusive
# minus child spans).
PER_LAYER = [
    ("numbers.Q3.__mul__.calls", "count", "wall_s on fixtures_exact"),
    ("numbers.Q3.__mul__.s", "s", "wall_s on fixtures_exact"),
    ("numbers.Q3.sign.calls", "count", "wall_s on fixtures_exact"),
    ("numbers.Q3.sign.s", "s", "wall_s on fixtures_exact"),
    ("numbers.Q3.__float__.calls", "count", "wall_s on fixtures_float"),
    ("numbers.Scalars.cos_sin_deg.calls", "count", "wall_s on fixtures_float"),
    ("numbers.Scalars.cos_sin_deg.s", "s", "wall_s on fixtures_float"),
    ("chart.rotate.calls", "count", "wall_s on both fixture workloads"),
    ("chart.rotate.s", "s", "wall_s on both fixture workloads"),
    ("chart.Isometry.apply.calls", "count", "wall_s on both fixture workloads"),
    ("chart.Isometry.apply.s", "s", "wall_s on both fixture workloads"),
    ("chart.segment_intersection.calls", "count",
     "wall_s on both fixture workloads"),
    ("surface.grow_frontier.calls", "count",
     "wall_s, peak_rss_mb on trace_grow; wall_s on fixtures_float"),
    ("surface.grow_frontier.s", "s",
     "wall_s, peak_rss_mb on trace_grow; wall_s on fixtures_float"),
    ("surface.triangles", "count",
     "wall_s, peak_rss_mb on trace_grow; wall_s on fixtures_float"),
    ("surface.Triangulation.transfer.calls", "count",
     "wall_s on the fixture workloads"),
    ("surface.Triangulation.transfer.s", "s", "wall_s on the fixture workloads"),
    ("surface.Triangulation.fan_ccw.calls", "count",
     "wall_s on the fixture workloads"),
    ("surface.canonicalize_point.calls", "count",
     "wall_s on the fixture workloads"),
    ("surface.Triangulation.content_hash.s", "s",
     "wall_s on the fixture workloads"),
    ("engine.step.calls", "count", "wall_s on the fixture workloads"),
    ("engine.step.s", "s", "wall_s on the fixture workloads"),
    ("engine.transfer_edge.calls", "count", "wall_s on the fixture workloads"),
    ("engine.transfer_edge.s", "s", "wall_s on the fixture workloads"),
    ("engine.cross_vertex.calls", "count", "wall_s on the fixture workloads"),
    ("engine.cross_vertex.s", "s", "wall_s on the fixture workloads"),
    ("engine.fan_frames.calls", "count", "wall_s on the fixture workloads"),
    ("engine.fan_frames.s", "s", "wall_s on the fixture workloads"),
    ("engine.link_iso.calls", "count", "wall_s on the fixture workloads"),
    ("engine.link_iso.s", "s", "wall_s on the fixture workloads"),
    ("engine.trace.s", "s", "wall_s on trace_grow"),
    ("farfield.audit_ring_convexity.calls", "count", "wall_s on fixtures_float"),
    ("farfield.audit_ring_convexity.s", "s", "wall_s on fixtures_float"),
    ("farfield.BandFrame.s", "s", "wall_s on fixtures_float"),
    ("farfield.FlatComplement.s", "s",
     "wall_s on the fixture workloads (semi and flat queries)"),
    ("farfield.tails_meet.calls", "count",
     "wall_s on the fixture workloads (semi and flat queries)"),
    ("farfield.split_tail_at_cut.calls", "count",
     "wall_s on the fixture workloads (semi and flat queries)"),
    ("classify.classify_labeled.s.p50", "s", "wall_s on the fixture workloads"),
    ("classify.classify_labeled.s.max", "s", "wall_s on the fixture workloads"),
    ("classify.ModelAnalysis.s", "s",
     "wall_s on the fixture workloads (shared-line caching)"),
    ("classify.build_line_context.s", "s",
     "wall_s on the fixture workloads (shared-line caching)"),
    ("classify.ensure_rings.s", "s",
     "wall_s on the fixture workloads (shared-line caching)"),
    ("classify.classify_point.s", "s", "wall_s on the fixture workloads"),
    ("classify.classify_point.self_s", "s", "wall_s on the fixture workloads"),
    ("classify.probes", "count", "wall_s on the fixture workloads"),
    ("classify.settled_per_probe", "ratio", "wall_s on the fixture workloads"),
    ("classify.unknown_arcs", "count", "fail_ratio; stays 0"),
    ("smf.parse_manifold.s", "s", "wall_s on the fixture workloads"),
    ("smf.to_triangulation.s", "s", "wall_s on the fixture workloads"),
    ("smf.classification_report.s", "s", "wall_s on the fixture workloads"),
    ("smf.dumps_report.s", "s", "wall_s on the fixture workloads"),
    ("cli.main.self_s", "s", "wall_s on the fixture workloads"),
    ("builders.resolve_point.calls", "count", "wall_s on the fixture workloads"),
    ("builders.resolve_point.s", "s", "wall_s on the fixture workloads"),
    ("builders.resolve_ray.calls", "count", "wall_s on the fixture workloads"),
    ("builders.resolve_ray.s", "s", "wall_s on the fixture workloads"),
    ("tracer.overhead_s", "s", "none: traced minus untraced wall_s"),
]


def _import_fresh():
    """Start a fresh interpreter and import the package in it."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import smfgeo",
                    str(SRC)], cwd=ROOT, capture_output=True, timeout=60,
                   check=True)


class FixtureWorkload:
    """`smfgeo classify` on the named fixtures, one command per scene."""

    def __init__(self, exact, oracle, workdir):
        self.exact = exact
        self.oracle = oracle
        self.workdir = workdir
        self.scenes = []
        self.float_verdicts = {}
        self.last_reports = []

    def describe(self):
        return " ".join(f"{s.name}({','.join(s.points)})" for s in self.scenes)

    def setup(self, seed):
        from smfgeo import smf
        import inputs
        self.scenes = inputs.write_fixture_inputs(seed, self.exact, self.workdir)
        for s in self.scenes:
            doc, diags = smf.parse_manifold(s.smf_path.read_text(encoding="utf-8"))
            if not diags:
                surf, diags = smf.to_triangulation(doc)
            if diags:
                raise RuntimeError(f"{s.smf_path}: {diags}")

    def before_timing(self, scale):
        """Exact mode: an untimed float pass gives the reference verdicts."""
        if self.exact:
            self.float_verdicts = self._pass(scale, exact=False)[2]

    def _pass(self, scale, exact, float_verdicts=None):
        from smfgeo import cli
        mode = "exact" if exact else "float"
        wall = scaled = 0.0
        verdicts = {}
        reports = []
        for s in self.scenes:
            out = self.workdir / f"{s.name}.{mode}.json"
            argv = ["classify", str(s.smf_path), str(s.scene_path), "-o", str(out)]
            if exact:
                argv.append("--exact")
            rc, data, error = None, None, None
            with scale.segment() as seg:
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # a crash is a failed output, not a stop
                    error = exc
            wall += seg.wall
            scaled += seg.scaled
            if error is None and rc == 0:
                data = json.loads(out.read_text(encoding="utf-8"))
                reports.extend(data["reports"])
            verdicts[s.name] = self.oracle.check_scene(
                s.name, s.points, mode, rc, data, error,
                (float_verdicts or {}).get(s.name))
        self.last_reports = reports
        return wall, scaled, verdicts

    def run_pass(self, scale):
        """(wall seconds, reference seconds) of one pass."""
        return self._pass(scale, self.exact, self.float_verdicts)[:2]

    def layer_extras(self, tr):
        settled = sum(len(r["evidence"]["intervals"]) + len(r["evidence"]["isolated"])
                      for r in self.last_reports)
        probes = tr.count_under("engine.ray_canonical", "classify.classify_point")
        return {
            "classify.probes": probes,
            "classify.settled_per_probe": settled / probes if probes else 0.0,
            "classify.unknown_arcs": sum(r["result"]["unknown_arcs"]
                                         for r in self.last_reports),
        }


class TraceWorkload:
    """One long trace into the silo's degree-7 region; it grows the surface."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.reference = json.loads((HERE / "trace_reference.json")
                                    .read_text(encoding="utf-8"))

    def describe(self):
        return f"direction {self.degrees} deg"

    def setup(self, seed):
        from smfgeo import Scalars, build_silo, make_ray
        import inputs
        rings, tri, bary, self.degrees = inputs.trace_ray_spec(seed)
        self.ctx = Scalars("float")
        self.surf = build_silo(rings)
        self.ray = make_ray(self.surf, self.ctx, tri, bary,
                            self.ctx.direction(float(self.degrees)))

    def before_timing(self, scale):
        pass

    def run_pass(self, scale):
        """(wall seconds, reference seconds) of one pass."""
        import inputs
        from smfgeo import engine
        events = []
        with scale.segment() as seg:
            try:
                path = engine.trace(self.ray, self.surf, self.ctx,
                                    arc_budget=inputs.TRACE_ARC,
                                    growth_budget=inputs.TRACE_GROWTH)
            except Exception:  # a crash is a failed output, not a stop
                path = None
        if path is not None:
            events = [(a, type(ev).__name__) for a, ev in path.events]
        del path
        self.oracle.check_trace(events,
                                self.reference["directions"][str(self.degrees)])
        return seg.wall, seg.scaled

    def layer_extras(self, tr):
        return {"classify.probes": 0, "classify.settled_per_probe": 0.0,
                "classify.unknown_arcs": 0}


def _layer_metrics(tr, extras, overhead):
    stats = tr.layer_stats()
    values = {}
    for name, unit, _ in PER_LAYER:
        if name in extras:
            values[name] = extras[name]
        elif name == "surface.triangles":
            values[name] = tr.max_triangles
        elif name == "tracer.overhead_s":
            values[name] = overhead
        elif name.endswith(".s.p50") or name.endswith(".s.max"):
            durs = stats[name[:-6]]["durations"]
            pick = statistics.median if name.endswith("p50") else max
            values[name] = pick(durs) if durs else 0.0
        else:
            layer, field = name.rsplit(".", 1)
            values[name] = stats[layer][field]
    return {n: {"value": values[n], "unit": u} for n, u, _ in PER_LAYER}


def run(workload, seed, seconds, traced):
    import calibrate
    import oracle as oracle_mod
    from smfgeo import smf
    t_run = time.perf_counter()
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_run"))
    try:
        # Looked up per call, so that the traced pass times it too.
        oracle = oracle_mod.Oracle(lambda report: smf.dumps_report(report))
        if workload == "trace_grow":
            wl = TraceWorkload(oracle)
        else:
            wl = FixtureWorkload(workload == "fixtures_exact", oracle, workdir)

        scale = calibrate.SpeedScale()
        setups, raw_setups = [], []

        def set_up():
            with scale.segment() as seg:
                _import_fresh()
                wl.setup(seed)
            raw_setups.append(seg.wall)
            setups.append(seg.scaled)

        set_up()
        print(f"seed {seed}, workload {workload}: {wl.describe()}")

        wl.before_timing(scale)
        walls, raw_walls = [], []
        t_loop = time.perf_counter()
        while True:
            gc.collect()
            raw, scaled = wl.run_pass(scale)
            raw_walls.append(raw)
            walls.append(scaled)
            set_up()
            now = time.perf_counter()
            if now - t_loop >= seconds or now - t_run + raw > DEADLINE_S:
                break
        while len(setups) < SETUP_REPEATS:
            set_up()
        wall = statistics.median(walls)
        print("passes: " + " ".join(f"{w:.3f}" for w in raw_walls) + " s, "
              + " ".join(f"{w:.3f}" for w in walls) + " reference s")
        print(f"unscaled medians: wall_s {statistics.median(raw_walls)!r} s, "
              f"setup_s {statistics.median(raw_setups)!r} s")

        if traced:
            import tracer
            gc.collect()
            # No samples inside the traced pass, so that no span holds one.
            with tracer.Tracer() as tr:
                wall_traced = wl.run_pass(calibrate.SpeedScale(0))[1]
            metrics = _layer_metrics(tr, wl.layer_extras(tr), wall_traced - wall)
            print(f"traced pass {wall_traced:.3f} s, untraced median "
                  f"{wall:.3f} s over {len(walls)} passes (reference s)")
            print("kernels counted with aggregate time, not recorded as spans: "
                  + ", ".join(f"{m}.{p}" for m, p in tracer.KERNEL_LAYERS))
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
        samples = {"setup_s": len(setups), "wall_s": len(walls)}
        for name, m in metrics.items():
            n = samples.get(name, 1)
            print(f"{name} = {m['value']!r} {m['unit']} ({n} sample{'s' * (n > 1)})")
        print(f"fail_ratio = {oracle.failed}/{oracle.attempted} = "
              f"{oracle.fail_ratio!r} ratio ({oracle.attempted} outputs)")
        for reason, n in sorted(oracle.reasons.items()):
            print(f"FAILED x{n}: {reason}")
        print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}")
        return {"correct": oracle.failed == 0, "attempted": oracle.attempted,
                "failed": oracle.failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "smfgeo" / "__init__.py").is_file():
        print(f"error: no smfgeo sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
