"""Tests of the benchmark's own oracle and tracer.

    python3 -m pytest bench/test_oracle.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

REFERENCE = json.loads((HERE / "trace_reference.json").read_text())["directions"]["67"]


def dumps(report):
    return json.dumps(report, indent=2, sort_keys=True)


def report(point, kind, count, unknown=0):
    return {"query": oracle.query_text(point),
            "result": {"kind": kind, "count": count, "unknown_arcs": unknown},
            "evidence": {"intervals": [], "isolated": []}}


def silo_data(**override):
    reps = []
    for p, (kind, count) in oracle.PAPER_TABLE["silo"].items():
        reps.append(override.get(p, report(p, kind, count)))
    return {"reports": reps}


POINTS = tuple(oracle.PAPER_TABLE["silo"])


def test_paper_verdicts_pass():
    o = oracle.Oracle(dumps)
    verdicts = o.check_scene("silo", POINTS, "float", 0, silo_data())
    assert o.fail_ratio == 0 and o.attempted == len(POINTS)
    assert verdicts["Qp"] == ("extremely_hyperbolic", 1)


def test_wrong_kind_raises_fail_ratio():
    o = oracle.Oracle(dumps)
    o.check_scene("silo", POINTS, "float", 0,
                  silo_data(R=report("R", "euclidean", 0)))
    assert o.failed == 1 and o.fail_ratio == pytest.approx(1 / len(POINTS))


def test_wrong_count_raises_fail_ratio():
    o = oracle.Oracle(dumps)
    o.check_scene("silo", POINTS, "float", 0,
                  silo_data(P=report("P", "euclidean", 2)))
    assert o.failed == 1


def test_unknown_arcs_raise_fail_ratio():
    o = oracle.Oracle(dumps)
    o.check_scene("silo", POINTS, "exact", 0,
                  silo_data(Q=report("Q", "regularly_hyperbolic", 0, unknown=1)))
    assert o.failed == 1


def test_nonzero_exit_and_exception_fail_every_query():
    o = oracle.Oracle(dumps)
    o.check_scene("silo", POINTS, "float", 1, None)
    o.check_scene("silo", POINTS, "float", None, None, error=RuntimeError("x"))
    assert o.failed == o.attempted == 2 * len(POINTS)


def test_missing_report_fails():
    o = oracle.Oracle(dumps)
    data = silo_data()
    data["reports"].pop()
    o.check_scene("silo", POINTS, "float", 0, data)
    assert o.failed == 1


def test_report_bytes_must_repeat_within_a_run():
    o = oracle.Oracle(dumps)
    o.check_scene("silo", POINTS, "float", 0, silo_data())
    changed = report("P", "euclidean", 1)
    changed["evidence"]["intervals"].append({"lo": 0.0})
    o.check_scene("silo", POINTS, "float", 0, silo_data(P=changed))
    assert o.failed == 1


def test_exact_float_disagreement_fails():
    o = oracle.Oracle(dumps)
    float_verdicts = {p: v for p, v in oracle.PAPER_TABLE["silo"].items()}
    float_verdicts["Qpp"] = ("regularly_hyperbolic", 0)
    o.check_scene("silo", POINTS, "exact", 0, silo_data(),
                  float_verdicts=float_verdicts)
    assert o.failed == 1


def reference_events():
    return [tuple(e) for e in REFERENCE["events"]]


def test_reference_trace_passes():
    o = oracle.Oracle(dumps)
    assert o.check_trace(reference_events(), REFERENCE)
    assert o.fail_ratio == 0


def test_longer_trace_reaching_the_arc_budget_passes():
    # Growing only what the trace reaches may carry it on to arc 15.
    events = reference_events()[:-1]
    events += [(events[-1][0] + 1.0, "EdgeCrossing"), (15.0, "ArcBudgetExhausted")]
    o = oracle.Oracle(dumps)
    assert o.check_trace(events, REFERENCE)


def test_diverging_trace_prefix_raises_fail_ratio():
    events = reference_events()
    arc, kind = events[5]
    events[5] = (arc + 1e-6, kind)
    o = oracle.Oracle(dumps)
    assert not o.check_trace(events, REFERENCE)
    assert o.fail_ratio == 1.0


def test_missing_event_in_prefix_fails():
    events = reference_events()
    del events[3]
    o = oracle.Oracle(dumps)
    assert not o.check_trace(events, REFERENCE)


def test_trace_must_end_in_growth_or_arc_budget():
    events = reference_events()
    events[-1] = (events[-1][0], "Closure")
    o = oracle.Oracle(dumps)
    assert not o.check_trace(events, REFERENCE)


def test_trace_stopping_short_of_the_reference_fails():
    events = reference_events()[:6]
    events.append((events[-1][0], "GrowthLimit"))
    o = oracle.Oracle(dumps)
    assert not o.check_trace(events, REFERENCE)


def test_tracer_wraps_every_binding_and_restores_it():
    from smfgeo import Scalars, build_silo, classify, engine, surface
    orig = surface.grow_frontier
    assert classify.grow_frontier is orig and engine.grow_frontier is orig
    surf = build_silo(1)
    with tracer.Tracer() as tr:
        assert classify.grow_frontier is not orig
        assert engine.grow_frontier is classify.grow_frontier
        grown = classify.ensure_rings(surf, len(surf.rings) + 1)
        assert Scalars("exact").half * 2 == 1
    assert classify.grow_frontier is orig and engine.grow_frontier is orig
    stats = tr.layer_stats()
    assert stats["surface.grow_frontier"]["calls"] == 1
    assert stats["classify.ensure_rings"]["calls"] == 1
    assert stats["numbers.Q3.__mul__"]["calls"] >= 1
    assert tr.max_triangles == grown.n_triangles()
    ensure = stats["classify.ensure_rings"]
    assert ensure["self_s"] <= ensure["s"]


def test_segment_is_scaled_by_the_mean_sample(monkeypatch):
    samples = iter([0.002, 0.004])
    monkeypatch.setattr(calibrate, "sample_seconds", lambda: next(samples))
    with calibrate.SpeedScale(0).segment() as seg:
        pass
    assert seg.scaled == pytest.approx(seg.wall * calibrate.REF_SAMPLE_S / 0.003)


def test_samples_taken_inside_a_segment_are_not_its_time(monkeypatch):
    def slow_sample():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.01:
            pass
        return 0.001
    monkeypatch.setattr(calibrate, "sample_seconds", slow_sample)
    t0 = time.perf_counter()
    with calibrate.SpeedScale(0.02).segment() as seg:
        for _ in range(3 * 10**6):
            pass
    inside = time.perf_counter() - t0 - 0.02   # less the two bracketing samples
    assert inside - seg.wall > 0.03            # several samples were taken out
    assert seg.scaled == pytest.approx(seg.wall * calibrate.REF_SAMPLE_S / 0.001)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(n, u) for n, u, _ in run.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"setup_s", "wall_s", "peak_rss_mb"}
