"""One `classify.Session` per classify command.

A command's queries share each grown surface, its ModelAnalysis and each
line context; the reports must be the ones each query gives alone, and
the growth budget must bound the surfaces a query grows.
"""

import json

import pytest

from smfgeo import classify, cli, engine, smf, surface
from smfgeo.builders import build_silo, build_flat_plane
from smfgeo.classify import Budgets
from smfgeo.engine import EdgeCrossing, make_ray
from smfgeo.numbers import Scalars

from conftest import built

FLOAT = Scalars("float")
MODELS = {
    "silo": "model silo rings=6",
    "semi": "model semi_paradoxist radius=4",
}


@pytest.fixture
def run(tmp_path, monkeypatch):
    """run(model, scene lines, *flags) -> (exit code, [report bytes])."""
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    count = [0]

    def go(model, lines, *flags):
        count[0] += 1
        # One model file per model, so reports name the same model.
        smf_path = tmp_path / f"{model}.smf"
        smf_path.write_text(f"smf 1\n{MODELS[model]}\n")
        scene = tmp_path / f"{count[0]}.scn"
        scene.write_text("".join(f"{q}\n" for q in lines))
        out = tmp_path / f"{count[0]}.json"
        code = cli.main(["classify", *flags, str(smf_path), str(scene),
                         "-o", str(out)])
        reports = json.loads(out.read_text())["reports"] if code == 0 else []
        return code, [smf.dumps_report(r) for r in reports]

    return go


def _alone(run, model, points, *flags):
    got = {}
    for p in points:
        code, reports = run(model, [f"classify {p} l"], *flags)
        assert code == 0 and len(reports) == 1
        got[p] = reports[0]
    return got


@pytest.mark.parametrize("model,orders", [
    ("silo", [("P", "R", "Q", "Qp", "Qpp"), ("Qpp", "Q", "Qp", "R", "P"),
              ("Qp", "P", "Qpp", "R", "Q")]),
    ("semi", [("P", "Q", "R"), ("R", "P", "Q"), ("Q", "R", "P")]),
])
def test_shared_session_reports_equal_one_query_commands(run, model, orders):
    alone = _alone(run, model, orders[0])
    for order in orders:
        code, reports = run(model, [f"classify {p} l" for p in order])
        assert code == 0
        assert reports == [alone[p] for p in order]


@pytest.mark.parametrize("model,order", [
    ("silo", ("Qp", "P", "Qpp", "Q", "R")),
    ("semi", ("R", "P", "Q")),
])
def test_shared_session_reports_equal_alone_in_exact_mode(run, model, order):
    alone = _alone(run, model, order, "--exact")
    code, reports = run(model, [f"classify {p} l" for p in order], "--exact")
    assert code == 0
    assert reports == [alone[p] for p in order]


def test_one_analysis_per_surface_and_one_context_per_key(run, monkeypatch):
    analyses = []
    contexts = []
    queries = []
    real_analysis = classify.ModelAnalysis
    real_context = classify.build_line_context
    real_labeled = classify.classify_labeled

    def counting_analysis(surf, ctx):
        analyses.append(surf)
        return real_analysis(surf, ctx)

    def counting_context(surf, ctx, ray, analysis, budgets, min_core=None):
        contexts.append((id(surf), ray, min_core, budgets))
        return real_context(surf, ctx, ray, analysis, budgets, min_core)

    def recording_labeled(*args, **kwargs):
        got = real_labeled(*args, **kwargs)
        queries.append(got)
        return got

    monkeypatch.setattr(classify, "ModelAnalysis", counting_analysis)
    monkeypatch.setattr(classify, "build_line_context", counting_context)
    monkeypatch.setattr(classify, "classify_labeled", recording_labeled)

    # silo: P, R and Q run on the base surface, Qp and Qpp on 12 rings.
    code, _ = run("silo", ["classify Qp l", "classify P l", "classify Qpp l",
                           "classify R l", "classify Q l", "classify P l"])
    assert code == 0
    surfaces = {id(s): s for _, s, _, _ in queries}
    assert len(surfaces) == 2
    assert sorted(len(s.rings) for s in surfaces.values()) == [10, 12]
    assert sorted(map(id, analyses)) == sorted(surfaces)
    assert len(contexts) == len(set(contexts)) == 2
    assert len({id(lctx) for *_, lctx in queries}) == 2

    # semi: Q and R share a core ring, P needs a wider one, and a query
    # with its own arc budget needs its own context.
    analyses.clear(), contexts.clear(), queries.clear()
    code, _ = run("semi", ["classify Q l", "classify P l", "classify R l",
                           "classify Q l arc=150"])
    assert code == 0
    assert len(analyses) == 1
    assert len(contexts) == len(set(contexts)) == 3
    q, p, r, q_arc = (lctx for *_, lctx in queries)
    assert q is r
    assert p.core_ring > q.core_ring
    assert q_arc is not q and q_arc.core_ring == q.core_ring


def test_growth_budget_bounds_classify(run, monkeypatch):
    grown = []
    real_grow = classify.grow_frontier

    def counting_grow(*args, **kwargs):
        out = real_grow(*args, **kwargs)
        grown.append(len(out.tris))
        return out

    monkeypatch.setattr(classify, "grow_frontier", counting_grow)
    code, reports = run("silo", ["classify Qp l"], "--growth-budget", "3000")
    assert code == 0
    assert all(n <= 3000 for n in grown)
    rep = json.loads(reports[0])
    assert rep["result"]["kind"] == classify.UNDETERMINED
    assert rep["result"]["unknown_arcs"] == 1
    assert rep["budgets"]["growth"] == 3000


def test_out_of_budget_query_names_the_growth_budget():
    silo = build_silo(6)
    cls, surf, analysis, lctx = classify.classify_labeled(
        silo, FLOAT, "Qp", "l", Budgets(200.0, 3000))
    assert surf is silo and analysis is None and lctx is None
    assert cls.kind == classify.UNDETERMINED and cls.unknown_arcs == 1
    [arc] = cls.intervals
    assert arc.status.kind == "unknown"
    assert "growth budget" in arc.status.reason
    # Queries that need no growth still run at that budget.
    cls, surf, _, _ = classify.classify_labeled(
        silo, FLOAT, "P", "l", Budgets(200.0, 3000))
    assert surf is silo and cls.kind == classify.EUCLIDEAN


def test_session_refuses_a_held_surface_over_a_smaller_budget():
    session = classify.Session(build_silo(6), FLOAT)
    big = session.grown(12, 10**6)
    assert len(big.rings) == 12
    assert session.grown(12, 10**6) is big
    before = built(big)
    assert before < big.n_triangles()
    with pytest.raises(surface.GrowthLimitExceeded):
        session.grown(12, 3000)
    assert built(big) == before   # refused without building it
    assert session.grown(3, 3000) is session.base


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_far_silo_queries_leave_their_surface_partly_built(mode, monkeypatch):
    ctx = Scalars(mode)
    audits = []   # (ring, built before, built after) per audit run
    real_audit = classify.ModelAnalysis.audit

    def recording_audit(self, k):
        before = built(self.surf)
        got = real_audit(self, k)
        audits.append((k, before, built(self.surf)))
        return got

    monkeypatch.setattr(classify.ModelAnalysis, "audit", recording_audit)

    def reports(complete_first):
        silo = build_silo(6)
        session = classify.Session(silo, ctx)
        if complete_first:
            session.grown(12, Budgets().growth).tris
        out = []
        for p in ("Qpp", "Qp"):
            cls, surf, _, _ = classify.classify_labeled(
                silo, ctx, p, "l", Budgets(), session)
            out.append(smf.dumps_report(smf.classification_report(
                "silo.smf", f"classify {p} l", cls, Budgets(), mode,
                surf.content_hash())))
        return out, surf

    lazy, surf = reports(False)
    assert surf.n_triangles() == 17_875 and len(surf.rings) == 12
    assert built(surf) < surf.n_triangles()
    assert audits and all(before == after for _, before, after in audits)
    whole, completed = reports(True)
    assert built(completed) == completed.n_triangles()
    assert lazy == whole


def test_grown_surfaces_match_one_step_growth():
    session = classify.Session(build_silo(6), FLOAT)
    eleven = session.grown(11, 10**6)
    twelve = session.grown(12, 10**6)
    assert twelve.content_hash() == \
        surface.grow_frontier(build_silo(6), 2).content_hash()
    assert eleven.content_hash() == \
        surface.grow_frontier(build_silo(6), 1).content_hash()


def test_edge_crossings_carry_their_gluing():
    surf = build_flat_plane(3)
    ray = make_ray(surf, FLOAT, 0, (FLOAT.of(1) / 3,) * 3,
                   FLOAT.direction(17.0))
    path = engine.trace(ray, surf, FLOAT, arc_budget=5.0,
                        growth_budget=len(surf.tris))
    crossings = [ev for _, ev in path.events if isinstance(ev, EdgeCrossing)]
    assert crossings
    for ev in crossings:
        want = surf.transfer(FLOAT, ev.tri, ev.edge)
        got = ev.gluing
        assert (got.k, got.tx, got.ty) == (want.k, want.tx, want.ty)
