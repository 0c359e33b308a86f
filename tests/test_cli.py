import json

import pytest

from smfgeo import builders, cli

SILO_SMF = "smf 1\nmodel silo rings=6\n"
SEMI_SMF = "smf 1\nmodel semi_paradoxist radius=4\n"
BROKEN_SMF = "smf 1\nt 0 1 2\nt 1 0 3\nt 0 1 4\n"


@pytest.fixture()
def files(tmp_path):
    d = {}
    for name, text in (("silo.smf", SILO_SMF), ("semi.smf", SEMI_SMF),
                       ("broken.smf", BROKEN_SMF)):
        p = tmp_path / name
        p.write_text(text)
        d[name] = str(p)
    d["dir"] = tmp_path
    return d


def test_validate_ok(files, capsys):
    assert cli.main(["validate", files["silo.smf"]]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out and "hash" in out


def test_validate_broken_exits_1(files, capsys):
    assert cli.main(["validate", files["broken.smf"]]) == 1
    err = capsys.readouterr().err
    assert "EdgeShared3" in err


def test_oversized_model_is_a_diagnostic(tmp_path, capsys):
    # The flat disk of radius 2000 would pass the default growth budget.
    p = tmp_path / "big.smf"
    p.write_text("smf 1\nmodel flat radius=2000\n")
    assert cli.main(["validate", str(p)]) == 1
    err = capsys.readouterr().err
    assert "BadModelParams" in err and "Traceback" not in err


@pytest.mark.parametrize("body,query,diagnostic", [
    ("model silo rings=3\nline m 0 2 -1 0 30", "trace m",
     "BadLine: barycentrics must not be negative"),
    ("model silo rings=3\nline m 0 0 0 0 30", "trace m",
     "BadLine: barycentrics must not all be zero"),
    ("model silo rings=3\nline m 0 1/2 1/2 0 nan", "trace m",
     "BadLine: angle nan is not finite"),
    ("model silo rings=3\npoint X 0 2 -1 0", "classify X l",
     "BadPoint: barycentrics must not be negative"),
    # A line at a corner of two triangles, pointing where the fan is
    # missing.
    ("t 0 1 2\nt 0 2 3\nline m 0 1 0 0 -30", "trace m",
     "error: vertex 0: the direction lies past the open edge"),
], ids=["negative", "all-zero", "nan-angle", "negative-point",
        "frontier-fan"])
def test_input_the_engine_cannot_place_is_a_diagnostic(
        tmp_path, capsys, body, query, diagnostic):
    model = tmp_path / "m.smf"
    model.write_text(f"smf 1\n{body}\n")
    scene = tmp_path / "m.scn"
    scene.write_text(query + "\n")
    assert cli.main([query.split()[0], str(model), str(scene)]) == 1
    err = capsys.readouterr().err
    assert diagnostic in err and "Traceback" not in err


def test_line_clipping_a_corner_traces(tmp_path):
    # A microchord of this line clips the corner of triangle 0, so its
    # back direction at vertex 1 lies in the clockwise neighbour's sector.
    model = tmp_path / "m.smf"
    model.write_text("smf 1\nmodel silo rings=6\n"
                     "line m 25 1/3 1/3 1/3 126.58677553417182\n")
    scene = tmp_path / "m.scn"
    scene.write_text("trace m\n")
    out_path = tmp_path / "trace.json"
    assert cli.main(["trace", str(model), str(scene),
                     "-o", str(out_path)]) == 0
    events = json.loads(out_path.read_text())["traces"][0]["events"]
    assert {"vertex": 1, "cone_deg": 300} in [
        {k: e[k] for k in ("vertex", "cone_deg")} for e in events
        if e["event"] == "VertexCrossing"]


def test_usage_error_exit_2(files, capsys):
    assert cli.main([]) == 2
    assert cli.main(["classify", files["silo.smf"]]) == 2


def test_trace_closed_circle(files, tmp_path, capsys):
    scene = tmp_path / "t.scn"
    scene.write_text("trace l arc=30\n")
    out_path = tmp_path / "trace.json"
    assert cli.main(["trace", files["silo.smf"], str(scene),
                     "-o", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    tr = data["traces"][0]
    assert tr["closed"] is True
    assert tr["period"] == pytest.approx(5.0, abs=1e-9)
    assert data["config"]["arc_budget"] == 200.0


def test_classify_report(files, tmp_path):
    scene = tmp_path / "c.scn"
    scene.write_text("classify P l\nclassify R l\n")
    out_path = tmp_path / "rep.json"
    assert cli.main(["classify", files["silo.smf"], str(scene),
                     "-o", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    kinds = {r["query"]: r["result"]["kind"] for r in data["reports"]}
    assert kinds["classify P l"] == "euclidean"
    assert kinds["classify R l"] == "elliptic"
    for r in data["reports"]:
        assert r["mode"] == "float"
        assert r["surface"]
        assert r["config"]["arc_budget"] == 200.0


def test_report_lists_every_unknown_arc(files, tmp_path):
    # At arc budget 2 the partition at silo Qp closes 4 cones at split
    # depth; the report lists them with the unknown intervals, so it
    # lists as many as `unknown_arcs` counts.
    scene = tmp_path / "c.scn"
    scene.write_text("classify Qp l arc=2\n")
    out_path = tmp_path / "rep.json"
    assert cli.main(["classify", files["silo.smf"], str(scene),
                     "-o", str(out_path)]) == 0
    report, = json.loads(out_path.read_text())["reports"]
    unknown = [i for i in report["evidence"]["intervals"]
               if i["status"] == "unknown"]
    assert len(unknown) == report["result"]["unknown_arcs"] == 198


def test_classify_unknown_label_exit_1(files, tmp_path, capsys):
    scene = tmp_path / "c.scn"
    scene.write_text("classify NOPE l\n")
    assert cli.main(["classify", files["silo.smf"], str(scene)]) == 1
    assert "UnknownLabel" in capsys.readouterr().err


def test_render_fan(files, tmp_path, capsys):
    scene = tmp_path / "r.scn"
    scene.write_text("render fan E paths=l\n")
    out_path = tmp_path / "fig.svg"
    assert cli.main(["render", files["semi.smf"], str(scene),
                     "-o", str(out_path)]) == 0
    svg = out_path.read_text()
    assert svg.startswith("<?xml")
    assert svg.count("<polygon") == 5
    assert "<polyline" in svg


def test_render_triangle_ids_with_a_path(files, tmp_path, capsys):
    scene = tmp_path / "r.scn"
    scene.write_text("render tris 0,1,2,3 paths=l\n")
    out_path = tmp_path / "tris.svg"
    assert cli.main(["render", files["semi.smf"], str(scene),
                     "-o", str(out_path)]) == 0
    assert capsys.readouterr().out.startswith(
        f"wrote {out_path}: 4 triangles, 1 polylines, 0 cut edges ")
    svg = out_path.read_text()
    assert svg.count("<polygon") == 4 and svg.count("<polyline") == 1


@pytest.mark.parametrize("command,query,message", [
    ("classify", "classify P l bogus=3",
     "s.scn:1:1: BadQuery: 'classify' takes no option 'bogus'"),
    ("trace", "trace l two_sided=yes",
     "s.scn:1:1: BadQuery: two_sided must be true or false, not 'yes'"),
    ("render", "render tris 0,1 junk",
     "s.scn:1:1: BadQuery: unexpected 'junk' after the region"),
    ("render", "render tris 99999",
     "error: triangle 99999 is not in the surface (54 triangles)"),
    ("render", "render tris -1,0",
     "error: triangle -1 is not in the surface (54 triangles)"),
], ids=["unknown-option", "two-sided", "stray-argument", "id-past-the-end",
        "negative-id"])
def test_scene_input_is_never_dropped(tmp_path, capsys, command, query,
                                      message):
    model = tmp_path / "flat.smf"
    model.write_text("smf 1\nmodel flat radius=3\n")
    scene = tmp_path / "s.scn"
    scene.write_text(query + "\n")
    out = tmp_path / "out"
    assert cli.main([command, str(model), str(scene), "-o", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_render_refuses_only_the_query_with_a_missing_triangle(tmp_path,
                                                               capsys):
    model = tmp_path / "flat.smf"
    model.write_text("smf 1\nmodel flat radius=3\n")
    scene = tmp_path / "s.scn"
    scene.write_text(f"render tris 0,54 out={tmp_path / 'a.svg'}\n"
                     f"render tris 0,1 out={tmp_path / 'b.svg'}\n")
    assert cli.main(["render", str(model), str(scene)]) == 1
    captured = capsys.readouterr()
    assert "error: triangle 54 is not in the surface" in captured.err
    assert not (tmp_path / "a.svg").exists()
    assert (tmp_path / "b.svg").read_text().count("<polygon") == 2


def test_audit(files, tmp_path):
    out_path = tmp_path / "audit.json"
    assert cli.main(["audit", files["silo.smf"], "--rings", "2..4",
                     "-o", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert [a["passed"] for a in data["audits"]] == [True, True, True]


def test_audit_missing_ring_is_an_error_entry(files, tmp_path):
    out_path = tmp_path / "audit.json"
    assert cli.main(["audit", files["silo.smf"], "--rings", "0..1",
                     "-o", str(out_path)]) == 1
    audits = json.loads(out_path.read_text())["audits"]
    assert "error" in audits[0] and audits[1]["passed"] is True


def test_audit_one_ring(files, tmp_path):
    out_path = tmp_path / "audit.json"
    assert cli.main(["audit", files["silo.smf"], "--rings", "3",
                     "-o", str(out_path)]) == 0
    assert [a["ring"] for a in json.loads(out_path.read_text())["audits"]] \
        == [3]


# Malformed and reversed ring ranges: each is a usage error that names the
# value, before a model is loaded or a family is built.
BAD_RINGS = ["1..2..3", "5..3", "2..", "..2", "x"]


@pytest.mark.parametrize("rings", BAD_RINGS)
def test_audit_bad_ring_range_is_a_usage_error(files, capsys, rings):
    assert cli.main(["audit", files["silo.smf"], "--rings", rings]) == 2
    assert repr(rings) in capsys.readouterr().err


@pytest.mark.parametrize("rings", BAD_RINGS)
def test_search_bad_ring_range_is_a_usage_error(capsys, rings):
    assert cli.main(["search", "silo", "--rings", rings]) == 2
    assert repr(rings) in capsys.readouterr().err


def test_validate_checks_a_model_whole(files, monkeypatch, capsys):
    # Loading a model checks nothing whole, so a model that only `validate`
    # can fault still loads; the validate command completes it and runs
    # every check.
    real, key, default = builders.MODELS["silo"]

    def miscounted(rings):
        surf = real(rings)
        surf._base_degree[0] = 4   # the apex has five triangles
        return surf

    monkeypatch.setitem(builders.MODELS, "silo", (miscounted, key, default))
    scene = files["dir"] / "t.scn"
    scene.write_text("trace l arc=5\n")
    assert cli.main(["trace", files["silo.smf"], str(scene),
                     "-o", str(files["dir"] / "t.json")]) == 0
    assert cli.main(["validate", files["silo.smf"]]) == 1
    err = capsys.readouterr().err
    assert "DegreeMismatch: (0,): stored 4, actual 5" in err


def test_only_validate_makes_a_whole_surface(files, whole_surface_calls):
    # trace, render, audit and search read only the sectors and ring plans
    # they need; validate reads the whole-surface views of the model.
    calls = whole_surface_calls
    d = files["dir"]
    (d / "t.scn").write_text("trace l\n")
    (d / "r.scn").write_text(f"render fan C paths=l out={d / 'net.svg'}\n")
    out = str(d / "out.json")
    for argv in (["trace", files["silo.smf"], str(d / "t.scn"), "-o", out],
                 ["render", files["silo.smf"], str(d / "r.scn")],
                 ["audit", files["silo.smf"], "--rings", "0..9", "-o", out],
                 ["audit", files["semi.smf"], "--rings", "0..9", "-o", out],
                 ["search", "flat", "--rings", "2..3", "-o", out]):
        assert cli.main(argv) in (0, 1)
    assert calls == []
    assert cli.main(["validate", files["silo.smf"]]) == 0
    assert calls == ["tris", "adj", "frontier", "boundary", "rings", "degree"]


@pytest.mark.parametrize("command", ["classify", "trace"])
def test_audit_and_search_scene_lines_are_unknown_queries(files, tmp_path,
                                                          capsys, command):
    # No scene command acts on these lines: the audit and search
    # subcommands take their rings on the command line instead.
    scene = tmp_path / "a.scn"
    scene.write_text("audit rings=1..2\nsearch family=silo rings=3..4\n")
    assert cli.main([command, files["silo.smf"], str(scene)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"{scene}:1:1: UnknownQuery: audit",
                   f"{scene}:2:1: UnknownQuery: search"]


def test_audit_bug_propagates(files, monkeypatch):
    from smfgeo import farfield

    def broken(surf, ring):
        raise RuntimeError("bug in audit")
    monkeypatch.setattr(farfield, "audit_ring_convexity", broken)
    with pytest.raises(RuntimeError, match="bug in audit"):
        cli.main(["audit", files["silo.smf"], "--rings", "2..2"])


def test_render_skips_labels_exact_mode_cannot_place(tmp_path, capsys):
    # A decimal barycentric has no exact value: the label is left out.
    model = tmp_path / "semi.smf"
    model.write_text(SEMI_SMF + "point X 0 0.2 0.3 0.5\n")
    scene = tmp_path / "r.scn"
    scene.write_text("render fan E\n")
    out_path = tmp_path / "fig.svg"
    for flags, shown in (([], True), (["--exact"], False)):
        assert cli.main(["render", *flags, str(model), str(scene),
                         "-o", str(out_path)]) == 0
        assert (">X</text>" in out_path.read_text()) is shown


def test_render_label_bug_propagates(files, tmp_path, monkeypatch):
    def broken(surf, ctx, fx):
        raise RuntimeError("bug in resolve_point")
    monkeypatch.setattr(cli, "resolve_point", broken)
    scene = tmp_path / "r.scn"
    scene.write_text("render fan E\n")
    with pytest.raises(RuntimeError, match="bug in resolve_point"):
        cli.main(["render", files["semi.smf"], str(scene),
                  "-o", str(tmp_path / "fig.svg")])


def test_byte_identical_across_thread_counts(files, tmp_path):
    scene = tmp_path / "c.scn"
    scene.write_text("classify P l\nclassify Q l\n")
    o1 = tmp_path / "a.json"
    o2 = tmp_path / "b.json"
    assert cli.main(["classify", files["silo.smf"], str(scene),
                     "-o", str(o1)]) == 0
    assert cli.main(["classify", "--threads", "4", files["silo.smf"],
                     str(scene), "-o", str(o2)]) == 0
    a = json.loads(o1.read_text())
    b = json.loads(o2.read_text())
    for r in (a, b):
        for rep in r["reports"]:
            rep["config"].pop("threads")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_exact_flag(files, tmp_path):
    scene = tmp_path / "c.scn"
    scene.write_text("classify P l\n")
    out_path = tmp_path / "rep.json"
    assert cli.main(["classify", "--exact", files["silo.smf"], str(scene),
                     "-o", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["reports"][0]["mode"] == "exact"
    assert data["reports"][0]["result"]["kind"] == "euclidean"


def test_common_flags_before_subcommand(files, tmp_path):
    # The subcommand's copy of the shared options must not reset a value
    # given before the subcommand.
    scene = tmp_path / "c.scn"
    scene.write_text("classify P l\n")
    out_path = tmp_path / "rep.json"
    assert cli.main(["--exact", "--arc-budget", "150", "-o", str(out_path),
                     "classify", files["silo.smf"], str(scene)]) == 0
    rep = json.loads(out_path.read_text())["reports"][0]
    assert rep["mode"] == "exact"
    assert rep["config"]["arc_budget"] == 150.0


def test_env_config(files, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arc_budget": 123.0}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    scene = tmp_path / "t.scn"
    scene.write_text("trace l\n")
    out_path = tmp_path / "t.json"
    assert cli.main(["trace", files["silo.smf"], str(scene),
                     "-o", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["config"]["arc_budget"] == 123.0


# Values that are not finite positive numbers.
BAD_POSITIVE = ["nan", "inf", "-inf", "0", "-1"]


@pytest.mark.parametrize("value", BAD_POSITIVE)
@pytest.mark.parametrize("flag", ["--epsilon", "--arc-budget"])
def test_bad_epsilon_or_arc_budget_flag_is_a_usage_error(files, tmp_path,
                                                         capsys, flag, value):
    scene = tmp_path / "c.scn"
    scene.write_text("classify P l\n")
    assert cli.main(["classify", f"{flag}={value}", files["semi.smf"],
                     str(scene)]) == 2
    cap = capsys.readouterr()
    assert f"argument {flag}: invalid positive value: {value!r}" in cap.err
    assert "Traceback" not in cap.err and cap.out == ""


@pytest.mark.parametrize("value", BAD_POSITIVE)
@pytest.mark.parametrize("command", ["classify", "trace"])
def test_bad_scene_arc_is_a_diagnostic(files, tmp_path, capsys, command,
                                       value):
    scene = tmp_path / "q.scn"
    scene.write_text(f"{command} {'P l' if command == 'classify' else 'l'}"
                     f" arc={value}\n")
    assert cli.main([command, files["semi.smf"], str(scene)]) == 1
    cap = capsys.readouterr()
    assert cap.err == (f"{scene}:1:1: BadQuery: {value!r} is not a finite "
                       "positive number\n")
    assert cap.out == ""


@pytest.mark.parametrize("bad", [{"arc_budget": "abc"}, {"epsilon": None},
                                 {"arc_budget": float("nan")},
                                 {"epsilon": -1e-9}])
def test_bad_config_value_is_ignored_with_a_warning(files, tmp_path,
                                                    monkeypatch, capsys, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    scene = tmp_path / "t.scn"
    scene.write_text("trace l arc=30\n")
    assert cli.main(["trace", files["silo.smf"], str(scene)]) == 0
    cap = capsys.readouterr()
    assert cap.err.startswith(f"warning: ignoring {cli.CONFIG_ENV}: ")
    assert cap.err.count("\n") == 1
    config = json.loads(cap.out)["config"]
    assert config == json.loads(json.dumps(cli.RunConfig()._asdict()))


# Values that are not positive integers.
BAD_COUNT = ["0", "-1", "-5", "1.5", "1e6", "abc"]


@pytest.mark.parametrize("value", BAD_COUNT)
def test_bad_growth_budget_flag_is_a_usage_error(files, tmp_path, capsys,
                                                 value):
    scene = tmp_path / "c.scn"
    scene.write_text("classify P l\n")
    assert cli.main(["classify", f"--growth-budget={value}",
                     files["semi.smf"], str(scene)]) == 2
    cap = capsys.readouterr()
    assert (f"argument --growth-budget: invalid positive_int value: "
            f"{value!r}") in cap.err
    assert "Traceback" not in cap.err and cap.out == ""


@pytest.mark.parametrize("value", BAD_COUNT)
@pytest.mark.parametrize("command", ["classify", "trace"])
def test_bad_scene_growth_is_a_diagnostic(files, tmp_path, capsys, command,
                                          value):
    scene = tmp_path / "q.scn"
    scene.write_text(f"{command} {'P l' if command == 'classify' else 'l'}"
                     f" growth={value}\n")
    assert cli.main([command, files["semi.smf"], str(scene)]) == 1
    cap = capsys.readouterr()
    assert cap.err == (f"{scene}:1:1: BadQuery: {value!r} is not a positive "
                       "integer\n")
    assert cap.out == ""


@pytest.mark.parametrize("bad", [-5, 0, 1.5, 1e6, "abc", True, None])
def test_bad_config_growth_budget_is_ignored_with_a_warning(
        files, tmp_path, monkeypatch, capsys, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"growth_budget": bad}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    scene = tmp_path / "t.scn"
    scene.write_text("trace l arc=30\n")
    assert cli.main(["trace", files["silo.smf"], str(scene)]) == 0
    cap = capsys.readouterr()
    assert cap.err == (f"warning: ignoring {cli.CONFIG_ENV}: {bad!r} is not "
                       "a positive integer\n")
    config = json.loads(cap.out)["config"]
    assert config == json.loads(json.dumps(cli.RunConfig()._asdict()))


def test_scene_growth_is_never_replaced_by_the_configured_budget(
        files, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"growth_budget": 500000}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    scene = tmp_path / "c.scn"
    scene.write_text("classify P l growth=1\nclassify P l\n")
    out_path = tmp_path / "c.json"
    assert cli.main(["classify", files["semi.smf"], str(scene),
                     "-o", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert [r["budgets"]["growth"] for r in data["reports"]] == [1, 500000]
    assert data["reports"][0]["config"]["growth_budget"] == 500000


def test_search_family(files, tmp_path):
    out_path = tmp_path / "s.json"
    assert cli.main(["search", "flat", "--rings", "3..3",
                     "-o", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["candidates"] == []


def test_search_skips_a_radius_with_no_probe_point(tmp_path):
    # flat(1) has no fixture point and no curved vertex: nothing to probe,
    # so it adds no candidate and the rest of the range is searched.
    out = {}
    for rings in ("1..1", "1..3", "2..3"):
        out[rings] = tmp_path / f"{rings}.json"
        assert cli.main(["search", "flat", "--rings", rings,
                         "-o", str(out[rings])]) == 0
    assert json.loads(out["1..1"].read_text())["candidates"] == []
    assert out["1..3"].read_bytes() == out["2..3"].read_bytes()


@pytest.mark.parametrize("command,scene_line", [("classify", "trace l\n"),
                                                ("trace", "classify P l\n")],
                         ids=["classify", "trace"])
def test_scene_without_the_commands_query_exits_1(files, tmp_path, capsys,
                                                  command, scene_line):
    # A scene that asks the command nothing is a diagnostic, as for render.
    scene = tmp_path / "q.scn"
    scene.write_text(scene_line)
    out_path = tmp_path / "out.json"
    assert cli.main([command, files["semi.smf"], str(scene),
                     "-o", str(out_path)]) == 1
    cap = capsys.readouterr()
    assert cap.err == f"error: no {command} query in scene\n"
    assert cap.out == ""
    assert not out_path.exists()


def test_search_notes_a_parameter_the_builder_refuses(capsys):
    # semi_paradoxist(0) and (1) are below the builder's smallest radius:
    # each is skipped with its reason, and the report is still written.
    assert cli.main(["search", "semi_paradoxist", "--rings", "0..1"]) == 0
    cap = capsys.readouterr()
    assert json.loads(cap.out)["candidates"] == []
    assert cap.err.splitlines() == [
        "note: semi_paradoxist(0) skipped: radius must be >= 2",
        "note: semi_paradoxist(1) skipped: radius must be >= 2"]


def test_search_notes_a_radius_over_the_growth_budget(capsys):
    assert cli.main(["search", "silo", "--rings", "3..3",
                     "--growth-budget", "500"]) == 0
    cap = capsys.readouterr()
    assert json.loads(cap.out)["candidates"] == []
    assert cap.err == ("note: silo(3) skipped: next ring would make 1015 "
                       "triangles, over the budget of 500\n")


@pytest.mark.parametrize("text,line,diagnostic", [
    ("smf 1\n# c\nmodel blob\n", 3, "UnknownModel: blob"),
    ("smf 1\nmodel semi_paradoxist radius=1\n", 2,
     "BadModelParams: radius must be >= 2"),
], ids=["unknown", "refused"])
def test_model_diagnostic_points_at_the_model_line(tmp_path, capsys, text,
                                                   line, diagnostic):
    p = tmp_path / "u.smf"
    p.write_text(text)
    assert cli.main(["validate", str(p)]) == 1
    cap = capsys.readouterr()
    assert cap.err == f"{p}:{line}:1: {diagnostic}\n"
    assert cap.out == ""


@pytest.mark.parametrize("model,named", [
    ("silo ring=6", "not ring\n"), ("flat radius=3 radus=5", "not radus\n")])
def test_model_parameter_the_builder_does_not_take_is_a_diagnostic(
        tmp_path, capsys, model, named):
    p = tmp_path / "m.smf"
    p.write_text(f"smf 1\nmodel {model}\n")
    assert cli.main(["validate", str(p)]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith(f"{p}:2:1: BadModelParams: ")
    assert named in cap.err and cap.err.count("\n") == 1


def test_second_model_line_is_a_diagnostic(tmp_path, capsys):
    p = tmp_path / "m.smf"
    p.write_text("smf 1\nmodel flat radius=2\nmodel silo rings=1\n")
    assert cli.main(["validate", str(p)]) == 1
    cap = capsys.readouterr()
    assert cap.err == f"{p}:3:1: BadModel: a second 'model' line\n"
    assert cap.out == ""


@pytest.mark.parametrize("bad,message", [
    ({"number_mode": "quad"}, "'quad' is not float or exact"),
    ({"threads": "many"}, "'many' is not a positive integer"),
    ({"threads": 0}, "0 is not a positive integer"),
    ({"threads": True}, "True is not a positive integer"),
])
def test_bad_config_mode_or_threads_is_ignored_with_a_warning(
        files, tmp_path, monkeypatch, capsys, bad, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    scene = tmp_path / "c.scn"
    scene.write_text("classify P l\n")
    assert cli.main(["classify", files["semi.smf"], str(scene)]) == 0
    cap = capsys.readouterr()
    assert cap.err == f"warning: ignoring {cli.CONFIG_ENV}: {message}\n"
    report = json.loads(cap.out)["reports"][0]
    assert report["mode"] == "float"
    assert report["config"] == json.loads(json.dumps(cli.RunConfig()._asdict()))


@pytest.mark.parametrize("value", BAD_COUNT)
def test_bad_threads_flag_is_a_usage_error(files, tmp_path, capsys, value):
    scene = tmp_path / "c.scn"
    scene.write_text("classify P l\n")
    assert cli.main(["classify", f"--threads={value}", files["semi.smf"],
                     str(scene)]) == 2
    cap = capsys.readouterr()
    assert (f"argument --threads: invalid positive_int value: "
            f"{value!r}") in cap.err
    assert "Traceback" not in cap.err and cap.out == ""


def test_search_probes_near_the_curved_vertices(tmp_path, monkeypatch):
    # semi_paradoxist(3) has one degree-5 and one degree-7 vertex (0 and
    # 1); the search probes the centroids of their fans and of the fans'
    # neighbours, in the order met.
    probed = []

    def spy(surf, ctx, _real=cli._probe_points_near_curvature):
        got = _real(surf, ctx)
        probed.append([p.tri for p in got])
        return got
    monkeypatch.setattr(cli, "_probe_points_near_curvature", spy)
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert cli.main(["search", "semi_paradoxist", "--rings", "3..3",
                         "-o", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert json.loads(outs[0].read_text())["candidates"] == []
    near = [0, 1, 10, 14, 13, 15, 40, 2, 3, 6, 5, 7, 24, 8, 27, 9, 30, 11]
    assert probed == [near, near]
