"""The `smfgeo classify` reports of the named fixtures, byte for byte.

Each file in tests/golden/ is the report of one model's fixture points
classified against the line l, run from a directory holding the model
as `<model>.smf`, so the report names the model by that bare file name.
A change that alters a report on purpose regenerates its file the same
way, for example:

    PYTHONPATH=src python -m smfgeo.cli classify --exact semi.smf semi.scn \\
        -o tests/golden/semi_exact.json

A regeneration that refines the partition must nest in the old reports:
kind, count and unknown_arcs stay; every old interval wider than 2e-7
degrees lies inside exactly one new interval with the same status; every
new boundary lies at an old boundary or inside an old interval at most
2e-7 degrees wide; and the certificates stay the same, with the same
counts.  `scripts/check_golden_nesting.py OLD_DIR tests/golden` checks
this against a copy of the old files.
"""

from pathlib import Path

import pytest

from smfgeo import chart, cli, engine

GOLDEN = Path(__file__).resolve().parent / "golden"

MODELS = {
    "silo": ("model silo rings=6", ("P", "R", "Q", "Qp", "Qpp")),
    "semi": ("model semi_paradoxist radius=4", ("P", "Q", "R")),
    "flat": ("model flat radius=3", ("P",)),
}


RUNS = [("silo", "float"), ("semi", "float"), ("flat", "float"),
        ("silo", "exact"), ("semi", "exact")]


def classify_report(name, mode):
    """Bytes of the `smfgeo classify` report of one model's fixture
    points, run in the current directory."""
    model, points = MODELS[name]
    Path(f"{name}.smf").write_text(f"smf 1\n{model}\n")
    Path(f"{name}.scn").write_text("".join(f"classify {p} l\n"
                                           for p in points))
    flags = ["--exact"] if mode == "exact" else []
    assert cli.main(["classify", *flags, f"{name}.smf", f"{name}.scn",
                     "-o", "report.json"]) == 0
    return Path("report.json").read_bytes()


@pytest.mark.parametrize("name,mode", RUNS)
def test_report_matches_golden(name, mode, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    want = (GOLDEN / f"{name}_{mode}.json").read_bytes()
    assert classify_report(name, mode) == want


def test_fixture_pass_makes_no_whole_surface(tmp_path, monkeypatch,
                                             whole_surface_calls):
    # Loading the models, classifying every fixture point and naming each
    # surface read the ring plans and the sectors the traces cross: no
    # whole-surface view is made.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    for name, mode in RUNS:
        want = (GOLDEN / f"{name}_{mode}.json").read_bytes()
        assert classify_report(name, mode) == want
    assert whole_surface_calls == []


# Calls of engine.step, classify._probe and classify._trace_end, which
# are the same in both number modes.
WORK = [
    (("silo", "semi", "flat"), "float", (3596, 412, 781)),
    (("semi",), "exact", (1873, 170, 324)),
]


@pytest.mark.parametrize("names,mode,want", WORK,
                         ids=["nine-query-float", "semi-exact"])
def test_fixture_work_is_pinned(names, mode, want, tmp_path, monkeypatch,
                                call_counts):
    # A change that adds steps, probes or end traces to the fixture
    # queries shows here, not only in a benchmark run.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    for name in names:
        assert classify_report(name, mode) == \
            (GOLDEN / f"{name}_{mode}.json").read_bytes()
    assert call_counts == dict(zip(
        ("engine.step", "classify._probe", "classify._trace_end"), want))


# Calls of Isometry.compose, and inverses Isometry.inverse made, in the
# same passes.
FRAME_WORK = [
    (("silo", "semi", "flat"), "float", (6160, 545)),
    (("semi",), "exact", (3843, 282)),
]


@pytest.mark.parametrize("names,mode,want", FRAME_WORK,
                         ids=["nine-query-float", "semi-exact"])
def test_fixture_frame_work_is_pinned(names, mode, want, tmp_path,
                                      monkeypatch, isometry_counts):
    # Frames are composed where a corner list or an end's last frame is
    # read, and each inverse is made once: a return of per-crossing
    # composing or inverting shows here.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    for name in names:
        assert classify_report(name, mode) == \
            (GOLDEN / f"{name}_{mode}.json").read_bytes()
    assert isometry_counts == dict(zip(
        ("Isometry.compose", "Isometry.inverse"), want))


def fan_motion(surf, ctx, ev):
    """The chart motion across a vertex crossing, worked out from the fan:
    the gluing of the edge `tri_in` shares with `tri_out`, if any, else
    the counterclockwise unfolding from `tri_in`.  Returns (motion,
    whether the two triangles are fan neighbours)."""
    if ev.tri_in == ev.tri_out:
        return chart.Isometry.identity(ctx), False
    for e in range(3):
        nbr = surf.neighbor(ev.tri_in, e)
        if nbr and nbr[0] == ev.tri_out:
            return surf.transfer(ctx, ev.tri_in, e), True
    frames = engine.fan_frames(
        surf, ctx, ev.vertex, (ev.tri_in, surf.vertex_slot(ev.tri_in, ev.vertex)))
    frame = next(f for t, _, f in frames if t == ev.tri_out)
    return frame.inverse().compose(frames[0][2]), False


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_vertex_crossings_carry_the_fan_motion(mode, tmp_path, monkeypatch):
    # Every vertex crossing of the silo and semi fixture passes carries,
    # bit for bit, the motion the end traces used to unfold again.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    crossings = []

    def spy(surf, ctx, *args, _real=engine.cross_vertex):
        out, ev = _real(surf, ctx, *args)
        crossings.append((surf, ctx, ev))
        return out, ev
    monkeypatch.setattr(engine, "cross_vertex", spy)
    for name in ("silo", "semi"):
        assert classify_report(name, mode) == \
            (GOLDEN / f"{name}_{mode}.json").read_bytes()
    neighbours = 0
    for surf, ctx, ev in crossings:
        want, neighbour = fan_motion(surf, ctx, ev)
        neighbours += neighbour
        got = ev.gluing
        # repr tells every float bit that matters apart, -0.0 from 0.0 too.
        assert repr((got.k, got.tx, got.ty)) == repr((want.k, want.tx, want.ty))
    assert 0 < neighbours < len(crossings)
