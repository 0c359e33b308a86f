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

from conftest import fan_turn, turned_back_signs
from smfgeo import chart, cli, engine
from smfgeo.numbers import Scalars

GOLDEN = Path(__file__).resolve().parent / "golden"

MODELS = {
    "silo": ("model silo rings=6", ("P", "R", "Q", "Qp", "Qpp")),
    "semi": ("model semi_paradoxist radius=4", ("P", "Q", "R")),
    "flat": ("model flat radius=3", ("P",)),
}


EXACT = Scalars("exact")

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
    (("silo", "semi", "flat"), "float", (4974, 221)),
    (("semi",), "exact", (3293, 122)),
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
    # Every vertex crossing of the silo and semi fixture passes carries
    # the motion the fan unfolds: bit for bit in exact mode; in float
    # mode with the unfolding's rotation and a translation within an
    # ulp of 1 of the exact motion, as the closed form and the unfolding
    # round differently.
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
        if ctx.exact:
            assert repr((got.k, got.tx, got.ty)) == \
                repr((want.k, want.tx, want.ty))
            continue
        exact, _ = fan_motion(surf, EXACT, ev)
        assert got.k == want.k == exact.k
        assert abs(got.tx - float(exact.tx)) <= 2**-52
        assert abs(got.ty - float(exact.ty)) <= 2**-52
    assert 0 < neighbours < len(crossings)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_vertex_crossings_turn_by_half_the_cone_angle(mode, tmp_path,
                                                      monkeypatch):
    # Every vertex crossing of the silo and semi fixture passes turns the
    # line by the equal-angle rule, counted from the fan sector that
    # holds the back direction, wherever the arrival triangle lies.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    crossings = []

    def spy(surf, ctx, *args, _real=engine.cross_vertex):
        out, ev = _real(surf, ctx, *args)
        crossings.append((name, surf, ctx, ev))
        return out, ev
    monkeypatch.setattr(engine, "cross_vertex", spy)
    for name in ("silo", "semi"):
        assert classify_report(name, mode) == \
            (GOLDEN / f"{name}_{mode}.json").read_bytes()
    sectors = set()
    for name, surf, ctx, ev in crossings:
        k, turn = fan_turn(surf, ctx, ev)
        assert turn == pytest.approx(ev.cone_angle_deg / 2, abs=1e-9), \
            (name, ev.vertex, ev.tri_in, k)
        assert turned_back_signs(ctx, ev) == (0, 1), \
            (name, ev.vertex, ev.tri_in, ev.tri_out)
        sectors.add((name, ev.vertex, ev.cone_angle_deg, k))
    # Silo P's band exit through vertex 15 names a band triangle as its
    # arrival, two sectors counterclockwise of its back direction's.
    assert ("silo", 15, 420, -2) in sectors
