"""Smoke tests for the maintenance scripts under scripts/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run(*args):
    # The scripts put src/ on the path relative to the repository root.
    return subprocess.run([sys.executable, *args], cwd=ROOT, text=True,
                          capture_output=True, timeout=120)


def test_render_figures_writes_three_svgs(tmp_path):
    got = run(str(SCRIPTS / "render_figures.py"), str(tmp_path))
    assert got.returncode == 0, got.stderr
    names = {"fan5_elliptic.svg", "fan7_hyperbolic.svg", "silo_band.svg"}
    assert {p.name for p in tmp_path.iterdir()} == names
    for name in names:
        svg = (tmp_path / name).read_text(encoding="utf-8")
        assert "<svg " in svg and svg.rstrip().endswith("</svg>")


def test_golden_nesting_accepts_the_goldens_against_themselves():
    golden = str(ROOT / "tests" / "golden")
    got = run(str(SCRIPTS / "check_golden_nesting.py"), golden, golden)
    assert got.returncode == 0, got.stderr
    assert got.stdout.splitlines()[-1] == "ok"


def test_calibrate_fixtures_compiles():
    path = SCRIPTS / "calibrate_fixtures.py"
    compile(path.read_text(encoding="utf-8"), str(path), "exec")
