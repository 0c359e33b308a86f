"""Seeded inputs for the benchmark workloads.

The seed orders the scenes and the queries inside each scene, and picks
the trace_grow direction.  The program under test receives only the
files written here (fixture workloads) or the ray built from
`trace_ray_spec` (trace_grow).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Scene name -> (SMF model line, fixture points classified against `l`).
SCENES = {
    "silo": ("model silo rings=6", ("P", "R", "Q", "Qp", "Qpp")),
    "semi": ("model semi_paradoxist radius=4", ("P", "Q", "R")),
    "flat": ("model flat radius=3", ("P",)),
}
# Flat P alone takes about 40 s in exact mode, so the exact workload
# classifies the silo and semi scenes only.
EXACT_SCENES = ("silo", "semi")

# trace_grow: silo(3), triangle 20, barycentric (0.2, 0.3, 0.5), one
# integer direction in degrees drawn from this range.
TRACE_RINGS = 3
TRACE_TRI = 20
TRACE_BARY = (0.2, 0.3, 0.5)
TRACE_DIRECTIONS = range(61, 74)
TRACE_ARC = 15.0
TRACE_GROWTH = 10**6


@dataclass(frozen=True)
class Scene:
    name: str
    smf_path: Path
    scene_path: Path
    points: tuple


def fixture_plan(seed: int, exact: bool):
    """[(scene name, point labels in query order)] for this seed."""
    rng = random.Random(seed)
    names = list(EXACT_SCENES if exact else SCENES)
    rng.shuffle(names)
    plan = []
    for name in names:
        points = list(SCENES[name][1])
        rng.shuffle(points)
        plan.append((name, tuple(points)))
    return plan


def write_fixture_inputs(seed: int, exact: bool, workdir: Path):
    """Write one SMF file and one scene file per scene; return [Scene]."""
    scenes = []
    for name, points in fixture_plan(seed, exact):
        smf_path = workdir / f"{name}.smf"
        scene_path = workdir / f"{name}.scn"
        smf_path.write_text(f"smf 1\n{SCENES[name][0]}\n", encoding="utf-8")
        scene_path.write_text("".join(f"classify {p} l\n" for p in points),
                              encoding="utf-8")
        scenes.append(Scene(name, smf_path, scene_path, points))
    return scenes


def trace_ray_spec(seed: int):
    """Arguments of the trace_grow ray: (rings, tri, bary, degrees)."""
    return (TRACE_RINGS, TRACE_TRI, TRACE_BARY,
            random.Random(seed).choice(TRACE_DIRECTIONS))
