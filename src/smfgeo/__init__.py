"""Piecewise-flat S-manifold toolkit.

Surfaces of unit equilateral triangles with vertex degrees 5, 6 or 7,
geodesics under the equal-angle vertex rule, and the parallelism
taxonomy of points with respect to a line.
"""

from .numbers import Q3, Scalars
from .surface import (
    GenerationRule,
    SurfacePoint,
    Triangulation,
    ValidationReport,
    canonicalize_point,
    grow_frontier,
    validate,
)
from .builders import build_flat_plane, build_semi_paradoxist, build_silo
from .engine import (
    GeodesicPath,
    Ray,
    cross_vertex,
    detect_closure,
    intersect_paths,
    make_ray,
    step,
    trace,
    transfer_edge,
)
from .classify import (
    Budgets,
    ModelAnalysis,
    PointClassification,
    build_line_context,
    classify_direction,
    classify_labeled,
    classify_point,
    connect_by_segments,
    critical_directions,
    enclosed_defect,
    find_unjoinable_pair,
    search_finitely_hyperbolic,
)
from .farfield import audit_ring_convexity
from .smf import parse_manifold, parse_scene, to_triangulation

__all__ = [
    "Q3", "Scalars", "GenerationRule", "SurfacePoint", "Triangulation",
    "ValidationReport", "canonicalize_point", "grow_frontier", "validate",
    "build_flat_plane", "build_semi_paradoxist", "build_silo",
    "GeodesicPath", "Ray", "cross_vertex", "detect_closure",
    "intersect_paths", "make_ray", "step", "trace", "transfer_edge",
    "Budgets", "ModelAnalysis", "PointClassification", "build_line_context",
    "classify_direction", "classify_labeled", "classify_point",
    "connect_by_segments", "critical_directions", "enclosed_defect",
    "find_unjoinable_pair", "search_finitely_hyperbolic",
    "audit_ring_convexity",
    "parse_manifold", "parse_scene", "to_triangulation",
]

__version__ = "0.1.0"
