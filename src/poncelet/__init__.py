"""Poncelet pairs and clans of closed plane curves: closed-form
constructions from support functions and torsion maps, polygon generation,
and independent numerical verification."""

from .circlemaps import (CircleDiffeo, FourierTerm, TorsionMap, conjugator_to_rotation,
                         make_torsion, rotation, verify_torsion)
from .envelope import clan_from_vertex, envelope_from_vertex
from .equiangular import (PonceletPolygon, equiangular_clan, equiangular_pair,
                          equiangular_vertex_curve, equilateral_pair)
from .geometry import polyline_self_intersects
from .scene import Scene, build_scene, load_scene
from .support import PlaneCurve, SupportFunction, SupportTerm, curve_from_support
from .verify import PonceletConfiguration, VerificationReport, regularity_scan, verify_pair
from .vertex import clan_from_envelope, vertex_from_envelope

__all__ = [
    "CircleDiffeo", "FourierTerm", "PlaneCurve", "PonceletConfiguration", "PonceletPolygon",
    "Scene", "SupportFunction", "SupportTerm", "TorsionMap",
    "VerificationReport", "build_scene", "clan_from_envelope",
    "clan_from_vertex", "conjugator_to_rotation", "curve_from_support",
    "envelope_from_vertex", "equiangular_clan", "equiangular_pair",
    "equiangular_vertex_curve", "equilateral_pair", "load_scene",
    "make_torsion", "polyline_self_intersects", "regularity_scan", "rotation",
    "verify_pair", "verify_torsion", "vertex_from_envelope",
]

__version__ = "0.1.0"
