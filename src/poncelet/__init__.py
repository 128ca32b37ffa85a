"""Poncelet pairs and clans of closed plane curves: closed-form
constructions from support functions and torsion maps, polygon generation,
and independent numerical verification."""

from .circlemaps import (CircleDiffeo, FourierTerm, TorsionMap, conjugator_to_rotation,
                         make_torsion, rotation, rotation_number, verify_torsion)
from .envelope import (VertexStepSystem, clan_from_vertex, envelope_from_vertex,
                       envelope_regularity, interiority_check)
from .equiangular import (EquiangularSpec, PonceletPolygon, equiangular_clan,
                          equiangular_pair, equiangular_vertex_curve, equilateral_pair,
                          vertex_count)
from .geometry import polyline_self_intersects
from .scene import Scene, build_scene, load_scene
from .support import (PlaneCurve, SupportFunction, SupportTerm, constant_width_check,
                      curve_from_support, signed_area)
from .verify import PonceletConfiguration, VerificationReport, regularity_scan, verify_pair
from .vertex import ContactStepSystem, clan_from_envelope, vertex_from_envelope

__all__ = [
    "CircleDiffeo", "ContactStepSystem", "EquiangularSpec", "FourierTerm",
    "PlaneCurve", "PonceletConfiguration", "PonceletPolygon",
    "Scene", "SupportFunction", "SupportTerm", "TorsionMap",
    "VerificationReport", "VertexStepSystem", "build_scene", "clan_from_envelope",
    "clan_from_vertex", "conjugator_to_rotation", "constant_width_check",
    "curve_from_support", "envelope_from_vertex", "envelope_regularity",
    "equiangular_clan", "equiangular_pair", "equiangular_vertex_curve",
    "equilateral_pair", "interiority_check", "load_scene",
    "make_torsion", "polyline_self_intersects",
    "regularity_scan", "rotation", "rotation_number",
    "signed_area", "verify_pair", "verify_torsion", "vertex_count",
    "vertex_from_envelope",
]

__version__ = "0.1.0"
