"""Scene configuration: a JSON document describing one construction, its
verification settings and its rendering settings.

Schema (unknown fields are rejected at every level):

    {
      "construction": "equiangular-pair" | "equilateral" | "equiangular-clan"
                    | "envelope-from-vertex" | "vertex-from-envelope"
                    | "clan-from-vertex" | "clan-from-envelope",
      "parameters": { ... per construction ... },
      "render":  {"samples": int, "margin": float, "polygon_starts": [float]},
      "verify":  {"probes": int, "tol": float|null, "expect_interior": bool|null}
    }

Angles are exact rational multiples of pi: {"num": int, "den": int}.
Support functions: {"a": float, "k": int, "terms": [{"l_num", "l_den", "cos", "sin"}]}.
Torsion steps: {"m": int, "n": int, "h": {"c": float, "terms": [{"j", "sin", "cos"}]}}
(h omitted means the rigid rotation by m/n of the circle).
Clan steps: {"rotation_pi": {"num", "den"}} or a Fourier lift {"c", "terms"}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import circlemaps as cm
from . import equiangular as eq
from .envelope import VertexStepSystem, clan_from_vertex, envelope_from_vertex
from .equiangular import Contact, PonceletPolygon
from .geometry import RationalAngle, Vec2, polyline_self_intersects, wrap_pi
from .support import PlaneCurve, SupportFunction, curve_from_support
from .verify import (MAX_PROBES, MIN_PROBES, PonceletConfiguration, VerificationReport,
                     verify_pair)
from .vertex import ContactStepSystem, clan_from_envelope, vertex_from_envelope


class SchemaError(ValueError):
    pass


CONSTRUCTIONS = (
    "equiangular-pair", "equilateral", "equiangular-clan",
    "envelope-from-vertex", "vertex-from-envelope",
    "clan-from-vertex", "clan-from-envelope",
)


def _check_keys(doc: dict, allowed: set[str], where: str, required: tuple[str, ...] = ()):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise SchemaError(f"{where}: missing fields {missing}")


def _angle(doc, where: str) -> RationalAngle:
    _check_keys(doc, {"num", "den"}, where)
    try:
        return RationalAngle(int(doc["num"]), int(doc["den"]))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{where}: need integer num/den") from exc


def _support(doc, where: str) -> SupportFunction:
    _check_keys(doc, {"a", "k", "terms"}, where)
    for i, t in enumerate(doc.get("terms", [])):
        _check_keys(t, {"l_num", "l_den", "cos", "sin"}, f"{where}.terms[{i}]")
    try:
        return SupportFunction.from_dict(doc)
    except (ValueError, KeyError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _fourier(doc, L: float, where: str) -> cm.CircleDiffeo:
    _check_keys(doc, {"c", "terms"}, where)
    for i, t in enumerate(doc.get("terms", [])):
        _check_keys(t, {"j", "sin", "cos"}, f"{where}.terms[{i}]", ("j",))
    try:
        terms = tuple(cm.FourierTerm(int(t["j"]), float(t.get("sin", 0.0)),
                                     float(t.get("cos", 0.0)))
                      for t in doc.get("terms", []))
        c = float(doc.get("c", 0.0))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: need integer j and numbers c, sin, cos ({exc})") from exc
    return cm.from_fourier(L, c, terms)


def _torsion(doc, L: float, where: str) -> cm.TorsionMap:
    _check_keys(doc, {"m", "n", "h"}, where)
    try:
        m, n = int(doc["m"]), int(doc["n"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{where}: need integer m, n") from exc
    if "h" in doc:
        h = _fourier(doc["h"], L, f"{where}.h")
    else:
        h = cm.identity(L)
    return cm.make_torsion(h, m, n)


def _diffeo(doc, L: float, where: str) -> cm.CircleDiffeo:
    if "rotation_pi" in doc:
        _check_keys(doc, {"rotation_pi"}, where)
        return cm.rotation(L, _angle(doc["rotation_pi"], f"{where}.rotation_pi").radians)
    return _fourier(doc, L, where)


@dataclass
class RenderOptions:
    samples: int = 1024
    margin: float = 0.05
    polygon_starts: tuple[float, ...] = (0.0,)


@dataclass
class VerifyOptions:
    probes: int = 64
    tol: float | None = None
    expect_interior: bool | None = None


@dataclass
class Scene:
    label: str
    configuration: PonceletConfiguration
    render_options: RenderOptions
    verify_options: VerifyOptions
    notes: tuple[str, ...] = ()

    @property
    def envelopes(self) -> tuple[PlaneCurve, ...]:
        return self.configuration.envelopes

    @property
    def vertex_curves(self) -> tuple[PlaneCurve, ...]:
        return self.configuration.vertex_curves

    def curve(self, name: str) -> PlaneCurve:
        table = self.curve_table()
        if name not in table:
            raise SchemaError(f"no curve named {name!r}; have {sorted(table)}")
        return table[name]

    def curve_table(self) -> dict[str, PlaneCurve]:
        table: dict[str, PlaneCurve] = {}
        envs, verts = self.envelopes, self.vertex_curves
        for i, c in enumerate(envs):
            table["envelope" if len(envs) == 1 else f"envelope-{i + 1}"] = c
        for i, c in enumerate(verts):
            table["vertex" if len(verts) == 1 else f"vertex-{i + 1}"] = c
        return table

    def polygons(self) -> list[PonceletPolygon]:
        return [self.configuration.polygon(t) for t in self.render_options.polygon_starts]

    def verify(self, probes: int | None = None, tol: float | None = None) -> VerificationReport:
        opts = self.verify_options
        return verify_pair(self.configuration,
                           probes=probes if probes is not None else opts.probes,
                           tol=tol if tol is not None else opts.tol)


def _oracle_capable(vertex_curve: PlaneCurve, envelope_support: SupportFunction | None) -> bool:
    if envelope_support is None or envelope_support.sheets != 1:
        return False
    if envelope_support.min_curvature_radius() <= 0:
        return False
    return not polyline_self_intersects(vertex_curve.sample(1024))


def _pair_configuration(label: str, pair, support: SupportFunction,
                        expected_turn, expected_side, expect_interior) -> PonceletConfiguration:
    angle = pair.angle.radians
    mode = "oracle" if _oracle_capable(pair.vertex_curve, support) else "sequence"
    return PonceletConfiguration(
        label=label,
        vertex_curves=(pair.vertex_curve,),
        envelopes=(pair.envelope,),
        envelope_supports=(support,),
        polygon=pair.polygon,
        count=pair.count,
        mode=mode,
        step_lift=(lambda t: np.asarray(t) + angle),
        step_inv_lift=(lambda t: np.asarray(t) - angle),
        expected_turn=expected_turn,
        expected_side=expected_side,
        expect_interior=expect_interior,
    )


def _build_equiangular_pair(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"support", "angle", "branch"}, "parameters", ("support", "angle"))
    support = _support(params["support"], "parameters.support")
    spec = eq.EquiangularSpec(support, _angle(params["angle"], "parameters.angle"),
                              int(params.get("branch", 0)))
    pair = eq.equiangular_pair(spec)
    return _pair_configuration("equiangular-pair", pair, support,
                               wrap_pi(pair.angle.radians), None, vopts.expect_interior)


def _build_equilateral(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"k", "l", "a"}, "parameters", ("k", "l", "a"))
    ldoc = params["l"]
    _check_keys(ldoc, {"num", "den"}, "parameters.l", ("num", "den"))
    try:
        k, l, a = (int(params["k"]), Fraction(int(ldoc["num"]), int(ldoc["den"])),
                   float(params["a"]))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"parameters: need integer k, integer l.num/l.den and a number a "
                          f"({exc})") from exc
    pair = eq.equilateral_pair(k, l, a)
    return _pair_configuration("equilateral", pair, pair.envelope_support,
                               wrap_pi(pair.angle.radians), pair.side_length,
                               vopts.expect_interior)


def _build_equiangular_clan(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"support", "angles", "branches"}, "parameters", ("support", "angles"))
    support = _support(params["support"], "parameters.support")
    angles = [_angle(a, f"parameters.angles[{i}]") for i, a in enumerate(params["angles"])]
    branches = [int(b) for b in params.get("branches", [0] * len(angles))]
    clan = eq.equiangular_clan(support, angles, branches)
    if clan.degenerate:
        turns = (wrap_pi(clan.angles[0].radians),)
    else:
        turns = tuple(wrap_pi(a.radians) for a in clan.angles)
    return PonceletConfiguration(
        label="equiangular-clan",
        vertex_curves=clan.vertex_curves,
        envelopes=(clan.envelope,),
        envelope_supports=(support,),
        polygon=clan.polygon,
        count=clan.count,
        mode="sequence",
        expected_turns=turns,
        expect_interior=vopts.expect_interior,
    )


def _build_envelope_from_vertex(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"support", "step"}, "parameters", ("support", "step"))
    support = _support(params["support"], "parameters.support")
    Y = curve_from_support(support, label="K")
    f = _torsion(params["step"], support.domain_length, "parameters.step")
    system = VertexStepSystem(Y, f)
    result = envelope_from_vertex(system)
    h = f.conjugating if not f.map.is_rotation else None

    def polygon(start: float) -> PonceletPolygon:
        params_ = system.polygon_params(start)
        pts = Y.positions(np.asarray(params_))
        vertices = [Vec2(*xy) for xy in pts]
        closing = Y.positions([float(f.map.lift(params_[-1]))])[0]
        gap = float(np.hypot(*(closing - pts[0])))
        contacts = []
        L = Y.domain_length
        n = len(vertices)
        for i, t in enumerate(params_):
            tc = float(h.lift(t)) if h is not None else t
            x = Vec2(*result.curve.positions([tc])[0])
            contacts.append(Contact(x, tc % L, eq._chord_position(
                vertices[i], vertices[(i + 1) % n], x)))
        return PonceletPolygon(tuple(vertices), tuple(params_), tuple(contacts), gap)

    return PonceletConfiguration(
        label="envelope-from-vertex",
        vertex_curves=(Y,),
        envelopes=(result.curve,),
        envelope_supports=(None,),
        polygon=polygon,
        count=f.period,
        mode="sequence",
        expect_interior=vopts.expect_interior,
    )


def _build_vertex_from_envelope(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"support", "step"}, "parameters", ("support", "step"))
    support = _support(params["support"], "parameters.support")
    f = _torsion(params["step"], support.domain_length, "parameters.step")
    res = vertex_from_envelope(ContactStepSystem(support, f))
    mode = "oracle" if _oracle_capable(res.curve, support) else "sequence"
    return PonceletConfiguration(
        label="vertex-from-envelope",
        vertex_curves=(res.curve,),
        envelopes=(res.envelope,),
        envelope_supports=(support,),
        polygon=res.polygon,
        count=f.period,
        mode=mode,
        step_lift=f.map.lift,
        step_inv_lift=f.map.inverse().lift,
        expect_interior=vopts.expect_interior,
    )


def _build_clan_from_vertex(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"support", "steps"}, "parameters", ("support", "steps"))
    support = _support(params["support"], "parameters.support")
    Y = curve_from_support(support, label="K")
    steps = [_diffeo(s, support.domain_length, f"parameters.steps[{i}]")
             for i, s in enumerate(params["steps"])]
    clan = clan_from_vertex(Y, steps)
    return PonceletConfiguration(
        label="clan-from-vertex",
        vertex_curves=(Y,),
        envelopes=clan.envelopes,
        envelope_supports=(None,) * len(clan.envelopes),
        polygon=clan.polygon,
        count=len(clan.envelopes),
        mode="sequence",
        expect_interior=vopts.expect_interior,
    )


def _build_clan_from_envelope(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"support", "steps"}, "parameters", ("support", "steps"))
    support = _support(params["support"], "parameters.support")
    steps = [_diffeo(s, support.domain_length, f"parameters.steps[{i}]")
             for i, s in enumerate(params["steps"])]
    clan = clan_from_envelope(support, steps)
    return PonceletConfiguration(
        label="clan-from-envelope",
        vertex_curves=clan.vertex_curves,
        envelopes=(clan.envelope,),
        envelope_supports=(support,),
        polygon=clan.polygon,
        count=len(clan.vertex_curves),
        mode="sequence",
        expect_interior=vopts.expect_interior,
    )


_BUILDERS: dict[str, Callable] = {
    "equiangular-pair": _build_equiangular_pair,
    "equilateral": _build_equilateral,
    "equiangular-clan": _build_equiangular_clan,
    "envelope-from-vertex": _build_envelope_from_vertex,
    "vertex-from-envelope": _build_vertex_from_envelope,
    "clan-from-vertex": _build_clan_from_vertex,
    "clan-from-envelope": _build_clan_from_envelope,
}


def parse_config(doc: dict) -> tuple[str, dict, RenderOptions, VerifyOptions]:
    _check_keys(doc, {"construction", "parameters", "render", "verify"}, "config")
    kind = doc.get("construction")
    if kind not in CONSTRUCTIONS:
        raise SchemaError(f"unknown construction {kind!r}; expected one of {CONSTRUCTIONS}")
    params = doc.get("parameters")
    if not isinstance(params, dict):
        raise SchemaError("parameters: expected an object")

    rdoc = doc.get("render", {})
    _check_keys(rdoc, {"samples", "margin", "polygon_starts"}, "render")
    try:
        ropts = RenderOptions(
            samples=int(rdoc.get("samples", 1024)),
            margin=float(rdoc.get("margin", 0.05)),
            polygon_starts=tuple(float(t) for t in rdoc.get("polygon_starts", [0.0])),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"render: need integer samples and numbers margin, "
                          f"polygon_starts ({exc})") from exc
    if ropts.samples < 2:
        raise SchemaError("render.samples must be at least 2")

    vdoc = doc.get("verify", {})
    _check_keys(vdoc, {"probes", "tol", "expect_interior"}, "verify")
    try:
        tol = None if vdoc.get("tol") is None else float(vdoc["tol"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"verify.tol must be a number or null, got {vdoc['tol']!r}") from exc
    if vdoc.get("expect_interior") not in (None, True, False):
        raise SchemaError(f"verify.expect_interior must be true, false or null, "
                          f"got {vdoc['expect_interior']!r}")
    vopts = VerifyOptions(
        probes=probe_count(vdoc.get("probes", 64), "verify.probes"),
        tol=tol,
        expect_interior=vdoc.get("expect_interior"),
    )
    return kind, params, ropts, vopts


def probe_count(raw, where: str) -> int:
    """A probe count from a document or the environment, within the
    verifier's bounds."""
    try:
        probes = int(raw)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where} must be an integer, got {raw!r}") from exc
    if not MIN_PROBES <= probes <= MAX_PROBES:
        raise SchemaError(f"{where} must be between {MIN_PROBES} and {MAX_PROBES}, "
                          f"got {probes}")
    return probes


def build_scene(doc: dict) -> Scene:
    kind, params, ropts, vopts = parse_config(doc)
    configuration = _BUILDERS[kind](params, vopts)
    return Scene(kind, configuration, ropts, vopts)


def load_scene(path: str) -> Scene:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    return build_scene(doc)
