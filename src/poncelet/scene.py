"""Scene configuration: a JSON document describing one construction, its
verification settings and its rendering settings.

Schema (unknown fields are rejected at every level):

    {
      "construction": "equiangular-pair" | "equilateral" | "equiangular-clan"
                    | "envelope-from-vertex" | "vertex-from-envelope"
                    | "clan-from-vertex" | "clan-from-envelope",
      "parameters": { ... per construction ... },
      "render":  {"samples": int, "margin": float in [0, 1], "polygon_starts": [float]},
      "verify":  {"probes": int, "tol": positive float|null, "expect_interior": bool|null}
    }

Angles are exact rational multiples of pi: {"num": int, "den": int}; these
integers, the equilateral l and k and a torsion step's m lie within +-2**53.
Support functions: {"a": float, "k": int, "terms": [{"l_num", "l_den", "cos", "sin"}]}
(|l_num / l_den| <= 4096).
Torsion steps: {"m": int, "n": int, "h": {"c": float, "terms": [{"j", "sin", "cos"}]}}
(h omitted means the rigid rotation by m/n of the circle; |j| <= 4096).
Clan steps: {"rotation_pi": {"num", "den"}} or a Fourier lift {"c", "terms"}.
A polygon has at most verify.MAX_VERTICES vertices; a larger torsion period,
clan step count or vertex count is refused here, before any work grows with it.
So is a support function on more than verify.MAX_SHEETS sheets, a support or
Fourier lift of more than MAX_TERMS terms, and more than verify.MAX_PROBES
render.polygon_starts.

This module is the only reader of these documents: it builds the library's
support functions, circle maps and configurations from the values it checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import circlemaps as cm
from . import equiangular as eq
from .envelope import clan_from_vertex, envelope_from_vertex
from .equiangular import PonceletPolygon
from .geometry import SELF_INTERSECTION_SAMPLES, polyline_self_intersects, radians, wrap_pi
from .render import MAX_SAMPLES
from .support import PlaneCurve, SupportError, SupportFunction, SupportTerm, curve_from_support
from .verify import (MAX_PROBES, MAX_SHEETS, MAX_VERTICES, MIN_PROBES, PonceletConfiguration,
                     VerificationReport, verify_pair)
from .vertex import clan_from_envelope, vertex_from_envelope


class SchemaError(ValueError):
    pass


# terms of a support function or a Fourier lift: the fitted lifts of
# bicentric circle pairs need 65 to 79, and 2000 support terms take a second
# to verify
MAX_TERMS = 256


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


def _number(raw, where: str) -> float:
    """A finite float from a document value; a boolean is refused."""
    if isinstance(raw, bool):
        raise SchemaError(f"{where} must be a number, got {raw!r}")
    try:
        x = float(raw)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where} must be a number, got {raw!r}") from exc
    except OverflowError as exc:
        raise SchemaError(f"{where} must be finite, got an integer past the float range") from exc
    if not math.isfinite(x):
        raise SchemaError(f"{where} must be finite, got {raw!r}")
    return x


def _integer(raw, where: str) -> int:
    """An int from a document value: an integral number or a numeral string
    (as in PONCELET_PROBES=12). A fraction is refused, not truncated, and so
    is a boolean."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise SchemaError(f"{where} must be an integer, got {raw!r}")
    try:
        return int(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where} must be an integer, got {raw!r}") from exc


def _exact(raw, where: str) -> int:
    """An integer within +-2**53, where floats hold every integer exactly."""
    x = _integer(raw, where)
    if abs(x) > 2 ** 53:
        raise SchemaError(f"{where} must be an integer of magnitude at most 2**53")
    return x


def _list(raw, where: str, cap: int | None = None) -> list | tuple:
    """A list from a document value, a JSON array or a tuple from code, of at
    most cap entries."""
    if not isinstance(raw, (list, tuple)):
        raise SchemaError(f"{where} must be a list, got {raw!r}")
    if cap is not None and len(raw) > cap:
        raise SchemaError(f"{where} has {len(raw)} entries; at most {cap} are allowed")
    return raw


def _vertices(count: int, where: str) -> int:
    """A polygon vertex count within the verifier's bound."""
    if count > MAX_VERTICES:
        raise SchemaError(f"{where} gives {count} polygon vertices; "
                          f"at most {MAX_VERTICES} are allowed")
    return count


def _sheets(count: int, where: str) -> int:
    """A support function's sheet count within the verifier's bound."""
    if count > MAX_SHEETS:
        raise SchemaError(f"{where} gives {count} sheets; at most {MAX_SHEETS} are allowed")
    return count


def _ratio(doc: dict, where: str, num: str = "num", den: str = "den",
           integer: Callable = _exact) -> Fraction:
    """The fraction of the integer fields num and den of doc."""
    n, d = integer(doc[num], f"{where}.{num}"), integer(doc[den], f"{where}.{den}")
    if d == 0:
        raise SchemaError(f"{where}.{den} must not be zero")
    return Fraction(n, d)


def _angle(doc, where: str) -> Fraction:
    """An angle in units of pi."""
    _check_keys(doc, {"num", "den"}, where, ("num", "den"))
    return _ratio(doc, where)


def _support(doc, where: str) -> SupportFunction:
    _check_keys(doc, {"a", "k", "terms"}, where, ("a",))
    a = _number(doc["a"], f"{where}.a")
    k = _sheets(_integer(doc.get("k", 1), f"{where}.k"), f"{where}.k")
    terms = []
    for i, t in enumerate(_list(doc.get("terms", []), f"{where}.terms", MAX_TERMS)):
        at = f"{where}.terms[{i}]"
        _check_keys(t, {"l_num", "l_den", "cos", "sin"}, at, ("l_num", "l_den"))
        l = _ratio(t, at, "l_num", "l_den", _integer)
        if abs(l) > cm.MAX_HARMONIC:
            raise SchemaError(f"{at}.l_num / l_den must satisfy |l| <= {cm.MAX_HARMONIC}, "
                              f"got {l}")
        terms.append(SupportTerm(l,
                                 _number(t.get("cos", 0.0), f"{at}.cos"),
                                 _number(t.get("sin", 0.0), f"{at}.sin")))
    try:
        return SupportFunction(a, tuple(terms), k)
    except SupportError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _fourier(doc, L: float, where: str) -> cm.CircleDiffeo:
    _check_keys(doc, {"c", "terms"}, where)
    terms = []
    for i, t in enumerate(_list(doc.get("terms", []), f"{where}.terms", MAX_TERMS)):
        at = f"{where}.terms[{i}]"
        _check_keys(t, {"j", "sin", "cos"}, at, ("j",))
        j = _integer(t["j"], f"{at}.j")
        if abs(j) > cm.MAX_HARMONIC:
            raise SchemaError(f"{at}.j must satisfy |j| <= {cm.MAX_HARMONIC}, got {j}")
        terms.append(cm.FourierTerm(j, _number(t.get("sin", 0.0), f"{at}.sin"),
                                    _number(t.get("cos", 0.0), f"{at}.cos")))
    return cm.from_fourier(L, _number(doc.get("c", 0.0), f"{where}.c"), tuple(terms))


def _torsion(doc, L: float, where: str) -> cm.TorsionMap:
    _check_keys(doc, {"m", "n", "h"}, where, ("m", "n"))
    m = _exact(doc["m"], f"{where}.m")
    n = _vertices(_integer(doc["n"], f"{where}.n"), f"{where}.n")
    h = _fourier(doc["h"], L, f"{where}.h") if "h" in doc else cm.identity(L)
    return cm.make_torsion(h, m, n)


def _steps(params: dict, L: float) -> list[cm.CircleDiffeo]:
    """A clan's step maps; the closing step makes one vertex more."""
    docs = _list(params["steps"], "parameters.steps")
    _vertices(len(docs) + 1, "parameters.steps")
    return [_diffeo(s, L, f"parameters.steps[{i}]") for i, s in enumerate(docs)]


def _diffeo(doc, L: float, where: str) -> cm.CircleDiffeo:
    if isinstance(doc, dict) and "rotation_pi" in doc:
        _check_keys(doc, {"rotation_pi"}, where)
        return cm.rotation(L, radians(_angle(doc["rotation_pi"], f"{where}.rotation_pi")))
    return _fourier(doc, L, where)


@dataclass
class RenderOptions:
    samples: int
    margin: float
    polygon_starts: tuple[float, ...]


@dataclass
class VerifyOptions:
    probes: int
    tol: float | None
    expect_interior: bool | None


@dataclass
class Scene:
    configuration: PonceletConfiguration
    render_options: RenderOptions
    verify_options: VerifyOptions

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
        """The polygons of the render starts, assembled on the configuration's curves."""
        c, starts = self.configuration, np.array(self.render_options.polygon_starts, dtype=float)
        polys = eq.assemble(c.walk(starts), c.vertex_curves, c.envelopes)
        return [polys[i] for i in range(len(starts))]

    def verify(self, probes: int | None = None) -> VerificationReport:
        opts = self.verify_options
        return verify_pair(self.configuration,
                           probes=probes if probes is not None else opts.probes, tol=opts.tol)


def _oracle_capable(vertex_curve: PlaneCurve, envelope_support: SupportFunction | None) -> bool:
    if envelope_support is None or envelope_support.sheets != 1:
        return False
    if envelope_support.min_curvature_radius() <= 0:
        return False
    return not polyline_self_intersects(vertex_curve.sample(SELF_INTERSECTION_SAMPLES))


def _configuration(label: str, c, supports, vopts: VerifyOptions,
                   **extra) -> PonceletConfiguration:
    """The configuration of construction c's curves and polygon walk. The
    oracle checks a pair of one vertex curve and one envelope support that
    it can walk; every other construction is checked in sequence mode."""
    one = len(c.vertex_curves) == len(supports) == 1
    mode = "oracle" if one and _oracle_capable(c.vertex_curves[0], supports[0]) else "sequence"
    return PonceletConfiguration(label, tuple(c.vertex_curves), tuple(c.envelopes),
                                 tuple(supports), c.polygon, c.walk, mode,
                                 expect_interior=vopts.expect_interior, **extra)


def _build_equiangular_pair(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"support", "angle", "branch"}, "parameters", ("support", "angle"))
    support = _support(params["support"], "parameters.support")
    pair = eq.equiangular_pair(support, _angle(params["angle"], "parameters.angle"),
                               _integer(params.get("branch", 0), "parameters.branch"))
    _vertices(pair.count, "parameters.angle")
    return _configuration("equiangular-pair", pair, (support,), vopts,
                          expected_turns=tuple(wrap_pi(radians(a)) for a in pair.angles))


def _build_equilateral(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"k", "l", "a"}, "parameters", ("k", "l", "a"))
    _check_keys(params["l"], {"num", "den"}, "parameters.l", ("num", "den"))
    a = _number(params["a"], "parameters.a")
    pair = eq.equilateral_pair(_exact(params["k"], "parameters.k"),
                               _ratio(params["l"], "parameters.l"), a)
    _vertices(pair.count, "parameters.l")
    _sheets(pair.envelope_support.sheets, "parameters.k with parameters.l")
    alpha = radians(pair.angles[0])
    return _configuration("equilateral", pair, (pair.envelope_support,), vopts,
                          expected_turns=(wrap_pi(alpha),),
                          expected_side=2.0 * a * abs(math.tan(alpha / 2)))


def _build_equiangular_clan(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"support", "angles", "branches"}, "parameters", ("support", "angles"))
    support = _support(params["support"], "parameters.support")
    docs = _list(params["angles"], "parameters.angles")
    _vertices(len(docs), "parameters.angles")
    angles = [_angle(a, f"parameters.angles[{i}]") for i, a in enumerate(docs)]
    branches = _list(params.get("branches", [0] * len(angles)), "parameters.branches")
    branches = [_integer(b, f"parameters.branches[{i}]") for i, b in enumerate(branches)]
    clan = eq.equiangular_clan(support, angles, branches)
    _vertices(clan.count, "parameters.angles")
    return _configuration("equiangular-clan", clan, (support,), vopts,
                          expected_turns=tuple(wrap_pi(radians(a)) for a in clan.angles))


def _build_envelope_from_vertex(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"support", "step"}, "parameters", ("support", "step"))
    support = _support(params["support"], "parameters.support")
    Y = curve_from_support(support, label="K")
    f = _torsion(params["step"], support.domain_length, "parameters.step")
    result = envelope_from_vertex(Y, f)
    return _configuration("envelope-from-vertex", result, (None,), vopts)


def _build_vertex_from_envelope(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"support", "step"}, "parameters", ("support", "step"))
    support = _support(params["support"], "parameters.support")
    f = _torsion(params["step"], support.domain_length, "parameters.step")
    res = vertex_from_envelope(support, f)
    return _configuration("vertex-from-envelope", res, (support,), vopts)


def _build_clan_from_vertex(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"support", "steps"}, "parameters", ("support", "steps"))
    support = _support(params["support"], "parameters.support")
    Y = curve_from_support(support, label="K")
    clan = clan_from_vertex(Y, _steps(params, support.domain_length))
    return _configuration("clan-from-vertex", clan, (None,) * len(clan.envelopes), vopts)


def _build_clan_from_envelope(params: dict, vopts: VerifyOptions) -> PonceletConfiguration:
    _check_keys(params, {"support", "steps"}, "parameters", ("support", "steps"))
    support = _support(params["support"], "parameters.support")
    clan = clan_from_envelope(support, _steps(params, support.domain_length))
    return _configuration("clan-from-envelope", clan, (support,), vopts)


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
    starts = _list(rdoc.get("polygon_starts", [0.0]), "render.polygon_starts", MAX_PROBES)
    margin = _number(rdoc.get("margin", 0.05), "render.margin")
    if not 0.0 <= margin <= 1.0:
        raise SchemaError(f"render.margin must be between 0 and 1, got {margin!r}")
    ropts = RenderOptions(
        samples=sample_count(rdoc.get("samples", 1024), "render.samples"),
        margin=margin,
        polygon_starts=tuple(_number(t, f"render.polygon_starts[{i}]")
                             for i, t in enumerate(starts)),
    )

    vdoc = doc.get("verify", {})
    _check_keys(vdoc, {"probes", "tol", "expect_interior"}, "verify")
    tol = None if vdoc.get("tol") is None else _number(vdoc["tol"], "verify.tol")
    if tol is not None and not tol > 0.0:
        raise SchemaError(f"verify.tol must be positive, got {tol!r}")
    interior = vdoc.get("expect_interior")
    if interior is not None and not isinstance(interior, bool):
        raise SchemaError(f"verify.expect_interior must be true, false or null, "
                          f"got {interior!r}")
    vopts = VerifyOptions(
        probes=probe_count(vdoc.get("probes", 64), "verify.probes"),
        tol=tol,
        expect_interior=interior,
    )
    return kind, params, ropts, vopts


def probe_count(raw, where: str) -> int:
    """A probe count from a document or the environment, within the
    verifier's bounds."""
    probes = _integer(raw, where)
    if not MIN_PROBES <= probes <= MAX_PROBES:
        raise SchemaError(f"{where} must be between {MIN_PROBES} and {MAX_PROBES}, "
                          f"got {probes}")
    return probes


def sample_count(raw, where: str) -> int:
    """A sample count from a document or the command line, within the
    renderer's bounds."""
    samples = _integer(raw, where)
    if not 2 <= samples <= MAX_SAMPLES:
        raise SchemaError(f"{where} must be between 2 and {MAX_SAMPLES}, got {samples}")
    return samples


def build_scene(doc: dict) -> Scene:
    kind, params, ropts, vopts = parse_config(doc)
    configuration = _BUILDERS[kind](params, vopts)
    return Scene(configuration, ropts, vopts)


def load_scene(path: str) -> Scene:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:    # ValueError: bad JSON, or a number of too many digits
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    return build_scene(doc)
