"""What the benchmark in perfbench/ relies on from the library.

Its negative controls replace a curve's jet_fn and position_fn with
dataclasses.replace and expect verification to fail; its tracer wraps
library entry points by name and counts points from given arguments. A
refactor that broke either would not fail a benchmark run: it would make
the controls pass or a per-layer metric read zero. These tests pin both.
"""

import dataclasses
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from poncelet import circlemaps as cm
from poncelet.jets import Jet
from poncelet.scene import CONSTRUCTIONS, build_scene, load_scene
from poncelet.support import SupportFunction, curve_from_support

REPO = Path(__file__).resolve().parent.parent
TWO_PI = 2 * math.pi


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _bench_module("gate")
tracer = _bench_module("tracer")


def _doc(construction, parameters, probes=8):
    return {"construction": construction, "parameters": parameters,
            "verify": {"probes": probes, "tol": None, "expect_interior": None}}


def _support(a, *terms):
    return {"a": a, "k": 1, "terms": [{"l_num": l, "l_den": 1, "cos": c, "sin": 0.0}
                                      for l, c in terms]}


def _fourier(c, j, sin=0.0, cos=0.0):
    return {"c": c, "terms": [{"j": j, "sin": sin, "cos": cos}]}


def _config(name):
    return load_scene(str(REPO / "configs" / f"{name}.json"))


# one scene per construction kind and verifier mode
SCENES = {
    "equiangular-pair": lambda: _config("equiangular_triangle"),
    "equilateral (oracle)": lambda: _config("wankel"),
    "equilateral (sequence)": lambda: _config("equilateral_a85"),
    "equiangular-clan": lambda: _config("clan"),
    "envelope-from-vertex": lambda: _config("iterated_square"),
    "envelope-from-vertex (conjugated)": lambda: build_scene(_doc(
        "envelope-from-vertex", {"support": _support(1.0, (2, 0.05), (3, -0.03)),
                                 "step": {"m": 1, "n": 4, "h": _fourier(0.7, 1, 0.04, -0.03)}})),
    "vertex-from-envelope": lambda: build_scene(_doc(
        "vertex-from-envelope", {"support": _support(2.0),
                                 "step": {"m": 1, "n": 5, "h": _fourier(0.1, 1, 0.08, 0.03)}})),
    "clan-from-vertex": lambda: build_scene(_doc(
        "clan-from-vertex", {"support": _support(1.0, (2, 0.04)),
                             "steps": [_fourier(TWO_PI / 3, 1, sin=0.03),
                                       _fourier(TWO_PI / 3, 2, cos=0.02)]})),
    "clan-from-envelope": lambda: build_scene(_doc(
        "clan-from-envelope", {"support": _support(2.0),
                               "steps": [_fourier(2.0, 1, sin=0.05), _fourier(2.4, 2, cos=0.04)]})),
}


def test_every_construction_kind_is_covered():
    assert {name.split(" ")[0] for name in SCENES} == set(CONSTRUCTIONS)


@pytest.fixture(scope="module", params=sorted(SCENES))
def scene(request):
    return SCENES[request.param]()


def test_replaced_curve_functions_move_positions_and_jets(scene):
    ts = np.linspace(0.0, scene.configuration.domain_length, 16, endpoint=False)
    shift = np.array([gate.CONTROL_SHIFT, 0.0])
    for name, curve in scene.curve_table().items():
        moved = gate._moved_curve(curve, lambda t, pos: shift)
        pos, vel, acc = curve.jet_many(ts)
        mpos, mvel, macc = moved.jet_many(ts)
        assert np.allclose(moved.positions(ts) - curve.positions(ts), shift, atol=1e-12), name
        assert np.allclose(mpos - pos, shift, atol=1e-12), name
        assert np.array_equal(mvel, vel) and np.array_equal(macc, acc), name


def test_negative_controls_fail_verification(scene):
    assert scene.verify().passed
    for kind, cfg in gate.controls(scene.configuration).items():
        report = dataclasses.replace(scene, configuration=cfg).verify()
        assert not report.passed, kind


KNOWN_ABSENT = {"poncelet.verify._refine_root"}


def test_every_traced_entry_point_resolves():
    for name, module, path, _ in tracer.LAYERS:
        found = tracer._resolve(module, path)
        assert (found is None) == (f"{module}.{path}" in KNOWN_ABSENT), (name, module, path)
    with tracer.installed(tracer.Tracer()) as absent:
        assert set(absent) == KNOWN_ABSENT


def _traced(layer: str, call):
    t = tracer.Tracer()
    layers = tuple(entry for entry in tracer.LAYERS if entry[0] == layer)
    with tracer.installed(t, layers):
        call()
    return t.take_aggregates()[layer]


def test_lift_inversion_targets_are_the_third_argument():
    assert list(inspect.signature(cm._solve_lift).parameters)[:3] == ["lift", "dlift", "y"]
    h = cm.from_fourier(TWO_PI, 0.3, (cm.FourierTerm(1, 0.05, 0.02),))
    ys = np.linspace(0.0, TWO_PI, 37)
    for arg in (ys, Jet.variable(ys, 3)):
        agg = _traced("circlemaps.solve_lift", lambda: h.inverse().lift(arg))
        assert agg["calls"] == 1 and agg["points"] == 37


def test_positions_of_a_jet_count_its_points():
    curve = curve_from_support(SupportFunction(2.0, (), 1))
    ts = np.linspace(0.0, TWO_PI, 23)
    agg = _traced("support.positions", lambda: curve.positions(Jet.variable(ts, 2)))
    assert agg["calls"] == 1 and agg["points"] == 23
