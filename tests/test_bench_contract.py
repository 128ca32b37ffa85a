"""What the benchmark in perfbench/ relies on from the library.

Its negative controls replace a curve's jet_fn and position_fn with
dataclasses.replace and expect verification to fail; its tracer wraps
library entry points by name and counts points from given arguments. A
refactor that broke either would not fail a benchmark run: it would make
the controls pass or a per-layer metric read zero. These tests pin both,
and the root solvers that the tracer is to wrap in the modules that call them.
The verifier reaches a curve's derivatives only through jet_many, at the
order it reads, and never passes a Jet to position_fn, so the controls'
array-only replacements are all it sees.
"""

import dataclasses
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from poncelet import circlemaps as cm
from poncelet import roots, verify
from poncelet.equiangular import ConstructionError
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


# the documents of the scenes below that no config holds
DOCUMENTS = {
    "envelope-from-vertex (conjugated)": _doc(
        "envelope-from-vertex", {"support": _support(1.0, (2, 0.05), (3, -0.03)),
                                 "step": {"m": 1, "n": 4, "h": _fourier(0.7, 1, 0.04, -0.03)}}),
    "vertex-from-envelope": _doc(
        "vertex-from-envelope", {"support": _support(2.0),
                                 "step": {"m": 1, "n": 5, "h": _fourier(0.1, 1, 0.08, 0.03)}}),
    "clan-from-vertex": _doc(
        "clan-from-vertex", {"support": _support(1.0, (2, 0.04)),
                             "steps": [_fourier(TWO_PI / 3, 1, sin=0.03),
                                       _fourier(TWO_PI / 3, 2, cos=0.02)]}),
    "clan-from-envelope": _doc(
        "clan-from-envelope", {"support": _support(2.0),
                               "steps": [_fourier(2.0, 1, sin=0.05), _fourier(2.4, 2, cos=0.04)]}),
}

# one scene per construction kind and verifier mode
SCENES = {
    "equiangular-pair": lambda: _config("equiangular_triangle"),
    "equilateral (oracle)": lambda: _config("wankel"),
    "equilateral (sequence)": lambda: _config("equilateral_a85"),
    "equiangular-clan": lambda: _config("clan"),
    "envelope-from-vertex": lambda: _config("iterated_square"),
    **{name: (lambda doc=doc: build_scene(doc)) for name, doc in DOCUMENTS.items()},
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


def test_first_order_jets_are_the_second_order_jets_cut(scene):
    # the contact solves read X' from jet_many(ts, 1); it must not move a bit
    ts = np.linspace(0.0, scene.configuration.domain_length, 64, endpoint=False) + 0.01
    for name, curve in scene.curve_table().items():
        first, second = curve.jet_many(ts, 1), curve.jet_many(ts)
        assert len(first) == 2 and len(second) == 3, name
        assert [a.tobytes() for a in first] == [a.tobytes() for a in second[:2]], name


def test_contact_recovery_asks_for_order_two_jets_within_a_budget(monkeypatch):
    # the contact solves take g'' = <X'', n> with g' from one order-2 jet,
    # and the Rolle splits take secant slopes, because the negative controls'
    # jet_fn curves give no order above 2; one order-2 jet on the grid gives
    # the distance minima and the cells' end values
    solves, live = [], []       # the jet orders each solver call asks for
    jet_many = verify.PlaneCurve.jet_many

    def traced_jet(self, ts, *args, **kwargs):
        if live:
            solves[-1].add(kwargs.get("order", args[0] if args else 2))
        return jet_many(self, ts, *args, **kwargs)

    def traced(solve):
        def traced_solve(*args, **kwargs):
            solves.append(set())
            live.append(True)
            try:
                return solve(*args, **kwargs)
            finally:
                live.pop()
        return traced_solve

    monkeypatch.setattr(verify.PlaneCurve, "jet_many", traced_jet)
    monkeypatch.setattr(verify, "newton_roots", traced(verify.newton_roots))
    monkeypatch.setattr(verify, "secant_roots", traced(verify.secant_roots))
    for name in ("envelope-from-vertex", "envelope-from-vertex (conjugated)",
                 "clan-from-vertex"):
        scene = SCENES[name]()
        assert scene.configuration.mode == "sequence", name
        solves.clear()
        assert scene.verify().passed, name
        assert len(solves) >= len(scene.configuration.envelopes), name
        assert all(s <= {1, 2} for s in solves), (name, solves)

    # iterated_square at 8 probes evaluated its envelope 12 times per verify
    # with a positions call on the grid, order-1 contact solves and their
    # order-2 end values; one grid jet and Newton on g'' take 9
    monkeypatch.undo()
    scene = _config("iterated_square")
    envelope = scene.configuration.envelopes[0]
    calls = []
    for name in ("jet_many", "positions"):
        method = getattr(verify.PlaneCurve, name)

        def counted(self, *args, _method=method, **kwargs):
            if self is envelope:
                calls.append(1)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(verify.PlaneCurve, name, counted)
    assert scene.verify(probes=8).passed
    assert len(calls) <= 9


def test_negative_controls_fail_verification(scene):
    assert scene.verify().passed
    for kind, cfg in gate.controls(scene.configuration).items():
        report = dataclasses.replace(scene, configuration=cfg).verify()
        assert not report.passed, kind


def test_vertex_curves_moved_by_a_millionth_of_the_scene_fail(scene):
    # the polygons a sequence-mode verify checks lie on the configuration's
    # own vertex curves, so moving the curves alone moves them
    cfg = scene.configuration
    size = max(float(np.max(np.abs(c.sample(256)))) for c in scene.curve_table().values())
    shift = np.array([1e-6 * size, 0.0])
    moved = dataclasses.replace(cfg, vertex_curves=tuple(
        gate._moved_curve(k, lambda ts, pos: shift) for k in cfg.vertex_curves))
    assert not dataclasses.replace(scene, configuration=moved).verify().passed


# entry points the tracer still wraps but the library no longer has
KNOWN_ABSENT = {"poncelet.verify._refine_root", "poncelet.verify.next_vertex_oracle"}


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


def test_root_solver_signature():
    assert list(inspect.signature(roots.newton_roots).parameters) == [
        "fn", "x", "lo", "hi", "rising", "ftol", "xtol", "steps"]
    assert list(inspect.signature(roots.secant_roots).parameters) == ["fn", "lo", "hi", "flo",
                                                                       "fhi", "steps"]


def _fixed_point_clan():
    with pytest.raises(ConstructionError, match="fixed point"):
        build_scene(_doc("clan-from-vertex", {
            "support": _support(1.0), "steps": [{"c": 2.0}, _fourier(-2.0, 1, sin=0.3)]}))


# each module that solves brackets, the solver it looks up and calls that
# reach it: the periodic scan in roots refines by Newton for the oracle and
# every construction precondition, circlemaps inverts lifts with the same
# Newton loop, and verify solves the side contacts of parametric envelopes
# with it, and the speed minima of regularity_scan by its secant wrapper
SOLVER_USERS = {
    "poncelet.roots-oracle": (roots, "newton_roots", lambda: _config("wankel").verify(probes=8)),
    "poncelet.roots-clan": (roots, "newton_roots", _fixed_point_clan),
    "poncelet.roots-from_fourier": (roots, "newton_roots", lambda: cm.from_fourier(
        TWO_PI, 0.3, (cm.FourierTerm(1, 0.3, 0.0), cm.FourierTerm(2, 0.0, 0.36)))),
    "poncelet.circlemaps": (cm, "newton_roots", lambda: cm.from_fourier(
        TWO_PI, 0.3, (cm.FourierTerm(1, 0.05, 0.02),)).inverse().lift(np.linspace(0.0, 1.0, 5))),
    "poncelet.verify": (verify, "newton_roots",
                        lambda: _config("iterated_square").verify(probes=8)),
    "poncelet.verify-regularity": (verify, "secant_roots", lambda: verify.regularity_scan(
        _config("iterated_square").configuration.envelopes[0])),
}


@pytest.mark.parametrize("user", list(SOLVER_USERS))
def test_solver_is_looked_up_as_a_module_attribute(monkeypatch, user):
    # a wrapper set on the module, as the tracer sets one, sees every call
    module, name, call = SOLVER_USERS[user]
    assert getattr(module, name) is getattr(roots, name)
    calls = []
    solve = getattr(roots, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    call()
    assert calls
