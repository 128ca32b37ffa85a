"""Tests of the benchmark's own parts: tracer arithmetic, generator
determinism, the correctness gate and the negative controls."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gate  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from poncelet import scene as scene_mod  # noqa: E402
from poncelet import support  # noqa: E402

CONFIGS = ROOT / "configs"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _bytes(workload):
    return json.dumps([[c.label, c.doc] for c in workload.cases], sort_keys=True).encode()


def _accept(doc):
    try:
        scene_mod.parse_config(doc)
    except scene_mod.SchemaError:
        return False
    return True


class TestTracer:
    def test_self_time_of_nested_spans(self):
        clock = FakeClock()
        t = tr.Tracer(clock)
        t.begin("op")                 # op: 0 .. 10
        clock.now = 1.0
        t.begin("scene.verify")       # verify: 1 .. 9
        clock.now = 2.0
        t.begin("leaf")               # leaf: 2 .. 5
        clock.now = 5.0
        t.end(points=7)
        t.begin("leaf")               # leaf: 5 .. 6
        clock.now = 6.0
        t.end(points=3)
        clock.now = 9.0
        t.end()
        clock.now = 10.0
        t.end()
        agg = t.take_aggregates()
        assert agg["leaf"] == {"calls": 2, "points": 10, "self_s": 4.0, "total_s": 4.0}
        assert agg["scene.verify"]["self_s"] == 4.0      # 8 - 4 covered by leaves
        assert agg["scene.verify"]["total_s"] == 8.0
        assert agg["op"]["self_s"] == 2.0               # 10 - 8 covered by verify
        # coarse spans are kept whole with their parent; leaves are not
        names = [(name, parent) for _, parent, name, _, _ in t.spans]
        assert names == [("scene.verify", 1), ("op", None)]
        assert t.take_aggregates() == {}
        assert len(t.spans) == 2

    def test_installed_wraps_restores_and_reports_absent(self):
        clock = FakeClock()
        t = tr.Tracer(clock)
        original = support.SupportFunction.eval
        layers = tuple(layer for layer in tr.LAYERS if layer[0] == "support.eval")
        layers += (("gone", "poncelet.verify", "_no_such_solver", None),)
        p = support.SupportFunction(1.0)
        with tr.installed(t, layers) as absent:
            assert support.SupportFunction.eval is not original
            p.eval([0.0, 1.0, 2.0])
        assert absent == ["poncelet.verify._no_such_solver"]
        assert support.SupportFunction.eval is original
        agg = t.take_aggregates()
        assert agg["support.eval"]["calls"] == 1
        assert agg["support.eval"]["points"] == 3


class TestGenerator:
    @pytest.mark.parametrize("name", wl.WORKLOADS)
    def test_same_seed_same_bytes(self, name):
        one = wl.build_workload(name, 7, CONFIGS, _accept)
        two = wl.build_workload(name, 7, CONFIGS, _accept)
        other = wl.build_workload(name, 8, CONFIGS, _accept)
        assert _bytes(one) == _bytes(two)
        assert _bytes(one) != _bytes(other)
        assert one.rejected == 0

    def test_refused_drafts_are_counted_and_redrawn(self):
        seen = []

        def refuse_first_of_each(doc):
            seen.append(doc)
            return len(seen) % 2 == 0

        w = wl.build_workload("sequence-implicit", 1, CONFIGS, refuse_first_of_each)
        assert w.rejected == 2
        assert len(w.cases) == 3


@pytest.fixture(scope="module")
def a85():
    w = wl.build_workload("render-closed-form", 1, CONFIGS, _accept)
    case = next(c for c in w.cases if c.label == "equilateral_a85")
    scene = scene_mod.build_scene(case.doc)
    return case, scene, scene.verify()


class TestGate:
    def test_verified_scene_passes(self, a85):
        case, scene, report = a85
        assert gate.check_scene(case, scene) == []
        assert gate.check_report(case, report) == []

    def test_report_missing_a_check_is_rejected(self, a85):
        case, _, report = a85
        doctored = dataclasses.replace(report, checks=dict(report.checks))
        del doctored.checks["tangency"]
        assert doctored.passed
        problems = gate.check_report(case, doctored)
        assert problems and "checks" in problems[0]

    def test_wrong_mode_is_rejected(self, a85):
        case, scene, _ = a85
        assert gate.check_scene(dataclasses.replace(case, mode="oracle"), scene)

    def test_output_shapes(self, a85):
        case, scene, _ = a85
        small = dataclasses.replace(
            scene, render_options=dataclasses.replace(scene.render_options, samples=2))
        svg = "<?xml\n" + "<path d/>\n" * 4          # 2 curves + 2 polygons
        assert gate.check_outputs(small, svg, ["h\n1\n2\n"]) == []
        assert gate.check_outputs(small, "<?xml\n<path d/>\n", ["h\n1\n2\n"])
        assert gate.check_outputs(small, svg, ["h\n1\n"])

    def test_negative_controls_fail_verification(self, a85):
        _, scene, _ = a85
        for kind, cfg in gate.controls(scene.configuration).items():
            assert not dataclasses.replace(scene, configuration=cfg).verify().passed, kind


def test_stage_time_is_scaled_mean_over_pooled_passes():
    import reference
    import run

    first, second = run.OpResult(), run.OpResult()
    run._add(first, run.OpResult(build_s=[1.0, 3.0]), 1.0)
    run._add(second, run.OpResult(build_s=[4.0], problems=["x"]), 0.25)
    assert second.build_s == [1.0] and second.problems == ["x"]
    rounds = [([first], 0.0), ([second], 0.0)]
    assert run._pass_total(rounds, "build_s") == pytest.approx(5.0 / 3.0)
    assert run._pass_total(rounds, "verify_s") == 0.0     # no samples: the op failed

    ref = reference.REFERENCE_S
    assert reference.scale(ref, ref) == pytest.approx(1.0)
    assert reference.scale(ref, 3.0 * ref) == pytest.approx(0.5)
