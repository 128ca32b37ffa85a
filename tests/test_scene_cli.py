import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from poncelet.cli import main
from poncelet.geometry import SELF_INTERSECTION_SAMPLES, polyline_self_intersects
from poncelet.render import RenderError, render_svg, sample_points
from poncelet.scene import MAX_TERMS, SchemaError, _oracle_capable, build_scene, load_scene
from poncelet.support import SupportFunction, SupportTerm, curve_from_support
from poncelet.verify import MAX_PROBES, MAX_SHEETS, MAX_VERTICES

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
ALL_CONFIGS = sorted(CONFIGS.glob("*.json"))


def cli_env(**extra) -> dict:
    """Environment of a `python -m poncelet.cli` subprocess: this checkout's
    src/ comes first on its import path, as it does for the tests."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def equilateral_doc(a=1.6, starts=(0.0,)):
    return {
        "construction": "equilateral",
        "parameters": {"k": 1, "l": {"num": 2, "den": 1}, "a": a},
        "render": {"samples": 256, "margin": 0.05, "polygon_starts": list(starts)},
        "verify": {"probes": 16, "tol": None, "expect_interior": None},
    }


class TestSchema:
    def test_unknown_top_level_field(self):
        doc = equilateral_doc()
        doc["extra"] = 1
        with pytest.raises(SchemaError, match="unknown fields"):
            build_scene(doc)

    def test_unknown_nested_field(self):
        doc = equilateral_doc()
        doc["parameters"]["bogus"] = 2
        with pytest.raises(SchemaError):
            build_scene(doc)

    def test_unknown_construction(self):
        doc = equilateral_doc()
        doc["construction"] = "dodecahedron"
        with pytest.raises(SchemaError):
            build_scene(doc)

    def test_angles_must_be_rational_pairs(self):
        doc = {
            "construction": "equiangular-pair",
            "parameters": {"support": {"a": 9.0, "k": 1, "terms": []},
                           "angle": {"num": 2, "den": 3, "units": "pi"}},
            "render": {}, "verify": {},
        }
        with pytest.raises(SchemaError):
            build_scene(doc)

    def test_probe_floor(self):
        doc = equilateral_doc()
        doc["verify"]["probes"] = 4
        with pytest.raises(SchemaError):
            build_scene(doc)

    def test_fourier_term_needs_j(self):
        doc = {
            "construction": "clan-from-vertex",
            "parameters": {"support": {"a": 1.0, "k": 1, "terms": []},
                           "steps": [{"c": 2.0, "terms": [{"sin": 0.01}]},
                                     {"rotation_pi": {"num": 2, "den": 3}}]},
            "render": {}, "verify": {},
        }
        with pytest.raises(SchemaError, match=r"steps\[0\]\.terms\[0\]: missing fields"):
            build_scene(doc)

    def test_curve_names(self):
        scene = build_scene(equilateral_doc())
        assert sorted(scene.curve_table()) == ["envelope", "vertex"]
        with pytest.raises(SchemaError):
            scene.curve("nonesuch")


class TestCheckedInConfigs:
    def test_corpus_present(self):
        names = {p.name for p in ALL_CONFIGS}
        assert {"wankel.json", "pentagram.json", "clan.json", "iterated_square.json",
                "equiangular_triangle.json", "equiangular_hexagon.json",
                "equilateral_a85.json", "wankel_three_chamber.json"} <= names

    @pytest.mark.parametrize("name, mode", [
        ("equiangular_triangle", "oracle"), ("equiangular_hexagon", "oracle"),
        ("wankel", "oracle"), ("wankel_three_chamber", "oracle"),
        ("clan", "sequence"), ("equilateral_a85", "sequence"),
        ("iterated_square", "sequence"), ("pentagram", "sequence"),
    ])
    def test_config_lands_in_its_mode(self, name, mode):
        assert load_scene(str(CONFIGS / f"{name}.json")).configuration.mode == mode

    def test_cusped_equilateral_pair_lands_in_sequence_mode(self):
        # the 8/5 pair's one-sheet envelope has cusps; its vertex curve is simple
        doc = {"construction": "equilateral",
               "parameters": {"k": 1, "l": {"num": 2, "den": 1}, "a": 1.6}}
        config = build_scene(doc).configuration
        assert config.envelope_supports[0].min_curvature_radius() < 0
        assert config.mode == "sequence"

    def test_self_intersecting_vertex_curve_is_not_oracle_capable(self):
        circle = SupportFunction(1.0)
        cusped = curve_from_support(
            SupportFunction(-2 / 3, (SupportTerm(Fraction(2, 3), 1.0),), 3))
        assert polyline_self_intersects(cusped.sample(SELF_INTERSECTION_SAMPLES))
        assert not _oracle_capable(cusped, circle)
        assert _oracle_capable(curve_from_support(SupportFunction(2.0)), circle)

    @pytest.mark.parametrize("path", ALL_CONFIGS, ids=lambda p: p.stem)
    def test_config_builds_and_verifies(self, path):
        scene = load_scene(str(path))
        report = scene.verify()
        assert report.passed, report.to_dict()

    @pytest.mark.parametrize("path", ALL_CONFIGS, ids=lambda p: p.stem)
    def test_render_is_byte_stable(self, path):
        scene = load_scene(str(path))
        table = scene.curve_table()
        envs = [(n, c) for n, c in sorted(table.items()) if n.startswith("envelope")]
        verts = [(n, c) for n, c in sorted(table.items()) if n.startswith("vertex")]
        kwargs = dict(samples=scene.render_options.samples, margin=scene.render_options.margin)
        svg1 = render_svg(envs, verts, scene.polygons(), **kwargs)
        svg2 = render_svg(envs, verts, scene.polygons(), **kwargs)
        assert svg1 == svg2
        assert svg1.startswith("<?xml")


class TestRender:
    def test_concentric_circle_pair_path_count(self):
        doc = {
            "construction": "vertex-from-envelope",
            "parameters": {"support": {"a": 1.0, "k": 1, "terms": []},
                           "step": {"m": 1, "n": 7}},
            "render": {"samples": 128, "polygon_starts": [0.0]},
            "verify": {},
        }
        scene = build_scene(doc)
        table = scene.curve_table()
        svg = render_svg([("envelope", table["envelope"])], [("vertex", table["vertex"])],
                         scene.polygons(), samples=128)
        assert svg.count("<path") == 3   # two circles and one polygon

    def test_clan_scene_path_count(self):
        scene = load_scene(str(CONFIGS / "clan.json"))
        table = scene.curve_table()
        envs = [(n, c) for n, c in sorted(table.items()) if n.startswith("envelope")]
        verts = [(n, c) for n, c in sorted(table.items()) if n.startswith("vertex")]
        svg = render_svg(envs, verts, scene.polygons(), samples=128)
        assert svg.count("<path") == 1 + 3 + 1   # envelope, three vertex curves, polygon

    def test_empty_scene_rejected(self):
        with pytest.raises(RenderError):
            render_svg([], [], [])


class TestSamplePoints:
    def test_unit_circle_axis_rows(self):
        circle = curve_from_support(SupportFunction(1.0, (), 1))
        rows = sample_points(circle, 4).strip().splitlines()
        assert rows[0] == "t,x,y"
        data = [tuple(map(float, r.split(","))) for r in rows[1:]]
        expected = [(0.0, 1.0, 0.0), (math.pi / 2, 0.0, 1.0),
                    (math.pi, -1.0, 0.0), (3 * math.pi / 2, 0.0, -1.0)]
        for (t, x, y), (te, xe, ye) in zip(data, expected):
            assert t == pytest.approx(te, abs=1e-15)
            assert x == pytest.approx(xe, abs=1e-15)
            assert y == pytest.approx(ye, abs=1e-15)

    def test_epitrochoid_first_row(self):
        scene = load_scene(str(CONFIGS / "equilateral_a85.json"))
        rows = sample_points(scene.curve("vertex"), 1024).strip().splitlines()
        assert len(rows) == 1025
        t0, x0, y0 = map(float, rows[1].split(","))
        assert (t0, x0, y0) == pytest.approx((0.0, 2.2, 0.0), abs=1e-12)

    def test_single_row_rejected(self):
        circle = curve_from_support(SupportFunction(1.0, (), 1))
        with pytest.raises(RenderError):
            sample_points(circle, 1)


class TestCliProcess:
    def run(self, *args):
        return subprocess.run([sys.executable, "-m", "poncelet.cli", *args],
                              capture_output=True, text=True, cwd=str(REPO), env=cli_env())

    def test_build_and_verify_exit_zero(self):
        proc = self.run("build", str(CONFIGS / "wankel.json"))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["verification"]["passed"] is True

    @pytest.mark.parametrize("branch, count", [(2, 12), (3, 6)])
    def test_pair_on_a_high_branch_of_two_sheets_verifies(self, tmp_path, branch, count):
        # branch angles 7/3 and 10/3 pi lie past 2 pi, on the second sheet
        doc = {"construction": "equiangular-pair",
               "parameters": {"support": {"a": 3, "k": 2, "terms": [
                   {"l_num": 1, "l_den": 2, "cos": 0.1}]},
                   "angle": {"num": 1, "den": 3}, "branch": branch}}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        proc = self.run("verify", str(path))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True
        assert build_scene(doc).configuration.count == count

    def test_schema_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"construction": "nope"}')
        assert self.run("build", str(bad)).returncode == 2

    def test_precondition_error_exit_three(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "construction": "equilateral",
            "parameters": {"k": 1, "l": {"num": 1, "den": 1}, "a": 5.0},
            "render": {}, "verify": {}}))
        assert self.run("build", str(bad)).returncode == 3

    def test_angle_sum_violation_exit_three(self, tmp_path):
        bad = tmp_path / "clan.json"
        bad.write_text(json.dumps({
            "construction": "equiangular-clan",
            "parameters": {"support": {"a": 1.0, "k": 2, "terms": []},
                           "angles": [{"num": 2, "den": 3}, {"num": 2, "den": 3},
                                      {"num": 1, "den": 3}],
                           "branches": [0, 0, 0]},
            "render": {}, "verify": {}}))
        proc = self.run("build", str(bad))
        assert proc.returncode == 3
        assert "2*m*pi" in proc.stderr

    @pytest.mark.parametrize("command", [("build", "--skip-verify"), ("verify",)])
    def test_singular_clan_side_family_exit_three(self, tmp_path, command):
        # the side families of the singular pair in test_envelope.py, as a
        # clan: refused like the pair, not built into far-flung envelopes
        bad = tmp_path / "clan.json"
        bad.write_text(json.dumps({
            "construction": "clan-from-vertex",
            "parameters": {"support": {"a": 0.8, "k": 4,
                                       "terms": [{"l_num": 3, "l_den": 4, "cos": 1.0}]},
                           "steps": [{"rotation_pi": {"num": 8, "den": 3}}] * 2}}))
        proc = self.run(command[0], str(bad), *command[1:])
        assert proc.returncode == 3, proc.stdout
        assert "side-family denominator <D', J D> vanishes near" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_verification_failure_exit_one(self, tmp_path):
        # wrong interiority expectation: construction is fine, the check fails
        doc = equilateral_doc(a=2 + math.sqrt(3))
        doc["verify"]["expect_interior"] = False
        bad = tmp_path / "wrong.json"
        bad.write_text(json.dumps(doc))
        assert self.run("verify", str(bad)).returncode == 1

    def test_render_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert self.run("render", str(CONFIGS / "pentagram.json"), "-o", str(out1)).returncode == 0
        assert self.run("render", str(CONFIGS / "pentagram.json"), "-o", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sample_csv_golden(self, tmp_path):
        out = tmp_path / "k.csv"
        proc = self.run("sample", str(CONFIGS / "equilateral_a85.json"),
                        "--curve", "vertex", "-n", "4", "-o", str(out))
        assert proc.returncode == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "t,x,y"
        x0 = float(rows[1].split(",")[1])
        assert x0 == pytest.approx(2.2, abs=1e-12)

    @pytest.mark.parametrize("args", [
        ("verify", "pentagram.json"),
        ("sample", "equilateral_a85.json", "--curve", "vertex", "-n", "64")])
    def test_reader_closing_the_pipe_ends_quietly(self, args):
        # the read end is closed before the CLI writes, as when `| head -1`
        # has exited before the output arrives
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "poncelet.cli", args[0],
                                   str(CONFIGS / args[1]), *args[2:]],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  cwd=str(REPO), env=cli_env())
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")

    def test_iterated_square_verifies_at_128_probes(self):
        proc = subprocess.run([sys.executable, "-m", "poncelet.cli", "verify",
                               str(CONFIGS / "iterated_square.json")],
                              capture_output=True, text=True, cwd=str(REPO),
                              env=cli_env(PONCELET_PROBES="128"))
        assert proc.returncode == 0, json.loads(proc.stdout)["errors"][:3]

    def test_probe_env_override(self, tmp_path):
        env = cli_env(PONCELET_PROBES="8")
        proc = subprocess.run([sys.executable, "-m", "poncelet.cli", "verify",
                               str(CONFIGS / "wankel.json")],
                              capture_output=True, text=True, env=env, cwd=str(REPO))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["probes"] == 8


def _with(doc, path, value):
    *outer, last = path
    for key in outer:
        doc = doc[key]
    doc[last] = value


NAN, INF = float("nan"), float("inf")


def _support_pair(cos=0.1, sin=0.0, a=9.0, k=1, l_num=2) -> dict:
    return {"support": {"a": a, "k": k, "terms": [{"l_num": l_num, "l_den": 1,
                                                   "cos": cos, "sin": sin}]},
            "angle": {"num": 2, "den": 3}}


def _vertex_clan(c=2.0, sin=0.01, cos=0.0) -> dict:
    return {"support": {"a": 1.0, "k": 1, "terms": []},
            "steps": [{"c": c, "terms": [{"j": 1, "sin": sin, "cos": cos}]},
                      {"rotation_pi": {"num": 2, "den": 3}}]}


def _torsion_step(n: int, h: dict | None = None) -> dict:
    step = {"m": 1, "n": n} if h is None else {"m": 1, "n": n, "h": h}
    return {"support": {"a": 1.0, "k": 1, "terms": []}, "step": step}


def _equiangular_clan(**fields) -> dict:
    return {"support": {"a": 1.0, "k": 2, "terms": []},
            "angles": [{"num": 5, "den": 6}, {"num": 5, "den": 12}, {"num": 3, "den": 4}],
            "branches": [0, 0, 0], **fields}


def _as(construction, parameters):
    return [(("construction",), construction), (("parameters",), parameters)]


_WIGGLE = {"c": 0.3, "terms": [{"j": 1, "sin": 0.01}]}
_CAP = f"polygon vertices; at most {MAX_VERTICES} are allowed"
_SHEETS = f"sheets; at most {MAX_SHEETS} are allowed"
# 400 digits: num and den beyond 2**53 overflow a float conversion
_BIG = 10**400
_EXACT = "must be an integer of magnitude at most 2**53"
_TERM = {"l_num": 2, "l_den": 1, "cos": 1e-9}


@pytest.mark.parametrize("env, edits, command, message", [
    ({"PONCELET_PROBES": "3"}, [], ("verify",), None),
    ({"PONCELET_PROBES": "100000"}, [], ("verify",), None),
    ({}, [(("verify", "probes"), "many")], ("verify",), None),
    ({}, [(("verify", "probes"), 10**9)], ("verify",), None),
    ({}, [(("parameters",), {})], ("verify",), None),
    ({}, [(("parameters", "l", "den"), 0)], ("verify",), None),
    ({}, [(("parameters", "a"), "wide")], ("verify",), None),
    ({}, [(("render", "samples"), "lots")], ("verify",), None),
    ({}, [(("verify", "tol"), "tight")], ("verify",), None),
    ({}, [(("verify", "expect_interior"), "yes")], ("verify",), None),
    ({}, [(("parameters", "a"), NAN)], ("verify",), None),
    ({}, [(("verify", "tol"), NAN)], ("verify",), None),
    ({}, [(("render", "margin"), INF)], ("render",), None),
    ({}, [(("render", "polygon_starts"), [NAN])], ("render",), None),
    ({}, [(("verify", "probes"), INF)], ("verify",), None),
    ({}, _as("equiangular-pair", {**_support_pair(), "angle": {"num": 1, "den": 0}}),
     ("verify",), None),
    ({}, _as("equiangular-pair", _support_pair(a=-INF)), ("verify",), None),
    ({}, _as("equiangular-pair", _support_pair(cos=NAN)), ("verify",), None),
    ({}, _as("equiangular-pair", _support_pair(sin=INF)), ("verify",), None),
    ({}, _as("clan-from-vertex", _vertex_clan(c=NAN)), ("verify",), None),
    ({}, _as("clan-from-vertex", _vertex_clan(sin=INF)), ("verify",), None),
    ({}, _as("clan-from-vertex", _vertex_clan(cos=-INF)), ("verify",), None),
    ({}, [(("render", "samples"), 10**9)], ("render",), None),
    ({}, [], ("sample", "--curve", "vertex", "-n", str(10**9)), None),
    ({}, _as("equiangular-pair", {**_support_pair(), "angle": {"num": 2.5, "den": 3}}),
     ("verify",), None),
    ({}, [(("verify", "probes"), 8.9)], ("verify",), None),
    ({}, _as("equiangular-pair", _support_pair(k=1.5)), ("verify",), None),
    ({}, _as("equiangular-pair", _support_pair(k=True)), ("verify",), None),
    ({}, _as("equiangular-pair", _support_pair(l_num=2.5)), ("verify",), None),
    ({}, _as("equiangular-pair", _support_pair(l_num=10**154)), ("verify",),
     "parameters.support.terms[0].l_num / l_den must satisfy |l| <= 4096"),
    ({}, [], ("render", "-o", "/nonexistent/dir/x.svg"), None),
    ({}, [], ("sample", "--curve", "vertex", "-n", "8", "-o", "/nonexistent/dir/x.csv"), None),
    ({}, _as("equiangular-pair", {**_support_pair(), "support": {"a": 9.0, "terms": 5}}),
     ("verify",), "parameters.support.terms must be a list, got 5"),
    ({}, _as("envelope-from-vertex", _torsion_step(4, {"c": 0.3, "terms": 5})), ("verify",),
     "parameters.step.h.terms must be a list, got 5"),
    ({}, _as("equiangular-clan", _equiangular_clan(angles=5)), ("verify",),
     "parameters.angles must be a list, got 5"),
    ({}, _as("equiangular-clan", _equiangular_clan(branches=3)), ("verify",),
     "parameters.branches must be a list, got 3"),
    ({}, _as("clan-from-vertex", {**_vertex_clan(), "steps": 5}), ("verify",),
     "parameters.steps must be a list, got 5"),
    ({}, _as("equiangular-pair", {**_support_pair(), "support": {"k": 1, "terms": []}}),
     ("verify",), "parameters.support: missing fields ['a']"),
    ({}, _as("equiangular-pair", {**_support_pair(), "support": {
        "a": 9.0, "terms": [{"l_den": 1, "cos": 0.1}]}}),
     ("verify",), "parameters.support.terms[0]: missing fields ['l_num']"),
    ({}, _as("envelope-from-vertex", _torsion_step(1000003, _WIGGLE)), ("build", "--skip-verify"),
     f"parameters.step.n gives 1000003 {_CAP}"),
    ({}, _as("vertex-from-envelope", _torsion_step(1000003)), ("verify",),
     f"parameters.step.n gives 1000003 {_CAP}"),
    ({}, _as("equiangular-pair", {**_support_pair(), "angle": {"num": 1, "den": 1000001}}),
     ("verify",), f"parameters.angle gives 2000002 {_CAP}"),
    ({}, [(("parameters", "l"), {"num": 1000001, "den": 1000000})], ("verify",),
     f"parameters.l gives 2000001 {_CAP}"),
    ({}, _as("clan-from-vertex", {**_vertex_clan(),
                                  "steps": [{"rotation_pi": {"num": 1, "den": 1000}}] * 999}),
     ("verify",), f"parameters.steps gives 1000 {_CAP}"),
    ({}, [(("verify", "expect_interior"), 1)], ("verify",),
     "verify.expect_interior must be true, false or null, got 1"),
    ({}, [(("verify", "tol"), 0)], ("verify",), "verify.tol must be positive, got 0"),
    ({}, [(("verify", "tol"), -1)], ("verify",), "verify.tol must be positive, got -1"),
    ({}, [(("render", "margin"), -1)], ("render",),
     "render.margin must be between 0 and 1, got -1"),
    ({}, [(("render", "margin"), 1e308)], ("render",),
     "render.margin must be between 0 and 1, got 1e+308"),
    ({}, [(("parameters", "a"), True)], ("verify",), "parameters.a must be a number, got True"),
    ({}, [(("verify", "tol"), True)], ("verify",), "verify.tol must be a number, got True"),
    ({}, _as("equiangular-pair", _support_pair(cos=False)), ("verify",),
     "parameters.support.terms[0].cos must be a number, got False"),
    ({}, [(("parameters", "k"), 10**9)], ("verify",),
     f"parameters.k with parameters.l gives 1000000000 {_SHEETS}"),
    ({}, _as("vertex-from-envelope", {**_torsion_step(7), "support": {
        "a": 1.0, "k": 10**9, "terms": []}}), ("verify",),
     f"parameters.support.k gives 1000000000 {_SHEETS}"),
    ({}, [(("parameters", "k"), 64), (("parameters", "l"), {"num": 1, "den": 4095})],
     ("verify",), f"parameters.k with parameters.l gives 4095 {_SHEETS}"),
    ({}, _as("equiangular-pair", {**_support_pair(), "angle": {"num": _BIG, "den": _BIG + 1}}),
     ("build", "--skip-verify"), f"parameters.angle.num {_EXACT}"),
    ({}, _as("equiangular-clan", {"support": {"a": 1.0, "k": 1, "terms": []}, "angles": [
        {"num": _BIG - 2, "den": 2 * _BIG}, {"num": _BIG + 2, "den": 2 * _BIG},
        {"num": 1, "den": 2}, {"num": 1, "den": 2}]}),
     ("build", "--skip-verify"), f"parameters.angles[0].num {_EXACT}"),
    ({}, _as("clan-from-vertex", {**_vertex_clan(),
                                  "steps": [{"rotation_pi": {"num": _BIG, "den": 3}}]}),
     ("build", "--skip-verify"), f"parameters.steps[0].rotation_pi.num {_EXACT}"),
    ({}, [(("parameters", "l"), {"num": _BIG, "den": _BIG - 1})], ("build", "--skip-verify"),
     f"parameters.l.num {_EXACT}"),
    ({}, [(("parameters", "k"), _BIG)], ("build", "--skip-verify"), f"parameters.k {_EXACT}"),
    ({}, _as("vertex-from-envelope", {**_torsion_step(4), "step": {
        "m": _BIG + 1, "n": 4, "h": _WIGGLE}}), ("verify",), f"parameters.step.m {_EXACT}"),
    ({}, _as("equiangular-pair", {**_support_pair(), "support": {
        "a": 9.0, "terms": [_TERM] * (MAX_TERMS + 1)}}), ("build", "--skip-verify"),
     f"parameters.support.terms has {MAX_TERMS + 1} entries; at most {MAX_TERMS} are allowed"),
    ({}, _as("envelope-from-vertex", _torsion_step(4, {"c": 0.3, "terms": [
        {"j": 1, "sin": 1e-6}] * (MAX_TERMS + 1)})), ("build", "--skip-verify"),
     f"parameters.step.h.terms has {MAX_TERMS + 1} entries; at most {MAX_TERMS} are allowed"),
    ({}, [(("render", "polygon_starts"), [0.0] * (MAX_PROBES + 1))], ("build", "--skip-verify"),
     f"render.polygon_starts has {MAX_PROBES + 1} entries; at most {MAX_PROBES} are allowed"),
], ids=["env-probes-below-floor", "env-probes-above-cap", "probes-not-a-number",
        "probes-above-cap", "parameters-missing", "zero-denominator", "a-not-a-number",
        "samples-not-a-number", "tol-not-a-number", "expect-interior-not-a-bool",
        "a-nan", "tol-nan", "margin-infinite", "polygon-start-nan", "probes-infinite",
        "angle-zero-denominator", "support-a-infinite", "support-cos-nan", "support-sin-infinite", "fourier-c-nan",
        "fourier-sin-infinite", "fourier-cos-infinite", "samples-above-cap",
        "sample-count-above-cap", "angle-num-fractional", "probes-fractional",
        "support-k-fractional", "support-k-boolean", "support-l-num-fractional",
        "support-frequency-above-cap",
        "render-output-unwritable", "sample-output-unwritable",
        "support-terms-not-a-list", "fourier-terms-not-a-list", "clan-angles-not-a-list",
        "clan-branches-not-a-list", "clan-steps-not-a-list", "support-a-missing",
        "support-l-num-missing", "fourier-period-above-cap", "rigid-period-above-cap",
        "angle-vertices-above-cap", "equilateral-vertices-above-cap",
        "clan-steps-above-cap", "expect-interior-one", "tol-zero", "tol-negative",
        "margin-negative", "margin-above-one", "a-boolean", "tol-boolean",
        "support-cos-boolean", "equilateral-sheets-above-cap", "support-sheets-above-cap",
        "equilateral-used-sheets-above-cap", "angle-num-beyond-float",
        "clan-angle-num-beyond-float", "rotation-num-beyond-float", "equilateral-l-beyond-float",
        "equilateral-k-beyond-float", "torsion-m-beyond-float", "support-terms-above-cap",
        "fourier-terms-above-cap", "polygon-starts-above-cap"])
def test_malformed_input_exits_two_without_traceback(tmp_path, env, edits, command, message):
    doc = equilateral_doc()
    for path, value in edits:
        _with(doc, path, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "poncelet.cli", *command, str(path)],
                          capture_output=True, text=True, cwd=str(REPO),
                          env=cli_env(**env), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("schema error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr     # no warning beside the error
    if message is not None:
        assert message in proc.stderr


def test_integer_past_the_json_digit_limit_exits_two(tmp_path):
    # Python refuses to read an integer of more than 4300 digits
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(equilateral_doc()).replace('"k": 1', '"k": ' + "9" * 5000))
    proc = subprocess.run([sys.executable, "-m", "poncelet.cli", "build", "--skip-verify",
                           str(path)], capture_output=True, text=True, cwd=str(REPO),
                          env=cli_env(), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("schema error: cannot read config")
    assert "Traceback" not in proc.stderr


def test_equilateral_sheet_cap_counts_the_sheets_used():
    # l * k = 65/2 is not an integer, so the pair is built on the 2 sheets of l
    doc = equilateral_doc(a=6.0)
    doc["parameters"].update(k=MAX_SHEETS + 1, l={"num": 1, "den": 2})
    scene = build_scene(doc)
    assert scene.configuration.envelope_supports[0].sheets == 2
    assert scene.verify(probes=8).passed


def test_import_loads_only_the_standard_library_numpy_and_poncelet():
    # the runtime dependency is numpy only
    script = ("import json, sys; before = set(sys.modules); import poncelet; "
              "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=str(REPO), env=cli_env(), timeout=60, check=True)
    loaded = set(json.loads(proc.stdout))
    assert {"numpy", "poncelet"} <= loaded
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "poncelet"}


def test_every_public_name_resolves():
    import poncelet
    missing = [name for name in poncelet.__all__ if not hasattr(poncelet, name)]
    assert not missing
    assert len(set(poncelet.__all__)) == len(poncelet.__all__)


def test_main_entrypoint_in_process(tmp_path, capsys):
    rc = main(["build", str(CONFIGS / "equilateral_a85.json"), "--skip-verify"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scene"]["vertex_count"] == 3


def test_periodic_clan_closes_after_its_repeating_block(tmp_path, capsys):
    # the branch angles repeat the block [1/3, 2/3], whose sum 1*pi closes
    # after two turns on one sheet: 4 vertices, not the 8 of a full cycle
    doc = {"construction": "equiangular-clan",
           "parameters": {"support": {"a": 1.0, "k": 1,
                                      "terms": [{"l_num": 2, "l_den": 1, "cos": 0.05}]},
                          "angles": [{"num": 1, "den": 3}, {"num": 2, "den": 3}] * 4},
           "verify": {"probes": 16, "tol": None, "expect_interior": None}}
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(doc))
    assert main(["build", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["scene"]["vertex_count"] == 4
    assert out["verification"]["checks"]["no_premature_closure"]


@pytest.mark.parametrize("construction", ["clan-from-envelope", "clan-from-vertex"])
def test_clan_with_coincident_vertices_exits_three(tmp_path, capsys, construction):
    # g_3 = g_1 everywhere: both duals refuse the steps before building, where
    # clan-from-envelope used to build them and fail verify on zero-length sides
    doc = {"construction": construction,
           "parameters": {"support": {"a": 1}, "steps": [{"c": 2.0}, {"c": 2.0}, {"c": -2.0}]}}
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 3
    assert capsys.readouterr().err.startswith(
        "construction error: polygon degenerates: g_3 o g_1^-1 has a fixed point near t = ")


def _half_period_doc(construction: str, **parameters) -> dict:
    """A scene on a k = 2 support with one l = 2 term: its curves repeat after
    2*pi, half of the 4*pi domain."""
    support = {"a": 1.0, "k": 2, "terms": [{"l_num": 2, "l_den": 1, "cos": 0.05}]}
    return {"construction": construction, "parameters": {"support": support, **parameters},
            "verify": {"probes": 16, "tol": None, "expect_interior": None}}


def _build(tmp_path, doc: dict) -> int:
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    return main(["build", str(path)])


def test_equiangular_pair_counts_its_vertices_over_the_support_period(tmp_path, capsys):
    # angle 2/3 closes after 3 steps of the 2*pi period, not after the 6 that
    # fill the domain; branch 2, one period past branch 0, walks the same polygon
    for branch in (0, 2):
        doc = _half_period_doc("equiangular-pair", angle={"num": 2, "den": 3}, branch=branch)
        assert _build(tmp_path, doc) == 0, branch
        out = json.loads(capsys.readouterr().out)
        assert out["scene"]["vertex_count"] == 3, branch
        assert out["verification"]["checks"]["no_premature_closure"], branch


def test_equiangular_clan_counts_its_vertices_over_the_support_period(tmp_path, capsys):
    # the block [1/3, 2/3] sums to pi: two turns of it fill the 2*pi period
    doc = _half_period_doc("equiangular-clan", angles=[{"num": 1, "den": 3},
                                                       {"num": 2, "den": 3}] * 2)
    assert _build(tmp_path, doc) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["scene"]["vertex_count"] == 4
    assert out["verification"]["checks"]["no_premature_closure"]


def test_clan_whose_branch_angles_close_a_support_period_exits_three(tmp_path, capsys):
    # 4/3 pi + 2/3 pi = 2 pi is no multiple of the 4*pi domain, but it is
    # one period of the curves: two consecutive vertices are one point
    doc = _half_period_doc("equiangular-clan", angles=[{"num": 1, "den": 3},
                                                       {"num": 2, "den": 3}] * 2,
                           branches=[1, 0, 0, 0])
    assert _build(tmp_path, doc) == 3
    assert ("polygon degenerates: consecutive branch angles 4/3*pi and 2/3*pi sum to a "
            "multiple of 2*pi") in capsys.readouterr().err


@pytest.mark.parametrize("command", [("build", "--skip-verify"), ("verify",)])
def test_clan_whose_consecutive_branch_angles_close_a_turn_exits_three(tmp_path, command):
    # branch angles 1/2 and 3/2 pi sum to 2 pi: the tangent lines before and
    # after them are one line, so two consecutive vertices are one point
    doc = {"construction": "equiangular-clan",
           "parameters": {"support": {"a": 1.0, "k": 1,
                                      "terms": [{"l_num": 2, "l_den": 1, "cos": 0.05}]},
                          "angles": [{"num": 1, "den": 2}] * 4, "branches": [0, 1, 0, 1]}}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "poncelet.cli", command[0], str(path),
                           *command[1:]], capture_output=True, text=True, cwd=str(REPO),
                          env=cli_env())
    assert proc.returncode == 3, proc.stdout
    assert "polygon degenerates: consecutive branch angles 1/2*pi and 3/2*pi" in proc.stderr
    assert "Traceback" not in proc.stderr


def _fourier_step_doc(j: int, sin: float) -> dict:
    return {"construction": "envelope-from-vertex",
            "parameters": {"support": {"a": 1.0, "k": 1, "terms": []},
                           "step": {"m": 1, "n": 4,
                                    "h": {"c": 0.3, "terms": [{"j": j, "sin": sin}]}}}}


@pytest.mark.parametrize("command", [("build", "--skip-verify"), ("verify",)])
def test_aliased_non_monotone_step_exits_three(tmp_path, command):
    # F' = 1 + 2 cos(1024 x) dips to -1 between the points of a 1024-point grid
    path = tmp_path / "aliased.json"
    path.write_text(json.dumps(_fourier_step_doc(1024, 0.001953125)))
    proc = subprocess.run([sys.executable, "-m", "poncelet.cli", command[0], str(path),
                           *command[1:]], capture_output=True, text=True, cwd=str(REPO),
                          env=cli_env())
    assert proc.returncode == 3, proc.stderr
    assert "lift is not strictly increasing" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("j", [4097, -5000])
def test_fourier_harmonic_above_the_cap_exits_two(tmp_path, j):
    path = tmp_path / "harmonic.json"
    path.write_text(json.dumps(_fourier_step_doc(j, 1e-9)))
    proc = subprocess.run([sys.executable, "-m", "poncelet.cli", "build", str(path),
                           "--skip-verify"], capture_output=True, text=True, cwd=str(REPO),
                          env=cli_env())
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("schema error: ") and "|j| <= 4096" in proc.stderr
