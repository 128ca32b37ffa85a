"""Render output: golden hashes, the blocked row formatter, non-finite
samples and the memory bound of CSV output.

tests/data/render_golden.json holds the SHA-256 of `render_svg` and of every
`sample_points` CSV of each checked-in config at its own `render.samples`,
and of `sample_points` on the equilateral_a85 vertex curve at counts on
both sides of ROW_BLOCK. It was written by the per-coordinate formatter
that came before blocked formatting, so it pins the bytes, not only their
stability. The hashes depend on the exact floats numpy's trigonometry
returns; a numpy build that rounds differently needs the fixture rewritten
(tests/rewrite_goldens.py render --write).

Five CSV hashes were rewritten by that tool when the equiangular vertex
curves began to use the general tangent-meet formula: vertex-1 to vertex-3
of clan.json and the vertex curve of equiangular_hexagon.json and of
equiangular_triangle.json. Their sample values moved by at most 1.1e-14
absolute. Every SVG hash and every other CSV hash stayed as it was.
"""

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet.cli import main
from poncelet.render import (MAX_SAMPLES, ROW_BLOCK, RenderError, _format_rows,
                             render_svg, sample_points)
from poncelet.scene import Scene, load_scene
from poncelet.support import PlaneCurve, SupportFunction, curve_from_support

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = json.loads((REPO / "tests" / "data" / "render_golden.json").read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _svg(scene, **kwargs) -> str:
    table = scene.curve_table()
    envs = [(n, c) for n, c in sorted(table.items()) if n.startswith("envelope")]
    verts = [(n, c) for n, c in sorted(table.items()) if n.startswith("vertex")]
    return render_svg(envs, verts, scene.polygons(), **kwargs)


@pytest.mark.parametrize("name", sorted(GOLDEN["configs"]))
def test_config_outputs_match_golden(name):
    scene = load_scene(str(CONFIGS / name))
    opts = scene.render_options
    want = GOLDEN["configs"][name]
    assert opts.samples == want["samples"]
    assert _sha(_svg(scene, samples=opts.samples, margin=opts.margin)) == want["svg"]
    table = scene.curve_table()
    assert sorted(table) == sorted(want["csv"])
    for curve_name, digest in want["csv"].items():
        assert _sha(sample_points(table[curve_name], opts.samples)) == digest, curve_name


@pytest.mark.parametrize("name", ["clan", "iterated_square", "wankel"])
def test_polygons_are_assembled_on_the_configuration_curves(name):
    # a configuration whose vertex curves were replaced renders polygons on
    # the new curves, not on the curves its construction built
    scene = load_scene(str(CONFIGS / f"{name}.json"))
    cfg, shift = scene.configuration, np.array([0.25, -0.5])
    before = scene.polygons()
    moved = tuple(dataclasses.replace(k, jet_fn=None,
                                      position_fn=lambda ts, k=k: k.positions(ts) + shift)
                  for k in cfg.vertex_curves)
    scene.configuration = dataclasses.replace(cfg, vertex_curves=moved)
    after = scene.polygons()
    assert len(after) == len(before) == len(scene.render_options.polygon_starts)
    for old, new in zip(before, after):
        np.testing.assert_allclose(new.vertices, old.vertices + shift, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(new.contacts, old.contacts)


def test_golden_covers_every_config():
    assert sorted(GOLDEN["configs"]) == sorted(p.name for p in CONFIGS.glob("*.json"))


def test_sample_counts_match_golden():
    counts = sorted(map(int, GOLDEN["sample_counts"]))
    assert {2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1} <= set(counts)
    curve = load_scene(str(CONFIGS / "equilateral_a85.json")).curve("vertex")
    for n in counts:
        assert _sha(sample_points(curve, n)) == GOLDEN["sample_counts"][str(n)], n


EDGE_VALUES = [
    0.0, -0.0, 5e-7, -5e-7, 4.999999999999999e-7, -4.999999999999999e-7,
    5.000000000000001e-7, 1.5e-6, -2.5e-6, 1.0000005, -0.0000125,
    5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
    1.0, -3.0, 2.0 ** 53, 1e22, 0.1, math.pi,
]
values = st.one_of(st.sampled_from(EDGE_VALUES),
                   st.floats(allow_nan=False, allow_infinity=False))
lengths = st.sampled_from([1, 2, 3, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])


@settings(max_examples=40)
@given(st.lists(values, min_size=1, max_size=48), lengths, st.integers(0, 2 ** 32 - 1))
def test_format_rows_matches_per_value_formatting(pool, n, seed):
    table = np.random.default_rng(seed).choice(np.array(pool), size=(n, 3))
    rows = table.tolist()
    assert _format_rows("L%.6f %.6f", table[:, :2]) == "".join(
        f"L{x:.6f} {y:.6f}" for x, y, _ in rows)
    assert _format_rows("%.17g,%.17g,%.17g\n", table) == "".join(
        f"{t:.17g},{x:.17g},{y:.17g}\n" for t, x, y in rows)


def test_format_rows_of_empty_table():
    assert _format_rows("%.6f", np.zeros((0, 1))) == ""


CIRCLE = curve_from_support(SupportFunction(1.0, (), 1))


def _broken_circle(value: float, label: str = "broken") -> PlaneCurve:
    """The unit circle with `value` in place of its points for t in [1, 1.1)."""
    def position_fn(ts):
        pts = CIRCLE.positions(ts)
        pts[(1.0 <= ts) & (ts < 1.1), 1] = value
        return pts
    return PlaneCurve(CIRCLE.domain_length, label=label, position_fn=position_fn)


def _first_bad(n: int) -> float:
    ts = np.linspace(0.0, CIRCLE.domain_length, n, endpoint=False)
    return float(ts[ts >= 1.0][0])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_samples_raise(value):
    curve = _broken_circle(value)
    message = re.escape(f"curve 'broken' has a non-finite point at t = {_first_bad(64)!r}")
    with pytest.raises(RenderError, match=message):
        sample_points(curve, 64)
    with pytest.raises(RenderError, match=message):
        render_svg([("envelope", CIRCLE)], [("vertex", curve)], [], samples=64)


def test_non_finite_samples_exit_three(monkeypatch, capsys):
    config = str(CONFIGS / "equilateral_a85.json")
    monkeypatch.setattr(Scene, "curve", lambda self, name: _broken_circle(math.nan))
    assert main(["sample", config, "--curve", "vertex", "-n", "64"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("construction error: curve 'broken' has a non-finite point")
    monkeypatch.setattr(Scene, "curve_table",
                        lambda self: {"vertex": _broken_circle(math.nan)})
    assert main(["render", config]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_csv_memory_stays_within_three_times_the_output():
    sample_points(CIRCLE, 4)
    tracemalloc.start()
    try:
        csv = sample_points(CIRCLE, MAX_SAMPLES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(csv), (peak, len(csv))


@pytest.mark.parametrize("command", [("render",), ("sample", "--curve", "vertex", "-n", "8")])
def test_unwritable_output_names_the_path(tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.txt"
    config = str(CONFIGS / "equilateral_a85.json")
    assert main([*command, config, "-o", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"schema error: cannot write output {target}: ")


@pytest.mark.parametrize("margin", [-1.0, 1.5, 1e308, math.nan])
def test_margin_outside_zero_to_one_raises(margin):
    with pytest.raises(RenderError, match="need a margin between 0 and 1"):
        render_svg([("envelope", CIRCLE)], [], [], samples=64, margin=margin)
