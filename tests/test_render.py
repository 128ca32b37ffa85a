"""Render output: golden hashes, the formatting kernel against `%` on each
value, non-finite samples and the memory bound of CSV output.

tests/data/render_golden.json holds the SHA-256 of `render_svg` and of every
`sample_points` CSV of each checked-in config at its own `render.samples`,
and of `sample_points` on the equilateral_a85 vertex curve at counts on
both sides of ROW_BLOCK (2047 to 2049 for the blocked `%` formatter's 2048
rows, 191 to 193 for the kernel's 192; all hashed with `%`, never with the
kernel). It was written by the per-coordinate formatter that came before
blocked formatting, so it pins the bytes, not only their stability. The
kernel is also checked against `%` on a million values chosen to reach
every rounding case (test_kernel_matches_per_value_formatting_on_a_million
_values); dropping its tie-to-even step or Dekker's error term fails that
test. The hashes depend on the exact floats numpy's trigonometry
returns; a numpy build that rounds differently needs the fixture rewritten
(tests/rewrite_goldens.py render --write).

Five CSV hashes were rewritten by that tool when the equiangular vertex
curves began to use the general tangent-meet formula: vertex-1 to vertex-3
of clan.json and the vertex curve of equiangular_hexagon.json and of
equiangular_triangle.json. Their sample values moved by at most 1.1e-14
absolute. Every SVG hash and every other CSV hash stayed as it was.

Seven SVG hashes were rewritten by that tool when coordinates that round to
zero began to print as 0.000000 instead of -0.000000: every config's but
equiangular_hexagon.json's, whose SVG held no such coordinate. Each new SVG
is the old one with every -0.000000 token replaced by 0.000000; every CSV
hash stayed as it was.
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


# the ends of the kernel's exact range (%.17g: 1e-5 to 1e16, %.6f: below 1e12)
RANGE_EDGES = [x for edge in (1e-5, 1e12, 1e16)
               for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))]
EDGE_VALUES = [
    0.0, -0.0, 5e-7, -5e-7, 4.999999999999999e-7, -4.999999999999999e-7,
    5.000000000000001e-7, 1.5e-6, -2.5e-6, 1.0000005, -0.0000125,
    5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
    1.0, -3.0, 2.0 ** 53, 1e22, 0.1, math.pi, 9.9999999999999995e-5,
    *RANGE_EDGES, *(-x for x in RANGE_EDGES),
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


def _exactness_values() -> np.ndarray:
    """A million doubles, half of them negated: random finite bit patterns,
    every decade from 1e-7 to 1e18, the range edges and their neighbours,
    exact ties of the 17th significant digit (odd m * 2**-j whose decimal
    expansion has 18 digits) and of the 6th decimal (odd r / 128), the
    doubles nearest to (m + 1/2) 1e-6 and their neighbours, values that
    round up to a power of ten, and EDGE_VALUES."""
    rng = np.random.default_rng(30)
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, 30_000, dtype=np.int64).view(np.float64)
    decades = 10.0 ** (np.repeat(np.arange(-7.0, 18.0), 20_000) + rng.random(500_000))
    ties17 = []
    for j in range(2, 26):   # m * 5**j in [1e17, 1e18): m * 2**-j has 18 significant digits
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        m = rng.integers(lo // 2, (hi - 1) // 2, 4_000, endpoint=True) * 2 + 1
        ties17.append(np.ldexp(m[(m >= lo) & (m < hi)].astype(np.float64), -j))
    halves = (2.0 * rng.integers(0, 2 * 10 ** 13, 100_000) + 1) / 2e6   # nearest to (m + 1/2) 1e-6
    carries = np.concatenate([(2.0 * 10.0 ** np.arange(1, 18) - 1) / 2e6,
                              10.0 ** np.arange(-7.0, 19.0)])
    values = np.concatenate([bits[np.isfinite(bits)], decades, *ties17,
                             (2.0 * rng.integers(0, 2 ** 40, 100_000) + 1) / 128,
                             halves, carries, np.array(EDGE_VALUES)])
    values = np.concatenate([values, np.nextafter(halves, 0.0), np.nextafter(halves, np.inf),
                             np.nextafter(carries, 0.0), np.nextafter(carries, np.inf)])
    values[rng.random(len(values)) < 0.5] *= -1.0
    return values


@pytest.mark.parametrize("spec", ["%.17g", "%.6f"])
def test_kernel_matches_per_value_formatting_on_a_million_values(spec):
    values = _exactness_values()
    values = values[:len(values) // 8 * 8]
    assert len(values) >= 10 ** 6
    row = (spec + "\n") * 8   # eight values a row, 8 ROW_BLOCK values a pass
    got = _format_rows(row, values.reshape(-1, 8))
    chunks = (values[i:i + 2 ** 16].tolist() for i in range(0, len(values), 2 ** 16))
    want = "".join((spec + "\n") * len(chunk) % tuple(chunk) for chunk in chunks)
    if got != want:
        lines = zip(values.tolist(), got.split("\n"), want.split("\n"))
        raise AssertionError([line for line in lines if line[1] != line[2]][:10])


def test_format_rows_of_empty_table():
    assert _format_rows("%.6f", np.zeros((0, 1))) == ""


def _unsigned(text: str) -> str:
    return "0.000000" if text == "-0.000000" else text


def _svg_of_points(points) -> str:
    curve = PlaneCurve(1.0, label="fixed", position_fn=lambda ts: np.array(points, dtype=float))
    return render_svg([("envelope", curve)], [], [], samples=len(points), margin=0.0)


def test_svg_coordinates_that_round_to_zero_print_unsigned():
    # -0.0 and the negatives down to -5e-7 print as 0.000000, every other
    # value as on its own; the y flip makes every y = 0.0 such a -0.0
    near = [0.0, -0.0, 5e-7, -5e-7, -4.999999999999999e-7, -5.000000000000001e-7,
            -5e-324, 1.5e-6, -2.5e-6, 3.0]
    table = [(x, y) for x in near for y in near]
    d = re.search(r' d="M([^"]*)"', _svg_of_points(table)).group(1)
    assert d == "L".join(f"{_unsigned(f'{x:.6f}')} {_unsigned(f'{-y:.6f}')}"
                         for x, y in table + table[:1])
    view = re.search(r'viewBox="([^"]*)"', _svg_of_points([(-1e-7, 1e-7), (3.0, -3.0)])).group(1)
    assert view == "0.000000 0.000000 3.000000 3.000000"


def test_svg_path_ends_with_a_value_that_percent_formats():
    # |y| >= 1e12 goes through `%` on its own; the first point closes the
    # path, so such a y ends the first path just before the second begins
    first = [(1.0, -2e12), (0.5, 0.25), (3.0, 1e13)]
    curve = PlaneCurve(1.0, label="far", position_fn=lambda ts: np.array(first))
    svg = render_svg([("envelope", curve), ("envelope-2", CIRCLE)], [], [], samples=3, margin=0.0)
    second = CIRCLE.positions(np.linspace(0.0, CIRCLE.domain_length, 3, endpoint=False)).tolist()
    assert re.findall(r' d="M([^"]*)"', svg) == [
        "L".join(f"{_unsigned(f'{x:.6f}')} {_unsigned(f'{-y:.6f}')}" for x, y in pts + pts[:1])
        for pts in (first, second)]


@pytest.mark.parametrize("name", sorted(GOLDEN["configs"]))
def test_config_svg_holds_no_negative_zero(name):
    scene = load_scene(str(CONFIGS / name))
    opts = scene.render_options
    assert "-0.000000" not in _svg(scene, samples=opts.samples, margin=opts.margin)


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


def _format_overhead(row: str, table: np.ndarray) -> int:
    """Bytes traced above twice the text (its pieces and their join) while
    `_format_rows` formats the table."""
    _format_rows(row, table[:1])
    tracemalloc.start()
    try:
        text = _format_rows(row, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - 2 * len(text)


def test_working_set_is_the_text_and_one_pass():
    # the 16384-sample CSV and SVG path data of equilateral_a85: beyond the
    # text, formatting holds the arrays of one pass of ROW_BLOCK rows, at
    # most 600 bytes a value (slot and mask rows, the pass's text, the pair
    # indices and the rounding's temporaries), and no array of all rows
    scene = load_scene(str(CONFIGS / "equilateral_a85.json"))
    ts = np.linspace(0.0, scene.curve("vertex").domain_length, 16384, endpoint=False)
    csv = np.column_stack([ts, scene.curve("vertex").positions(ts)])
    svg = np.vstack([scene.curve(name).positions(ts) for name in ("envelope", "vertex")])
    for row, table in (("%.17g,%.17g,%.17g\n", csv), ("L%.6f %.6f", svg)):
        overhead = _format_overhead(row, table)
        assert overhead < 600 * ROW_BLOCK * table.shape[1], (row, overhead)


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
