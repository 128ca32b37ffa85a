"""Golden polygons: every checked-in config's polygon at its render starts
and at 8 equispaced starts, as the constructions built them before they
shared one polygon assembler (tests/data/polygons.json). Each field must
match to 1e-12 relative to the largest magnitude of that field."""

import json
from pathlib import Path

import numpy as np
import pytest

from poncelet.scene import load_scene

REPO = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((REPO / "tests" / "data" / "polygons.json").read_text())


def _fields(poly) -> dict:
    return {
        "vertices": [[v.x, v.y] for v in poly.vertices],
        "parameters": list(poly.parameters),
        "contact_points": [[c.point.x, c.point.y] for c in poly.contacts],
        "contact_parameters": [c.parameter for c in poly.contacts],
        "chords": [c.chord for c in poly.contacts],
        "closure_gap": poly.closure_gap,
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_polygons_match_golden(name):
    scene = load_scene(str(REPO / "configs" / name))
    cfg = scene.configuration
    want = GOLDEN[name]
    starts = list(scene.render_options.polygon_starts) + [
        float(t) for t in np.linspace(0.0, cfg.domain_length, 8, endpoint=False)]
    assert [g["start"] for g in want] == starts
    for golden in want:
        poly = cfg.polygon(golden["start"])
        got = _fields(poly)
        assert [c.envelope_index for c in poly.contacts] == golden["envelope_indices"]
        for key, value in got.items():
            expected = np.asarray(golden[key], dtype=float)
            scale = max(float(np.max(np.abs(expected))), 1.0)
            np.testing.assert_allclose(value, expected, rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=f"{name} start {golden['start']}: {key}")
