"""Golden polygons: every checked-in config's polygon at its render starts
and at 8 equispaced starts, as the constructions built them before they
shared one polygon assembler (tests/data/polygons.json). Each field must
match to 1e-12 relative to the largest magnitude of that field.

Beside the goldens, every construction kind's contacts must agree with the
envelopes they name: the envelope at the contact parameter is the contact
point, and that point lies on its side line."""

import json
from pathlib import Path

import numpy as np
import pytest

from poncelet.scene import load_scene
from test_bench_contract import SCENES

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


@pytest.mark.parametrize("name", sorted(SCENES))
def test_contacts_lie_on_their_envelope_and_side(name):
    cfg = SCENES[name]().configuration
    for start in np.linspace(0.0, cfg.domain_length, 8, endpoint=False) + 0.1:
        poly = cfg.polygon(float(start))
        v = np.array([[q.x, q.y] for q in poly.vertices])
        d = np.roll(v, -1, axis=0) - v
        for i, contact in enumerate(poly.contacts):
            x = np.array([contact.point.x, contact.point.y])
            on_envelope = cfg.envelopes[contact.envelope_index].positions([contact.parameter])[0]
            assert np.max(np.abs(on_envelope - x)) < 1e-12, (start, i)
            r = x - v[i]
            assert abs(d[i, 0] * r[1] - d[i, 1] * r[0]) / np.hypot(*d[i]) < 1e-12, (start, i)
