"""The bicentric triangle of incircle r = 1 and circumcircle R = 3, built
through the paper's vertex-curve formula from a conjugator fitted to the
closed-form contact map alone (tests/bicentric.py): the construction must
give back the circumcircle, walk the classical triangles, verify, and leave
the circumcircle when the centre distance breaks Chapple-Euler."""

import math

import numpy as np
import pytest

from bicentric import D, R_OUT, bicentric_scene, contact_map, tangent_meet
from poncelet import circlemaps as cm
from poncelet.equiangular import assemble

TS = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)


@pytest.fixture(scope="module")
def scene():
    return bicentric_scene()


def circumcircle_distance(points: np.ndarray, d: float = D) -> np.ndarray:
    return np.abs(np.hypot(points[..., 0] - d, points[..., 1]) - R_OUT)


def test_vertex_curve_is_the_circumcircle(scene):
    assert np.max(circumcircle_distance(scene.vertex_curves[0].positions(TS))) < 1e-11


def test_walk_follows_the_contact_map_to_the_tangent_meets(scene):
    cfg = scene.configuration
    walk = cfg.walk(np.linspace(0.0, 2 * math.pi, 40, endpoint=False))
    ts = walk.vertex_params
    assert np.max(np.abs(ts[:, 1:] - contact_map(ts[:, :-1], D))) < 1e-11
    assert np.max(np.abs(ts[:, -1] - ts[:, 0] - 2 * math.pi)) < 1e-11    # a triangle
    poly = assemble(walk, cfg.vertex_curves, cfg.envelopes)
    assert np.max(np.abs(poly.vertices - tangent_meet(ts[:, :-1], D))) < 1e-11


@pytest.mark.parametrize("probes", [8, 64])
def test_verifies_in_oracle_mode(scene, probes):
    report = scene.verify(probes)
    assert report.mode == "oracle"
    assert report.passed, (report.checks, report.errors)


def test_off_the_chapple_euler_relation_the_curve_leaves_the_circumcircle():
    d = D + 1e-6 * R_OUT
    off = bicentric_scene(d)
    assert np.max(circumcircle_distance(off.vertex_curves[0].positions(TS), d)) > 1e-6


def test_every_inversion_of_the_conjugator_takes_at_most_three_evaluations(scene, monkeypatch):
    counts = []
    solve = cm._solve_lift

    def counted(lift, dlift, y, *rest):
        calls = [0]

        def counted_dlift(x):
            calls[0] += 1
            return dlift(x)

        out = solve(lift, counted_dlift, y, *rest)
        counts.append(calls[0])
        return out

    monkeypatch.setattr(cm, "_solve_lift", counted)
    assert bicentric_scene().verify(64).passed
    assert counts and max(counts) <= 3
