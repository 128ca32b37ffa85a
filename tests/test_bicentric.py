"""The bicentric triangle of incircle r = 1 and circumcircle R = 3, and the
bicentric square of r = 1 and R = 2, built through the paper's vertex-curve
formula from a conjugator fitted to the closed-form contact map alone
(tests/bicentric.py): the construction must give back the circumcircle,
walk the classical polygons, verify, and leave the circumcircle when the
centre distance breaks Chapple-Euler or Fuss."""

import math

import numpy as np
import pytest

from bicentric import CIRCLES, bicentric_scene, contact_map, tangent_meet
from poncelet import circlemaps as cm
from poncelet.equiangular import assemble

TS = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)


@pytest.fixture(scope="module")
def scene():
    return bicentric_scene()


@pytest.fixture(scope="module")
def square():
    return bicentric_scene(n=4)


def circumcircle_distance(points: np.ndarray, n: int, d: float | None = None) -> np.ndarray:
    _, R, closing = CIRCLES[n]
    d = closing if d is None else d
    return np.abs(np.hypot(points[..., 0] - d, points[..., 1]) - R)


def assert_walks_the_contact_map(scene, n: int):
    """The walk follows F, closes after n steps, and its vertices are the
    closed-form tangent meets."""
    d = CIRCLES[n][2]
    cfg = scene.configuration
    walk = cfg.walk(np.linspace(0.0, 2 * math.pi, 40, endpoint=False))
    ts = walk.vertex_params
    assert ts.shape[1] == n + 1
    assert np.max(np.abs(ts[:, 1:] - contact_map(ts[:, :-1], d, n))) < 1e-11
    assert np.max(np.abs(ts[:, -1] - ts[:, 0] - 2 * math.pi)) < 1e-11    # one turn
    poly = assemble(walk, cfg.vertex_curves, cfg.envelopes)
    assert np.max(np.abs(poly.vertices - tangent_meet(ts[:, :-1], d, n))) < 1e-11


def assert_leaves_the_circumcircle_off_the_relation(n: int):
    _, R, closing = CIRCLES[n]
    d = closing + 1e-6 * R
    off = bicentric_scene(d, n)
    assert np.max(circumcircle_distance(off.vertex_curves[0].positions(TS), n, d)) > 1e-6


def test_vertex_curve_is_the_circumcircle(scene):
    assert np.max(circumcircle_distance(scene.vertex_curves[0].positions(TS), 3)) < 1e-11


def test_walk_follows_the_contact_map_to_the_tangent_meets(scene):
    assert_walks_the_contact_map(scene, 3)


@pytest.mark.parametrize("probes", [8, 64])
def test_verifies_in_oracle_mode(scene, probes):
    report = scene.verify(probes)
    assert report.mode == "oracle"
    assert report.passed, (report.checks, report.errors)


def test_off_the_chapple_euler_relation_the_curve_leaves_the_circumcircle():
    assert_leaves_the_circumcircle_off_the_relation(3)


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


def test_square_vertex_curve_is_the_circumcircle(square):
    assert np.max(circumcircle_distance(square.vertex_curves[0].positions(TS), 4)) < 1e-11


def test_square_walk_follows_the_contact_map_to_the_tangent_meets(square):
    assert_walks_the_contact_map(square, 4)


@pytest.mark.parametrize("probes", [8, 64])
def test_square_verifies_in_oracle_mode(square, probes):
    report = square.verify(probes)
    assert report.mode == "oracle"
    assert report.passed, (report.checks, report.errors)


def test_off_the_fuss_relation_the_square_leaves_the_circumcircle():
    assert_leaves_the_circumcircle_off_the_relation(4)
