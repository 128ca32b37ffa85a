import dataclasses
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poncelet import cli
from poncelet.equiangular import assemble
from poncelet.geometry import (SELF_INTERSECTION_SAMPLES, GeometryError, closure_steps,
                               polyline_self_intersects, radians)
from poncelet.scene import load_scene
from poncelet.support import SupportFunction, SupportTerm, curve_from_support
from test_bench_contract import gate

CLAN = Path(__file__).resolve().parent.parent / "configs" / "clan.json"


@pytest.mark.parametrize("which", ["vertex_curves", "envelopes"])
def test_non_finite_polygon_point_raises_and_exits_three(which, monkeypatch, capsys):
    scene = load_scene(str(CLAN))        # sequence mode: verify assembles its polygons
    cfg = scene.configuration
    curves = {"vertex_curves": cfg.vertex_curves, "envelopes": cfg.envelopes}
    curves[which] = tuple(gate._moved_curve(c, lambda ts, pos: np.nan) for c in curves[which])

    def polygon(start):
        return assemble(cfg.walk(np.array([start])), *curves.values())[0]

    with pytest.raises(GeometryError, match="non-finite polygon point on curve"):
        polygon(0.4)
    # verify reads the configuration's curves; render draws the clean curves,
    # then the polygons of the poisoned ones
    for command, poisoned in (("verify", dataclasses.replace(cfg, **curves)),
                              ("render", dataclasses.replace(cfg, polygon=polygon))):
        monkeypatch.setattr(cli, "load_scene", lambda path, c=poisoned: dataclasses.replace(
            scene, configuration=c))
        assert cli.main([command, str(CLAN)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite polygon point on curve" in captured.err


def test_radians_of_a_reduced_fraction():
    a = Fraction(4, 6)
    assert (a.numerator, a.denominator) == (2, 3)
    assert radians(a) == 2 * math.pi / 3
    assert radians(Fraction(-5, 3)) == -5 * math.pi / 3


def test_closure_steps_against_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(60):
        num = int(rng.integers(1, 40))
        den = int(rng.integers(1, 40))
        k = int(rng.integers(1, 6))
        step = Fraction(num, den)
        total = Fraction(2 * k)
        j = closure_steps(step, total)
        acc = Fraction(0)
        count = 0
        while True:
            acc += step
            count += 1
            if acc % total == 0:
                break
        assert j == count


lattice_loops = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                        min_size=4, max_size=64)
float_loops = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       min_size=4, max_size=64)


class TestPolylineSelfIntersection:
    def test_square_is_simple(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert polyline_self_intersects(square, closed=True) is False

    def test_bowtie_crosses(self):
        bowtie = [(0, 0), (1, 1), (1, 0), (0, 1)]
        assert polyline_self_intersects(bowtie, closed=True) is True

    def test_singular_figure_envelope_self_intersects(self):
        # envelope of the cusped rectangle example: x(t) = (5cos(t/3) - 4cos t + cos(5t/3))/6
        p = SupportFunction(-2 / 3, (SupportTerm(Fraction(2, 3), 1.0),), 3)
        curve = curve_from_support(p)
        pts = curve.sample(1024)
        x_expected = (5 * np.cos(0.7 / 3) - 4 * np.cos(0.7) + np.cos(5 * 0.7 / 3)) / 6
        assert curve.positions([0.7])[0][0] == pytest.approx(x_expected, abs=1e-12)
        assert polyline_self_intersects(pts, closed=True) is True

    def test_brute_force_agreement_on_random_loops(self):
        def brute(pts):
            n = len(pts)
            segs = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
            for i in range(n):
                for j in range(i + 2, n):
                    if i == 0 and j == n - 1:
                        continue
                    if _seg_cross(*segs[i], *segs[j]):
                        return True
            return False

        rng = np.random.default_rng(5)
        for _ in range(30):
            m = int(rng.integers(4, 9))
            pts = [(float(x), float(y)) for x, y in rng.uniform(-1, 1, (m, 2))]
            assert polyline_self_intersects(pts, closed=True) == brute(pts)

    def test_invariance_under_rotation_of_list_and_rigid_motion(self):
        rng = np.random.default_rng(13)
        pts = [(float(x), float(y)) for x, y in rng.uniform(-1, 1, (7, 2))]
        base = polyline_self_intersects(pts, closed=True)
        for shift in range(1, 7):
            rolled = pts[shift:] + pts[:shift]
            assert polyline_self_intersects(rolled, closed=True) == base
        c, s = math.cos(0.83), math.sin(0.83)
        moved = [(c * x - s * y + 5.0, s * x + c * y - 2.0) for x, y in pts]
        assert polyline_self_intersects(moved, closed=True) == base

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(GeometryError):
            polyline_self_intersects([(0, 0), (1, 1)])
        with pytest.raises(GeometryError):
            polyline_self_intersects([(0, 0), (0, 0), (1, 1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("closed", [True, False])
    def test_non_finite_points_rejected(self, bad, closed):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [bad, 1.0], [0.0, 1.0]])
        with pytest.raises(GeometryError, match="non-finite"):
            polyline_self_intersects(pts, closed=closed)
        with pytest.raises(GeometryError, match="non-finite"):
            polyline_self_intersects([tuple(p) for p in pts[::-1]], closed=closed)

    @pytest.mark.parametrize("gap, expected", [(5e-13, True), (1e-9, False)])
    def test_contact_within_eps_across_an_x_gap(self, gap, expected):
        # the last segment ends `gap` to the right of the corner (1, 0)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, -1.0], [2.0, -1.0], [1.0 + gap, 0.0]])
        assert polyline_self_intersects(pts, closed=False) is expected
        assert _all_pairs_self_intersects(pts, closed=False) is expected

    @settings(max_examples=300)
    @given(st.one_of(lattice_loops, float_loops), st.booleans())
    # a segment so short that |ab|^2 underflows to 0
    @example([(0.0, 0.0), (0.0, 8.695129490408271e-204), (0.0, 0.0), (0.0, 1.0)], False)
    def test_sweep_matches_all_pairs_reference(self, loop, closed):
        pts = np.array(loop, dtype=float)
        assert (_outcome(polyline_self_intersects, pts, closed)
                == _outcome(_all_pairs_self_intersects, pts, closed))

    def test_sweep_matches_all_pairs_reference_on_support_curves(self):
        rng = np.random.default_rng(17)
        supports = [SupportFunction(-2 / 3, (SupportTerm(Fraction(2, 3), 1.0),), 3)]
        for sheets in (1, 1, 1, 1, 2, 3, 4):
            freqs = sorted(Fraction(int(j), sheets)
                           for j in rng.choice(np.arange(2, 4 * sheets + 4), 3, replace=False))
            terms = tuple(SupportTerm(f, *(rng.normal(0.0, 0.5, 2) / float(f) ** 2))
                          for f in freqs)
            supports.append(SupportFunction(float(rng.uniform(0.5, 3.0)), terms, sheets))
        answers = []
        for support in supports:
            pts = curve_from_support(support).sample(SELF_INTERSECTION_SAMPLES)
            for closed in (True, False):
                got = polyline_self_intersects(pts, closed=closed)
                assert got == _all_pairs_self_intersects(pts, closed=closed)
                answers.append(got)
        assert True in answers and False in answers

    @pytest.mark.parametrize("closed", [True, False])
    def test_memory_bounded_for_any_shape(self, closed):
        t = np.linspace(0.0, 2 * math.pi, SELF_INTERSECTION_SAMPLES, endpoint=False)
        convex = np.column_stack([2.0 * np.cos(t), np.sin(t)])
        # zigzag whose segments all span the same x-interval: every pair is a candidate
        comb = np.column_stack([np.arange(SELF_INTERSECTION_SAMPLES) % 2,
                                np.arange(SELF_INTERSECTION_SAMPLES) * 1e-3]).astype(float)
        for pts, expected in ((convex, False), (comb, closed)):
            tracemalloc.start()
            try:
                got = polyline_self_intersects(pts, closed=closed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got is expected
            assert peak < 8 * 2**20


def _outcome(scan, pts, closed):
    try:
        return scan(pts, closed=closed)
    except GeometryError as exc:
        return str(exc)


def _all_pairs_self_intersects(pts, closed=True, eps=1e-12):
    """Reference: every non-adjacent segment pair tested at once."""
    pts = np.asarray(pts, dtype=float)
    npts = len(pts)
    if npts < 3:
        raise GeometryError("need at least 3 points")
    if closed:
        seg_a = pts
        seg_b = np.roll(pts, -1, axis=0)
    else:
        seg_a = pts[:-1]
        seg_b = pts[1:]
    if np.any(np.all(seg_a == seg_b, axis=1)):
        raise GeometryError("repeated consecutive points")

    nseg = len(seg_a)
    i_idx, j_idx = np.triu_indices(nseg, k=2)
    if closed:
        keep = ~((i_idx == 0) & (j_idx == nseg - 1))
        i_idx, j_idx = i_idx[keep], j_idx[keep]
    if len(i_idx) == 0:
        return False

    a1, b1 = seg_a[i_idx], seg_b[i_idx]
    a2, b2 = seg_a[j_idx], seg_b[j_idx]
    lo1 = np.minimum(a1, b1); hi1 = np.maximum(a1, b1)
    lo2 = np.minimum(a2, b2); hi2 = np.maximum(a2, b2)
    boxes = np.all((lo1 <= hi2 + eps) & (lo2 <= hi1 + eps), axis=1)
    if not np.any(boxes):
        return False
    a1, b1, a2, b2 = a1[boxes], b1[boxes], a2[boxes], b2[boxes]

    def cross2(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    def sign(d):
        return np.where(d > eps, 1, np.where(d < -eps, -1, 0))

    s1 = sign(cross2(b1 - a1, a2 - a1))
    s2 = sign(cross2(b1 - a1, b2 - a1))
    s3 = sign(cross2(b2 - a2, a1 - a2))
    s4 = sign(cross2(b2 - a2, b1 - a2))
    if np.any((s1 * s2 < 0) & (s3 * s4 < 0)):
        return True

    def on_segment(a, b, p):
        ab = b - a
        length = float(np.hypot(*ab))
        cr = ab[0] * (p - a)[1] - ab[1] * (p - a)[0]
        if abs(cr) > eps * max(1.0, length):
            return False
        t = float((p - a) @ (ab / length)) / length
        return -1e-12 <= t <= 1 + 1e-12

    for idx in np.nonzero((s1 * s2 <= 0) & (s3 * s4 <= 0))[0]:
        if (on_segment(a1[idx], b1[idx], a2[idx]) or on_segment(a1[idx], b1[idx], b2[idx])
                or on_segment(a2[idx], b2[idx], a1[idx])
                or on_segment(a2[idx], b2[idx], b1[idx])):
            return True
    return False


def _seg_cross(a, b, c, d):
    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return 0 if abs(v) <= 1e-12 else (1 if v > 0 else -1)

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True

    def on(a, b, p):
        if orient(a, b, p) != 0:
            return False
        return (min(a[0], b[0]) - 1e-12 <= p[0] <= max(a[0], b[0]) + 1e-12
                and min(a[1], b[1]) - 1e-12 <= p[1] <= max(a[1], b[1]) + 1e-12)

    return on(a, b, c) or on(a, b, d) or on(c, d, a) or on(c, d, b)
