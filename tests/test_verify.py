import dataclasses
import functools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet import circlemaps as cm
from poncelet import roots, verify
from poncelet.circlemaps import circle_distance
from poncelet.equiangular import (ConstructionError, PonceletPolygon, equiangular_vertex_curve,
                                  equilateral_pair, rigid_walk)
from poncelet.geometry import radians
from poncelet.roots import newton_roots, secant_roots
from poncelet.scene import SchemaError, build_scene, load_scene
from poncelet.support import PlaneCurve, SupportFunction, SupportTerm, curve_from_support
from poncelet.verify import (OracleError, PonceletConfiguration, VerificationReport,
                             parametric_side_contacts, regularity_scan, side_contact_recover,
                             verify_pair)
from poncelet.vertex import vertex_from_envelope
from test_bench_contract import SCENES, gate

TWO_PI = 2 * math.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ITERATED_SQUARE = CONFIGS / "iterated_square.json"


def spec_circle_pair(a: float, alpha: float):
    """K = circle of radius a*sec(alpha/2) parametrized by the vertex angle."""
    R = a / math.cos(alpha / 2)

    def jet(ts):
        u = np.stack([np.cos(ts), np.sin(ts)], axis=1)
        up = np.stack([-np.sin(ts), np.cos(ts)], axis=1)
        return R * u, R * up, -R * u

    return PlaneCurve(TWO_PI, jet), SupportFunction(a, (), 1)


def oracle_step(K, C, t1s):
    """One lockstep oracle step from every start: (rows, t2, psi, errors)."""
    return verify._oracle_step(K, C, np.asarray(t1s, dtype=float), verify._oracle_grid(K, C))


class TestNextVertexOracle:
    def test_concentric_circles(self):
        alpha = 1.1
        K, C = spec_circle_pair(1.0, alpha)
        rows, t2, psi, errors = oracle_step(K, C, [0.0])
        assert rows.tolist() == [0] and not errors
        assert t2[0] == pytest.approx(alpha, abs=1e-10)
        assert psi[0] == pytest.approx(alpha / 2, abs=1e-10)

    def test_equilateral_pair_rigid_step_where_unambiguous(self):
        pair = equilateral_pair(1, Fraction(2), 8 / 5)
        t1s = np.linspace(0, TWO_PI, 64, endpoint=False)
        # non-convex envelope: the forward tangent can be ambiguous, and
        # those starts fail
        rows, t2, _, _ = oracle_step(pair.vertex_curves[0], pair.envelope_support, t1s)
        assert len(rows) >= 8
        assert np.all(circle_distance(t2 - t1s[rows], TWO_PI / 3, TWO_PI) < 1e-8)

    def test_wankel_pair_every_start(self):
        pair = equilateral_pair(1, Fraction(2), 2 + math.sqrt(3))
        t1s = np.linspace(0, TWO_PI, 32, endpoint=False)
        rows, t2, _, errors = oracle_step(pair.vertex_curves[0], pair.envelope_support, t1s)
        assert rows.tolist() == list(range(32)) and not errors
        assert np.all(circle_distance(t2, t1s + TWO_PI / 3, TWO_PI) < 1e-10)

    def test_conjugated_step_round_trip(self):
        h = cm.from_fourier(TWO_PI, 0.1, (cm.FourierTerm(1, 0.08, 0.03),))
        f = cm.make_torsion(h, 1, 5)
        res = vertex_from_envelope(SupportFunction(2.0, (), 1), f)
        t1s = np.linspace(0, TWO_PI, 64, endpoint=False)
        rows, t2, _, errors = oracle_step(res.curve, SupportFunction(2.0, (), 1), t1s)
        assert rows.tolist() == list(range(64)) and not errors
        assert np.max(circle_distance(t2, f.map.lift(t1s), TWO_PI)) < 1e-7 * TWO_PI

    def test_point_inside_envelope_rejected(self):
        K, C = spec_circle_pair(1.0, 1.0)
        inner = PlaneCurve(TWO_PI, lambda ts: tuple(0.5 * a for a in K.jet_fn(ts)))
        rows, _, _, errors = oracle_step(inner, C, [0.3])
        assert not rows.size and isinstance(errors[0], OracleError)

    def test_empirical_step_is_monotone(self):
        pair = equilateral_pair(1, Fraction(2), 2 + math.sqrt(3))
        starts = np.linspace(0, TWO_PI, 48, endpoint=False)
        _, images, _, _ = oracle_step(pair.vertex_curves[0], pair.envelope_support, starts)
        jumps = np.diff(np.unwrap(images, period=TWO_PI))
        assert np.all(jumps > 0)


def _per_start(K, C, starts):
    """Each start's (t2, psi) or OracleError, from one lockstep call."""
    rows, t2, psi, errors = oracle_step(K, C, starts)
    assert not set(rows.tolist()) & errors.keys()
    out = [errors.get(i) for i in range(len(starts))]
    for i, t, p in zip(rows.tolist(), t2.tolist(), psi.tolist()):
        out[i] = (t, p)
    assert None not in out
    return out


def _one_by_one(K, C, starts):
    """The oracle step of each start as its own one-element call."""
    return [_per_start(K, C, [t])[0] for t in starts]


def _assert_same_steps(together, alone):
    assert len(together) == len(alone)
    for got, want in zip(together, alone):
        assert type(got) is type(want)
        if isinstance(want, OracleError):
            assert str(got) == str(want)
        else:
            assert got == want


class TestLockstepOracle:
    def test_array_call_equals_one_element_calls(self):
        # the non-convex envelope makes most starts fail, in several ways
        pair = equilateral_pair(1, Fraction(2), 8 / 5)
        K, C = pair.vertex_curves[0], pair.envelope_support
        starts = np.linspace(0, TWO_PI, 64, endpoint=False)
        together = _per_start(K, C, starts)
        alone = _one_by_one(K, C, starts)
        _assert_same_steps(together, alone)
        failed = [s for s in alone if isinstance(s, OracleError)]
        assert len(failed) == 52
        assert sum("ambiguous" in str(e) for e in failed) == 18
        assert sum("several parameters" in str(e) for e in failed) == 34

    def test_start_inside_the_envelope_gets_its_error(self):
        K, C = spec_circle_pair(1.0, 1.0)
        inner = PlaneCurve(TWO_PI, lambda ts: tuple(0.5 * a for a in K.jet_fn(ts)))
        [err] = _per_start(inner, C, [0.3])
        assert isinstance(err, OracleError)
        assert str(err) == "no tangent line through K(0.3): point inside the envelope?"

    @settings(max_examples=40)
    @given(st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=12))
    def test_wankel_lockstep_equals_one_element_steps(self, starts):
        pair = equilateral_pair(1, Fraction(2), 2 + math.sqrt(3))
        K, C = pair.vertex_curves[0], pair.envelope_support
        _assert_same_steps(_per_start(K, C, starts), _one_by_one(K, C, starts))


class TestSideContactRecovery:
    def test_recovery_matches_construction_on_multi_sheet_envelope(self):
        pair = equilateral_pair(4, Fraction(2, 3), math.cos(2 * math.pi / 5) * 25 / 9)
        poly = pair.polygon(0.77)
        L = pair.envelope_support.domain_length
        a = poly.vertices
        psi, gap = side_contact_recover(a, np.roll(a, -1, axis=0), pair.envelope_support)
        assert psi.shape == gap.shape == (len(poly.contacts),)
        assert np.all(gap < 1e-10)
        assert np.all(circle_distance(psi, poly.contact_parameters, L) < 1e-9)

    @pytest.mark.parametrize("l, builds", [((2, 1), 16), ((1, 2), 16), ((3, 2), 20),
                                           ((2, 3), 20)])
    def test_equilateral_supports_repeating_within_their_sheets_verify(self, l, builds):
        # for k above lcm(l_den) the envelope repeats within its k sheets: the
        # contact candidates of each side tie across the repeats
        built = 0
        for k in range(1, 25):
            try:
                scene = build_scene({"construction": "equilateral", "parameters": {
                    "k": k, "l": {"num": l[0], "den": l[1]}, "a": 6.0}})
            except (SchemaError, ConstructionError):
                continue
            built += 1
            report = scene.verify(probes=8)
            assert report.passed, (k, report.max_step_mismatch, report.errors[:2])
        assert built == builds

    def test_memory_is_bounded_by_the_side_block(self):
        # 128 candidate tangents per side: unblocked, the candidate arrays of
        # 16384 sides took 128 MB
        p = SupportFunction(3.0, (SupportTerm(Fraction(1, 64), 0.5),), 64)
        candidates = round(p.period / math.pi)
        assert candidates == 128
        rng = np.random.default_rng(0)
        a, b = rng.normal(0.0, 5.0, (2, 16384, 2))
        side_contact_recover(a[:4], b[:4], p)
        tracemalloc.start()
        try:
            side_contact_recover(a, b, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * (verify._SIDE_BLOCK * candidates + len(a)), peak

    def test_zero_length_side_raises(self):
        pair = equilateral_pair(1, Fraction(2), 2 + math.sqrt(3))
        a = np.array([[3.0, 0.0], [0.0, 3.0]])
        with pytest.raises(OracleError, match="degenerate side"):
            side_contact_recover(a, np.array([[0.0, 3.0], [0.0, 3.0]]),
                                 pair.envelope_support)


@pytest.fixture(scope="module")
def iterated_square():
    """The m = 1, n = 4 envelope of p = a + cos(4 phi / 3) on three sheets:
    non-convex, without a support function."""
    return load_scene(str(ITERATED_SQUARE)).configuration


class TestParametricSideContacts:
    def test_bitangent_line_recovers_both_contacts_and_far_line_none(self, iterated_square):
        env = iterated_square.envelopes[0]
        # the two rightmost points are mirror images: the line x = max x
        # touches the envelope at both
        guess = np.array([15.494, 17.492])

        def x_speed(t, _=None):
            return env.jet_many(t, 1)[1][:, 0]

        lo, hi = guess - 0.01, guess + 0.01
        tops, open_ = secant_roots(x_speed, lo, hi, x_speed(lo), x_speed(hi))
        assert not open_.any()
        x_max = float(np.mean(env.positions(tops)[:, 0]))
        a = np.array([[x_max, -3.0], [x_max + 1.0, -3.0]])
        b = np.array([[x_max, 3.0], [x_max + 1.0, 3.0]])
        side, found, unconverged = parametric_side_contacts(a, b, env, 1e-8)
        assert unconverged.tolist() == [0, 0]
        assert found[side == 1].tolist() == []
        assert len(found[side == 0]) == 2
        for t in tops:
            assert min(circle_distance(f, t, env.domain_length) for f in found[side == 0]) < 1e-9

    def test_sides_are_solved_independently(self, iterated_square):
        env = iterated_square.envelopes[0]
        poly = iterated_square.polygon(0.7)
        a = poly.vertices
        b = np.roll(a, -1, axis=0)
        side, together, _ = parametric_side_contacts(a, b, env, 1e-8)
        for i in range(len(a)):
            one, alone, _ = parametric_side_contacts(a[i:i + 1], b[i:i + 1], env, 1e-8)
            assert one.tolist() == [0] * len(alone)
            assert together[side == i].tolist() == alone.tolist()
            assert min(circle_distance(t, poly.contact_parameters[i], env.domain_length)
                       for t in alone) < 1e-7


@pytest.mark.parametrize("probes", [8, 128, 200, 256, 512, 1000, 1024])
def test_iterated_square_verifies_at_every_probe_count(iterated_square, probes):
    # next to the envelope's near-cusps two zeros of d/dt <X - a, n> can share
    # a grid cell; without the split at the zero of the second derivative
    # 128 probes missed 32 tangencies
    report = verify_pair(iterated_square, probes=probes)
    assert report.passed, report.errors[:3]


class TestImplicitEnvelopeControls:
    PROBES = 8

    def expected_errors(self, config):
        L = config.domain_length
        starts = np.linspace(0.0, L, self.PROBES, endpoint=False) + 0.05 * L / self.PROBES
        out = []
        for t0 in starts:
            poly = config.polygon(float(t0))
            out += [f"no tangency of side {i} recovered on envelope {k} near t = {t:.6f}"
                    for i, (k, t) in enumerate(zip(poly.envelope_index, poly.contact_parameters))]
        return out

    def shifted(self, config):
        shift = np.array([1e-3, 0.0])
        return dataclasses.replace(config, vertex_curves=tuple(
            gate._moved_curve(k, lambda ts, pos: shift) for k in config.vertex_curves))

    def test_envelope_bump_fails_on_every_side(self, iterated_square):
        env = iterated_square.envelopes[0]
        bumped = dataclasses.replace(iterated_square,
                                     envelopes=(gate._offset_along_normal(env, 1e-3),))
        rep = verify_pair(bumped, probes=self.PROBES)
        assert not rep.passed
        assert rep.errors == self.expected_errors(iterated_square)

    def test_vertex_shift_fails_on_every_side(self, iterated_square):
        rep = verify_pair(self.shifted(iterated_square), probes=self.PROBES)
        assert not rep.passed
        assert rep.errors == self.expected_errors(iterated_square)

    def test_vertex_shift_fails_on_every_side_of_every_envelope(self):
        clan = SCENES["clan-from-vertex"]().configuration
        assert set(clan.polygon(0.3).envelope_index.tolist()) == {0, 1, 2}
        rep = verify_pair(self.shifted(clan), probes=self.PROBES)
        assert not rep.passed
        assert rep.errors == self.expected_errors(clan)


@functools.cache
def _sequence_config(name):
    return load_scene(str(ITERATED_SQUARE.parent / f"{name}.json")).configuration


class TestPerturbedSequencePolygons:
    @settings(max_examples=60)
    @given(name=st.sampled_from(["equilateral_a85", "pentagram", "clan", "iterated_square"]),
           vertex=st.integers(0, 63), length=st.floats(1e-4, 1e-2), sign=st.sampled_from([-1, 1]))
    def test_one_moved_vertex_never_passes(self, name, vertex, length, sign):
        # the vertex slides along its curve: its parameter moves, nothing else
        config = _sequence_config(name)
        assert config.mode == "sequence"

        def moved(starts):
            walk = config.walk(starts)
            params = walk.vertex_params.copy()
            params[:, vertex % (params.shape[1] - 1)] += sign * length
            return dataclasses.replace(walk, vertex_params=params)

        assert not verify_pair(dataclasses.replace(config, walk=moved), probes=8).passed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["equilateral_a85", "pentagram", "iterated_square"])
    def test_coincident_vertices_are_an_error(self, name):
        # a support term of 8e93 rounds two vertices of a walk onto one point;
        # its side has no line, and the report says so instead of raising. With
        # every vertex on one point no side is left to recover a contact on.
        # The chord range is then NaN, which fails interiority whatever is
        # expected, and the side errors fail contact recovery.
        config = _sequence_config(name)
        for pinch in (slice(1, 2), slice(1, None)):
            def pinched(starts):
                walk = config.walk(starts)
                params = walk.vertex_params.copy()
                params[:, pinch] = params[:, :1]
                return dataclasses.replace(walk, vertex_params=params)

            rep = verify_pair(dataclasses.replace(config, walk=pinched), probes=8)
            assert not rep.passed
            assert rep.errors.count("side 0 on envelope 0 has zero length") == 8
            assert math.isnan(rep.s_min)
            assert rep.checks["interiority"] is False
            assert rep.checks["contact_recovery"] is False


class TestNonConvergence:
    @pytest.fixture
    def no_step_solver(self, monkeypatch):
        # the oracle's circle scans and the contact solves refine by Newton;
        # one step can already converge on the error estimate
        monkeypatch.setattr(roots, "newton_roots", functools.partial(newton_roots, steps=0))
        monkeypatch.setattr(verify, "newton_roots", functools.partial(newton_roots, steps=0))

    def test_unconverged_contact_brackets_are_errors(self, iterated_square, no_step_solver):
        rep = verify_pair(iterated_square, probes=8)
        assert not rep.passed
        stuck = [e for e in rep.errors if "did not converge" in e]
        assert len(stuck) == 8 * 4          # one per side
        assert " contact bracket(s) of side 0 on envelope 0 near t = " in stuck[0]

    def test_unconverged_oracle_roots_are_errors(self, no_step_solver):
        config, _ = wankel_configuration()
        rep = verify_pair(config, probes=8)
        assert not rep.passed
        assert len(rep.errors) == 8         # one per probe start
        assert all("root refinement did not converge" in e for e in rep.errors)


def wankel_configuration(**overrides):
    a = 2 + math.sqrt(3)
    pair = equilateral_pair(1, Fraction(2), a)
    alpha = radians(pair.angles[0])
    kwargs = dict(
        label="wankel",
        vertex_curves=pair.vertex_curves,
        envelopes=(pair.envelope,),
        envelope_supports=(pair.envelope_support,),
        polygon=pair.polygon,
        walk=pair.walk,
        mode="oracle",
        expected_turns=(alpha,),
        expected_side=2 * a * math.tan(alpha / 2),
        expect_interior=True,
    )
    kwargs.update(overrides)
    return PonceletConfiguration(**kwargs), pair


class TestVerifyPair:
    def test_wankel_full_report(self):
        config, _ = wankel_configuration()
        rep = verify_pair(config, probes=32)
        assert rep.passed
        assert rep.closure_error < 1e-7
        assert rep.max_tangency_gap < 1e-8
        assert 0.0 < rep.s_min and rep.s_max < 1.0
        assert rep.oracle_direction == "forward"
        assert rep.monotone_step

    def test_concentric_seven_gon_tight_tolerance(self):
        K, C = spec_circle_pair(1.0, TWO_PI / 7)
        curve_c = curve_from_support(C)
        alpha = TWO_PI / 7
        config = PonceletConfiguration(
            label="concentric", vertex_curves=(K,), envelopes=(curve_c,),
            envelope_supports=(C,), polygon=None, mode="oracle",
            walk=functools.partial(rigid_walk, angles=(Fraction(2, 7),), count=7,
                                   shifts=(Fraction(1, 7),)),
            expected_turns=(alpha,), expect_interior=True)
        rep = verify_pair(config, probes=16, tol=1e-9)
        assert rep.passed
        assert rep.closure_error < 1e-9
        assert rep.max_tangency_gap < 1e-9

    def test_perturbed_envelope_fails(self):
        pair = equilateral_pair(1, Fraction(2), 2 + math.sqrt(3))
        bumped = SupportFunction(pair.envelope_support.constant + 0.01,
                                 pair.envelope_support.terms, 1)
        config, _ = wankel_configuration(envelope_supports=(bumped,))
        rep = verify_pair(config, probes=16, tol=1e-6)
        assert not rep.passed

    def test_perturbed_vertex_curve_fails_at_small_hausdorff(self):
        # a 1e-3 offset of K breaks tangency/closure at tol = 1e-6
        config, pair = wankel_configuration()
        K = pair.vertex_curves[0]

        def shifted_jet(ts):
            pos, vel, acc = K.jet_many(ts)
            return pos + np.array([1e-3, 0.0]), vel, acc

        moved = PlaneCurve(TWO_PI, shifted_jet,
                           position_fn=lambda ts: K.positions(ts) + np.array([1e-3, 0.0]))
        config2, _ = wankel_configuration(vertex_curves=(moved,))
        rep = verify_pair(config2, probes=16, tol=1e-6)
        assert not rep.passed

    def test_a_walk_off_the_step_map_fails_only_the_step_check(self):
        # the oracle walks and measures its own polygons, so only the
        # comparison with the construction's walk sees vertex j moved by j * 1e-5
        _, pair = wankel_configuration()

        def drifting(starts):
            walk = pair.walk(starts)
            drift = 1e-5 * np.arange(walk.vertex_params.shape[1])
            return dataclasses.replace(walk, vertex_params=walk.vertex_params + drift)

        config, _ = wankel_configuration(walk=drifting)
        rep = verify_pair(config, probes=16)
        assert not rep.errors and rep.max_step_mismatch > 1e-5
        assert [k for k, ok in rep.checks.items() if not ok] == ["oracle_step"]
        assert all(rep.checks[k] for k in ("closure", "tangency", "equiangular", "monotone_step"))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        config, _ = wankel_configuration()
        with pytest.raises(ValueError, match="need a positive tol"):
            verify_pair(config, probes=8, tol=tol)

    def test_minimality_premature_closure_guard(self):
        config, _ = wankel_configuration()
        rep = verify_pair(config, probes=16)
        assert rep.min_premature_closure > 1.0   # triangle vertices are far apart


class TestMetricMerges:
    SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    def checked(self, *squares):
        """The report of the polygons, one probe each, measured together
        against right-angle turns and unit sides."""
        config, _ = wankel_configuration(expected_turns=(math.pi / 2,), expected_side=1.0)
        v = np.stack(squares)
        zeros = np.zeros(v.shape[:2])
        poly = PonceletPolygon(v, zeros, v, zeros, zeros + 0.5, zeros.astype(int),
                               np.zeros(len(v)))
        report = VerificationReport("square", 8, 1e-7, "sequence")
        with np.errstate(invalid="ignore"):      # the NaN case is the point
            verify._polygon_metrics(report, config, poly, config.expected_turns)
        verify._judge(report, config, 1e-7)
        return report

    def test_exact_square_passes_equiangular_and_equilateral(self):
        report = self.checked(self.SQUARE)
        assert report.max_angle_deviation == 0.0 and report.side_length_spread == 0.0
        assert report.closure_error == 0.0 and report.min_premature_closure == 1.0
        assert report.checks["equiangular"] and report.checks["equilateral"]

    def test_nan_turn_fails_and_stays_in_the_report(self):
        broken = self.SQUARE.copy()
        broken[2] = np.nan
        report = self.checked(self.SQUARE, broken)
        assert math.isnan(report.max_angle_deviation)
        assert math.isnan(report.side_length_spread)
        assert not report.checks["equiangular"] and not report.checks["equilateral"]


@pytest.mark.parametrize("name", ["wankel", "equiangular_triangle"])
def test_oracle_and_sequence_modes_measure_alike(name):
    """The oracle's walk and the construction's walk are judged by the same
    code, so their polygon statistics agree to rounding."""
    config = load_scene(str(CONFIGS / f"{name}.json")).configuration
    assert config.mode == "oracle"
    oracle = verify_pair(config, probes=32)
    sequence = verify_pair(dataclasses.replace(config, mode="sequence"), probes=32)
    assert oracle.passed and sequence.passed
    for key in ("closure_error", "min_premature_closure", "max_angle_deviation",
                "side_length_spread", "max_tangency_gap", "s_min", "s_max"):
        got, want = getattr(sequence, key), getattr(oracle, key)
        assert (got is None) == (want is None), key
        if want is not None:
            assert abs(got - want) < 1e-13, key


class TestRegularityScan:
    def test_strictly_curved_epitrochoid_has_no_near_zeros(self):
        pair = equilateral_pair(1, Fraction(2), 9.5)
        scan = regularity_scan(pair.vertex_curves[0])
        assert scan.min_speed > 1.0
        assert scan.near_zeros == ()

    def test_circle_min_speed_is_radius(self):
        circle = curve_from_support(SupportFunction(2.5, (), 1))
        assert regularity_scan(circle).min_speed == pytest.approx(2.5, abs=1e-10)

    def test_cusped_rectangle_vertex_curve_detected(self):
        # self-intersecting envelope whose crossings have angle pi/2: the
        # branch with angle pi/2 + 4*pi carries cusps
        p = SupportFunction(-2 / 3, (SupportTerm(Fraction(2, 3), 1.0),), 3)
        K = equiangular_vertex_curve(p, Fraction(1, 2), 4)
        scan = regularity_scan(K, samples=2048)
        assert len(scan.near_zeros) >= 2
        for _, speed in scan.near_zeros:
            assert speed < 1e-6
        params = sorted(t for t, _ in scan.near_zeros)
        assert params == pytest.approx([3 * math.pi / 4, 15 * math.pi / 4], abs=1e-9)

    def test_unconverged_minimum_raises_with_parameter(self, monkeypatch):
        # the bracket is symmetric about each cusp, so its first secant point
        # is the root: flag every bracket instead of capping the steps
        def unconverged(*args, **kwargs):
            found, open_ = secant_roots(*args, **kwargs)
            return found, np.ones_like(open_)

        monkeypatch.setattr(verify, "secant_roots", unconverged)
        p = SupportFunction(-2 / 3, (SupportTerm(Fraction(2, 3), 1.0),), 3)
        K = equiangular_vertex_curve(p, Fraction(1, 2), 4)
        with pytest.raises(RuntimeError, match=r"did not converge near t = 2\.3\d+, 11\.7\d+$"):
            regularity_scan(K, samples=2048)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            regularity_scan(curve_from_support(SupportFunction(1.0, (), 1)), samples=32)
