import dataclasses
import functools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet import circlemaps as cm
from poncelet import verify
from poncelet.circlemaps import circle_distance
from poncelet.equiangular import EquiangularSpec, equilateral_pair
from poncelet.geometry import RationalAngle, Vec2
from poncelet.roots import bracketed_roots
from poncelet.scene import load_scene
from poncelet.support import PlaneCurve, SupportFunction, SupportTerm, curve_from_support
from poncelet.verify import (OracleError, PonceletConfiguration, next_vertex_oracle,
                             parametric_side_contacts, regularity_scan, side_contact_recover,
                             verify_pair)
from poncelet.vertex import ContactStepSystem, vertex_from_envelope
from test_bench_contract import SCENES

TWO_PI = 2 * math.pi
ITERATED_SQUARE = Path(__file__).resolve().parent.parent / "configs" / "iterated_square.json"


def spec_circle_pair(a: float, alpha: float):
    """K = circle of radius a*sec(alpha/2) parametrized by the vertex angle."""
    R = a / math.cos(alpha / 2)

    def jet(ts):
        u = np.stack([np.cos(ts), np.sin(ts)], axis=1)
        up = np.stack([-np.sin(ts), np.cos(ts)], axis=1)
        return R * u, R * up, -R * u

    return PlaneCurve(TWO_PI, jet), SupportFunction(a, (), 1)


class TestNextVertexOracle:
    def test_concentric_circles(self):
        alpha = 1.1
        K, C = spec_circle_pair(1.0, alpha)
        step = next_vertex_oracle(K, C, 0.0)
        assert step.t2 == pytest.approx(alpha, abs=1e-10)
        assert step.contact_parameter == pytest.approx(alpha / 2, abs=1e-10)
        x = C.eval(alpha / 2)
        assert (step.contact - Vec2(x * math.cos(alpha / 2), x * math.sin(alpha / 2))).norm() < 1e-10

    def test_equilateral_pair_rigid_step_where_unambiguous(self):
        pair = equilateral_pair(1, Fraction(2), 8 / 5)
        hits = 0
        for t1 in np.linspace(0, TWO_PI, 64, endpoint=False):
            try:
                step = next_vertex_oracle(pair.vertex_curve, pair.envelope_support, float(t1))
            except OracleError:
                continue   # non-convex envelope: forward tangent can be ambiguous
            hits += 1
            assert circle_distance(step.t2 - t1, TWO_PI / 3, TWO_PI) < 1e-8
        assert hits >= 8

    def test_wankel_pair_every_start(self):
        pair = equilateral_pair(1, Fraction(2), 2 + math.sqrt(3))
        for t1 in np.linspace(0, TWO_PI, 32, endpoint=False):
            step = next_vertex_oracle(pair.vertex_curve, pair.envelope_support, float(t1))
            assert circle_distance(step.t2, t1 + TWO_PI / 3, TWO_PI) < 1e-10

    def test_conjugated_step_round_trip(self):
        h = cm.from_fourier(TWO_PI, 0.1, (cm.FourierTerm(1, 0.08, 0.03),))
        f = cm.make_torsion(h, 1, 5)
        res = vertex_from_envelope(ContactStepSystem(SupportFunction(2.0, (), 1), f))
        worst = 0.0
        for t1 in np.linspace(0, TWO_PI, 64, endpoint=False):
            step = next_vertex_oracle(res.curve, SupportFunction(2.0, (), 1), float(t1))
            worst = max(worst, float(circle_distance(step.t2, float(f.map.lift(t1)), TWO_PI)))
        assert worst < 1e-7 * TWO_PI

    def test_point_inside_envelope_rejected(self):
        K, C = spec_circle_pair(1.0, 1.0)
        inner = PlaneCurve(TWO_PI, lambda ts: tuple(0.5 * a for a in K.jet_fn(ts)))
        with pytest.raises(OracleError):
            next_vertex_oracle(inner, C, 0.3)

    def test_empirical_step_is_monotone(self):
        pair = equilateral_pair(1, Fraction(2), 2 + math.sqrt(3))
        starts = np.linspace(0, TWO_PI, 48, endpoint=False)
        images = [next_vertex_oracle(pair.vertex_curve, pair.envelope_support, float(t)).t2
                  for t in starts]
        jumps = np.diff(np.unwrap(images, period=TWO_PI))
        assert np.all(jumps > 0)


def _one_by_one(K, C, starts):
    """The oracle step of each start as its own one-element call."""
    out = []
    for t in starts:
        try:
            out.append(next_vertex_oracle(K, C, float(t)))
        except OracleError as exc:
            out.append(exc)
    return out


def _assert_same_steps(together, alone):
    assert len(together) == len(alone)
    for got, want in zip(together, alone):
        assert type(got) is type(want)
        if isinstance(want, OracleError):
            assert str(got) == str(want)
        else:
            assert got.t2 == want.t2
            assert got.contact_parameter == want.contact_parameter
            assert got.contact == want.contact


class TestLockstepOracle:
    def test_array_call_equals_one_element_calls(self):
        # the non-convex envelope makes most starts fail, in several ways
        pair = equilateral_pair(1, Fraction(2), 8 / 5)
        K, C = pair.vertex_curve, pair.envelope_support
        starts = np.linspace(0, TWO_PI, 64, endpoint=False)
        together = next_vertex_oracle(K, C, starts)
        alone = _one_by_one(K, C, starts)
        _assert_same_steps(together, alone)
        failed = [s for s in alone if isinstance(s, OracleError)]
        assert len(failed) == 52
        assert sum("ambiguous" in str(e) for e in failed) == 18
        assert sum("several parameters" in str(e) for e in failed) == 34

    def test_scalar_call_raises_and_array_call_returns_the_error(self):
        K, C = spec_circle_pair(1.0, 1.0)
        inner = PlaneCurve(TWO_PI, lambda ts: tuple(0.5 * a for a in K.jet_fn(ts)))
        with pytest.raises(OracleError, match="no tangent line through K"):
            next_vertex_oracle(inner, C, 0.3)
        [err] = next_vertex_oracle(inner, C, np.array([0.3]))
        assert isinstance(err, OracleError)
        assert str(err) == "no tangent line through K(0.3): point inside the envelope?"

    @settings(max_examples=40)
    @given(st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=12))
    def test_wankel_lockstep_equals_one_element_steps(self, starts):
        pair = equilateral_pair(1, Fraction(2), 2 + math.sqrt(3))
        K, C = pair.vertex_curve, pair.envelope_support
        _assert_same_steps(next_vertex_oracle(K, C, np.array(starts)),
                           _one_by_one(K, C, starts))


class TestSideContactRecovery:
    def test_recovery_matches_construction_on_multi_sheet_envelope(self):
        pair = equilateral_pair(4, Fraction(2, 3), math.cos(2 * math.pi / 5) * 25 / 9)
        poly = pair.polygon(0.77)
        L = pair.envelope_support.domain_length
        a = np.array([tuple(v) for v in poly.vertices])
        psi, gap = side_contact_recover(a, np.roll(a, -1, axis=0), pair.envelope_support)
        assert psi.shape == gap.shape == (len(poly.contacts),)
        for i, contact in enumerate(poly.contacts):
            assert gap[i] < 1e-10
            assert circle_distance(psi[i], contact.parameter, L) < 1e-9

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
    def grid(self, env):
        ts = np.linspace(0.0, env.domain_length, 512, endpoint=False)
        return ts, env.positions(ts)

    def test_bitangent_line_recovers_both_contacts_and_far_line_none(self, iterated_square):
        env = iterated_square.envelopes[0]
        # the two rightmost points are mirror images: the line x = max x
        # touches the envelope at both
        guess = np.array([15.494, 17.492])
        tops, open_ = bracketed_roots(lambda t, _: env.jet_many(t)[1][:, 0],
                                      guess - 0.01, guess + 0.01)
        assert not open_.any()
        x_max = float(np.mean(env.positions(tops)[:, 0]))
        a = np.array([[x_max, -3.0], [x_max + 1.0, -3.0]])
        b = np.array([[x_max, 3.0], [x_max + 1.0, 3.0]])
        found, unconverged = parametric_side_contacts(a, b, env, *self.grid(env), 1e-8)
        assert unconverged.tolist() == [0, 0]
        assert found[1] == []
        assert len(found[0]) == 2
        for t in tops:
            assert min(circle_distance(f, t, env.domain_length) for f in found[0]) < 1e-9

    def test_sides_are_solved_independently(self, iterated_square):
        env = iterated_square.envelopes[0]
        poly = iterated_square.polygon(0.7)
        n = len(poly.vertices)
        a = np.array([tuple(poly.vertices[i]) for i in range(n)])
        b = np.array([tuple(poly.vertices[(i + 1) % n]) for i in range(n)])
        together, _ = parametric_side_contacts(a, b, env, *self.grid(env), 1e-8)
        for i in range(n):
            alone, _ = parametric_side_contacts(a[i:i + 1], b[i:i + 1], env,
                                                *self.grid(env), 1e-8)
            assert together[i] == alone[0]
            assert min(circle_distance(t, poly.contacts[i].parameter, env.domain_length)
                       for t in alone[0]) < 1e-7


def _parallel(curve, eps):
    """Parallel curve at distance eps, like bumping a support constant."""
    def offset(ts):
        vel = curve.jet_many(ts)[1]
        return eps * np.stack([vel[:, 1], -vel[:, 0]], axis=1) / np.hypot(*vel.T)[:, None]

    def jet_fn(ts):
        pos, vel, acc = curve.jet_many(ts)
        return pos + offset(ts), vel, acc

    return dataclasses.replace(curve, jet_fn=jet_fn,
                               position_fn=lambda ts: curve.positions(ts) + offset(ts))


class TestImplicitEnvelopeControls:
    PROBES = 8

    def expected_errors(self, config):
        L = config.domain_length
        starts = np.linspace(0.0, L, self.PROBES, endpoint=False) + 0.05 * L / self.PROBES
        return [f"no tangency of side {i} recovered on envelope {c.envelope_index} "
                f"near t = {c.parameter:.6f}"
                for t0 in starts for i, c in enumerate(config.polygon(float(t0)).contacts)]

    def shifted(self, config):
        def polygon(start):
            poly = config.polygon(start)
            return dataclasses.replace(poly, vertices=tuple(
                Vec2(v.x + 1e-3, v.y) for v in poly.vertices))

        return dataclasses.replace(config, polygon=polygon)

    def test_envelope_bump_fails_on_every_side(self, iterated_square):
        env = iterated_square.envelopes[0]
        bumped = dataclasses.replace(iterated_square, envelopes=(_parallel(env, 1e-3),))
        rep = verify_pair(bumped, probes=self.PROBES)
        assert not rep.passed
        assert rep.errors == self.expected_errors(iterated_square)

    def test_vertex_shift_fails_on_every_side(self, iterated_square):
        rep = verify_pair(self.shifted(iterated_square), probes=self.PROBES)
        assert not rep.passed
        assert rep.errors == self.expected_errors(iterated_square)

    def test_vertex_shift_fails_on_every_side_of_every_envelope(self):
        clan = SCENES["clan-from-vertex"]().configuration
        assert {c.envelope_index for c in clan.polygon(0.3).contacts} == {0, 1, 2}
        rep = verify_pair(self.shifted(clan), probes=self.PROBES)
        assert not rep.passed
        assert rep.errors == self.expected_errors(clan)


@functools.cache
def _sequence_config(name):
    return load_scene(str(ITERATED_SQUARE.parent / f"{name}.json")).configuration


class TestPerturbedSequencePolygons:
    @settings(max_examples=60)
    @given(name=st.sampled_from(["equilateral_a85", "pentagram", "clan", "iterated_square"]),
           vertex=st.integers(0, 63), length=st.floats(1e-4, 1e-2),
           angle=st.floats(0.0, TWO_PI))
    def test_one_moved_vertex_never_passes(self, name, vertex, length, angle):
        config = _sequence_config(name)
        assert config.mode == "sequence"
        move = Vec2(length * math.cos(angle), length * math.sin(angle))

        def moved(start):
            poly = config.polygon(start)
            vs = list(poly.vertices)
            vs[vertex % len(vs)] += move
            return dataclasses.replace(poly, vertices=tuple(vs))

        assert not verify_pair(dataclasses.replace(config, polygon=moved), probes=8).passed


class TestNonConvergence:
    @pytest.fixture
    def one_step_solver(self, monkeypatch):
        monkeypatch.setattr(verify, "bracketed_roots",
                            functools.partial(bracketed_roots, iters=1))

    def test_unconverged_contact_brackets_are_errors(self, iterated_square, one_step_solver):
        rep = verify_pair(iterated_square, probes=8)
        assert not rep.passed
        stuck = [e for e in rep.errors if "did not converge" in e]
        assert len(stuck) == 8 * 4          # one per side
        assert " contact bracket(s) of side 0 on envelope 0 near t = " in stuck[0]

    def test_unconverged_oracle_roots_are_errors(self, one_step_solver):
        config, _ = wankel_configuration()
        rep = verify_pair(config, probes=8)
        assert not rep.passed
        assert len(rep.errors) == 8         # one per probe start
        assert all("root refinement did not converge" in e for e in rep.errors)


def wankel_configuration(**overrides):
    pair = equilateral_pair(1, Fraction(2), 2 + math.sqrt(3))
    alpha = pair.angle.radians
    kwargs = dict(
        label="wankel",
        vertex_curves=(pair.vertex_curve,),
        envelopes=(pair.envelope,),
        envelope_supports=(pair.envelope_support,),
        polygon=pair.polygon,
        count=pair.count,
        mode="oracle",
        step_lift=lambda t: np.asarray(t) + alpha,
        step_inv_lift=lambda t: np.asarray(t) - alpha,
        expected_turns=(alpha,),
        expected_side=pair.side_length,
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
            envelope_supports=(C,), polygon=None, count=7, mode="oracle",
            step_lift=lambda t: np.asarray(t) + alpha,
            step_inv_lift=lambda t: np.asarray(t) - alpha,
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
        K = pair.vertex_curve

        def shifted_jet(ts):
            pos, vel, acc = K.jet_fn(ts)
            return pos + np.array([1e-3, 0.0]), vel, acc

        moved = PlaneCurve(TWO_PI, shifted_jet,
                           position_fn=lambda ts: K.positions(ts) + np.array([1e-3, 0.0]))
        config2, _ = wankel_configuration(vertex_curves=(moved,))
        rep = verify_pair(config2, probes=16, tol=1e-6)
        assert not rep.passed

    def test_minimality_premature_closure_guard(self):
        config, _ = wankel_configuration()
        rep = verify_pair(config, probes=16)
        assert rep.min_premature_closure > 1.0   # triangle vertices are far apart


class TestRegularityScan:
    def test_strictly_curved_epitrochoid_has_no_near_zeros(self):
        pair = equilateral_pair(1, Fraction(2), 9.5)
        scan = regularity_scan(pair.vertex_curve)
        assert scan.min_speed > 1.0
        assert scan.near_zeros == ()

    def test_circle_min_speed_is_radius(self):
        circle = curve_from_support(SupportFunction(2.5, (), 1))
        assert regularity_scan(circle).min_speed == pytest.approx(2.5, abs=1e-10)

    def test_cusped_rectangle_vertex_curve_detected(self):
        # self-intersecting envelope whose crossings have angle pi/2: the
        # branch with angle pi/2 + 4*pi carries cusps
        p = SupportFunction(-2 / 3, (SupportTerm(Fraction(2, 3), 1.0),), 3)
        from poncelet.equiangular import equiangular_vertex_curve
        K = equiangular_vertex_curve(EquiangularSpec(p, RationalAngle(1, 2), 4))
        scan = regularity_scan(K, samples=2048)
        assert len(scan.near_zeros) >= 2
        for _, speed in scan.near_zeros:
            assert speed < 1e-6
        params = sorted(t for t, _ in scan.near_zeros)
        assert params == pytest.approx([3 * math.pi / 4, 15 * math.pi / 4], abs=1e-9)

    def test_unconverged_minimum_raises_with_parameter(self, monkeypatch):
        monkeypatch.setattr(verify, "bracketed_roots", functools.partial(bracketed_roots, iters=1))
        p = SupportFunction(-2 / 3, (SupportTerm(Fraction(2, 3), 1.0),), 3)
        from poncelet.equiangular import equiangular_vertex_curve
        K = equiangular_vertex_curve(EquiangularSpec(p, RationalAngle(1, 2), 4))
        with pytest.raises(RuntimeError, match=r"did not converge near t = 2\.3\d+, 11\.7\d+$"):
            regularity_scan(K, samples=2048)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            regularity_scan(curve_from_support(SupportFunction(1.0, (), 1)), samples=32)
