"""Negative control for oracle mode: a convex pair drawn from the benchmark's
parameter ranges (perfbench/workloads.py) verifies, and the same pair with
its envelope raised or its vertex curve moved by a small eps never does.
The sequence-mode partner is TestPerturbedSequencePolygons in
test_verify.py."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet.scene import build_scene
from poncelet.verify import verify_pair

PROBES = 8


def equiangular(angle, c2, c3):
    return {"construction": "equiangular-pair", "parameters": {
        "support": {"a": 1.0, "k": 1, "terms": [
            {"l_num": 2, "l_den": 1, "cos": c2, "sin": 0.0},
            {"l_num": 3, "l_den": 1, "cos": c3, "sin": 0.0}]},
        "angle": {"num": angle[0], "den": angle[1]}, "branch": 0}}


def equilateral(l, a):
    return {"construction": "equilateral",
            "parameters": {"k": 1, "l": {"num": l, "den": 1}, "a": a}}


convex_pairs = st.one_of(
    st.builds(equiangular, st.sampled_from([(2, 3), (1, 2)]),
              st.floats(-0.08, 0.08), st.floats(-0.05, 0.05)),
    st.builds(equilateral, st.just(2), st.floats(3.5, 6.0)),
    st.builds(equilateral, st.just(3), st.floats(8.5, 12.0)))


def moved(curve, shift):
    def jet_fn(ts):
        pos, vel, acc = curve.jet_many(ts)
        return pos + shift, vel, acc

    return dataclasses.replace(curve, jet_fn=jet_fn,
                               position_fn=lambda ts: curve.positions(ts) + shift)


@settings(max_examples=40, deadline=None)
@given(doc=convex_pairs, bump=st.booleans(), eps=st.floats(1e-4, 1e-2),
       theta=st.floats(0.0, 2 * math.pi))
def test_perturbed_convex_pair_never_passes(doc, bump, eps, theta):
    config = build_scene(doc).configuration
    assert config.mode == "oracle"
    assert verify_pair(config, probes=PROBES).passed
    if bump:
        [p] = config.envelope_supports
        config = dataclasses.replace(config, envelope_supports=(
            dataclasses.replace(p, constant=p.constant + eps),))
    else:
        [K] = config.vertex_curves
        shift = eps * np.array([math.cos(theta), math.sin(theta)])
        config = dataclasses.replace(config, vertex_curves=(moved(K, shift),))
    assert not verify_pair(config, probes=PROBES).passed
