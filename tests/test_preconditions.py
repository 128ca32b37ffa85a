"""One degenerate document per construction precondition. Each exits 3
with its message, and each parameter that a transversality or coincidence
message names is a zero of its condition: the refined zero that
roots.circle_roots finds, not the grid sample next to it."""

import json
import math

import numpy as np
import pytest

from poncelet import circlemaps as cm
from poncelet.cli import main

TWO_PI = 2 * math.pi
CIRCLE = {"a": 1.0, "k": 1, "terms": []}
BIG_CIRCLE = {"a": 2.0, "k": 1, "terms": []}
# p changes sign (a < 1), so <D', J D> vanishes on the side family of every step
SINGULAR = {"a": 0.8, "k": 4, "terms": [{"l_num": 3, "l_den": 4, "cos": 1.0}]}
SINGULAR_MSG = "side-family denominator <D', J D> vanishes near parameters "
# g_1 = x + 2, g_2 = x + 4 and g_3 = x + 2 + 0.3 sin(x + 4): vertices 1 and 3
# meet where x + 4 is a multiple of pi, and no step advances by one
MEETING = [{"c": 2.0}, {"c": 2.0}, {"c": -2.0, "terms": [{"j": 1, "sin": 0.3}]}]
MEETING_MAPS = (cm.rotation(TWO_PI, 2.0), cm.rotation(TWO_PI, 2.0),
                cm.from_fourier(TWO_PI, -2.0, (cm.FourierTerm(1, sin_coeff=0.3),)))
MEETING_MSG = "polygon degenerates: g_3 o g_1^-1 has a fixed point near t = "
# f(phi) - phi passes pi twice
PAST_PI = cm.make_torsion(cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(1, sin_coeff=0.4),)),
                          2, 5).map
NEAR_PI = cm.from_fourier(TWO_PI, math.pi - 0.05, (cm.FourierTerm(1, sin_coeff=0.08),))


def advance(f: cm.CircleDiffeo):
    """sin(f(phi) - phi), which a transversal step keeps from 0."""
    return lambda phi: np.sin(f.lift(phi) - phi)


def meeting_shift(t: np.ndarray) -> np.ndarray:
    """How far g_3 o g_1^-1 moves t, on the circle; g_1^-1(t) = t - 2."""
    return cm.circle_distance(cm.orbit(MEETING_MAPS, t - 2.0)[3], t, TWO_PI)


# name: (construction, parameters, message, condition of the named parameters)
CASES = {
    "denominator-pair": ("envelope-from-vertex", {"support": SINGULAR, "step": {"m": 1, "n": 3}},
                         SINGULAR_MSG, None),
    "denominator-clan": ("clan-from-vertex", {"support": SINGULAR, "steps": [
        {"rotation_pi": {"num": 8, "den": 3}}] * 2}, SINGULAR_MSG, None),
    "transversality-pair": ("vertex-from-envelope", {"support": BIG_CIRCLE, "step": {
        "m": 2, "n": 5, "h": {"c": 0.0, "terms": [{"j": 1, "sin": 0.4}]}}},
        "transversality <u'(phi), u(f(phi))> = sin(f(phi) - phi) vanishes near ",
        advance(PAST_PI)),
    "transversality-clan": ("clan-from-envelope", {"support": BIG_CIRCLE, "steps": [
        {"c": math.pi - 0.05, "terms": [{"j": 1, "sin": 0.08}]}, {"c": 2.0}]},
        "transversality fails for step 1 near parameters ", advance(NEAR_PI)),
    "coincidence-vertex-clan": ("clan-from-vertex", {"support": CIRCLE, "steps": MEETING},
                                MEETING_MSG, meeting_shift),
    "coincidence-envelope-clan": ("clan-from-envelope", {"support": BIG_CIRCLE, "steps": MEETING},
                                  MEETING_MSG, meeting_shift),
    "non-monotone-lift": ("envelope-from-vertex", {"support": CIRCLE, "step": {
        "m": 1, "n": 4, "h": {"c": 0.3, "terms": [{"j": 1024, "sin": 0.001953125}]}}},
        "lift is not strictly increasing (min F' <= 1e-9)", None),
}


@pytest.mark.parametrize("name", CASES)
def test_degenerate_document_exits_three_naming_zeros(tmp_path, capsys, name):
    construction, parameters, message, condition = CASES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"construction": construction, "parameters": parameters}))
    assert main(["build", str(path), "--skip-verify"]) == 3
    err = capsys.readouterr().err.strip()
    head = "construction error: " + message
    assert err.startswith(head), err
    if condition is not None:
        params = np.array([float(t) for t in err[len(head):].split(", ")])
        assert np.max(np.abs(condition(params))) < 1e-5, (params, condition(params))
