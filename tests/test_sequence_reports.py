"""Golden sequence-mode reports (tests/data/sequence_reports.json), written
before sequence-mode verification checked its polygons as arrays: the four
sequence-mode configs at 16 and 64 probes, as built and under both of the
benchmark's negative controls (perfbench/gate.py). The controls of
iterated_square fail through one error per side, which pins the error text
and order. Strings, booleans and error lists must match exactly, floats to
1e-12 relative.

The file was rewritten when the root solver gained its minimum step and
best-end return, after a diff of old and new reports showed the same
pass/fail, checks and errors and every float within 1e-12 absolute; one
field moved: iterated_square@64 construction max_step_mismatch, from
1.07e-14 to 8.9e-15.

It was rewritten again when sequence mode began to assemble its polygons
from the construction's walk on the configuration's own curves. Two kinds
of field moved, and nothing else: every vertex-shift s_range, because the
control used to move the vertices but keep the old chords; and the
iterated_square envelope-bump max_tangency_gap (2.5e-14 and 3.2e-14 to
1.0e-3, with tangency now false), because the contacts now lie on the
moved envelope. Every construction entry and every passed and errors value
stayed as it was.

It was rewritten a third time by tests/rewrite_goldens.py when the
equiangular vertex curves began to use the general tangent-meet formula
and one function came to measure the polygons of both verifier modes. The
tool showed no change to any checks, passed, errors or mode. 38 floats
moved, all within 1e-14 absolute: the six clan entries (closure_error,
min_premature_closure, max_tangency_gap, max_angle_deviation, s_range and
regularity_min_speed, each by at most 6.7e-16 but min_premature_closure,
by 5.0e-15), and the two iterated_square envelope-bump s_range values, which
had already drifted in their last bits before this change.

It was rewritten a fourth time by tests/rewrite_goldens.py when the root
solver began to take its bracket ends' values from the caller and to scale
the kept end by the Anderson-Bjorck factor: one float moved,
iterated_square@64 construction max_step_mismatch, from 8.9e-15 to
1.07e-14.

It was rewritten twice more when a Newton solve began to stop on the
estimated error of its update, and a missed contact became a report
error. First tests/rewrite_goldens.py wrote the one moved float,
iterated_square@64 construction max_step_mismatch, from 1.07e-14 to
1.78e-14. Then the error lists of five failing controls (pentagram@64
vertex-shift and clan@16 and @64 under both controls), which failed
contact_recovery with no error, took their new contact-miss errors; the
tool refuses a changed error list, so a script checked that only those
lists changed, each only by such errors, and that every report kept its
checks and failed as before.

It was rewritten once more when contact_recovery began to fail on any
side error, not only on a contact mismatch. tests/rewrite_goldens.py
reported exactly four changes and no moved value: iterated_square at 16
and 64 probes under envelope-bump and vertex-shift, whose reports already
failed on their "no tangency" errors, now fail contact_recovery too; the
tool refuses a changed check, so its recomputed document was written after
a script checked that those four were its only differences."""

import json
from pathlib import Path

import pytest

from poncelet.scene import load_scene
from poncelet.verify import verify_pair
from test_bench_contract import gate
from test_oracle_reports import _assert_matches

REPO = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((REPO / "tests" / "data" / "sequence_reports.json").read_text())


@pytest.fixture(scope="module")
def variants():
    out = {}
    for name in GOLDEN:
        config = load_scene(str(REPO / "configs" / f"{name}.json")).configuration
        out[name] = {"construction": config, **gate.controls(config)}
    return out


@pytest.mark.parametrize("name, probes, kind", [
    (name, int(p), kind) for name in sorted(GOLDEN) for p in sorted(GOLDEN[name], key=int)
    for kind in GOLDEN[name][p]])
def test_sequence_report_matches_golden(variants, name, probes, kind):
    config = variants[name][kind]
    assert config.mode == "sequence"
    report = verify_pair(config, probes=probes)
    want = GOLDEN[name][str(probes)][kind]
    assert report.passed == (kind == "construction")
    _assert_matches(report.to_dict(), want, f"{name}@{probes}/{kind}")
