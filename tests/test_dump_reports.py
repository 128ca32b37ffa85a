"""tests/dump_reports.py --compare, the bit-identity check of a change that
should move no result, on small synthetic dumps: what it counts as moved
floats (exit 0) and what as a change (exit 1)."""

import copy
import json

import pytest

import dump_reports

REPORT = {"checks": {"closure": True, "tangency": True}, "passed": True, "errors": [],
          "closure_error": 1.25e-15, "max_tangency_gap": [3.0e-16, 0.5]}
RENDER = {"svg": "a" * 64, "vertex": "b" * 64,
          "samples": {"vertex": [[1.0, 0.0], [0.0, 1.0]]}}


def _write(path, report, render):
    path.write_text(f"scene@8 {json.dumps(report, sort_keys=True)}\n"
                    f"scene@render {json.dumps(render, sort_keys=True)}\n")
    return str(path)


def _compare(tmp_path, capsys, report=REPORT, render=RENDER):
    """(exit code, printed lines) of --compare from the base dump to one with
    report and render lines."""
    old = _write(tmp_path / "old.txt", REPORT, RENDER)
    new = _write(tmp_path / "new.txt", report, render)
    with pytest.raises(SystemExit) as exit_:
        dump_reports.main(["dump_reports.py", "--compare", old, new])
    return exit_.value.code, capsys.readouterr().out.splitlines()


def test_identical_dumps_pass(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys)
    assert code == 0
    assert out == ["2 of 2 lines identical; 0 floats moved, largest 0; 0 CSV digests moved "
                   "with their strided samples, largest 0; 0 changes"]


def test_a_moved_float_is_counted_with_its_largest_move(tmp_path, capsys):
    report = copy.deepcopy(REPORT)
    report["max_tangency_gap"][1] = 0.5 + 2 ** -40
    code, out = _compare(tmp_path, capsys, report=report)
    assert code == 0
    assert out[0].startswith("1 of 2 lines identical; 1 floats moved, largest 9.09e-13;")
    assert out[0].endswith("; 0 changes")
    assert out[1:] == ["  scene@8: 1 floats moved, largest 9.09e-13"]


def test_a_csv_digest_whose_samples_barely_moved_is_a_float_move(tmp_path, capsys):
    render = copy.deepcopy(RENDER)
    render["vertex"] = "c" * 64
    render["samples"]["vertex"][1][0] = dump_reports.SAMPLE_MOVE / 2
    code, out = _compare(tmp_path, capsys, render=render)
    assert code == 0
    assert "1 CSV digests moved with their strided samples, largest 5e-13; 0 changes" in out[0]
    assert out[1:] == ["  scene@render: 1 CSV digests moved, largest 5e-13"]


def test_a_csv_digest_whose_samples_moved_far_or_not_at_all_is_a_change(tmp_path, capsys):
    for move in (dump_reports.SAMPLE_MOVE, 0.0):
        render = copy.deepcopy(RENDER)
        render["vertex"] = "c" * 64
        render["samples"]["vertex"][1][0] = move
        code, out = _compare(tmp_path, capsys, render=render)
        assert code == 1 and out[0].endswith("; 1 changes")
        assert out[1].startswith("  scene@render.vertex: digest moved, strided samples moved by ")
        assert out[1].endswith("up to 1e-12" if move else "nothing")


def test_a_flipped_check_is_a_change(tmp_path, capsys):
    report = copy.deepcopy(REPORT)
    report["checks"]["tangency"] = False
    code, out = _compare(tmp_path, capsys, report=report)
    assert code == 1
    assert out[0].endswith("0 floats moved, largest 0; 0 CSV digests moved with their "
                           "strided samples, largest 0; 1 changes")
    assert out[1:] == ["  scene@8.checks.tangency: True -> False"]


def test_a_changed_svg_digest_is_a_change(tmp_path, capsys):
    render = copy.deepcopy(RENDER)
    render["svg"] = "d" * 64
    code, out = _compare(tmp_path, capsys, render=render)
    assert code == 1
    assert out[1:] == ["  scene@render.svg: digest moved, strided samples moved by nothing"]
