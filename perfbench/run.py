#!/usr/bin/env python3
"""Build/verify/render benchmark for the poncelet library.

    python3 perfbench/run.py --workload oracle-convex --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Drives the library in-process through the calls the command line makes
(`scene.build_scene`, `Scene.verify`, `render.render_svg`,
`render.sample_points`), importing it from `src/` of the checkout this file
sits in. One op is one scene taken through build, verify and render and
checked by the gate in gate.py. A round is every case of the workload once;
rounds repeat until the next one would overrun --seconds, and each timing
is the sum over cases of the mean of the case's timed passes in the run
(see _pass_total and resample). Negative controls
run once after the rounds and count as ops, outside the timings.

With --trace 1 the run repeats pairs of an untraced and a traced round and
reports per-layer metrics (medians over the traced rounds). The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import gate
import reference
import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
RESULTS = HERE / "results"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 40
SETUP_REPEATS = 5
SETUP_REPEATS_PER_ROUND = 3
STAGE_REPEATS = 9
STAGE_BUDGET_S = 0.1
# after a verify longer than LONG_VERIFY_S, every case is built, and then
# rendered, again for RESAMPLE_SHARE of its time each (see resample)
LONG_VERIFY_S = 1.0
RESAMPLE_SHARE = 0.05
RESAMPLE_REPEATS = 200
STAGES = ("build_s", "verify_s", "render_s")

clock = time.perf_counter


class SetupError(RuntimeError):
    pass


# --- set-up ------------------------------------------------------------------

def import_library() -> SimpleNamespace:
    """Import poncelet afresh from this checkout's src/ (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "poncelet" or m.startswith("poncelet.")]:
        del sys.modules[name]
    try:
        scene = importlib.import_module("poncelet.scene")
        render = importlib.import_module("poncelet.render")
    except ImportError as exc:
        raise SetupError(f"cannot import poncelet from {SRC}: {exc}") from exc
    if not Path(scene.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"poncelet was imported from {scene.__file__}, not {SRC}")
    return SimpleNamespace(scene=scene, render=render)


def _parses(lib, doc) -> bool:
    try:
        lib.scene.parse_config(doc)
    except (lib.scene.SchemaError, ValueError, KeyError, TypeError):
        return False
    return True


def setup(name: str, seed: int, repeats: int = SETUP_REPEATS):
    """Import the library, generate and parse the workload's documents,
    `repeats` times. Returns the last library and workload and every time,
    scaled to the reference speed (see reference.py)."""
    if not (SRC / "poncelet").is_dir() or not CONFIGS.is_dir():
        raise SetupError(f"no library sources at {SRC} or configs at {CONFIGS}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    before = reference.kernel_s()
    for _ in range(repeats):
        t0 = clock()
        lib = import_library()
        workload = wl.build_workload(name, seed, CONFIGS, lambda d: _parses(lib, d))
        for case in workload.cases:
            lib.scene.parse_config(case.doc)
        times.append(clock() - t0)
    factor = reference.scale(before, reference.kernel_s())
    return lib, workload, [t * factor for t in times]


# --- ops ---------------------------------------------------------------------

@dataclasses.dataclass
class OpResult:
    # every timed pass of each stage, in seconds
    build_s: list = dataclasses.field(default_factory=list)
    verify_s: list = dataclasses.field(default_factory=list)
    render_s: list = dataclasses.field(default_factory=list)
    worst_error: float = 0.0
    problems: list = dataclasses.field(default_factory=list)


def render_scene(lib, scene) -> tuple[str, list[str]]:
    """What `poncelet render` and `poncelet sample` produce for the scene:
    the SVG, and one CSV per named curve."""
    table = scene.curve_table()
    envs = [(n, c) for n, c in sorted(table.items()) if n.startswith("envelope")]
    verts = [(n, c) for n, c in sorted(table.items()) if n.startswith("vertex")]
    opts = scene.render_options
    svg = lib.render.render_svg(envs, verts, scene.polygons(),
                                samples=opts.samples, margin=opts.margin)
    csvs = [lib.render.sample_points(curve, opts.samples) for _, curve in sorted(table.items())]
    return svg, csvs


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _timed(fn, repeat: bool):
    """fn() and the time of each call. With `repeat`, a stage that finishes
    quickly runs again, up to STAGE_REPEATS times or STAGE_BUDGET_S in
    total: millisecond stages are otherwise mostly noise."""
    times = []
    while True:
        t0 = clock()
        result = fn()
        times.append(clock() - t0)
        if not repeat or len(times) >= STAGE_REPEATS or sum(times) >= STAGE_BUDGET_S:
            return result, times


def run_op(lib, case, tracer=None, repeat: bool = True) -> OpResult:
    """Build, verify and render one case. With `repeat`, quick stages repeat
    (see _timed); a traced run runs each stage once, so counts repeat exactly."""
    out = OpResult()
    repeat = repeat and tracer is None
    try:
        scene, out.build_s = _timed(lambda: lib.scene.build_scene(case.doc), repeat)
        if tracer is not None:
            tr.trace_polygon(tracer, scene)
        report, out.verify_s = _timed(scene.verify, repeat)
        with _span(tracer, "scene.render"):
            (svg, csvs), out.render_s = _timed(lambda: render_scene(lib, scene), repeat)
        out.worst_error = gate.worst_error(report)
        out.problems += gate.check_scene(case, scene)
        out.problems += gate.check_report(case, report)
        out.problems += gate.check_outputs(scene, svg, csvs)
    except Exception as exc:    # one broken op must not end the run
        traceback.print_exc(file=sys.stderr)
        out.problems.append(f"{type(exc).__name__}: {exc}")
    return out


def resample(lib, cases, budget_s: float) -> list[OpResult]:
    """Passes of build over every case, then passes of render, until each
    stage has taken `budget_s` (at most RESAMPLE_REPEATS passes); the times,
    per case. Run after a long verify, so that the samples of the quick
    stages come from all through the round and not only from the moments
    before the verifies. A case that raises is left out; its op reports the
    failure."""
    results = [OpResult() for _ in cases]
    scenes = {}
    for stage in ("build_s", "render_s"):
        spent = 0.0
        for _ in range(RESAMPLE_REPEATS):
            for i, (case, out) in enumerate(zip(cases, results)):
                try:
                    t0 = clock()
                    if stage == "build_s":
                        scenes[i] = lib.scene.build_scene(case.doc)
                    elif i in scenes:
                        render_scene(lib, scenes[i])
                    else:
                        continue
                    t = clock() - t0
                except Exception:
                    continue
                getattr(out, stage).append(t)
                spent += t
            if spent >= budget_s:
                break
    return results


def _add(into: OpResult, op: OpResult, factor: float) -> None:
    """Append op's stage times, scaled by factor, and its outcome to into."""
    for stage in STAGES:
        getattr(into, stage).extend(t * factor for t in getattr(op, stage))
    into.worst_error = max(into.worst_error, op.worst_error)
    into.problems += op.problems


def run_round(lib, workload, tracer=None, repeat: bool = True) -> list[OpResult]:
    """Every case once. With `repeat` and no tracer the stage times are
    scaled to the reference speed by kernel timings around each op and each
    resample (see reference.py); otherwise they are wall times."""
    cases = workload.cases
    results = [OpResult() for _ in cases]
    normalize = repeat and tracer is None
    speed = reference.kernel_s if normalize else lambda: reference.REFERENCE_S
    before = speed()
    for i, case in enumerate(cases):
        with _span(tracer, "op"):
            result = run_op(lib, case, tracer, repeat)
        for problem in result.problems:
            print(f"FAILED {workload.name}/{case.label}: {problem}", file=sys.stderr)
        after = speed()
        _add(results[i], result, reference.scale(before, after))
        before = after
        verify_s = sum(result.verify_s)
        if normalize and not result.problems and verify_s > LONG_VERIFY_S:
            extra = resample(lib, cases, RESAMPLE_SHARE * verify_s)
            after = speed()
            for into, op in zip(results, extra):
                _add(into, op, reference.scale(before, after))
            before = after
    return results


def run_controls(lib, workload) -> tuple[int, int]:
    """Negative controls: each perturbed configuration must fail verification."""
    attempted = failed = 0
    for case in workload.cases:
        if case.label not in workload.controls:
            continue
        for kind in gate.CONTROL_KINDS:
            attempted += 1
            try:
                scene = lib.scene.build_scene(case.doc)
                cfg = gate.controls(scene.configuration)[kind]
                passed = dataclasses.replace(scene, configuration=cfg).verify().passed
            except Exception as exc:    # a control must fail verification, not crash
                print(f"FAILED control {case.label}/{kind}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                failed += 1
                continue
            if passed:
                print(f"FAILED control {case.label}/{kind}: verification passed",
                      file=sys.stderr)
                failed += 1
    return attempted, failed


def timed_rounds(one_round, seconds: float):
    """Calls of one_round() until the next would overrun `seconds` (at least
    one). Yields (round results, wall time of the round)."""
    start = clock()
    while True:
        r0 = clock()
        results = one_round()
        wall = clock() - r0
        yield results, wall
        if clock() - start + wall > seconds:
            return


# --- metrics -----------------------------------------------------------------

def _pass_total(rounds, stage: str) -> float:
    """Time of one pass over the workload's cases: the sum over cases of the
    mean of every timed pass of the case in the run. The mean, not the
    median: the shared CPU switches between a fast and a slow speed, about
    1.6 times apart, from second to second, so a median flips between the
    two when the slow share is near a half, while the mean follows it."""
    per_case = zip(*([getattr(op, stage) for op in results] for results, _ in rounds))
    pooled = [[s for samples in case for s in samples] for case in per_case]
    # a case whose op raised before the stage has no samples; the op failed
    return sum(statistics.fmean(samples) for samples in pooled if samples)


def end_to_end_metrics(rounds, setup_s: float, rss_mb: float) -> dict:
    ops = [op for results, _ in rounds for op in results]
    worst = max(op.worst_error for op in ops)
    return {
        "setup_s": (setup_s, "s"),
        "build_s": (_pass_total(rounds, "build_s"), "s"),
        "verify_s": (_pass_total(rounds, "verify_s"), "s"),
        "render_s": (_pass_total(rounds, "render_s"), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "accuracy_digits": (gate.accuracy_digits(worst), "digits"),
    }


# per-layer metric name -> (span name, aggregate key, unit)
LAYER_METRICS = [
    ("scene.build.calls", "scene.build", "calls", "count"),
    ("scene.build.self_s", "scene.build", "self_s", "s"),
    ("scene.polygon.calls", "scene.polygon", "calls", "count"),
    ("scene.polygon.self_s", "scene.polygon", "self_s", "s"),
    ("scene.verify.calls", "scene.verify", "calls", "count"),
    ("scene.verify.total_s", "scene.verify", "total_s", "s"),
    ("scene.render.total_s", "scene.render", "total_s", "s"),
    ("equiangular.construct.calls", "equiangular.construct", "calls", "count"),
    ("equiangular.construct.self_s", "equiangular.construct", "self_s", "s"),
    ("envelope.construct.calls", "envelope.construct", "calls", "count"),
    ("envelope.construct.self_s", "envelope.construct", "self_s", "s"),
    ("vertex.construct.calls", "vertex.construct", "calls", "count"),
    ("vertex.construct.self_s", "vertex.construct", "self_s", "s"),
    ("geometry.self_intersects.calls", "geometry.self_intersects", "calls", "count"),
    ("geometry.self_intersects.self_s", "geometry.self_intersects", "self_s", "s"),
    ("support.eval.calls", "support.eval", "calls", "count"),
    ("support.eval.points", "support.eval", "points", "count"),
    ("support.eval.self_s", "support.eval", "self_s", "s"),
    ("support.jet_many.calls", "support.jet_many", "calls", "count"),
    ("support.jet_many.points", "support.jet_many", "points", "count"),
    ("support.jet_many.self_s", "support.jet_many", "self_s", "s"),
    ("support.positions.calls", "support.positions", "calls", "count"),
    ("support.positions.points", "support.positions", "points", "count"),
    ("support.positions.self_s", "support.positions", "self_s", "s"),
    ("circlemaps.solve_lift.calls", "circlemaps.solve_lift", "calls", "count"),
    ("circlemaps.solve_lift.points", "circlemaps.solve_lift", "points", "count"),
    ("circlemaps.solve_lift.self_s", "circlemaps.solve_lift", "self_s", "s"),
    ("verify.oracle_step.calls", "verify.oracle_step", "calls", "count"),
    ("verify.oracle_step.self_s", "verify.oracle_step", "self_s", "s"),
    ("verify.oracle_step.total_s", "verify.oracle_step", "total_s", "s"),
    ("verify.oracle_step.errors", "verify.oracle_step", "errors", "count"),
    ("verify.tangent_parameters.calls", "verify.tangent_parameters", "calls", "count"),
    ("verify.tangent_parameters.roots", "verify.tangent_parameters", "roots", "count"),
    ("verify.tangent_parameters.self_s", "verify.tangent_parameters", "self_s", "s"),
    ("verify.circle_roots.calls", "verify.circle_roots", "calls", "count"),
    ("verify.circle_roots.self_s", "verify.circle_roots", "self_s", "s"),
    ("verify.refine_root.calls", "verify.refine_root", "calls", "count"),
    ("verify.refine_root.self_s", "verify.refine_root", "self_s", "s"),
    ("verify.side_contacts.calls", "verify.side_contacts", "calls", "count"),
    ("verify.side_contacts.self_s", "verify.side_contacts", "self_s", "s"),
    ("verify.side_contacts.total_s", "verify.side_contacts", "total_s", "s"),
    ("verify.side_recover.calls", "verify.side_recover", "calls", "count"),
    ("verify.side_recover.self_s", "verify.side_recover", "self_s", "s"),
    ("render.svg.calls", "render.svg", "calls", "count"),
    ("render.svg.self_s", "render.svg", "self_s", "s"),
    ("render.svg.bytes", "render.svg", "bytes", "B"),
    ("render.csv.calls", "render.csv", "calls", "count"),
    ("render.csv.self_s", "render.csv", "self_s", "s"),
    ("render.csv.bytes", "render.csv", "bytes", "B"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(aggregates: dict, wall: float) -> dict[str, float]:
    """Per-layer values of one traced round."""
    def get(span, key):
        return aggregates.get(span, {}).get(key, 0)

    values = {name: float(get(span, key)) for name, span, key, _ in LAYER_METRICS}
    verify_total = get("scene.verify", "total_s")
    values["verify.side_contacts.recovered_ratio"] = _ratio(
        get("verify.side_contacts", "recovered"), get("verify.side_contacts", "calls"))
    values["verify.oracle_step.share_of_verify"] = _ratio(
        get("verify.oracle_step", "total_s"), verify_total)
    values["verify.side_contacts.share_of_verify"] = _ratio(
        get("verify.side_contacts", "total_s"), verify_total)
    covered = sum(a["self_s"] for span, a in aggregates.items() if span != "op")
    values["trace.unaccounted_share"] = _ratio(wall - covered, wall)
    return values


DERIVED_UNITS = {
    "verify.side_contacts.recovered_ratio": "ratio",
    "verify.oracle_step.share_of_verify": "ratio",
    "verify.side_contacts.share_of_verify": "ratio",
    "trace.unaccounted_share": "ratio",
    "trace.overhead_s": "s",
    "trace.absent_entry_points": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, _, _, unit in LAYER_METRICS}
    units.update(DERIVED_UNITS)
    return units


# --- runs --------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool):
    lib, workload, setup_times = setup(name, seed)
    attempted = failed = 0
    metrics: dict[str, tuple[float, str]] = {}

    def count(results):
        nonlocal attempted, failed
        attempted += len(results)
        failed += sum(1 for r in results if r.problems)

    if not trace:
        def one_round():
            # set-up repeats between rounds too, so that setup_s samples the
            # whole run like the other timings rather than its first second
            nonlocal lib, workload
            if rounds:
                lib, workload, times = setup(name, seed, SETUP_REPEATS_PER_ROUND)
                setup_times.extend(times)
            return run_round(lib, workload)

        rounds = []
        for results, wall in timed_rounds(one_round, seconds):
            rounds.append((results, wall))
            count(results)
            if len(rounds) == 1:
                # the process's peak over set-up and one pass over the cases;
                # later rounds add heap growth that depends on how many fit
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end_metrics(rounds, statistics.median(setup_times), rss_mb)
        extra = {"rounds": len(rounds),
                 "reference_kernel_ms": 1e3 * statistics.median(reference.timings)}
    else:
        tracer = tr.Tracer()
        per_round, overheads, absent = [], [], []

        def untraced_then_traced():
            # the overhead is taken pairwise, against an untraced round run
            # just before with the same single pass per stage
            nonlocal absent
            r0 = clock()
            results = run_round(lib, workload, repeat=False)
            untraced = clock() - r0
            with tr.installed(tracer) as absent:
                r1 = clock()
                results += run_round(lib, workload, tracer)
                traced = clock() - r1
            per_round.append(layer_metrics(tracer.take_aggregates(), traced))
            overheads.append(traced - untraced)
            return results

        for results, _ in timed_rounds(untraced_then_traced, seconds):
            count(results)
        units = per_layer_units()
        for key in per_round[0]:
            metrics[key] = (statistics.median(v[key] for v in per_round), units[key])
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
        metrics["trace.absent_entry_points"] = (float(len(absent)), "count")
        for entry in absent:
            print(f"absent entry point: {entry}", file=sys.stderr)
        extra = {"rounds": len(per_round)}
        _write_spans(name, seed, tracer.spans, absent)

    c_attempted, c_failed = run_controls(lib, workload)
    attempted += c_attempted
    failed += c_failed
    extra.update(ops_attempted=attempted, ops_failed=failed, controls=c_attempted,
                 generator_rejected=workload.rejected)
    return attempted, failed, metrics, extra


def _write_spans(name: str, seed: int, spans, absent) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"spans-{name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "absent": absent,
                   "fields": ["id", "parent", "name", "start_s", "end_s"],
                   "spans": spans}, fh)
    print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_all(args) -> int:
    """Every workload, each in its own process (peak RSS is per process)."""
    attempted = failed = 0
    metrics = {}
    status = 0
    for name in wl.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = status or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = (value["value"], value["unit"])
    print(result_line(attempted, failed, metrics))
    return status or (0 if failed == 0 else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        attempted, failed, metrics, extra = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    for key, value in extra.items():
        print(f"{key} {value}")
    print(result_line(attempted, failed, metrics))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
