"""Print the verification reports and render digests of every checked-in
scene, for bit-identity checks of a change that should not move any result.

For every `configs/*.json` and every `SCENES` entry of
`tests/test_bench_contract.py`, at 8, 64 and 1024 probes, one line holds
the case name and the sorted JSON of `Scene.verify(probes).to_dict()`;
`repr` of the floats, so equal output means bit-identical reports. One more
line per case, `<case>@render`, holds the sha256 of its SVG, as
`poncelet render` writes it, and of each curve's CSV, as `poncelet sample`
writes it at the scene's render sample count, and under "samples" every
STRIDE-th point of each curve at that count as `repr` floats; so the scenes
that are built in code, which no render golden pins, are covered too. The
bicentric triangle and square of tests/bicentric.py are dumped as cases
too (the helper comes from this file's directory when CHECKOUT has none,
and a helper without the square gives the triangle only).
Pytest does not collect this file (its name does not start with `test_`).

    PYTHONPATH=src python tests/dump_reports.py [CHECKOUT]

dumps the checkout at CHECKOUT (default: the one holding this file), with
that checkout's `src/` and `tests/` first on the import path. To compare
two commits, unpack the older one and dump both with this file:

    git archive <commit> | tar -x -C /tmp/old
    python tests/dump_reports.py /tmp/old > old.txt
    python tests/dump_reports.py > new.txt
    python tests/dump_reports.py --compare old.txt new.txt

`--compare OLD NEW` reads two such dumps. It prints how many reports are
identical, how many floats moved and the largest move, and then every other
difference: a changed `checks`, `passed`, `errors`, `mode`,
`oracle_direction`, `probes` or SVG digest, or a case only one dump holds. A
curve's CSV digest that moved counts as moved floats when its strided
samples moved, each by less than SAMPLE_MOVE, and the largest such move is
printed; one that moved with no strided sample moving, or with a sample
moving by SAMPLE_MOVE or more, is a change. It exits 1 if there is any
change, and 0 if at most floats moved.
"""

import hashlib
import json
import sys
from pathlib import Path

PROBES = (8, 64, 1024)
STRIDE = 64            # every STRIDE-th render sample of each curve is dumped
SAMPLE_MOVE = 1e-12    # a moved CSV digest whose samples moved less is a float move


def _dump(path: str) -> dict[str, str]:
    """{case: its report's JSON text} of a dump file."""
    cases = (line.partition(" {") for line in Path(path).read_text().splitlines() if line)
    return {case: brace + text for case, brace, text in cases}


def _walk(old, new, where: str, moves: list[float], changes: list[str]) -> None:
    """Append the |diff| of each float that moved to moves, and every other
    difference, under where, to changes; an error list is compared whole."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            _walk(old[key], new[key], f"{where}.{key}", moves, changes)
    elif (isinstance(old, list) and isinstance(new, list) and len(old) == len(new)
          and not any(isinstance(x, str) for x in old + new)):
        for i, (a, b) in enumerate(zip(old, new)):
            _walk(a, b, f"{where}[{i}]", moves, changes)
    elif isinstance(old, float) and isinstance(new, float):
        if not (old == new or (old != old and new != new)):
            moves.append(abs(new - old))
    elif old != new:
        changes.append(f"{where}: {old!r} -> {new!r}")


def _walk_render(old: dict, new: dict, where: str, digests: list[float],
                 changes: list[str]) -> None:
    """Compare two render lines: append the largest strided-sample move of
    each CSV digest that moved with its samples, each by less than
    SAMPLE_MOVE, to digests, and every other moved digest to changes."""
    old_samples, new_samples = old.pop("samples", {}), new.pop("samples", {})
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) == new.get(name):
            continue
        moved: list[float] = []
        if name != "svg":
            _walk(old_samples.get(name), new_samples.get(name), f"{where}.samples.{name}",
                  moved, changes)
        if moved and max(moved) < SAMPLE_MOVE:
            digests.append(max(moved))
        else:
            changes.append(f"{where}.{name}: digest moved, strided samples moved by "
                           + (f"up to {max(moved):.3g}" if moved else "nothing"))


def compare(old_path: str, new_path: str) -> int:
    old, new = _dump(old_path), _dump(new_path)
    moves: list[float] = []
    digests: list[float] = []
    changes = [f"{case}: only in {new_path if case in new else old_path}"
               for case in sorted(old.keys() ^ new.keys())]
    both = [case for case in old if case in new]
    for case in both:
        a, b = json.loads(old[case]), json.loads(new[case])
        if case.endswith("@render"):
            _walk_render(a, b, case, digests, changes)
        else:
            _walk(a, b, case, moves, changes)
    same = sum(old[case] == new[case] for case in both)
    print(f"{same} of {len(both)} lines identical; {len(moves)} floats moved, "
          f"largest {max(moves, default=0.0):.3g}; {len(digests)} CSV digests moved with "
          f"their strided samples, largest {max(digests, default=0.0):.3g}; "
          f"{len(changes)} changes")
    for line in changes:
        print("  " + line)
    return 1 if changes else 0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def render_digests(scene) -> dict:
    """{"svg": the sha256 of the scene's SVG, curve name: that of its CSV,
    "samples": {curve name: its strided render samples}}."""
    from poncelet.render import render_svg, sample_points

    table = scene.curve_table()
    opts = scene.render_options
    envs = [(n, c) for n, c in sorted(table.items()) if n.startswith("envelope")]
    verts = [(n, c) for n, c in sorted(table.items()) if n.startswith("vertex")]
    svg = render_svg(envs, verts, scene.polygons(), samples=opts.samples, margin=opts.margin)
    return {"svg": _digest(svg), **{name: _digest(sample_points(curve, opts.samples))
                                    for name, curve in table.items()},
            "samples": {name: curve.sample(opts.samples)[::STRIDE].tolist()
                        for name, curve in table.items()}}


def main(argv: list[str]) -> None:
    if len(argv) > 1 and argv[1] == "--compare":
        if len(argv) != 4:
            sys.exit("usage: dump_reports.py --compare OLD NEW")
        sys.exit(compare(argv[2], argv[3]))
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import bicentric
    from poncelet.scene import load_scene
    from test_bench_contract import SCENES

    cases = {p.stem: (lambda p=p: load_scene(str(p)))
             for p in sorted((root / "configs").glob("*.json"))}
    cases.update(SCENES)
    cases["bicentric-triangle"] = bicentric.bicentric_scene
    if hasattr(bicentric, "CIRCLES"):       # older checkouts have the triangle only
        cases["bicentric-square"] = lambda: bicentric.bicentric_scene(n=4)
    for name, make in cases.items():
        scene = make()
        for probes in PROBES:
            report = scene.verify(probes=probes).to_dict()
            print(f"{name}@{probes} {json.dumps(report, sort_keys=True)}", flush=True)
        print(f"{name}@render {json.dumps(render_digests(scene), sort_keys=True)}", flush=True)


if __name__ == "__main__":
    main(sys.argv)
