"""Re-run the golden fixtures under tests/data against the current code.

    python tests/rewrite_goldens.py [oracle] [sequence] [polygons] [render] [--write]

Each named golden (all four by default) is computed again, and every value
that moved is printed as path: old -> new. Lists of more than four numbers
are summarised by their largest move. A moved float or a moved render hash
is a move; any other difference (a check, passed, an error string, the
mode, the oracle direction, a probe count, a key or a hash name) is a
change, and the script then exits 1 and writes nothing. With --write, the
named goldens that moved are rewritten in their own layout.

This file is not collected by pytest (its name does not start with test_).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

import numpy as np  # noqa: E402

from poncelet.render import sample_points  # noqa: E402
from poncelet.scene import load_scene  # noqa: E402
from poncelet.verify import verify_pair  # noqa: E402


def _oracle(old: dict) -> dict:
    from test_oracle_reports import _configuration
    return {name: {p: verify_pair(_configuration(name), probes=int(p)).to_dict() for p in runs}
            for name, runs in old.items()}


def _sequence(old: dict) -> dict:
    from test_bench_contract import gate
    out = {}
    for name, runs in old.items():
        config = load_scene(str(REPO / "configs" / f"{name}.json")).configuration
        variants = {"construction": config, **gate.controls(config)}
        out[name] = {p: {kind: verify_pair(variants[kind], probes=int(p)).to_dict()
                         for kind in kinds} for p, kinds in runs.items()}
    return out


def _polygons(old: dict) -> dict:
    from test_polygons import _fields
    out = {}
    for name, entries in old.items():
        cfg = load_scene(str(REPO / "configs" / name)).configuration
        out[name] = []
        for entry in entries:
            poly = cfg.polygon(entry["start"])
            fields = {k: np.asarray(v).tolist() for k, v in _fields(poly).items()}
            fields["envelope_indices"] = poly.envelope_index.tolist()
            out[name].append({k: entry["start"] if k == "start" else fields[k] for k in entry})
    return out


def _render(old: dict) -> dict:
    from test_render import _sha, _svg
    configs = {}
    for name in old["configs"]:
        scene = load_scene(str(REPO / "configs" / name))
        opts = scene.render_options
        configs[name] = {
            "csv": {c: _sha(sample_points(curve, opts.samples))
                    for c, curve in sorted(scene.curve_table().items())},
            "samples": opts.samples,
            "svg": _sha(_svg(scene, samples=opts.samples, margin=opts.margin)),
        }
    curve = load_scene(str(REPO / "configs" / "equilateral_a85.json")).curve("vertex")
    return {"configs": configs,
            "sample_counts": {n: _sha(sample_points(curve, int(n))) for n in old["sample_counts"]}}


def _polygons_text(doc: dict) -> str:
    """polygons.json's layout: one line per polygon."""
    blocks = [f" {json.dumps(name)}: [\n" + ",\n".join("  " + json.dumps(e) for e in entries)
              + "\n ]" for name, entries in doc.items()]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


GOLDENS = {   # name: (file, recompute, text of a document)
    "oracle": ("oracle_reports.json", _oracle,
               lambda d: json.dumps(d, indent=1, sort_keys=True) + "\n"),
    "sequence": ("sequence_reports.json", _sequence, lambda d: json.dumps(d, indent=1) + "\n"),
    "polygons": ("polygons.json", _polygons, _polygons_text),
    "render": ("render_golden.json", _render,
               lambda d: json.dumps(d, indent=1, sort_keys=True) + "\n"),
}


def _numbers(x) -> bool:
    return isinstance(x, list) and all(
        _numbers(v) if isinstance(v, list) else isinstance(v, float) for v in x)


def _same_number(a: float, b: float) -> bool:
    return a == b or (a != a and b != b)


def compare(old, new, path: str, hashes: bool, out: list[str]) -> bool:
    """Append each move under path to out; False at a change that is not a move."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new) and sorted(old) != sorted(new):
            out.append(f"{path}: keys {sorted(old)} -> {sorted(new)}")
            return False
        return all([compare(old[k], new[k], f"{path}.{k}", hashes, out) for k in old])
    if isinstance(old, float) and isinstance(new, float):
        if not _same_number(old, new):
            out.append(f"{path}: {old!r} -> {new!r} (|diff| {abs(new - old):.3g})")
        return True
    if _numbers(old) and _numbers(new) and np.shape(old) == np.shape(new):
        a, b = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
        moved = ~((a == b) | (np.isnan(a) & np.isnan(b)))
        if moved.any() and a.size <= 4:
            out.append(f"{path}: {old!r} -> {new!r}")
        elif moved.any():
            with np.errstate(invalid="ignore"):
                largest = float(np.nanmax(np.abs(b - a)[moved]))
            out.append(f"{path}: {int(moved.sum())} of {a.size} values moved, "
                       f"largest |diff| {largest:.3g}")
        return True
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new) and not (
            old and isinstance(old[0], str)):
        return all([compare(o, n, f"{path}[{i}]", hashes, out)
                    for i, (o, n) in enumerate(zip(old, new))])
    if old == new:
        return True
    if hashes and isinstance(old, str) and isinstance(new, str):
        out.append(f"{path}: {old} -> {new}")
        return True
    out.append(f"{path}: CHANGED {old!r} -> {new!r}")
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("goldens", nargs="*", metavar="GOLDEN",
                        help=f"any of {', '.join(GOLDENS)} (default: all)")
    parser.add_argument("--write", action="store_true", help="rewrite the goldens that moved")
    args = parser.parse_args(argv)
    unknown = set(args.goldens) - set(GOLDENS)
    if unknown:
        parser.error(f"unknown goldens {sorted(unknown)}; choose from {', '.join(GOLDENS)}")
    names = args.goldens or list(GOLDENS)
    ok, rewrite = True, {}
    for name in names:
        file, recompute, text = GOLDENS[name]
        old = json.loads((DATA / file).read_text())
        new = recompute(old)
        lines: list[str] = []
        ok &= compare(old, new, file, name == "render", lines)
        print(f"{file}: {len(lines)} moved" if lines else f"{file}: unchanged")
        for line in lines:
            print("  " + line)
        if lines:
            rewrite[file] = text(new)
    if not ok:
        print("a value other than a float or a hash changed; nothing written")
        return 1
    if args.write:
        for file, body in rewrite.items():
            (DATA / file).write_text(body)
            print(f"wrote {file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
