"""Print the verification report of every checked-in scene, for bit-identity
checks of a change that should not move any result.

For every `configs/*.json` and every `SCENES` entry of
`tests/test_bench_contract.py`, at 8, 64 and 1024 probes, one line holds
the case name and the sorted JSON of `Scene.verify(probes).to_dict()`;
`repr` of the floats, so equal output means bit-identical reports.
Pytest does not collect this file (its name does not start with `test_`).

    PYTHONPATH=src python tests/dump_reports.py [CHECKOUT]

dumps the checkout at CHECKOUT (default: the one holding this file), with
that checkout's `src/` and `tests/` first on the import path. To compare
two commits, unpack the older one and dump both with this file:

    git archive <commit> | tar -x -C /tmp/old
    python tests/dump_reports.py /tmp/old > old.txt
    python tests/dump_reports.py > new.txt
    cmp old.txt new.txt
"""

import json
import sys
from pathlib import Path

PROBES = (8, 64, 1024)


def main(argv: list[str]) -> None:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from poncelet.scene import load_scene
    from test_bench_contract import SCENES

    cases = {p.stem: (lambda p=p: load_scene(str(p)))
             for p in sorted((root / "configs").glob("*.json"))}
    cases.update(SCENES)
    for name, make in cases.items():
        scene = make()
        for probes in PROBES:
            report = scene.verify(probes=probes).to_dict()
            print(f"{name}@{probes} {json.dumps(report, sort_keys=True)}", flush=True)


if __name__ == "__main__":
    main(sys.argv)
