"""Every function in src/poncelet is reached from the command line or is
kept on purpose, with its reason: code that only the tests use moves into
the tests or earns its place in the public API.

`poncelet build --skip-verify`, `verify`, `render` and `sample` (once per
curve) run through `cli.main` under `sys.setprofile`, over every
`configs/*.json`, the documents of the scenes of
tests/test_bench_contract.py that no config holds (so every construction
kind is built) and the degenerate documents of tests/test_preconditions.py.
The definitions are every module-level function and every method of a
module-level class in src/poncelet, listed with `ast`; a nested def counts
with its parent. The gate fails on a definition that is neither reached
nor in KEPT, on a KEPT entry that is reached or no longer defined, and on a
`poncelet.__all__` name that is neither reached nor kept; a class counts as
reached when it is instantiated or one of its methods is reached.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import poncelet
from poncelet.cli import main
from test_bench_contract import DOCUMENTS
from test_preconditions import CASES

REPO = Path(__file__).resolve().parent.parent
SRC = Path(poncelet.__file__).parent   # as the code objects name their files

# definitions that the command line never calls, and why each stays
KEPT = {
    "circlemaps.conjugator_to_rotation":
        "the paper's explicit conjugator H = (1/n) sum F^j of a torsion map to the rotation",
    "verify.regularity_scan":
        "the one regularity check of any curve; the report is to run it on every curve",
    "equiangular.Walked.polygon":
        "the polygon from one start for library users; scene fills "
        "PonceletConfiguration.polygon with it, which perfbench/ replaces and wraps",
    "jets.Jet.size":
        "np.size of a Jet, with which perfbench/tracer.py counts the points of a call",
    "geometry._segments_touch":
        "confirms a contact of two segments, which runs only when two segments touch",
}


def definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.name of every module-level function and
    module.Class.name of every method of a module-level class in
    src/poncelet. The first line is a code object's: the first decorator's."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner, defs = (f"{path.stem}.", [node]) if not isinstance(node, ast.ClassDef) \
                else (f"{path.stem}.{node.name}.", node.body)
            for d in defs:
                if isinstance(d, ast.FunctionDef):
                    line = min([d.lineno] + [x.lineno for x in d.decorator_list])
                    out[str(path), line] = owner + d.name
    return out


def documents(tmp: Path) -> list[Path]:
    """Every config, and each document of DOCUMENTS and CASES written to tmp."""
    paths = sorted((REPO / "configs").glob("*.json"))
    docs = [*DOCUMENTS.values(),
            *({"construction": c, "parameters": p} for c, p, _, _ in CASES.values())]
    for i, doc in enumerate(docs):
        paths.append(tmp / f"doc{i}.json")
        paths[-1].write_text(json.dumps(doc))
    return paths


def run_cli(paths: list[Path], tmp: Path) -> None:
    def cli(*args) -> tuple[int, str]:
        with contextlib.redirect_stdout(io.StringIO()) as text, \
                contextlib.redirect_stderr(io.StringIO()):
            return main([*args]), text.getvalue()

    out = str(tmp / "out")
    for path in map(str, paths):
        status, text = cli("build", path, "--skip-verify")
        cli("verify", path)
        cli("render", path, "-o", out)
        for curve in json.loads(text)["scene"]["curves"] if status == 0 else []:
            assert cli("sample", path, "--curve", curve, "-n", "16", "-o", out)[0] == 0


def reached(run, defs: dict) -> tuple[set[str], set[str]]:
    """(the defs called, module.Class of every poncelet class instantiated)
    while run() runs."""
    calls, made = set(), set()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        name = defs.get((code.co_filename, code.co_firstlineno))
        if name:
            calls.add(name)
        elif code.co_name == "__init__" and "self" in frame.f_locals:   # a generated __init__
            cls = type(frame.f_locals["self"])
            if cls.__module__.startswith("poncelet."):
                made.add(f"{cls.__module__.split('.', 1)[1]}.{cls.__qualname__}")

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls, made


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reach")
    defs = definitions()
    paths = documents(tmp)
    return set(defs.values()), *reached(lambda: run_cli(paths, tmp), defs)


def test_every_definition_is_reached_or_kept(corpus):
    defs, calls, _ = corpus
    assert sorted(defs - calls - set(KEPT)) == []


def test_every_kept_entry_is_defined_and_unreached(corpus):
    defs, calls, _ = corpus
    assert sorted(set(KEPT) - defs) == []
    assert sorted(set(KEPT) & calls) == []


def test_every_public_name_is_reached_or_kept(corpus):
    _, calls, made = corpus
    owners = {name.rsplit(".", 1)[0] for name in calls | set(KEPT)}
    used = calls | made | owners | set(KEPT)
    qualified = {name: f"{getattr(poncelet, name).__module__.split('.', 1)[1]}.{name}"
                 for name in poncelet.__all__}
    assert sorted(n for n, q in qualified.items() if q not in used) == []
