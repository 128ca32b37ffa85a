"""Random edits of the checked-in configs never end in a traceback.

Each example takes one config from configs/ and either replaces one field at
any depth (a list element included) with a random JSON value, adds an
unknown key to one of its objects, or repeats the entries of one of its
lists to one more than a list cap (of terms, or of polygon starts).
`poncelet build --skip-verify` on the
result, run in-process, must return 0, 2 (schema error) or 3 (construction
precondition) and raise nothing; `poncelet verify` at 8 probes may also
return 1 (verification failed).
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet.cli import main
from poncelet.scene import MAX_TERMS
from poncelet.verify import MAX_PROBES

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
DOCS = {path.stem: json.loads(path.read_text()) for path in CONFIGS}

# integers past +-2**53 (up to 400 digits) overflow a float conversion
huge_integers = st.builds(lambda sign, x: sign * x, st.sampled_from([1, -1]),
                          st.integers(2**53 + 1, 10**400))
scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**12, 10**12), huge_integers,
                    st.floats(-1e300, 1e300, allow_nan=False), st.text(max_size=6))
values = st.one_of(scalars, st.lists(scalars, max_size=3),
                   st.dictionaries(st.text(max_size=6), scalars, max_size=3))


def _fields(node):
    """(container, key) of every field of a document at any depth, list
    elements included."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield node, key
        yield from _fields(child)


@st.composite
def edited_documents(draw):
    doc = json.loads(json.dumps(DOCS[draw(st.sampled_from(sorted(DOCS)))]))
    fields = list(_fields(doc))
    lists = [(c, k) for c, k in fields if isinstance(c[k], list) and c[k]]
    edit = draw(st.sampled_from(["replace", "lengthen", "add"] if lists else ["replace", "add"]))
    if edit == "replace":
        container, key = draw(st.sampled_from(fields))
        container[key] = draw(values)
    elif edit == "lengthen":
        container, key = draw(st.sampled_from(lists))
        size = draw(st.sampled_from([MAX_TERMS + 1, MAX_PROBES + 1]))
        container[key] = (container[key] * size)[:size]
    else:
        objects = [doc] + [c[k] for c, k in fields if isinstance(c[k], dict)]
        draw(st.sampled_from(objects))["unknown" + draw(st.text(max_size=4))] = draw(values)
    return doc


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=200)
@given(edited_documents())
def test_edited_config_builds_or_exits_with_a_documented_code(path, doc):
    path.write_text(json.dumps(doc))
    assert main(["build", "--skip-verify", str(path)]) in (0, 2, 3)


@pytest.fixture(scope="module")
def eight_probes():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PONCELET_PROBES", "8")
        yield


@settings(max_examples=150, deadline=None)
@given(edited_documents())
def test_edited_config_verifies_or_exits_with_a_documented_code(path, eight_probes, doc):
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) in (0, 1, 2, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_huge_support_term_fails_verification_without_a_warning(path, eight_probes, capsys):
    # an edit the verify fuzz above makes: the polygons' chords and exterior
    # angles overflow to inf or NaN, which fail their checks, so computing
    # them must not warn as well
    doc = json.loads(json.dumps(DOCS["equiangular_hexagon"]))
    doc["parameters"]["support"]["terms"][0]["sin"] = -1.7044454708483944e+227
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["checks"]["closure"] and not report["checks"]["equiangular"]
