"""Random edits of the checked-in configs never end in a traceback.

Each example takes one config from configs/ and either replaces one field at
any depth (a list element included) with a random JSON value or adds an
unknown key to one of its objects. `poncelet build --skip-verify` on the
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

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
DOCS = {path.stem: json.loads(path.read_text()) for path in CONFIGS}

scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**12, 10**12),
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
    if draw(st.booleans()):
        container, key = draw(st.sampled_from(fields))
        container[key] = draw(values)
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
