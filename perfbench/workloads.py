"""Seeded scene documents for the three benchmark workloads.

Each workload is a fixed list of cases: some checked-in configs and some
documents drawn from a seed. The seed changes only parameter values, never
a case's construction, step counts or probe count, so every seed asks for
about the same amount of work. Parameter ranges are those the test suite
already uses (acceptance criterion 6, the Fourier lifts in test_envelope.py
and test_vertex.py, the checked-in configs) so every draw verifies.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

TWO_PI = 2.0 * math.pi
MAX_DRAWS = 20


@dataclass(frozen=True)
class Case:
    """One scene taken through build, verify and render.

    `mode` is the verifier mode the scene must land in; `envelopes` is
    "support" when every envelope has a support function and "implicit"
    when none has.
    """

    label: str
    doc: dict
    mode: str
    envelopes: str


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    controls: tuple[str, ...]    # labels of cases that also get negative controls
    rejected: int                # seeded drafts the schema refused before a draw passed


def _u(rng: random.Random, lo: float, hi: float) -> float:
    # 6 significant digits keep the documents short and exactly reproducible
    return float(f"{rng.uniform(lo, hi):.6g}")


def _support(a: float, terms, k: int = 1) -> dict:
    return {"a": a, "k": k, "terms": [
        {"l_num": l_num, "l_den": l_den, "cos": c, "sin": s}
        for (l_num, l_den), c, s in terms]}


def _doc(construction: str, parameters: dict, probes: int, samples: int,
         starts=(0.3,), expect_interior: bool = True) -> dict:
    return {
        "construction": construction,
        "parameters": parameters,
        "render": {"samples": samples, "margin": 0.05, "polygon_starts": list(starts)},
        "verify": {"probes": probes, "tol": None, "expect_interior": expect_interior},
    }


def _convex_support(rng: random.Random) -> dict:
    """p = 1 + c2 cos 2phi + c3 cos 3phi, the acceptance criterion 6 family."""
    return _support(1.0, [((2, 1), _u(rng, -0.08, 0.08), 0.0),
                          ((3, 1), _u(rng, -0.05, 0.05), 0.0)])


# --- seeded drafts, one function per case kind -------------------------------

def _equiangular_pair(rng, angle, probes, samples):
    return _doc("equiangular-pair", {"support": _convex_support(rng),
                                     "angle": {"num": angle[0], "den": angle[1]},
                                     "branch": 0}, probes, samples)


def _equilateral(rng, k, l, a_range, probes, samples, starts=(0.3,)):
    return _doc("equilateral", {"k": k, "l": {"num": l[0], "den": l[1]},
                                "a": _u(rng, *a_range)}, probes, samples, starts)


def _conjugated_envelope(rng, probes, samples):
    step = {"m": 1, "n": 4, "h": {"c": _u(rng, 0.0, TWO_PI), "terms": [
        {"j": 1, "sin": _u(rng, -0.06, 0.06), "cos": _u(rng, -0.06, 0.06)}]}}
    return _doc("envelope-from-vertex", {"support": _convex_support(rng), "step": step},
                probes, samples)


def _vertex_clan(rng, probes, samples):
    support = _support(1.0, [((2, 1), _u(rng, 0.02, 0.06), 0.0)])
    steps = [{"c": TWO_PI / 3, "terms": [{"j": 1, "sin": _u(rng, 0.02, 0.04), "cos": 0.0}]},
             {"c": TWO_PI / 3, "terms": [{"j": 2, "sin": 0.0, "cos": _u(rng, 0.01, 0.03)}]}]
    return _doc("clan-from-vertex", {"support": support, "steps": steps}, probes, samples,
                starts=(0.9,))


def _equiangular_clan(rng, probes, samples):
    support = _support(1.0, [((1, 2), _u(rng, 0.3, 0.42), 0.0),
                             ((3, 2), _u(rng, 0.08, 0.14), 0.0)], k=2)
    angles = [{"num": 5, "den": 6}, {"num": 5, "den": 12}, {"num": 3, "den": 4}]
    return _doc("equiangular-clan", {"support": support, "angles": angles,
                                     "branches": [0, 0, 0]}, probes, samples, starts=(0.4,))


def _envelope_clan(rng, probes, samples):
    steps = [{"c": _u(rng, 1.9, 2.1), "terms": [{"j": 1, "sin": _u(rng, 0.03, 0.07),
                                                  "cos": 0.0}]},
             {"c": _u(rng, 2.3, 2.5), "terms": [{"j": 2, "sin": 0.0,
                                                  "cos": _u(rng, 0.02, 0.06)}]}]
    return _doc("clan-from-envelope", {"support": _support(2.0, []), "steps": steps},
                probes, samples, starts=(0.8,))


# --- workloads ---------------------------------------------------------------

ORACLE_PROBES = 24
SEQUENCE_PROBES = 8
RENDER_PROBES = 8
RENDER_SAMPLES = 16384


def _config(config_dir: Path, name: str, probes: int, samples: int | None = None) -> dict:
    with open(config_dir / f"{name}.json") as fh:
        doc = json.load(fh)
    doc["verify"]["probes"] = probes
    if samples is not None:
        doc["render"]["samples"] = samples
    return doc


def _draw(rng: random.Random, draft, accept) -> tuple[dict, int]:
    """First draft the schema accepts, with the number refused before it."""
    for refused in range(MAX_DRAWS):
        doc = draft(rng)
        if accept(doc):
            return doc, refused
    raise RuntimeError(f"no accepted draft in {MAX_DRAWS} draws")


def build_workload(name: str, seed: int, config_dir: Path, accept) -> Workload:
    """Cases of one workload for one seed. `accept(doc)` is the schema check
    (the library's parse_config); refused drafts are redrawn and counted."""
    rng = random.Random(f"{name}:{seed}")
    fixed: list[Case] = []
    drafts: list[tuple[str, object, str, str]] = []
    controls: tuple[str, ...] = ()
    if name == "oracle-convex":
        P, S = ORACLE_PROBES, 1024
        for cfg in ("equiangular_triangle", "equiangular_hexagon", "wankel",
                    "wankel_three_chamber"):
            fixed.append(Case(cfg, _config(config_dir, cfg, P), "oracle", "support"))
        drafts = [
            ("seed-equiangular-triangle",
             lambda r: _equiangular_pair(r, (2, 3), P, S), "oracle", "support"),
            ("seed-equiangular-square",
             lambda r: _equiangular_pair(r, (1, 2), P, S), "oracle", "support"),
            ("seed-equilateral-l2",
             lambda r: _equilateral(r, 1, (2, 1), (3.5, 6.0), P, S), "oracle", "support"),
            ("seed-equilateral-l3",
             lambda r: _equilateral(r, 1, (3, 1), (8.5, 12.0), P, S), "oracle", "support"),
        ]
        controls = ("seed-equilateral-l2",)
    elif name == "sequence-implicit":
        P, S = SEQUENCE_PROBES, 1024
        fixed.append(Case("iterated_square", _config(config_dir, "iterated_square", P),
                          "sequence", "implicit"))
        drafts = [
            ("seed-conjugated-envelope",
             lambda r: _conjugated_envelope(r, P, S), "sequence", "implicit"),
            ("seed-vertex-clan", lambda r: _vertex_clan(r, P, S), "sequence", "implicit"),
        ]
        controls = ("seed-vertex-clan",)
    elif name == "render-closed-form":
        P, S = RENDER_PROBES, RENDER_SAMPLES
        for cfg in ("equilateral_a85", "pentagram", "clan"):
            fixed.append(Case(cfg, _config(config_dir, cfg, P, S), "sequence", "support"))
        drafts = [
            ("seed-equiangular-clan",
             lambda r: _equiangular_clan(r, P, S), "sequence", "support"),
            ("seed-envelope-clan", lambda r: _envelope_clan(r, P, S), "sequence", "support"),
            ("seed-multisheet-equilateral",
             lambda r: _equilateral(r, 4, (2, 3), (0.8, 0.92), P, S, starts=(2.37,)),
             "sequence", "support"),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")

    cases = list(fixed)
    rejected = 0
    for label, draft, mode, envelopes in drafts:
        doc, refused = _draw(rng, draft, accept)
        rejected += refused
        cases.append(Case(label, doc, mode, envelopes))
    return Workload(name, tuple(cases), controls, rejected)


WORKLOADS = ("oracle-convex", "sequence-implicit", "render-closed-form")
