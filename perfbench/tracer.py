"""Span tracer and the wrappers that install it around the library's layers.

The wrappers are installed from outside the library: each one replaces a
name where its callers look it up (a module global or a class attribute),
records a span around the call and restores the original on exit. Self
time comes from a span stack: a span's duration minus the time its child
spans cover. Coarse spans are kept whole and written out at the end; the
hot leaf calls keep only count, point and self-time aggregates.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from contextlib import contextmanager
from typing import Callable

import numpy as np

# Spans kept whole (name, start, end, parent); every other name is aggregated only.
COARSE = frozenset({"op", "scene.build", "scene.verify", "scene.render",
                    "verify.oracle_step", "verify.side_contacts"})


class Tracer:
    """Span stack with per-name aggregates: calls, points, self and total time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []      # [name, start, child_time, span_id]
        self._next_id = 0
        self.aggregates: dict[str, dict[str, float]] = {}
        self.spans: list[tuple[int, int | None, str, float, float]] = []

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, self.clock(), 0.0, self._next_id])

    def end(self, points: int = 0, **counters: float) -> None:
        name, start, child, span_id = self._stack.pop()
        stop = self.clock()
        duration = stop - start
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = {"calls": 0, "points": 0, "self_s": 0.0,
                                           "total_s": 0.0}
        agg["calls"] += 1
        agg["points"] += points
        agg["self_s"] += duration - child
        agg["total_s"] += duration
        for key, value in counters.items():
            agg[key] = agg.get(key, 0) + value
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if name in COARSE:
            self.spans.append((span_id, parent[3] if parent else None, name, start, stop))

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def take_aggregates(self) -> dict[str, dict[str, float]]:
        """Aggregates so far, clearing them; the kept spans stay."""
        if self._stack:
            raise RuntimeError("aggregates taken inside an open span")
        taken, self.aggregates = self.aggregates, {}
        return taken


def _points_arg(index: int):
    return lambda args, kwargs, result: {"points": int(np.size(args[index]))}


def _len_result(key: str):
    return lambda args, kwargs, result: {key: len(result)}


def _recovered(args, kwargs, result):
    return {"recovered": 1 if result else 0}


# layer name -> (module, owner attribute path, counters from (args, kwargs, result)).
# Several entries may share a layer name; they then aggregate together.
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("scene.build", "poncelet.scene", "build_scene", None),
    ("scene.verify", "poncelet.scene", "Scene.verify", None),
    ("equiangular.construct", "poncelet.equiangular", "equiangular_pair", None),
    ("equiangular.construct", "poncelet.equiangular", "equilateral_pair", None),
    ("equiangular.construct", "poncelet.equiangular", "equiangular_clan", None),
    ("envelope.construct", "poncelet.scene", "envelope_from_vertex", None),
    ("envelope.construct", "poncelet.scene", "clan_from_vertex", None),
    ("vertex.construct", "poncelet.scene", "vertex_from_envelope", None),
    ("vertex.construct", "poncelet.scene", "clan_from_envelope", None),
    ("geometry.self_intersects", "poncelet.scene", "polyline_self_intersects", None),
    ("support.eval", "poncelet.support", "SupportFunction.eval", _points_arg(1)),
    ("support.jet_many", "poncelet.support", "PlaneCurve.jet_many", _points_arg(1)),
    ("support.positions", "poncelet.support", "PlaneCurve.positions", _points_arg(1)),
    ("circlemaps.solve_lift", "poncelet.circlemaps", "_solve_lift", _points_arg(2)),
    ("verify.oracle_step", "poncelet.verify", "next_vertex_oracle", None),
    ("verify.tangent_parameters", "poncelet.verify", "tangent_parameters",
     _len_result("roots")),
    ("verify.circle_roots", "poncelet.verify", "_circle_roots", None),
    ("verify.refine_root", "poncelet.verify", "_refine_root", None),
    ("verify.side_contacts", "poncelet.verify", "parametric_side_contacts", _recovered),
    ("verify.side_recover", "poncelet.verify", "side_contact_recover", None),
    ("render.svg", "poncelet.render", "render_svg", _len_result("bytes")),
    ("render.csv", "poncelet.render", "sample_points", _len_result("bytes")),
)


def _wrap(tracer: Tracer, name: str, fn: Callable, counters: Callable | None,
          errors: tuple[type[BaseException], ...]) -> Callable:
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except errors:
            tracer.end(errors=1)
            raise
        except BaseException:
            tracer.end()
            raise
        tracer.end(**(counters(args, kwargs, result) if counters else {}))
        return result

    traced.__wrapped__ = fn
    return traced


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path below a module, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    if isinstance(owner, type):
        # patch the class that defines the method, so restoring is exact
        owner = next(k for k in owner.__mro__ if attr in k.__dict__)
    return owner, attr


@contextmanager
def installed(tracer: Tracer, layers=LAYERS):
    """Install a traced wrapper for each layer entry point that exists.

    Yields the sorted names of absent entry points (for example a solver a
    later version removed); their layers then report zero calls.
    """
    try:
        oracle_error = importlib.import_module("poncelet.verify").OracleError
        errors = (oracle_error,)
    except (ImportError, AttributeError):
        errors = ()
    restore = []
    absent = []
    try:
        for name, module_name, path, counters in layers:
            found = _resolve(module_name, path)
            if found is None:
                absent.append(f"{module_name}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            setattr(owner, attr, _wrap(tracer, name, original, counters, errors))
            restore.append((owner, attr, original))
        yield sorted(absent)
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def trace_polygon(tracer: Tracer, scene) -> bool:
    """Wrap the scene configuration's polygon assembler in a `scene.polygon`
    span. It is a per-configuration callable, so it is wrapped per scene.
    Returns False when the configuration has no such field."""
    cfg = scene.configuration
    if not dataclasses.is_dataclass(cfg) or "polygon" not in {
            f.name for f in dataclasses.fields(cfg)}:
        return False
    scene.configuration = dataclasses.replace(
        cfg, polygon=_wrap(tracer, "scene.polygon", cfg.polygon, None, ()))
    return True
