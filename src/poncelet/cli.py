"""Command-line interface.

    poncelet build  <config>                 construct + run requested checks
    poncelet verify <config>                 construct + verify, print report
    poncelet render <config> -o out.svg      construct + write the figure
    poncelet sample <config> --curve K -n N -o out.csv

Exit codes: 0 ok, 1 verification failed, 2 schema error or unwritable
output, 3 construction precondition violated. PONCELET_PROBES overrides
the default probe count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .circlemaps import CircleMapError
from .equiangular import ConstructionError
from .geometry import GeometryError
from .render import RenderError, render_svg, sample_points
from .scene import Scene, SchemaError, load_scene, probe_count, sample_count
from .support import SupportError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3

_PRECONDITION_ERRORS = (ConstructionError, CircleMapError, SupportError,
                        GeometryError, RenderError)


def _env_probes() -> int | None:
    raw = os.environ.get("PONCELET_PROBES")
    return None if raw is None else probe_count(raw, "PONCELET_PROBES")


def _scene_summary(scene: Scene) -> dict:
    cfg = scene.configuration
    return {
        "construction": scene.label,
        "mode": cfg.mode,
        "vertex_count": cfg.count,
        "curves": sorted(scene.curve_table()),
        "domain_length": cfg.domain_length,
    }


def cmd_build(args) -> int:
    scene = load_scene(args.config)
    doc = {"scene": _scene_summary(scene)}
    status = EXIT_OK
    if not args.skip_verify:
        report = scene.verify(probes=_env_probes())
        doc["verification"] = report.to_dict()
        if not report.passed:
            status = EXIT_VERIFY
    print(json.dumps(doc, indent=2, default=float))
    return status


def cmd_verify(args) -> int:
    scene = load_scene(args.config)
    report = scene.verify(probes=_env_probes())
    print(json.dumps(report.to_dict(), indent=2, default=float))
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_render(args) -> int:
    scene = load_scene(args.config)
    table = scene.curve_table()
    envs = [(n, c) for n, c in sorted(table.items()) if n.startswith("envelope")]
    verts = [(n, c) for n, c in sorted(table.items()) if n.startswith("vertex")]
    svg = render_svg(envs, verts, scene.polygons(),
                     samples=scene.render_options.samples,
                     margin=scene.render_options.margin)
    _write_output(args.output, svg)
    return EXIT_OK


def cmd_sample(args) -> int:
    count = sample_count(args.count, "--count")
    scene = load_scene(args.config)
    _write_output(args.output, sample_points(scene.curve(args.curve), count))
    return EXIT_OK


def _write_output(path: str, text: str):
    """text to stdout for "-", else to the file; an unwritable path is an
    input error, like an unreadable config."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write output {path}: {exc}") from exc


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poncelet",
        description="Construct, verify and render Poncelet pairs and clans.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a scene and run its checks")
    b.add_argument("config")
    b.add_argument("--skip-verify", action="store_true")
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="construct and verify a scene")
    v.add_argument("config")
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("render", help="render a scene to SVG")
    r.add_argument("config")
    r.add_argument("-o", "--output", default="-")
    r.set_defaults(fn=cmd_render)

    s = sub.add_parser("sample", help="sample a named curve to CSV")
    s.add_argument("config")
    s.add_argument("--curve", required=True)
    s.add_argument("-n", "--count", type=int, required=True)
    s.add_argument("-o", "--output", default="-")
    s.set_defaults(fn=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except _PRECONDITION_ERRORS as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
