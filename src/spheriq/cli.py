"""Command-line interface orchestrating the library.

Commands: conic, reconstruct, quadric, classify, verify, project.  Reports
are JSON (stdout with --json, files otherwise); curves go to CSV and meshes
to OBJ.  Exit codes: 0 success, 2 input validation, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .conics import (
    CylinderConic,
    canonical_form,
    classify,
    conic_report,
    focal_params,
    canonical_residual,
    locus_residual,
    sample_loop,
    NONDEGENERATE,
)
from .errors import (
    BadParameter,
    IllConditioned,
    IOFailure,
    QuadratureFailure,
    SpheriqError,
)
from .momentum import (
    ConstantMomentum,
    LinearMomentum,
    QuadricMomentum,
    ReconstructionMap,
    SpheroCylindricalMomentum,
    band_latitudes,
    feasible_intervals,
    reconstruct,
    validate_reconstruction,
)
from .projection import (
    cyclide_coeffs,
    cyclide_residual,
    mesh_from_surface,
    spiric_coeffs,
    spiric_residual,
    stereographic,
    write_obj,
)
from .sphere import cartesian_to_geo, resample_by_arclength, write_curve_csv
from .surfaces import (
    RotationalSurface,
    SurfaceFamily,
    chart_profile,
    make_fake_paraboloid,
    make_quadric_surface,
    quadric_spec_to_json,
)
from .weingarten import (
    classify_rotational_surface,
    identity_residual,
    solve_report,
)

NUMERIC_ERRORS = (QuadratureFailure, IllConditioned, IOFailure)


def _seed() -> int:
    raw = os.environ.get("SPHERIQ_SEED", "20240809")
    if not raw.strip().isdecimal():
        raise BadParameter(f"SPHERIQ_SEED must be a non-negative integer, got {raw!r}")
    return int(raw)


_SCALAR_JSON = json.JSONEncoder(sort_keys=True).encode


def _json_text(obj, indent: str = "") -> str:
    """json.dumps(obj, sort_keys=True, indent=2), numpy scalars written as
    Python numbers.  json's indenting encoder is pure Python and leaves its
    nested closures in reference cycles after every call, garbage that waits
    for a full collection in long runs; this recursion leaves none, and
    json's C encoder writes each key and scalar."""
    if isinstance(obj, dict) and obj:
        inner = indent + "  "
        items = [
            f"{inner}{_SCALAR_JSON(k if isinstance(k, str) else _SCALAR_JSON(k))}: "
            + _json_text(v, inner)
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        inner = indent + "  "
        items = [inner + _json_text(v, inner) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return _SCALAR_JSON(obj)


def _emit(report: dict, args) -> None:
    text = _json_text(report)
    if args.json:
        print(text)
        return
    out = Path(args.out_dir) / f"{report['command']}_report.json"
    try:
        out.write_text(text + "\n")
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
    print(out)


def _config_echo(args) -> dict:
    skip = {"func", "json", "out_dir"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _base_report(command: str, args) -> dict:
    return {
        "tool": "spheriq",
        "version": __version__,
        "command": command,
        "config": _config_echo(args),
    }


def _profile_from_args(args):
    if getattr(args, "quadric", None) is not None:
        mu, c = args.quadric
        return QuadricMomentum(mu, c)
    if getattr(args, "constant", None) is not None:
        return ConstantMomentum(args.constant)
    if getattr(args, "linear", None) is not None:
        return LinearMomentum(args.linear)
    if getattr(args, "fake_paraboloid", None) is not None:
        return SpheroCylindricalMomentum(args.fake_paraboloid)
    raise SpheriqError("no profile flag given")


def _conic_from_args(args) -> CylinderConic:
    if args.horizontal is not None:
        return CylinderConic.horizontal(*args.horizontal)
    if args.vertical is not None:
        return CylinderConic.vertical(*args.vertical)
    raise SpheriqError("need --horizontal C D or --vertical A B")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_conic(args) -> dict:
    conic = _conic_from_args(args)
    report = _base_report("conic", args)
    report.update(conic_report(conic))
    cls = classify(conic)
    if cls in NONDEGENERATE:
        pts = sample_loop(canonical_form(conic), n=4000)
        f = focal_params(conic)
        report["locus_residual_max"] = float(np.max(np.abs(locus_residual(pts, f))))
        report["canonical_residual_max"] = float(
            np.max(np.abs(canonical_residual(cartesian_to_geo(pts), f)))
        )
        if args.csv:
            write_curve_csv(resample_by_arclength(pts, args.step), args.csv)
            report["csv"] = args.csv
    return report


def cmd_reconstruct(args) -> dict:
    profile = _profile_from_args(args)
    intervals = feasible_intervals(profile)
    report = _base_report("reconstruct", args)
    report["intervals"] = [[iv.z_lo, iv.z_hi] for iv in intervals]
    curves = []
    for i, iv in enumerate(intervals):
        curve = reconstruct(profile, iv, step=args.step, branches=2)
        check = validate_reconstruction(curve, profile)
        entry = {
            "interval": [iv.z_lo, iv.z_hi],
            "samples": len(curve),
            "momentum_dev_max": check.momentum_dev_max,
            "curvature_dev_max": check.curvature_dev_max,
        }
        if args.csv:
            stem = Path(args.csv)
            path = stem if len(intervals) == 1 else stem.with_name(
                f"{stem.stem}_{i}{stem.suffix}"
            )
            write_curve_csv(curve, path)
            entry["csv"] = str(path)
        curves.append(entry)
    report["curves"] = curves
    return report


def cmd_quadric(args) -> dict:
    surface = make_quadric_surface(QuadricMomentum(*args.quadric))
    report = _base_report("quadric", args)
    report.update(quadric_spec_to_json(surface.quadric))
    if args.obj:
        mesh = mesh_from_surface(surface, ns=96, nt=96, project=True)
        write_obj(mesh, args.obj)
        report["obj"] = args.obj
        report["vertices"] = len(mesh.vertices)
    return report


def cmd_classify(args) -> dict:
    report = _base_report("classify", args)
    if args.fake_paraboloid is not None:
        surface = make_fake_paraboloid(args.fake_paraboloid)
    else:
        profile = _profile_from_args(args)
        if isinstance(profile, QuadricMomentum) and profile.moduli.region in NONDEGENERATE:
            surface = make_quadric_surface(profile)
        else:
            # a pair on a degenerate line has no quadric record: classify its profile's chart
            iv = feasible_intervals(profile)[0]
            surface = RotationalSurface(
                family=SurfaceFamily.GENERIC,
                profile=chart_profile(ReconstructionMap(profile, iv)),
                momentum_profile=profile,
            )
    report.update(solve_report(classify_rotational_surface(surface)))
    return report


def cmd_verify(args) -> dict:
    report = _base_report("verify", args)
    report["seed"] = seed = _seed()
    profile = _profile_from_args(args)
    z = band_latitudes(profile, args.samples, np.random.default_rng(seed))
    report["relation"], report["residual_max"] = identity_residual(profile, z)
    report["tol"] = args.tol
    report["passed"] = bool(report["residual_max"] < args.tol)
    return report


def cmd_project(args) -> dict:
    report = _base_report("project", args)
    if args.quadric is not None:
        surface = make_quadric_surface(QuadricMomentum(*args.quadric))
        spec = surface.quadric
        coeffs = cyclide_coeffs(spec)
        mesh = mesh_from_surface(surface, ns=96, nt=96, project=True)
        report.update(
            family=spec.family.value,
            lam=coeffs.lam,
            L=coeffs.L,
            q0=coeffs.q0,
            qx2=coeffs.qx2,
            qz2=coeffs.qz2,
            residual_max=float(np.max(np.abs(cyclide_residual(coeffs, mesh.vertices)))),
        )
        if args.obj:
            write_obj(mesh, args.obj)
            report["obj"] = args.obj
    elif args.horizontal is not None:
        conic = CylinderConic.horizontal(*args.horizontal)
        coeffs = spiric_coeffs(conic)
        pts = sample_loop(conic, n=4000)
        uv = stereographic(pts)
        report.update(
            a=coeffs.a,
            b=coeffs.b,
            residual_max=float(np.max(np.abs(spiric_residual(coeffs, uv)))),
        )
    else:
        raise SpheriqError("need --quadric MU C or --horizontal C D")
    return report


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token float() accepts as a value.

    argparse alone takes a token for a negative number only in the forms
    -12 and -1.5, so -1e-05, the form repr gives small floats, would be
    read as an unknown option.  No option of this CLI looks like a number.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_common(sub, *, step=False, tol=False, csv=False, obj=False):
    sub.add_argument("--json", action="store_true", help="print the report to stdout")
    sub.add_argument("--out-dir", default=".", help="directory for report files")
    if step:
        sub.add_argument("--step", type=_finite_float, default=1e-3, help="arc-length step")
    if tol:
        sub.add_argument("--tol", type=_finite_float, default=1e-10, help="pass tolerance")
    if csv:
        sub.add_argument("--csv", help="CSV output path for curves")
    if obj:
        sub.add_argument("--obj", help="OBJ output path for meshes")


def _add_conic_flags(sub):
    sub.add_argument("--horizontal", nargs=2, type=_finite_float, metavar=("C", "D"))
    sub.add_argument("--vertical", nargs=2, type=_finite_float, metavar=("A", "B"))


def _add_profile_flags(sub):
    # one profile per command: a second profile flag exits 2
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--quadric", nargs=2, type=_finite_float, metavar=("MU", "C"))
    group.add_argument("--constant", type=_finite_float, metavar="K")
    group.add_argument("--linear", type=_finite_float, metavar="K0")
    group.add_argument("--fake-paraboloid", type=_finite_float, metavar="A")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spheriq",
        description="spherical conics and rotational quadric surfaces in the 3-sphere",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("conic", help="classify a cylinder conic and sample it")
    _add_conic_flags(p)
    _add_common(p, step=True, csv=True)
    p.set_defaults(func=cmd_conic)

    p = subs.add_parser("reconstruct", help="rebuild a curve from its momentum")
    _add_profile_flags(p)
    _add_common(p, step=True, csv=True)
    p.set_defaults(func=cmd_reconstruct)

    p = subs.add_parser("quadric", help="build a quadric surface record and mesh")
    p.add_argument("--quadric", nargs=2, type=_finite_float, metavar=("MU", "C"), required=True)
    _add_common(p, obj=True)
    p.set_defaults(func=cmd_quadric)

    p = subs.add_parser("classify", help="run the cubic-relation classifier")
    _add_profile_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("verify", help="sweep a Weingarten identity residual")
    _add_profile_flags(p)
    p.add_argument("--samples", type=_positive_int, default=1000)
    _add_common(p, tol=True)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("project", help="stereographic image and quartic residuals")
    p.add_argument("--quadric", nargs=2, type=_finite_float, metavar=("MU", "C"))
    p.add_argument("--horizontal", nargs=2, type=_finite_float, metavar=("C", "D"))
    _add_common(p, obj=True)
    p.set_defaults(func=cmd_project)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged, and a new
    # parser per call is ~360 objects in reference cycles that only a full
    # garbage collection frees, which piles up across in-process calls
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _emit(args.func(args), args)
    except NUMERIC_ERRORS as exc:
        print(f"spheriq: numeric failure: {exc}", file=sys.stderr)
        return 3
    except SpheriqError as exc:
        print(f"spheriq: invalid input: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
