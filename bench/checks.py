"""Checks of each CLI report against the repo's own tolerances.

`check(op, report)` returns a `Verdict`: whether the report passed and the
checked quantities as (name, observed, tolerance) triples.  Every tolerance
is the one the repo's tests pin for the same quantity; the source is named
beside each constant.  Output files are read back here, outside the timed
region.

A quantity listed in MARGIN_ONLY is recorded for `tol_margin_digits` but
never fails an op: the `reconstruct` finite-difference self-check
(`momentum_dev_max`, `curvature_dev_max`) measures the discretisation error
of its 3- and 5-point stencils at the requested step, which reaches ~1e-4 at
the default step on high-curvature type-I/III profiles.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

TOL = {
    # tests/test_acceptance.py::draw_region pairs, test_01 roundtrips
    "mu_c_rel": 1e-12,
    # test_acceptance battery 9: recovered mu and c within 1e-6 * max(1, |x|)
    "classify_rel": 1e-6,
    # tests/test_cli.py::TestConic::test_horizontal_type_i, acceptance 6
    "locus_residual": 1e-9,
    "canonical_residual": 1e-10,
    # tests/test_cli.py::TestProjectCommand and acceptance 8
    "spiric_coeff": 1e-12,
    "spiric_residual": 1e-9,
    "cyclide_coeff": 1e-9,
    "cyclide_residual": 1e-8,
    # inverse maps (mu, c) -> A^2, B^2, C^2, D^2: test_acceptance test_01
    "square": 1e-12,
    # tests/test_momentum.py::TestFeasibleIntervals::test_quartic_roots_oracle
    "turning_point": 1e-11,
    # tests/test_cli.py::TestVerifyCommand (cubic, sextic); the CLI's default
    # pass tolerance for the two exact identities km = 0 and km = kp
    "cubic": 1e-12,
    "sextic": 1e-10,
    "km=0": 1e-10,
    "km=kp": 1e-10,
    # sphere.UNIT_TOL, the unit-norm invariant of every sampled point
    "unit_norm": 1e-12,
    # tests/test_cli.py::TestReconstruct::test_constant and
    # tests/test_momentum.py::TestValidateReconstruction
    "fd_dev": 1e-5,
    "fd_dev_quadric": 5e-5,
}

MARGIN_ONLY = {"reconstruct.fd_dev"}

# failures the seed commit is known to produce on valid inputs; anything
# else that fails makes the run incorrect
KNOWN_DEFECTS = {
    "narrow_band": re.compile(r"K\(z\)\^2 \+ z\^2 < 1 holds nowhere"),
    "chord_speed": re.compile(r"chord speed outside"),
    "classifier_samples": re.compile(r"fewer than 8 usable curvature samples"),
}


@dataclass
class Verdict:
    ok: bool = True
    reasons: list = field(default_factory=list)
    quantities: list = field(default_factory=list)

    def measure(self, name: str, observed: float, tol: float) -> None:
        observed = float(abs(observed))
        if not math.isfinite(observed):
            self.fail(f"{name} is {observed}")
            return
        self.quantities.append((name, observed, tol))
        if name not in MARGIN_ONLY and not observed <= tol:
            self.fail(f"{name} = {observed:.3e} exceeds {tol:.0e}")

    def rel(self, name: str, got, want: float, tol: float) -> None:
        if got is None:
            self.fail(f"{name} missing")
            return
        self.measure(name, (got - want) / max(1.0, abs(want)), tol)

    def equal(self, name: str, got, want) -> None:
        if got != want:
            self.fail(f"{name} = {got!r}, expected {want!r}")

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reasons.append(reason)


def known_defect(op, stderr: str = "", report: dict | None = None) -> str | None:
    """Tag of the documented seed defect a failed op reproduces, if any.

    `stderr` is that of an op that exited non-zero; `report` that of an op
    whose report failed its check.
    """
    if report is not None:
        # the stencil curvatures of high-curvature quadrics miss km = mu kp^3
        # by more than the classifier's fit tolerance
        if op.command == "classify" and op.expect.get("family") == "quadric" \
                and report.get("case") == "NotCubic":
            return "classifier_fit"
        return None
    if KNOWN_DEFECTS["narrow_band"].search(stderr):
        return "narrow_band" if op.kind.endswith("boundary") else None
    if KNOWN_DEFECTS["chord_speed"].search(stderr):
        # SampledCurve is built by reconstruct and by conic --csv
        return "chord_speed" if op.command == "reconstruct" or "--csv" in op.argv else None
    if KNOWN_DEFECTS["classifier_samples"].search(stderr):
        # a type-III band narrower than |z| = 0.05 leaves too few samples
        return "classifier_samples" if op.command == "classify" else None
    return None


# ---------------------------------------------------------------------------
# file read-back
# ---------------------------------------------------------------------------


def read_obj(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and triangles of an OBJ file that holds only `v` and `f` records."""
    with open(path, "rb") as fh:
        data = fh.read()
    rec = np.array(data.split()).reshape(-1, 4) if data else np.empty((0, 4), "S1")
    if len(rec) != data.count(b"\n"):
        raise ValueError("OBJ records are not one per line of four fields")
    is_v, is_f = rec[:, 0] == b"v", rec[:, 0] == b"f"
    if not np.all(is_v | is_f):
        raise ValueError("OBJ has records other than v and f")
    return rec[is_v, 1:].astype(float), rec[is_f, 1:].astype(np.int64)


def read_csv(path: str) -> tuple[list, np.ndarray, bool]:
    """Header, the s, x, y, z columns, and whether the two invariant columns
    are empty on every row (the columns are read only then)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = fh.read()
    rows = body.count("\n")
    if body.count(",,\n") != rows or body.count(",") != 5 * rows:
        return header, np.empty((0, 4)), False
    cols = np.array(body.replace(",,\n", " ").replace(",", " ").split(), dtype=float)
    return header, cols.reshape(rows, 4), True


def _check_curve_csv(v: Verdict, path: str, step: float, samples: int | None):
    header, cols, empty = read_csv(path)
    v.equal("csv.header", header, ["s", "x", "y", "z", "kappa", "momentum"])
    v.equal("csv.invariant_columns_empty", empty, True)
    if samples is not None:
        v.equal("csv.rows", len(cols), samples)
    if len(cols) < 3:
        v.fail("csv has fewer than 3 rows")
        return
    s, pts = cols[:, 0], cols[:, 1:4]
    v.measure("csv.unit_norm", np.max(np.abs(np.sum(pts * pts, axis=1) - 1.0)),
              TOL["unit_norm"])
    # both writers sample s = arange(n) * step, and CSV floats round-trip
    v.equal("csv.arc_step", bool(np.array_equal(s, np.arange(len(s)) * step)), True)


def _cyclide_residual(co: dict, pts: np.ndarray) -> float:
    x2, z2 = pts[:, 0] ** 2, pts[:, 2] ** 2
    r2 = np.sum(pts * pts, axis=1)
    raw = co["lam"] * r2 * r2 + co["L"] * r2 + co["q0"] + co["qx2"] * x2 + co["qz2"] * z2
    return float(np.max(np.abs(raw / (1.0 + r2) ** 2)))


def _check_obj(v: Verdict, path: str, co: dict, vertices: int | None):
    verts, faces = read_obj(path)
    if vertices is not None:
        v.equal("obj.vertices", len(verts), vertices)
    if len(verts) == 0 or len(faces) == 0:
        v.fail("empty OBJ mesh")
        return
    if faces.min() < 1 or faces.max() > len(verts):
        v.fail("OBJ face index out of range")
    v.measure("obj.cyclide_residual", _cyclide_residual(co, verts), TOL["cyclide_residual"])


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _intervals(v: Verdict, got, want):
    if got is None or len(got) != len(want):
        v.fail(f"intervals {got!r}, expected {len(want)} band(s)")
        return
    worst = max(abs(g - w) for gi, wi in zip(got, want) for g, w in zip(gi, wi))
    v.measure("reconstruct.turning_point", worst, TOL["turning_point"])


def check_classify(v, op, rep):
    e = op.expect
    v.equal("classify.case", rep.get("case"), e["case"])
    if e["case"] == "SphericalMoon":
        v.rel("classify.theta", rep.get("theta"), e["theta"], TOL["classify_rel"])
    elif "mu" in e:
        v.rel("classify.mu", rep.get("mu"), e["mu"], TOL["classify_rel"])
        v.rel("classify.c", rep.get("c"), e["c"], TOL["classify_rel"])


def check_reconstruct(v, op, rep):
    e = op.expect
    _intervals(v, rep.get("intervals"), e["intervals"])
    curves = rep.get("curves") or []
    if len(curves) != len(e["intervals"]):
        v.fail(f"{len(curves)} curves for {len(e['intervals'])} bands")
    tol = TOL["fd_dev"] if e["family"] in ("constant", "linear") else TOL["fd_dev_quadric"]
    paths = op.files.get("csv", [])
    for i, cv in enumerate(curves):
        v.measure("reconstruct.fd_dev", max(cv["momentum_dev_max"], cv["curvature_dev_max"]), tol)
        if paths:
            _check_curve_csv(v, paths[i], e["step"], cv["samples"])


def check_verify(v, op, rep):
    relation = op.expect["relation"]
    v.equal("verify.relation", rep.get("relation"), relation)
    v.equal("verify.passed", rep.get("passed"), True)
    v.measure(f"verify.{relation}", rep.get("residual_max", math.inf), TOL[relation])


def check_conic(v, op, rep):
    e = op.expect
    v.equal("conic.class", rep.get("class"), e["class"])
    if e["mu_c"] is None:
        v.equal("conic.degenerate_fields", [rep.get(k) for k in ("d", "e", "mu", "c")], [None] * 4)
        return
    mu, c = e["mu_c"]
    v.measure("conic.mu", (rep["mu"] - mu) / abs(mu), TOL["mu_c_rel"])
    v.measure("conic.c", (rep["c"] - c) / abs(c), TOL["mu_c_rel"])
    v.measure("conic.locus_residual", rep.get("locus_residual_max", math.inf),
              TOL["locus_residual"])
    v.measure("conic.canonical_residual", rep.get("canonical_residual_max", math.inf),
              TOL["canonical_residual"])
    for path in op.files.get("csv", []):
        _check_curve_csv(v, path, e["step"], None)


def check_quadric(v, op, rep):
    e = op.expect
    v.equal("quadric.family", rep.get("family"), e["family"])
    for key, want in e["squares"].items():
        v.rel(f"quadric.{key}", rep.get(key), want, TOL["square"])
    for path in op.files.get("obj", []):
        _check_obj(v, path, e["cyclide"], rep.get("vertices"))


def check_project(v, op, rep):
    e = op.expect
    if "cyclide" not in e:
        v.rel("project.spiric_a", rep.get("a"), e["a"], TOL["spiric_coeff"])
        v.rel("project.spiric_b", rep.get("b"), e["b"], TOL["spiric_coeff"])
        v.measure("project.spiric_residual", rep.get("residual_max", math.inf),
                  TOL["spiric_residual"])
        return
    v.equal("project.family", rep.get("family"), e["family"])
    for key, want in e["cyclide"].items():
        v.rel(f"project.{key}", rep.get(key), want, TOL["cyclide_coeff"])
    v.measure("project.cyclide_residual", rep.get("residual_max", math.inf),
              TOL["cyclide_residual"])
    for path in op.files.get("obj", []):
        _check_obj(v, path, e["cyclide"], None)


CHECKS = {
    "classify": check_classify,
    "reconstruct": check_reconstruct,
    "verify": check_verify,
    "conic": check_conic,
    "quadric": check_quadric,
    "project": check_project,
}


def check(op, report: dict) -> Verdict:
    v = Verdict()
    v.equal("command", report.get("command"), op.command)
    try:
        CHECKS[op.command](v, op, report)
    except (KeyError, TypeError, ValueError, OSError, IndexError) as exc:
        v.fail(f"malformed report or output file: {exc!r}")
    return v
