"""Self-test of the benchmark's checks: planted wrong reports must count as failed.

    python3 bench/selftest.py

Feeds the op runner fake `main` functions that print chosen reports, so it
needs numpy but not spheriq.  Exits non-zero if any planted fault passes or
any faithful report fails.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads
from worker import run_op, summarise


def first(workload: str, files: dict, kind: str):
    for op in workloads.stream(workload, np.random.default_rng(0), files):
        if op.kind == kind:
            return op
    raise AssertionError("unreachable: streams are endless")


def fake_main(report=None, code=0, stderr="", obj=None):
    def main(argv):
        if obj is not None:
            with open(argv[argv.index("--obj") + 1], "w") as fh:
                fh.writelines(f"v {x!r} {y!r} {z!r}\n" for x, y, z in obj)
                fh.write("f 1 2 3\n")
        if report is not None:
            print(json.dumps(report))
        if stderr:
            print(stderr, file=sys.stderr)
        return code

    return main


def cyclide_points(co: dict, n: int = 8) -> list:
    """Points of the cyclide on the y-axis, where it reads lam y^4 + L y^2 + q0 = 0."""
    r2 = max(r.real for r in np.roots([co["lam"], co["L"], co["q0"]]))
    return [(0.0, math.sqrt(r2), 0.0)] * n


def cases(files: dict) -> list:
    out = []
    op = first("moduli_sweep", files, "classify/I")
    good = {"command": "classify", "case": "QuadricI", "mu": op.expect["mu"], "c": op.expect["c"]}
    out.append(("faithful classify report", op, fake_main(good), "pass"))
    out.append(("classify mu off by 1e-4 relative", op,
                fake_main(dict(good, mu=op.expect["mu"] * (1 + 1e-4))), "fail"))
    out.append(("classify wrong case", op, fake_main(dict(good, case="QuadricIII")), "fail"))
    out.append(("classify NotCubic on a quadric pair", op,
                fake_main(dict(good, case="NotCubic", c=None)), "defect"))
    out.append(("classify short of curvature samples", op,
                fake_main(code=2, stderr="spheriq: invalid input: fewer than 8 usable "
                          "curvature samples"), "defect"))

    op = first("moduli_sweep", files, "verify/II")
    good = {"command": "verify", "relation": "cubic", "passed": True, "residual_max": 1e-15}
    out.append(("faithful verify report", op, fake_main(good), "pass"))
    out.append(("verify residual above 1e-12", op,
                fake_main(dict(good, residual_max=1e-11)), "fail"))

    msg = "spheriq: invalid input: K(z)^2 + z^2 < 1 holds nowhere"
    op = next(op for op, _ in workloads.probe(files) if op.kind == "reconstruct/boundary")
    out.append(("narrow band on a boundary pair", op, fake_main(code=2, stderr=msg), "defect"))
    op = first("moduli_sweep", files, "reconstruct/II")
    out.append(("narrow band on an interior pair", op, fake_main(code=2, stderr=msg), "fail"))
    out.append(("numeric failure", op, fake_main(code=3, stderr="spheriq: numeric failure"),
                "fail"))

    op = first("conic_survey", files, "conic/TypeII")
    mu, c = op.expect["mu_c"]
    good = {"command": "conic", "class": "TypeII", "mu": mu, "c": c,
            "locus_residual_max": 1e-15, "canonical_residual_max": 1e-15}
    out.append(("faithful conic report", op, fake_main(good), "pass"))
    out.append(("conic wrong class", op, fake_main({**good, "class": "TypeIII"}), "fail"))
    out.append(("conic locus residual 1e-8", op,
                fake_main(dict(good, locus_residual_max=1e-8)), "fail"))

    op = first("mesh_export", files, "project/quadric/I")
    co = op.expect["cyclide"]
    good = {"command": "project", "family": op.expect["family"], "residual_max": 1e-14, **co}
    on = cyclide_points(co)
    out.append(("faithful project report and OBJ", op, fake_main(good, obj=on), "pass"))
    off = [(x, y * (1 + 1e-6), z) for x, y, z in on]
    out.append(("OBJ vertices off the cyclide", op, fake_main(good, obj=off), "fail"))
    return out


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=Path(__file__).parent))
    try:
        planted = cases({"csv": str(tmp / "curve.csv"), "obj": str(tmp / "mesh.obj")})
        results, bad = [], 0
        for name, op, fake, want in planted:
            res = run_op(op, fake)
            results.append(res)
            bad += res.status != want
            print(f"{'ok  ' if res.status == want else 'FAIL'} {name}: {res.status} "
                  f"(want {want}) {res.detail}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    summary = summarise(results, 1.0)
    want_passed = sum(want == "pass" for *_, want in planted)
    if summary["passed"] != want_passed:
        bad += 1
        print(f"FAIL summary counts {summary['passed']} passed, want {want_passed}")
    print("selftest", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
