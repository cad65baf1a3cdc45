"""One workload in one process: warm-up, timed phase(s), checks, metrics.

Started by run.py with the checkout root; prints one JSON object as its last
line of output.  The process imports spheriq from `<root>/src`, so its peak
resident memory is the workload's own.

The timed phase is a closed loop with one client: each op is the in-process
call `spheriq.cli.main(argv)`, timed with `time.perf_counter`, and the next
op starts once the previous one has been checked.  The clock runs only
inside `main`, so reading back reports and files costs the phase nothing.
The phase ends once the summed op time reaches its budget and at least
`min_ops` ops were timed.  Between ops, every SPEED_EVERY seconds of op
time, the reference kernel of `calib` takes a speed sample; each op's time
is scaled by the samples just before and after it (see `calib`).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import calib
import checks
import workloads
from tracer import LAYERS, Tracer

# the highest percentile reported has at least five samples beyond it
MIN_OPS = 50
# wall-clock limit of the timed phases, which keeps a run inside 180 s
WALL_CAP = 90.0
# more ops than a 30 s phase uses on any workload
PREDRAWN_OPS = 4000
# seconds of op time between two speed samples
SPEED_EVERY = 0.3
EPS = float(np.finfo(float).eps)
COMMANDS = ("conic", "reconstruct", "quadric", "classify", "verify", "project")


@dataclass
class Result:
    op: object
    latency: float
    status: str  # "pass", "defect" (a documented seed defect) or "fail"
    scaled: float = math.nan  # latency at the reference machine's speed
    detail: str = ""
    quantities: list = field(default_factory=list)
    csv_bytes: int = 0
    obj_bytes: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def run_op(op, main) -> Result:
    for paths in op.files.values():
        for p in paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(p)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(op.argv + ["--json"])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed op, not a benchmark error
            code = None
            traceback.print_exc()
        latency = perf_counter() - t0
    res = Result(op, latency, "fail", scaled=latency)
    if code != 0:
        tag = checks.known_defect(op, err.getvalue())
        res.status = "defect" if tag else "fail"
        res.detail = tag or f"exit {code}: {err.getvalue().strip()[-300:]}"
        return res
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError as exc:
        res.detail = f"report is not JSON: {exc}"
        return res
    verdict = checks.check(op, report)
    res.quantities = verdict.quantities
    if verdict.ok:
        res.status = "pass"
    else:
        tag = checks.known_defect(op, report=report)
        res.status = "defect" if tag else "fail"
        res.detail = tag or "; ".join(verdict.reasons)
    for kind in ("csv", "obj"):
        size = sum(os.path.getsize(p) for p in op.files.get(kind, []) if os.path.exists(p))
        setattr(res, f"{kind}_bytes", size)
    return res


def run_phase(ops, main, budget: float, min_ops: int, wall_cap: float, tracer=None):
    """Timed ops until the budget of op time is spent; returns results, op time, speeds."""
    results: list[Result] = []
    speeds = [calib.sample()]
    after = []  # index of the speed sample taken last before each op
    busy = since = 0.0
    t_end = perf_counter() + wall_cap
    for i, op in enumerate(ops):
        if since >= SPEED_EVERY:
            speeds.append(calib.sample())
            since = 0.0
        after.append(len(speeds) - 1)
        if tracer is not None:
            tracer.op_id = i
        res = run_op(op, main)
        if tracer is not None:
            tracer.op_id = -1
        results.append(res)
        busy += res.latency
        since += res.latency
        if (busy >= budget and len(results) >= min_ops) or perf_counter() > t_end:
            break
    speeds.append(calib.sample())
    for res, k in zip(results, after):
        res.scaled = res.latency * calib.REF_S / (0.5 * (speeds[k] + speeds[k + 1]))
    return results, busy, speeds


def warm_up(ops, main, per_command: int = 2, min_ops: int = 6) -> list[Result]:
    """Run ops until every command seen has run twice: lazy imports, caches."""
    seen: dict[str, int] = {}
    results = []
    for op in ops:
        results.append(run_op(op, main))
        seen[op.command] = seen.get(op.command, 0) + 1
        if len(results) >= min_ops and min(seen.values()) >= per_command:
            break
    return results


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; failed ops enter as +inf."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def latencies(results, attr: str = "scaled") -> list[float]:
    return [getattr(r, attr) if r.passed else math.inf for r in results]


def margins(results) -> dict[str, float]:
    """Per checked quantity: mean over ops of log10(tolerance / observed).

    Observed values below double-precision epsilon count as epsilon, so an
    exact result scores about log10(tolerance / 2.2e-16) digits.
    """
    digits: dict[str, list] = {}
    for r in results:
        for name, observed, tol in r.quantities:
            digits.setdefault(name, []).append(math.log10(tol / max(observed, EPS)))
    return {name: statistics.fmean(v) for name, v in digits.items()}


def summarise(results, busy: float, speeds=(calib.REF_S,)) -> dict:
    lat, wall = latencies(results), latencies(results, "latency")
    n = len(results)
    passed = sum(r.passed for r in results)
    scaled_busy = sum(r.scaled for r in results)
    m = margins(results)
    worst_op = min(
        (math.log10(t / max(o, EPS)) for r in results for _, o, t in r.quantities),
        default=math.inf,
    )
    return {
        "n": n,
        "passed": passed,
        "busy_s": busy,
        "latency_p50_ms": 1e3 * percentile(lat, 0.5),
        "latency_p90_ms": 1e3 * percentile(lat, 0.9),
        "goodput_ops_s": passed / scaled_busy,
        "fail_ratio": 1.0 - passed / n,
        "wall_latency_p50_ms": 1e3 * percentile(wall, 0.5),
        "wall_latency_p90_ms": 1e3 * percentile(wall, 0.9),
        "wall_goodput_ops_s": passed / busy,
        "speed_samples": len(speeds),
        "speed_ratio_p50": statistics.median(speeds) / calib.REF_S,
        "tol_margin_digits": min(m.values(), default=math.inf),
        "margins": m,
        "worst_op_margin_digits": worst_op,
    }


def command_p50(results) -> dict[str, float]:
    out = {}
    for cmd in COMMANDS:
        lat = [r.latency for r in results if r.op.command == cmd and r.passed]
        out[f"cli.{cmd}_p50_ms"] = 1e3 * percentile(lat, 0.5) if lat else 0.0
    return out


def layer_metrics(tracer, results, untraced) -> dict:
    n = len(results)
    tot = tracer.totals()

    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    def ms(*names):
        return 1e3 * sum(get(nm, "time") for nm in names) / n

    def per_call(names):
        calls = sum(get(nm, "calls") for nm in names)
        return sum(get(nm, "points") for nm in names) / calls if calls else 0.0

    out = {}
    for layer in LAYERS:
        names = [nm for nm, lay in zip(tracer.names, tracer.layer_of) if lay == layer]
        out[f"{layer}.calls"] = sum(get(nm, "calls") for nm in names) / n
        out[f"{layer}.self_ms"] = 1e3 * sum(get(nm, "self") for nm in names) / n
        out[f"{layer}.errors"] = sum(get(nm, "errors") for nm in names) / n
    point = "momentum.ReconstructionMap.point"
    residuals = ["conics.locus_residual", "conics.canonical_residual"]
    out.update({
        "momentum.feasible_intervals_ms": ms("momentum.feasible_intervals"),
        "momentum.chart_builds": get("momentum.ReconstructionMap.__init__", "calls") / n,
        "momentum.point_calls": get(point, "calls") / n,
        "momentum.points_per_call": per_call([point]),
        "momentum.point_ms": ms(point),
        "surfaces.curvature_stencils": get("surfaces.fundamental_forms", "calls") / n,
        "surfaces.make_surface_ms": ms("surfaces.make_quadric_surface",
                                      "surfaces.make_fake_paraboloid",
                                      "surfaces.make_degenerate"),
        "weingarten.classify_ms": ms("weingarten.classify_rotational_surface"),
        "conics.residual_calls": sum(get(nm, "calls") for nm in residuals) / n,
        "conics.points_per_residual_call": per_call(residuals),
        "sphere.geo_calls": get("sphere.cartesian_to_geo", "calls") / n,
        "sphere.csv_ms": ms("sphere.write_curve_csv"),
        "sphere.csv_bytes": sum(r.csv_bytes for r in results) / n,
        "projection.mesh_ms": ms("projection.mesh_from_surface"),
        "projection.obj_ms": ms("projection.write_obj"),
        "projection.obj_bytes": sum(r.obj_bytes for r in results) / n,
        "cli.parser_ms": ms("cli.build_parser", "cli.parse_args"),
    })
    out.update(command_p50(untraced))
    return out


def self_time_check(tracer, results) -> dict:
    """Each op's summed layer self times against its measured wall time."""
    sums = tracer.op_self_sums()
    bad = []
    worst = 0.0
    for i, r in enumerate(results):
        gap = abs(sums.get(i, 0.0) - r.latency)
        worst = max(worst, gap / r.latency)
        if gap > max(0.05 * r.latency, 1e-3):
            bad.append(i)
    return {"ops": len(results), "violations": len(bad), "worst_gap_ratio": worst,
            "ok": len(bad) <= 0.01 * len(results)}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return f"{fn()} ({os.path.basename(lib)})"
    return "unknown"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    a = ap.parse_args(argv)

    root = Path(a.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import spheriq.cli

    src = Path(spheriq.cli.__file__).resolve()
    if root / "src" not in src.parents:
        raise SystemExit(f"spheriq imported from {src}, not from {root / 'src'}")

    tmp = root / "bench" / "out" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    files = {"csv": str(tmp / "curve.csv"), "obj": str(tmp / "mesh.obj")}

    def ops():
        # inputs are drawn before the phase starts; the stream continues past
        # them should a phase need more
        stream = workloads.stream(a.workload, np.random.default_rng(a.seed), files)
        return itertools.chain(list(itertools.islice(stream, PREDRAWN_OPS)), stream)

    def cli_main(argv):  # looked up per call so the tracer's rebinding applies
        return spheriq.cli.main(argv)

    try:
        warm = warm_up(workloads.stream(a.workload, np.random.default_rng([a.seed, 1]), files),
                       cli_main)
        out = {"env": {"blas_threads": blas_threads()}, "warmup_ops": len(warm)}
        if not a.trace:
            results, busy, speeds = run_phase(ops(), cli_main, a.seconds, MIN_OPS, WALL_CAP)
            out["phases"] = {"untraced": summarise(results, busy, speeds)}
            timed = results
        else:
            half = a.seconds / 2
            plain, busy, speeds = run_phase(ops(), cli_main, half, 30, WALL_CAP / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced, tbusy, tspeeds = run_phase(ops(), cli_main, half, 30, WALL_CAP / 2,
                                                   tracer)
            finally:
                tracer.uninstall()
            s_plain, s_traced = summarise(plain, busy, speeds), summarise(traced, tbusy, tspeeds)
            layers = layer_metrics(tracer, traced, plain)
            layers["trace.overhead_ratio"] = s_traced["latency_p50_ms"] / s_plain["latency_p50_ms"]
            out["phases"] = {"untraced": s_plain, "traced": s_traced}
            out["layers"] = layers
            out["self_time_check"] = self_time_check(tracer, traced)
            out["spans"] = len(tracer.sp_op)
            if a.trace_out:
                tracer.write(a.trace_out)
                out["trace_file"] = a.trace_out
            timed = plain + traced
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # every timed and warm-up op must pass: the streams hold no input the
        # seed is known to fail on
        failures = [r for r in warm + timed if not r.passed]
        out["attempted"] = len(timed)
        out["failed"] = sum(not r.passed for r in timed)
        out["commands"] = {cmd: sum(r.op.command == cmd for r in timed) for cmd in COMMANDS}
        out["probe"] = {"ops": 0, "reproduced": {}, "fixed": []}
        for op, tag in workloads.probe(files):
            res = run_op(op, cli_main)
            out["probe"]["ops"] += 1
            if res.passed:
                out["probe"]["fixed"].append(tag)
            elif res.detail == tag:
                out["probe"]["reproduced"][tag] = out["probe"]["reproduced"].get(tag, 0) + 1
            else:
                failures.append(res)
        out["unexpected_failures"] = len(failures)
        out["failure_examples"] = [
            {"argv": r.op.argv, "detail": r.detail} for r in failures[:5]
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(json.dumps(out, default=float) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
