"""spheriq benchmark: replay seeded CLI command streams and report metrics.

    python3 bench/run.py --workload moduli_sweep --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout; it builds nothing and imports the
library from `<checkout>/src`.  With `--trace 0` it prints the end-to-end
metrics of BENCHMARK.json, with `--trace 1` the per-layer ones.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
Everything above it is a human-readable table (with sample counts) and the
environment record.  A full record of the run, and with `--trace 1` the
spans, are written under `bench/out/`.

This process uses the standard library only and never imports numpy, scipy
or spheriq: `setup_s` is timed in fresh interpreters, and the workload runs
in a worker process of its own so that `peak_rss_mb` is the workload's.
Times are reported at the reference machine's speed (see bench/calib.py);
the table also shows them as measured.
See bench/README.md for the workloads, metrics and known failures.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("moduli_sweep", "conic_survey", "mesh_export")

# never used while the benchmark was tuned; a later claim of a gain must
# also hold on this seed
HELD_OUT_SEED = 7919

# fresh interpreters timed per run for setup_s, half before and half after
# the workload so that the median spans the run; the median is reported.
# Each interpreter takes a speed sample right after its import.
SETUP_SAMPLES = 4
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import spheriq.cli\n"
    "spheriq.cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    f"sys.path.insert(0, {str(BENCH)!r})\n"
    "import calib\n"
    "print(t1 - t0, calib.sample(), calib.REF_S)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    # bytecode is written on the unmeasured first import and read afterwards,
    # as for an installed package, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python(args: list, timeout: float, capture_stderr: bool = False) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), timeout=timeout,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE if capture_stderr else None,
        text=True, check=True,
    )


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """Seconds a fresh interpreter takes to import spheriq.cli and build its
    parser, as measured and at the reference speed."""
    out = []
    for _ in range(samples):
        wall, speed, ref = map(float, python(["-c", SETUP_CODE], 60).stdout.split())
        out.append((wall, wall * ref / speed))
    return out


def scipy_import_ms(samples: int) -> list[float]:
    """Import time of the scipy modules spheriq pulls in, from -X importtime."""
    out = []
    for _ in range(samples):
        err = python(["-X", "importtime", "-c", "import spheriq.cli"], 60, True).stderr
        rows = []
        for line in err.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
        # lines come children first; walk them parents first with a stack
        total, stack = 0, []
        for level, name, cum in reversed(rows):
            del stack[level:]
            parent = stack[-1] if stack else ""
            if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
                total += cum
            stack.append(name)
        out.append(total / 1e3)
    return out


def environment(seed: int) -> dict:
    env = {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            env[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
    except OSError:
        env["cpu_model"] = None
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append(((idx / "level").read_text().strip(), (idx / "size").read_text().strip()))
        except OSError:
            continue
    env["llc"] = f"L{max(caches)[0]} {max(caches)[1]}" if caches else None
    return env


def table(rows) -> str:
    lines = [f"{'metric':36s} {'value':>14s}  {'unit':12s} samples"]
    for name, value, unit, n in rows:
        lines.append(f"{name:36s} {value:14.6g}  {unit:12s} {n}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    if not (ROOT / "src" / "spheriq" / "cli.py").is_file():
        print(f"bench: no spheriq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(a.seed)
    rows, metrics = [], {}
    python(["-c", SETUP_CODE], 60)  # unmeasured: writes bytecode, fills the page cache
    if not a.trace:
        setup = measure_setup(SETUP_SAMPLES // 2)
    else:
        scipy_ms = scipy_import_ms(3)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{a.workload}-seed{a.seed}-trace{a.trace}"
    cmd = [str(BENCH / "worker.py"), "--root", str(ROOT), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--trace-out", str(stem) + ".spans.tsv.gz"]
    res = json.loads(python(cmd, 160).stdout.strip().splitlines()[-1])
    env.update(res["env"])
    if not a.trace:
        setup += measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    plain = res["phases"]["untraced"]
    correct = res["unexpected_failures"] == 0
    if not a.trace:
        values = {**plain, "peak_rss_mb": res["peak_rss_mb"],
                  "setup_s": statistics.median(s for _, s in setup),
                  "wall_setup_s": statistics.median(w for w, _ in setup)}
        samples = {"setup_s": SETUP_SAMPLES, "peak_rss_mb": 1}
        listed = spec["end_to_end"]
    else:
        values = {**res["layers"], "setup.scipy_import_ms": statistics.median(scipy_ms)}
        samples = {"setup.scipy_import_ms": 3}
        listed = spec["per_layer"]
        correct = correct and res["self_time_check"]["ok"]
        if {m["name"] for m in listed} != set(values):
            raise SystemExit("bench: per-layer metrics differ from BENCHMARK.json: "
                             f"{sorted({m['name'] for m in listed} ^ set(values))}")
    n_ops = res["phases"]["traced" if a.trace else "untraced"]["n"]
    for m in listed:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        rows.append((name, values[name], unit, samples.get(name, n_ops)))
    if not a.trace:
        rows.append(("fail_ratio", plain["fail_ratio"], "ratio", plain["n"]))
        for name in ("latency_p50_ms", "latency_p90_ms", "goodput_ops_s", "setup_s"):
            rows.append((f"{name} as measured", values["wall_" + name],
                         metrics[name]["unit"], samples.get(name, n_ops)))
        rows.append(("machine speed / reference", 1.0 / plain["speed_ratio_p50"], "ratio",
                     plain["speed_samples"]))

    record = {"workload": a.workload, "trace": a.trace, "env": env, "worker": res,
              "metrics": metrics, "correct": correct}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=float) + "\n")

    print(f"workload {a.workload}  seed {a.seed}  held-out seed {HELD_OUT_SEED}  "
          f"ops {res['attempted']}  warm-up ops {res['warmup_ops']}")
    print("env " + json.dumps(env, sort_keys=True))
    print(table(rows))
    probe = res["probe"]
    print(f"probe: {sum(probe['reproduced'].values())} of {probe['ops']} known-defect inputs "
          f"still fail " + json.dumps(probe["reproduced"], sort_keys=True)
          + (f", fixed: {sorted(set(probe['fixed']))}" if probe["fixed"] else ""))
    for ex in res["failure_examples"]:
        print("UNEXPECTED FAILURE: " + json.dumps(ex), file=sys.stderr)
    if a.trace:
        print("self-time check " + json.dumps(res["self_time_check"]))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
