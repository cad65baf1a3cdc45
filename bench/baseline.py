"""Repeated runs of the benchmark, summarised: the record a claim rests on.

    python3 bench/baseline.py --out bench/BENCH_1.json --seeds 1-10
    python3 bench/baseline.py --out run.json --seeds 1-5 --workloads conic_survey --no-trace

Runs `run.py --trace 0` once per seed and workload, one run at a time, then
(unless --no-trace) one `--trace 1` run per workload on the first seed.  For
each end-to-end metric it records every value, the median, the quartiles
from `statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median,
and prints the spreads with each metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--no-trace", action="store_true")
    a = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "what": "ten-run summary of bench/run.py: per workload one --trace 0 run per seed "
                "and one --trace 1 run on the first seed; spread = (q3 - q1) / median with "
                "quartiles from statistics.quantiles(values, n=4)",
        "seeds": a.seeds, "run_seconds": a.seconds, "workloads": {},
    }
    for workload in a.workloads:
        runs = [run(workload, s, a.seconds, 0) for s in a.seeds]
        env = json.loads((BENCH / "out" / f"{workload}-seed{a.seeds[0]}-trace0.json")
                         .read_text())["env"]
        entry = {
            "env": {k: v for k, v in env.items() if k != "seed"},
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {},
        }
        for name in bounds:
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                **summary([r["metrics"][name]["value"] for r in runs]),
            }
            e = entry["end_to_end"][name]
            print(f"{workload:14s} {name:20s} median {e['median']:12.6g}  spread "
                  f"{e['spread']:.3f}  bound {bounds[name]}", flush=True)
        if not a.no_trace:
            traced = run(workload, a.seeds[0], a.seconds, 1)
            entry["per_layer"] = {"seed": a.seeds[0], "correct": traced["correct"],
                                  "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        record["workloads"][workload] = entry
        print(f"{workload:14s} correct {entry['correct']}  failed {sum(entry['failed'])} of "
              f"{sum(entry['attempted'])}", flush=True)
    Path(a.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
