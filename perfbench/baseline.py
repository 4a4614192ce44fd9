"""Repeat the benchmark over several seeds and summarise its spread.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 1-10] [--write]

Runs `run.py` once per (workload, seed) with the settings in
BENCHMARK.json, then prints, for each end-to-end metric, the median and
quartiles of its values (`statistics.quantiles(values, n=4)`) and the
spread: the distance between the quartiles as a share of the median.
With --write it also makes one traced run per workload and records
both in perfbench/baseline.json, the recorded baseline, replacing only
the entries of the workloads it ran.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{out.stderr}")
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    path = BENCH_DIR / "baseline.json"
    report = json.loads(path.read_text()) if path.is_file() else {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, 0) for seed in args.seeds]
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        report[workload] = {"run_seconds": SPEC["run_seconds"],
                            "seeds": args.seeds, "end_to_end": summary}
        for name, s in summary.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  > bound/3"
            print(f"{workload:8s} {name:12s} median {s['median']:9.4f} "
                  f"q1 {s['q1']:9.4f} q3 {s['q3']:9.4f} "
                  f"spread {s['spread']:.3f} (bound {bounds[name]}){flag}",
                  flush=True)
        if args.write:
            traced = run_once(workload, args.seeds[0], 1)
            report[workload]["per_layer"] = {
                name: m["value"] for name, m in traced["metrics"].items()}
    if args.write:
        path.write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
