"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/repeat.py --workload deep_sweep --seeds 1-10 \
        --out perfbench/.work/deep_sweep.json

Each run is a separate ``run.py`` invocation with the run length of
BENCHMARK.json.  For every metric the summary gives the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), and the spread
(q3 - q1) / median, next to the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--out", default=None, help="JSON summary file")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record = json.loads(lines[0].split(":", 1)[1])
        runs.append({"seed": seed, "result": result, "record": record})
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if k in bounds), flush=True)
    names = runs[0]["result"]["metrics"]
    summary = {name: summarise([r["result"]["metrics"][name]["value"]
                                for r in runs]) for name in names}
    for name, s in summary.items():
        if name in bounds:
            print(f"{name:20s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  "
                  f"bound {bounds[name]}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload,
                       "all_correct": all(r["result"]["correct"]
                                          for r in runs),
                       "summary": summary, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
