"""dyadlab benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload cli_sweep --seed 1 --seconds 40 \
        --trace 0

Run from the root of a source checkout.  Each pass runs in a fresh
single-threaded Python process (worker.py).  With ``--trace 0`` the run
repeats untraced passes while the next one still fits in ``--seconds``
(at least one), starts set-up-only processes before each pass and after
the last until there are SETUP_SAMPLES set-up times, and reports the
end-to-end metrics as medians.  With ``--trace 1`` it runs an untraced
pass, the traced pass and, when it fits, a second untraced pass, and
reports the per-layer metrics of the traced one; the tracing overhead is
the traced wall time minus the mean of the untraced ones.  The last line
of standard output is the JSON result; the lines before it are the run
record.

Limits: there are no hardware counters and no system-wide tracing; only
the benchmark's own processes are timed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from layers import MODULES, PER_LAYER, WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "checks_passed_frac": "ratio", "cert_spread_max": "ratio"}
SETUP_SAMPLES = 9    # set-up times per run; their median is setup_s
SETUP_PER_PASS = 2   # set-up-only processes started before each pass
DEADLINE_S = 170.0   # a run must end within 180 s
LIMITS = ("no hardware counters and no system-wide tracing; only the "
          "benchmark's own processes are timed")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class RunError(RuntimeError):
    pass


class Runner:
    """Starts worker processes one at a time and waits for each."""

    def __init__(self, args):
        self.args = args
        self.t_start = time.monotonic()
        self.env = {**os.environ, **THREAD_ENV}
        self.n = 0

    def spawn(self, mode: str, trace: int = 0) -> dict:
        a = self.args
        self.n += 1
        result = WORK / f"{a.workload}.{os.getpid()}.{self.n}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--size", a.size, "--mode", mode, "--trace", str(trace),
               "--result", str(result)]
        left = DEADLINE_S - self.elapsed()
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(left, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"worker exceeded the {DEADLINE_S:.0f} s "
                           "deadline") from exc
        if proc.returncode != 0:
            raise RunError(f"worker failed ({proc.returncode}):\n"
                           f"{proc.stderr[-4000:]}")
        with open(result) as fh:
            out = json.load(fh)
        os.remove(result)
        out["setup_s"] = out["ready"] - t0
        return out

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start


def measure(runner: Runner, seconds: float):
    """Untraced passes while the next still fits, each after SETUP_PER_PASS
    set-up-only processes, so that the set-up samples spread over the run;
    then set-up-only processes up to SETUP_SAMPLES."""
    passes, setups = [], []
    while True:
        setups += [runner.spawn("setup")["setup_s"]
                   for _ in range(SETUP_PER_PASS)]
        passes.append(runner.spawn("pass"))
        setups.append(passes[-1]["setup_s"])
        walls = [p["wall_s"] for p in passes]
        nxt = statistics.median(walls)
        if (sum(walls) + nxt > seconds
                or runner.elapsed() + 2 * nxt > DEADLINE_S - 20):
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn("setup")["setup_s"])
    checks = sum(p["checks"] for p in passes)
    failed = sum(len(p["failed_checks"]) for p in passes)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "checks_passed_frac": 1.0 - failed / checks,
        "cert_spread_max": max(p["cert_spread_max"] for p in passes),
    }
    return passes, metrics, {"wall_s": walls, "setup_s": setups}


def measure_traced(runner: Runner):
    """The traced pass between two untraced ones (the second only when it
    fits): a steady drift of the host's speed cancels in the overhead."""
    plain = [runner.spawn("pass")]
    traced = runner.spawn("pass", trace=1)
    if runner.elapsed() + 2 * plain[0]["wall_s"] < DEADLINE_S - 20:
        plain.append(runner.spawn("pass"))
    walls = [p["wall_s"] for p in plain]
    metrics = dict(traced["layers"])
    metrics["trace.untraced_wall_s"] = statistics.mean(walls)
    metrics["trace.overhead_s"] = traced["wall_s"] - statistics.mean(walls)
    return [*plain, traced], metrics, {"wall_s": walls,
                                       "traced_wall_s": [traced["wall_s"]]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_record(args, passes, samples) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seed_use": WORKLOADS[args.workload], "size": args.size,
        "trace": args.trace, "seconds": args.seconds, "passes": len(passes),
        "samples": samples, "environment": passes[0]["environment"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_env": THREAD_ENV, "limits": LIMITS,
    }


def layer_table(metrics: dict) -> str:
    wall = metrics["trace.wall_s"]
    rows = [f"{'layer':16s} {'self_s':>9s} {'share':>7s}"]
    for layer in MODULES + ("bench",):
        s = metrics[f"{layer}.self_s"]
        rows.append(f"{layer:16s} {s:9.3f} {s / wall:7.1%}")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: the smoke-test sizes")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dyadlab" / "__init__.py").is_file():
        print(f"no dyadlab sources under {ROOT / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = Runner(args)
    try:
        if args.trace:
            passes, values, samples = measure_traced(runner)
        else:
            passes, values, samples = measure(runner, args.seconds)
    except RunError as exc:
        print(exc, file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    print("run record:", json.dumps(run_record(args, passes, samples)))
    for p in passes:
        if p["failed_checks"]:
            print("failed checks:", ", ".join(p["failed_checks"]))
    if args.trace:
        print(layer_table(values))
    print(json.dumps({
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["tasks"] for p in passes),
        "failed": sum(p["tasks_failed"] for p in passes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
