"""One workload process: set up (imports and inputs), then optionally run
one pass, untraced or traced, and write a JSON result file.  A traced pass
also writes its spans to ``perfbench/.work/<workload>.spans.json``.

Started by run.py in a fresh single-threaded interpreter; the parent
measures set-up from its own clock reading just before the start, so the
``ready`` time read here on the same monotonic clock closes that interval.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# set-up: every layer, including the modules cli and counterexamples import
# lazily, so none of that lands in the timed pass
import mpmath  # noqa: E402,F401
import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.special  # noqa: E402,F401

import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from dyadlab import __version__  # noqa: E402

for _layer in layers.MODULES:
    importlib.import_module(f"dyadlab.{_layer}")


def environment() -> dict:
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "dyadlab": __version__,
            "gmpy2": ("present" if importlib.util.find_spec("gmpy2")
                      else "absent: the pure-Python fallback is measured")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--mode", default="pass", choices=("setup", "pass"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    make_inputs, run_pass = workloads.WORKLOADS[args.workload]
    inp = make_inputs(args.seed, args.size)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode == "pass":
        refs = workloads.load_refs(args.workload, args.size)
        tr = None
        if args.trace:
            tr = tracing.Tracer()
            tr.install()
        ctx = workloads.PassContext(args.workload, refs, tr)
        if tr is not None:
            tr.start()
        t0 = time.perf_counter()
        try:
            run_pass(inp, ctx)
        except Exception as exc:  # later tasks depended on a failed one
            ctx.abort(exc)
        wall = time.perf_counter() - t0
        if tr is not None:
            wall = tr.stop()
            result["layers"] = layers.layer_metrics(tr, ctx, wall)
            result["self_s"] = dict(tr.self_s)
            tr.dump(workloads.WORK / f"{args.workload}.spans.json")
        result.update(
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            checks=len(ctx.checks), failed_checks=ctx.failed_checks,
            correct=ctx.correct, tasks=ctx.tasks,
            tasks_failed=ctx.tasks_failed, cert_spread_max=ctx.cert_spread,
            environment=environment())
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
