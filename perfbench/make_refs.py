"""Store the reference answers of the current sources in refs.json.

    python3 perfbench/make_refs.py

Runs every workload at both sizes on two seeds, requires the stored
answers to agree between the seeds (only seed-independent outputs are
stored) and the failing checks to be exactly the recorded baseline
failures, then writes refs.json.  Rerun it only when a change is meant to
alter a stored answer, and say so in the change.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

SEEDS = (0, 1)


def record(workload: str, size: str) -> dict:
    make_inputs, run_pass = workloads.WORKLOADS[workload]
    answers = None
    for seed in SEEDS:
        ctx = workloads.PassContext(workload)
        run_pass(make_inputs(seed, size), ctx)
        failed = set(ctx.failed_checks)
        known = workloads.BASELINE_FAILURES.get(workload, set())
        if ctx.tasks_failed or failed != known:
            raise SystemExit(f"{workload}/{size} seed {seed}: failed checks "
                             f"{sorted(failed)}, expected {sorted(known)}")
        if answers is not None and ctx.answers != answers:
            diff = sorted(k for k in answers
                          if answers[k] != ctx.answers.get(k))
            raise SystemExit(f"{workload}/{size}: answers depend on the "
                             f"seed: {diff}")
        answers = ctx.answers
        print(f"{workload}/{size} seed {seed}: {len(ctx.checks)} checks, "
              f"{len(answers)} answers", flush=True)
    return answers


def main() -> int:
    refs = {w: {size: record(w, size) for size in ("tiny", "full")}
            for w in workloads.WORKLOADS}
    with open(workloads.REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
