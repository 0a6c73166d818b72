"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced.  The result line must
name every metric of BENCHMARK.json with its unit, and every check must
pass except the recorded baseline failures.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--trace", str(trace),
                "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    failed = [line for line in proc.stdout.splitlines()
              if line.startswith("failed checks:")]
    if workload == "cli_sweep":
        # INTERP_FAIL's control check fails at the defining commit
        assert failed and all(
            line == "failed checks: cli.counterexample.INTERP_FAIL."
                    "control_slope_below_0.05" for line in failed)
    else:
        assert not failed
    if not trace:
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
