"""The benchmark's workloads: inputs built from a seed, one pass over a
fixed task list, and the checks that grade the pass.

Every task calls a public dyadlab function through its module attribute,
so a traced run sees the call through the tracer's wrapper.

Checks come in three kinds:

* the program's own verdicts (the ``checks`` of each CLI manifest);
* reference answers stored at the commit that defined the benchmark
  (``refs.json``): exact outputs compared bit for bit through SHA-256
  digests, float outputs within relative 1e-9 (absolute 1e-12 near zero);
* invariants for outputs that depend on the seed (certificate caps, exact
  p = 2 reduction, ``mean == 1``), with the tolerances the tests use.

Only outputs that do not depend on the seed are stored as references, so
every check applies to every seed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np

from dyadlab import (almost_diagonal as AD, carleson as C, cli,
                     geometry as G, maximal as M, quilts as Q, weights as W)

import layers
from layers import CASES, SUBCOMMANDS

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json"
WORK = HERE / ".work"

# Checks that fail at the commit that defined the benchmark.  They are
# counted in the failed-check share, but do not make a pass incorrect.
# INTERP_FAIL's control curve on its default grid has slope 0.165 > 0.05;
# the fix belongs to the program, not to the grid.
BASELINE_FAILURES = {
    "cli_sweep": {"cli.counterexample.INTERP_FAIL.control_slope_below_0.05"},
}

def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _int_bytes(n: int) -> bytes:
    return n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)


def law_digest(probs: dict) -> str:
    """Digest of a law as sorted (k, num, den), k written exactly; the
    big integers are hashed as bytes (decimal conversion is quadratic)."""
    h = hashlib.sha256()
    for k, p in sorted(probs.items(), key=lambda kv: Fraction(kv[0])):
        h.update(f"{k}:".encode())
        h.update(_int_bytes(int(p.numerator)) + b"/")
        h.update(_int_bytes(int(p.denominator)) + b";")
    return h.hexdigest()


def mass_and_mean(probs: dict) -> tuple:
    """Exact total mass and mean over one common denominator, which avoids
    a gcd per term on the huge dyadic denominators."""
    D = 1
    for p in probs.values():
        if D % int(p.denominator):
            D = math.lcm(D, int(p.denominator))
    mass = mean = 0
    rest = Fraction(0)   # non-integer support points (capped laws)
    for k, p in probs.items():
        n = int(p.numerator) * (D // int(p.denominator))
        mass += n
        if isinstance(k, int):
            mean += k * n
        else:
            rest += Fraction(k) * Fraction(n, D)
    return Fraction(mass, D), Fraction(mean, D) + rest


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


class PassContext:
    """Collects a pass's checks, task counts and certificate spread; in
    record mode (refs is None) it stores the reference answers instead of
    comparing them."""

    def __init__(self, workload: str, refs=None, tracer=None):
        self.refs = refs
        self.tracer = tracer
        self.answers = {}
        self.checks = []          # (name, ok)
        self.tasks = 0
        self.tasks_failed = 0
        self.cli_checks = 0       # verdicts read from CLI manifests
        self.cli_failed = 0
        self.cert_spread = 1.0    # c_hi / c_lo >= 1; 1 when nothing is fitted
        self.known = BASELINE_FAILURES.get(workload, set())

    def check(self, name: str, ok) -> None:
        self.checks.append((name, bool(ok)))

    def exact(self, name: str, value) -> None:
        self._answer(name, digest(value), lambda a, b: a == b)

    def floats(self, name: str, values) -> None:
        vals = [float(v) for v in np.atleast_1d(values)]
        self._answer(name, vals, lambda a, b: len(a) == len(b) and all(
            _close(x, y) for x, y in zip(a, b)))

    def _answer(self, name, value, same):
        if self.refs is None:
            self.answers[name] = value
        else:
            self.check("ref." + name,
                       name in self.refs and same(value, self.refs[name]))

    def certs(self, lo_hi) -> None:
        for lo, hi in lo_hi:
            self.cert_spread = max(self.cert_spread, float(hi) / float(lo))

    def task(self, name: str, fn, *args):
        """One operation of the pass; an exception fails it and its check."""
        self.tasks += 1
        try:
            if self.tracer is not None and name.startswith("cli."):
                return self.tracer.span(name, fn, *args)
            return fn(*args)
        except Exception as exc:  # a failed operation is a result to report
            self.tasks_failed += 1
            self.check(f"task.{name}.raised:{type(exc).__name__}", False)
            return None

    def abort(self, exc: Exception) -> None:
        """The pass stopped early; it counts as at least one failed task."""
        self.check(f"pass.aborted:{type(exc).__name__}", False)
        self.tasks_failed = max(self.tasks_failed, 1)

    # -- summary -------------------------------------------------------

    @property
    def failed_checks(self):
        return [n for n, ok in self.checks if not ok]

    @property
    def correct(self) -> bool:
        return self.tasks_failed == 0 and set(self.failed_checks) <= self.known


# ----------------------------------------------------------------------
# cli_sweep: the subcommands a user runs, through dyadlab.cli.main


def _case_argv(params: dict) -> list:
    argv = []
    for key, val in params.items():
        vals = val if isinstance(val, tuple) else (val,)
        argv += [f"--{key}"] + [repr(float(v)) for v in vals]
    return argv


def cli_inputs(seed: int, size: str) -> dict:
    tiny = size == "tiny"
    extra = {"quilt": ["--generations", "2" if tiny else "3"],
             "sigma": ["--n", "1000" if tiny else "10000"]}
    if tiny:
        for sub in ("norms", "weights", "carleson"):
            extra[sub] = ["--trials", "2"]
    out = WORK / f"cli_sweep-{os.getpid()}"
    seed_arg = ["--seed", str(seed)]
    runs = [(f"cli.{sub}", out, [sub, *seed_arg, "--out", str(out),
                                 *extra.get(sub, [])])
            for sub in SUBCOMMANDS[:-1]]
    # each case gets its own directory: manifests are named per subcommand
    runs += [(f"cli.counterexample.{case}", out / case,
              ["counterexample", "--case", case, *seed_arg,
               "--out", str(out / case), *_case_argv(params)])
             for case, params in CASES]
    runs.append(("cli.report", out, ["report", *seed_arg, "--out", str(out)]))
    return {"out": out, "runs": runs}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def cli_pass(inp: dict, ctx: PassContext) -> None:
    try:
        _cli_pass(inp, ctx)
    finally:
        shutil.rmtree(inp["out"], ignore_errors=True)


def _cli_pass(inp: dict, ctx: PassContext) -> None:
    report_checks = report_failed = 0
    for name, d, argv in inp["runs"]:
        if ctx.task(name, cli.main, argv) is None:
            continue
        cmd = argv[0]
        man = _read_json(d / f"manifest_{cmd}.json")
        res = _read_json(d / f"{cmd}_results.json")
        if cmd == "report":
            # the report repeats the other manifests' checks: compare counts
            ctx.check("cli.report.n_checks", res["n_checks"] == report_checks)
            ctx.check("cli.report.n_failed", res["n_failed"] == report_failed)
            ctx.exact("report.n_commands", res["n_commands"])
            continue
        for check, ok in man["checks"].items():
            ctx.check(f"{name}.{check}", ok)
            ctx.cli_checks += 1
            ctx.cli_failed += not ok
            if cmd != "counterexample":
                report_checks += 1
                report_failed += not ok
        _cli_answers(ctx, name.rsplit(".", 1)[1], d, res)


def _cli_answers(ctx, sub, d, res):
    if sub == "quilt":
        ctx.exact("quilt.sigma", sorted(res["sigma"].items()))
        ctx.exact("quilt.rects",
                  [r[:3] for r in _read_csv(d / "quilt_sigma.csv")])
    elif sub == "sigma":
        ctx.floats("sigma.summary", [res["n_sigma_n_last"], res["tail_min"],
                                     res["tail_max"]])
    elif sub == "weights":
        # A_p constants of fixed weights; the reducing operators are graded
        # by their certificate cap (the CLI's own check), not by value
        ctx.floats("weights.ap_constants",
                   [res["constant_weight"], res["two_cell"]])
        ctx.exact("weights.two_cell_exact", res["two_cell_exact"])
        ctx.certs([(1.0, res["max_certificate_ratio"])])
    elif sub == "ad":
        rows = _read_csv(d / "ad_curves.csv")
        for kind in "DEF":
            ctx.floats(f"ad.necessity_{kind}",
                       [float(r[2]) for r in rows
                        if r[0] == f"necessity_{kind}"])
    elif sub == "maximal":
        ctx.exact("maximal.rows", res["rows"])
    elif sub in dict(CASES):
        rows = _read_csv(d / f"counterexample_{sub}.csv")
        ctx.floats(f"counterexample.{sub}.points",
                   [float(x) for r in rows for x in r[:3]])
        ctx.floats(f"counterexample.{sub}.slopes",
                   [res["fitted_slope"], res["predicted_slope"],
                    res["residual"], res.get("control_slope", 0.0)])
        ctx.exact(f"counterexample.{sub}.control", res.get("control"))


# ----------------------------------------------------------------------
# quilt_laws: exact overlap laws, their certificates, the enumeration oracle


def quilt_inputs(seed: int, size: str) -> dict:
    # no randomness: the seed is not used
    return {"steps": 8 if size == "tiny" else 12, "oracle_generations": 3}


def quilt_pass(inp: dict, ctx: PassContext) -> None:
    laws = [Q.LevelDistribution()]
    for s in range(1, inp["steps"] + 1):
        mu = ctx.task("quilts.distribution_step", Q.distribution_step,
                      laws[-1])
        laws.append(mu)
        ctx.exact(f"law.{s}", law_digest(mu.probs))
        ctx.check(f"law.{s}.mass_and_mean_one",
                  mass_and_mean(mu.probs) == (1, 1))
    for s in range(1, inp["steps"] + 1):
        verdict = ctx.task("quilts.lemma_step_check", Q.lemma_step_check,
                           laws[s - 1], laws[s])
        ctx.exact(f"lemma.{s}", sorted(verdict.items()))
        ctx.floats(f"moment_ratio.{s}",
                   ctx.task("quilts.moment_ratio", Q.moment_ratio,
                            laws[s], 0.5))
    gens = inp["oracle_generations"]
    sigma = Q.sigma_sequence(gens, exact=True)
    q = Q.unit_quilt()
    for g in range(1, gens + 1):
        q = ctx.task("quilts.quilt_refine", Q.quilt_refine, q)
        rep = ctx.task("quilts.quilt_validate", Q.quilt_validate, q)
        enum = ctx.task("quilts.enumerate_distribution",
                        Q.enumerate_distribution, q)
        ctx.exact(f"oracle.{g}.sigma", (rep["sigma"].numerator,
                                        rep["sigma"].denominator))
        ctx.check(f"oracle.{g}.valid", rep["valid"])
        ctx.check(f"oracle.{g}.sigma_recursion", rep["sigma"] == sigma[g])
        ctx.check(f"oracle.{g}.law_equals_recursion",
                  enum.probs == laws[g].probs)


# ----------------------------------------------------------------------
# deep_sweep: ellipsoid reducing operators, the capped law, dense
# composition, Carleson and doubling on one reducing family


def deep_inputs(seed: int, size: str) -> dict:
    tiny = size == "tiny"
    rng = np.random.default_rng(seed)
    ax2 = G.AxisSpec((1, 1))
    J = 1 if tiny else 2
    V = W.random_spd_field(G.Window.unit(ax2, (J, J)), 2, rng)
    V3 = W.random_spd_field(G.Window.unit(ax2, (J + 1, J + 1)), 2, rng)
    params = AD.ADParams((3.0,), (2.0,), (2.0,))
    return {"V": V, "V3": V3, "params": params,
            "comp_window": G.Window.unit(G.AxisSpec((1,)), (J + 2,)),
            "capped_steps": 10 if tiny else 16}


def deep_pass(inp: dict, ctx: PassContext) -> None:
    V, V3 = inp["V"], inp["V3"]
    fam = ctx.task("weights.reducing_family", W.reducing_family, V,
                   list(V.window.levels()), 1.5)
    certs = list(fam.certificates.values())
    ctx.certs(certs)
    ctx.check("reducing_family.cert_cap_5",
              all(hi / lo <= 5.0 for lo, hi in certs))
    ctx.check("reducing_family.cert_balanced",
              all(lo <= 1 + 1e-9 and hi >= 1 - 1e-9 for lo, hi in certs))
    rm = ctx.task("maximal.reducing_maximal", M.reducing_maximal, V)
    c = rm.extra["certs"]
    ctx.certs(c)
    ctx.check("reducing_maximal.cert_bracket",
              (c[:, 0] <= 1 + 1e-9).all() and (c[:, 1] >= 1 - 1e-9).all())
    ctx.check("reducing_maximal.cert_cap_2", (c[:, 1] / c[:, 0] <= 2.0).all())

    mu = Q.LevelDistribution()
    for s in range(1, inp["capped_steps"] + 1):
        mu = ctx.task("quilts.distribution_step", Q.distribution_step, mu,
                      4096, 192)
        ctx.check(f"capped.{s}.mass_and_mean_one",
                  mass_and_mean(mu.probs) == (1, 1))
        ctx.exact(f"capped.{s}", law_digest(mu.probs))

    P = inp["params"]
    ctx.floats("composition_constant",
               ctx.task("almost_diagonal.composition_constant",
                        AD.composition_constant, P, P, inp["comp_window"]))

    w3 = V3.window
    fam2 = ctx.task("weights.reducing_family", W.reducing_family, V3,
                    list(w3.levels()), 2.0)
    worst = 0.0
    for R, A in fam2.matrices.items():
        cells = V3.field.values[w3.rect_slices(R)].reshape(-1, 2, 2)
        Gm = (cells.transpose(0, 2, 1) @ cells).mean(axis=0)
        worst = max(worst, float(np.max(np.abs(A @ A - Gm))))
    ctx.check("reducing_family_p2.exact_1e-12", worst < 1e-12)
    oms = ctx.task("carleson.dyadic_omega_family", C.dyadic_omega_family, w3)
    acarl = ctx.task("carleson.acarl_functional", C.acarl_functional, V3,
                     fam2, 2.0, oms)
    ctx.check("acarl.finite_positive", math.isfinite(acarl) and acarl > 0)
    dbl = ctx.task("weights.doubling_check",
                   lambda: W.doubling_check(fam2, weak=1.0))
    # every rectangle pairs with itself, where the quotient is exactly 1
    ctx.check("doubling.at_least_one", dbl >= 1.0 - 1e-12)


WORKLOADS = {
    "cli_sweep": (cli_inputs, cli_pass),
    "quilt_laws": (quilt_inputs, quilt_pass),
    "deep_sweep": (deep_inputs, deep_pass),
}
assert WORKLOADS.keys() == layers.WORKLOADS.keys()


def load_refs(workload: str, size: str) -> dict:
    return _read_json(REFS)[workload][size]
