"""Batch experiment runner: every module gets a subcommand that runs its
standard checks, writes JSON verdicts plus CSV curves, and drops a
reproducibility manifest (config, config hash, version, wall clock,
per-check pass/fail).  The hash leaves out where files go (``out``,
``results_dir``, ``config``), so identical inputs give the same hash and
bit-identical result and CSV files in any directory.  Manifests also
record the output path and wall clock; the report keeps neither.

Subcommands: quilt, sigma, norms, weights, maximal, carleson, ad,
counterexample, report.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__

INF = math.inf


# ----------------------------------------------------------------------
# plumbing

# config keys that say where files go, not what is computed
_NOT_HASHED = ("out", "config", "results_dir")


def _canonical(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def _write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _write_csv(path: str, header, rows) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)
    os.replace(tmp, path)


def _finish(out: str, command: str, cfg: dict, checks: dict,
            t0: float, results: dict) -> int:
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, f"{command}_results.json"), results)
    inputs = {k: v for k, v in cfg.items() if k not in _NOT_HASHED}
    manifest = {
        "command": command,
        "config": cfg,
        "config_hash": hashlib.sha256(
            _canonical(inputs).encode()).hexdigest(),
        "version": __version__,
        "wall_clock_s": round(time.monotonic() - t0, 3),
        "checks": checks,
    }
    _write_json(os.path.join(out, f"manifest_{command}.json"), manifest)
    return 0 if all(checks.values()) else 1


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    for key, val in vars(args).items():
        if key in ("config", "func") or val is None:
            continue
        cfg[key] = val
    cfg.setdefault("seed", 0)
    cfg.setdefault("out", "out")
    os.makedirs(cfg["out"], exist_ok=True)
    return cfg


# ----------------------------------------------------------------------
# subcommands

def cmd_quilt(args):
    from .quilts import (quilt_refine, quilt_validate, sigma_sequence,
                         unit_quilt)
    t0 = time.monotonic()
    cfg = _load_config(args)
    gens = cfg.get("generations", 3)
    sig = sigma_sequence(gens, exact=True)
    q = unit_quilt()
    rows, checks = [], {}
    for g in range(1, gens + 1):
        q = quilt_refine(q)
        rep = quilt_validate(q)
        exact_sigma = rep["sigma"] == sig[g]
        checks[f"gen{g}_total_one"] = rep["total"] == 1
        checks[f"gen{g}_packing"] = bool(rep["worst_packing"] <= 1)
        checks[f"gen{g}_sigma_matches_recursion"] = bool(exact_sigma)
        rows.append((g, len(q.rects), str(rep["sigma"]),
                     float(rep["sigma"])))
    _write_csv(os.path.join(cfg["out"], "quilt_sigma.csv"),
               ["generation", "rects", "sigma_exact", "sigma_float"],
               rows)
    results = {"generations": gens,
               "sigma": {g: str(sig[g]) for g in range(1, gens + 1)}}
    return _finish(cfg["out"], "quilt", cfg, checks, t0, results)


def cmd_sigma(args):
    from .quilts import sigma_float
    t0 = time.monotonic()
    cfg = _load_config(args)
    n = cfg.get("n", 10000)
    vals = sigma_float(n)
    rows = [(i, vals[i], i * vals[i]) for i in range(1, n + 1)]
    _write_csv(os.path.join(cfg["out"], "sigma_sequence.csv"),
               ["n", "sigma_n", "n_sigma_n"], rows)
    tail = [i * vals[i] for i in range(min(1000, n), n + 1)]
    checks = {"tail_in_asymptotic_band":
              bool(tail and 3.9 <= min(tail) and max(tail) <= 4.1)}
    results = {"n": n, "n_sigma_n_last": rows[-1][2],
               "tail_min": min(tail) if tail else None,
               "tail_max": max(tail) if tail else None}
    return _finish(cfg["out"], "sigma", cfg, checks, t0, results)


def cmd_norms(args):
    from .geometry import AxisSpec, DyadicRect, Window
    from .mixed_norms import (CoeffSeq, NormSpec, Permutation, a_norm,
                              tensor_seq)
    t0 = time.monotonic()
    cfg = _load_config(args)
    rng = np.random.default_rng(cfg["seed"])
    axes1 = AxisSpec((1,))
    w1 = Window.unit(axes1, (2,))
    w2 = Window.unit(AxisSpec((1, 1)), (2, 2))
    worst_tensor, worst_perm = 0.0, 0.0
    for _ in range(cfg.get("trials", 10)):
        parts = []
        for _ in range(2):
            data = {}
            for j in range(3):
                off = int(rng.integers(0, 2 ** j))
                data[DyadicRect(axes1, (j,), ((off,),))] = \
                    np.abs(rng.standard_normal(1)) + 0.1
            parts.append(CoeffSeq(axes1, data))
        t = tensor_seq(parts)
        spec2 = NormSpec((0.3, -0.2), 0.0, (1.5, 2.0), (1.0, 3.0),
                         Permutation.besov(2))
        lhs = a_norm(t, spec2, w2)
        rhs = 1.0
        for i, part in enumerate(parts):
            s1 = NormSpec((spec2.s[i],), 0.0, (spec2.p[i],),
                          (spec2.q[i],), Permutation.besov(1))
            rhs *= a_norm(part, s1, w1)
        worst_tensor = max(worst_tensor, abs(lhs - rhs) / rhs)
        # permutation invariance when all exponents coincide
        same = [a_norm(t, NormSpec((0.0, 0.0), 0.0, (2.0, 2.0),
                                   (2.0, 2.0), pi), w2)
                for pi in (Permutation.besov(2), Permutation.tl(2))]
        worst_perm = max(worst_perm,
                         abs(same[0] - same[1]) / abs(same[0]))
    checks = {"tensor_factorization_1e-9": worst_tensor < 1e-9,
              "permutation_invariance_1e-9": worst_perm < 1e-9}
    results = {"max_tensor_err": worst_tensor, "max_perm_err": worst_perm}
    return _finish(cfg["out"], "norms", cfg, checks, t0, results)


def cmd_weights(args):
    from fractions import Fraction
    from .geometry import AxisSpec, PiecewiseField, Window
    from .weights import (MatrixWeight, ap_constant, diag_pairs,
                          random_spd_field, reduce_exact_p2,
                          reduce_general)
    t0 = time.monotonic()
    cfg = _load_config(args)
    rng = np.random.default_rng(cfg["seed"])
    axes = AxisSpec((1,))
    w = Window.unit(axes, (2,))
    # constant weight
    Vc = MatrixWeight(PiecewiseField(w, np.broadcast_to(
        np.eye(2), w.shape + (2, 2)).copy()))
    c1 = ap_constant(Vc, 2.0, list(diag_pairs(w))).constant
    # scalar two-cell weight {1, 3}
    w1 = Window.unit(axes, (1,))
    V2 = MatrixWeight(PiecewiseField(
        w1, np.array([1.0, 3.0]).reshape(2, 1, 1)))
    c2 = ap_constant(V2, 2.0, list(diag_pairs(w1))).constant
    # reducing operator certificates
    worst_p2, worst_ratio = 0.0, 0.0
    for _ in range(cfg.get("trials", 20)):
        m = int(rng.integers(1, 4))
        F = random_spd_field(w, m, rng)
        cells = F.field.values.reshape(-1, m, m)
        A = reduce_exact_p2(F)
        G = (cells.transpose(0, 2, 1) @ cells).mean(axis=0)
        worst_p2 = max(worst_p2, float(np.max(np.abs(A @ A - G))))
        _, (lo, hi), _ = reduce_general(F, None, 1.5, rng=rng)
        worst_ratio = max(worst_ratio, hi / lo)
    checks = {
        "constant_weight_unit": abs(c1 - 1.0) < 1e-10,
        "two_cell_5_over_3": abs(c2 - 5.0 / 3.0) < 1e-12,
        "p2_reduction_exact": worst_p2 < 1e-12,
        "certificate_ratio_cap": worst_ratio <= 5.0,
    }
    results = {"constant_weight": c1, "two_cell": c2,
               "two_cell_exact": str(Fraction(5, 3)),
               "max_p2_residual": worst_p2,
               "max_certificate_ratio": worst_ratio}
    return _finish(cfg["out"], "weights", cfg, checks, t0, results)


def _power_step_weight(J: int, beta: float):
    from .geometry import AxisSpec, DyadicRect, PiecewiseField, Window
    from .weights import MatrixWeight
    axes = AxisSpec((1,))
    w = Window(DyadicRect(axes, (-J,), ((0,),)), (0,))
    x = np.arange(2 ** J) + 0.5
    return MatrixWeight(PiecewiseField(w, (x ** beta).reshape(-1, 1, 1)))


def cmd_maximal(args):
    from .maximal import operator_norm_estimate
    t0 = time.monotonic()
    cfg = _load_config(args)
    rng = np.random.default_rng(cfg["seed"])
    rows, checks = [], {}
    for p in (1.5, 2.0, 3.0):
        ests = []
        for J in (2, 3, 4):
            V = _power_step_weight(J, 0.2)
            ests.append(operator_norm_estimate(V, p, trials=10, rng=rng))
            rows.append((p, J, ests[-1]))
        spread = max(ests) / min(ests)
        checks[f"p{p}_doubling_stable"] = bool(spread < 2.0)
    _write_csv(os.path.join(cfg["out"], "maximal_norms.csv"),
               ["p", "J", "operator_norm_estimate"], rows)
    return _finish(cfg["out"], "maximal", cfg, checks, t0,
                   {"rows": len(rows)})


def cmd_carleson(args):
    from .geometry import AxisSpec, Window
    from .carleson import (MultiplierFamily, all_open_sets,
                           open_functional, rect_functional,
                           rect_truncated_functional)
    t0 = time.monotonic()
    cfg = _load_config(args)
    rng = np.random.default_rng(cfg["seed"])
    axes = AxisSpec((1,))
    w = Window.unit(axes, (3,))
    worst, rect_over = 0.0, 0.0
    oms = list(all_open_sets(w, max_cells=8))
    for _ in range(cfg.get("trials", 10)):
        gam = MultiplierFamily(
            w, {j: 2.0 ** rng.uniform(-2, 2, w.shape)
                for j in w.levels()})
        for s in (0.7, 1.0, 2.0):
            a = open_functional(gam, s, oms)
            b = rect_truncated_functional(gam, s)
            worst = max(worst, abs(a - b) / b)
            # necessity: the rectangle functional never exceeds it
            rect_over = max(rect_over, rect_functional(gam, s) / b)
    checks = {"open_vs_rect_identity_1e-12": worst < 1e-12,
              "rect_at_most_truncated": rect_over <= 1.0}
    return _finish(cfg["out"], "carleson", cfg, checks, t0,
                   {"max_identity_err": worst})


def cmd_ad(args):
    from .geometry import AxisSpec, Window
    from .almost_diagonal import (ADParams, empirical_norm,
                                  necessity_curve, necessity_witness,
                                  sufficiency_check)
    from .mixed_norms import NormSpec, Permutation
    t0 = time.monotonic()
    cfg = _load_config(args)
    seed = cfg["seed"]
    axes = AxisSpec((1, 1))
    windows = [Window.unit(axes, (J, J)) for J in (1, 2, 3)]
    spec = NormSpec((0.0, 0.0), 0.0, (1.5, 2.0), (2.0, 2.0),
                    Permutation.besov(2))
    params = ADParams((3.0, 3.0), (2.0, 2.0), (2.0, 2.0))
    curve = empirical_norm(params, spec, windows, trials=5, seed=seed)
    stable = max(curve) / min(curve) < 2.0
    rows = [("sufficient", J + 1, c) for J, c in enumerate(curve)]
    checks = {"sufficient_curve_stable": bool(stable),
              "sufficient_kernel_meets_thresholds":
              sufficiency_check(params, spec, (1, 1)).all_ok}
    for kind in ("D", "E", "F"):
        # the witness breaks its own threshold on axis 0 and no other
        rep = sufficiency_check(*necessity_witness(kind)[:2], (1, 1))
        checks[f"witness_{kind}_fails_only_{kind}"] = \
            rep.failed == {(kind, 0)}
        pts, pred = necessity_curve(kind, [2, 4, 6], gap=1.0)
        x = np.log2([2 ** J for J, _ in pts])
        y = np.log2([r for _, r in pts])
        slope = float(np.polyfit(x, y, 1)[0])
        checks[f"necessity_{kind}_slope"] = slope >= 0.8 * pred
        rows += [(f"necessity_{kind}", J, r) for J, r in pts]
    _write_csv(os.path.join(cfg["out"], "ad_curves.csv"),
               ["series", "J", "value"], rows)
    return _finish(cfg["out"], "ad", cfg, checks, t0,
                   {"sufficient_curve": curve})


_CASE_PARAMS = ("p", "q", "s", "q1", "q2", "qb", "tau", "a", "theta",
                "alpha", "p0", "p1", "t", "d", "n")


def cmd_counterexample(args):
    from .counterexamples import (CaseSpec, control_spec, fit_slope,
                                  measure)
    t0 = time.monotonic()
    cfg = _load_config(args)
    case = cfg["case"]
    params = {k: cfg[k] for k in _CASE_PARAMS if k in cfg}
    if case == "INTERP_FAIL":
        params["s0"] = tuple(cfg["s0"])
        params["s1"] = tuple(cfg["s1"])
    spec = CaseSpec(case, params)
    if "N_grid" in cfg:
        Ns = cfg["N_grid"]
    elif case in ("INTERP_FAIL",):
        Ns = [2, 4, 8, 16]
    elif case in ("AP_INTERP_FAIL",):
        Ns = [2, 3, 4, 5, 6, 7, 8]
    elif case in ("CARL_OPEN_MULTI",):
        Ns = [1, 2, 3]
    else:
        Ns = [2 ** t for t in range(4, 11)]
    curve = measure(spec, Ns)
    slope, resid = fit_slope(curve)
    rows = [(n, num, den, num / den) for n, num, den in curve.points]
    _write_csv(os.path.join(cfg["out"], f"counterexample_{case}.csv"),
               ["N", "numerator", "denominator", "ratio"], rows)
    pred = curve.predicted_slope
    checks = {"slope_at_least_80pct_of_predicted":
              bool(pred == 0.0 or slope >= 0.8 * pred)}
    results = {"case": case, "fitted_slope": slope,
               "predicted_slope": pred, "residual": resid,
               "size_label": curve.size_label}
    try:
        ctrl = control_spec(spec)
        cslope, _ = fit_slope(measure(ctrl, Ns))
        checks["control_slope_below_0.05"] = bool(cslope <= 0.05)
        results["control_slope"] = cslope
    except ValueError as exc:
        results["control"] = str(exc)
    return _finish(cfg["out"], "counterexample", cfg, checks, t0, results)


def cmd_report(args):
    t0 = time.monotonic()
    cfg = _load_config(args)
    src = cfg.get("results_dir", cfg["out"])
    manifests = sorted(f for f in os.listdir(src)
                       if f.startswith("manifest_") and f.endswith(".json"))
    if not manifests:
        print(f"no manifests found in {src}", file=sys.stderr)
        return 2
    rows, combined, checks = [], {}, {}
    for name in manifests:
        with open(os.path.join(src, name)) as fh:
            man = json.load(fh)
        combined[man["command"]] = {k: man[k] for k in (
            "command", "config_hash", "version", "checks")}
        for check, ok in man["checks"].items():
            rows.append((man["command"], check, int(ok)))
            checks[f"{man['command']}.{check}"] = ok
    _write_csv(os.path.join(cfg["out"], "report.csv"),
               ["command", "check", "passed"], rows)
    results = {"n_commands": len(combined),
               "n_checks": len(rows),
               "n_failed": sum(1 for *_, ok in rows if not ok),
               "manifests": combined}
    return _finish(cfg["out"], "report", cfg, checks, t0, results)


# ----------------------------------------------------------------------
# argument parsing

def _common(sub):
    sub.add_argument("--config", type=str, default=None,
                     help="JSON config; CLI flags override its keys")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dyadlab",
        description="dyadic-lattice experiment runner")
    sp = ap.add_subparsers(dest="command", required=True)

    q = sp.add_parser("quilt", help="refine and validate packing quilts")
    q.add_argument("--generations", type=int, default=None)
    q.set_defaults(func=cmd_quilt)

    s = sp.add_parser("sigma", help="coverage sequence table")
    s.add_argument("--n", type=int, default=None)
    s.set_defaults(func=cmd_sigma)

    n = sp.add_parser("norms", help="mixed-norm identity checks")
    n.add_argument("--trials", type=int, default=None)
    n.set_defaults(func=cmd_norms)

    w = sp.add_parser("weights", help="weight-constant checks")
    w.add_argument("--trials", type=int, default=None)
    w.set_defaults(func=cmd_weights)

    m = sp.add_parser("maximal", help="weighted maximal stability")
    m.set_defaults(func=cmd_maximal)

    c = sp.add_parser("carleson", help="functional identity checks")
    c.add_argument("--trials", type=int, default=None)
    c.set_defaults(func=cmd_carleson)

    a = sp.add_parser("ad", help="almost-diagonal curves")
    a.set_defaults(func=cmd_ad)

    x = sp.add_parser("counterexample", help="divergence-ratio curves")
    x.add_argument("--case", type=str, required=True)
    for nm in _CASE_PARAMS:
        x.add_argument(f"--{nm}", type=float, default=None)
    x.add_argument("--s0", type=float, nargs="+", default=None)
    x.add_argument("--s1", type=float, nargs="+", default=None)
    x.add_argument("--N-grid", dest="N_grid", type=int, nargs="+",
                   default=None)
    x.set_defaults(func=cmd_counterexample)

    r = sp.add_parser("report", help="consolidate manifests")
    r.add_argument("--results-dir", dest="results_dir", type=str,
                   default=None)
    r.set_defaults(func=cmd_report)

    for sub in (q, s, n, w, m, c, a, x, r):
        _common(sub)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
