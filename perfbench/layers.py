"""The names the benchmark shares (layers, workloads, cases, subcommands)
and the per-layer metrics of a traced pass, named ``<layer>.<metric>``.

Nothing here imports dyadlab or numpy, so run.py can use it before it
knows whether the sources are there.

Times are the inclusive span totals of the named public function; a
layer's ``self_s`` is the time its spans cover minus the time their child
spans cover.  Sizes (``pairs``, ``triples``, ``grid_cells``, ``cells``,
``omegas``, ``points``) are computed from each call's arguments or result,
so they do not depend on how the layer is implemented.
``almost_diagonal.tail_bound_max`` skips the infinite bounds of kernels
below a decay threshold (the necessity witnesses).
"""
from __future__ import annotations

import math

# the layers: one dyadlab module each
MODULES = ("geometry", "mixed_norms", "weights", "maximal", "carleson",
           "almost_diagonal", "quilts", "counterexamples", "cli")

# hot leaves, tens of thousands of calls per pass and a few microseconds
# each: the tracer counts them instead of timing them
COUNT_ONLY = frozenset({
    "almost_diagonal.ad_entry", "weights.op_norm", "geometry.level_mask",
})

# workload name -> what its seed is used for
WORKLOADS = {"cli_sweep": "passed to every subcommand as --seed",
             "quilt_laws": "unused: the workload has no randomness",
             "deep_sweep": "draws the two random SPD fields"}

# counterexample cases with the parameters used by the demos and tests
CASES = (
    ("CARL_SP", {"p": 1, "q": 0.5, "s": 1}),
    ("CARL_RECT_B", {"p": 1, "q": 0.5, "s": 1}),
    ("CARL_RECT_A", {"p": 1, "q": 4, "s": 2}),
    ("CARL_OPEN_MULTI", {"p": 1, "q": 4, "s": 2}),
    ("MIXED_PERM_GAMMA", {"p": 1, "q1": 1, "q2": 4, "s": 2}),
    ("MIXED_PERM_COM", {"p": 1, "qb": 4, "s": 2}),
    ("MAXIMAL_NONADM", {"q": 2}),
    ("EQUIV_SUB_TAU", {"p": 1, "tau": 0.25}),
    ("EQUIV_SUB_CRIT", {"p": 2, "q": 1, "a": 1.5}),
    ("INTERP_FAIL", {"s0": (0, 0), "s1": (1, 1), "theta": 0.5, "q": 1}),
    ("AP_INTERP_FAIL", {"p0": 2 / 3, "p1": 4, "theta": 0.5, "alpha": 2.5}),
)

# cli_sweep's subcommands, in the order they run (counterexample cases
# run before report)
SUBCOMMANDS = ("quilt", "sigma", "norms", "weights", "maximal", "carleson",
               "ad", "report")

# name -> unit, in the order they are printed
PER_LAYER = {
    "geometry.rects_enumerated": "count",
    "geometry.rects_at_level_s": "s",
    "geometry.block_reduce_calls": "count",
    "geometry.block_reduce_s": "s",
    "geometry.expand_mask_s": "s",
    "mixed_norms.a_norm_calls": "count",
    "mixed_norms.a_norm_s": "s",
    "mixed_norms.iterated_norm_calls": "count",
    "mixed_norms.iterated_norm_s": "s",
    "mixed_norms.grid_cells": "count",
    "weights.mvee_calls": "count",
    "weights.mvee_s": "s",
    "weights.mvee_ms_per_call": "ms",
    "weights.reduce_general_s": "s",
    "weights.reducing_family_s": "s",
    "weights.ap_constant_s": "s",
    "weights.ap_pairs": "count",
    "weights.doubling_check_s": "s",
    "maximal.reducing_maximal_s": "s",
    "maximal.weighted_maximal_s": "s",
    "maximal.operator_norm_estimate_s": "s",
    "maximal.cells": "count",
    "carleson.acarl_functional_s": "s",
    "carleson.open_functional_s": "s",
    "carleson.omegas": "count",
    "almost_diagonal.apply_ad_calls": "count",
    "almost_diagonal.apply_ad_s": "s",
    "almost_diagonal.pairs": "count",
    "almost_diagonal.pairs_per_s": "1/s",
    "almost_diagonal.ad_entry_calls": "count",
    "almost_diagonal.composition_constant_s": "s",
    "almost_diagonal.triples": "count",
    "almost_diagonal.empirical_norm_s": "s",
    "almost_diagonal.necessity_curve_s": "s",
    "almost_diagonal.tail_bound_max": "ratio",
    "quilts.exact_step_s": "s",
    "quilts.exact_last_step_s": "s",
    "quilts.lemma_step_check_s": "s",
    "quilts.capped_step_s": "s",
    "quilts.support_max": "count",
    "quilts.den_bits_max": "count",
    "quilts.packed_path_frac": "ratio",
    "counterexamples.measure_s": "s",
    "counterexamples.points": "count",
    **{f"cli.{sub}_s": "s" for sub in SUBCOMMANDS},
    **{f"cli.counterexample.{case}_s": "s" for case, _ in CASES},
    "cli.checks": "count",
    "cli.checks_failed": "count",
    **{f"{layer}.self_s": "s" for layer in MODULES + ("bench",)},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.counted_calls": "count",
    "checks_failed_frac": "ratio",
}


def _n_rects(window) -> int:
    """Dyadic rectangles of a window, counted from its level ranges."""
    total = 0
    for j in window.levels():
        total += math.prod(window.coarse_shape(j))
    return total


def _arg(args, kw, i, name, default=None):
    return args[i] if len(args) > i else kw.get(name, default)


def _sized(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _packed(probs) -> bool:
    """Input of the packed-integer path: non-negative integer support and
    power-of-two denominators."""
    return all(isinstance(k, int) and k >= 0 for k in probs) and all(
        int(p.denominator) & (int(p.denominator) - 1) == 0
        for p in probs.values())


def _step(tr, args, kw, out, dur):
    capped = _arg(args, kw, 1, "cap") is not None
    if capped:
        tr.count("quilts.capped_step_s", dur)
    else:
        tr.count("quilts.exact_step_s", dur)
        # the last exact step of the pass, not the slowest
        tr.maxima["quilts.exact_last_step_s"] = dur
    tr.count("quilts.steps")
    tr.count("quilts.packed_steps", _packed(args[0].probs))
    tr.peak("quilts.support_max", len(out.probs))
    tr.peak("quilts.den_bits_max", max(int(p.denominator).bit_length()
                                       for p in out.probs.values()))


def _apply_ad(tr, args, kw, out, dur):
    tr.count("almost_diagonal.pairs", _n_rects(args[2]) * len(args[1].data))
    if math.isfinite(out[1]):
        tr.peak("almost_diagonal.tail_bound_max", out[1])


def _iterated(tr, args, kw, out, dur):
    window, values = args[0], args[1]
    if values:
        k = window.axes.k
        levels = math.prod(len({j[i] for j in values}) for i in range(k))
        tr.count("mixed_norms.grid_cells", levels * math.prod(window.shape))


HOOKS = {
    "quilts.distribution_step": _step,
    "mixed_norms.iterated_norm": _iterated,
    "almost_diagonal.apply_ad": _apply_ad,
    "almost_diagonal.composition_constant": lambda tr, a, kw, out, dur:
        tr.count("almost_diagonal.triples", _n_rects(a[2]) ** 3),
    "weights.ap_constant": lambda tr, a, kw, out, dur:
        tr.count("weights.ap_pairs", _sized(_arg(a, kw, 2, "pairs"))),
    "maximal.reducing_maximal": lambda tr, a, kw, out, dur:
        tr.count("maximal.cells", math.prod(a[0].window.shape)),
    "maximal.weighted_maximal": lambda tr, a, kw, out, dur:
        tr.count("maximal.cells", math.prod(a[1].window.shape)),
    "carleson.open_functional": lambda tr, a, kw, out, dur:
        tr.count("carleson.omegas", _sized(_arg(a, kw, 2, "omegas"))),
    "carleson.acarl_functional": lambda tr, a, kw, out, dur:
        tr.count("carleson.omegas", _sized(_arg(a, kw, 3, "omegas"))),
    "counterexamples.measure": lambda tr, a, kw, out, dur:
        tr.count("counterexamples.points", len(out.points)),
}

# metric -> traced function whose inclusive time it reports
_TIMES = {
    "geometry.rects_at_level_s": "geometry.rects_at_level",
    "geometry.block_reduce_s": "geometry.block_reduce",
    "geometry.expand_mask_s": "geometry.expand_mask",
    "mixed_norms.a_norm_s": "mixed_norms.a_norm",
    "mixed_norms.iterated_norm_s": "mixed_norms.iterated_norm",
    "weights.mvee_s": "weights.mvee",
    "weights.reduce_general_s": "weights.reduce_general",
    "weights.reducing_family_s": "weights.reducing_family",
    "weights.ap_constant_s": "weights.ap_constant",
    "weights.doubling_check_s": "weights.doubling_check",
    "maximal.reducing_maximal_s": "maximal.reducing_maximal",
    "maximal.weighted_maximal_s": "maximal.weighted_maximal",
    "maximal.operator_norm_estimate_s": "maximal.operator_norm_estimate",
    "carleson.acarl_functional_s": "carleson.acarl_functional",
    "carleson.open_functional_s": "carleson.open_functional",
    "almost_diagonal.apply_ad_s": "almost_diagonal.apply_ad",
    "almost_diagonal.composition_constant_s":
        "almost_diagonal.composition_constant",
    "almost_diagonal.empirical_norm_s": "almost_diagonal.empirical_norm",
    "almost_diagonal.necessity_curve_s": "almost_diagonal.necessity_curve",
    "quilts.lemma_step_check_s": "quilts.lemma_step_check",
    "counterexamples.measure_s": "counterexamples.measure",
    **{f"cli.{sub}_s": f"cli.{sub}" for sub in SUBCOMMANDS},
    **{f"cli.counterexample.{case}_s": f"cli.counterexample.{case}"
       for case, _ in CASES},
}

_CALLS = {
    "geometry.block_reduce_calls": "geometry.block_reduce",
    "mixed_norms.a_norm_calls": "mixed_norms.a_norm",
    "mixed_norms.iterated_norm_calls": "mixed_norms.iterated_norm",
    "weights.mvee_calls": "weights.mvee",
    "almost_diagonal.apply_ad_calls": "almost_diagonal.apply_ad",
    "almost_diagonal.ad_entry_calls": "almost_diagonal.ad_entry",
}


def layer_metrics(tr, ctx, wall: float) -> dict:
    """Every PER_LAYER metric except the untraced wall and the overhead,
    which need the untraced run."""
    out = {}
    for metric, fn in _TIMES.items():
        out[metric] = tr.total.get(fn, 0.0)
    for metric, fn in _CALLS.items():
        out[metric] = tr.calls.get(fn, 0)
    for metric in ("mixed_norms.grid_cells", "weights.ap_pairs",
                   "maximal.cells", "carleson.omegas",
                   "almost_diagonal.pairs", "almost_diagonal.triples",
                   "counterexamples.points", "quilts.exact_step_s",
                   "quilts.capped_step_s"):
        out[metric] = tr.counts.get(metric, 0)
    for metric in ("almost_diagonal.tail_bound_max",
                   "quilts.exact_last_step_s", "quilts.support_max",
                   "quilts.den_bits_max"):
        out[metric] = tr.maxima.get(metric, 0)
    out["geometry.rects_enumerated"] = tr.counts.get(
        "geometry.rects_at_level.yields", 0)
    calls = out["weights.mvee_calls"]
    out["weights.mvee_ms_per_call"] = (
        1e3 * out["weights.mvee_s"] / calls if calls else 0.0)
    ad_s = out["almost_diagonal.apply_ad_s"]
    out["almost_diagonal.pairs_per_s"] = (
        out["almost_diagonal.pairs"] / ad_s if ad_s else 0.0)
    steps = tr.counts.get("quilts.steps", 0)
    out["quilts.packed_path_frac"] = (
        tr.counts.get("quilts.packed_steps", 0) / steps if steps else 0.0)
    out["cli.checks"] = ctx.cli_checks
    out["cli.checks_failed"] = ctx.cli_failed
    for layer in MODULES + ("bench",):
        out[f"{layer}.self_s"] = tr.self_s.get(layer, 0.0)
    out["trace.wall_s"] = wall
    out["trace.spans"] = len(tr.spans)
    out["trace.counted_calls"] = sum(
        n for name, n in tr.calls.items() if name in COUNT_ONLY)
    n = len(ctx.checks)
    out["checks_failed_frac"] = len(ctx.failed_checks) / n if n else 0.0
    return {m: int(v) if PER_LAYER[m] == "count" else v
            for m, v in out.items()}

