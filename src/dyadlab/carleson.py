"""Carleson embedding functionals and the empirical embedding tester.

Three functionals of a nonnegative multiplier family gamma_j:

* rectangle functional: sup over levels j and level-j rectangles R of the
  normalized L^p(R) norm of gamma_j;
* open-set functional: sup over a family of open sets Omega of the
  normalized L^s(Omega) norm of sup_j 1_{Omega_j} gamma_j, where Omega_j
  is the union of level-j rectangles inside Omega;
* weight functional: the open-set functional of the weight multipliers
  gamma_j(x) = |V(x) A_R^{-1}|, R the level-j rectangle containing x, built
  from a matrix weight V through its reducing operators A_R.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import OpenSet, Window, block_lp, expand_mask, level_mask
from .mixed_norms import NormSpec, iterated_norm
from .weights import MatrixWeight, ReducingFamily, op_norm

__all__ = [
    "MultiplierFamily", "rect_functional", "open_functional",
    "rect_truncated_functional", "acarl_functional", "weight_multipliers",
    "embedding_ratio", "all_open_sets", "dyadic_omega_family",
]

INF = math.inf


@dataclass
class MultiplierFamily:
    """Levels j -> nonnegative scalar grid over the window's base cells."""
    window: Window
    gammas: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for j, g in self.gammas.items():
            if np.min(g) < 0:
                raise ValueError(f"negative multiplier at level {j}")

    def scale(self, c: float) -> "MultiplierFamily":
        return MultiplierFamily(self.window,
                                {j: c * g for j, g in self.gammas.items()})


def rect_functional(gamma: MultiplierFamily, p: float) -> float:
    """sup_j sup over level-j rectangles of |gamma_j|_{Lp(R)}."""
    best = 0.0
    for j, g in gamma.gammas.items():
        best = max(best, float(block_lp(gamma.window, g, j, p).max()))
    return best


def open_functional(gamma: MultiplierFamily, s: float, omegas) -> float:
    """sup over the open-set family of |sup_j 1_{Omega_j} gamma_j|_{Ls(Omega)}."""
    w = gamma.window
    best = 0.0
    for om in omegas:
        count = int(om.mask.sum())
        if count == 0:
            continue
        top = np.zeros(w.shape)
        for j, g in gamma.gammas.items():
            coarse = level_mask(om, j)
            if coarse.any():
                np.maximum(top, g * expand_mask(w, coarse, j), out=top)
        vals = top[om.mask]
        if s == INF:
            best = max(best, float(vals.max()))
        else:
            best = max(best, float(((vals ** s).sum() / count) ** (1.0 / s)))
    return best


def rect_truncated_functional(gamma: MultiplierFamily, s: float) -> float:
    """One-parameter collapse of the open functional: sup over dyadic Q of
    |sup_{j >= j_Q} gamma_j|_{Ls(Q)}."""
    w = gamma.window
    if w.axes.k != 1:
        raise ValueError("one-parameter windows only")
    best = 0.0
    for jQ in w.levels():
        top = np.zeros(w.shape)
        for j, g in gamma.gammas.items():
            if j[0] >= jQ[0]:
                np.maximum(top, g, out=top)
        coarse = block_lp(w, top, jQ, s)
        best = max(best, float(coarse.max()))
    return best


def all_open_sets(window: Window, max_cells: int = 14):
    """Every nonempty union of base cells (exhaustive; tiny windows only)."""
    cells = int(np.prod(window.shape))
    if cells > max_cells:
        raise ValueError(f"window has {cells} cells; exhaustion capped "
                         f"at {max_cells}")
    for bits in itertools.product([False, True], repeat=cells):
        if any(bits):
            yield OpenSet(window, np.array(bits).reshape(window.shape))


def dyadic_omega_family(window: Window):
    """All single dyadic rectangles of the window, as open sets."""
    return [OpenSet.from_rect(window, R) for R in window.rects()]


def acarl_functional(V: MatrixWeight, fam: ReducingFamily, s: float,
                     omegas) -> float:
    """sup over the family of (avg over Omega of
    sup_{R: x in R inside Omega} |V(x) A_R^{-1}|^s dx)^{1/s}: the open
    functional of the primal weight multipliers.  The family must hold
    every rectangle of each of its levels, as ``reducing_family`` builds."""
    return open_functional(weight_multipliers(V, fam), s, omegas)


def weight_multipliers(V: MatrixWeight, fam: ReducingFamily,
                       dual: bool = False) -> MultiplierFamily:
    """gamma_j(x) = |V(x) A_R^{-1}| (primal) or |A_R V(x)^{-1}| (dual),
    with R the level-j rectangle containing x."""
    w = V.window
    at_level = fam.level_weight(w)
    gammas = {}
    for j in sorted({R.levels for R in fam.matrices}):
        Aj = at_level(j).values
        gammas[j] = op_norm(Aj @ V.inv_values) if dual \
            else op_norm(V.field.values @ np.linalg.inv(Aj))
    return MultiplierFamily(w, gammas)


def random_level_constant(window: Window, levels, rng,
                          log_range: float = 3.0):
    """Random family f_j, each constant on level-j rectangles with i.i.d.
    log-uniform magnitudes."""
    out = {}
    for j in levels:
        coarse = 2.0 ** rng.uniform(-log_range, log_range,
                                    window.coarse_shape(j))
        out[j] = expand_mask(window, coarse, j)
    return out


def embedding_ratio(gamma: MultiplierFamily, spec: NormSpec,
                    trials: int = 20, seed: int = 0) -> dict:
    """Monte-Carlo ratios |{gamma_j f_j}|_X / |{f_j}|_X over random
    level-constant families, in the spec's mixed norm."""
    w = gamma.window
    rng = np.random.default_rng(seed)
    levels = sorted(gamma.gammas)
    ratios = []
    for _ in range(trials):
        f = random_level_constant(w, levels, rng)
        num = iterated_norm(w, {j: gamma.gammas[j] * f[j] for j in levels},
                            spec.p, spec.q, spec.pi)
        den = iterated_norm(w, f, spec.p, spec.q, spec.pi)
        ratios.append(num / den)
    return {"max": float(np.max(ratios)), "mean": float(np.mean(ratios))}
