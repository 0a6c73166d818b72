"""Dyadic maximal operators on lattice windows.

Covers the strong maximal operator (all dyadic rectangles), the
matrix-weighted maximal operator, and its reducing-operator-valued
version.  All suprema are exact over the finite window lattice.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PiecewiseField, block_lp, expand_mask
from .weights import MatrixWeight, _balanced_fit, _unit_dirs

__all__ = [
    "MaximalResult", "strong_maximal", "weighted_maximal",
    "reducing_maximal", "operator_norm_estimate",
]

@dataclass
class MaximalResult:
    field: PiecewiseField
    extra: dict = None


def strong_maximal(f: PiecewiseField, p: float = 1.0) -> MaximalResult:
    """sup over dyadic rectangles R containing the point of the normalized
    L^p average of |f| on R."""
    w = f.window
    g = f.magnitude()
    out = np.zeros(w.shape)
    for j in w.levels():
        np.maximum(out, expand_mask(w, block_lp(w, g, j, p), j), out=out)
    return MaximalResult(PiecewiseField(w, out))


def weighted_maximal(V: MatrixWeight, f: PiecewiseField,
                     v: float = 1.0) -> MaximalResult:
    """M_V f(x) = sup over R containing x of
    (avg over R of |V(x) V(y)^{-1} f(y)|^v dy)^{1/v}."""
    w = f.window
    m = V.m
    if f.kind == "scalar":
        fv = f.values[..., None] * np.ones(m)
    else:
        fv = f.values
    h = np.einsum("...ab,...b->...a", V.inv_values, fv).reshape(-1, m)
    Vx = V.field.values.reshape(-1, m, m)
    C = h.shape[0]
    # T[x, y] = |V(x) V(y)^{-1} f(y)|
    T = np.linalg.norm(np.einsum("xab,yb->xya", Vx, h), axis=-1)
    out = np.zeros(C)
    cell_index = np.arange(C).reshape(w.shape)
    for R in w.rects():
        sl = w.rect_slices(R)
        idx = cell_index[sl].reshape(-1)
        block = T[np.ix_(idx, idx)]
        vals = (block ** v).mean(axis=1) ** (1.0 / v)
        out[idx] = np.maximum(out[idx], vals)
    return MaximalResult(PiecewiseField(w, out.reshape(w.shape)))


def reducing_maximal(F: MatrixWeight, v: float = 1.0,
                     rng=None) -> MaximalResult:
    """Operator-valued maximal function: per cell, an SPD matrix whose
    action on e tracks the scalar maximal function of y -> |F(y) e|,
    fitted by an enclosing ellipsoid over sampled directions."""
    rng = np.random.default_rng(0) if rng is None else rng
    w = F.window
    m = F.m
    dirs = _unit_dirs(m, 32, rng)
    fresh = _unit_dirs(m, 64, rng)
    alld = np.concatenate([dirs, fresh])
    # S[d, cells...] = maximal function of |F(.) e_d| at each cell
    S = np.stack([
        strong_maximal(PiecewiseField(
            w, np.linalg.norm(
                np.einsum("...ab,b->...a", F.field.values, d), axis=-1)
        ), p=v).field.values
        for d in alld])
    nfit = dirs.shape[0]
    out, certs = map(np.array, zip(*[
        _balanced_fit(dirs / s[:nfit, None], fresh, s[nfit:])
        for s in S.reshape(S.shape[0], -1).T]))
    res = PiecewiseField(w, out.reshape(w.shape + (m, m)))
    return MaximalResult(res, {"certs": certs})


def operator_norm_estimate(V: MatrixWeight, p: float, v: float = 1.0,
                           trials: int = 20, rng=None) -> float:
    """Lower estimate of the L^p operator norm of the weighted maximal
    operator: max over random vector fields of |M_V f|_p / | |f| |_p."""
    rng = np.random.default_rng(0) if rng is None else rng
    w = V.window
    m = V.m
    cellm = float(w.cell_measure)
    total = float(w.measure)
    best = 0.0
    for _ in range(trials):
        f = PiecewiseField(
            w, rng.standard_normal(w.shape + (m,))
            * 2.0 ** rng.uniform(-2, 2, w.shape + (1,)))
        num = ((weighted_maximal(V, f, v).field.values ** p).sum()
               * cellm / total) ** (1.0 / p)
        den = ((f.magnitude() ** p).sum() * cellm / total) ** (1.0 / p)
        best = max(best, num / den)
    return best
