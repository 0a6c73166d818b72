"""Permuted iterated mixed quasi-norms (L^p l^q)_pi and the sequence-space
quasi-norms built from them.

A mixed norm is an ordered "product" of k integral factors L^{p_i} (over the
space variable of parameter i) and k sum factors l^{q_i} (over the level
index of parameter i).  The order is a permutation of the 2k factors;
evaluation is innermost-first.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (AxisSpec, DyadicRect, OpenSet, PiecewiseField, Window,
                       expand_mask, level_mask)

__all__ = [
    "Permutation", "NormSpec", "CoeffSeq", "FieldFamily",
    "admissibility", "iterated_norm", "alpha_norm", "a_norm", "tensor_seq",
]

INF = math.inf


@dataclass(frozen=True)
class Permutation:
    """Order of the 2k factors, outermost first.

    Entries are 1..2k: value i <= k tags the integral factor L^{p_i},
    value k+i tags the sum factor l^{q_i}.
    """
    seq: tuple[int, ...]

    def __post_init__(self):
        n = len(self.seq)
        if n % 2 or sorted(self.seq) != list(range(1, n + 1)):
            raise ValueError("seq must be a permutation of 1..2k")

    @property
    def k(self) -> int:
        return len(self.seq) // 2

    @classmethod
    def besov(cls, k: int) -> "Permutation":
        """l^{q_1}...l^{q_k} L^{p_1}...L^{p_k} (sums outside)."""
        return cls(tuple(range(k + 1, 2 * k + 1)) + tuple(range(1, k + 1)))

    @classmethod
    def tl(cls, k: int) -> "Permutation":
        """L^{p_1}...L^{p_k} l^{q_1}...l^{q_k} (integrals outside)."""
        return cls(tuple(range(1, k + 1)) + tuple(range(k + 1, 2 * k + 1)))


def admissibility(pi: Permutation, p: tuple, q: tuple):
    """Return (is_admissible, mu, r).

    mu is the position (1-based) of the leftmost integral factor; the order
    is admissible iff among the exponents from position mu onwards all
    infinite ones sit at the end.  r is the minimum exponent from position
    mu onwards.
    """
    k = pi.k
    if len(p) != k or len(q) != k:
        raise ValueError("p, q must have length k")
    exps = list(p) + list(q)  # exps[label-1]
    mu = min(i for i in range(1, 2 * k + 1) if pi.seq[i - 1] <= k)
    tail = [exps[pi.seq[i - 1] - 1] for i in range(mu, 2 * k + 1)]
    seen_inf = False
    ok = True
    for e in tail:
        if e == INF:
            seen_inf = True
        elif seen_inf:
            ok = False
            break
    r = min(tail)
    return ok, mu, r


@dataclass
class FieldFamily:
    """Finitely many levels j -> piecewise-constant field on one window."""
    window: Window
    fields: dict[tuple[int, ...], PiecewiseField] = field(default_factory=dict)

    def levels(self):
        return list(self.fields.keys())


@dataclass(frozen=True)
class NormSpec:
    """Everything that determines a sequence-space quasi-norm."""
    s: tuple[float, ...]
    tau: float
    p: tuple[float, ...]
    q: tuple[float, ...]
    pi: Permutation
    omega_family: tuple = ()  # OpenSets used for the sup when tau > 0

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")


def _reduce(arr: np.ndarray, axes: tuple[int, ...], e, weight: float = 1.0):
    if not axes:
        return arr
    if e == INF:
        return arr.max(axis=axes)
    e = float(e)
    return (weight * (arr ** e).sum(axis=axes)) ** (1.0 / e)


def iterated_norm(window: Window, values: dict[tuple[int, ...], np.ndarray],
                  p: tuple, q: tuple, pi: Permutation) -> float:
    """Evaluate the permuted mixed norm of a level-indexed family of
    nonnegative scalar grids (one grid per level vector)."""
    axes = window.axes
    k = axes.k
    if len(p) != k or len(q) != k or pi.k != k:
        raise ValueError("exponent/permutation arity mismatch")
    if not values:
        return 0.0
    level_coords = [sorted({j[i] for j in values}) for i in range(k)]
    jshape = tuple(len(c) for c in level_coords)
    A = np.zeros(jshape + window.shape)
    for j, g in values.items():
        idx = tuple(level_coords[i].index(j[i]) for i in range(k))
        A[idx] = np.abs(np.asarray(g, dtype=float))

    # live axis bookkeeping: ('j', i) and ('x', c) -> current array axis
    axis_of = {("j", i): i for i in range(k)}
    for c in range(axes.total_dim):
        axis_of[("x", c)] = k + c

    def drop(gone: tuple[int, ...]):
        for key in list(axis_of):
            shift = sum(1 for g in gone if g < axis_of[key])
            axis_of[key] -= shift

    exps = list(p) + list(q)
    for pos in range(2 * k - 1, -1, -1):
        label = pi.seq[pos]
        e = exps[label - 1]
        if label <= k:
            i = label - 1
            red = tuple(sorted(axis_of[("x", c)] for c in axes.param_coords(i)))
            w = float(window.cell_side(i)) ** axes.dims[i]
            A = _reduce(A, red, e, w)
            for c in axes.param_coords(i):
                del axis_of[("x", c)]
            drop(red)
        else:
            i = label - k - 1
            red = (axis_of[("j", i)],)
            A = _reduce(A, red, e)
            del axis_of[("j", i)]
            drop(red)
    return float(A)


def _weighted_magnitudes(family: FieldFamily, weight=None, level_weight=None):
    """Cellwise |V f_j| per level: returns dict j -> scalar grid."""
    out = {}
    for j, f in family.fields.items():
        V = level_weight(j) if level_weight is not None else weight
        if V is None:
            out[j] = f.magnitude()
        elif V.kind == "scalar":
            out[j] = np.abs(V.values) * f.magnitude()
        else:
            if f.kind == "vector":
                g = np.einsum("...ab,...b->...a", V.values, f.values)
                out[j] = np.linalg.norm(g, axis=-1)
            elif f.kind == "scalar":
                out[j] = np.linalg.norm(V.values, ord=2, axis=(-2, -1)) \
                    * np.abs(f.values)
            else:
                raise ValueError("matrix-valued f with matrix weight")
    return out


def alpha_norm(family: FieldFamily, spec: NormSpec,
               weight=None, level_weight=None) -> float:
    """sup over the Omega-family of |Omega|^{-tau} x mixed norm of
    {1_{Omega_j} 2^{j.s} V f_j}."""
    window = family.window
    mags = _weighted_magnitudes(family, weight, level_weight)
    scaled = {j: (2.0 ** float(np.dot(j, spec.s))) * g for j, g in mags.items()}
    if spec.tau == 0:
        # monotone in Omega, so the full window attains the sup
        return iterated_norm(window, scaled, spec.p, spec.q, spec.pi)
    omegas = spec.omega_family or (OpenSet.full(window),)
    best = 0.0
    for om in omegas:
        meas = om.measure
        if meas == 0:
            return INF
        vals = {}
        for j, g in scaled.items():
            coarse = level_mask(om, j)
            if coarse.any():
                vals[j] = g * expand_mask(window, coarse, j)
        v = iterated_norm(window, vals, spec.p, spec.q, spec.pi)
        best = max(best, float(meas) ** (-spec.tau) * v)
    return best


@dataclass
class CoeffSeq:
    """Finitely supported map from dyadic rectangles to (vector) values."""
    axes: AxisSpec
    data: dict[DyadicRect, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.data = {R: np.atleast_1d(np.asarray(v, dtype=float))
                     for R, v in self.data.items()}

    @property
    def m(self) -> int:
        return next(iter(self.data.values())).shape[0] if self.data else 1

    def levels(self):
        return sorted({R.levels for R in self.data})

    def scale(self, c: float) -> "CoeffSeq":
        return CoeffSeq(self.axes, {R: c * v for R, v in self.data.items()})

    def add(self, other: "CoeffSeq") -> "CoeffSeq":
        out = {R: v.copy() for R, v in self.data.items()}
        for R, v in other.data.items():
            out[R] = out.get(R, 0) + v
        return CoeffSeq(self.axes, out)

    def lift(self, sigma: tuple[float, ...]) -> "CoeffSeq":
        """Multiply each coefficient by prod_i l(R_i)^{-sigma_i} = 2^{j.sigma}."""
        return CoeffSeq(self.axes, {
            R: (2.0 ** float(np.dot(R.levels, sigma))) * v
            for R, v in self.data.items()})

    def to_family(self, window: Window) -> FieldFamily:
        """Expand t to fields t_j = sum_R t_R |R|^{-1/2} 1_R."""
        coarse, measure = {}, {}
        for R, v in self.data.items():
            idx, j = window.coarse_index(R), R.levels
            if j not in coarse:
                coarse[j] = np.zeros(window.coarse_shape(j) + (self.m,))
                measure[j] = float(R.measure)
            coarse[j][idx] = v
        return FieldFamily(window, {
            j: PiecewiseField(window, expand_mask(
                window, measure[j] ** -0.5 * c, j))
            for j, c in coarse.items()})


def a_norm(t: CoeffSeq, spec: NormSpec, window: Window,
           weight=None, level_weight=None) -> float:
    """Sequence-space quasi-norm of t: sup over spec.omega_family (the
    whole window when tau = 0 or the family is empty) of |Omega|^{-tau}
    x mixed norm of {1_{Omega_j} 2^{j.s} V t_j}.  With
    every dyadic rectangle P of the window as the family it is the
    rectangle-anchored norm: sup over P of |P|^{-tau} x mixed norm of
    {1_P 2^{j.s} V t_j} over levels j >= j_P."""
    return alpha_norm(t.to_family(window), spec, weight, level_weight)


def tensor_seq(parts: list[CoeffSeq]) -> CoeffSeq:
    """Tensor product of per-parameter sequences: (t~)_R = prod t^{(v)}_{R_v}."""
    dims = []
    for t in parts:
        if t.axes.k != 1:
            raise ValueError("tensor factors must be one-parameter sequences")
        dims.append(t.axes.dims[0])
    axes = AxisSpec(tuple(dims))
    out: dict[DyadicRect, np.ndarray] = {}
    for combo in itertools.product(*(t.data.items() for t in parts)):
        rects = [R for R, _ in combo]
        val = np.prod([float(v[0]) for _, v in combo])
        R = DyadicRect(axes,
                       tuple(r.levels[0] for r in rects),
                       tuple(r.offsets[0] for r in rects))
        out[R] = out.get(R, 0) + val
    return CoeffSeq(axes, out)
