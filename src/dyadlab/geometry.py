"""Exact geometry of dyadic rectangles on product domains R^{n_1} x ... x R^{n_k}.

All measures and endpoints are exact dyadic rationals
(``fractions.Fraction``); only p-th roots and pointwise field values are
floating point.  A :class:`Window` truncates the plane to a bounded dyadic
rectangle with a fixed finest resolution, and every field is piecewise
constant on the window's base cells.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "AxisSpec", "DyadicRect", "Window", "OpenSet", "PiecewiseField",
    "block_reduce", "block_lp", "level_mask", "expand_mask", "rect_arrays",
]


def _pow2(e: int) -> Fraction:
    """2**e as an exact rational, for any integer e."""
    if e >= 0:
        return Fraction(1 << e)
    return Fraction(1, 1 << (-e))


@dataclass(frozen=True)
class AxisSpec:
    """Product-domain shape: k parameters with dimensions dims = (n_1,...,n_k)."""
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) < 1 or any(n < 1 for n in self.dims):
            raise ValueError("need k >= 1 parameters of dimension >= 1")

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def coord_param(self) -> list[int]:
        """Parameter index of each flattened coordinate."""
        out = []
        for i, n in enumerate(self.dims):
            out.extend([i] * n)
        return out

    def param_coords(self, i: int) -> range:
        """Flattened coordinate indices belonging to parameter i."""
        lo = sum(self.dims[:i])
        return range(lo, lo + self.dims[i])


@dataclass(frozen=True)
class DyadicRect:
    """prod_i 2^{-j_i} (m_i + [0,1)^{n_i}); levels j and integer offsets m."""
    axes: AxisSpec
    levels: tuple[int, ...]
    offsets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.levels) != self.axes.k:
            raise ValueError("levels length must equal k")
        if len(self.offsets) != self.axes.k or any(
                len(m) != n for m, n in zip(self.offsets, self.axes.dims)):
            raise ValueError("offsets must match per-parameter dimensions")

    def side(self, i: int) -> Fraction:
        return _pow2(-self.levels[i])

    @property
    def measure(self) -> Fraction:
        return _pow2(-sum(j * n for j, n in zip(self.levels, self.axes.dims)))

    def intervals(self) -> list[tuple[Fraction, Fraction]]:
        """Half-open [lo, hi) per flattened coordinate."""
        out = []
        for i in range(self.axes.k):
            s = self.side(i)
            for m in self.offsets[i]:
                out.append((m * s, (m + 1) * s))
        return out

    @property
    def center(self) -> list[Fraction]:
        return [(lo + hi) / 2 for lo, hi in self.intervals()]


# a list of dyadic rectangles as arrays, one row each (see rect_arrays)
RectArrays = namedtuple("RectArrays", "axes levels offsets sides centers")


def rect_arrays(axes: AxisSpec, rects) -> RectArrays:
    """Integer levels j (R, k) and offsets m (R, n), float sides 2^-j
    (R, k) and centres (m + 1/2) 2^-j (R, n) of the rectangles.  The floats
    are exact dyadic rationals: a ValueError is raised when an offset or a
    level is too large for that."""
    rects = list(rects)
    levels = np.array([R.levels for R in rects], np.int64).reshape(-1, axes.k)
    offsets = np.array([sum(R.offsets, ()) for R in rects],
                       dtype=float).reshape(-1, axes.total_dim)
    if np.any(np.abs(offsets) >= 2.0 ** 52) or np.any(np.abs(levels) > 900):
        raise ValueError("rectangle too large for exact float centres")
    coord_levels = levels[:, axes.coord_param()]
    return RectArrays(axes, levels, offsets.astype(np.int64),
                      np.ldexp(1.0, -levels),
                      np.ldexp(2.0 * offsets + 1.0, -coord_levels - 1))


class Window:
    """A bounded dyadic rectangle tiled by base cells at finest levels j_max.

    ``bounds`` is a single dyadic rectangle; ``j_max[i] >= bounds.levels[i]``
    gives the base-cell level in parameter direction i.  Fields are arrays
    over the base-cell grid, one array axis per flattened coordinate.
    """

    def __init__(self, bounds: DyadicRect, j_max: tuple[int, ...]):
        if any(j < b for j, b in zip(j_max, bounds.levels)):
            raise ValueError("j_max must refine the bounding rectangle")
        self.axes = bounds.axes
        self.bounds = bounds
        self.j_max = tuple(j_max)
        shape = []
        for i in range(self.axes.k):
            f = 1 << (self.j_max[i] - bounds.levels[i])
            shape.extend([f] * self.axes.dims[i])
        self.shape = tuple(shape)

    @classmethod
    def unit(cls, axes: AxisSpec, j_max: tuple[int, ...]) -> "Window":
        """The unit cube [0,1)^{n} with base cells at levels j_max."""
        R = DyadicRect(axes, (0,) * axes.k,
                       tuple((0,) * n for n in axes.dims))
        return cls(R, j_max)

    # -- cell geometry -----------------------------------------------------

    def cell_side(self, i: int) -> Fraction:
        return _pow2(-self.j_max[i])

    @property
    def cell_measure(self) -> Fraction:
        return _pow2(-sum(j * n for j, n in zip(self.j_max, self.axes.dims)))

    @property
    def measure(self) -> Fraction:
        return self.bounds.measure

    # -- level enumeration -------------------------------------------------

    def levels(self):
        """All level vectors j with bounds.levels <= j <= j_max."""
        ranges = [range(b, j + 1) for b, j in zip(self.bounds.levels, self.j_max)]
        return itertools.product(*ranges)

    def coarse_shape(self, j: tuple[int, ...]) -> tuple[int, ...]:
        shape = []
        for i in range(self.axes.k):
            f = 1 << (j[i] - self.bounds.levels[i])
            shape.extend([f] * self.axes.dims[i])
        return tuple(shape)

    def block_factors(self, j: tuple[int, ...]) -> tuple[int, ...]:
        """Base cells per level-j rectangle, along each coordinate axis."""
        fac = []
        for i in range(self.axes.k):
            f = 1 << (self.j_max[i] - j[i])
            fac.extend([f] * self.axes.dims[i])
        return tuple(fac)

    def rects_at_level(self, j: tuple[int, ...]):
        """Iterate (index, DyadicRect) over the level-j rectangles inside."""
        cs = self.coarse_shape(j)
        base = []
        for i in range(self.axes.k):
            scale = 1 << (j[i] - self.bounds.levels[i])
            for m in self.bounds.offsets[i]:
                base.append(m * scale)
        for idx in itertools.product(*(range(c) for c in cs)):
            offs, pos = [], 0
            for i, n in enumerate(self.axes.dims):
                offs.append(tuple(base[pos + c] + idx[pos + c] for c in range(n)))
                pos += n
            yield idx, DyadicRect(self.axes, tuple(j), tuple(offs))

    def rects(self):
        """Iterate over every dyadic rectangle inside, level by level."""
        for j in self.levels():
            for _, R in self.rects_at_level(j):
                yield R

    def coarse_index(self, R: DyadicRect) -> tuple[int, ...]:
        """Index of a dyadic rectangle contained in the window in the coarse
        grid of its level (the index ``rects_at_level`` yields with it)."""
        if any(j < b or j > m for j, b, m in
               zip(R.levels, self.bounds.levels, self.j_max)):
            raise ValueError("rectangle level outside window levels")
        idx = []
        for i in range(self.axes.k):
            scale = 1 << (R.levels[i] - self.bounds.levels[i])
            idx.extend(m - b * scale for m, b in
                       zip(R.offsets[i], self.bounds.offsets[i]))
        if any(c < 0 or c >= n for c, n in
               zip(idx, self.coarse_shape(R.levels))):
            raise ValueError("rectangle not inside window")
        return tuple(idx)

    def rect_slices(self, R: DyadicRect) -> tuple[slice, ...]:
        """Grid slices covered by a dyadic rectangle contained in the window."""
        return tuple(slice(c * f, (c + 1) * f) for c, f in
                     zip(self.coarse_index(R), self.block_factors(R.levels)))

    def full_mask(self) -> np.ndarray:
        return np.ones(self.shape, dtype=bool)


def block_reduce(arr: np.ndarray, factors: tuple[int, ...], func) -> np.ndarray:
    """Reduce each leading axis of ``arr`` in blocks of the given factors.

    Trailing axes beyond ``len(factors)`` (vector/matrix components) are kept.
    ``func`` is a numpy reduction accepting an ``axis`` tuple.
    """
    d = len(factors)
    shape = arr.shape
    newshape = []
    for ax in range(d):
        if shape[ax] % factors[ax]:
            raise ValueError("axis not divisible by block factor")
        newshape.extend([shape[ax] // factors[ax], factors[ax]])
    newshape.extend(shape[d:])
    view = arr.reshape(newshape)
    axes = tuple(2 * ax + 1 for ax in range(d))
    return func(view, axis=axes)


def block_lp(window: Window, g: np.ndarray, j: tuple[int, ...],
             p: float) -> np.ndarray:
    """Normalized L^p norms of a scalar grid over every level-j rectangle,
    on the coarse level-j grid; p may be inf (the block maximum)."""
    factors = window.block_factors(j)
    if p == np.inf:
        return block_reduce(g, factors, np.max)
    return block_reduce(g ** p, factors, np.mean) ** (1.0 / p)


@dataclass
class OpenSet:
    """A union of base cells of a window (boolean mask over the grid)."""
    window: Window
    mask: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.window.shape:
            raise ValueError("mask shape must match the window grid")

    @property
    def measure(self) -> Fraction:
        return int(self.mask.sum()) * self.window.cell_measure

    @classmethod
    def full(cls, window: Window) -> "OpenSet":
        return cls(window, window.full_mask())

    @classmethod
    def from_rect(cls, window: Window, R: DyadicRect) -> "OpenSet":
        mask = np.zeros(window.shape, dtype=bool)
        mask[window.rect_slices(R)] = True
        return cls(window, mask)

    def union(self, other: "OpenSet") -> "OpenSet":
        return OpenSet(self.window, self.mask | other.mask)


def level_mask(omega: OpenSet, j: tuple[int, ...]) -> np.ndarray:
    """Coarse mask of the level-j rectangles entirely inside omega."""
    w = omega.window
    if any(jj < b or jj > m for jj, b, m in
           zip(j, w.bounds.levels, w.j_max)):
        raise ValueError("level outside window levels")
    return block_reduce(omega.mask, w.block_factors(j), np.all)


def expand_mask(window: Window, coarse: np.ndarray, j: tuple[int, ...]) -> np.ndarray:
    """Expand a level-j mask (or values) back to the base-cell grid."""
    out = coarse
    for ax, f in enumerate(window.block_factors(j)):
        out = np.repeat(out, f, axis=ax)
    return out


class PiecewiseField:
    """A scalar / vector(m) / SPD-matrix(m) value on each base cell."""

    def __init__(self, window: Window, values: np.ndarray):
        values = np.asarray(values)
        d = len(window.shape)
        if values.shape[:d] != window.shape:
            raise ValueError("field shape must start with the window grid")
        extra = values.ndim - d
        if extra == 0:
            self.kind = "scalar"
        elif extra == 1:
            self.kind = "vector"
        elif extra == 2:
            if values.shape[-1] != values.shape[-2]:
                raise ValueError("matrix values must be square")
            self.kind = "matrix"
        else:
            raise ValueError("at most matrix-valued fields supported")
        self.window = window
        self.values = values

    @property
    def m(self) -> int:
        return 1 if self.kind == "scalar" else self.values.shape[-1]

    @classmethod
    def constant(cls, window: Window, value) -> "PiecewiseField":
        value = np.asarray(value, dtype=float)
        vals = np.broadcast_to(value, window.shape + value.shape).copy()
        return cls(window, vals)

    def magnitude(self) -> np.ndarray:
        """Pointwise |f|: abs, euclidean norm, or operator norm."""
        if self.kind == "scalar":
            return np.abs(self.values)
        if self.kind == "vector":
            return np.linalg.norm(self.values, axis=-1)
        return np.linalg.norm(self.values, ord=2, axis=(-2, -1))
