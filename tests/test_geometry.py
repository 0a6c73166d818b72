"""Lattice geometry: rectangles, windows, open sets, local averages."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.geometry import (AxisSpec, DyadicRect, OpenSet,
                              PiecewiseField, Window, block_lp, level_mask,
                              rect_arrays)
from dyadlab.mixed_norms import CoeffSeq


def _overlap_weights(window, R):
    """Per-cell overlap fractions |cell cap R| / |R| of a dyadic rectangle
    (floats from exact rationals)."""
    per_axis = []
    for ax, ((lo, hi), (wlo, _)) in enumerate(zip(
            R.intervals(), window.bounds.intervals())):
        side = window.cell_side(window.axes.coord_param()[ax])
        fracs = []
        for c in range(window.shape[ax]):
            ov = min(hi, wlo + (c + 1) * side) - max(lo, wlo + c * side)
            fracs.append(float(ov / (hi - lo)) if ov > 0 else 0.0)
        per_axis.append(np.array(fracs))
    weights = per_axis[0]
    for arr in per_axis[1:]:
        weights = np.multiply.outer(weights, arr)
    return weights


def integrate_over(f, R, p):
    """Normalized quasi-norm (avg_R |f|^p)^{1/p} over a dyadic rectangle,
    or the whole window when R is None, with every cell weighted by its
    exact overlap fraction; p may be inf.  The oracle for block_lp."""
    g = f.magnitude()
    if R is None:
        weights = np.full(g.shape, 1.0 / g.size)
    else:
        weights = _overlap_weights(f.window, R)
    if p == math.inf:
        return float(g[weights > 0].max())
    return float((weights * g ** p).sum()) ** (1.0 / p)


class TestMeasure:
    def test_unit_cube(self, axes2):
        R = DyadicRect(axes2, (0, 0), ((0,), (0,)))
        assert R.measure == 1

    def test_two_axis_levels(self, axes2):
        R = DyadicRect(axes2, (1, 2), ((0,), (0,)))
        assert R.measure == Fraction(1, 8)

    def test_level_three_interval(self, axes1):
        R = DyadicRect(axes1, (3,), ((5,),))
        assert R.measure == Fraction(1, 8)

    @given(j1=st.integers(0, 6), j2=st.integers(0, 6))
    def test_measure_formula(self, j1, j2):
        axes = AxisSpec((1, 1))
        R = DyadicRect(axes, (j1, j2), ((0,), (0,)))
        assert R.measure == Fraction(1, 2 ** (j1 + j2))


class TestOpenSets:
    def test_full_window_restriction(self, w1):
        om = OpenSet(w1, np.ones(w1.shape, bool))
        for j in w1.levels():
            assert level_mask(om, j).all()

    def test_single_finest_cell(self, w1):
        mask = np.zeros(w1.shape, bool)
        mask[0] = True
        om = OpenSet(w1, mask)
        for j in w1.levels():
            coarse = level_mask(om, j)
            if j == (2,):
                assert coarse.sum() == 1
            else:
                assert not coarse.any()

    def test_sibling_halves_make_parent(self, w1):
        # cells 0,1 are the two level-2 children of the level-1 cell 0
        mask = np.zeros(w1.shape, bool)
        mask[:2] = True
        om = OpenSet(w1, mask)
        assert level_mask(om, (1,)).sum() == 1
        assert not level_mask(om, (0,)).any()


class TestLocalAverage:
    def test_constant(self, w1):
        f = PiecewiseField(w1, 2.5 * np.ones(w1.shape))
        for p in (0.5, 1.0, 2.0, math.inf):
            assert integrate_over(f, None, p) == pytest.approx(2.5)

    def test_two_values_p2(self, axes1):
        w = Window.unit(axes1, (1,))
        f = PiecewiseField(w, np.array([1.0, 3.0]))
        assert integrate_over(f, None, 2.0) == pytest.approx(math.sqrt(5))

    def test_two_values_sup(self, axes1):
        w = Window.unit(axes1, (1,))
        f = PiecewiseField(w, np.array([1.0, 3.0]))
        assert integrate_over(f, None, math.inf) == pytest.approx(3.0)

    @settings(max_examples=25)
    @given(c=st.floats(0.1, 10.0), p=st.floats(0.3, 4.0))
    def test_constant_any_p(self, c, p):
        w = Window.unit(AxisSpec((1,)), (2,))
        f = PiecewiseField(w, c * np.ones(w.shape))
        assert integrate_over(f, None, p) == pytest.approx(c)


class TestBlockLp:
    @pytest.mark.parametrize("dims,j_max", [((1,), (3,)), ((1, 1), (2, 2)),
                                            ((2, 1), (1, 2))])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, math.inf])
    def test_matches_integrate_over(self, rng, dims, j_max, p):
        w = Window.unit(AxisSpec(dims), j_max)
        g = 2.0 ** rng.uniform(-2, 2, w.shape)
        f = PiecewiseField(w, g)
        for j in w.levels():
            coarse = block_lp(w, g, j, p)
            assert coarse.shape == w.coarse_shape(j)
            for idx, R in w.rects_at_level(j):
                assert coarse[idx] == pytest.approx(integrate_over(f, R, p),
                                                    rel=1e-12)


class TestWindow:
    def test_levels_and_cells(self, w2):
        assert w2.shape == (4, 4)
        assert (2, 2) in list(w2.levels())
        assert float(w2.cell_measure) == pytest.approx(1 / 16)

    def test_rects_at_level_count(self, w2):
        assert len(list(w2.rects_at_level((1, 2)))) == 2 * 4

    def test_rects_walks_every_level(self, w2):
        want = [R for j in w2.levels() for _, R in w2.rects_at_level(j)]
        assert list(w2.rects()) == want
        assert len(set(want)) == len(want) == 7 * 7


def _rect_slices_loop(w, R):
    """The per-axis slice computation rect_slices used before coarse_index."""
    if any(j < b or j > m for j, b, m in
           zip(R.levels, w.bounds.levels, w.j_max)):
        raise ValueError("rectangle level outside window levels")
    sl, pos = [], 0
    for i, n in enumerate(w.axes.dims):
        f = 1 << (w.j_max[i] - R.levels[i])
        scale = 1 << (R.levels[i] - w.bounds.levels[i])
        for c in range(n):
            start = (R.offsets[i][c] - w.bounds.offsets[i][c] * scale) * f
            if start < 0 or start + f > w.shape[pos + c]:
                raise ValueError("rectangle not inside window")
            sl.append(slice(start, start + f))
        pos += n
    return tuple(sl)


# a 1-parameter window on [1/2, 1) and a 2-parameter one on [0,1) x [1,2),
# each with rectangles outside it: beside it, at a negative offset, one
# level coarser than its bounds and one level finer than its base cells
_AX1, _AX2 = AxisSpec((1,)), AxisSpec((1, 1))
_REFUSAL_WINDOWS = {
    "one": (Window(DyadicRect(_AX1, (1,), ((1,),)), (3,)), {
        "outside": DyadicRect(_AX1, (2,), ((0,),)),
        "negative": DyadicRect(_AX1, (2,), ((-1,),)),
        "coarse": DyadicRect(_AX1, (0,), ((0,),)),
        "fine": DyadicRect(_AX1, (4,), ((8,),))}),
    "two": (Window(DyadicRect(_AX2, (0, 0), ((0,), (1,))), (1, 2)), {
        "outside": DyadicRect(_AX2, (1, 1), ((0,), (4,))),
        "negative": DyadicRect(_AX2, (1, 1), ((-1,), (2,))),
        "coarse": DyadicRect(_AX2, (-1, 0), ((0,), (1,))),
        "fine": DyadicRect(_AX2, (1, 3), ((0,), (8,)))}),
}


class TestCoarseIndex:
    @pytest.mark.parametrize("name", sorted(_REFUSAL_WINDOWS))
    def test_index_of_every_rect(self, name):
        w = _REFUSAL_WINDOWS[name][0]
        for j in w.levels():
            for idx, R in w.rects_at_level(j):
                assert w.coarse_index(R) == idx
                assert w.rect_slices(R) == _rect_slices_loop(w, R)

    @pytest.mark.parametrize("name", sorted(_REFUSAL_WINDOWS))
    @pytest.mark.parametrize("case", ["outside", "negative", "coarse",
                                      "fine"])
    @pytest.mark.parametrize("call", [
        lambda w, R: w.coarse_index(R),
        lambda w, R: w.rect_slices(R),
        lambda w, R: CoeffSeq(w.axes, {R: [1.0]}).to_family(w),
    ], ids=["coarse_index", "rect_slices", "to_family"])
    def test_refuses_rect_outside(self, name, case, call):
        w, rects = _REFUSAL_WINDOWS[name]
        with pytest.raises(ValueError):
            _rect_slices_loop(w, rects[case])
        with pytest.raises(ValueError):
            call(w, rects[case])


class TestRectArrays:
    def test_exact_sides_and_centers(self):
        w = Window(DyadicRect(AxisSpec((2, 1)), (-1, 0), ((-1, 3), (2,))),
                   (1, 2))
        rects = list(w.rects())
        arr = rect_arrays(w.axes, rects)
        assert arr.levels.shape == (len(rects), 2)
        assert arr.offsets.shape == arr.centers.shape == (len(rects), 3)
        for row, R in enumerate(rects):
            assert list(arr.levels[row]) == list(R.levels)
            assert list(arr.offsets[row]) == [m for o in R.offsets for m in o]
            assert [Fraction(x) for x in arr.centers[row]] == R.center
            assert [Fraction(x) for x in arr.sides[row]] == \
                [R.side(i) for i in range(2)]

    def test_empty_list(self, axes2):
        arr = rect_arrays(axes2, [])
        assert arr.centers.shape == (0, 2) and arr.sides.shape == (0, 2)

    @pytest.mark.parametrize("levels, off", [
        ((0,), (1 << 52,)), ((0,), (-(1 << 60),)), ((1000,), (0,))])
    def test_inexact_centre_refused(self, axes1, levels, off):
        with pytest.raises(ValueError):
            rect_arrays(axes1, [DyadicRect(axes1, levels, (off,))])
