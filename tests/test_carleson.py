"""Carleson embedding functionals."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.carleson import (MultiplierFamily, acarl_functional,
                              all_open_sets, dyadic_omega_family,
                              embedding_ratio, open_functional,
                              rect_functional, rect_truncated_functional,
                              weight_multipliers)
from dyadlab.geometry import (AxisSpec, OpenSet, PiecewiseField, Window,
                              level_mask)
from dyadlab.mixed_norms import CoeffSeq, NormSpec, Permutation, a_norm
from dyadlab.weights import (MatrixWeight, op_norm, random_spd_field,
                             reducing_family)

INF = math.inf


def _const_gamma(window, c=1.0):
    return MultiplierFamily(window, {j: c * np.ones(window.shape)
                                     for j in window.levels()})


class TestFunctionals:
    def test_unit_multiplier(self, w1):
        g = _const_gamma(w1)
        for p in (0.5, 1.0, 2.0, INF):
            assert rect_functional(g, p) == pytest.approx(1.0)
            assert rect_truncated_functional(g, p) == pytest.approx(1.0)
            assert open_functional(g, p, all_open_sets(w1)) \
                == pytest.approx(1.0)

    @settings(max_examples=15)
    @given(c=st.floats(0.1, 10.0))
    def test_homogeneity(self, c):
        w = Window.unit(AxisSpec((1,)), (2,))
        rng = np.random.default_rng(0)
        g = MultiplierFamily(w, {j: np.abs(rng.standard_normal(w.shape))
                                 for j in w.levels()})
        assert rect_functional(g.scale(c), 2.0) \
            == pytest.approx(c * rect_functional(g, 2.0))
        assert rect_truncated_functional(g.scale(c), 2.0) \
            == pytest.approx(c * rect_truncated_functional(g, 2.0))

    def test_rect_monotone_in_p(self, w1, rng):
        g = MultiplierFamily(w1, {j: np.abs(rng.standard_normal(w1.shape))
                                  for j in w1.levels()})
        vals = [rect_functional(g, p) for p in (0.5, 1.0, 2.0, INF)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_single_level_full_window(self, w1, rng):
        arr = np.abs(rng.standard_normal(w1.shape))
        g = MultiplierFamily(w1, {(0,): arr})
        om = OpenSet(w1, np.ones(w1.shape, bool))
        want = float(((arr ** 2).mean()) ** 0.5)
        assert open_functional(g, 2.0, [om]) == pytest.approx(want)

    def test_rejects_negative(self, w1):
        with pytest.raises(ValueError):
            MultiplierFamily(w1, {(0,): -np.ones(w1.shape)})


class TestOpenVsRect:
    def test_one_parameter_identity(self, rng):
        """In one parameter the open-set sup is attained on a dyadic cube,
        so exhausting all opens reproduces the truncated rectangle form."""
        w = Window.unit(AxisSpec((1,)), (3,))
        for _ in range(5):
            gammas = {}
            for j in w.levels():
                coarse = 2.0 ** rng.uniform(-2, 2, w.coarse_shape(j))
                gammas[j] = np.repeat(coarse, w.block_factors(j)[0])
            g = MultiplierFamily(w, gammas)
            for s in (0.7, 1.0, 2.0):
                a = open_functional(g, s, all_open_sets(w, max_cells=8))
                b = rect_truncated_functional(g, s)
                assert a == pytest.approx(b, abs=1e-12)

    def test_dyadic_family_lower_bound(self, w2, rng):
        g = MultiplierFamily(w2, {j: np.abs(rng.standard_normal(w2.shape))
                                  for j in w2.levels()})
        full = OpenSet(w2, np.ones(w2.shape, bool))
        a = open_functional(g, 1.0, dyadic_omega_family(w2))
        assert a >= open_functional(g, 1.0, [full]) - 1e-12


class TestWeightMultipliers:
    def test_scalar_primal_dual_cancel(self, w1, rng):
        v = np.abs(rng.standard_normal(w1.shape)) + 0.3
        V = MatrixWeight(PiecewiseField(w1, v))
        fam = reducing_family(V, list(w1.levels()))
        prim = weight_multipliers(V, fam)
        dual = weight_multipliers(V, fam, dual=True)
        for j in prim.gammas:
            assert np.allclose(prim.gammas[j] * dual.gammas[j], 1.0)

    def test_constant_weight_unit_multiplier(self, w1):
        V = MatrixWeight(PiecewiseField(w1, 2.0 * np.ones(w1.shape)))
        fam = reducing_family(V, list(w1.levels()))
        g = weight_multipliers(V, fam)
        for arr in g.gammas.values():
            assert np.allclose(arr, 1.0)

    def test_acarl_identity_weight(self, w1):
        V = MatrixWeight(PiecewiseField(w1, np.ones(w1.shape)))
        fam = reducing_family(V, list(w1.levels()))
        got = acarl_functional(V, fam, 2.0, all_open_sets(w1))
        assert got == pytest.approx(1.0)


# the per-rectangle loops that the level-grid versions replaced, as oracles

def _level_weight_loop(fam, window, j):
    m = next(iter(fam.matrices.values())).shape[0]
    out = np.zeros(window.shape + (m, m))
    for _, R in window.rects_at_level(j):
        out[window.rect_slices(R)] = fam.matrices[R]
    return out


def _weight_multipliers_loop(V, fam, dual=False):
    w = V.window
    gammas = {}
    for j in sorted({R.levels for R in fam.matrices}):
        g = np.zeros(w.shape)
        for _, R in w.rects_at_level(j):
            A = fam.matrices[R]
            sl = w.rect_slices(R)
            if dual:
                g[sl] = op_norm(A @ V.inv_values[sl])
            else:
                g[sl] = op_norm(V.field.values[sl] @ np.linalg.inv(A))
        gammas[j] = g
    return gammas


def _acarl_loop(V, fam, s, omegas):
    w = V.window
    Vx = V.field.values
    best = 0.0
    inv = {R: np.linalg.inv(A) for R, A in fam.matrices.items()}
    for om in omegas:
        count = int(om.mask.sum())
        if count == 0:
            continue
        sup = np.zeros(w.shape)
        for R, Ai in inv.items():
            coarse = level_mask(om, R.levels)
            sl = w.rect_slices(R)
            idx = tuple(x // f for x, f in zip(
                [sl[a].start for a in range(len(sl))],
                w.block_factors(R.levels)))
            if not coarse[idx]:
                continue
            vals = op_norm(Vx[sl] @ Ai)
            sup[sl] = np.maximum(sup[sl], vals)
        arr = sup[om.mask]
        if s == INF:
            best = max(best, float(arr.max()))
        else:
            best = max(best, float(((arr ** s).sum() / count) ** (1.0 / s)))
    return best


_ORACLE_WINDOWS = [((1,), (2,)), ((1, 1), (1, 1)), ((2, 1), (1, 1))]


@functools.lru_cache(maxsize=None)
def _weight_and_family(dims, j_max, m, p):
    w = Window.unit(AxisSpec(dims), j_max)
    rng = np.random.default_rng(sum(dims) * 100 + sum(j_max) * 10 + m)
    V = random_spd_field(w, m, rng)
    return V, reducing_family(V, list(w.levels()), p)


_FAMILIES = pytest.mark.parametrize("dims, j_max, m, p", [
    pytest.param(dims, j_max, m, p,
                 id=f"{dims}/{j_max}-m{m}-p{p}".replace(" ", ""))
    for dims, j_max in _ORACLE_WINDOWS for m in (1, 2) for p in (2.0, 1.5)])


class TestLevelGridMatchesLoops:
    """The level-grid paths reproduce the per-rectangle loops bit for bit."""

    @_FAMILIES
    def test_level_weight(self, dims, j_max, m, p):
        V, fam = _weight_and_family(dims, j_max, m, p)
        at_level = fam.level_weight(V.window)
        for j in V.window.levels():
            assert np.array_equal(at_level(j).values,
                                  _level_weight_loop(fam, V.window, j))

    @_FAMILIES
    @pytest.mark.parametrize("dual", [False, True])
    def test_weight_multipliers(self, dims, j_max, m, p, dual):
        V, fam = _weight_and_family(dims, j_max, m, p)
        got = weight_multipliers(V, fam, dual=dual).gammas
        want = _weight_multipliers_loop(V, fam, dual=dual)
        assert list(got) == list(want)
        for j in want:
            assert np.array_equal(got[j], want[j])

    @_FAMILIES
    @pytest.mark.parametrize("omega_family", [all_open_sets,
                                              dyadic_omega_family])
    def test_acarl_functional(self, dims, j_max, m, p, omega_family):
        V, fam = _weight_and_family(dims, j_max, m, p)
        omegas = list(omega_family(V.window))
        gamma = weight_multipliers(V, fam)
        for s in (0.5, 1.0, 2.0, INF):
            got = acarl_functional(V, fam, s, omegas)
            assert got == _acarl_loop(V, fam, s, omegas)
            assert got == open_functional(gamma, s, omegas)


class TestNoRectSlicesInGridPaths:
    def test_grid_paths_never_slice(self, monkeypatch):
        V, fam = _weight_and_family((1, 1), (1, 1), 2, 2.0)
        w = V.window
        omegas = dyadic_omega_family(w)
        t = CoeffSeq(w.axes, {R: [1.0, -0.5] for R in w.rects()})
        spec = NormSpec((0.5, 0.0), 0.25, (2.0, 1.0), (1.0, 2.0),
                        Permutation.besov(2), tuple(omegas))

        def refuse(self, R):
            raise AssertionError("rect_slices called")
        monkeypatch.setattr(Window, "rect_slices", refuse)
        acarl_functional(V, fam, 2.0, omegas)
        weight_multipliers(V, fam)
        weight_multipliers(V, fam, dual=True)
        for j in w.levels():
            fam.level_weight(w)(j)
        t.to_family(w)
        a_norm(t, spec, w, level_weight=fam.level_weight(w))


class TestEmbeddingRatio:
    def test_constant_multiplier(self, w1):
        g = _const_gamma(w1, 1.7)
        spec = NormSpec((0.0,), 0.0, (2.0,), (1.0,), Permutation.besov(1))
        out = embedding_ratio(g, spec, trials=10)
        assert out["max"] == pytest.approx(1.7)
        assert out["mean"] == pytest.approx(1.7)

    def test_deterministic_given_seed(self, w1, rng):
        g = MultiplierFamily(w1, {j: np.abs(rng.standard_normal(w1.shape))
                                  for j in w1.levels()})
        spec = NormSpec((0.0,), 0.0, (1.0,), (2.0,), Permutation.tl(1))
        a = embedding_ratio(g, spec, trials=5, seed=11)
        b = embedding_ratio(g, spec, trials=5, seed=11)
        assert a == b
