"""Iterated mixed norms, admissibility, sequence-space quasi-norms."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.almost_diagonal import ADParams, apply_ad, random_coeff_seq
from dyadlab.carleson import dyadic_omega_family
from dyadlab.geometry import (AxisSpec, DyadicRect, OpenSet, Window)
from dyadlab.mixed_norms import (CoeffSeq, NormSpec, Permutation,
                                 _weighted_magnitudes, a_norm, admissibility,
                                 iterated_norm, tensor_seq)
from dyadlab.weights import random_spd_field, reducing_family

INF = math.inf


class TestAdmissibility:
    def test_integral_first_sup_outside(self):
        ok, _, _ = admissibility(Permutation.tl(1), (INF,), (2.0,))
        assert not ok

    def test_sum_first_always(self):
        for p, q in [(INF, 2.0), (0.5, INF), (1.0, 1.0)]:
            ok, _, _ = admissibility(Permutation.besov(1), (p,), (q,))
            assert ok

    def test_integral_first_finite(self):
        ok, _, r = admissibility(Permutation.tl(1), (2.0,), (3.0,))
        assert ok and r == 2.0

    @settings(max_examples=30)
    @given(p=st.floats(0.3, 5), q=st.floats(0.3, 5))
    def test_finite_exponents_admissible(self, p, q):
        ok, _, r = admissibility(Permutation.tl(1), (p,), (q,))
        assert ok and r == min(p, q)
        ok, _, r = admissibility(Permutation.besov(1), (p,), (q,))
        assert ok and r == p


class TestIteratedNorm:
    def test_stack_on_unit_cell(self, w1):
        a = [0.5, 2.0, 1.0]
        vals = {(j,): a[j] * np.ones(w1.shape) for j in range(3)}
        got = iterated_norm(w1, vals, (1.0,), (2.0,), Permutation.tl(1))
        assert got == pytest.approx(np.linalg.norm(a))

    def test_single_unit_field(self, w1):
        vals = {(0,): np.ones(w1.shape)}
        for pi in (Permutation.tl(1), Permutation.besov(1)):
            for p, q in [(1.0, 1.0), (2.0, 0.5), (INF, 3.0)]:
                got = iterated_norm(w1, vals, (p,), (q,), pi)
                assert got == pytest.approx(1.0)

    @settings(max_examples=20)
    @given(c=st.floats(0.1, 8.0))
    def test_homogeneity(self, c):
        w = Window.unit(AxisSpec((1,)), (2,))
        base = {(0,): np.linspace(1, 2, 4), (1,): np.linspace(2, 1, 4)}
        spec = ((1.5,), (2.5,), Permutation.besov(1))
        one = iterated_norm(w, base, *spec)
        scaled = iterated_norm(w, {j: c * g for j, g in base.items()},
                               *spec)
        assert scaled == pytest.approx(c * one)


def _single_coeff(axes, j, off, e=2.0):
    return CoeffSeq(axes, {DyadicRect(axes, j, off): np.array([e])})


class TestANorm:
    def test_single_coefficient_closed_form(self, axes1):
        w = Window.unit(axes1, (3,))
        t = _single_coeff(axes1, (2,), ((1,),), e=2.0)
        for s, p, q in [(0.0, 1.0, 1.0), (0.7, 2.0, 0.5), (-0.3, 0.5, 3.0)]:
            spec = NormSpec((s,), 0.0, (p,), (q,), Permutation.besov(1))
            want = 2.0 ** (2 * (s + 0.5 - 1 / p)) * 2.0
            assert a_norm(t, spec, w) == pytest.approx(want)

    def test_single_coefficient_tau(self, axes1):
        w = Window.unit(axes1, (3,))
        R = DyadicRect(axes1, (2,), ((1,),))
        t = CoeffSeq(axes1, {R: np.array([2.0])})
        tau = 0.4
        fam = (OpenSet.from_rect(w, R),)
        spec = NormSpec((0.3,), tau, (2.0,), (1.0,),
                        Permutation.besov(1), fam)
        want = 2.0 ** (2 * (tau + 0.3 + 0.5 - 0.5)) * 2.0
        assert a_norm(t, spec, w) == pytest.approx(want)

    def test_scalar_weight_homogeneity(self, axes1, rng):
        w = Window.unit(axes1, (2,))
        data = {DyadicRect(axes1, (j,), ((0,),)): rng.standard_normal(1)
                for j in range(3)}
        t = CoeffSeq(axes1, data)
        spec = NormSpec((0.2,), 0.0, (1.5,), (2.0,), Permutation.tl(1))
        base = a_norm(t, spec, w)
        tripled = a_norm(t.scale(3.0), spec, w)
        assert tripled == pytest.approx(3.0 * base)

    def test_lift_conjugation(self, axes1, rng):
        w = Window.unit(axes1, (2,))
        data = {DyadicRect(axes1, (j,), ((0,),)):
                np.abs(rng.standard_normal(1)) + 0.1 for j in range(3)}
        t = CoeffSeq(axes1, data)
        s = (0.7,)
        with_s = NormSpec(s, 0.0, (1.5,), (2.0,), Permutation.besov(1))
        at_zero = NormSpec((0.0,), 0.0, (1.5,), (2.0,),
                           Permutation.besov(1))
        assert a_norm(t, with_s, w) == \
            pytest.approx(a_norm(t.lift(s), at_zero, w), rel=1e-9)

    def test_rect_equals_open_at_tau_zero(self, axes1, rng):
        w = Window.unit(axes1, (2,))
        data = {DyadicRect(axes1, (j,), ((0,),)):
                np.abs(rng.standard_normal(1)) + 0.1 for j in range(3)}
        t = CoeffSeq(axes1, data)
        spec = NormSpec((0.0,), 0.0, (1.0,), (1.0,), Permutation.besov(1))
        # at tau = 0 the open-set variant is the plain norm, which
        # dominates every rectangle-localized value
        assert _a_rect_norm_loop(t, spec, w) <= a_norm(t, spec, w) + 1e-12


def _a_rect_norm_loop(t, spec, window, level_weight=None):
    """The rectangle-anchored norm as a loop over dyadic P: sup of
    |P|^{-tau} x mixed norm of {1_P 2^{j.s} V t_j} over levels j >= j_P."""
    mags = _weighted_magnitudes(t.to_family(window), None, level_weight)
    scaled = {j: (2.0 ** float(np.dot(j, spec.s))) * g
              for j, g in mags.items()}
    best = 0.0
    for jP in window.levels():
        eligible = {j: g for j, g in scaled.items()
                    if all(a >= b for a, b in zip(j, jP))}
        for _, P in window.rects_at_level(jP):
            sl = window.rect_slices(P)
            vals = {}
            for j, g in eligible.items():
                cut = np.zeros_like(g)
                cut[sl] = g[sl]
                if cut.any():
                    vals[j] = cut
            v = iterated_norm(window, vals, spec.p, spec.q, spec.pi)
            best = max(best, float(P.measure) ** (-spec.tau) * v)
    return best


def _rect_anchored(spec, window):
    """spec with every dyadic rectangle of the window as its Omega-family."""
    return dataclasses.replace(
        spec, omega_family=tuple(dyadic_omega_family(window)))


class TestRectAnchored:
    """a_norm over every dyadic rectangle of the window is the
    rectangle-anchored norm."""

    @pytest.mark.parametrize("dims,levels,j_max", [
        ((1,), (0,), (3,)), ((1,), (-1,), (1,)), ((1, 1), (0, 0), (2, 2)),
        ((1, 1), (0, -1), (1, 1)), ((2,), (0,), (1,))])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5])
    def test_matches_rectangle_loop(self, dims, levels, j_max, m, tau):
        axes = AxisSpec(dims)
        w = Window(DyadicRect(axes, levels, tuple((0,) * n for n in dims)),
                   j_max)
        rng = np.random.default_rng(len(dims) * 100 + sum(j_max) * 10 + m)
        lw = None
        if m == 2:
            V = random_spd_field(w, m, rng)
            lw = reducing_family(V, list(w.levels())).level_weight(w)
        t = random_coeff_seq(w, rng, per_level=2, m=m)
        k = axes.k
        for p, q in [(1.5, 2.0), (INF, 0.5), (1.0, INF)]:
            for pi in (Permutation.besov(k), Permutation.tl(k)):
                spec = NormSpec((0.5, -0.25)[:k], tau, (p,) * k, (q,) * k,
                                pi)
                assert a_norm(t, _rect_anchored(spec, w), w,
                              level_weight=lw) == \
                    _a_rect_norm_loop(t, spec, w, level_weight=lw)


def _to_family_loop(t, window):
    """The per-rectangle scatter to_family used before the level grid."""
    fields = {}
    for R, v in t.data.items():
        j = R.levels
        if j not in fields:
            fields[j] = np.zeros(window.shape + (t.m,))
        fields[j][window.rect_slices(R)] += float(R.measure) ** -0.5 * v
    return fields


class TestToFamily:
    @pytest.mark.parametrize("dims, j_max", [((1,), (3,)), ((1, 1), (2, 1)),
                                             ((2, 1), (1, 2))])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("keep", [1.0, 0.3])
    def test_matches_loop(self, rng, dims, j_max, m, keep):
        w = Window.unit(AxisSpec(dims), j_max)
        t = CoeffSeq(w.axes, {R: rng.standard_normal(m) for R in w.rects()
                              if rng.uniform() < keep})
        self._check(t, w)

    def test_matches_loop_on_apply_ad_output(self, rng):
        w = Window.unit(AxisSpec((1, 1)), (3, 2))
        t = random_coeff_seq(w, rng, per_level=2, m=2)
        bt, _ = apply_ad(ADParams((3.0, 2.5), (2.0, 1.5), (1.0, 2.5)), t, w)
        assert len(bt.data) == sum(1 for _ in w.rects())
        self._check(bt, w)

    @staticmethod
    def _check(t, w):
        got = t.to_family(w).fields
        want = _to_family_loop(t, w)
        assert list(got) == list(want)
        for j in want:
            assert np.array_equal(got[j].values, want[j])


class TestTensor:
    def _random_part(self, rng, jmax=2):
        axes = AxisSpec((1,))
        data = {}
        for j in range(jmax + 1):
            off = int(rng.integers(0, 2 ** j))
            data[DyadicRect(axes, (j,), ((off,),))] = \
                np.abs(rng.standard_normal(1)) + 0.1
        return CoeffSeq(axes, data)

    @pytest.mark.parametrize("k", [2, 3])
    def test_factorization_tau_zero(self, k, rng):
        w1 = Window.unit(AxisSpec((1,)), (2,))
        wk = Window.unit(AxisSpec((1,) * k), (2,) * k)
        ss = (0.3, -0.2, 0.1)[:k]
        ps = (1.5, 2.0, 1.0)[:k]
        qs = (1.0, 3.0, 2.0)[:k]
        for _ in range(5):
            parts = [self._random_part(rng) for _ in range(k)]
            t = tensor_seq(parts)
            lhs = a_norm(t, NormSpec(ss, 0.0, ps, qs,
                                     Permutation.besov(k)), wk)
            rhs = 1.0
            for i, part in enumerate(parts):
                rhs *= a_norm(part, NormSpec((ss[i],), 0.0, (ps[i],),
                                             (qs[i],),
                                             Permutation.besov(1)), w1)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_factorization_critical_tau(self, rng):
        # tau = 1/p with p = q: verified on single coefficients where
        # both sides have closed forms
        p = 1.5
        tau = 1 / p
        w1 = Window.unit(AxisSpec((1,)), (2,))
        w2 = Window.unit(AxisSpec((1, 1)), (2, 2))
        axes1 = AxisSpec((1,))
        parts = [_single_coeff(axes1, (1,), ((1,),), 1.7),
                 _single_coeff(axes1, (2,), ((0,),), 0.6)]
        t = tensor_seq(parts)
        R = next(iter(t.data))
        lhs = a_norm(t, NormSpec((0.2, -0.1), tau, (p, p), (p, p),
                                 Permutation.besov(2),
                                 (OpenSet.from_rect(w2, R),)), w2)
        rhs = 1.0
        for i, part in enumerate(parts):
            Ri = next(iter(part.data))
            rhs *= a_norm(part, NormSpec(((0.2, -0.1)[i],), tau, (p,),
                                         (p,), Permutation.besov(1),
                                         (OpenSet.from_rect(w1, Ri),)),
                          w1)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_singleton_product(self, axes1):
        a = _single_coeff(axes1, (1,), ((0,),), 3.0)
        b = _single_coeff(axes1, (0,), ((0,),), 0.5)
        t = tensor_seq([a, b])
        assert len(t.data) == 1
        assert next(iter(t.data.values()))[0] == pytest.approx(1.5)

    def test_empty_factor(self, axes1):
        a = _single_coeff(axes1, (0,), ((0,),), 1.0)
        b = CoeffSeq(axes1, {})
        assert tensor_seq([a, b]).data == {}


class TestQuiltGap:
    def test_rect_bounded_open_large(self):
        """Packing families with small union: every rectangle-localized
        value stays below 1 while the union open set pushes the
        open-set-localized norm to coverage^-tau."""
        from dyadlab.quilts import quilt_refine, unit_quilt
        q = quilt_refine(quilt_refine(unit_quilt()))
        axes = AxisSpec((1, 1))
        jmax = max(max(R.levels[0] for R in q.rects),
                   max(R.levels[1] for R in q.rects))
        w = Window.unit(axes, (jmax, jmax))
        t = CoeffSeq(axes, {R: np.array([math.sqrt(float(R.measure))])
                            for R in q.rects})
        union = None
        for R in q.rects:
            om = OpenSet.from_rect(w, R)
            union = om if union is None else union.union(om)
        tau = 0.5
        spec = NormSpec((0.0, 0.0), tau, (1.0, 1.0), (1.0, 1.0),
                        Permutation.besov(2), (union,))
        sigma = float(union.measure) / float(w.measure)
        assert sigma == pytest.approx(39 / 64)
        assert a_norm(t, _rect_anchored(spec, w), w) <= 1.0 + 1e-9
        assert a_norm(t, spec, w) >= sigma ** -tau - 1e-9
