"""Almost-diagonal kernels: entries, boundedness thresholds, witnesses."""
import math

import numpy as np
import pytest

from dyadlab import almost_diagonal
from dyadlab.almost_diagonal import (ADParams, _kernel, ad_entry, apply_ad,
                                     composition_constant, empirical_norm,
                                     necessity_curve, random_coeff_seq,
                                     sufficiency_check)
from dyadlab.geometry import AxisSpec, DyadicRect, Window, rect_arrays
from dyadlab.mixed_norms import CoeffSeq, NormSpec, Permutation
from dyadlab.weights import doubling_check, random_spd_field, reducing_family

INF = math.inf


# -- the per-pair loops the dense kernel blocks replaced, kept as oracles

def _too_far(P, R, dist_radius):
    cP, cR = P.center, R.center
    lo = 0
    for i in range(P.axes.k):
        hi = lo + P.axes.dims[i]
        scale = max(float(P.side(i)), float(R.side(i)))
        d = max(abs(float(a - b)) for a, b in zip(cP[lo:hi], cR[lo:hi]))
        if d > dist_radius * scale:
            return True
        lo = hi
    return False


def _pruned(P, R, level_radius, dist_radius):
    return any(abs(a - b) > level_radius
               for a, b in zip(P.levels, R.levels)) \
        or _too_far(P, R, dist_radius)


def _apply_ad_loop(params, t, window, level_radius=6, dist_radius=64.0):
    support = list(t.data.items())
    out = {}
    for P in window.rects():
        acc = 0.0
        for R, v in support:
            if _pruned(P, R, level_radius, dist_radius):
                continue
            acc = acc + ad_entry(P, R, params) * v
        if np.any(acc != 0.0):
            out[P] = acc
    return out


def _composition_loop(pa, pb, window):
    comp = ADParams(tuple(map(min, pa.D, pb.D)),
                    tuple(map(min, pa.E, pb.E)),
                    tuple(map(min, pa.F, pb.F)),
                    pa.const * pb.const)
    rects = list(window.rects())
    # entries tabulated once, so the O(R^3) sum below stays quick
    a = {(P, Q): ad_entry(P, Q, pa) for P in rects for Q in rects}
    b = {(Q, R): ad_entry(Q, R, pb) for Q in rects for R in rects}
    worst = 0.0
    for P in rects:
        for R in rects:
            s = sum(a[P, Q] * b[Q, R] for Q in rects)
            worst = max(worst, s / ad_entry(P, R, comp))
    return worst


ORACLE_WINDOWS = {
    "1param_J3": Window.unit(AxisSpec((1,)), (3,)),
    "2param_J22": Window.unit(AxisSpec((1, 1)), (2, 2)),
    "dims21_J21": Window.unit(AxisSpec((2, 1)), (2, 1)),
}


def _oracle_params(k):
    return ADParams((3.0, 2.5)[:k], (2.0, 1.5)[:k], (1.0, 2.5)[:k],
                    const=1.3)


class TestEntry:
    def test_diagonal_is_const(self, axes1):
        P = DyadicRect(axes1, (2,), ((1,),))
        par = ADParams((3.0,), (2.0,), (1.0,), const=1.7)
        assert ad_entry(P, P, par) == pytest.approx(1.7)

    def test_adjacent_same_level(self, axes1):
        P = DyadicRect(axes1, (1,), ((0,),))
        R = DyadicRect(axes1, (1,), ((1,),))
        par = ADParams((3.0,), (0.0,), (0.0,))
        assert ad_entry(P, R, par) == pytest.approx(2.0 ** -3)

    def test_scale_gap_factor(self, axes1):
        P = DyadicRect(axes1, (1,), ((0,),))  # finer, center 1/4
        R = DyadicRect(axes1, (0,), ((0,),))  # coarser, center 1/2
        par = ADParams((2.0,), (3.0,), (0.0,))
        want = (1.0 + 0.25) ** -2 * 0.5 ** 3
        assert ad_entry(P, R, par) == pytest.approx(want)

    def test_swapped_transposes(self, axes1):
        P = DyadicRect(axes1, (2,), ((3,),))
        R = DyadicRect(axes1, (0,), ((0,),))
        par = ADParams((2.0,), (3.0,), (1.0,))
        assert ad_entry(P, R, par) == \
            pytest.approx(ad_entry(R, P, par.swapped()))

    def test_product_over_axes(self):
        a1 = AxisSpec((1,))
        a2 = AxisSpec((1, 1))
        par1 = ADParams((2.0,), (1.5,), (0.5,))
        par2 = ADParams((2.0, 2.0), (1.5, 1.5), (0.5, 0.5))
        Pa = DyadicRect(a1, (1,), ((0,),))
        Ra = DyadicRect(a1, (2,), ((3,),))
        Pb = DyadicRect(a1, (0,), ((0,),))
        Rb = DyadicRect(a1, (1,), ((1,),))
        P = DyadicRect(a2, (1, 0), ((0,), (0,)))
        R = DyadicRect(a2, (2, 1), ((3,), (1,)))
        assert ad_entry(P, R, par2) == \
            pytest.approx(ad_entry(Pa, Ra, par1) * ad_entry(Pb, Rb, par1))


class TestSufficiency:
    SPEC = NormSpec((0.0,), 0.0, (2.0,), (2.0,), Permutation.besov(1))

    def test_clear_pass(self):
        rep = sufficiency_check(ADParams((2.0,), (1.0,), (1.0,)),
                                self.SPEC, (1,))
        assert rep.all_ok and rep.r == 1.0

    def test_boundary_fails(self):
        # D = n/r exactly: the strict inequality must reject it
        rep = sufficiency_check(ADParams((1.0,), (1.0,), (1.0,)),
                                self.SPEC, (1,))
        assert not rep.d_ok[0]
        assert rep.e_ok[0] and rep.f_ok[0]

    def test_small_exponents_raise_r(self):
        spec = NormSpec((0.0,), 0.0, (0.5,), (0.5,), Permutation.besov(1))
        rep = sufficiency_check(ADParams((3.0,), (1.0,), (2.0,)),
                                spec, (1,))
        assert rep.r == 0.5
        assert rep.all_ok

    def test_untested_regime_flag(self):
        spec = NormSpec((0.0,), 0.0, (2.0,), (0.5,), Permutation.besov(1))
        rep = sufficiency_check(ADParams((3.0,), (2.0,), (3.0,)),
                                spec, (1,))
        assert rep.untested_regime

    def test_inadmissible_spec_rejected(self):
        spec = NormSpec((0.0,), 0.0, (INF,), (2.0,), Permutation.tl(1))
        with pytest.raises(ValueError):
            sufficiency_check(ADParams((3.0,), (2.0,), (3.0,)), spec, (1,))


class TestApply:
    PAR = ADParams((4.0,), (3.0,), (2.0,))

    def test_linear_in_t(self, w1, rng):
        t = random_coeff_seq(w1, rng)
        bt, _ = apply_ad(self.PAR, t, w1)
        bt3, _ = apply_ad(self.PAR, t.scale(3.0), w1)
        for R, v in bt.data.items():
            assert np.allclose(3.0 * v, bt3.data[R])

    def test_additive(self, w1, rng):
        t1 = random_coeff_seq(w1, rng)
        t2 = random_coeff_seq(w1, rng)
        a, _ = apply_ad(self.PAR, t1, w1)
        b, _ = apply_ad(self.PAR, t2, w1)
        c, _ = apply_ad(self.PAR, t1.add(t2), w1)
        want = a.add(b)
        for R, v in c.data.items():
            assert np.allclose(v, want.data[R], atol=1e-12)

    def test_near_diagonal_kernel(self, w1):
        par = ADParams((40.0,), (40.0,), (40.0,))
        R = DyadicRect(AxisSpec((1,)), (2,), ((1,),))
        t = CoeffSeq(AxisSpec((1,)), {R: [1.0]})
        bt, _ = apply_ad(par, t, w1)
        assert bt.data[R][0] == pytest.approx(1.0)
        off = sum(float(np.abs(v).sum()) for P, v in bt.data.items()
                  if P != R)
        assert off < 1e-6

    def test_tail_bound_shrinks(self, w1, rng):
        t = random_coeff_seq(w1, rng)
        _, tail4 = apply_ad(self.PAR, t, w1, level_radius=4)
        _, tail8 = apply_ad(self.PAR, t, w1, level_radius=8)
        assert 0 < tail8 < tail4


class TestLift:
    def test_roundtrip(self, w1, rng):
        t = random_coeff_seq(w1, rng)
        back = t.lift((0.7,)).lift((-0.7,))
        for R, v in t.data.items():
            assert np.allclose(v, back.data[R])


class TestComposition:
    def test_finite_on_small_window(self, w1):
        pa = ADParams((4.0,), (3.0,), (2.0,))
        pb = ADParams((3.0,), (2.0,), (3.0,))
        c = composition_constant(pa, pb, w1)
        assert 1.0 <= c < 1e3


class TestEmpiricalNorm:
    SPEC = NormSpec((0.0,), 0.0, (2.0,), (2.0,), Permutation.besov(1))

    def test_const_scales_linearly(self):
        ws = [Window.unit(AxisSpec((1,)), (2,))]
        p1 = ADParams((4.0,), (3.0,), (2.0,), const=1.0)
        p2 = ADParams((4.0,), (3.0,), (2.0,), const=2.0)
        a = empirical_norm(p1, self.SPEC, ws, trials=5)
        b = empirical_norm(p2, self.SPEC, ws, trials=5)
        assert b[0] == pytest.approx(2.0 * a[0])

    def test_one_value_per_window(self):
        ws = [Window.unit(AxisSpec((1,)), (j,)) for j in (1, 2)]
        par = ADParams((4.0,), (3.0,), (2.0,))
        assert len(empirical_norm(par, self.SPEC, ws, trials=3)) == 2


class TestNecessity:
    @pytest.mark.parametrize("kind", ["D", "E", "F"])
    def test_witness_ratios_grow(self, kind):
        pts, slope = necessity_curve(kind, [1, 2, 3], tensor=False)
        rs = [r for _, r in pts]
        assert slope > 0
        assert rs[0] < rs[1] < rs[2]


class TestDenseOracle:
    """The dense kernel blocks against the per-pair loops, with m = 2
    coefficients and a truncation that prunes pairs."""
    LEVEL_RADIUS, DIST_RADIUS = 1, 1.0

    @pytest.mark.parametrize("name", sorted(ORACLE_WINDOWS))
    def test_apply_ad_matches_loop(self, name):
        w = ORACLE_WINDOWS[name]
        par = _oracle_params(w.axes.k)
        t = random_coeff_seq(w, np.random.default_rng(5), m=2)
        with np.errstate(all="raise"):
            bt, tail = apply_ad(par, t, w, self.LEVEL_RADIUS,
                                self.DIST_RADIUS)
            want = _apply_ad_loop(par, t, w, self.LEVEL_RADIUS,
                                  self.DIST_RADIUS)
        assert bt.data.keys() == want.keys()
        for P, v in want.items():
            assert np.allclose(bt.data[P], v, rtol=1e-12, atol=0.0)
        assert tail > 0

    @pytest.mark.parametrize("name", sorted(ORACLE_WINDOWS))
    def test_kernel_entries_match_ad_entry(self, name):
        w = ORACLE_WINDOWS[name]
        par = _oracle_params(w.axes.k)
        rects = list(w.rects())
        arr = rect_arrays(w.axes, rects)
        with np.errstate(all="raise"):
            full = _kernel(par, arr, arr)
            cut = _kernel(par, arr, arr, self.LEVEL_RADIUS, self.DIST_RADIUS)
        pruned = 0
        for a, P in enumerate(rects):
            for b, R in enumerate(rects):
                want = ad_entry(P, R, par)
                assert full[a, b] == pytest.approx(want, rel=1e-12, abs=0)
                if _pruned(P, R, self.LEVEL_RADIUS, self.DIST_RADIUS):
                    pruned += 1
                    assert cut[a, b] == 0.0
                else:
                    assert cut[a, b] == full[a, b]
        assert 0 < pruned < len(rects) ** 2

    @pytest.mark.parametrize("name", sorted(ORACLE_WINDOWS))
    def test_composition_matches_loop(self, name):
        w = ORACLE_WINDOWS[name]
        k = w.axes.k
        pa = _oracle_params(k)
        pb = ADParams((2.5, 3.0)[:k], (1.5, 2.5)[:k], (2.0, 1.0)[:k])
        with np.errstate(all="raise"):
            got = composition_constant(pa, pb, w)
            want = _composition_loop(pa, pb, w)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


class TestNoScalarHotPath:
    def test_hot_paths_skip_ad_entry(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ad_entry called on a hot path")
        monkeypatch.setattr(almost_diagonal, "ad_entry", refuse)
        w = Window.unit(AxisSpec((1, 1)), (1, 1))
        par = ADParams((3.0, 3.0), (2.0, 2.0), (2.0, 2.0))
        t = random_coeff_seq(w, np.random.default_rng(0))
        apply_ad(par, t, w)
        composition_constant(par, par, w)
        spec = NormSpec((0.0, 0.0), 0.0, (2.0, 2.0), (2.0, 2.0),
                        Permutation.besov(2))
        empirical_norm(par, spec, [w], trials=2)
        for kind in "DEF":
            necessity_curve(kind, [1, 2])
        V = random_spd_field(w, 2, np.random.default_rng(0))
        doubling_check(reducing_family(V, list(w.levels())), weak=1.0)
