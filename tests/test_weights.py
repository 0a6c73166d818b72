"""Matrix weights: reducing operators, two-variable constants, means."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.geometry import AxisSpec, DyadicRect, PiecewiseField, Window
from dyadlab.weights import (MatrixWeight, ap_constant, ap_dilated_constant,
                             conjugate, diag_pairs, doubling_check,
                             fit_ap_dimensions, geometric_mean, mvee,
                             random_spd_field, reduce_exact_p2,
                             reduce_general, reducing_family, rhi_constant,
                             sobolev_condition_constant, spd_power)

INF = math.inf


def _scalar_weight(window, cells):
    return MatrixWeight(PiecewiseField(window, np.asarray(cells, float)))


def _const_matrix_weight(window, M):
    vals = np.broadcast_to(M, window.shape + M.shape).copy()
    return MatrixWeight(PiecewiseField(window, vals))


class TestReduce:
    def test_constant_field_is_fixed_point(self, w1):
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        V = _const_matrix_weight(w1, M)
        assert np.allclose(reduce_exact_p2(V), M, atol=1e-12)

    def test_two_value_scalar(self, axes1):
        w = Window.unit(axes1, (1,))
        V = _scalar_weight(w, [1.0, 3.0])
        A = reduce_exact_p2(V)
        assert A.shape == (1, 1)
        assert A[0, 0] == pytest.approx(math.sqrt(5.0))

    def test_diagonal_decoupling(self, w1, rng):
        d = np.abs(rng.standard_normal(w1.shape + (2,))) + 0.5
        vals = np.zeros(w1.shape + (2, 2))
        vals[..., 0, 0] = d[..., 0]
        vals[..., 1, 1] = d[..., 1]
        V = MatrixWeight(PiecewiseField(w1, vals))
        A = reduce_exact_p2(V)
        assert abs(A[0, 1]) < 1e-12
        for i in range(2):
            assert A[i, i] == pytest.approx(
                math.sqrt(float((d[..., i] ** 2).mean())))

    @settings(max_examples=15, deadline=None)
    @given(p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           c=st.floats(0.2, 4.0))
    def test_scalar_any_order(self, p, c):
        w = Window.unit(AxisSpec((1,)), (1,))
        V = _scalar_weight(w, [c, 2 * c])
        A, (lo, hi), deg = reduce_general(V, None, p)
        assert not deg
        want = ((c ** p + (2 * c) ** p) / 2) ** (1 / p)
        assert lo <= 1.0 + 1e-9 and hi >= 1.0 - 1e-9
        assert A[0, 0] == pytest.approx(want, rel=1e-6)

    def test_p2_agreement(self, w2, rng):
        V = random_spd_field(w2, 2, rng)
        exact = reduce_exact_p2(V)
        A, (lo, hi), _ = reduce_general(V, None, 2.0, rng=rng)
        # both reduce the same seminorm, so they agree up to the certificate
        lam = np.linalg.eigvalsh(A @ np.linalg.inv(exact))
        assert lam.min() >= lo / 2 and lam.max() <= 2 * hi

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_certificate_cap_p_geq_1(self, m, rng):
        w = Window.unit(AxisSpec((1,)), (2,))
        for p in (1.0, 1.5, 3.0):
            V = random_spd_field(w, m, rng)
            _, (lo, hi), deg = reduce_general(V, None, p, rng=rng)
            assert not deg
            assert hi / lo <= 5.0

    def test_certificate_cap_small_p(self, rng):
        m, p = 2, 0.5
        w = Window.unit(AxisSpec((1,)), (2,))
        V = random_spd_field(w, m, rng)
        _, (lo, hi), deg = reduce_general(V, None, p, rng=rng)
        assert not deg
        assert hi / lo <= 5.0 * (2 * m + 1) ** (1 / p - 1)

    def test_degenerate_rank_deficient(self, w1):
        vals = np.zeros(w1.shape + (2, 2))
        vals[..., 0, 0] = 1.0
        vals[..., 1, 1] = 1e-16
        # bypass the SPD residual check with an explicit inverse
        f = PiecewiseField(w1, vals)
        inv = np.zeros_like(vals)
        inv[..., 0, 0] = 1.0
        inv[..., 1, 1] = 1e16
        V = MatrixWeight(f, inv_values=inv)
        _, _, deg = reduce_general(V, None, 1.0)
        assert deg


class TestMvee:
    def test_circle(self, rng):
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        pts = np.c_[np.cos(th), np.sin(th)]
        M = mvee(pts)
        assert np.allclose(M, np.eye(2), atol=1e-4)

    def test_axis_ellipse(self):
        pts = np.array([[2.0, 0.0], [0.0, 0.5], [-2.0, 0.0], [0.0, -0.5]])
        M = mvee(pts)
        assert M[0, 0] == pytest.approx(0.25, rel=1e-3)
        assert M[1, 1] == pytest.approx(4.0, rel=1e-3)


class TestApConstant:
    def test_constant_weight_is_one(self, w2, rng):
        M = spd_power(np.array([[2.0, 0.5], [0.5, 1.0]]), 1.0)
        V = _const_matrix_weight(w2, M)
        rep = ap_constant(V, 2.0, diag_pairs(w2))
        assert abs(rep.constant - 1.0) < 1e-10

    def test_two_value_scalar_five_thirds(self, axes1):
        w = Window.unit(axes1, (1,))
        V = _scalar_weight(w, [1.0, 3.0])
        rep = ap_constant(V, 2.0, diag_pairs(w))
        assert rep.constant == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_product_factorization(self, rng):
        wa = Window.unit(AxisSpec((1,)), (2,))
        w2 = Window.unit(AxisSpec((1, 1)), (2, 2))
        u = np.abs(rng.standard_normal(4)) + 0.3
        v = np.abs(rng.standard_normal(4)) + 0.3
        prod = _scalar_weight(w2, np.outer(u, v))
        cu = ap_constant(_scalar_weight(wa, u), 2.0, diag_pairs(wa)).constant
        cv = ap_constant(_scalar_weight(wa, v), 2.0, diag_pairs(wa)).constant
        cp = ap_constant(prod, 2.0, diag_pairs(w2)).constant
        assert cp == pytest.approx(cu * cv, rel=1e-9)

    def test_witness_is_reported(self, axes1):
        w = Window.unit(axes1, (1,))
        V = _scalar_weight(w, [1.0, 3.0])
        rep = ap_constant(V, 2.0, diag_pairs(w))
        P, R = rep.witness
        assert P == R and P.levels == (0,)

    def test_off_diagonal_exponent(self, axes1):
        w = Window.unit(axes1, (1,))
        V = _scalar_weight(w, [1.0, 1.0])
        rep = ap_constant(V, 2.0, diag_pairs(w), q=4.0)
        assert rep.tag == "Apq"
        assert abs(rep.constant - 1.0) < 1e-10


def _power_step(window, beta):
    """w(x) = (l + 1/2)^beta on unit cells of [0, 2^J)."""
    n = window.shape[0]
    return _scalar_weight(window, (np.arange(n) + 0.5) ** beta)


class TestDilated:
    def test_identity_flat(self):
        w = Window.unit(AxisSpec((1,)), (3,))
        V = _scalar_weight(w, np.ones(8))
        for t in (0, 1, 2):
            assert abs(ap_dilated_constant(V, 2.0, (t,)).constant - 1) < 1e-10

    def test_step_weight_growth(self):
        b = DyadicRect(AxisSpec((1,)), (-4,), ((0,),))
        w = Window(b, (0,))
        V = _power_step(w, 1.2)
        cs = [ap_dilated_constant(V, 2.0, (t,)).constant for t in (1, 2, 3)]
        # once the dilate of a high-value cell sweeps low-value cells the
        # off-diagonal pair beats the t-independent full-window pair
        assert cs[0] < cs[1] < cs[2]

    def test_dimension_fit_identity(self, w2):
        V = _const_matrix_weight(w2, np.eye(2))
        fit = fit_ap_dimensions(V, 2.0, (0, 1, 2))
        assert np.allclose(fit.d, 0.0, atol=1e-8)
        assert np.allclose(fit.e, 0.0, atol=1e-8)
        assert fit.in_range

    def test_delta_combines_both_slopes(self):
        b = DyadicRect(AxisSpec((1,)), (-3,), ((0,),))
        w = Window(b, (0,))
        V = _power_step(w, 0.8)
        p = 2.0
        fit = fit_ap_dimensions(V, p, (0, 1, 2))
        assert np.allclose(fit.delta,
                           fit.d / p + fit.e / conjugate(p), atol=1e-12)
        assert fit.d[0] > 0.0


def _doubling_loop(fam, strong=None, weak=None):
    """The per-pair Fraction loop doubling_check replaced (oracle)."""
    rects = list(fam.matrices)
    worst = 0.0
    for R in rects:
        Ainv = np.linalg.inv(fam.matrices[R])
        for P in rects:
            if weak is not None and P.levels != R.levels:
                continue
            val = np.linalg.norm(fam.matrices[P] @ Ainv, ord=2)
            cP, cR = P.center, R.center
            if weak is not None:
                dist2 = 0.0
                for c in range(P.axes.total_dim):
                    i = P.axes.coord_param()[c]
                    dist2 += float((cP[c] - cR[c]) * 2 ** P.levels[i]) ** 2
                bound = (1.0 + math.sqrt(dist2)) ** weak
            else:
                a, b, cc = strong
                bound = 1.0
                for i in range(P.axes.k):
                    lP, lR = float(P.side(i)), float(R.side(i))
                    bound *= max((lR / lP) ** a[i], (lP / lR) ** b[i])
                    off = max(abs(float(cP[c] - cR[c]))
                              for c in P.axes.param_coords(i))
                    bound *= (1.0 + off / max(lP, lR)) ** cc[i]
            worst = max(worst, val / bound)
    return worst


class TestDoubling:
    @pytest.mark.parametrize("mode", [
        {"strong": ((0.5, 1.0), (1.0, 0.5), (1.0, 2.0))},
        {"weak": 1.0},
        {"weak": -1.0}])   # favours far pairs: the euclidean sum matters
    def test_matches_pair_loop(self, mode):
        w = Window.unit(AxisSpec((1, 1)), (2, 2))
        V = random_spd_field(w, 2, np.random.default_rng(3))
        fam = reducing_family(V, list(w.levels()), 2.0)
        assert doubling_check(fam, **mode) == \
            pytest.approx(_doubling_loop(fam, **mode), rel=1e-12, abs=0)

    def test_constant_family_strong(self, w1):
        V = _scalar_weight(w1, np.ones(4))
        fam = reducing_family(V, list(w1.levels()))
        worst = doubling_check(fam, strong=((0.0,), (0.0,), (0.0,)))
        assert worst == pytest.approx(1.0)

    def test_weak_order_zero_fails(self, w1):
        V = _scalar_weight(w1, np.array([1.0, 1.0, 4.0, 4.0]))
        fam = reducing_family(V, [(2,)])
        assert doubling_check(fam, weak=0.0) > 1.0 + 1e-9

    def test_weak_large_order_passes(self, w1):
        V = _scalar_weight(w1, np.array([1.0, 1.0, 4.0, 4.0]))
        fam = reducing_family(V, [(2,)])
        assert doubling_check(fam, weak=8.0) <= 1.0 + 1e-12

    def test_exactly_one_mode(self, w1):
        V = _scalar_weight(w1, np.ones(4))
        fam = reducing_family(V, [(2,)])
        with pytest.raises(ValueError):
            doubling_check(fam)


class TestRhi:
    def test_identity_is_one(self, w1):
        V = _scalar_weight(w1, np.ones(4))
        rects = [R for j in w1.levels() for _, R in w1.rects_at_level(j)]
        for s in (2.0, 4.0, INF):
            assert rhi_constant(V, 2.0, s, rects) == pytest.approx(1.0)

    def test_monotone_in_s(self, w1, rng):
        V = random_spd_field(w1, 2, rng)
        rects = [R for j in w1.levels() for _, R in w1.rects_at_level(j)]
        cs = [rhi_constant(V, 1.0, s, rects, rng=rng) for s in (1.0, 2.0, 4.0)]
        assert cs[0] == pytest.approx(1.0)
        assert cs[0] <= cs[1] + 1e-12 <= cs[2] + 2e-12

    def test_rejects_s_below_p(self, w1):
        V = _scalar_weight(w1, np.ones(4))
        with pytest.raises(ValueError):
            rhi_constant(V, 2.0, 1.0, [])


class TestGeometricMean:
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    B = np.array([[3.0, 0.0], [0.0, 1.0]])

    def test_endpoints(self):
        assert np.allclose(geometric_mean(self.A, self.B, 0.0), self.A)
        assert np.allclose(geometric_mean(self.A, self.B, 1.0), self.B)

    def test_idempotent(self):
        assert np.allclose(geometric_mean(self.A, self.A, 0.37), self.A)

    def test_commuting_diagonal(self):
        A = np.diag([1.0, 4.0])
        B = np.diag([9.0, 1.0])
        assert np.allclose(geometric_mean(A, B, 0.5), np.diag([3.0, 2.0]))

    def test_with_identity_is_power(self):
        th = 0.3
        got = geometric_mean(self.A, np.eye(2), th)
        assert np.allclose(got, spd_power(self.A, 1.0 - th))

    @settings(max_examples=10, deadline=None)
    @given(th=st.floats(0.0, 1.0))
    def test_symmetric_in_arguments(self, th):
        lhs = geometric_mean(self.A, self.B, th)
        rhs = geometric_mean(self.B, self.A, 1.0 - th)
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestSobolevCondition:
    def test_flat_identity_balance(self, w1):
        V = _scalar_weight(w1, np.ones(4))
        rects = [R for j in w1.levels() for _, R in w1.rects_at_level(j)]
        # s1 - n/p1 = s0 - n/p0 makes every pair an equality
        C = sobolev_condition_constant(V, V, 1.0, 2.0, (0.5,), (0.0,), rects)
        assert C == pytest.approx(1.0)

    def test_smoothness_excess_grows(self, w1):
        V = _scalar_weight(w1, np.ones(4))
        rects = [R for j in w1.levels() for _, R in w1.rects_at_level(j)]
        C = sobolev_condition_constant(V, V, 1.0, 2.0, (0.5,), (0.5,), rects)
        assert C == pytest.approx(2.0 ** 1.0)  # finest level j = 2, excess 1/2

    def test_requires_increasing_p(self, w1):
        V = _scalar_weight(w1, np.ones(4))
        with pytest.raises(ValueError):
            sobolev_condition_constant(V, V, 2.0, 1.0, (0.0,), (0.0,), [])
