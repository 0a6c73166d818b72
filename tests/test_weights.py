"""Matrix weights: reducing operators, two-variable constants, means."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import weights
from dyadlab.geometry import AxisSpec, DyadicRect, PiecewiseField, Window
from dyadlab.maximal import reducing_maximal, strong_maximal
from dyadlab.weights import (MVEE_TOL, MatrixWeight, ap_constant, diag_pairs,
                             doubling_check, geometric_mean, mvee,
                             random_spd_field, reduce_exact_p2,
                             reduce_general, reducing_family, spd_power)

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


def _khachiyan(points, tol=1e-8, max_iter=10 ** 4):
    """The Khachiyan iteration that mvee replaced (oracle): it stops at
    kap <= m (1 + tol) or after max_iter steps, and its ellipsoid can miss
    points by the factor kap / m."""
    P = np.asarray(points, dtype=float)
    N, m = P.shape
    u = np.full(N, 1.0 / N)
    for _ in range(max_iter):
        X = np.einsum("i,ia,ib->ab", u, P, P)
        w = np.einsum("ia,ab,ib->i", P, np.linalg.inv(X), P)
        i = int(np.argmax(w))
        kap = w[i]
        if kap <= m * (1.0 + tol):
            break
        step = (kap - m) / (m * (kap - 1.0))
        u *= 1.0 - step
        u[i] += step
    X = np.einsum("i,ia,ib->ab", u, P, P)
    return np.linalg.inv(X) / m


def _reach(P, M):
    """max over the points of p'Mp."""
    return float(np.max(np.einsum("ia,ab,ib->i", P, M, P)))


def _fit_inputs(m, seed, monkeypatch):
    """The point sets reduce_general (p in {0.5, 1.5, 3}) and
    reducing_maximal (two cells) hand to mvee for a seeded m x m field."""
    seen, real = [], weights.mvee

    def record(pts):
        seen.append(np.array(pts))
        return real(pts)

    rng = np.random.default_rng(seed)
    with monkeypatch.context() as mp:
        mp.setattr(weights, "mvee", record)
        V = random_spd_field(Window.unit(AxisSpec((1,)), (2,)), m, rng)
        for p in (0.5, 1.5, 3.0):
            reduce_general(V, None, p, rng=rng)
        F = random_spd_field(Window.unit(AxisSpec((1,)), (1,)), m, rng)
        reducing_maximal(F, rng=rng)
    assert len(seen) == 5
    return seen


class TestMvee:
    def test_circle(self, rng):
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        pts = np.c_[np.cos(th), np.sin(th)]
        M = mvee(pts)
        assert np.allclose(M, np.eye(2), rtol=0, atol=1e-9)

    def test_axis_ellipse(self):
        pts = np.array([[2.0, 0.0], [0.0, 0.5], [-2.0, 0.0], [0.0, -0.5]])
        M = mvee(pts)
        assert M[0, 0] == pytest.approx(0.25, rel=1e-9)
        assert M[1, 1] == pytest.approx(4.0, rel=1e-9)
        assert M[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_one_dimension_closed_form(self):
        for pts in ([[0.3], [-2.0], [1.5]], [[1e-3]], [[-7.0], [7.0]]):
            M = mvee(np.array(pts))
            assert M.shape == (1, 1)
            want = 1.0 / max(p[0] ** 2 for p in pts)
            assert M[0, 0] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_against_khachiyan_on_fit_inputs(self, m, monkeypatch):
        """Every point enclosed, with the farthest on the boundary; log det
        at least the rescaled Khachiyan one minus m * MVEE_TOL, and at most
        the weak-duality bound of Khachiyan's unscaled ellipsoid."""
        for P in _fit_inputs(m, 100 + m, monkeypatch):
            M = mvee(P)
            assert abs(_reach(P, M) - 1.0) <= 1e-12
            K = _khachiyan(P)
            ld = np.linalg.slogdet(M)[1]
            lo = np.linalg.slogdet(K / _reach(P, K))[1] - m * MVEE_TOL
            assert lo <= ld <= np.linalg.slogdet(K)[1] + 1e-12

    def test_gap_against_closed_form(self):
        """m spanning points Pa plus points strictly inside the ellipsoid
        (Pa'Pa)^{-1} through them: that ellipsoid is the exact optimum."""
        rng = np.random.default_rng(17)
        for m in (1, 2, 3):
            for n_in in (1, 6, 40):
                Pa = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
                Y = rng.standard_normal((n_in, m))
                Y *= rng.uniform(0.3, 0.999, (n_in, 1)) / np.linalg.norm(
                    Y, axis=1, keepdims=True)
                P = rng.permutation(np.vstack([Pa, Y @ Pa]))
                best = -np.linalg.slogdet(Pa.T @ Pa)[1]
                ld = np.linalg.slogdet(mvee(P))[1]
                assert best - m * MVEE_TOL <= ld <= best + 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_within_tol_of_a_tighter_solve(self, m, monkeypatch):
        """A solve to MVEE_TOL / 100 is at most the optimum, so it bounds
        the gap tightly where Khachiyan's ellipsoids do not."""
        for P in _fit_inputs(m, 300 + m, monkeypatch):
            ld = np.linalg.slogdet(mvee(P))[1]
            with monkeypatch.context() as mp:
                mp.setattr(weights, "MVEE_TOL", MVEE_TOL / 100)
                tight = np.linalg.slogdet(mvee(P))[1]
            assert -m * MVEE_TOL / 100 <= tight - ld <= m * MVEE_TOL

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_affine_equivariant(self, m, monkeypatch):
        rng = np.random.default_rng(7 + m)
        for P in _fit_inputs(m, 200 + m, monkeypatch)[::2]:
            T = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
            Ti = np.linalg.inv(T)
            want = Ti.T @ mvee(P) @ Ti
            got = mvee(P @ T.T)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("pts", [
        [[1.0, 0.0], [0.0, math.inf]],
        [[1.0, 0.0], [math.nan, 1.0]],
        [[1.0, 2.0], [-2.0, -4.0], [0.5, 1.0]],
        [[1.0, 2.0]],
        [1.0, 2.0],
    ])
    def test_bad_points_refused(self, pts):
        # a plain ValueError naming the fault, not LinAlgError (a subclass)
        with pytest.raises(ValueError, match="finite|span"):
            mvee(np.array(pts))

    def test_step_cap_raises(self, monkeypatch):
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        pts = np.c_[2.0 * np.cos(th), np.sin(th)]
        monkeypatch.setattr(weights, "MVEE_MAX_STEPS", 5)
        with pytest.raises(RuntimeError):
            mvee(pts)


class TestBalancedFit:
    """_balanced_fit against the fit-certify-balance sequences that
    reduce_general and reducing_maximal used to inline (oracles)."""

    @staticmethod
    def _reduce_general_inline(V, R, p, rng):
        m = V.m
        dirs = weights._unit_dirs(m, max(2 * m * m, 48), rng)
        r = weights.lp_seminorm(V, R, p, dirs)
        degenerate = bool(r.min() <= 1e-13 * max(r.max(), 1.0))
        if degenerate:
            keep = r > 1e-13 * max(r.max(), 1.0)
            dirs, r = dirs[keep], r[keep]
            if len(r) < m:
                return np.zeros((m, m)), (0.0, 0.0), True
        pts = dirs / r[:, None]
        if p < 1:
            pts = pts * (2 * m + 1) ** (1.0 - 1.0 / p)
        A = spd_power(mvee(pts), 0.5)
        fresh = weights._unit_dirs(m, 200, rng)
        rf = weights.lp_seminorm(V, R, p, fresh)
        ratio = np.linalg.norm(fresh @ A.T, axis=1) / rf
        c_lo, c_hi = float(ratio.min()), float(ratio.max())
        scale = 1.0 / math.sqrt(c_lo * c_hi)
        return scale * A, (c_lo * scale, c_hi * scale), degenerate

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_reduce_general_matches_inline(self, m):
        w = Window.unit(AxisSpec((1,)), (2,))
        V = random_spd_field(w, m, np.random.default_rng(m))
        for p in (0.5, 1.0, 1.5, 3.0):
            for R in (None, DyadicRect(w.axes, (1,), ((1,),))):
                got = reduce_general(V, R, p, rng=np.random.default_rng(9))
                want = self._reduce_general_inline(
                    V, R, p, np.random.default_rng(9))
                assert np.array_equal(got[0], want[0])
                assert got[1:] == want[1:]

    def test_degenerate_matches_inline(self, w1):
        vals = np.zeros(w1.shape + (2, 2))
        vals[..., 0, 0] = 1.0
        vals[..., 1, 1] = 1e-16
        inv = np.zeros_like(vals)
        inv[..., 0, 0] = 1.0
        inv[..., 1, 1] = 1e16
        V = MatrixWeight(PiecewiseField(w1, vals), inv_values=inv)
        got = reduce_general(V, None, 1.0, rng=np.random.default_rng(3))
        want = self._reduce_general_inline(V, None, 1.0,
                                           np.random.default_rng(3))
        assert got[2] and want[2]
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_reducing_maximal_matches_inline(self, w1):
        F = random_spd_field(w1, 2, np.random.default_rng(4))
        got = reducing_maximal(F, rng=np.random.default_rng(5))
        rng = np.random.default_rng(5)
        dirs = weights._unit_dirs(2, 32, rng)
        fresh = weights._unit_dirs(2, 64, rng)
        S = np.stack([
            strong_maximal(PiecewiseField(w1, np.linalg.norm(
                np.einsum("...ab,b->...a", F.field.values, d), axis=-1)
            )).field.values.reshape(-1)
            for d in np.concatenate([dirs, fresh])])
        nfit = len(dirs)
        for c in range(S.shape[1]):
            r = S[:nfit, c]
            A = spd_power(mvee(dirs / r[:, None]), 0.5)
            ratio = np.linalg.norm(fresh @ A.T, axis=1) / S[nfit:, c]
            lo, hi = ratio.min(), ratio.max()
            scale = 1.0 / math.sqrt(lo * hi)
            assert np.array_equal(got.field.values[c], scale * A)
            assert np.array_equal(got.extra["certs"][c],
                                  [lo * scale, hi * scale])


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
