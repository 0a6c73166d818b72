"""Dyadic maximal operators."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.geometry import AxisSpec, PiecewiseField, Window
from dyadlab.maximal import (operator_norm_estimate, reducing_maximal,
                             strong_maximal, weighted_maximal)
from dyadlab.weights import MatrixWeight, random_spd_field

INF = math.inf


class TestStrongMaximal:
    def test_window_indicator_is_one(self, w2):
        f = PiecewiseField(w2, np.ones(w2.shape))
        for p in (0.5, 1.0, 3.0, INF):
            assert np.allclose(strong_maximal(f, p).field.values, 1.0)

    def test_cell_indicator_ancestor_formula(self, w1):
        f = PiecewiseField(w1, np.array([1.0, 0.0, 0.0, 0.0]))
        got = strong_maximal(f, 1.0).field.values
        # value at x = |Q| / |smallest rect containing x and Q|
        assert np.allclose(got, [1.0, 0.5, 0.25, 0.25])

    def test_sup_variant_is_global_max(self, w2, rng):
        f = PiecewiseField(w2, np.abs(rng.standard_normal(w2.shape)))
        got = strong_maximal(f, INF).field.values
        assert np.allclose(got, np.abs(f.values).max())

    def test_sup_variant_idempotent(self, w2, rng):
        f = PiecewiseField(w2, np.abs(rng.standard_normal(w2.shape)))
        once = strong_maximal(f, INF).field
        twice = strong_maximal(once, INF).field
        assert np.allclose(once.values, twice.values)

    def test_dominates_function(self, w2, rng):
        f = PiecewiseField(w2, np.abs(rng.standard_normal(w2.shape)))
        got = strong_maximal(f, 1.0).field.values
        assert (got >= np.abs(f.values) - 1e-12).all()

    @settings(max_examples=20)
    @given(p1=st.floats(0.5, 3.0), p2=st.floats(0.5, 3.0))
    def test_monotone_in_p(self, p1, p2):
        w = Window.unit(AxisSpec((1,)), (2,))
        f = PiecewiseField(w, np.array([1.0, 3.0, 0.5, 2.0]))
        lo, hi = sorted([p1, p2])
        a = strong_maximal(f, lo).field.values
        b = strong_maximal(f, hi).field.values
        assert (a <= b + 1e-10).all()


class TestWeightedMaximal:
    def test_identity_weight_is_strong(self, w1, rng):
        m = 2
        V = MatrixWeight(PiecewiseField(
            w1, np.broadcast_to(np.eye(m), w1.shape + (m, m)).copy()))
        fv = rng.standard_normal(w1.shape + (m,))
        f = PiecewiseField(w1, fv)
        got = weighted_maximal(V, f, 1.0).field.values
        want = strong_maximal(f, 1.0).field.values
        assert np.allclose(got, want)

    def test_scalar_rescaling_invariance(self, w1, rng):
        V = random_spd_field(w1, 2, rng)
        V3 = MatrixWeight(PiecewiseField(w1, 3.0 * V.field.values))
        f = PiecewiseField(w1, rng.standard_normal(w1.shape + (2,)))
        a = weighted_maximal(V, f, 1.0).field.values
        b = weighted_maximal(V3, f, 1.0).field.values
        assert np.allclose(a, b)

    def test_dominates_pointwise_value(self, w1, rng):
        V = random_spd_field(w1, 2, rng)
        f = PiecewiseField(w1, rng.standard_normal(w1.shape + (2,)))
        got = weighted_maximal(V, f, 1.0).field.values
        # the base cell itself is an admissible rectangle
        assert (got >= f.magnitude() - 1e-10).all()


class TestReducingMaximal:
    def test_certificates_bracket_one(self, w1, rng):
        F = random_spd_field(w1, 2, rng)
        res = reducing_maximal(F, rng=rng)
        certs = res.extra["certs"]
        assert (certs[:, 0] <= 1.0 + 1e-9).all()
        assert (certs[:, 1] >= 1.0 - 1e-9).all()
        assert (certs[:, 1] / certs[:, 0] <= 2.0).all()

    def test_constant_field_recovers_matrix_norms(self, w1, rng):
        M = np.array([[2.0, 0.0], [0.0, 1.0]])
        F = MatrixWeight(PiecewiseField(
            w1, np.broadcast_to(M, w1.shape + (2, 2)).copy()))
        res = reducing_maximal(F, rng=rng)
        for A in res.field.values:
            assert np.allclose(A, M, atol=0.05)


class TestOperatorNormEstimate:
    def test_flat_weight_bounded(self, rng):
        w = Window.unit(AxisSpec((1,)), (3,))
        V = MatrixWeight(PiecewiseField(w, np.ones(w.shape)))
        for p in (1.5, 2.0, 3.0):
            est = operator_norm_estimate(V, p, rng=np.random.default_rng(7))
            assert 1.0 <= est <= 5.0

    def test_deterministic_given_seed(self, w1):
        V = MatrixWeight(PiecewiseField(w1, np.ones(w1.shape)))
        a = operator_norm_estimate(V, 2.0, rng=np.random.default_rng(3))
        b = operator_norm_estimate(V, 2.0, rng=np.random.default_rng(3))
        assert a == b
