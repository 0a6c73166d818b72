"""End-to-end acceptance checks, one test class per criterion."""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dyadlab.almost_diagonal import (ADParams, empirical_norm,
                                     necessity_curve)
from dyadlab.carleson import (MultiplierFamily, all_open_sets,
                              open_functional, rect_truncated_functional)
from dyadlab.counterexamples import CaseSpec, control_spec, fit_slope, measure
from dyadlab.geometry import AxisSpec, DyadicRect, PiecewiseField, Window
from dyadlab.maximal import operator_norm_estimate
from dyadlab.mixed_norms import (CoeffSeq, NormSpec, Permutation, a_norm,
                                 iterated_norm, tensor_seq)
from dyadlab.quilts import (LevelDistribution, distribution_step,
                            enumerate_distribution, lemma_step_check,
                            moment_ratio, quilt_refine, quilt_validate,
                            sigma_float, sigma_sequence, unit_quilt)
from dyadlab.weights import (MatrixWeight, ap_constant, diag_pairs,
                             geometric_mean, random_spd_field,
                             reduce_exact_p2, reduce_general,
                             reducing_family, spd_power, two_variable_norm)

INF = math.inf


def _loglog_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


class TestCriterion1QuiltExactness:
    def test_generations_up_to_three(self):
        t0 = time.monotonic()
        sig = sigma_sequence(3)
        q = unit_quilt()
        for g in range(1, 4):
            q = quilt_refine(q)
            rep = quilt_validate(q)
            assert rep["total"] == 1
            assert rep["worst_packing"] <= 1
            assert rep["sigma"] == sig[g]
        assert sig[1] == Fraction(3, 4)
        assert sig[2] == Fraction(39, 64)
        assert time.monotonic() - t0 < 10.0


class TestCriterion2DistributionRecursion:
    def test_matches_enumeration_exactly(self):
        q = unit_quilt()
        mu = LevelDistribution()
        for _ in range(3):
            q = quilt_refine(q)
            mu = distribution_step(mu)
            assert enumerate_distribution(q).probs == mu.probs

    def test_mean_one_thirty_steps(self):
        mu = LevelDistribution()
        for _ in range(30):
            mu = distribution_step(mu, cap=4096, quantum_bits=192)
            assert mu.mean == 1


class TestCriterion3SigmaAsymptotics:
    def test_tail_band(self):
        vals = sigma_float(10 ** 5)
        prod = np.arange(len(vals)) * np.array(vals)
        tail = prod[1000:]
        assert tail.min() >= 3.9
        assert tail.max() <= 4.1


@pytest.fixture(scope="module")
def laws():
    mus = [LevelDistribution()]
    for _ in range(12):
        mus.append(distribution_step(mus[-1]))
    return mus


class TestCriterion4MomentGrowth:
    def test_per_step_inequalities_exact(self, laws):
        """The concavity argument's per-step drop and ratio bounds certify
        with exact rationals.  The simpler stated prefactor
        (1 + (2^p - 1)/3 P) overstates the bound: it requires full
        coverage, so from the second step on the certificate proves it
        false; the sharp prefactor with denominator 2(1 - P/4) is the
        inequality that holds."""
        for n in range(12):
            v = lemma_step_check(laws[n], laws[n + 1])
            assert v["drop"] in ("holds", "equality")
            assert v["ratio"] in ("holds", "equality")
            if n == 0:
                assert v["ratio_literal"] == "equality"
            else:
                assert v["ratio_literal"] == "fails"

    def test_ratio_strictly_increasing(self, laws):
        mr = [moment_ratio(m, 0.5) for m in laws]
        assert all(a < b for a, b in zip(mr, mr[1:]))

    def test_positive_slope(self, laws):
        mr = [moment_ratio(m, 0.5) for m in laws]
        ns = list(range(4, 13))
        assert _loglog_slope(ns, [mr[n] for n in ns]) > 0


class TestCriterion5CounterexampleExponents:
    NS = [2 ** t for t in range(4, 11)]

    @pytest.mark.parametrize("case,params,pred", [
        ("CARL_SP", {"p": 1.0, "q": 0.5, "s": 1.0}, 1.0),
        ("CARL_RECT_A", {"p": 1.0, "q": 4.0, "s": 2.0}, 0.25),
        ("MAXIMAL_NONADM", {"q": 2.0}, 0.5),
    ])
    def test_slope_and_control(self, case, params, pred):
        t0 = time.monotonic()
        spec = CaseSpec(case, params)
        curve = measure(spec, self.NS)
        assert curve.predicted_slope == pytest.approx(pred)
        slope, _ = fit_slope(curve)
        assert abs(slope - pred) <= 0.15 * pred
        ctrl_slope, _ = fit_slope(measure(control_spec(spec), self.NS))
        assert ctrl_slope <= 0.05
        assert time.monotonic() - t0 < 60.0


class TestCriterion6ReducingOperators:
    def test_p2_exact_on_hundred_fields(self):
        rng = np.random.default_rng(0)
        w = Window.unit(AxisSpec((1,)), (2,))
        for _ in range(100):
            m = int(rng.integers(1, 4))
            V = random_spd_field(w, m, rng)
            A = reduce_exact_p2(V)
            dirs = rng.standard_normal((8, m))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            lhs = np.linalg.norm(dirs @ A.T, axis=1) ** 2
            cells = V.field.values.reshape(-1, m, m)
            rhs = (np.linalg.norm(
                np.einsum("cab,db->cda", cells, dirs), axis=-1) ** 2
            ).mean(axis=0)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1, rhs.max())

    def test_certificates_p_geq_1(self):
        rng = np.random.default_rng(1)
        w = Window.unit(AxisSpec((1,)), (2,))
        for p in (1.0, 1.5, 2.0, 3.0):
            for _ in range(5):
                m = int(rng.integers(1, 4))
                V = random_spd_field(w, m, rng)
                _, (lo, hi), deg = reduce_general(V, None, p, rng=rng)
                assert not deg
                assert hi / lo <= 5.0

    def test_certificates_small_p(self):
        rng = np.random.default_rng(2)
        w = Window.unit(AxisSpec((1,)), (2,))
        for p in (0.5, 0.75):
            for _ in range(5):
                m = int(rng.integers(1, 4))
                V = random_spd_field(w, m, rng)
                _, (lo, hi), deg = reduce_general(V, None, p, rng=rng)
                assert not deg
                assert hi / lo <= 5.0 * (2 * m + 1) ** (1 / p - 1)


class TestCriterion7ApMachinery:
    W1 = Window.unit(AxisSpec((1,)), (2,))
    W2 = Window.unit(AxisSpec((1, 1)), (2, 2))

    def test_constant_weight(self):
        M = np.array([[2.0, 0.5], [0.5, 1.5]])
        vals = np.broadcast_to(M, self.W2.shape + (2, 2)).copy()
        V = MatrixWeight(PiecewiseField(self.W2, vals))
        assert abs(ap_constant(V, 2.0, diag_pairs(self.W2)).constant
                   - 1.0) < 1e-10

    def test_two_cell_exact(self):
        w = Window.unit(AxisSpec((1,)), (1,))
        V = MatrixWeight(PiecewiseField(w, np.array([1.0, 3.0])))
        assert ap_constant(V, 2.0, diag_pairs(w)).constant \
            == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_product_factorization(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = np.abs(rng.standard_normal(4)) + 0.3
            v = np.abs(rng.standard_normal(4)) + 0.3
            cu = ap_constant(MatrixWeight(PiecewiseField(self.W1, u)),
                             2.0, diag_pairs(self.W1)).constant
            cv = ap_constant(MatrixWeight(PiecewiseField(self.W1, v)),
                             2.0, diag_pairs(self.W1)).constant
            cp = ap_constant(
                MatrixWeight(PiecewiseField(self.W2, np.outer(u, v))),
                2.0, diag_pairs(self.W2)).constant
            assert cp == pytest.approx(cu * cv, rel=1e-9)

    def test_fubini_comparability_frozen_factor(self):
        """Iterated two-variable norm of A(x)B(y) against the product of
        the quadratic-mean reducing operators; frozen factor 10 (measured
        worst case is below 1.4)."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            A = random_spd_field(self.W1, m, rng)
            B = random_spd_field(self.W1, m, rng)
            Ac = A.field.values.reshape(-1, m, m)
            Bc = B.field.values.reshape(-1, m, m)
            wts = np.full(len(Ac), 1.0 / len(Ac))
            lhs = two_variable_norm(Ac, wts, Bc, wts, 2.0, 2.0)
            A2 = spd_power(np.einsum("c,cba,cbd->ad", wts, Ac, Ac), 0.5)
            B2 = spd_power(np.einsum("c,cab,cdb->ad", wts, Bc, Bc), 0.5)
            rhs = float(np.linalg.norm(A2 @ B2, 2))
            assert rhs / 10.0 <= lhs <= 10.0 * rhs

    def test_geometric_mean_submultiplicative(self):
        rng = np.random.default_rng(5)
        for i in range(20):
            p0, p1 = (float(rng.choice([1.5, 2.0, 3.0])) for _ in range(2))
            th = float(rng.uniform(0.2, 0.8))
            p = 1.0 / ((1 - th) / p0 + th / p1)
            if i < 10:
                v0 = np.abs(rng.standard_normal(4)) + 0.3
                v1 = np.abs(rng.standard_normal(4)) + 0.3
                V0 = MatrixWeight(PiecewiseField(self.W1, v0))
                V1 = MatrixWeight(PiecewiseField(self.W1, v1))
                Vt = MatrixWeight(PiecewiseField(
                    self.W1, v0 ** (1 - th) * v1 ** th))
            else:
                V0 = random_spd_field(self.W1, 2, rng)
                V1 = random_spd_field(self.W1, 2, rng)
                G = np.stack([geometric_mean(a, b, th) for a, b in
                              zip(V0.field.values, V1.field.values)])
                Vt = MatrixWeight(PiecewiseField(self.W1, G))
            c0 = ap_constant(V0, p0, diag_pairs(self.W1)).constant
            c1 = ap_constant(V1, p1, diag_pairs(self.W1)).constant
            ct = ap_constant(Vt, p, diag_pairs(self.W1)).constant
            assert ct <= 2.0 * c0 ** (1 - th) * c1 ** th

    def test_cross_one_interpolation_diverges(self):
        spec = CaseSpec("AP_INTERP_FAIL",
                        {"p0": 2 / 3, "p1": 4.0, "theta": 0.5,
                         "alpha": 2.5})
        rs = [r for _, r in measure(spec, [2, 4, 8]).ratios]
        assert rs[1] >= 1.1 * rs[0]
        assert rs[2] >= 1.1 * rs[1]


class TestCriterion8MixedNormIdentities:
    def _random_part(self, rng):
        axes = AxisSpec((1,))
        data = {}
        for j in range(3):
            off = int(rng.integers(0, 2 ** j))
            data[DyadicRect(axes, (j,), ((off,),))] = \
                np.abs(rng.standard_normal(1)) + 0.1
        return CoeffSeq(axes, data)

    @pytest.mark.parametrize("k", [2, 3])
    def test_tensor_factorization(self, k):
        rng = np.random.default_rng(6)
        w1 = Window.unit(AxisSpec((1,)), (2,))
        wk = Window.unit(AxisSpec((1,) * k), (2,) * k)
        ss = (0.3, -0.2, 0.1)[:k]
        ps = (1.5, 2.0, 1.0)[:k]
        qs = (1.0, 3.0, 2.0)[:k]
        for _ in range(10):
            parts = [self._random_part(rng) for _ in range(k)]
            lhs = a_norm(tensor_seq(parts),
                         NormSpec(ss, 0.0, ps, qs, Permutation.besov(k)),
                         wk)
            rhs = np.prod([
                a_norm(parts[i], NormSpec((ss[i],), 0.0, (ps[i],),
                                          (qs[i],), Permutation.besov(1)),
                       w1) for i in range(k)])
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_permutation_invariance_equal_exponents(self):
        import itertools
        rng = np.random.default_rng(7)
        w = Window.unit(AxisSpec((1, 1)), (2, 2))
        values = {j: np.abs(rng.standard_normal(w.shape)) + 0.1
                  for j in w.levels()}
        p = 1.7
        base = None
        for seq in itertools.permutations((1, 2, 3, 4)):
            got = iterated_norm(w, values, (p, p), (p, p),
                                Permutation(seq))
            if base is None:
                base = got
            else:
                assert got == pytest.approx(base, rel=1e-9)

    def test_one_parameter_carleson_identity(self):
        rng = np.random.default_rng(8)
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


class TestCriterion9AlmostDiagonalHarness:
    def test_unweighted_two_parameter_stable(self):
        par = ADParams((3.0, 3.0), (2.0, 2.0), (2.0, 2.0))
        spec = NormSpec((0.0, 0.0), 0.0, (2.0, 2.0), (2.0, 2.0),
                        Permutation.besov(2))
        ws = [Window.unit(AxisSpec((1, 1)), (J, J)) for J in (1, 2, 3)]
        curve = empirical_norm(par, spec, ws, trials=6)
        assert max(curve) / min(curve) < 2.0

    @pytest.mark.parametrize("pi", [Permutation.besov(1),
                                    Permutation.tl(1)])
    def test_matrix_weighted_stable(self, pi):
        def weight_for(win):
            rng = np.random.default_rng(42)
            V = random_spd_field(win, 2, rng, log_cond=1.0)
            fam = reducing_family(V, list(win.levels()), p=2.0)
            return fam.level_weight(win)

        par = ADParams((3.0,), (2.0,), (2.0,))
        spec = NormSpec((0.0,), 0.0, (2.0,), (2.0,), pi)
        ws = [Window.unit(AxisSpec((1,)), (J,)) for J in (1, 2, 3)]
        curve = empirical_norm(par, spec, ws, weight_for=weight_for,
                               trials=6, m=2)
        assert max(curve) / min(curve) < 2.0

    @pytest.mark.parametrize("kind", ["D", "E", "F"])
    def test_tensor_lifted_necessity(self, kind):
        pts, pred = necessity_curve(kind, [2, 3, 4], tensor=True)
        xs = [J for J, _ in pts]
        ys = [math.log2(r) for _, r in pts]
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert slope >= 0.8 * pred


def interp_ratio(a: dict, s0: float, s1: float, theta: float,
                 q: float) -> float:
    """One-parameter intermediate-to-endpoints ratio for a positive
    coefficient profile {j: a_j} and finite q; bounded by the
    min-of-geometrics constant whenever s0 != s1."""
    st = (1 - theta) * s0 + theta * s1
    lhs = sum((2.0 ** (j * st) * v) ** q for j, v in a.items()) ** (1 / q)
    m0 = max(2.0 ** (j * s0) * v for j, v in a.items())
    m1 = max(2.0 ** (j * s1) * v for j, v in a.items())
    return lhs / (m0 ** (1 - theta) * m1 ** theta)


class TestInterpRatio:
    def test_single_parameter_bounded(self):
        a = {j: 2.0 ** (-abs(j)) for j in range(-6, 7)}
        r = interp_ratio(a, 0.0, 1.0, 0.5, 2.0)
        assert r <= 6.0

    def test_spike_is_tight(self):
        r = interp_ratio({3: 1.0}, 0.0, 1.0, 0.5, 2.0)
        assert r == pytest.approx(1.0)


class TestCriterion10InterpolationFailure:
    def test_two_parameter_partial_sums_grow(self):
        spec = CaseSpec("INTERP_FAIL", {"s0": (0.0, 0.0),
                                        "s1": (1.0, 1.0),
                                        "theta": 0.5, "q": 1.0})
        curve = measure(spec, [4, 8])
        assert all(den == 1.0 for _, _, den in curve.points)
        (_, r4), (_, r8) = curve.ratios
        assert r8 >= 1.5 * r4

    def test_one_parameter_bounded_frozen_constant(self):
        """Distinct endpoint orders keep the one-parameter inequality
        true; frozen constant 2 (measured worst case is below 1.25)."""
        rng = np.random.default_rng(0)
        for _ in range(100):
            js = rng.integers(-8, 9, size=rng.integers(3, 12))
            a = {int(j): float(2.0 ** rng.uniform(-3, 3)) for j in js}
            assert interp_ratio(a, 0.0, 1.0, 0.5, 2.0) <= 2.0


class TestCriterion11WeightedMaximal:
    @staticmethod
    def _product_weight(J, b1=0.4, b2=0.3):
        ax = AxisSpec((1, 1))
        w = Window(DyadicRect(ax, (-J, -J), ((0,), (0,))), (0, 0))
        x1 = (np.arange(2 ** J) + 0.5) ** b1
        x2 = (np.arange(2 ** J) + 0.5) ** b2
        return MatrixWeight(PiecewiseField(w, np.outer(x1, x2)))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_operator_norms_stable_across_doublings(self, p):
        ests = [operator_norm_estimate(self._product_weight(J), p,
                                       trials=8,
                                       rng=np.random.default_rng(1))
                for J in (2, 3, 4)]
        assert max(ests) / min(ests) < 2.0
