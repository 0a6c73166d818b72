"""Sharpness catalog: validation, closed forms, lattice cross-checks."""
import math

import numpy as np
import pytest

from dyadlab.carleson import (MultiplierFamily, all_open_sets,
                              open_functional, rect_functional)
from dyadlab.counterexamples import (CASES, CaseSpec, RatioCurve,
                                     control_spec, fit_slope, generate,
                                     interp_ratio, measure, predicted_slope)
from dyadlab.maximal import strong_maximal
from dyadlab.mixed_norms import Permutation, iterated_norm
from dyadlab.geometry import PiecewiseField
from dyadlab.weights import ap_constant, diag_pairs, geometric_mean

INF = math.inf

SP = {"p": 1.0, "q": 0.5, "s": 1.0}
RECT_A = {"p": 0.5, "q": 1.0, "s": 2.0}
INTERP = {"s0": (0.0, 0.0), "s1": (1.0, 1.0), "theta": 0.5, "q": 2.0}
AP_INTERP = {"p0": 2 / 3, "p1": 4.0, "theta": 0.5, "alpha": 2.5}


class TestValidation:
    def test_unknown_case(self):
        with pytest.raises(ValueError):
            CaseSpec("NOPE", {})

    def test_carl_sp_needs_q_below_p(self):
        with pytest.raises(ValueError):
            CaseSpec("CARL_SP", {"p": 1.0, "q": 2.0, "s": 1.0})

    def test_carl_sp_needs_p_at_most_s(self):
        with pytest.raises(ValueError):
            CaseSpec("CARL_SP", {"p": 2.0, "q": 1.0, "s": 1.5})

    def test_interp_fail_rejects_equal_orders(self):
        with pytest.raises(ValueError):
            CaseSpec("INTERP_FAIL",
                     {"s0": 1.0, "s1": 1.0, "theta": 0.5, "q": 2.0})

    def test_equiv_sub_tau_range(self):
        with pytest.raises(ValueError):
            CaseSpec("EQUIV_SUB_TAU", {"p": 2.0, "tau": 0.6})

    def test_ap_interp_alpha_range(self):
        with pytest.raises(ValueError):
            CaseSpec("AP_INTERP_FAIL",
                     {"p0": 0.5, "p1": 2.0, "theta": 0.5, "alpha": 1.5})

    def test_positive_size(self):
        with pytest.raises(ValueError):
            CaseSpec("CARL_SP", SP, N=0)

    def test_every_case_listed(self):
        assert len(CASES) == 11


class TestFitSlope:
    def _curve(self, pts):
        return RatioCurve("CARL_SP", pts, 0.0)

    def test_exact_power_law(self):
        pts = [(n, float(n) ** 0.75, 1.0) for n in (4, 8, 16, 32)]
        slope, res = fit_slope(self._curve(pts))
        assert slope == pytest.approx(0.75, abs=1e-9)
        assert res < 1e-9

    def test_constant_curve(self):
        pts = [(n, 2.0, 1.0) for n in (4, 8, 16)]
        slope, _ = fit_slope(self._curve(pts))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_slope(self._curve([(2, 1.0, 1.0), (4, 2.0, 1.0)]))


class TestPredictedSlopes:
    def test_carl_sp(self):
        spec = CaseSpec("CARL_SP", SP)
        assert predicted_slope(spec) == pytest.approx(1.0)  # 1/q - 1/p

    def test_carl_sp_control_flat(self):
        spec = control_spec(CaseSpec("CARL_SP", SP))
        assert predicted_slope(spec) == 0.0

    def test_carl_rect_a(self):
        spec = CaseSpec("CARL_RECT_A", RECT_A)
        assert predicted_slope(spec) == pytest.approx(0.5 - 1.0)  \
            or predicted_slope(spec) == pytest.approx(0.0)

    def test_maximal_orders(self):
        assert predicted_slope(CaseSpec("MAXIMAL_NONADM", {"q": 2.0})) \
            == pytest.approx(0.5)
        assert predicted_slope(
            CaseSpec("MAXIMAL_NONADM", {"q": 2.0, "pi": "B"})) == 0.0

    def test_interp_fail_arity(self):
        two = CaseSpec("INTERP_FAIL", {"s0": (0.0, 0.0), "s1": (1.0, 1.0),
                                       "theta": 0.5, "q": 2.0})
        one = CaseSpec("INTERP_FAIL", {"s0": 0.0, "s1": 1.0,
                                       "theta": 0.5, "q": 2.0})
        assert predicted_slope(two) == pytest.approx(0.5)
        assert predicted_slope(one) == 0.0

    def test_controls_exist_or_refuse(self):
        specs = {
            "CARL_SP": SP, "CARL_RECT_B": SP, "CARL_RECT_A": RECT_A,
            "MIXED_PERM_COM": {"p": 0.5, "s": 1.0, "qb": 4.0},
            "MAXIMAL_NONADM": {"q": 2.0},
            "EQUIV_SUB_TAU": {"p": 1.0, "tau": 0.25},
            "EQUIV_SUB_CRIT": {"p": 2.0, "q": 1.0, "a": 1.5},
            "INTERP_FAIL": {"s0": (0.0, 0.0), "s1": (1.0, 1.0),
                            "theta": 0.5, "q": 2.0},
        }
        for case, params in specs.items():
            ctrl = control_spec(CaseSpec(case, params))
            assert predicted_slope(ctrl) <= 0.0
        for case, params in [
                ("CARL_OPEN_MULTI", {"p": 1.0, "s": 2.0, "q": 8.0}),
                ("AP_INTERP_FAIL", {"p0": 2 / 3, "p1": 4.0, "theta": 0.5,
                                    "alpha": 2.5})]:
            with pytest.raises(ValueError):
                control_spec(CaseSpec(case, params))


class TestLatticeCrossChecks:
    def test_carl_sp_ratio_matches_closed_form(self):
        spec = CaseSpec("CARL_SP", SP, N=3)
        data = generate(spec)
        w = data["window"]
        p, q = SP["p"], SP["q"]
        prod = {j: data["gammas"][j] * data["fields"][j]
                for j in data["gammas"]}
        num = iterated_norm(w, prod, (p,), (q,), Permutation.tl(1))
        den = iterated_norm(w, data["fields"], (p,), (q,),
                            Permutation.tl(1))
        (_, cnum, cden), = measure(spec, [3]).points
        assert num / den == pytest.approx(cnum / cden, rel=1e-8)

    def test_carl_sp_unit_rect_functional(self):
        spec = CaseSpec("CARL_SP", SP, N=3)
        data = generate(spec)
        fam = MultiplierFamily(data["window"], data["gammas"])
        assert rect_functional(fam, SP["s"]) == pytest.approx(1.0)

    def test_carl_rect_a_exact_norms(self):
        N = 4
        spec = CaseSpec("CARL_RECT_A", RECT_A, N=N)
        data = generate(spec)
        w = data["window"]
        s, p, q = RECT_A["s"], RECT_A["p"], RECT_A["q"]
        fam = MultiplierFamily(w, data["gammas"])
        assert rect_functional(fam, s) == pytest.approx(1.0, abs=1e-12)
        num = iterated_norm(w, data["gammas"], (s,), (s,),
                            Permutation.tl(1))
        den = iterated_norm(w, data["fields"], (p,), (q,),
                            Permutation.tl(1))
        assert num == pytest.approx(N ** (1 / s), rel=1e-12)
        assert den == pytest.approx(N ** (1 / q), rel=1e-12)

    def test_carl_rect_b_open_functional_capped(self):
        spec = CaseSpec("CARL_RECT_B", SP, N=2)
        data = generate(spec)
        w = data["window"]
        fam = MultiplierFamily(w, data["gammas"])
        got = open_functional(fam, SP["p"], all_open_sets(w))
        assert got <= 1.0 + 1e-12
        assert got == pytest.approx(1.0)

    def test_maximal_rows_match_lattice(self):
        q, N = 2.0, 4
        spec = CaseSpec("MAXIMAL_NONADM", {"q": q}, N=N)
        data = generate(spec)
        w = data["window"]
        stack = np.stack([
            strong_maximal(PiecewiseField(w, f), 1.0).field.values
            for f in data["fields"].values()])
        num = float(((stack ** q).sum(axis=0) ** (1 / q)).max())
        (_, cnum, cden), = measure(spec, [N]).points
        assert num == pytest.approx(cnum, rel=1e-12)
        assert cden == 1.0

    def test_interp_fail_norms_match_closed_form(self):
        J = 4
        spec = CaseSpec("INTERP_FAIL", INTERP, N=J)
        data = generate(spec)
        a = data["coeffs"]
        grids = np.meshgrid(*[np.arange(-J, J + 1)] * a.ndim, indexing="ij")

        def scaled(s):
            return a * 2.0 ** sum(g * x for g, x in zip(grids, s))

        theta, q = INTERP["theta"], INTERP["q"]
        s0, s1 = np.array(INTERP["s0"]), np.array(INTERP["s1"])
        mid = scaled((1 - theta) * s0 + theta * s1)
        num = float((mid ** q).sum() ** (1 / q))
        (_, cnum, cden), = measure(spec, [J]).points
        assert num == pytest.approx(cnum, rel=1e-12)
        assert scaled(s0).max() == scaled(s1).max() == cden == 1.0

    @pytest.mark.parametrize("J", [2, 3, 4, 5])
    def test_ap_interp_fail_weight_matches_closed_form(self, J):
        spec = CaseSpec("AP_INTERP_FAIL", AP_INTERP, N=J)
        data = generate(spec)
        V, V1 = data["geometric_mean"], data["endpoint1"]
        theta = AP_INTERP["theta"]
        for G, B in zip(V.field.values, V1.field.values):
            want = geometric_mean(np.eye(1), B, theta)
            assert np.abs(G - want).max() <= 1e-12
        p = 1 / ((1 - theta) / AP_INTERP["p0"] + theta / AP_INTERP["p1"])
        got = ap_constant(V, p, diag_pairs(data["window"])).constant
        (_, cnum, _), = measure(spec, [J]).points
        assert got == cnum

    @pytest.mark.parametrize("case,params", [
        ("CARL_OPEN_MULTI", {"p": 1.0, "q": 4.0, "s": 2.0}),
        ("MIXED_PERM_GAMMA", {"p": 1.0, "q1": 1.0, "q2": 4.0, "s": 2.0}),
        ("MIXED_PERM_COM", {"p": 1.0, "qb": 4.0, "s": 2.0}),
        ("EQUIV_SUB_TAU", {"p": 1.0, "tau": 0.25}),
        ("EQUIV_SUB_CRIT", {"p": 2.0, "q": 1.0, "a": 1.5})])
    def test_cases_without_lattice_data_refuse(self, case, params):
        with pytest.raises(ValueError, match="no lattice realization"):
            generate(CaseSpec(case, params, N=2))


class TestMeasuredCurves:
    def test_maximal_control_is_exactly_flat(self):
        spec = CaseSpec("MAXIMAL_NONADM", {"q": 2.0, "pi": "B"})
        curve = measure(spec, [4, 8, 16])
        assert all(r == pytest.approx(1.0) for _, r in curve.ratios)

    def test_equiv_sub_tau_slope(self):
        spec = CaseSpec("EQUIV_SUB_TAU", {"p": 1.0, "tau": 0.25})
        slope, _ = fit_slope(measure(spec, [4, 8, 16, 32]))
        assert slope == pytest.approx(0.75, rel=0.05)
        ctrl, _ = fit_slope(measure(control_spec(spec), [4, 8, 16, 32]))
        assert abs(ctrl) <= 0.05

    def test_open_multi_beats_scalar_bound(self):
        params = {"p": 1.0, "s": 2.0, "q": 8.0}
        curve = measure(CaseSpec("CARL_OPEN_MULTI", params), [1, 2, 3])
        for n, r in curve.ratios:
            assert r > n ** (1 / params["s"] - 1 / params["q"]) - 1e-12

    def test_ap_interp_uses_window_side(self):
        spec = CaseSpec("AP_INTERP_FAIL",
                        {"p0": 2 / 3, "p1": 4.0, "theta": 0.5,
                         "alpha": 2.5})
        curve = measure(spec, [1, 2])
        assert [n for n, _, _ in curve.points] == [2, 4]

    def test_interp_fail_endpoints_unit(self):
        spec = CaseSpec("INTERP_FAIL", {"s0": (0.0, 0.0),
                                        "s1": (1.0, 1.0),
                                        "theta": 0.5, "q": 2.0})
        curve = measure(spec, [2, 8])
        assert all(den == 1.0 for _, _, den in curve.points)
        rs = [r for _, r in curve.ratios]
        assert rs[1] > 1.5 * rs[0]


class TestInterpRatio:
    def test_single_parameter_bounded(self):
        a = {j: 2.0 ** (-abs(j)) for j in range(-6, 7)}
        r = interp_ratio(a, 0.0, 1.0, 0.5, 2.0)
        assert r <= 6.0

    def test_spike_is_tight(self):
        r = interp_ratio({3: 1.0}, 0.0, 1.0, 0.5, 2.0)
        assert r == pytest.approx(1.0)
