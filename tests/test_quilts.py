"""Quilt refinement, coverage recursion, overlap laws, lifts."""
import math
from fractions import Fraction

import numpy as np
import pytest

from dyadlab.geometry import AxisSpec, DyadicRect
from dyadlab.quilts import (LevelDistribution, Quilt, distribution_step,
                            enumerate_distribution, lemma_step_check,
                            moment_half_bounds, moment_ratio, quilt_chi,
                            quilt_lift_nd, quilt_refine, quilt_validate,
                            sigma_float, sigma_sequence, sqrt_bounds,
                            unit_quilt)

AX2 = AxisSpec((1, 1))


class TestRefine:
    def test_generation_sizes(self):
        q = unit_quilt()
        sizes = [len(q.rects)]
        for _ in range(2):
            q = quilt_refine(q)
            sizes.append(len(q.rects))
        assert sizes == [1, 2, 8]

    def test_first_generation_shape(self):
        q = quilt_refine(unit_quilt())
        assert {R.levels for R in q.rects} == {(1, 0), (0, 1)}

    def test_rejects_too_coarse_n(self):
        q = quilt_refine(unit_quilt())
        with pytest.raises(ValueError):
            quilt_refine(q, N=0)

    def test_validate_generations(self):
        q = unit_quilt()
        sigmas = [Fraction(1), Fraction(3, 4), Fraction(39, 64)]
        for g in range(3):
            rep = quilt_validate(q)
            assert rep["valid"]
            assert rep["total"] == 1
            assert rep["worst_packing"] <= 1
            assert rep["sigma"] == sigmas[g]
            if g < 2:
                q = quilt_refine(q)

    def test_validate_flags_excess_mass(self):
        bad = Quilt(frozenset({
            DyadicRect(AX2, (0, 0), ((0,), (0,))),
            DyadicRect(AX2, (1, 0), ((0,), (0,))),
        }))
        rep = quilt_validate(bad)
        assert not rep["valid"]
        assert rep["total"] > 1


class TestSigma:
    def test_exact_prefix(self):
        assert sigma_sequence(2) == [1, Fraction(3, 4), Fraction(39, 64)]

    def test_float_matches_exact(self):
        ex = sigma_sequence(20)
        fl = sigma_float(20)
        for a, b in zip(ex, fl):
            assert float(a) == pytest.approx(b, rel=1e-12)

    def test_tail_scaling(self):
        s = sigma_float(1000)
        assert 1000 * s[1000] == pytest.approx(4.0, abs=0.15)


class TestDistribution:
    def test_first_step_law(self):
        mu1 = distribution_step(LevelDistribution())
        assert mu1.probs == {0: Fraction(1, 4), 1: Fraction(1, 2),
                             2: Fraction(1, 4)}

    def test_mean_preserved_exactly(self):
        mu = LevelDistribution()
        for _ in range(10):
            mu = distribution_step(mu, cap=256, quantum_bits=96)
            assert mu.mean == 1
            assert mu.total == 1

    @pytest.mark.parametrize("kw", [{"cap": 8}, {"quantum_bits": 8}])
    def test_lone_coarsening_option_refused(self, kw):
        with pytest.raises(ValueError):
            distribution_step(LevelDistribution(), **kw)

    def test_p_pos_is_sigma(self):
        mu = LevelDistribution()
        for s in sigma_sequence(6):
            assert mu.p_pos == s
            mu = distribution_step(mu)

    def test_matches_enumeration(self):
        q = unit_quilt()
        mu = LevelDistribution()
        for _ in range(3):
            q = quilt_refine(q)
            mu = distribution_step(mu)
            assert enumerate_distribution(q).probs == mu.probs

    def test_moment_ratio_base(self):
        assert moment_ratio(LevelDistribution(), 0.5) == pytest.approx(1.0)

    def test_moment_ratio_first_step(self):
        mu1 = distribution_step(LevelDistribution())
        want = (2 + math.sqrt(2)) / 3
        assert moment_ratio(mu1, 0.5) == pytest.approx(want)


class TestRationalBounds:
    def test_sqrt_enclosure(self):
        lo, hi = sqrt_bounds(2, bits=64)
        assert float(lo) <= math.sqrt(2) <= float(hi)
        assert hi - lo == Fraction(1, 2 ** 64)

    def test_moment_half_enclosure(self):
        mu1 = distribution_step(LevelDistribution())
        lo, hi = moment_half_bounds(mu1)
        want = 0.5 + 0.25 * math.sqrt(2)
        assert float(lo) <= want <= float(hi)

    def test_lemma_step_verdicts(self):
        mu0 = LevelDistribution()
        mu1 = distribution_step(mu0)
        mu2 = distribution_step(mu1)
        first = lemma_step_check(mu0, mu1)
        assert first["drop"] in ("holds", "equality")
        assert first["ratio"] in ("holds", "equality")
        second = lemma_step_check(mu1, mu2)
        assert second["drop"] in ("holds", "equality")
        assert second["ratio"] in ("holds", "equality")
        # the simpler stated factor overshoots once coverage drops below 1
        assert second["ratio_literal"] == "fails"


class TestLift:
    def test_planar_lift_is_identity(self):
        q = quilt_refine(unit_quilt())
        lifted = quilt_lift_nd(q, (1, 1))
        assert {(R.levels[:2], (R.offsets[0][0], R.offsets[1][0]))
                for R in lifted} == \
            {(R.levels, (R.offsets[0][0], R.offsets[1][0]))
             for R in q.rects}

    @pytest.mark.parametrize("dims", [(2, 1), (1, 2), (2, 2), (1, 1, 2)])
    def test_measure_preserved(self, dims):
        q = quilt_refine(quilt_refine(unit_quilt()))
        lifted = quilt_lift_nd(q, dims)
        total = sum((R.measure for R in lifted), Fraction(0))
        assert total == 1

    def test_count_formula(self):
        q = quilt_refine(unit_quilt())
        lifted = quilt_lift_nd(q, (2, 1))
        # planar rect (j1, j2) spawns 2^j1 copies along the extra dim
        want = sum(2 ** R.levels[0] for R in q.rects)
        assert len(lifted) == want

    def test_overlap_statistics_preserved(self):
        q = quilt_refine(quilt_refine(unit_quilt()))
        lifted = quilt_lift_nd(q, (2, 1))
        # finest-grid overlap counts have the same distribution
        N1 = max(R.levels[0] for R in lifted)
        N2 = max(R.levels[1] for R in lifted)
        chi = np.zeros((2 ** N1, 2 ** N1, 2 ** N2), dtype=int)
        for R in lifted:
            f1 = 2 ** (N1 - R.levels[0])
            f2 = 2 ** (N2 - R.levels[1])
            o = R.offsets
            chi[o[0][0] * f1:(o[0][0] + 1) * f1,
                o[0][1] * f1:(o[0][1] + 1) * f1,
                o[1][0] * f2:(o[1][0] + 1) * f2] += 1
        base = quilt_chi(q)
        ks, cs = np.unique(base, return_counts=True)
        ks2, cs2 = np.unique(chi, return_counts=True)
        assert list(ks) == list(ks2)
        assert np.allclose(cs / base.size, cs2 / chi.size)

    def test_rejects_single_parameter(self):
        with pytest.raises(ValueError):
            quilt_lift_nd(unit_quilt(), (2,))
