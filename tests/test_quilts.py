"""Quilt refinement, coverage recursion, overlap laws."""
import math
from fractions import Fraction

import pytest

from dyadlab import quilts
from dyadlab.geometry import AxisSpec, DyadicRect
from dyadlab.quilts import (LevelDistribution, Quilt, distribution_step,
                            enumerate_distribution, lemma_step_check,
                            moment_half_bounds, moment_ratio, quilt_refine,
                            quilt_validate, sigma_float, sigma_sequence,
                            sqrt_bounds, unit_quilt)

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


def _square_law_loop(nu):
    """All-pairs squaring, the path the packed multiply replaced: oracle."""
    conv = {}
    items = list(nu.items())
    for i, (k1, p1) in enumerate(items):
        for k2, p2 in items[i:]:
            w = p1 * p2 if k1 == k2 else 2 * p1 * p2
            conv[k1 + k2] = conv.get(k1 + k2, Fraction(0)) + w
    return conv


def _assert_same_law(got, want):
    assert got == want
    assert {k: type(k) for k in got} == {k: type(k) for k in want}


F = Fraction


class TestSquareLaw:
    """`_square_law` against the all-pairs loop, with `==` and key types."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Run every squaring that `distribution_step` does through the
        oracle as well; yields the list of inputs seen."""
        seen = []
        fast = quilts._square_law

        def both(nu):
            seen.append(nu)
            got = fast(nu)
            _assert_same_law(got, _square_law_loop(nu))
            return got
        monkeypatch.setattr(quilts, "_square_law", both)
        return seen

    def test_exact_steps(self, checked):
        mu = LevelDistribution()
        for _ in range(9):
            mu = distribution_step(mu)
        assert len(checked) == 9

    @pytest.mark.parametrize("cap,bits", [(256, 96), (4096, 192)])
    def test_capped_steps(self, checked, cap, bits):
        mu = LevelDistribution()
        for _ in range(10):
            mu = distribution_step(mu, cap=cap, quantum_bits=bits)
        # the laws from step 7 on carry non-integer atoms: squarings 8 on
        # pair an atom with the integers, and squarings 9 on two atoms
        tails = [sum(not isinstance(k, int) for k in nu) for nu in checked]
        assert tails[:6] == [0] * 6 and tails[7] and min(tails[8:]) >= 2

    @pytest.mark.parametrize("nu", [
        {0: F(1, 3), 1: F(1, 2), 3: F(1, 6)},                # non-dyadic
        {0: F(1, 2), -1: F(1, 8), 2: F(3, 8)},               # negative key
        {0: F(1, 2), 1: F(1, 4), F(1, 2): F(1, 8),           # 1/2 + 3/2 = 2
         F(3, 2): F(1, 8)},
        {0: F(1, 2), 2: F(1, 8), F(5, 2): F(1, 16),          # 5/2 + 7/2 = 6
         F(7, 2): F(1, 16), F(7, 3): F(1, 8), F(11, 3): F(1, 8)},
    ], ids=["non-dyadic", "negative", "two-atoms", "integral-sums"])
    def test_hand_made(self, nu):
        _assert_same_law(quilts._square_law(nu), _square_law_loop(nu))

    def test_int_pair_keeps_int_key(self):
        # the loop typed a sum by the first pair in dict order; here
        # 1/2 + 3/2 comes before 1 + 1, so it gave Fraction(2)
        nu = {0: F(1, 2), F(1, 2): F(1, 8), F(3, 2): F(1, 8), 1: F(1, 4)}
        got = quilts._square_law(nu)
        assert got == _square_law_loop(nu)
        assert [type(k) for k in got if k == 2] == [int]
