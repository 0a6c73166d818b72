"""Quilt engine: packing families of dyadic rectangles in the unit square
whose total measure is 1 but whose union can be made arbitrarily small.

A quilt is a finite set of dyadic rectangles R in [0,1)^2 with
sum |R| = 1 and the packing property sum_{R inside P} |R| <= |P| for every
dyadic P.  One refinement step squeezes odd columns of shrunken copies in
both axis directions; coverage obeys sigma' = sigma (1 - sigma/4) exactly,
and the cell overlap count evolves by an explicit independent-thinning
convolution, which gives the large-generation statistics without ever
materializing rectangles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import AxisSpec, DyadicRect

__all__ = [
    "Quilt", "LevelDistribution", "unit_quilt", "quilt_refine",
    "quilt_validate", "quilt_chi", "sigma_sequence", "sigma_float",
    "distribution_step", "enumerate_distribution", "moment_ratio",
    "moment_half_bounds", "sqrt_bounds", "lemma_step_check",
]

AX2 = AxisSpec((1, 1))
MAX_RECTS = 10 ** 6


@dataclass(frozen=True)
class Quilt:
    rects: frozenset
    generation: int = 0


def unit_quilt() -> Quilt:
    return Quilt(frozenset({DyadicRect(AX2, (0, 0), ((0,), (0,)))}), 0)


def _min_side_level(q: Quilt) -> int:
    """Smallest N with every side length >= 2^-N."""
    return max(max(R.levels) for R in q.rects)


def quilt_refine(q: Quilt, N: int = None) -> Quilt:
    """One refinement step.  Each odd column map squeezes the quilt by
    2^-(N+1) along one axis and shifts it into column j; the union over
    odd j and both axes is the new quilt."""
    minimal = _min_side_level(q)
    if N is None:
        N = minimal
    elif N < minimal:
        raise ValueError(f"N={N} below the minimal admissible {minimal}")
    if len(q.rects) * 2 ** (N + 1) > MAX_RECTS:
        raise ValueError("refinement would exceed the rectangle cap; "
                         "use the distribution recursion instead")
    out = set()
    for axis in range(2):
        for j in range(1, 2 ** (N + 1) + 1, 2):
            for R in q.rects:
                lev = list(R.levels)
                offs = [list(R.offsets[0]), list(R.offsets[1])]
                # x -> (j - 1 + x) 2^-(N+1) on the chosen axis
                offs[axis][0] += (j - 1) * 2 ** lev[axis]
                lev[axis] += N + 1
                out.add(DyadicRect(AX2, tuple(lev),
                                   (tuple(offs[0]), tuple(offs[1]))))
    return Quilt(frozenset(out), q.generation + 1)


def quilt_chi(q: Quilt) -> np.ndarray:
    """Overlap-count field on the finest-level grid."""
    N = _min_side_level(q)
    n = 2 ** N
    chi = np.zeros((n, n), dtype=np.int64)
    for R in q.rects:
        f1 = 2 ** (N - R.levels[0])
        f2 = 2 ** (N - R.levels[1])
        o1 = R.offsets[0][0] * f1
        o2 = R.offsets[1][0] * f2
        chi[o1:o1 + f1, o2:o2 + f2] += 1
    return chi


def quilt_validate(q: Quilt) -> dict:
    """Exact total measure, worst packing ratio over all dyadic P, and
    coverage sigma."""
    total = sum((R.measure for R in q.rects), Fraction(0))
    # mass carried up the ancestor lattice of each rectangle
    acc: dict[tuple, Fraction] = {}
    for R in q.rects:
        for l1 in range(R.levels[0] + 1):
            for l2 in range(R.levels[1] + 1):
                key = (l1, l2,
                       R.offsets[0][0] >> (R.levels[0] - l1),
                       R.offsets[1][0] >> (R.levels[1] - l2))
                acc[key] = acc.get(key, Fraction(0)) + R.measure
    worst = max(mass * 2 ** (l1 + l2)
                for (l1, l2, _, _), mass in acc.items())
    chi = quilt_chi(q)
    sigma = Fraction(int((chi > 0).sum()), chi.size)
    return {"total": total, "worst_packing": worst, "sigma": sigma,
            "valid": total == 1 and worst <= 1}


def sigma_sequence(n_max: int, exact: bool = True):
    """Coverage after n refinement steps: sigma_{n+1} = sigma_n(1 - sigma_n/4)."""
    s = Fraction(1) if exact else 1.0
    out = [s]
    for _ in range(n_max):
        s = s * (1 - s / 4)
        out.append(s)
    return out


def sigma_float(n_max: int, dps: int = 50):
    """High-precision oracle for the sigma recursion (mpmath)."""
    import mpmath
    with mpmath.workdps(dps):
        s = mpmath.mpf(1)
        out = [s]
        for _ in range(n_max):
            s = s * (1 - s / 4)
            out.append(s)
        return [float(x) for x in out]


@dataclass
class LevelDistribution:
    """Law of the overlap count: support point -> exact probability."""
    probs: dict = field(default_factory=lambda: {1: Fraction(1)})

    def mass(self, k):
        return self.probs.get(k, Fraction(0))

    @property
    def p_pos(self):
        return sum((p for k, p in self.probs.items() if k != 0), Fraction(0))

    @property
    def total(self):
        return sum(self.probs.values(), Fraction(0))

    @property
    def mean(self):
        return sum((Fraction(k) * p for k, p in self.probs.items()),
                   Fraction(0))


def distribution_step(mu: LevelDistribution, cap: int = None,
                      quantum_bits: int = None) -> LevelDistribution:
    """One refinement step of the overlap-count law: the new count is
    d1 X1 + d2 X2 with X1, X2 i.i.d. mu and d1, d2 independent fair coin
    flips; equivalently nu * nu with nu = (delta_0 + mu)/2.

    With cap/quantum_bits set, the result is coarsened in a mean-exact
    way: support points beyond `cap` merge into their conditional mean,
    and probabilities are floored to the dyadic quantum 2^-quantum_bits
    with the lost mass and mean restored as one exact correction atom.
    Total mass and mean are preserved exactly in both modes.  Giving only
    one of cap/quantum_bits raises ValueError.
    """
    if (cap is None) != (quantum_bits is None):
        raise ValueError("give both cap and quantum_bits, or neither")
    half = Fraction(1, 2)
    nu = {0: half}
    for k, p in mu.probs.items():
        nu[k] = nu.get(k, Fraction(0)) + half * p
    conv = _square_law(nu)
    if cap is not None:
        conv = _coarsen(conv, cap, quantum_bits)
    return LevelDistribution(conv)


def _square_law(nu: dict) -> dict:
    """Law of the sum of two independent copies of nu."""
    fast = all(isinstance(k, int) and k >= 0 for k in nu) and \
        all(_pow2_denom(p) for p in nu.values())
    if fast:
        return _square_law_kronecker(nu)
    conv: dict = {}
    items = list(nu.items())
    for i, (k1, p1) in enumerate(items):
        for k2, p2 in items[i:]:
            w = p1 * p2 if k1 == k2 else 2 * p1 * p2
            conv[k1 + k2] = conv.get(k1 + k2, Fraction(0)) + w
    return conv


def _pow2_denom(p) -> bool:
    return p.denominator & (p.denominator - 1) == 0


def _square_law_kronecker(nu: dict) -> dict:
    """Exact polynomial squaring via packing the numerators into one big
    integer (dyadic denominators only); one multiply instead of S^2."""
    dm = max(p.denominator.bit_length() - 1 for p in nu.values())
    S = max(nu)
    B = 2 * dm + (S + 1).bit_length() + 1
    X = 0
    for k, p in nu.items():
        X += p.numerator << (dm - (p.denominator.bit_length() - 1)) << (k * B)
    Y = X * X
    mask = (1 << B) - 1
    den = 1 << (2 * dm)
    out = {}
    for k in range(2 * S + 1):
        c = (Y >> (k * B)) & mask
        if c:
            out[k] = Fraction(c, den)
    return out


def _coarsen(probs: dict, cap: int, quantum_bits: int) -> dict:
    tail_mass = Fraction(0)
    tail_mean = Fraction(0)
    kept = {}
    for k, p in probs.items():
        if k != 0 and k > cap:
            tail_mass += p
            tail_mean += Fraction(k) * p
        else:
            kept[k] = p
    denom = 2 ** quantum_bits
    lost_mass = Fraction(0)
    lost_mean = Fraction(0)
    out = {}
    for k, p in kept.items():
        fl = Fraction(p.numerator * denom // p.denominator, denom)
        lost_mass += p - fl
        lost_mean += Fraction(k) * (p - fl)
        if fl > 0:
            out[k] = fl
    tail_mass += lost_mass
    tail_mean += lost_mean
    if tail_mass > 0:
        kstar = tail_mean / tail_mass
        kstar = int(kstar) if kstar.denominator == 1 else kstar
        out[kstar] = out.get(kstar, Fraction(0)) + tail_mass
    return out


def enumerate_distribution(q: Quilt) -> LevelDistribution:
    """Law of the overlap count read off an explicit quilt (oracle for
    small generations)."""
    chi = quilt_chi(q)
    size = chi.size
    ks, counts = np.unique(chi, return_counts=True)
    return LevelDistribution({int(k): Fraction(int(c), size)
                              for k, c in zip(ks, counts)})


def moment_ratio(mu: LevelDistribution, p: float) -> float:
    """E[X^p] / P(X > 0), the normalized p-th moment of the overlap law."""
    num = sum(float(k) ** p * float(pr)
              for k, pr in mu.probs.items() if k != 0)
    return num / float(mu.p_pos)


def sqrt_bounds(x, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Rational enclosure lo <= sqrt(x) <= hi with gap 2^-bits."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    lo = Fraction(math.isqrt(a * b * 4 ** bits), b * 2 ** bits)
    return lo, lo + Fraction(1, 2 ** bits)


def moment_half_bounds(mu: LevelDistribution,
                       bits: int = 64) -> tuple[Fraction, Fraction]:
    """Rational enclosure of E[sqrt(X)]."""
    lo = Fraction(0)
    hi = Fraction(0)
    for k, p in mu.probs.items():
        if k == 0:
            continue
        slo, shi = sqrt_bounds(k, bits)
        lo += p * slo
        hi += p * shi
    return lo, hi


def _sqrt2_moment(mu: LevelDistribution):
    """E[sqrt(X)] written exactly as x + y sqrt(2), when every support
    point is a^2 or 2 a^2; None otherwise."""
    x = Fraction(0)
    y = Fraction(0)
    for k, p in mu.probs.items():
        if not isinstance(k, int) or k < 0:
            return None
        a = math.isqrt(k)
        if a * a == k:
            x += p * a
        elif k % 2 == 0 and math.isqrt(k // 2) ** 2 == k // 2:
            y += p * math.isqrt(k // 2)
        else:
            return None
    return x, y


def _sign_q2(x: Fraction, y: Fraction) -> int:
    """Sign of x + y sqrt(2), exactly."""
    if x >= 0 and y >= 0:
        return 0 if x == 0 and y == 0 else 1
    if x <= 0 and y <= 0:
        return -1
    if x > 0:  # y < 0
        return 1 if x * x > 2 * y * y else (-1 if x * x < 2 * y * y else 0)
    return 1 if 2 * y * y > x * x else (-1 if 2 * y * y < x * x else 0)


def _verdict(lhs_lo, lhs_hi, rhs_lo, rhs_hi, exact_diff=None) -> str:
    """Decide lhs >= rhs from directed rational bounds, with an optional
    exact representation of lhs - rhs in Q(sqrt 2) for boundary cases."""
    if exact_diff is not None:
        s = _sign_q2(*exact_diff)
        return {1: "holds", 0: "equality", -1: "fails"}[s]
    if lhs_lo >= rhs_hi:
        return "holds"
    if lhs_hi < rhs_lo:
        return "fails"
    return "undecided"


def lemma_step_check(mu: LevelDistribution, nxt: LevelDistribution,
                     bits: int = 96) -> dict:
    """Rigorous rational certificates for the p = 1/2 per-step moment
    inequalities between consecutive overlap laws f -> g:

    * "drop": E(g^p) >= (1 - (2 - 2^p)/4 P(f>0)) E(f^p);
    * "ratio": E(g^p)/P(g>0) >= E(f^p)/P(f>0) *
      (1 + c_p P(f>0) / (2 - P(f>0)/2)), c_p = (2^p - 1)/2, the bound the
      concavity argument actually yields;
    * "ratio_literal": the same with the simpler factor
      (1 + (2^p - 1)/3 P(f>0)).  This is an overstatement: it needs
      1/(1 - P/4) >= 4/3, which holds only at P(f>0) = 1, so it fails
      for every later step (the certificate proves the failure).

    Each verdict is "holds"/"equality"/"fails" via directed rational
    enclosures of the square roots, with an exact Q(sqrt 2) comparison
    when every support point is a^2 or 2 a^2; "undecided" only if the
    enclosure is too coarse (raise bits)."""
    Pf, Pg = mu.p_pos, nxt.p_pos
    Ef = moment_half_bounds(mu, bits)
    Eg = moment_half_bounds(nxt, bits)
    r2 = sqrt_bounds(2, bits)
    xf = _sqrt2_moment(mu)
    xg = _sqrt2_moment(nxt)
    exactable = xf is not None and xg is not None

    # drop: Eg - (1 - (2 - sqrt2)/4 Pf) Ef >= 0
    c_lo = 1 - (2 - r2[0]) / 4 * Pf
    c_hi = 1 - (2 - r2[1]) / 4 * Pf
    if exactable:
        # (1 - Pf/2 + (Pf/4) sqrt2) (xf + yf sqrt2), expanded in Q(sqrt2)
        a, b = 1 - Pf / 2, Pf / 4
        rhs = (a * xf[0] + 2 * b * xf[1], a * xf[1] + b * xf[0])
        diff = (xg[0] - rhs[0], xg[1] - rhs[1])
    else:
        diff = None
    drop = _verdict(Eg[0], Eg[1], c_lo * Ef[0], c_hi * Ef[1], diff)

    # ratio bounds share the prefactor Ef/Pf; move Pg, Pf across by
    # positivity so everything stays a product comparison
    def ratio_verdict(fac_lo, fac_hi, fac_exact):
        lhs_lo, lhs_hi = Eg[0] / Pg, Eg[1] / Pg
        rhs_lo = Ef[0] / Pf * fac_lo
        rhs_hi = Ef[1] / Pf * fac_hi
        if exactable and fac_exact is not None:
            a, b = fac_exact  # factor = a + b sqrt2
            rhs = ((a * xf[0] + 2 * b * xf[1]) / Pf,
                   (a * xf[1] + b * xf[0]) / Pf)
            diff = (xg[0] / Pg - rhs[0], xg[1] / Pg - rhs[1])
            return _verdict(0, 0, 0, 0, diff)
        return _verdict(lhs_lo, lhs_hi, rhs_lo, rhs_hi)

    # exact chain factor: 1 + c_p Pf / (2 (1 - Pf/4)), c_p = (sqrt2-1)/2
    den = 2 * (1 - Pf / 4)
    fx_lo = 1 + (r2[0] - 1) / 2 * Pf / den
    fx_hi = 1 + (r2[1] - 1) / 2 * Pf / den
    w = Pf / (2 * den)
    ratio = ratio_verdict(fx_lo, fx_hi, (1 - w, w))

    # literal factor: 1 + (sqrt2 - 1)/3 Pf
    fl_lo = 1 + (r2[0] - 1) / 3 * Pf
    fl_hi = 1 + (r2[1] - 1) / 3 * Pf
    literal = ratio_verdict(fl_lo, fl_hi, (1 - Pf / 3, Pf / 3))

    return {"drop": drop, "ratio": ratio, "ratio_literal": literal}
