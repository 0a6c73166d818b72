"""Almost-diagonal operators on coefficient sequences.

The kernel is a product over parameters of a distance factor
(1 + |c_P - c_R| / max(lP, lR))^{-D} and a scale-gap factor
(lP/lR)^E when P is finer, (lR/lP)^F when R is finer.  Sufficient decay
(relative to the target mixed-norm space) makes the operator bounded;
the module also ships the witness experiments showing the thresholds are
sharp.  Kernels are evaluated as dense blocks over ``geometry.rect_arrays``;
``ad_entry`` is the scalar reference for one entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AxisSpec, DyadicRect, Window, rect_arrays
from .mixed_norms import CoeffSeq, NormSpec, Permutation, a_norm, admissibility

__all__ = [
    "ADParams", "ADSufficiencyReport", "ad_entry", "sufficiency_check",
    "apply_ad", "random_coeff_seq", "empirical_norm", "composition_constant",
    "necessity_witness", "necessity_curve",
]

INF = math.inf


@dataclass(frozen=True)
class ADParams:
    D: tuple[float, ...]
    E: tuple[float, ...]
    F: tuple[float, ...]
    const: float = 1.0

    @property
    def k(self) -> int:
        return len(self.D)

    def swapped(self) -> "ADParams":
        return ADParams(self.D, self.F, self.E, self.const)


def ad_entry(P: DyadicRect, R: DyadicRect, params: ADParams) -> float:
    """Kernel value b_{PR} >= 0."""
    axes = P.axes
    cP, cR = P.center, R.center
    val = params.const
    lo = 0
    for i in range(axes.k):
        hi = lo + axes.dims[i]
        lP, lR = float(P.side(i)), float(R.side(i))
        d = math.sqrt(sum(float(a - b) ** 2
                          for a, b in zip(cP[lo:hi], cR[lo:hi])))
        val *= (1.0 + d / max(lP, lR)) ** -params.D[i]
        if lP <= lR:
            val *= (lP / lR) ** params.E[i]
        else:
            val *= (lR / lP) ** params.F[i]
        lo = hi
    return val


@dataclass
class ADSufficiencyReport:
    d_ok: tuple[bool, ...]
    e_ok: tuple[bool, ...]
    f_ok: tuple[bool, ...]
    r: float
    untested_regime: bool

    @property
    def failed(self) -> set:
        """The failing thresholds, as ("D", "E" or "F", axis) pairs."""
        oks = {"D": self.d_ok, "E": self.e_ok, "F": self.f_ok}
        return {(c, i) for c, row in oks.items()
                for i, ok in enumerate(row) if not ok}

    @property
    def all_ok(self) -> bool:
        return not self.failed


def sufficiency_check(params: ADParams, spec: NormSpec,
                      dims: tuple[int, ...]) -> ADSufficiencyReport:
    """Strict inequalities guaranteeing boundedness on the spec's space:
    D > n/r + n*tau, E > n/2 + n*tau + s, F > n/r - n/2 - s, with
    r = min(1, smallest exponent from the first integral factor on)."""
    ok, _, r_pi = admissibility(spec.pi, spec.p, spec.q)
    if not ok:
        raise ValueError("spec is not admissible")
    r = float(min(1.0, r_pi))
    n, s, tau = dims, spec.s, spec.tau
    idx = range(len(dims))
    d_ok = tuple(bool(params.D[i] > n[i] / r + n[i] * tau) for i in idx)
    e_ok = tuple(bool(params.E[i] > n[i] / 2 + n[i] * tau + s[i])
                 for i in idx)
    f_ok = tuple(bool(params.F[i] > n[i] / r - n[i] / 2 - s[i])
                 for i in idx)
    untested = any(q < min(1.0, p) for p, q in zip(spec.p, spec.q))
    return ADSufficiencyReport(d_ok, e_ok, f_ok, r, untested)


def apply_ad(params: ADParams, t: CoeffSeq, window: Window,
             level_radius: int = 6, dist_radius: float = 64.0):
    """(Bt)_P = sum_R b_{PR} t_R over the window's rectangles, truncated
    to |level gap| <= level_radius and normalized center distance <=
    dist_radius per axis.  Returns (CoeffSeq, truncation tail bound)."""
    rows = list(window.rects())
    K = _kernel(params, rect_arrays(t.axes, rows),
                rect_arrays(t.axes, t.data), level_radius, dist_radius)
    BT = K @ np.reshape(list(t.data.values()), (len(t.data), t.m))
    out = {rows[i]: BT[i] for i in np.flatnonzero(BT.any(axis=1))}
    tail = _tail_bound(params, t, level_radius, dist_radius)
    return CoeffSeq(t.axes, out), tail


def _kernel(params: ADParams, P, R, level_radius=INF, dist_radius=INF):
    """Dense b_{PR} block, rows P and columns R (rect_arrays), with the
    factors of ad_entry in its order; zero where the level gap exceeds
    level_radius or some sup-distance exceeds dist_radius * larger side."""
    K = np.full((len(P.levels), len(R.levels)), float(params.const))
    keep = np.abs(P.levels[:, None] - R.levels[None]).max(-1) <= level_radius
    for i in range(P.axes.k):
        cs = list(P.axes.param_coords(i))
        diff = P.centers[:, None, cs] - R.centers[None, :, cs]
        lP, lR = P.sides[:, i, None], R.sides[None, :, i]
        scale = np.maximum(lP, lR)
        d = np.sqrt(np.sum(diff ** 2, axis=-1))
        K *= (1.0 + d / scale) ** -params.D[i]
        # (lP/lR)^E when P is finer or equal, (lR/lP)^F otherwise
        K *= (np.minimum(lP, lR) / scale) ** np.where(
            lP <= lR, params.E[i], params.F[i])
        keep &= np.max(np.abs(diff), axis=-1) <= dist_radius * scale
    return np.where(keep, K, 0.0)


def _tail_bound(params: ADParams, t: CoeffSeq, level_radius: int,
                dist_radius: float) -> float:
    """Crude geometric envelope for the discarded kernel mass."""
    mass = sum(float(np.abs(v).sum()) for v in t.data.values())
    tail = 0.0
    for i in range(params.k):
        g = min(params.E[i], params.F[i])
        if g > 0:
            tail += 2.0 ** (-g * (level_radius + 1)) / (1 - 2.0 ** -g)
        else:
            tail += INF
        if params.D[i] > 1:
            tail += (1.0 + dist_radius) ** (1.0 - params.D[i]) \
                / (params.D[i] - 1.0)
        else:
            tail += INF
    return params.const * mass * tail


def random_coeff_seq(window: Window, rng, per_level: int = 2,
                     m: int = 1) -> CoeffSeq:
    data = {}
    for j in window.levels():
        rects = [R for _, R in window.rects_at_level(j)]
        idx = rng.choice(len(rects), size=min(per_level, len(rects)),
                         replace=False)
        for i in idx:
            data[rects[i]] = rng.standard_normal(m) \
                * 2.0 ** rng.uniform(-2, 2)
    return CoeffSeq(window.axes, data)


def empirical_norm(params: ADParams, spec: NormSpec, windows,
                   weight_for=None, trials: int = 10, seed: int = 0,
                   per_level: int = 2, m: int = 1):
    """Per-window max ratio |Bt| / |t| over random finitely supported t.
    weight_for: optional callable window -> level_weight callable."""
    curve = []
    for w in windows:
        rng = np.random.default_rng(seed)
        lw = weight_for(w) if weight_for is not None else None
        best = 0.0
        for _ in range(trials):
            t = random_coeff_seq(w, rng, per_level, m)
            den = a_norm(t, spec, w, level_weight=lw)
            if den == 0:
                continue
            bt, _ = apply_ad(params, t, w)
            num = a_norm(bt, spec, w, level_weight=lw)
            best = max(best, num / den)
        curve.append(best)
    return curve


def composition_constant(pa: ADParams, pb: ADParams,
                         window: Window) -> float:
    """max over (P, R) of sum_Q a_PQ b_QR divided by the min-parameter
    composed kernel entry."""
    comp = ADParams(tuple(map(min, pa.D, pb.D)),
                    tuple(map(min, pa.E, pb.E)),
                    tuple(map(min, pa.F, pb.F)),
                    pa.const * pb.const)
    rects = rect_arrays(window.axes, window.rects())
    Ka, Kb, Kc = (_kernel(par, rects, rects) for par in (pa, pb, comp))
    return float(np.max((Ka @ Kb) / Kc))


def necessity_witness(kind: str, gap: float = 1.0, tensor: bool = True):
    """Kernel just below the `kind` threshold on axis 0 and its target
    space; returns (ADParams, NormSpec, predicted slope of log2 |Bt|/|t|
    per unit J).

    n = 1, tau = 0, s = 0 and Besov order throughout; `gap` is how far
    below the threshold the violated parameter sits.  tensor=True adds a
    benign second axis carrying sufficient decay.  Every other threshold
    of ``sufficiency_check`` holds.
    """
    big = 10.0
    if kind == "D":    # p = q = 1/2: r = 1/2, threshold n/r = 2
        pq, par = 0.5, ((2.0 - gap,), (big,), (big,))
    elif kind == "E":  # p = q = inf: threshold n/2 + s = 1/2
        pq, par = INF, ((big,), (0.5 - gap,), (big,))
    elif kind == "F":  # p = q = 1: threshold n/r - n/2 - s = 1/2
        pq, par = 1.0, ((big,), (big,), (0.5 - gap,))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    k = 2 if tensor else 1
    params = ADParams(*(v + (big,) * (k - 1) for v in par))
    spec = NormSpec((0.0,) * k, 0.0, (pq,) * k, (pq,) * k,
                    Permutation.besov(k))
    return params, spec, gap


def necessity_curve(kind: str, Js, gap: float = 1.0, tensor: bool = True):
    """Witness ratios |Bt|/|t| against window size 2^J for the
    ``necessity_witness`` kernel; returns (list of (J, ratio), predicted
    slope in log2 per unit J).
    """
    params, spec, slope = necessity_witness(kind, gap, tensor)
    k = params.k
    axes = AxisSpec((1,) * k)
    pts = []
    for J in Js:
        if kind == "D":
            # spatial spread: window [0, 2^J), source at the unit cell
            bounds = DyadicRect(axes, (-J,) * k, ((0,),) * k)
            w = Window(bounds, (0,) * k)
            t = CoeffSeq(axes, {DyadicRect(axes, (0,) * k,
                                           ((0,),) * k): [1.0]})
        elif kind == "E":
            # scale spread downward: unit window, levels up to J
            w = Window.unit(axes, (J,) * k)
            t = CoeffSeq(axes, {DyadicRect(axes, (0,) * k,
                                           ((0,),) * k): [1.0]})
        else:
            # mass at fine level J mapped to the coarse cell
            w = Window.unit(axes, (J, 0) if tensor else (J,))
            data = {}
            for mm in range(2 ** J):
                off = ((mm,), (0,)) if tensor else ((mm,),)
                lev = (J, 0) if tensor else (J,)
                data[DyadicRect(axes, lev, off)] = [1.0]
            t = CoeffSeq(axes, data)
        bt, _ = apply_ad(params, t, w, level_radius=max(Js) + 1,
                         dist_radius=float(2 ** (max(Js) + 1)))
        num = a_norm(bt, spec, w)
        den = a_norm(t, spec, w)
        pts.append((J, num / den))
    return pts, slope
