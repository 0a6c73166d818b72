"""Catalog of sharpness examples: families that break an embedding or an
equivalence outside its hypotheses, with measured divergence curves.

Each case produces a ratio curve (size N, numerator norm, denominator
norm) whose fitted log-log slope is compared against the predicted
exponent.  Numerators and denominators are evaluated in closed form by
exact region sums.  For CARL_SP, CARL_RECT_A, CARL_RECT_B,
MAXIMAL_NONADM, INTERP_FAIL and AP_INTERP_FAIL, `generate` also
materializes the small-N data on a lattice so the closed forms can be
cross-checked with the generic machinery; the other cases are measured
in closed form only.

Cases
-----
CARL_SP          level-indexed multipliers with unit rectangle functional
                 at exponent s; the embedding ratio blows up when s = p.
CARL_RECT_A      disjoint equidistributed supports; rectangle functional
                 at s stays 1 while the embedding ratio is N^(1/s-1/q).
CARL_RECT_B      the CARL_SP family again: the open-set functional taken
                 at exponent p stays <= 1, yet the ratio still blows up.
CARL_OPEN_MULTI  two-parameter packing families: rectangle-truncated
                 functional <= 1, open-set ratio beyond N^(1/s-1/q).
MIXED_PERM_GAMMA multiplier family with unit localized norms whose
                 action diverges for an inadmissible factor order.
MIXED_PERM_COM   commutation failure: integral factor between two
                 summation factors, ratio N^(1/s-1/q_b).
MAXIMAL_NONADM   maximal-operator stack at p = infinity in the
                 integral-first order; ratio about N^(1/q)/2.
EQUIV_SUB_TAU    sparse corner cubes: rectangle-localized norm bounded,
                 open-set-localized norm grows like N^(1/p-tau).
EQUIV_SUB_CRIT   critical tau = 1/p, q < p, summation-first order:
                 polylog-sparse cubes diverge in the open-set norm.
INTERP_FAIL      min-of-two-geometrics coefficients: the two endpoint
                 norms are 1 but the intermediate norm diverges (k >= 2).
AP_INTERP_FAIL   geometric mean of weights admissible at exponents on
                 opposite sides of 1 loses the weight condition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import AxisSpec, DyadicRect, Window
from .mixed_norms import Permutation
from .quilts import LevelDistribution, distribution_step, moment_ratio

__all__ = [
    "CASES", "CaseSpec", "RatioCurve", "generate", "measure",
    "control_spec", "fit_slope",
]

INF = math.inf

CASES = (
    "CARL_SP", "CARL_RECT_A", "CARL_RECT_B", "CARL_OPEN_MULTI",
    "MIXED_PERM_GAMMA", "MIXED_PERM_COM", "MAXIMAL_NONADM",
    "EQUIV_SUB_TAU", "EQUIV_SUB_CRIT", "INTERP_FAIL", "AP_INTERP_FAIL",
)


@dataclass(frozen=True)
class CaseSpec:
    """A case identifier plus its exponent parameters and size N."""
    case: str
    params: dict
    N: int = 1

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}")
        _VALIDATORS[self.case](self.params)
        if self.N < 1:
            raise ValueError("N must be >= 1")


@dataclass
class RatioCurve:
    """Measured (N, numerator, denominator) triples and the predicted
    log-log exponent.  `size_label` documents what N counts."""
    case: str
    points: list
    predicted_slope: float
    size_label: str = "N"
    extra: dict = field(default_factory=dict)

    @property
    def ratios(self):
        return [(n, num / den) for n, num, den in self.points]


def fit_slope(curve: RatioCurve) -> tuple[float, float]:
    """Least-squares slope of log ratio against log N; the smallest N is
    dropped when more than three points are available.  Returns
    (slope, max absolute log residual)."""
    pts = curve.ratios
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if len(pts) > 3:
        pts = pts[1:]
    x = np.log([n for n, _ in pts])
    y = np.log([r for _, r in pts])
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    res = np.max(np.abs(A @ coef - y))
    return float(coef[0]), float(res)


# ----------------------------------------------------------------------
# parameter validation

def _pos(params, *names):
    for nm in names:
        v = params[nm]
        if not (v > 0):
            raise ValueError(f"{nm} must be positive, got {v}")


def _v_carl_sp(p):
    _pos(p, "p", "q", "s")
    if not (p["q"] < p["p"] <= p["s"] < INF):
        raise ValueError("need 0 < q < p <= s < inf (s = p is the "
                         "failure point, s > p the control regime)")


def _v_carl_rect_a(p):
    _pos(p, "p", "q", "s")
    if not (p["p"] < p["s"] < INF and p["p"] < p["q"] < INF):
        raise ValueError("need 0 < p < s and p < q (q > s diverges, "
                         "q < s is the control regime)")


def _v_carl_open_multi(p):
    _pos(p, "p", "q", "s")
    if not (p["p"] < p["s"] < p["q"] < INF):
        raise ValueError("need 0 < p < s < q < inf")


def _v_mixed_perm_gamma(p):
    _pos(p, "p", "q1", "q2", "s")
    if not (p["p"] < p["s"] < p["q2"]):
        raise ValueError("need p < s < q2")
    t_hi = (1 - p["p"] / p["q2"]) / (1 - p["p"] / p["s"])
    t = p.get("t")
    if t is not None and not (1 < t < t_hi):
        raise ValueError(f"t must lie in (1, {t_hi})")
    d = p.get("d")
    if d is not None and not (d > p["p"] / p["q2"]):
        # d > p/q2 keeps the data norm finite; divergence additionally
        # needs d below t*p/s - t + 1 (the default), larger d is the
        # control regime
        raise ValueError(f"d must exceed p/q2 = {p['p'] / p['q2']}")


def _v_mixed_perm_com(p):
    _pos(p, "p", "qb", "s")
    if not (p["p"] < p["s"] < INF):
        raise ValueError("need 0 < p < s")


def _v_maximal_nonadm(p):
    _pos(p, "q")
    if not (p["q"] < INF):
        raise ValueError("need q < inf")
    if p.get("pi", "F") not in ("F", "B"):
        raise ValueError("pi must be 'F' (integral first; diverges) or "
                         "'B' (admissible control)")


def _v_equiv_sub_tau(p):
    _pos(p, "p", "tau")
    if not (p["tau"] <= 1 / p["p"]):
        raise ValueError("need tau <= 1/p (tau < 1/p diverges, "
                         "tau = 1/p is the coincidence control)")


def _v_equiv_sub_crit(p):
    _pos(p, "p", "q", "a")
    if not (p["q"] < p["p"]):
        raise ValueError("need q < p")
    if not (p["a"] > 1):
        raise ValueError("need a > 1 (union of supports must be finite)")


def _v_interp_fail(p):
    s0, s1 = np.atleast_1d(p["s0"]), np.atleast_1d(p["s1"])
    if s0.shape != s1.shape:
        raise ValueError("s0 and s1 must have equal length")
    if np.array_equal(s0, s1):
        raise ValueError("degenerate: s0 = s1 makes all three norms "
                         "coincide")
    if not (0 < p["theta"] < 1):
        raise ValueError("theta must lie in (0, 1)")
    _pos(p, "q")


def _v_ap_interp_fail(p):
    _pos(p, "p0", "p1", "theta", "alpha")
    if not (p["p0"] < 1 < p["p1"]):
        raise ValueError("need p0 < 1 < p1")
    if not (p["theta"] < 1):
        raise ValueError("theta must lie in (0, 1)")
    if not (p["alpha"] < p["p1"] - 1):
        raise ValueError("alpha must lie in (0, p1 - 1) so the second "
                         "weight satisfies its own condition")


_VALIDATORS = {
    "CARL_SP": _v_carl_sp,
    "CARL_RECT_A": _v_carl_rect_a,
    "CARL_RECT_B": _v_carl_sp,
    "CARL_OPEN_MULTI": _v_carl_open_multi,
    "MIXED_PERM_GAMMA": _v_mixed_perm_gamma,
    "MIXED_PERM_COM": _v_mixed_perm_com,
    "MAXIMAL_NONADM": _v_maximal_nonadm,
    "EQUIV_SUB_TAU": _v_equiv_sub_tau,
    "EQUIV_SUB_CRIT": _v_equiv_sub_crit,
    "INTERP_FAIL": _v_interp_fail,
    "AP_INTERP_FAIL": _v_ap_interp_fail,
}


# ----------------------------------------------------------------------
# small helpers

def _lq(vals, q):
    vals = [v for v in vals if v > 0]
    if not vals:
        return 0.0
    if q == INF:
        return max(vals)
    return sum(v ** q for v in vals) ** (1.0 / q)


# ----------------------------------------------------------------------
# measurement engines (exact region sums)

def _m_carl_sp(params, N):
    """Multipliers 2^{jn/s} on the unit cube at level -j, data
    2^{-jn/p} on [0, 2^j)^n, j = 1..N; integral-first order L^p l^q."""
    p, q, s, n = params["p"], params["q"], params["s"], params.get("n", 1)
    num = _lq([2.0 ** (j * n * (1 / s - 1 / p)) for j in range(1, N + 1)],
              q)
    # shell decomposition of the data norm, in log2 to avoid overflow:
    # each shell contributes 2^{ln} (1 - 2^{-n}) (sum_{j>=l} 2^{-jnq/p})^{p/q}
    r = -n * q / p                       # log2 of the geometric ratio
    def log_tail(l):                     # log2 sum_{j=l}^{N} 2^{rj}
        return r * l + math.log2((1 - 2.0 ** (r * (N - l + 1)))
                                 / (1 - 2.0 ** r))
    terms = [(p / q) * log_tail(1)]
    for l in range(1, N + 1):
        terms.append(l * n + math.log2(1 - 2.0 ** -n)
                     + (p / q) * log_tail(l))
    top = max(terms)
    den_p_log = top + math.log2(sum(2.0 ** (t - top) for t in terms))
    return num, 2.0 ** (den_p_log / p)


def _m_carl_rect_a(params, N):
    s, q = params["s"], params["q"]
    return N ** (1 / s), N ** (1 / q)


def _m_carl_rect_b(params, N):
    num, den = _m_carl_sp(params, N)
    # the open-set functional at exponent p of the same multipliers,
    # over the witness sets [0, 2^t)^n; always <= 1
    p, n = params["p"], params.get("n", 1)
    s = params["s"]
    bound_log = max(min(t, N) * n / s - t * n / p for t in range(1, N + 2))
    return num, den if bound_log <= 1e-12 else INF


def _open_multi_distribution(N, u):
    """Smallest refinement generation whose overlap law has coverage
    below 1/N and normalized u-th moment above N^u; returns (g, law)."""
    mu = LevelDistribution({1: 1})
    g = 0
    while True:
        if float(mu.p_pos) < 1.0 / N and moment_ratio(mu, u) > N ** u:
            return g, mu
        if g > 600:
            raise RuntimeError("no admissible generation found")
        mu = distribution_step(mu, cap=4096, quantum_bits=192)
        g += 1


def _m_carl_open_multi(params, N):
    """Packing families: per-level value kappa^{1/s} on an exact split of
    the kappa-fold overlap region; both norms are overlap-law moments."""
    p, q, s = params["p"], params["q"], params["s"]
    u, w = p / s, p / q
    _, mu = _open_multi_distribution(N, u)
    num_p = sum(float(k) ** u * float(pr)
                for k, pr in mu.probs.items() if k != 0)
    den_p = sum(float(k) ** w * float(pr)
                for k, pr in mu.probs.items() if k != 0)
    return num_p ** (1 / p), den_p ** (1 / p)


def _gamma_defaults(params):
    p, q2, s = params["p"], params["q2"], params["s"]
    t = params.get("t")
    if t is None:
        t = (1 + (1 - p / q2) / (1 - p / s)) / 2
    d = params.get("d")
    if d is None:
        d = (p / q2 + t * p / s - t + 1) / 2
    return t, d


def _m_mixed_perm_gamma(params, N):
    """Shifted-stripe data against multipliers with unit localized norms;
    order l^{q1} L^p l^{q2} L^p."""
    from scipy.special import zeta
    p, q2, s = params["p"], params["q2"], params["s"]
    t, d = _gamma_defaults(params)
    z = float(zeta(t))
    num_p = z ** (p / s - 1) \
        * sum(j ** (t * p / s - t - d) for j in range(1, N + 1))
    den = sum(j ** (-d * q2 / p) for j in range(1, N + 1)) ** (1 / q2)
    return num_p ** (1 / p), den


def _m_mixed_perm_com(params, N):
    s, qb = params["s"], params["qb"]
    return N ** (1 / s), N ** (1 / qb)


def _maximal_rows(q, N):
    """l^q norms of the maximal-function stack on each dyadic shell
    (2^-i, 2^-i+1], i = 1..N, plus the tail (0, 2^-N]."""
    rows = []
    for i in range(1, N + 1):
        vals = [2.0 ** (i - 1 - j) for j in range(i + 1, N + 1)]
        vals += [1.0] + [0.5] * (i - 1)
        rows.append(_lq(vals, q))
    rows.append(_lq([0.5] * N, q))
    return rows


def _m_maximal_nonadm(params, N):
    q = params["q"]
    if params.get("pi", "F") == "B":
        # admissible order: sum the per-level sup norms on both sides
        return _lq([1.0] * N, q), _lq([1.0] * N, q)
    return max(_maximal_rows(q, N)), 1.0


def _m_equiv_sub_tau(params, N):
    """Unit cubes in the corners of [0, 2^kappa)^n: the open-set-
    localized norm against the rectangle-localized norm."""
    p, tau, n = params["p"], params["tau"], params.get("n", 1)
    num = N ** (1 / p - tau)
    den = max([1.0] + [2.0 ** (-i * n * tau) * min(i, N) ** (1 / p)
                       for i in range(1, 4 * N + 4)])
    return num, den


def _m_equiv_sub_crit(params, N):
    p, q, a = params["p"], params["q"], params["a"]
    # m_j = floor(2^j j^-a) cubes of side 2^-j; exact only while the
    # count is moderate, beyond that |E_j| = j^-a to working precision
    # and the count may be treated as inexhaustible
    cap = 10 ** 6
    m, sizes = [], []
    for j in range(1, N + 1):
        if j - a * math.log2(j) < 40:
            mj = max(1, int(2 ** j * float(j) ** -a))
            m.append(min(mj, cap))
            sizes.append(mj * 2.0 ** -j)
        else:
            m.append(cap)
            sizes.append(float(j) ** -a)
    omega = sum(sizes)
    num = omega ** (-1 / p) * _lq([sz ** (1 / p) for sz in sizes], q)
    # rectangle-localized norm: cubes occupy consecutive corner
    # positions; P = [0, 2^i)^n sees the first i positions.  The factor
    # 2^{-i/p} makes large i irrelevant.
    cum = [0]
    for mj in m:
        cum.append(min(cum[-1] + mj, cap))
    den = 1.0
    for i in range(1, min(cum[-1], 256) + 1):
        vals = [min(m[j], max(0, i - cum[j])) * 2.0 ** -(j + 1)
                for j in range(len(m))]
        den = max(den, 2.0 ** (-i / p) * _lq([v ** (1 / p) for v in vals],
                                             q))
    return num, den


def _m_interp_fail(params, J):
    """Partial sums of the intermediate norm of min(2^{-j.s0}, 2^{-j.s1})
    over |j|_inf <= J; both endpoint norms are exactly 1."""
    s0 = np.atleast_1d(np.asarray(params["s0"], float))
    s1 = np.atleast_1d(np.asarray(params["s1"], float))
    theta, q = params["theta"], params["q"]
    u = s1 - s0
    k = len(u)
    grids = np.meshgrid(*[np.arange(-J, J + 1)] * k, indexing="ij")
    ju = sum(g * ui for g, ui in zip(grids, u))
    vals = np.minimum(2.0 ** (-theta * ju), 2.0 ** ((1 - theta) * ju))
    if q == INF:
        return float(vals.max()), 1.0
    return float((vals ** q).sum() ** (1 / q)), 1.0


def _m_ap_interp_fail(params, J):
    """Measured weight constant of the geometric-mean weight on the
    dyadic subintervals of [0, 2^J)."""
    from .weights import ap_constant, diag_pairs, power_weight
    p0, p1, theta = params["p0"], params["p1"], params["theta"]
    p = 1.0 / ((1 - theta) / p0 + theta / p1)
    V = power_weight(J, params["alpha"] * theta / p1)
    rep = ap_constant(V, p, list(diag_pairs(V.window)))
    return rep.constant, 1.0


_MEASURERS = {
    "CARL_SP": _m_carl_sp,
    "CARL_RECT_A": _m_carl_rect_a,
    "CARL_RECT_B": _m_carl_rect_b,
    "CARL_OPEN_MULTI": _m_carl_open_multi,
    "MIXED_PERM_GAMMA": _m_mixed_perm_gamma,
    "MIXED_PERM_COM": _m_mixed_perm_com,
    "MAXIMAL_NONADM": _m_maximal_nonadm,
    "EQUIV_SUB_TAU": _m_equiv_sub_tau,
    "EQUIV_SUB_CRIT": _m_equiv_sub_crit,
    "INTERP_FAIL": _m_interp_fail,
    "AP_INTERP_FAIL": _m_ap_interp_fail,
}


def predicted_slope(spec: CaseSpec) -> float:
    """Expected log-log exponent of the ratio curve (0 for controls)."""
    p = spec.params
    c = spec.case
    if c in ("CARL_SP", "CARL_RECT_B"):
        return 1 / p["q"] - 1 / p["p"] if p["s"] == p["p"] else 0.0
    if c == "CARL_RECT_A":
        return max(0.0, 1 / p["s"] - 1 / p["q"])
    if c == "CARL_OPEN_MULTI":
        return 1 / p["s"] - 1 / p["q"]
    if c == "MIXED_PERM_GAMMA":
        t, d = _gamma_defaults(p)
        return max(0.0, (1 + t * p["p"] / p["s"] - t - d) / p["p"])
    if c == "MIXED_PERM_COM":
        return 1 / p["s"] - 1 / p["qb"]
    if c == "MAXIMAL_NONADM":
        return 1 / p["q"] if p.get("pi", "F") == "F" else 0.0
    if c == "EQUIV_SUB_TAU":
        return 1 / p["p"] - p["tau"]
    if c == "EQUIV_SUB_CRIT":
        return max(0.0, (1 - p["a"] * p["q"] / p["p"]) / p["q"])
    if c == "INTERP_FAIL":
        k = len(np.atleast_1d(p["s0"]))
        return (k - 1) / p["q"] if k > 1 else 0.0
    if c == "AP_INTERP_FAIL":
        theta, p1 = p["theta"], p["p1"]
        pp = 1.0 / ((1 - theta) / p["p0"] + theta / p1)
        beta = p["alpha"] * theta * pp / p1
        return (beta - (pp - 1)) / pp if pp > 1 else beta / pp
    raise ValueError(spec.case)


_SIZE_LABELS = {
    "INTERP_FAIL": "J (level window radius)",
    "AP_INTERP_FAIL": "N = 2^J (window side)",
    "CARL_OPEN_MULTI": "N (coverage target 1/N)",
}


def measure(spec: CaseSpec, Ns) -> RatioCurve:
    """Ratio curve over the size grid; exponent parameters come from the
    spec, its own N is ignored."""
    eng = _MEASURERS[spec.case]
    pts = []
    for N in Ns:
        num, den = eng(spec.params, int(N))
        x = 2 ** N if spec.case == "AP_INTERP_FAIL" else int(N)
        pts.append((x, num, den))
    return RatioCurve(spec.case, pts, predicted_slope(spec),
                      _SIZE_LABELS.get(spec.case, "N"))


def control_spec(spec: CaseSpec) -> CaseSpec:
    """A companion spec inside the sufficient regime; its curve must
    stay bounded (fitted slope <= 0.05)."""
    p = dict(spec.params)
    c = spec.case
    if c in ("CARL_SP", "CARL_RECT_B"):
        p["s"] = 2 * p["p"]
    elif c == "CARL_RECT_A":
        p["q"] = (p["p"] + p["s"]) / 2
    elif c == "MIXED_PERM_GAMMA":
        t, _ = _gamma_defaults(p)
        p["t"] = t
        # far enough above the divergence window that the partial sums
        # settle within the measured size range
        p["d"] = t * p["p"] / p["s"] - t + 1 + 2.0 * p["p"]
        return CaseSpec("MIXED_PERM_GAMMA", p, spec.N)
    elif c == "MIXED_PERM_COM":
        p["qb"] = p["s"] / 2
        if not p["p"] < p["qb"]:
            p["qb"] = (p["p"] + p["s"]) / 2
    elif c == "MAXIMAL_NONADM":
        p["pi"] = "B"
    elif c == "EQUIV_SUB_TAU":
        p["tau"] = 1 / p["p"]
    elif c == "EQUIV_SUB_CRIT":
        # fast-decaying level measures: both localized norms settle
        p["a"] = 2.0 * p["p"] / p["q"] + 1.0
    elif c == "INTERP_FAIL":
        s0 = np.atleast_1d(np.asarray(p["s0"], float))
        p["s0"] = float(s0[0])
        p["s1"] = float(s0[0]) + 1.0
        return CaseSpec("INTERP_FAIL", p, spec.N)
    elif c == "CARL_OPEN_MULTI":
        raise ValueError("no scalar control: use the one-parameter "
                         "rectangle-truncated identity instead")
    elif c == "AP_INTERP_FAIL":
        raise ValueError("control is the boundedness of each endpoint "
                         "weight's own constant; see generate()")
    return CaseSpec(c, p, spec.N)


# ----------------------------------------------------------------------
# explicit small-N data for lattice cross-checks

def _g_carl_sp(params, N):
    """Lattice realization on [0, 2^N)^n with unit cells."""
    n = params.get("n", 1)
    p, s = params["p"], params["s"]
    if N > 8 // n:
        raise ValueError("lattice realization capped at small N")
    axes = AxisSpec((n,))
    w = Window(DyadicRect(axes, (-N,) * 1, (tuple([0] * n),)), (0,))
    gammas, fields = {}, {}
    for j in range(1, N + 1):
        g = np.zeros(w.shape)
        g[(slice(0, 1),) * n] = 2.0 ** (j * n / s)
        f = np.zeros(w.shape)
        f[(slice(0, 2 ** j),) * n] = 2.0 ** (-j * n / p)
        gammas[(-j,)] = g
        fields[(-j,)] = f
    return {"window": w, "gammas": gammas, "fields": fields,
            "pi": Permutation.tl(1)}


def _g_carl_rect_a(params, N):
    """Disjoint supports F_j, each of measure 1/N, spread evenly over the
    level-j cells of [0, 1); N must be a power of two."""
    nu = int(N).bit_length() - 1
    if 2 ** nu != N:
        raise ValueError("lattice realization needs N a power of two")
    s = params["s"]
    jmax = N + nu
    if jmax > 10:
        raise ValueError("lattice realization capped at small N")
    axes = AxisSpec((1,))
    w = Window.unit(axes, (jmax,))
    cells = 2 ** jmax
    gammas, fields = {}, {}
    idx = np.arange(cells)
    for j in range(1, N + 1):
        # F_j: base cells whose index is j-1 mod N -- pairwise disjoint
        # and occupying exactly 1/N of every dyadic cell down to level
        # jmax - log2(N)
        mask = (idx % N == j - 1).astype(float)
        gammas[(j,)] = N ** (1 / s) * mask
        fields[(j,)] = np.ones(cells)
    return {"window": w, "gammas": gammas, "fields": fields,
            "pi": Permutation.tl(1)}


def _g_maximal_nonadm(params, N):
    """Stripe data on [0, 1) at resolution 2^-(N+2)."""
    if N > 10:
        raise ValueError("lattice realization capped at small N")
    axes = AxisSpec((1,))
    w = Window.unit(axes, (N + 2,))
    cells = 2 ** (N + 2)
    fields = {}
    for j in range(1, N + 1):
        f = np.zeros(cells)
        lo, hi = 2 ** (N + 2 - j), 2 ** (N + 3 - j)
        f[lo:hi] = 1.0
        fields[(j,)] = f
    return {"window": w, "fields": fields, "pi": Permutation.tl(1)}


def _g_interp_fail(params, J):
    s0 = np.atleast_1d(np.asarray(params["s0"], float))
    s1 = np.atleast_1d(np.asarray(params["s1"], float))
    k = len(s0)
    grids = np.meshgrid(*[np.arange(-J, J + 1)] * k, indexing="ij")
    a = np.minimum(2.0 ** (-sum(g * x for g, x in zip(grids, s0))),
                   2.0 ** (-sum(g * x for g, x in zip(grids, s1))))
    return {"coeffs": a, "J": J}


def _g_ap_interp_fail(params, J):
    from .weights import power_weight
    alpha, p1 = params["alpha"], params["p1"]
    V = power_weight(J, alpha * params["theta"] / p1)
    # endpoint weight on the same window, for the boundedness control
    return {"window": V.window, "geometric_mean": V, "endpoint0_value": 1.0,
            "endpoint1": power_weight(J, alpha / p1)}


_GENERATORS = {
    "CARL_SP": _g_carl_sp,
    "CARL_RECT_A": _g_carl_rect_a,
    "CARL_RECT_B": _g_carl_sp,
    "MAXIMAL_NONADM": _g_maximal_nonadm,
    "INTERP_FAIL": _g_interp_fail,
    "AP_INTERP_FAIL": _g_ap_interp_fail,
}


def generate(spec: CaseSpec) -> dict:
    """Materialize the case data at the spec's own size N: a window plus
    per-level grids (CARL_SP, CARL_RECT_A, CARL_RECT_B, MAXIMAL_NONADM),
    the coefficient array over |j|_inf <= N (INTERP_FAIL), or the weights
    on [0, 2^N) (AP_INTERP_FAIL).  Other cases raise ValueError."""
    if spec.case not in _GENERATORS:
        raise ValueError(f"{spec.case} has no lattice realization; "
                         f"generate covers {', '.join(_GENERATORS)}")
    return _GENERATORS[spec.case](spec.params, spec.N)
