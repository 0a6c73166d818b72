"""Matrix weights: reducing operators, two-variable A_p constants, doubling
checks and geometric means.

A weight is an SPD-matrix-valued piecewise-constant field.  All averages over
dyadic rectangles are uniform cell means (cells inside a dyadic rectangle all
have the same measure); only matrix norms and p-th roots are floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (DyadicRect, PiecewiseField, Window, expand_mask,
                       rect_arrays)

__all__ = [
    "MatrixWeight", "ReducingFamily", "ApReport",
    "conjugate", "op_norm", "spd_power", "random_spd_field",
    "lp_seminorm", "reduce_exact_p2", "reduce_general", "mvee",
    "reducing_family", "two_variable_norm", "ap_constant", "diag_pairs",
    "doubling_check", "geometric_mean",
]

INF = math.inf
MVEE_TOL = 1e-8       # log det M ends within m * MVEE_TOL of its maximum
MVEE_MAX_STEPS = 500  # Newton steps over the whole barrier path


def conjugate(p: float) -> float:
    """Dual exponent; by convention p' = inf for p <= 1."""
    if p <= 1:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def op_norm(M: np.ndarray) -> np.ndarray:
    """Largest singular value, over the trailing two axes."""
    return np.linalg.norm(M, ord=2, axis=(-2, -1)) if M.ndim > 2 \
        else float(np.linalg.norm(M, ord=2))


def spd_power(M: np.ndarray, t: float) -> np.ndarray:
    w, Q = np.linalg.eigh(M)
    if w.min() <= 0:
        raise np.linalg.LinAlgError("matrix not positive definite")
    return (Q * w ** t) @ Q.swapaxes(-1, -2)


@dataclass
class MatrixWeight:
    """SPD piecewise field with a cached cellwise inverse."""
    field: PiecewiseField
    inv_values: np.ndarray = None

    def __post_init__(self):
        V = self.field.values
        if self.field.kind == "scalar":
            V = V[..., None, None]
            self.field = PiecewiseField(self.field.window, V)
        if self.inv_values is None:
            self.inv_values = np.linalg.inv(V)
        resid = op_norm(V @ self.inv_values - np.eye(V.shape[-1]))
        if np.max(resid) > 1e-10:
            raise ValueError("inverse residual exceeds 1e-10")

    @property
    def window(self) -> Window:
        return self.field.window

    @property
    def m(self) -> int:
        return self.field.values.shape[-1]

    def inverse(self) -> "MatrixWeight":
        return MatrixWeight(PiecewiseField(self.window, self.inv_values),
                            inv_values=self.field.values)


def random_spd_field(window: Window, m: int, rng, log_cond: float = 2.0):
    """Cellwise independent random SPD matrices with eigenvalues in
    2^[-log_cond, log_cond]."""
    shape = window.shape + (m, m)
    G = rng.standard_normal(shape)
    Q, _ = np.linalg.qr(G)
    lam = 2.0 ** rng.uniform(-log_cond, log_cond, window.shape + (m,))
    V = (Q * lam[..., None, :]) @ Q.swapaxes(-1, -2)
    return MatrixWeight(PiecewiseField(window, V))


def _cells_and_weights(V: MatrixWeight, S):
    """Flattened per-cell matrices and normalized averaging weights on S."""
    m = V.m
    vals = V.field.values.reshape(-1, m, m)
    if S is None:
        w = np.full(vals.shape[0], 1.0 / vals.shape[0])
        return vals, w
    if isinstance(S, DyadicRect):
        sl = V.window.rect_slices(S)
        sub = V.field.values[sl].reshape(-1, m, m)
        w = np.full(sub.shape[0], 1.0 / sub.shape[0])
        return sub, w
    raise TypeError(f"unsupported region {type(S).__name__}")


def lp_seminorm(V: MatrixWeight, S, p: float, dirs: np.ndarray) -> np.ndarray:
    """r(e) = normalized L^p(S) norm of |V(.)e|, for each row e of dirs."""
    cells, w = _cells_and_weights(V, S)
    g = np.linalg.norm(np.einsum("cab,db->cda", cells, dirs), axis=-1)
    if p == INF:
        return g.max(axis=0)
    return np.einsum("c,cd->d", w, g ** p) ** (1.0 / p)


def reduce_exact_p2(V: MatrixWeight, R=None) -> np.ndarray:
    """The order-2 reducing operator (mean of V^T V over R)^{1/2}."""
    cells, w = _cells_and_weights(V, R)
    M = np.einsum("c,cba,cbd->ad", w, cells, cells)
    return spd_power(M, 0.5)


def mvee(points: np.ndarray) -> np.ndarray:
    """Minimum-volume origin-centred ellipsoid {x: x'Mx <= 1} enclosing the
    symmetric point set +-points: log det M is within m * MVEE_TOL of its
    maximum, and max p'Mp = 1, so every point is enclosed.

    Log-barrier path following (Boyd & Vandenberghe, Convex Optimization,
    8.4.1, ch. 11) over the m(m+1)/2 coordinates of M, on whitened points:
    damped Newton centering (slacks kept positive, M positive definite,
    Armijo until the squared Newton decrement is below 1/4), t grown 20-fold
    to N/(m MVEE_TOL), where the duality gap N/t is m * MVEE_TOL.  Raises
    ValueError for points that are not finite or do not span R^m, and
    RuntimeError after MVEE_MAX_STEPS Newton steps rather than return an
    unconverged M."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or not np.isfinite(P).all():
        raise ValueError("points must be a finite (N, m) array")
    N, m = P.shape
    Q, S, Vt = np.linalg.svd(P, full_matrices=False)  # Q = P V diag(1/S)
    if N < m or S[-1] <= N * np.finfo(float).eps * S[0]:
        raise ValueError("points do not span R^m")
    iu = np.triu_indices(m)
    E = np.eye(m)[iu[0], :, None] * np.eye(m)[iu[1], None, :]
    E = E + E.transpose(0, 2, 1)  # basis of the symmetric matrices
    Ef = E.reshape(len(E), -1)    # M = (x @ Ef).reshape(m, m)
    A = np.einsum("ia,kab,ib->ik", Q, E, Q)  # q_i'Mq_i = A[i] @ x
    x = np.eye(m)[iu] / (4.0 * np.max(np.einsum("ia,ia->i", Q, Q)))

    def phi(x):  # barrier objective at the current t, inf off its domain
        s, w = 1.0 - A @ x, np.linalg.eigvalsh((x @ Ef).reshape(m, m))
        return (-t * np.log(w).sum() - np.log(s).sum()
                if s.min() > 0 and w[0] > 0 else INF)
    t_end, steps = N / (m * MVEE_TOL), 0
    for t in [*20.0 ** np.arange(math.ceil(math.log(t_end, 20))), t_end]:
        f, lam2 = phi(x), INF
        while lam2 > (1e-8 if t == t_end else 0.1):  # tight only at t_end
            if (steps := steps + 1) > MVEE_MAX_STEPS:
                raise RuntimeError("mvee: Newton step cap reached")
            s = 1.0 - A @ x
            As, C = A / s[:, None], E @ np.linalg.inv((x @ Ef).reshape(m, m))
            g = As.sum(axis=0) - t * np.einsum("kaa->k", C)
            dx = -np.linalg.solve(
                As.T @ As + t * np.einsum("kab,lba->kl", C, C), g)
            lam2 = -g @ dx
            a = 1.0 if lam2 < 0.25 else 0.99 / max((A @ dx / s).max(), 0.99)
            while ((f1 := phi(x + a * dx)) == INF
                   or lam2 >= 0.25 and f1 > f - 0.25 * a * lam2):
                a *= 0.5
            x, f = x + a * dx, f1
    M = Vt.T @ ((x @ Ef).reshape(m, m) / np.outer(S, S)) @ Vt
    return M / np.max(np.einsum("ia,ab,ib->i", P, M, P))


def _unit_dirs(m: int, n: int, rng) -> np.ndarray:
    """The m coordinate directions, then n random unit directions."""
    g = rng.standard_normal((n, m))
    return np.concatenate([np.eye(m),
                           g / np.linalg.norm(g, axis=1, keepdims=True)])


def reduce_general(V: MatrixWeight, R, p: float, rng=None):
    """Ellipsoid-fitted reducing operator of order p, with a measured
    sandwich certificate (c_lo, c_hi) on fresh directions.

    The unit-ball boundary of the direction seminorm r is sampled as
    u/r(u); its enclosing ellipsoid gives A with |Ae| ~ r(e), rescaled so
    the certificate is balanced around 1.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    m = V.m
    rng = np.random.default_rng(0) if rng is None else rng
    dirs = _unit_dirs(m, max(2 * m * m, 48), rng)
    r = lp_seminorm(V, R, p, dirs)
    keep = r > 1e-13 * max(r.max(), 1.0)
    degenerate = not keep.all()
    dirs, r = dirs[keep], r[keep]
    if len(r) < m:
        return np.zeros((m, m)), (0.0, 0.0), True
    pts = dirs / r[:, None]
    if p < 1:
        # quasi-norm ball: compare through its convex hull
        pts = pts * (2 * m + 1) ** (1.0 - 1.0 / p)
    fresh = _unit_dirs(m, 200, rng)
    A, cert = _balanced_fit(pts, fresh, lp_seminorm(V, R, p, fresh))
    return A, cert, degenerate


def _balanced_fit(pts, fresh, rf):
    """A = mvee(pts)^{1/2}, scaled so that its ratios |Ae|/r(e) on the fresh
    directions, measured as rf, bracket 1 evenly; returns A, (c_lo, c_hi)."""
    A = spd_power(mvee(pts), 0.5)
    ratio = np.linalg.norm(fresh @ A.T, axis=1) / rf
    c_lo, c_hi = float(ratio.min()), float(ratio.max())
    scale = 1.0 / math.sqrt(c_lo * c_hi)
    return scale * A, (c_lo * scale, c_hi * scale)


@dataclass
class ReducingFamily:
    """Reducing operators indexed by dyadic rectangle."""
    matrices: dict[DyadicRect, np.ndarray]
    p: float
    method: str  # "exact-p2" | "ellipsoid"
    certificates: dict[DyadicRect, tuple] = field(default_factory=dict)

    def level_weight(self, window: Window):
        """Callable j -> matrix PiecewiseField, for the mixed-norm API; the
        family must hold every level-j rectangle of the window."""
        def at_level(j):
            A = np.array([self.matrices[R]
                          for _, R in window.rects_at_level(j)])
            A = A.reshape(window.coarse_shape(j) + A.shape[1:])
            return PiecewiseField(window, expand_mask(window, A, j))
        return at_level


def reducing_family(V: MatrixWeight, levels, p: float = 2.0,
                    rng=None) -> ReducingFamily:
    """Reducing operators of order p for every rectangle at the given
    levels: exact when p = 2, ellipsoid-fitted with certificates otherwise."""
    method = "exact-p2" if p == 2 else "ellipsoid"
    mats, certs = {}, {}
    for j in levels:
        for _, R in V.window.rects_at_level(j):
            if method == "exact-p2":
                mats[R] = reduce_exact_p2(V, R)
            else:
                A, cert, _ = reduce_general(V, R, p, rng=rng)
                mats[R], certs[R] = A, cert
    return ReducingFamily(mats, p, method, certs)


def two_variable_norm(A_cells, a_w, B_cells, b_w, p: float, pp: float) -> float:
    """|| x -> || y -> |A(x)B(y)| ||_{Lp'(dy)} ||_{Lp(dx)} for discrete
    weighted cell families (weights already normalized)."""
    G = op_norm(np.einsum("xab,ybc->xyac", A_cells, B_cells))
    if pp == INF:
        inner = G.max(axis=1)
    else:
        inner = np.einsum("y,xy->x", b_w, G ** pp) ** (1.0 / pp)
    if p == INF:
        return float(inner.max())
    return float(np.einsum("x,x->", a_w, inner ** p) ** (1.0 / p))


@dataclass
class ApReport:
    constant: float
    witness: tuple
    p: float


def ap_constant(V: MatrixWeight, p: float, pairs) -> ApReport:
    """sup over rectangle pairs (P, R) of the two-variable norm of
    V(x)V^{-1}(y): outer L^p in x over P, inner L^{p'} in y over R."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty pair family")
    best, wit = -INF, None
    Vinv = V.inverse()
    for P, R in pairs:
        Ac, aw = _cells_and_weights(V, P)
        Bc, bw = _cells_and_weights(Vinv, R)
        c = two_variable_norm(Ac, aw, Bc, bw, p, conjugate(p))
        if c > best:
            best, wit = c, (P, R)
    return ApReport(best, wit, p)


def diag_pairs(window: Window):
    """(R, R) over every dyadic rectangle of the window."""
    return [(R, R) for R in window.rects()]


def doubling_check(fam: ReducingFamily, *, strong=None, weak=None) -> float:
    """Worst quotient |A_P A_R^{-1}| / bound over rectangle pairs in the
    family.  strong=(a, b, c) per-axis order vectors; weak=d tests
    same-level pairs against (1 + |2^j (c_P - c_R)|)^d."""
    if (strong is None) == (weak is None):
        raise ValueError("give exactly one of strong=, weak=")
    rects = list(fam.matrices)
    if not rects:
        return 0.0
    arr = rect_arrays(rects[0].axes, rects)
    if weak is not None:
        iP, iR = np.nonzero((arr.levels[:, None] == arr.levels[None]).all(-1))
    else:
        iP, iR = np.indices((len(rects), len(rects))).reshape(2, -1)
    A = np.array(list(fam.matrices.values()))
    val = op_norm(A[iP] @ np.linalg.inv(A)[iR])
    lP, lR = arr.sides[iP], arr.sides[iR]
    off = np.abs(arr.centers[iP] - arr.centers[iR])
    if weak is not None:
        scaled = off / lP[:, arr.axes.coord_param()]
        bound = (1.0 + np.sqrt(np.sum(scaled ** 2, axis=1))) ** weak
    else:
        a, b, cc = strong
        bound = np.ones(len(iP))
        for i in range(arr.axes.k):
            cs = arr.axes.param_coords(i)
            bound *= np.maximum((lR[:, i] / lP[:, i]) ** a[i],
                                (lP[:, i] / lR[:, i]) ** b[i])
            bound *= (1.0 + np.max(off[:, cs.start:cs.stop], axis=1)
                      / np.maximum(lP[:, i], lR[:, i])) ** cc[i]
    return float(np.max(val / bound))


def geometric_mean(A: np.ndarray, B: np.ndarray, theta: float) -> np.ndarray:
    """A #_theta B = A^{1/2} (A^{-1/2} B A^{-1/2})^theta A^{1/2}."""
    if not 0 <= theta <= 1:
        raise ValueError("theta must be in [0, 1]")
    Ah = spd_power(A, 0.5)
    Aih = spd_power(A, -0.5)
    return Ah @ spd_power(Aih @ B @ Aih, theta) @ Ah
