"""Epstein zeta functions of positive definite forms and the degenerate
Eisenstein series they complete.

For M positive definite n x n and Q(a) = a^T M a, the completed zeta

  xi(M, rho) = pi^{-rho} Gamma(rho) Z(M, rho),
  Z(M, rho)  = (1/2) sum_{a != 0} Q(a)^{-rho}   (Re rho > n/2)

continues via the split theta representation: for ANY split point t0 > 0

  xi(M, rho) = (1/2) sum_{a != 0} (pi Q(a))^{-rho} Gamma(rho, pi Q(a) t0)
             + (det M)^{-1/2} (1/2) sum_{b != 0} (pi Q'(b))^{rho - n/2}
                                     Gamma(n/2 - rho, pi Q'(b) / t0)
             + (1/2) [ (det M)^{-1/2} t0^{rho - n/2} / (rho - n/2)
                       - t0^rho / rho ]

with Q'(b) = b^T M^{-1} b.  Both lattice sums converge superexponentially.
The balanced choice t0 = det(M)^{-1/n} equalizes the two tails, but it
also makes the functional equation

  xi(M, rho) = det(M)^{-1/2} xi(M^{-1}, n/2 - rho)

hold term by term, so a meaningful equation check must evaluate one side
at an off-balance split.

The degenerate GL(n) Eisenstein series at the minimal parabolic corner is

  E*(z, s) = det(z)^s gamma_r(n s) Z(z z^T, n s / 2)
           = det(z)^s xi(z z^T, n s / 2)

for z = x a upper triangular with positive diagonal a, a_n = 1, since
gamma_r(n s) = pi^{-ns/2} Gamma(ns/2).  The mp oracle takes the first
form, the float64 route the second.
"""

import math

import numpy as np
from mpmath import mp, mpf

from .precision import PoleError
from .special import gamma_r, upper_gamma_f64, upper_incomplete_gamma

__all__ = [
    "iwasawa_y",
    "z_from_y",
    "det_from_y",
    "dual_y",
    "epstein_xi",
    "epstein_z",
    "epstein_xi_f64",
    "epstein_z_f64",
    "gln_completed_eisenstein",
    "gln_completed_eisenstein_f64",
]


# ----------------------------------------------------------------------
# Iwasawa coordinates of a positive definite Gram matrix
# ----------------------------------------------------------------------

def iwasawa_y(G):
    """Iwasawa data of G (mod positive scalars): (x, y, a_diag).

    G = c * z z^T for z = x diag(a), x unit upper triangular, a_n = 1,
    a_i = prod_{k=1}^{n-i} y_k.  Returned y has length n-1 and is
    invariant under G -> c G.  Uses the UDU^T factorization obtained by
    flipping an LDL^T of the reversed matrix.
    """
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    if G.shape != (n, n) or not np.allclose(G, G.T, rtol=1e-10, atol=1e-12):
        raise ValueError("iwasawa_y needs a symmetric matrix")
    # LDL^T of JGJ by unpivoted Cholesky, then flip back
    R = G[::-1, ::-1].copy()
    L = np.eye(n)
    d = np.zeros(n)
    for j in range(n):
        d[j] = R[j, j] - (L[j, :j] ** 2 * d[:j]).sum()
        if d[j] < 1e-30 * max(1.0, abs(G).max()):
            raise ValueError("matrix is numerically not positive definite")
        for i in range(j + 1, n):
            L[i, j] = (R[i, j] - (L[i, :j] * L[j, :j] * d[:j]).sum()) / d[j]
    x = L[::-1, ::-1]  # unit upper triangular
    m = np.sqrt(d[::-1])  # diagonal of z before normalization
    a = m / m[-1]
    y = np.array([a[n - 1 - j] / a[n - j] for j in range(1, n)])
    return x, y, a


def z_from_y(y, x=None):
    """Upper triangular z = x diag(a), a_i = prod_{k<=n-i} y_k, a_n = 1."""
    y = np.asarray(y, dtype=float)
    n = len(y) + 1
    a = np.ones(n)
    for i in range(n - 1, 0, -1):
        a[i - 1] = a[i] * y[n - i - 1]
    if x is None:
        x = np.eye(n)
    return np.asarray(x, dtype=float) @ np.diag(a)


def det_from_y(y):
    """det z = prod_k y_k^{n-k} for the normalized representative."""
    y = np.asarray(y, dtype=float)
    n = len(y) + 1
    return float(np.prod([y[k - 1] ** (n - k) for k in range(1, n)]))


def dual_y(y):
    """y-coordinates of the dual z~ = w (z^-1)^T w: reversal."""
    return np.asarray(y, dtype=float)[::-1].copy()


# ----------------------------------------------------------------------
# lattice enumeration
# ----------------------------------------------------------------------

def _box_limits(Minv_diag, bound):
    # a_i^2 <= bound * (M^-1)_ii holds for every a with Q(a) <= bound
    return [int(math.floor(math.sqrt(bound * max(v, 0.0)))) for v in Minv_diag]


def _half_box_points(Minv_diag, bound):
    # the lex-positive integer a in the box of _box_limits, one of each
    # pair +-a as _half_box_forms takes them; returns int array.  In the
    # box's lexicographic order -a mirrors a about the origin, its center
    ranges = [np.arange(-L, L + 1) for L in _box_limits(Minv_diag, bound)]
    grids = np.meshgrid(*ranges, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return pts[len(pts) // 2 + 1:]


def _half_box_forms(M, lims):
    """Q(a) = a^T M a over the lex-positive a in the box |a_i| <= lims[i].

    In the box's lexicographic order -a sits at the index mirrored about
    the center, so the lex-positive points are exactly the second half of
    the box: the slab a_1 > 0 and the second half of the slab a_1 = 0.
    Axes with lims[i] = 0 hold a_i = 0 only and are dropped first; that
    leaves the lexicographic order unchanged.  Q is built by broadcasting
    over the box axes, innermost first:
    Q = a_i (M_ii a_i + 2 sum_{j>i} M_ij a_j) + Q(a_{i+1}, ..., a_n).
    """
    live = [i for i, L in enumerate(lims) if L > 0]
    if not live:
        return np.zeros(0)
    M = M[np.ix_(live, live)]
    n = len(live)
    ranges = [np.arange(-lims[i], lims[i] + 1.0) for i in live]
    ranges[0] = ranges[0][lims[live[0]]:]
    # axis i as shape (len, 1, ..., 1) over the trailing axes i+1..n-1
    axes = [r.reshape((-1,) + (1,) * (n - 1 - i)) for i, r in enumerate(ranges)]
    Q = M[n - 1, n - 1] * axes[n - 1] ** 2
    for i in range(n - 2, -1, -1):
        lin = sum(M[i, j] * axes[j] for j in range(i + 1, n))
        # in place: outer is the only temporary of the box's size
        outer = M[i, i] * axes[i] + 2.0 * lin
        outer *= axes[i]
        outer += Q
        Q = outer
    slab = Q.size // len(ranges[0])
    return Q.ravel()[(slab + 1) // 2:]


def _theta_sum_mp(M_rows, pts, rho, t0, budget):
    # sum (pi Q)^{-rho} Gamma(rho, pi Q t0) over the culled lex-positive
    # points, half the sum over the lattice, mp
    n = len(M_rows)
    Mf = np.array([[float(v) for v in row] for row in M_rows])
    Qf = np.einsum("ij,jk,ik->i", pts.astype(float), Mf, pts.astype(float))
    keep = np.pi * Qf * float(t0) <= budget
    total = mp.mpf(0)
    for a in pts[keep]:
        Q = mp.fsum(
            M_rows[i][j] * int(a[i]) * int(a[j]) for i in range(n) for j in range(n)
        )
        xval = mp.pi * Q * t0
        total += (mp.pi * Q) ** (-rho) * upper_incomplete_gamma(rho, xval)
    return total


def _as_mp_matrix(M):
    rows = []
    for row in np.asarray(M, dtype=object):
        rows.append([mp.mpmathify(v) if not isinstance(v, float) else mpf(v) for v in row])
    return rows


def _mp_inverse_det(M_rows):
    n = len(M_rows)
    A = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            A[i, j] = M_rows[i][j]
    det = mp.det(A)
    inv = A**-1
    inv_rows = [[inv[i, j] for j in range(n)] for i in range(n)]
    return inv_rows, det


def epstein_xi(M, rho, split=None):
    """Completed Epstein zeta xi(M, rho) at working precision.

    M positive definite (array-like, float or mpf entries); rho complex
    away from the poles 0 and n/2; split = None takes the balanced
    t0 = det^{-1/n}.
    """
    rho = mp.mpmathify(rho)
    M_rows = _as_mp_matrix(M)
    n = len(M_rows)
    if abs(rho) < mpf("1e-12") or abs(rho - mpf(n) / 2) < mpf("1e-12"):
        raise PoleError("xi(M, rho) has poles at rho = 0 and rho = n/2")
    inv_rows, det = _mp_inverse_det(M_rows)
    if not det > 0:
        raise ValueError("form must be positive definite")
    t0 = det ** (-mpf(1) / n) if split is None else mpf(split)
    if not t0 > 0:
        raise ValueError("split point must be positive")
    budget = (mp.dps + 6) * math.log(10) + 8
    Minv_f = np.array([[float(v) for v in row] for row in inv_rows])
    M_f = np.array([[float(v) for v in row] for row in M_rows])

    pts1 = _half_box_points(np.diag(Minv_f), budget / (math.pi * float(t0)))
    s1 = _theta_sum_mp(M_rows, pts1, rho, t0, budget)
    pts2 = _half_box_points(np.diag(M_f), budget * float(t0) / math.pi)
    s2 = _theta_sum_mp(inv_rows, pts2, mpf(n) / 2 - rho, 1 / t0, budget)
    polar = (det ** mpf("-0.5") * t0 ** (rho - mpf(n) / 2) / (rho - mpf(n) / 2)
             - t0**rho / rho) / 2
    return s1 + det ** mpf("-0.5") * s2 + polar


def epstein_z(M, rho, split=None):
    """Z(M, rho) = xi(M, rho) / (pi^-rho Gamma(rho)), continued."""
    rho = mp.mpmathify(rho)
    xi = epstein_xi(M, rho, split=split)
    return xi / (mp.pi ** (-rho) * mp.gamma(rho))


def epstein_xi_f64(M, rho, split=None):
    """Double-precision xi(M, rho) for real rho off the poles."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    rho = float(rho)
    if abs(rho) < 1e-12 or abs(rho - n / 2) < 1e-12:
        raise PoleError("xi(M, rho) has poles at rho = 0 and rho = n/2")
    det = float(np.linalg.det(M))
    if det <= 0 or np.any(np.linalg.eigvalsh(M) <= 0):
        raise ValueError("form must be positive definite")
    Minv = np.linalg.inv(M)
    t0 = det ** (-1.0 / n) if split is None else float(split)
    budget = 42.0

    def half_sum(mat, mat_inv_diag, r, tt):
        # Q(a) = Q(-a): the lex-positive half of the lattice carries 1/2 the sum
        Q = _half_box_forms(mat, _box_limits(mat_inv_diag, budget / (math.pi * tt)))
        xv = math.pi * Q
        xv *= tt
        keep = xv <= budget
        Q, xv = Q[keep], xv[keep]
        return float(np.sum((math.pi * Q) ** (-r) * upper_gamma_f64(r, xv)))

    s1 = half_sum(M, np.diag(Minv), rho, t0)
    s2 = half_sum(Minv, np.diag(M), n / 2 - rho, 1.0 / t0)
    polar = 0.5 * (det**-0.5 * t0 ** (rho - n / 2) / (rho - n / 2) - t0**rho / rho)
    return s1 + det**-0.5 * s2 + polar


def epstein_z_f64(M, rho, split=None):
    xi = epstein_xi_f64(M, rho, split=split)
    return xi / (math.pi ** (-rho) * math.gamma(rho))


def gln_completed_eisenstein(y, s, x=None):
    """E*(z, s) = det(z)^s gamma_r(n s) Z(z z^T, n s / 2), mp precision.

    y: Iwasawa coordinates (length n-1) of z; optional unit upper
    triangular x.  z and its Gram matrix are assembled at working
    precision.  Matches the classical completed series at n = 2.
    """
    s = mp.mpmathify(s)
    yv = [mp.mpmathify(v) for v in y]
    n = len(yv) + 1
    a = [mpf(1)] * n
    for i in range(n - 1, 0, -1):
        a[i - 1] = a[i] * yv[n - i - 1]
    if x is None:
        xm = [[mpf(1) if i == j else mpf(0) for j in range(n)] for i in range(n)]
    else:
        xm = [[mp.mpmathify(v) for v in row] for row in np.asarray(x, dtype=object)]
    z = [[xm[i][j] * a[j] for j in range(n)] for i in range(n)]
    G = [
        [mp.fsum(z[i][t] * z[j][t] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]
    detz = mp.fprod(yv[k - 1] ** (n - k) for k in range(1, n))
    return detz**s * gamma_r(n * s) * epstein_z(G, n * s / 2)


def gln_completed_eisenstein_f64(y, s, x=None):
    """Double-precision E*(z, s) = det(z)^s xi(z z^T, n s / 2) for real
    s > 0 (large-scale scans)."""
    s = float(s)
    if s <= 0:
        raise ValueError("f64 path covers s > 0 only")
    z = z_from_y(y, x=x)
    n = z.shape[0]
    return det_from_y(y) ** s * epstein_xi_f64(z @ z.T, n * s / 2.0)
