"""Exact holomorphic cusp forms for the full modular group.

Everything up to the Hecke eigenbasis is exact: the q-expansions of E4,
E6, Delta, the Miller (echelon) basis of S_k and the Hecke matrices are
integer arithmetic.  The T_2 eigenvectors v come from one eigen-solve of
the balanced T_2 matrix in high-precision floating point (the exact
characteristic polynomial, charpoly, is the tests' oracle for the
eigenvalues); the expansions stay exact: a(n) = sum_i v_i g_i(n) is an
integer combination of the binary mantissas of v, up to the horizon that
the readers of lam(n) need (eigenform_horizon).  Coefficients are
Hecke-normalized:

    lam(n) = a(n) / n^{(k-1)/2},   a(1) = 1,

rounded once to float64 (Eigenform.lam_f64); the high-precision lists a
and lam are a lazy oracle that only the tests and mp callers build.

The double-precision evaluator uses the arithmetically normalized shape

    f(z) = sum_n lam(n) (4 pi n)^{(k-1)/2} / sqrt(Gamma(k)) e(nz)

so that downstream norm and moment integrals stay O(1) across weights.
"""

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from mpmath import mp, mpf

from .precision import NonConvergenceError
from .special import _heights, _term_sum

__all__ = [
    "cusp_dim",
    "e4_qexp",
    "e6_qexp",
    "delta_qexp",
    "poly_mul_trunc",
    "miller_basis",
    "hecke_matrix",
    "charpoly",
    "Eigenform",
    "hecke_eigenforms",
    "eigenform_horizon",
    "theta_cutoff",
    "eval_cusp_form_f64",
    "DEFAULT_WEIGHTS",
]

# even weights with dim S_k >= 1 up to 40; 14 enters nothing (dim 0)
DEFAULT_WEIGHTS = (12, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40)

# decimal digits of the T_2 eigen-solve in hecke_eigenforms
HECKE_DPS = 60


def cusp_dim(k: int) -> int:
    """dim S_k(SL_2(Z)) for integer weight k."""
    if k % 2 or k < 12:
        return 0
    if k % 12 == 2:
        return k // 12 - 1
    return k // 12


def _sigma_table(e: int, n_max: int):
    # sigma_e(n) for n = 1..n_max by divisor sieve
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        de = d**e
        for m in range(d, n_max + 1, d):
            sig[m] += de
    return sig


def e4_qexp(n_terms: int):
    sig = _sigma_table(3, n_terms)
    return [1] + [240 * sig[n] for n in range(1, n_terms + 1)]


def e6_qexp(n_terms: int):
    sig = _sigma_table(5, n_terms)
    return [1] + [-504 * sig[n] for n in range(1, n_terms + 1)]


def _slot_bytes(prod_bound: int) -> int:
    """Kronecker slot width in whole bytes for product coefficients
    bounded by prod_bound in absolute value (sign bit plus one spare)."""
    return (max(8, prod_bound.bit_length() + 2) + 7) // 8


def _pack(coeffs, m: int) -> int:
    # sum_i c_i 2^{8 m i} as one signed integer: positive and negative
    # parts are laid out as little-endian slots, so the cost is linear
    pos = bytearray(m * len(coeffs))
    neg = bytearray(m * len(coeffs))
    for i, c in enumerate(coeffs):
        if c > 0:
            pos[m * i : m * (i + 1)] = c.to_bytes(m, "little")
        elif c < 0:
            neg[m * i : m * (i + 1)] = (-c).to_bytes(m, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def poly_mul_trunc(a, b, n_terms: int):
    """Truncated product of integer q-expansions via Kronecker substitution.

    Packs each series into one signed big integer base 2^{8m}, multiplies
    once, unpacks.  The slot width m (whole bytes) exceeds the bit length
    of every product coefficient by two, so slots never interfere; adding
    2^{8m-1} to each low slot makes every unpacked digit non-negative.
    Packing and unpacking go through to_bytes/from_bytes, linear in the
    packed size.
    """
    n = n_terms + 1
    a = a[:n]
    b = b[:n]
    bound_a = max((abs(c) for c in a), default=0)
    bound_b = max((abs(c) for c in b), default=0)
    if bound_a == 0 or bound_b == 0:
        return [0] * n
    m = _slot_bytes(bound_a * bound_b * n + 1)
    prod = _pack(a, m) * _pack(b, m)
    offset = int.from_bytes((bytes(m - 1) + b"\x80") * n, "little")
    raw = ((prod + offset) & ((1 << (8 * m * n)) - 1)).to_bytes(m * n, "little")
    half = 1 << (8 * m - 1)
    return [int.from_bytes(raw[m * i : m * (i + 1)], "little") - half for i in range(n)]


@cache
def _eisenstein_products(n_terms: int):
    """(E4, E6, E4^3, Delta) to n_terms, as tuples, once per n_terms: three
    products (E4^2, E4^3, E6^2) and Delta = (E4^3 - E6^2) / 1728."""
    e4, e6 = e4_qexp(n_terms), e6_qexp(n_terms)
    e4_cubed = poly_mul_trunc(poly_mul_trunc(e4, e4, n_terms), e4, n_terms)
    delta = []
    for x, y in zip(e4_cubed, poly_mul_trunc(e6, e6, n_terms)):
        q, r = divmod(x - y, 1728)
        if r:
            raise ArithmeticError("discriminant coefficients must be integral")
        delta.append(q)
    return tuple(e4), tuple(e6), tuple(e4_cubed), tuple(delta)


def delta_qexp(n_terms: int):
    """Discriminant cusp form: (E4^3 - E6^2) / 1728, integer coefficients
    (read from the cached _eisenstein_products)."""
    return list(_eisenstein_products(n_terms)[3])


@cache
def _miller_product(j: int, a: int, b: int, n_terms: int) -> tuple:
    """Delta^j E4^a E6^b (j >= 1) to n_terms, as a tuple.

    Each entry is one product onto an earlier entry of the same n_terms:
    an E6 step while b > 0, then an E4^3 step while a >= 3, otherwise one
    E4 or Delta step.  The factors come from _eisenstein_products, so
    Delta itself costs nothing beyond them.  E6 goes first so that
    neighbouring weights, whose (a, b) alternate b = 0 and 1, share one
    E4^3 chain per residue of a mod 3 and j: the entries built are then
    never more than one E4 factor per entry would build.
    """
    e4, e6, e4_cubed, delta = _eisenstein_products(n_terms)
    if b:
        prev, factor = _miller_product(j, a, b - 1, n_terms), e6
    elif a >= 3:
        prev, factor = _miller_product(j, a - 3, 0, n_terms), e4_cubed
    elif a:
        prev, factor = _miller_product(j, a - 1, 0, n_terms), e4
    elif j > 1:
        prev, factor = _miller_product(j - 1, 0, 0, n_terms), delta
    else:
        return delta
    return tuple(poly_mul_trunc(prev, factor, n_terms))


def miller_basis(k: int, n_terms: int):
    """Echelonized integral basis of S_k: g_i(j) = delta_ij for j <= dim.

    Spanning set Delta^j E4^a E6^b with 12j + 4a + 6b = k, j = 1..dim and
    b in {0, 1}, from _miller_product (weights asked at one n_terms share
    its entries).  Row j is q^j + O(q^{j+1}) with integer coefficients, so
    the set is unitriangular on columns 1..dim and back substitution with
    integer multipliers gives the reduced echelon form (W. Stein, Modular
    Forms: A Computational Approach, 2.3).
    """
    d = cusp_dim(k)
    if d == 0:
        return []
    if n_terms < d + 10:
        raise ValueError("n_terms must be at least dim + 10")
    rows = []
    for j in range(1, d + 1):
        b = (k - 12 * j) % 4 // 2
        row = list(_miller_product(j, (k - 12 * j - 6 * b) // 4, b, n_terms))
        if row[: j + 1] != [0] * j + [1]:
            raise ArithmeticError("Miller row %d at k=%d is not q^%d + O(q^%d)" % (j, k, j, j + 1))
        rows.append(row)
    # clear columns i+2..d of row i with the rows below it, already reduced
    for i in range(d - 2, -1, -1):
        for r in range(i + 1, d):
            c = rows[i][r + 1]
            if c:
                rows[i] = [ci - c * cr for ci, cr in zip(rows[i], rows[r])]
    return rows


def hecke_matrix(k: int, p: int, basis):
    """Integer matrix c_ij of T_p on the Miller basis of S_k
    (miller_basis(k, n) with n >= p * dim): T_p g_i = sum_j c_ij g_j.

    Echelon structure reads the matrix off directly:
    c_ij = (T_p g_i)(j) = g_i(p j) + p^{k-1} g_i(j / p).
    """
    d = cusp_dim(k)
    pk = p ** (k - 1)
    mat = []
    for i in range(d):
        g = basis[i]
        if len(g) <= p * d:
            raise ValueError("basis truncated below p*dim")
        row = []
        for j in range(1, d + 1):
            c = g[p * j]
            if j % p == 0:
                c = c + pk * g[j // p]
            row.append(c)
        mat.append(row)
    return mat


def charpoly(mat):
    """Monic characteristic polynomial [1, c_{d-1}, ..., c_0] of an integer
    matrix A, by Faddeev-LeVerrier over Z:

        M_m = A (M_{m-1} + c_{d-m+1} I),   c_{d-m} = -tr(M_m) / m,

    with M_0 = 0.  The coefficients are integers, so each division is exact.
    """
    d = len(mat)
    coeffs = [1]
    prod = [[0] * d for _ in range(d)]
    for m in range(1, d + 1):
        prev = [[prod[r][c] + (coeffs[-1] if r == c else 0) for c in range(d)] for r in range(d)]
        prod = [[sum(mat[r][t] * prev[t][c] for t in range(d)) for c in range(d)] for r in range(d)]
        cm, rem = divmod(-sum(prod[r][r] for r in range(d)), m)
        if rem:
            raise ArithmeticError("characteristic polynomial coefficients must be integral")
        coeffs.append(cm)
    return coeffs


@dataclass
class Eigenform:
    """Hecke eigenform f = sum_i v_i g_i at a(1) = 1, on the integer Miller
    rows g_i of S_k (miller_basis) truncated at the horizon.

    The v_i are binary mpf numbers, so a(n) = sum_i v_i g_i(n) is an exact
    integer on a common power of two.  Two tiers read it: lam_f64 (the
    production tier) rounds lam(n) = a(n) / n^{(k-1)/2} once to float64
    from that exact value; a and lam (the HECKE_DPS-digit oracle) are built
    on first access, which production never makes.
    """

    weight: int
    index: int
    v: list = field(repr=False)  # mpf coordinates on the Miller basis, v[0] = 1
    rows: list = field(repr=False)  # rows[i][n] = g_i(n), n = 0..horizon, int

    @property
    def horizon(self) -> int:
        return len(self.rows[0]) - 1

    @cached_property
    def lam_f64(self) -> np.ndarray:
        """lam[n] as float64, each correctly rounded from the exact a(n),
        converted once per form (read-only)."""
        # v_i = V_i 2^e with integer V_i, on the smallest exponent e of a nonzero v_i
        parts = [x._mpf_[:3] for x in self.v]  # (sign, mantissa, exponent)
        e = min((exp for _, man, exp in parts if man), default=0)
        scaled = [(-man if sign else man) << (exp - e) if man else 0 for sign, man, exp in parts]
        out = np.zeros(self.horizon + 1)
        for n in range(1, self.horizon + 1):
            a_n = sum(c * row[n] for c, row in zip(scaled, self.rows))
            out[n] = _rounded_lam(a_n, e, n, self.weight)
        out.flags.writeable = False
        return out

    @cached_property
    def a(self) -> list:
        """Oracle: a[n] = sum_i v_i g_i(n) in HECKE_DPS-digit mpf, n = 0..horizon."""
        with mp.workdps(HECKE_DPS):
            return [mpf(0)] + [
                sum(vi * mpf(row[n]) for vi, row in zip(self.v, self.rows))
                for n in range(1, self.horizon + 1)
            ]

    @cached_property
    def lam(self) -> list:
        """Oracle: lam[n] = a[n] / n^{(k-1)/2} in HECKE_DPS-digit mpf."""
        with mp.workdps(HECKE_DPS):
            half = mpf(self.weight - 1) / 2
            return [mpf(0)] + [self.a[n] / mpf(n) ** half for n in range(1, self.horizon + 1)]


def _rounded_lam(a_n: int, e: int, n: int, k: int) -> float:
    """a_n 2^e / n^{(k-1)/2} for even k, correctly rounded to float64.

    The magnitude is 2^e sqrt(a_n^2 n) / n^{k/2}.  The guard shift s makes
    q = floor(2^s sqrt(a_n^2 n) / n^{k/2}) at least 2^54, and the low bit
    of 2q + 1 marks an inexact floor, so the one rounding of that integer
    to 53 bits is the correct one.
    """
    if a_n == 0:
        return 0.0
    x = a_n * a_n * n
    den = n ** (k // 2)
    s = 55 + den.bit_length() - x.bit_length() // 2
    if s >= 0:
        x <<= 2 * s
    else:
        den <<= -s
    r = math.isqrt(x)
    q, rem = divmod(r, den)
    mag = math.ldexp(float(2 * q + (rem != 0 or r * r != x)), e - s - 1)
    return -mag if a_n < 0 else mag


def _t2_eigenbasis(cmat, k: int):
    """Eigenvectors v of C^T, v_1 = 1, for the T_2 matrix C on the Miller
    basis, sorted by their real, distinct eigenvalues: one mp.eig in
    HECKE_DPS digits of B = D^-1 C^T D, D = diag(2^e_i), and v = D w.

    By Deligne the entries of C span hundreds of orders of magnitude; D
    balances B (Parlett and Reinsch, Numer. Math. 13, 1969), without which
    the eigenvectors lose every digit from k = 120 on.  Each index is
    rescaled while that cuts its off-diagonal row plus column sum by 5%.
    """
    d = len(cmat)
    with mp.workdps(HECKE_DPS):
        b = [[mpf(cmat[j][i]) for j in range(d)] for i in range(d)]
        e = [0] * d
        moved = True
        while moved:
            moved = False
            for i in range(d):
                col = sum(abs(b[j][i]) for j in range(d) if j != i)
                row = sum(abs(b[i][j]) for j in range(d) if j != i)
                m = (mp.mag(row) - mp.mag(col)) // 2 if col and row else 0
                if m and mp.ldexp(col, m) + mp.ldexp(row, -m) < mpf(0.95) * (col + row):
                    moved = True
                    e[i] += m
                    for j in range(d):
                        b[j][i] = mp.ldexp(b[j][i], m)
                        b[i][j] = mp.ldexp(b[i][j], -m)
        try:
            lams, w = mp.eig(mp.matrix(b))
        except RuntimeError as exc:
            # mpmath keeps neither the last iterate nor its step
            raise NonConvergenceError("T_2 eigen-solve of size %d: %s" % (d, exc)) from exc
        for lam in lams:
            if abs(mp.im(lam)) > mpf(10) ** (-HECKE_DPS // 2) * (1 + abs(lam)):
                raise NonConvergenceError("nonreal T_2 eigenvalue %s" % lam)
        order = sorted(range(d), key=lambda c: mp.re(lams[c]))
        spectrum = [mp.re(lams[c]) for c in order]
        sep = min((y - x for x, y in zip(spectrum, spectrum[1:])), default=mpf(1))
        if sep < (1 + max(abs(x) for x in spectrum)) * mpf(10) ** (-HECKE_DPS // 3):
            raise NonConvergenceError("T_2 spectrum degenerate at k=%d" % k)
        dw = [[w[i, c] * mp.ldexp(1, e[i]) for i in range(d)] for c in order]
        return [[mpf(1)] + [mp.re(x / v[0]) for x in v[1:]] for v in dw]


# The production readers of lam(n) and the last index each reads.  The
# Rankin-Selberg theta profile Phi(t) and the balanced AFE sum c(n) against
# the kernel kappa(n t); the float64 evaluators sum the q-expansion.

# the theta split t0 that production reads: every R comes from
# residue_theta at this split, and Phi(1/t0) reads the most coefficients
THETA_SPLIT = 2.0

# lowest height of the fundamental domain: every Petersson node lies above
FUNDAMENTAL_Y_MIN = math.sqrt(3.0) / 2


def theta_cutoff(k: int, t: float) -> int:
    """Last n that the weight-k theta profile Phi(t) = sum c(n) kappa(n t) reads."""
    # kappa(n t) has died ~e^-140 under its own scale past the cutoff
    return max(8, int(math.ceil(((k + 140.0) / (4 * math.pi)) ** 2 / t)) + 1)


def _cusp_n_eval(k: int, y_min: float) -> int:
    # terms of the q-expansion down to height y_min: exp(-2 pi n y_min)
    # has decayed ~1e-18 under the peak term
    return max(24, int((k + 170.0) / (2 * np.pi * y_min)) + 1)


def eigenform_horizon(k: int) -> int:
    """Default q-expansion horizon of hecke_eigenforms at weight k: the last
    index that a production reader of lam(n) reaches.

    The readers are the theta profile at t = 1/THETA_SPLIT (the R of
    residue_theta at its default split) and the float64 evaluators down
    to FUNDAMENTAL_Y_MIN, where every Petersson node lies.  The balanced
    AFE reads the theta profile at t >= 1, up to theta_cutoff(k, 1), half
    of what t = 1/THETA_SPLIT reads.  The theta profile reads the most,
    about 2((k+140)/4pi)^2: 294 at k = 12, 412 at k = 40.  lam(n) does not
    depend on the horizon, so longer sums (l_direct deep in Re s > 1,
    splits past THETA_SPLIT, heights below FUNDAMENTAL_Y_MIN) pass
    hecke_eigenforms a larger horizon and read the same values.
    """
    return max(
        theta_cutoff(k, 1.0 / THETA_SPLIT),
        _cusp_n_eval(k, FUNDAMENTAL_Y_MIN),
    )


def hecke_eigenforms(k: int, horizon: int = None):
    """All normalized Hecke eigenforms of weight k, sorted by T_2 eigenvalue,
    with coefficients for n <= horizon (default eigenform_horizon(k)).
    Only the T_2 eigenvectors come from floating point, one balanced
    eigen-solve in HECKE_DPS digits (_t2_eigenbasis); lam(n) is read from
    the exact expansion (Eigenform).

    Each coefficient is the same at any horizon that includes it: the
    echelon basis is unique and the eigenvectors come from the T_2 matrix
    alone.  T_2 alone separates the forms: its characteristic polynomial is
    irreducible over Q, so its roots are simple (Maeda's conjecture,
    verified far beyond these weights).  Eigenvalues too close to tell
    apart, and an eigen-solve that does not converge, raise
    NonConvergenceError.
    """
    d = cusp_dim(k)
    if d == 0:
        return []
    if horizon is None:
        horizon = eigenform_horizon(k)
    basis = miller_basis(k, horizon)
    vecs = _t2_eigenbasis(hecke_matrix(k, 2, basis), k)
    return [Eigenform(weight=k, index=i, v=v, rows=basis) for i, v in enumerate(vecs)]


def _cusp_series(form: Eigenform, y_min: float):
    """Coefficient step of the float64 evaluators: (ns, log|c_n|, sign c_n)
    for n = 1..n_eval, where c_n = lam(n) (4 pi n)^{(k-1)/2} Gamma(k)^{-1/2}.

    Truncation where exp(-2 pi n y_min) has decayed ~1e-18 under the peak
    term, so y_min must be the smallest height the terms will meet.
    """
    k = form.weight
    n_eval = _cusp_n_eval(k, y_min)
    if n_eval > form.horizon:
        raise ValueError(
            "horizon %d too small for y_min %.3g (need %d terms)"
            % (form.horizon, y_min, n_eval)
        )
    ns = np.arange(1, n_eval + 1, dtype=float)
    lam = form.lam_f64[1 : n_eval + 1]
    sign = np.where(lam >= 0, 1.0, -1.0)
    with np.errstate(divide="ignore"):
        log_abs_lam = np.log(np.abs(lam))  # -inf where lam(n) = 0
    log_c = log_abs_lam + 0.5 * (k - 1) * np.log(4 * np.pi * ns) - 0.5 * math.lgamma(k)
    return ns, log_c, sign


def _cusp_radial(series, y):
    """sign_n exp(log|c_n| - 2 pi n y), shape y.shape + (n_eval,): the
    log-space assembly that keeps large weights in range."""
    ns, log_c, sign = series
    return sign * np.exp(log_c - 2 * np.pi * ns * y[..., None])


def _cusp_phases(series, x):
    """e(n x), shape x.shape + (n_eval,)."""
    phase = 2 * np.pi * series[0] * x[..., None]
    return np.cos(phase) + 1j * np.sin(phase)


def eval_cusp_form_f64(form: Eigenform, x, y, y_min: float = None):
    """f(x+iy) = sum lam(n) (4 pi n)^{(k-1)/2} Gamma(k)^{-1/2} e(n(x+iy)).

    Vectorized double precision over broadcastable x, y arrays; terms
    assembled in log space (_cusp_radial), truncated at y_min
    (_cusp_series).  y_min defaults to the smallest y given; points that
    are part of a larger node set pass that set's smallest height, so they
    use its term count, and a y_min above min(y) raises ValueError.
    Phases are tabulated on x and radial factors on y, and
    special._term_sum contracts the two tables over n for every point of
    the broadcast shape, so a tensor grid (x of shape (m, 1), y of shape
    (1, p)) or columns of constant x (y of shape (m, p)) cost one phase
    per row of x and never a (points, terms) array.  The horizon of the
    form bounds the heights: the default one reaches down to
    y ~ (k + 170) / (2 pi horizon).
    """
    x = np.asarray(x, dtype=float)
    y, y_min = _heights(y, y_min)
    series = _cusp_series(form, y_min)
    return _term_sum(_cusp_radial(series, y), _cusp_phases(series, x))
