"""Exact holomorphic cusp forms for the full modular group.

Everything up to the Hecke eigenbasis is integer/rational arithmetic:
q-expansions of E4, E6, Delta, the Miller (echelon) basis of S_k, and
Hecke matrices with exact characteristic polynomials.  Eigenvalues and
eigenvector expansions are then extracted in high-precision floating
point.  Coefficients are Hecke-normalized at the end:

    lam(n) = a(n) / n^{(k-1)/2},   a(1) = 1.

The double-precision evaluator uses the arithmetically normalized shape

    f(z) = sum_n lam(n) (4 pi n)^{(k-1)/2} / sqrt(Gamma(k)) e(nz)

so that downstream norm and moment integrals stay O(1) across weights.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
from mpmath import mp, mpf
from scipy.special import gammaln

from .precision import NonConvergenceError, working_dps

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
    "eval_cusp_form_f64",
    "DEFAULT_WEIGHTS",
]

# even weights with dim S_k >= 1 up to 40; 14 enters nothing (dim 0)
DEFAULT_WEIGHTS = (12, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40)

# points per block in eval_cusp_form_f64
EVAL_BLOCK = 4096


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


def delta_qexp(n_terms: int):
    """Discriminant cusp form: (E4^3 - E6^2) / 1728, integer coefficients."""
    e4 = e4_qexp(n_terms)
    e4c = poly_mul_trunc(poly_mul_trunc(e4, e4, n_terms), e4, n_terms)
    e6 = e6_qexp(n_terms)
    e6c = poly_mul_trunc(e6, e6, n_terms)
    out = []
    for x, y in zip(e4c, e6c):
        q, r = divmod(x - y, 1728)
        if r:
            raise ArithmeticError("discriminant coefficients must be integral")
        out.append(q)
    return out


class _MillerProducts:
    """Delta E4^a E6^b, truncated at one horizon: the largest requested so far.

    A truncated product's first n coefficients depend only on the first n
    coefficients of its factors, so a smaller horizon is an exact slice
    and only a larger request rebuilds.  Each entry costs one product: it
    chains one factor E6 (b > 0) or E4 onto an earlier entry.  Nothing is
    built until the first request.
    """

    def __init__(self):
        self.clear()

    def clear(self):
        self.n_terms = -1
        self._entries = {}

    def get(self, a: int, b: int, n_terms: int):
        if n_terms > self.n_terms:
            self.n_terms = n_terms
            self._e4 = e4_qexp(n_terms)
            self._e6 = e6_qexp(n_terms)
            self._entries = {(0, 0): delta_qexp(n_terms)}
        return self._entry(a, b)[: n_terms + 1]

    def _entry(self, a: int, b: int):
        if (a, b) not in self._entries:
            if b:
                prev, factor = self._entry(a, b - 1), self._e6
            else:
                prev, factor = self._entry(a - 1, 0), self._e4
            self._entries[a, b] = poly_mul_trunc(prev, factor, self.n_terms)
        return self._entries[a, b]


_MILLER_PRODUCTS = _MillerProducts()


def miller_basis(k: int, n_terms: int):
    """Echelonized integral basis of S_k: g_i(j) = delta_ij for j <= dim.

    Spanning set Delta * E4^a E6^b over 4a + 6b = k - 12 (shared across
    weights, see _MillerProducts), then full Gauss-Jordan over Q on
    coefficient columns 1..dim.
    """
    d = cusp_dim(k)
    if d == 0:
        return []
    if n_terms < d + 10:
        raise ValueError("n_terms must be at least dim + 10")
    rows = []
    for b in range((k - 12) // 6 + 1):
        rem = k - 12 - 6 * b
        if rem < 0 or rem % 4:
            continue
        prod = _MILLER_PRODUCTS.get(rem // 4, b, n_terms)
        rows.append([Fraction(c) for c in prod])
    if len(rows) != d:
        raise ArithmeticError("spanning set size %d != dim %d at k=%d" % (len(rows), d, k))
    # Gauss-Jordan with pivot columns 1..d
    for i in range(d):
        col = i + 1
        piv = next((r for r in range(i, d) if rows[r][col] != 0), None)
        if piv is None:
            raise ArithmeticError("singular spanning set at k=%d" % k)
        rows[i], rows[piv] = rows[piv], rows[i]
        inv = 1 / rows[i][col]
        rows[i] = [c * inv for c in rows[i]]
        for r in range(d):
            if r != i and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [cr - factor * ci for cr, ci in zip(rows[r], rows[i])]
    return rows


def hecke_matrix(k: int, p: int, basis=None, n_terms: int = None):
    """Matrix c_ij of T_p on the Miller basis: T_p g_i = sum_j c_ij g_j.

    Echelon structure reads the matrix off directly:
    c_ij = (T_p g_i)(j) = g_i(p j) + p^{k-1} g_i(j / p).
    """
    d = cusp_dim(k)
    if basis is None:
        basis = miller_basis(k, n_terms if n_terms is not None else p * d + 10)
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
    """Monic characteristic polynomial coefficients [1, c_{d-1}, ..., c_0].

    Closed forms for d <= 3, Faddeev-LeVerrier over Q above that.
    """
    d = len(mat)
    if d == 0:
        return [Fraction(1)]
    if d == 1:
        return [Fraction(1), -Fraction(mat[0][0])]
    if d == 2:
        tr = mat[0][0] + mat[1][1]
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        return [Fraction(1), -tr, det]
    if d == 3:
        a, b, c = mat[0]
        e, f, g = mat[1]
        h, i, j = mat[2]
        tr = a + f + j
        m2 = (a * f - b * e) + (a * j - c * h) + (f * j - g * i)
        det = a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h)
        return [Fraction(1), -tr, m2, -det]
    # Faddeev-LeVerrier
    n = d
    coeffs = [Fraction(1)]
    M = [[Fraction(0)] * n for _ in range(n)]
    I = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for m in range(1, n + 1):
        # M = A (M + c_{m-1} I)
        prev = [[M[r][c] + coeffs[-1] * I[r][c] for c in range(n)] for r in range(n)]
        M = [
            [sum(mat[r][t] * prev[t][c] for t in range(n)) for c in range(n)]
            for r in range(n)
        ]
        cm = -sum(M[r][r] for r in range(n)) / m
        coeffs.append(cm)
    return coeffs


@dataclass
class Eigenform:
    """Hecke eigenform data: exact-precision coefficients at a(1)=1."""

    weight: int
    index: int
    t2_eigenvalue: object  # mpf
    a: list = field(repr=False)  # a[n], n = 0..horizon, mpf
    lam: list = field(repr=False)  # lam[n] = a[n]/n^{(k-1)/2}, mpf

    @property
    def horizon(self) -> int:
        return len(self.a) - 1

    @cached_property
    def lam_f64(self) -> np.ndarray:
        """lam[n] as float64, converted once per form (read-only)."""
        out = np.array([float(v) for v in self.lam])
        out.flags.writeable = False
        return out


def _polyroots_real(coeffs_fr, dps):
    # coeffs_fr: monic Fraction list, highest degree first
    with working_dps(dps):
        cs = [mpf(c.numerator) / mpf(c.denominator) for c in coeffs_fr]
        roots = mp.polyroots(cs, maxsteps=200, extraprec=80)
        out = []
        for r in roots:
            if abs(mp.im(r)) > mpf(10) ** (-dps // 2) * (1 + abs(r)):
                raise NonConvergenceError("nonreal Hecke root %s" % r)
            out.append(mp.re(r))
        return sorted(out)


def _eigvec_from_matrix(cmat_mpf, lam_val, d, dps):
    # solve C^T v = lam v with v_1 = 1; rows of (C^T - lam I)
    # give an overdetermined consistent system for v_2..v_d
    if d == 1:
        return [mpf(1)]
    with working_dps(dps):
        A = mp.matrix(d, d)
        for i in range(d):
            for j in range(d):
                A[i, j] = cmat_mpf[j][i] - (lam_val if i == j else 0)
        B = mp.matrix(d, d - 1)
        rhs = mp.matrix(d, 1)
        for r in range(d):
            for c in range(1, d):
                B[r, c - 1] = A[r, c]
            rhs[r] = -A[r, 0]
        sol = mp.qr_solve(B, rhs)[0]
        return [mpf(1)] + [sol[i] for i in range(d - 1)]


def eigenform_horizon(k: int) -> int:
    """Default q-expansion horizon of hecke_eigenforms at weight k."""
    return max(2000, 60 * k)


def hecke_eigenforms(k: int, horizon: int = None, dps: int = 60):
    """All normalized Hecke eigenforms of weight k, sorted by T_2 eigenvalue.

    Repeated T_2 eigenvalues fall back to T_2 + T_3 (simultaneous
    eigenbasis); a repeated spectrum there too raises.
    """
    d = cusp_dim(k)
    if d == 0:
        return []
    if horizon is None:
        horizon = eigenform_horizon(k)
    basis = miller_basis(k, horizon)
    cmat = hecke_matrix(k, 2, basis=basis)
    cp = charpoly(cmat)
    with working_dps(dps):
        roots = _polyroots_real(cp, dps)
        scale = 1 + max(abs(r) for r in roots)
        sep = min(
            (abs(roots[i + 1] - roots[i]) for i in range(len(roots) - 1)),
            default=mpf(1),
        )
        use = cmat
        vals = roots
        if sep < scale * mpf(10) ** (-dps // 3):
            # T_2 spectrum too close to call: separate with T_2 + T_3
            cmat3 = hecke_matrix(k, 3, basis=basis)
            use = [
                [cmat[i][j] + cmat3[i][j] for j in range(d)] for i in range(d)
            ]
            vals = _polyroots_real(charpoly(use), dps)
            scale = 1 + max(abs(r) for r in vals)
            sep = min(
                (abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)),
                default=mpf(1),
            )
            if sep < scale * mpf(10) ** (-dps // 3):
                raise NonConvergenceError(
                    "T_2 and T_2+T_3 spectra both degenerate at k=%d" % k
                )
        cmat_mpf = [
            [mpf(use[i][j].numerator) / mpf(use[i][j].denominator) for j in range(d)]
            for i in range(d)
        ]
        basis_mpf = [
            [mpf(c.numerator) / mpf(c.denominator) for c in row] for row in basis
        ]
        half = mpf(k - 1) / 2
        n_half = [mpf(1)] + [mpf(n) ** half for n in range(1, horizon + 1)]
        forms = []
        for idx, lam_val in enumerate(vals):
            v = _eigvec_from_matrix(cmat_mpf, lam_val, d, dps)
            a = [mpf(0)] * (horizon + 1)
            for n in range(1, horizon + 1):
                a[n] = sum(v[i] * basis_mpf[i][n] for i in range(d))
            lam_list = [mpf(0)] * (horizon + 1)
            for n in range(1, horizon + 1):
                lam_list[n] = a[n] / n_half[n]
            forms.append(
                Eigenform(
                    weight=k,
                    index=idx,
                    t2_eigenvalue=a[2],
                    a=a,
                    lam=lam_list,
                )
            )
        forms.sort(key=lambda f: f.t2_eigenvalue)
        for i, f in enumerate(forms):
            f.index = i
        return forms


def eval_cusp_form_f64(form: Eigenform, x, y):
    """f(x+iy) = sum lam(n) (4 pi n)^{(k-1)/2} Gamma(k)^{-1/2} e(n(x+iy)).

    Vectorized double precision over broadcastable x, y arrays; terms
    assembled in log space so large weights stay in range.  Truncation
    where exp(-2 pi n y_min) has decayed ~1e-18 under the peak term.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("evaluation requires y > 0")
    k = form.weight
    y_min = float(np.min(y))
    n_eval = max(24, int((k + 170.0) / (2 * np.pi * y_min)) + 1)
    if n_eval > form.horizon:
        raise ValueError(
            "horizon %d too small for y_min %.3g (need %d terms)"
            % (form.horizon, y_min, n_eval)
        )
    ns = np.arange(1, n_eval + 1, dtype=float)
    lam = form.lam_f64[1 : n_eval + 1]
    sign = np.where(lam >= 0, 1.0, -1.0)
    with np.errstate(divide="ignore"):
        log_abs_lam = np.where(lam != 0.0, np.log(np.abs(np.where(lam == 0, 1.0, lam))), -np.inf)
    log_c = log_abs_lam + 0.5 * (k - 1) * np.log(4 * np.pi * ns) - 0.5 * gammaln(k)
    # points in blocks: the (points, terms) temporaries stay a few MB, and
    # each point's sum over n is the same as in one pass
    x, y = np.broadcast_arrays(x, y)
    out = np.empty(x.shape, dtype=complex)
    xf, yf, of = x.reshape(-1), y.reshape(-1), out.reshape(-1)
    for i in range(0, of.size, EVAL_BLOCK):
        xx = xf[i : i + EVAL_BLOCK, None]
        yy = yf[i : i + EVAL_BLOCK, None]
        log_mag = log_c - 2 * np.pi * ns * yy
        phase = 2 * np.pi * ns * xx
        terms = sign * np.exp(log_mag) * (np.cos(phase) + 1j * np.sin(phase))
        of[i : i + EVAL_BLOCK] = terms.sum(axis=-1)
    return out
