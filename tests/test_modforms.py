"""Exact cusp-form layer: q-expansions, Miller basis, Hecke eigenforms.

Oracles:
  * Delta via the eta-product q prod (1-q^n)^24 computed here with the
    pentagonal number theorem and schoolbook convolution (independent of
    the module's E4/E6/Kronecker route).
  * k=24 T_2 characteristic polynomial frozen from an exact oracle run:
    x^2 - 1080 x - 20468736, eigenvalues 540 +- 12 sqrt(144169).
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from periodmoments import modforms
from periodmoments.modforms import (
    DEFAULT_WEIGHTS,
    Eigenform,
    charpoly,
    cusp_dim,
    delta_qexp,
    e4_qexp,
    e6_qexp,
    eigenform_horizon,
    eval_cusp_form_f64,
    hecke_eigenforms,
    hecke_matrix,
    miller_basis,
    poly_mul_trunc,
    theta_cutoff,
)
from periodmoments.precision import NonConvergenceError

TAU = [0, 1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920, 534612, -370944]


def eta24_oracle(n_terms):
    # q prod_{n>=1} (1-q^n)^24: pentagonal numbers + schoolbook convolution
    euler = [0] * (n_terms + 1)
    j = 0
    while j * (3 * j - 1) // 2 <= n_terms:
        for jj in (j, -j) if j else (0,):
            e = jj * (3 * jj - 1) // 2
            if e <= n_terms:
                euler[e] += (-1) ** (jj % 2)
        j += 1
    acc = [1] + [0] * n_terms
    for _ in range(24):
        out = [0] * (n_terms + 1)
        for i, c in enumerate(acc):
            if c == 0:
                continue
            for k2, d in enumerate(euler):
                if i + k2 > n_terms:
                    break
                out[i + k2] += c * d
        acc = out
    return [0] + acc[:n_terms]  # shift by q


def test_sigma_series_heads():
    assert e4_qexp(3) == [1, 240, 2160, 6720]
    assert e6_qexp(3) == [1, -504, -16632, -122976]


def schoolbook(a, b, n_terms):
    want = [0] * (n_terms + 1)
    for i, x in enumerate(a[: n_terms + 1]):
        for j, y in enumerate(b[: n_terms + 1 - i]):
            want[i + j] += x * y
    return want


def test_poly_mul_trunc_signed():
    a = [3, -2, 0, 7]
    b = [-1, 5, 4]
    assert poly_mul_trunc(a, b, 3) == schoolbook(a, b, 3)


def test_poly_mul_trunc_matches_schoolbook():
    # seeded signed inputs: zeros, inputs shorter than n_terms + 1, and
    # coefficients at 2^(8m) - 1 and 2^(8m) for the byte slot width m the
    # inputs without them would get
    rng = random.Random(20090101)
    for trial in range(200):
        n_terms = rng.randint(0, 24)
        la, lb = rng.randint(0, n_terms + 4), rng.randint(0, n_terms + 4)
        bits = rng.choice((1, 7, 8, 31, 64, 200))
        a = [rng.choice((0, rng.randint(-(2**bits), 2**bits))) for _ in range(la)]
        b = [rng.choice((0, rng.randint(-(2**bits), 2**bits))) for _ in range(lb)]
        assert poly_mul_trunc(a, b, n_terms) == schoolbook(a, b, n_terms)
        assert poly_mul_trunc(a, a, n_terms) == schoolbook(a, a, n_terms)
        if a and b:
            bound = max(map(abs, a)) * max(map(abs, b)) * (n_terms + 1) + 1
            m = modforms._slot_bytes(bound)
            for i, c in enumerate((2 ** (8 * m) - 1, 2 ** (8 * m), -(2 ** (8 * m)))):
                a2 = list(a)
                a2[rng.randrange(len(a2))] = c
                b2 = list(b)
                b2[rng.randrange(len(b2))] = -c if i else c
                assert poly_mul_trunc(a2, b2, n_terms) == schoolbook(a2, b2, n_terms)
    for n_terms in (0, 1, 5):
        assert poly_mul_trunc([], [1, 2], n_terms) == [0] * (n_terms + 1)
        assert poly_mul_trunc([0, 0], [5, -7, 9], n_terms) == [0] * (n_terms + 1)


def test_poly_mul_trunc_full_slot():
    # a = b = [c]*n makes coefficient n-1 of the product n c^2, the bound
    # the slot width is sized from; c at byte boundaries fills the slots
    for c in (1, 255, 256, 2**16 - 1, 2**16, 2**64 - 1, 2**64):
        for n_terms in (0, 3, 15, 16):
            a = [c] * (n_terms + 1)
            neg = [-c] * (n_terms + 1)
            assert poly_mul_trunc(a, a, n_terms)[-1] == (n_terms + 1) * c * c
            assert poly_mul_trunc(a, neg, n_terms) == schoolbook(a, neg, n_terms)
            assert poly_mul_trunc(neg, neg, n_terms) == schoolbook(neg, neg, n_terms)


def test_delta_matches_eta_product():
    n = 40
    assert delta_qexp(n) == eta24_oracle(n)


def test_tau_values():
    assert delta_qexp(12) == TAU


def test_dimensions():
    assert cusp_dim(11) == 0
    assert cusp_dim(2) == 0
    got = {k: cusp_dim(k) for k in DEFAULT_WEIGHTS}
    want = {12: 1, 16: 1, 18: 1, 20: 1, 22: 1, 24: 2, 26: 1, 28: 2, 30: 2,
            32: 2, 34: 2, 36: 3, 38: 2, 40: 3}
    assert got == want
    assert cusp_dim(14) == 0


def test_miller_basis_echelon_and_integral():
    for k in (24, 36):
        d = cusp_dim(k)
        basis = miller_basis(k, 30)
        assert len(basis) == d
        for i, g in enumerate(basis):
            assert g[0] == 0
            for j in range(1, d + 1):
                assert g[j] == (1 if j == i + 1 else 0)
            # Miller basis of level one is integral
            assert all(c.denominator == 1 for c in g)


def test_hecke_matrix_k24_frozen_charpoly():
    cp = charpoly(hecke_matrix(24, 2, miller_basis(24, 60)))
    assert cp == [1, -1080, -20468736]
    assert all(type(c) is int for c in cp)


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_charpoly_integer_cayley_hamilton():
    # p(A) = 0 exactly over Z, monic of degree d with c_{d-1} = -tr A; on a
    # simple spectrum (the T_2 matrices) the minimal polynomial is p itself
    rng = random.Random(11)
    mats = [[[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)] for d in range(1, 7)]
    for k in (48, 96):
        mats.append(hecke_matrix(k, 2, miller_basis(k, 2 * cusp_dim(k) + 10)))
    assert [len(m) for m in mats[-2:]] == [4, 8]
    for a in mats:
        d = len(a)
        cp = charpoly(a)
        assert len(cp) == d + 1 and cp[0] == 1
        assert all(type(c) is int for c in cp)
        assert cp[1] == -sum(a[i][i] for i in range(d))
        # Horner: p(A) = (...((A + c_{d-1}) A + c_{d-2}) A + ...) + c_0
        ev = [[0] * d for _ in range(d)]
        for c in cp:
            ev = _mat_mul(ev, a)
            for i in range(d):
                ev[i][i] += c
        assert ev == [[0] * d for _ in range(d)], d


def test_degenerate_t2_spectrum_raises(monkeypatch):
    # a double T_2 eigenvalue leaves no eigenvector to choose: no gap of the
    # root isolation changes sign, whether the double root is dyadic (540,
    # where p vanishes on the separator) or not (sqrt 2, where p > 0 around
    # it); an eigenvalue past Deligne's bound (2^13 at k = 24) is not
    # isolated either, though the other one is
    companion = [[0, 0, 0, -4], [1, 0, 0, 0], [0, 1, 0, 4], [0, 0, 1, 0]]
    assert charpoly(companion) == [1, 0, -4, 0, 4]  # (x^2 - 2)^2
    for mat in ([[540, 0], [0, 540]], companion, [[540, 0], [0, 1 << 20]]):
        monkeypatch.setattr(modforms, "hecke_matrix", lambda k, p, basis: mat)
        with pytest.raises(NonConvergenceError, match="T_2 spectrum degenerate at k=24"):
            hecke_eigenforms(24, horizon=60)


def test_t2_eigenvector_with_zero_first_entry_raises(monkeypatch):
    # the adjugate's first column vanishes at lam = 2 of diag(1, 2): the
    # eigenvector e_2 has a(1) = 0 and cannot be normalized
    monkeypatch.setattr(modforms, "hecke_matrix", lambda k, p, basis: [[1, 0], [0, 2]])
    with pytest.raises(NonConvergenceError, match="T_2 eigenvector at k=24 has first entry 0"):
        hecke_eigenforms(24, horizon=60)


def test_real_roots_brackets_known_roots():
    bits = 40
    # floor(x 2^bits) for the irrational roots +-sqrt 2 and 1/1000, 2/1000
    # (two roots 1e-3 apart) beside 5
    s = math.isqrt(2 << (2 * bits))
    assert modforms._real_roots([1, 0, -2], 4, bits) == [-s - 1, s]
    assert modforms._real_roots([10**6, -5003 * 10**3, 15002, -10], 8, bits) == [
        (1 << bits) // 1000, (2 << bits) // 1000, 5 << bits]
    # a dyadic root is hit exactly by a bisection point: (4x - 1)(x - 3)
    p = [4, -13, 3]
    roots = modforms._real_roots(p, 8, bits)
    assert roots == [1 << (bits - 2), 3 << bits]
    assert all(modforms._horner(p, r, bits) == 0 for r in roots)
    # a double root, a nonreal pair and a root outside the bound are not isolated
    assert modforms._real_roots([1, -2, 1], 4, bits) == []
    assert modforms._real_roots([1, 0, 1], 4, bits) == []
    assert modforms._real_roots([1, -5], 4, bits) == []


def test_k12_eigenform_is_delta():
    f = hecke_eigenforms(12, horizon=60)[0]
    with mp.workdps(50):
        for n in range(1, 13):
            assert abs(f.a[n] - TAU[n]) < mpf("1e-40")


def test_k24_eigenvalues_and_multiplicativity():
    forms = hecke_eigenforms(24, horizon=60)
    assert len(forms) == 2
    with mp.workdps(55):
        root = 12 * mp.sqrt(144169)
        assert abs(forms[0].a[2] - (540 - root)) < mpf("1e-45")
        assert abs(forms[1].a[2] - (540 + root)) < mpf("1e-45")
        for f in forms:
            # a(6) = a(2) a(3); a(4) = a(2)^2 - 2^{k-1}
            assert abs(f.a[6] - f.a[2] * f.a[3]) < mpf("1e-38")
            assert abs(f.a[4] - (f.a[2] ** 2 - 2**23)) < mpf("1e-38")


def test_deligne_bound_numeric():
    for k in (12, 24, 40):
        for f in hecke_eigenforms(k, horizon=60):
            for p in (2, 3, 5, 7, 11, 13):
                assert abs(f.lam[p]) <= 2.0 + 1e-30


def test_eigenforms_sorted_and_distinct():
    forms = hecke_eigenforms(36, horizon=60)
    vals = [f.a[2] for f in forms]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    assert [f.index for f in forms] == [0, 1, 2]


def test_eval_automorphy():
    # f(-1/z) = z^k f(z) exercises coefficients, normalization and the
    # log-space assembly end to end
    z = 0.31 + 0.87j
    w = -1 / z
    for k in (12, 24):
        for f in hecke_eigenforms(k, horizon=400):
            lhs = eval_cusp_form_f64(f, np.array([w.real]), np.array([w.imag]))[0]
            rhs = z**k * eval_cusp_form_f64(f, np.array([z.real]), np.array([z.imag]))[0]
            assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_eval_periodicity_and_domain():
    f = hecke_eigenforms(12, horizon=400)[0]
    a = eval_cusp_form_f64(f, np.array([0.2]), np.array([1.1]))[0]
    b = eval_cusp_form_f64(f, np.array([1.2]), np.array([1.1]))[0]
    assert abs(a - b) < 1e-15 * abs(a)
    with pytest.raises(ValueError):
        eval_cusp_form_f64(f, np.array([0.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        # horizon 400 cannot reach y ~ 1e-3
        eval_cusp_form_f64(f, np.array([0.0]), np.array([1e-3]))


def clear_miller_caches():
    modforms._miller_product.cache_clear()
    modforms._eisenstein_products.cache_clear()


def test_miller_products_match_schoolbook():
    n = 60
    delta, e4, e6 = delta_qexp(n), e4_qexp(n), e6_qexp(n)
    clear_miller_caches()
    # (1, 7, 1) and (2, 4, 1) take an E6 step onto an E4^3 chain
    for j, a, b in [(1, 0, 0), (1, 3, 0), (1, 0, 2), (1, 2, 3), (2, 1, 0), (3, 0, 1),
                    (1, 7, 1), (2, 4, 1)]:
        want = delta
        for factor, e in ((delta, j - 1), (e4, a), (e6, b)):
            for _ in range(e):
                want = schoolbook(want, factor, n)
        got = modforms._miller_product(j, a, b, n)
        assert type(got) is tuple and list(got) == want, (j, a, b)


def rational_echelon(k, n):
    # oracle: a different spanning set, Delta E4^a E6^b over every
    # 4a + 6b = k - 12, in Fraction Gauss-Jordan on columns 1..dim; the
    # reduced echelon form of S_k is unique, so it must give the same rows
    d = cusp_dim(k)
    rows = []
    for b in range((k - 12) // 6 + 1):
        rem = k - 12 - 6 * b
        if rem >= 0 and rem % 4 == 0:
            g = delta_qexp(n)
            for factor, e in ((e4_qexp(n), rem // 4), (e6_qexp(n), b)):
                for _ in range(e):
                    g = poly_mul_trunc(g, factor, n)
            rows.append([Fraction(c) for c in g])
    assert len(rows) == d
    for i in range(d):
        piv = next(r for r in range(i, d) if rows[r][i + 1] != 0)
        rows[i], rows[piv] = rows[piv], rows[i]
        rows[i] = [c / rows[i][i + 1] for c in rows[i]]
        for r in range(d):
            if r != i:
                rows[r] = [cr - rows[r][i + 1] * ci for cr, ci in zip(rows[r], rows[i])]
    return rows


def test_miller_basis_matches_rational_echelon():
    clear_miller_caches()
    for k in DEFAULT_WEIGHTS + (48, 60):
        basis = miller_basis(k, 80)
        assert all(type(c) is int for row in basis for c in row)
        assert basis == rational_echelon(k, 80), k


def test_eigenform_horizon_covers_every_reader():
    # the default horizon reaches every index production reads: the theta
    # profile at 1/t0 of residue_theta's split, the AFE and the Petersson
    # grid
    from periodmoments.moment import PeterssonEngine
    from periodmoments.rankin_selberg import RankinSelbergPair

    for k in DEFAULT_WEIGHTS + (128,):
        h = eigenform_horizon(k)
        eng = PeterssonEngine(k)
        assert h >= theta_cutoff(k, 1.0 / 2.0)
        assert h >= theta_cutoff(k, 1.0)  # the AFE table's largest cutoff
        assert h >= modforms._cusp_n_eval(k, eng.y_min)
        # the production readers themselves on a form of exactly that horizon
        form = Eigenform(weight=k, index=0, v=[0], rows=[[0] * (h + 1)])
        pair = RankinSelbergPair(form)
        assert pair.norm_theta() == 0.0
        assert pair.completed_l(0.5) == 0.0
        assert not np.any(eng.form_values(form))
    assert [eigenform_horizon(k) for k in (12, 40)] == [294, 412]
    # a split past THETA_SPLIT reads past the default horizon, and the
    # error names the fix
    pair = RankinSelbergPair(hecke_eigenforms(12)[0])
    with pytest.raises(ValueError, match="hecke_eigenforms"):
        pair.residue_consistency((1.6, 2.0, 3.0))


@pytest.mark.parametrize("k", [12, 24, 40])
def test_lam_independent_of_horizon(k):
    short = hecke_eigenforms(k)
    long = hecke_eigenforms(k, horizon=2000)
    for f, g in zip(short, long):
        assert f.horizon == eigenform_horizon(k) < g.horizon == 2000
        assert np.array_equal(f.lam_f64, g.lam_f64[: f.horizon + 1])


def test_miller_basis_independent_of_request_order():
    # each product is cached at the horizon that asks for it, so no
    # request reads or extends an entry that another horizon built
    requests = [(36, 40), (24, 90), (40, 150), (28, 150), (36, 220)]
    cold = {}
    for k, n in requests:
        clear_miller_caches()
        cold[k, n] = miller_basis(k, n)
    for order in (requests, requests[::-1], sorted(requests, key=lambda r: r[1])):
        clear_miller_caches()
        for k, n in order:
            assert miller_basis(k, n) == cold[k, n], (order, k, n)


@pytest.fixture
def counted_products(monkeypatch):
    # the horizon of every poly_mul_trunc call, from cold Miller caches
    calls = []
    real = modforms.poly_mul_trunc

    def counted(a, b, n_terms):
        calls.append(n_terms)
        return real(a, b, n_terms)

    clear_miller_caches()
    monkeypatch.setattr(modforms, "poly_mul_trunc", counted)
    yield calls
    clear_miller_caches()


def test_miller_products_built_once_at_one_horizon(counted_products):
    # count guard, no timing: every default weight at the horizon of the
    # largest, as a cli run builds them; in ascending and in descending
    # order the weights share their products, each built once at that horizon
    h = eigenform_horizon(max(DEFAULT_WEIGHTS))
    for weights in (sorted(DEFAULT_WEIGHTS), sorted(DEFAULT_WEIGHTS, reverse=True)):
        clear_miller_caches()
        del counted_products[:]
        for k in weights:
            assert len(miller_basis(k, h)) == cusp_dim(k)
        assert len(counted_products) <= 26
        assert set(counted_products) == {h}


@pytest.mark.parametrize("weights, products", [((40,), 11), ((100,), 46),
                                               (range(52, 61, 2), 45)])
def test_miller_products_cold_count(counted_products, weights, products):
    # from cold caches at the horizon of the largest weight.  One weight:
    # three products for E4^3 and Delta, then one per entry (17 and 102
    # with one E4 factor per entry).  Weights 52..60 alternate b = 0 and 1,
    # and with the E6 step first they share one E4^3 chain per residue of
    # a mod 3: 45, as with one E4 factor per entry (57 with E4^3 steps
    # before the E6 step)
    h = eigenform_horizon(max(weights))
    for k in weights:
        miller_basis(k, h)
    assert len(counted_products) == products


def test_miller_products_at_the_requested_horizon(counted_products):
    # a long request builds nothing that a later, shorter one reads: the
    # shorter one makes exactly its cold products, at its own horizon
    h = eigenform_horizon(16)
    cold = miller_basis(16, h)
    n_cold = len(counted_products)
    clear_miller_caches()
    miller_basis(12, 2000)  # what hecke_eigenforms(12, horizon=2000) asks
    del counted_products[:]
    assert miller_basis(16, h) == cold
    assert len(counted_products) == n_cold and set(counted_products) == {h}


def test_lam_f64_is_float_of_lam():
    # two routes to lam(n): the exact integer expansion rounded once, and
    # the HECKE_DPS-digit oracle; they agree bit for bit at every n of
    # every form at its default horizon
    for k in DEFAULT_WEIGHTS + (60, 96):
        forms = hecke_eigenforms(k)
        assert any(np.any(f.lam_f64 < 0) for f in forms), k
        for f in forms:
            lam = f.lam_f64
            assert lam is f.lam_f64  # converted once
            assert lam.dtype == np.float64 and not lam.flags.writeable
            assert lam[1] == 1.0
            assert lam.tolist() == [float(v) for v in f.lam], (k, f.index)


def _primes(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]


@pytest.mark.parametrize("k", [132, 144, 176, 196])
def test_hecke_basis_at_dimension_11_and_up(k):
    # d = 11..16: the exact T_2 eigen-solve gives the whole basis, each
    # T_2 eigenvalue a(2) a root of the exact characteristic polynomial
    forms = hecke_eigenforms(k, horizon=60)
    d = cusp_dim(k)
    assert d >= 11 and len(forms) == d
    cp = charpoly(hecke_matrix(k, 2, forms[0].rows))
    with mp.workdps(modforms.HECKE_DPS):
        a2 = [f.a[2] for f in forms]
        assert all(type(x) is int for f in forms for x in f.v)  # real, exact
        assert all(x < y for x, y in zip(a2, a2[1:]))  # sorted and distinct
        for x in a2:
            terms = [c * x ** (d - i) for i, c in enumerate(cp)]
            assert abs(mp.fsum(terms)) <= mpf("1e-50") * mp.fsum(abs(t) for t in terms)
    for f in forms:
        lam = f.lam_f64
        for m in range(2, 61):
            for n in range(m + 1, 60 // m + 1):
                if math.gcd(m, n) == 1:
                    assert abs(lam[m * n] - lam[m] * lam[n]) <= 1e-14, (k, f.index, m, n)
        for p in _primes(60):
            assert abs(lam[p]) <= 2.0, (k, f.index, p)
            if p * p <= 60:
                assert abs(lam[p * p] - (lam[p] ** 2 - 1)) <= 1e-14, (k, f.index, p)
        assert lam.tolist() == [float(v) for v in f.lam], (k, f.index)


def test_miller_basis_guards():
    with pytest.raises(ValueError):
        miller_basis(24, 5)
    assert miller_basis(14, 30) == []


def test_lam_f64_stable_at_twice_the_bits(monkeypatch):
    # doubling the fractional bits of the eigenvalues and eigenvectors
    # moves no rounding of lam_f64, at the default weights and horizons and
    # at dimensions 8 to 16 (horizon 60)
    cases = [(k, None) for k in DEFAULT_WEIGHTS] + [(k, 60) for k in (100, 172, 196)]
    base = [[f.lam_f64 for f in hecke_eigenforms(k, h)] for k, h in cases]
    monkeypatch.setattr(modforms, "HECKE_BITS", 2 * modforms.HECKE_BITS)
    for (k, h), lams in zip(cases, base):
        forms = hecke_eigenforms(k, h)
        assert forms[0].v[0] == 1 << modforms.HECKE_BITS
        assert [f.lam_f64.tobytes() for f in forms] == [x.tobytes() for x in lams], k
