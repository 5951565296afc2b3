"""Exact cusp-form layer: q-expansions, Miller basis, Hecke eigenforms.

Oracles:
  * Delta via the eta-product q prod (1-q^n)^24 computed here with the
    pentagonal number theorem and schoolbook convolution (independent of
    the module's E4/E6/Kronecker route).
  * k=24 T_2 characteristic polynomial frozen from an exact oracle run:
    x^2 - 1080 x - 20468736, eigenvalues 540 +- 12 sqrt(144169).
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from periodmoments import modforms
from periodmoments.modforms import (
    DEFAULT_WEIGHTS,
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
)
from periodmoments.precision import working_dps

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
    cp = charpoly(hecke_matrix(24, 2))
    assert cp == [Fraction(1), Fraction(-1080), Fraction(-20468736)]


def test_charpoly_faddeev_matches_closed_form():
    # random rational 3x3: closed-form path vs Faddeev-LeVerrier on a
    # padded 4x4 block-diagonal (forces the generic branch)
    rng = np.random.default_rng(5)
    m3 = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(3)]
          for _ in range(3)]
    closed = charpoly(m3)
    m4 = [[m3[r][c] if r < 3 and c < 3 else Fraction(0) for c in range(4)] for r in range(4)]
    m4[3][3] = Fraction(2)
    generic = charpoly(m4)
    # divide generic by (x - 2): synthetic division
    quo = []
    rem = Fraction(0)
    for c in generic:
        rem = rem * 2 + c
        quo.append(rem)
    assert quo[-1] == 0  # x=2 is a root
    assert quo[:-1] == closed


def test_k12_eigenform_is_delta():
    f = hecke_eigenforms(12, horizon=60)[0]
    with working_dps(50):
        for n in range(1, 13):
            assert abs(f.a[n] - TAU[n]) < mpf("1e-40")


def test_k24_eigenvalues_and_multiplicativity():
    forms = hecke_eigenforms(24, horizon=60)
    assert len(forms) == 2
    with working_dps(55):
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
    vals = [f.t2_eigenvalue for f in forms]
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


def test_eval_blocks_match_one_pass(monkeypatch):
    # blocks over points must not change any value, shape or broadcast
    f = hecke_eigenforms(24, horizon=400)[1]
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, (3, 2 * modforms.EVAL_BLOCK + 17))
    y = rng.uniform(0.9, 6.0, (1, x.shape[1]))
    blocked = eval_cusp_form_f64(f, x, y)
    monkeypatch.setattr(modforms, "EVAL_BLOCK", x.size)
    one_pass = eval_cusp_form_f64(f, x, y)
    assert blocked.shape == x.shape
    assert np.array_equal(blocked, one_pass)


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


def test_miller_products_match_schoolbook():
    n = 60
    e4, e6 = e4_qexp(n), e6_qexp(n)
    modforms._MILLER_PRODUCTS.clear()
    for a, b in [(0, 0), (3, 0), (0, 2), (2, 3)]:
        want = delta_qexp(n)
        for factor, e in ((e4, a), (e6, b)):
            for _ in range(e):
                want = schoolbook(want, factor, n)
        assert modforms._MILLER_PRODUCTS.get(a, b, n) == want


def test_miller_basis_independent_of_request_order():
    # the shared product table holds one horizon; smaller ones slice it
    requests = [(36, 40), (24, 90), (40, 150), (28, 150), (36, 220)]
    cold = {}
    for k, n in requests:
        modforms._MILLER_PRODUCTS.clear()
        cold[k, n] = miller_basis(k, n)
    for order in (requests, requests[::-1], sorted(requests, key=lambda r: r[1])):
        modforms._MILLER_PRODUCTS.clear()
        for k, n in order:
            assert miller_basis(k, n) == cold[k, n], (order, k, n)


def test_miller_products_built_once_largest_first(monkeypatch):
    # count guard, no timing: every default weight at its eigenform
    # horizon, largest first, from a cold table
    calls = []
    real = modforms.poly_mul_trunc

    def counted(a, b, n_terms):
        calls.append(n_terms)
        return real(a, b, n_terms)

    monkeypatch.setattr(modforms, "poly_mul_trunc", counted)
    modforms._MILLER_PRODUCTS.clear()
    for k in sorted(DEFAULT_WEIGHTS, reverse=True):
        assert len(miller_basis(k, eigenform_horizon(k))) == cusp_dim(k)
    assert len(calls) <= 30
    assert set(calls) == {eigenform_horizon(max(DEFAULT_WEIGHTS))}


def test_lam_f64_is_float_of_lam():
    f = hecke_eigenforms(24, horizon=60)[1]
    lam = f.lam_f64
    assert lam is f.lam_f64  # converted once
    assert lam.dtype == np.float64 and not lam.flags.writeable
    assert lam.tolist() == [float(v) for v in f.lam]


def test_miller_basis_guards():
    with pytest.raises(ValueError):
        miller_basis(24, 5)
    assert miller_basis(14, 30) == []
