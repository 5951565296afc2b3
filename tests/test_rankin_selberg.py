"""Convolution L-functions: coefficients, theta profile, residues, AFE.

The modular theta relation Phi(1/t) = t Phi(t) + R t - R is the primary
oracle here: it holds only if the coefficients, the kernel, and the
residue all match the underlying eigenform, and it is checked at split
points not used to extract R.  The AFE is validated against the direct
Dirichlet sum deep in the convergence region (independent route).
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

from periodmoments import rankin_selberg, special
from periodmoments.cli import NORM_TOL, UNFOLD_TOL
from periodmoments.modforms import afe_cutoff, hecke_eigenforms, theta_cutoff
from periodmoments.moment import norm_quadrature, unfold_rows
from periodmoments.precision import PoleError
from periodmoments.rankin_selberg import RankinSelbergPair, kappa_log


@pytest.fixture(scope="module")
def delta_pair():
    return RankinSelbergPair(hecke_eigenforms(12)[0])


@pytest.fixture(scope="module")
def delta_pair_2000():
    # past the default horizon: splits beyond residue_theta's default and
    # direct sums deep in Re s > 1 read further than production does
    return RankinSelbergPair(hecke_eigenforms(12, horizon=2000)[0])


@pytest.fixture(scope="module")
def k24_forms():
    return hecke_eigenforms(24)


def test_coefficients_delta(delta_pair):
    c = delta_pair.c_table(6)
    assert abs(c[2] - 576.0 / 2**11) < 1e-14
    lam = delta_pair.f.lam
    l2, l3 = float(lam[2]), float(lam[3])
    assert abs(c[6] - (l2 * l3) ** 2) < 1e-14
    # c(4) = lam(4)^2 + 1 with lam(4) = lam(2)^2 - 1
    assert abs(c[4] - ((l2**2 - 1.0) ** 2 + 1.0)) < 1e-13


def test_coefficient_identity_k24(k24_forms):
    f0, f1 = k24_forms
    pair = RankinSelbergPair(f0, f1)
    c = pair.c_table(4)
    l2a, l2b = float(f0.lam[2]), float(f1.lam[2])
    want4 = (l2a**2 - 1.0) * (l2b**2 - 1.0) + 1.0
    assert abs(c[4] - want4) < 1e-12


def test_kappa_log_against_mp():
    with mp.workdps(30):
        for k, x in ((12, 0.7), (40, 2.3)):
            ref = mp.log(
                2 * (4 * mp.pi**2 * mpf(x)) ** (mpf(k - 1) / 2)
                * mp.besselk(k - 1, 4 * mp.pi * mp.sqrt(mpf(x)))
            )
            got = float(kappa_log(k, x))
            assert abs(got - float(ref)) < 1e-11 * max(1.0, abs(float(ref)))


def gamma_factor(k, s):
    """gamma(s) / Gamma(k) = (2 pi)^{-2s} Gamma(s+k-1) Gamma(s) / Gamma(k) at
    30 digits, for real s: completed_l(s) / gamma_factor(k, s) is L(s)."""
    with mp.workdps(30):
        s = mpf(s)
        return float((2 * mp.pi) ** (-2 * s) * mp.gamma(s + k - 1) * mp.gamma(s)
                     / mp.gamma(k))


def test_theta_relation_unused_splits(delta_pair_2000):
    pair = delta_pair_2000
    R = pair.residue_theta(2.0)
    for t0 in (1.3, 1.7, 2.6, 4.0):
        resid = (
            pair.theta_profile(1.0 / t0)
            - t0 * pair.theta_profile(t0)
            - R * t0
            + R
        )
        # R and Phi come divided by Gamma(12): so does the floor
        assert abs(resid) < 1e-12 * (abs(R) + 1.0 / math.gamma(12)), t0


def test_residue_split_independence(delta_pair_2000):
    R = delta_pair_2000.residue_theta(2.0)
    assert delta_pair_2000.residue_consistency((1.6, 2.0, 3.0)) < 1e-12 * abs(R)


def test_afe_matches_direct_sum(delta_pair_2000):
    afe = delta_pair_2000.completed_l(4.0).real / gamma_factor(12, 4.0)
    direct = delta_pair_2000.l_direct(4.0).real
    assert abs(afe - direct) < 1e-9 * abs(direct)


def test_afe_matches_direct_sum_k40():
    pair = RankinSelbergPair(hecke_eigenforms(40, horizon=2000)[0])
    afe = pair.completed_l(4.0).real / gamma_factor(40, 4.0)
    direct = pair.l_direct(4.0).real
    assert abs(afe - direct) < 1e-9 * abs(direct)


def test_pole_behavior(delta_pair):
    R = delta_pair.residue_theta()
    h = 1e-6
    approx = h * delta_pair.completed_l(1.0 + h).real
    assert abs(approx - R) < 1e-4 * abs(R)
    with pytest.raises(PoleError):
        delta_pair.completed_l(1.0)
    with pytest.raises(PoleError):
        delta_pair.completed_l(0.0)


def test_central_value_real_with_positive_symmetric_part(delta_pair):
    v = delta_pair.completed_l(0.5)
    assert v.imag == 0.0
    # L(s) = zeta(s) * (symmetric-square factor); zeta(1/2) < 0 and the
    # second factor is positive at the center for these forms
    with mp.workdps(20):
        zeta_half = float(mp.zeta(mpf("0.5")))
    assert v.real / gamma_factor(12, 0.5) / zeta_half > 0


def test_orthogonality_residue_vanishes(k24_forms):
    f0, f1 = k24_forms
    off = RankinSelbergPair(f0, f1).residue_theta()
    diag = RankinSelbergPair(f0).residue_theta()
    assert abs(off) < 1e-10 * abs(diag)


def test_norm_theta_positive(delta_pair):
    n = delta_pair.norm_theta()
    R = delta_pair.residue_theta()
    assert n > 0
    assert abs(n - 2.0 * R) < 1e-15 * n


def test_guards(delta_pair, k24_forms):
    with pytest.raises(ValueError):
        RankinSelbergPair(delta_pair.f, k24_forms[0])  # weight mismatch
    with pytest.raises(ValueError):
        delta_pair.theta_profile(0.0)
    with pytest.raises(ValueError):
        delta_pair.residue_theta(1.0)
    with pytest.raises(ValueError):
        delta_pair.c_table(10**7)


def test_mellin_tables_and_residue_built_once(monkeypatch, k24_forms):
    # the suffix table depends only on (k, w, n) and R only on the pair:
    # a cold pair and a warm one give the same value bit for bit
    f, g = k24_forms
    tables = rankin_selberg._mellin_suffix_table
    tables.cache_clear()
    residues = []
    theta = RankinSelbergPair.residue_theta
    monkeypatch.setattr(RankinSelbergPair, "residue_theta",
                        lambda self, *a: residues.append(self) or theta(self, *a))
    cold = RankinSelbergPair(f, g)
    values = [cold.completed_l(s) for s in (0.5, 0.75, 0.25)]
    assert tables.cache_info()[:2] == (3, 3)  # w = s and 1 - s share a table at 1/2
    warm = RankinSelbergPair(f, g)
    assert [warm.completed_l(s) for s in (0.5, 0.75, 0.25)] == values
    assert tables.cache_info()[:2] == (9, 3)  # hits, misses
    assert residues == [cold, warm]
    diag = RankinSelbergPair(f)
    diag.norm_theta()
    diag.completed_l(0.5)
    assert residues == [cold, warm, diag]
    for a in tables(f.weight, 0.5 + 0j, afe_cutoff(f.weight)):
        assert not a.flags.writeable


def test_theta_kernel_once_per_weight_and_split(monkeypatch, k24_forms):
    # kappa(n t) / Gamma(k) depends on (k, t) alone: three pairs of one
    # weight, each reading t = 1/2 and 2, evaluate kappa_log twice, and
    # every profile equals the per-pair sum from scratch bit for bit
    k = 24
    rankin_selberg._theta_kernel.cache_clear()
    calls = []
    real = rankin_selberg.kappa_log
    monkeypatch.setattr(rankin_selberg, "kappa_log",
                        lambda k, x: calls.append(k) or real(k, x))
    f, g = k24_forms
    pairs = [RankinSelbergPair(f), RankinSelbergPair(g), RankinSelbergPair(f, g)]
    for pair in pairs:
        pair.residue_theta()
    assert calls == [k, k]
    for t in (0.5, 2.0):
        assert not rankin_selberg._theta_kernel(k, t).flags.writeable
        ns = np.arange(1, theta_cutoff(k, t) + 1, dtype=float)
        for pair in pairs:
            c = pair.c_table(len(ns))
            want = float(np.sum(c[1:] * np.exp(real(k, ns * t) - math.lgamma(k))))
            assert pair.theta_profile(t) == want
    assert len(calls) == 2


def test_c_table_is_a_prefix_of_the_horizon_table(k24_forms):
    # c(n) = sum over d^2 | n of lam_f lam_g(n / d^2), added in increasing
    # d: every prefix is the table built to its own end, bit for bit
    f, g = k24_forms
    pair = RankinSelbergPair(f, g)
    coeff = f.lam_f64 * g.lam_f64
    full = pair.c_table(f.horizon)
    assert not full.flags.writeable
    for n_max in (1, 40, afe_cutoff(f.weight), f.horizon):
        c = pair.c_table(n_max)
        assert len(c) == n_max + 1 and np.shares_memory(c, full)
        for n in range(1, n_max + 1):
            want = 0.0
            for d in range(1, math.isqrt(n) + 1):
                if n % (d * d) == 0:
                    want += coeff[n // (d * d)]
            assert c[n] == want


def mellin_table_from_scratch(k, w, n_max):
    # oracle: the suffix table with the production K routine evaluated on
    # the nodes for this w alone, written out in full (w complex, as the
    # table's cache key takes it)
    exponent = k + 2 * complex(w) - 2
    breaks = 4 * math.pi * np.sqrt(np.arange(1, n_max + 240 + 2, dtype=float))
    lo = breaks[:-1]
    hi = breaks[1:]
    mid = (hi + lo) / 2
    half = (hi - lo) / 2
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(12)
    u = mid[:, None] + half[:, None] * gl_nodes[None, :]
    log_l = exponent * np.log(u) + np.log(special.kve_f64(k - 1, u)) - u
    shift = np.max(log_l.real, axis=1)
    panel = np.sum(np.exp(log_l - shift[:, None]) * gl_weights[None, :], axis=1) * half
    peak = shift.max()
    last = len(panel)
    for j in range(n_max, len(panel)):
        if shift[j] < peak - 60.0 - math.log1p(abs(panel[j])):
            last = j + 1
            break
    out_shift = np.empty(n_max)
    out_val = np.empty(n_max, dtype=complex)
    run_m = -np.inf
    run_s = 0.0 + 0.0j
    for j in range(last - 1, -1, -1):
        if shift[j] > run_m:
            run_s = run_s * math.exp(run_m - shift[j]) + panel[j]
            run_m = shift[j]
        else:
            run_s = run_s + panel[j] * math.exp(shift[j] - run_m)
        if j < n_max:
            out_shift[j] = run_m
            out_val[j] = run_s
    return out_shift, out_val


@pytest.mark.parametrize("k", [12, 40])
def test_mellin_tables_from_shared_nodes_match_from_scratch(k):
    # every w of a weight reads one node table; each table equals, bit for
    # bit, the one built with kve_f64 evaluated for that w alone
    n = afe_cutoff(k)
    rankin_selberg._mellin_suffix_table.cache_clear()
    rankin_selberg._bessel_nodes.cache_clear()
    for w in (0.5, 0.75, 1.1, -0.1, 0.5 + 3j):
        got = rankin_selberg._mellin_suffix_table(k, w, n)
        want = mellin_table_from_scratch(k, w, n)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), (k, w)
    assert rankin_selberg._bessel_nodes.cache_info()[:2] == (4, 1)  # hits, misses
    for a in rankin_selberg._bessel_nodes(k, n):
        assert not a.flags.writeable


def test_unfold_rows_evaluates_kve_on_the_nodes_once(monkeypatch):
    # five w (s and 1 - s at three s) share one node table: kve_f64 runs on
    # the (panels, 12) node grid once; the theta profile's kve_f64 is 1-d
    forms = hecke_eigenforms(40)
    rankin_selberg._mellin_suffix_table.cache_clear()
    rankin_selberg._bessel_nodes.cache_clear()
    grids = []
    real = rankin_selberg.kve_f64

    def counted(v, u):
        if np.ndim(u) == 2:
            grids.append(np.shape(u))
        return real(v, u)

    monkeypatch.setattr(rankin_selberg, "kve_f64", counted)
    rows = unfold_rows(forms, (0.5, 0.75, 1.25))
    assert len(rows) == len(forms) ** 2 * 3
    assert rankin_selberg._mellin_suffix_table.cache_info().currsize == 5
    assert grids == [(afe_cutoff(40) + 240, 12)]


def test_theta_and_afe_past_k170_stay_in_float64(recwarn):
    # in units of Gamma(k) no term of the theta profile or the AFE leaves
    # float64 at any weight the Petersson engine takes; at k = 172 their
    # unnormalized terms reach Gamma(171) ~ e^706.6, within e^3.2 of the
    # largest float64, and their sums may leave it
    forms = hecke_eigenforms(172)
    f = forms[0]
    nq = norm_quadrature(f)
    nt = RankinSelbergPair(f).norm_theta()
    assert 0 < nt < math.inf and abs(nq - nt) < NORM_TOL * nt
    (row,) = unfold_rows(forms[:1], [0.5])
    assert math.isfinite(row["afe"]) and row["rel_err"] < UNFOLD_TOL
    assert [str(w.message) for w in recwarn] == []


def test_mellin_table_key_is_complex(k24_forms):
    # Python hashes w = 0.5 and 0.5 + 0j as one key, and a table built in
    # real arithmetic differs in its last bits: a first caller that passes
    # a real 0.5 must not decide which bits completed_l reads
    f, g = k24_forms
    n = afe_cutoff(f.weight)
    rankin_selberg._mellin_suffix_table.cache_clear()
    cold = RankinSelbergPair(f, g).completed_l(0.5)
    rankin_selberg._mellin_suffix_table.cache_clear()
    first = rankin_selberg._mellin_suffix_table(f.weight, 0.5, n)
    for a, b in zip(first, mellin_table_from_scratch(f.weight, 0.5 + 0j, n)):
        assert a.tobytes() == b.tobytes()
    warm = RankinSelbergPair(f, g).completed_l(0.5)
    assert rankin_selberg._mellin_suffix_table.cache_info()[:2] == (2, 1)  # hits, misses
    assert np.array(warm).tobytes() == np.array(cold).tobytes()
