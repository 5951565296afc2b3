"""Convolution L-functions: coefficients, theta profile, residues, AFE.

The modular theta relation Phi(1/t) = t Phi(t) + R t - R is the primary
oracle here: it holds only if the coefficients, the kernel, and the
residue all match the underlying eigenform, and it is checked at split
points not used to extract R.  The AFE is validated against the direct
Dirichlet sum deep in the convergence region (independent route).
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from mpmath import mp, mpf

from periodmoments import rankin_selberg
from periodmoments.cli import NORM_TOL, UNFOLD_TOL
from periodmoments.modforms import hecke_eigenforms, theta_cutoff
from periodmoments.moment import norm_quadrature, unfold_rows
from periodmoments.precision import PoleError, RangeError
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
    # the AFE table depends only on (k, sigma) and R only on the pair: a
    # cold pair and a warm one give the same value bit for bit
    f, g = k24_forms
    tables = rankin_selberg._afe_table
    tables.cache_clear()
    residues = []
    theta = RankinSelbergPair.residue_theta
    monkeypatch.setattr(RankinSelbergPair, "residue_theta",
                        lambda self, *a: residues.append(self) or theta(self, *a))
    cold = RankinSelbergPair(f, g)
    s_values = (0.5, 0.75, 0.25, 1.25)
    values = [cold.completed_l(s) for s in s_values]
    assert tables.cache_info()[:2] == (2, 2)  # s in (0, 1) share sigma = 1
    warm = RankinSelbergPair(f, g)
    assert [warm.completed_l(s) for s in s_values] == values
    assert tables.cache_info()[:2] == (6, 2)  # hits, misses
    assert residues == [cold, warm]
    diag = RankinSelbergPair(f)
    diag.norm_theta()
    diag.completed_l(0.5)
    assert residues == [cold, warm, diag]
    for a in tables(f.weight, 1):
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
    for n_max in (1, 40, theta_cutoff(f.weight, 1.0), f.horizon):
        c = pair.c_table(n_max)
        assert len(c) == n_max + 1 and np.shares_memory(c, full)
        for n in range(1, n_max + 1):
            want = 0.0
            for d in range(1, math.isqrt(n) + 1):
                if n % (d * d) == 0:
                    want += coeff[n // (d * d)]
            assert c[n] == want


def test_unfold_rows_evaluates_kve_on_the_nodes_once(monkeypatch):
    # the three s of unfold-check --k 40 read two AFE tables (sigma = 1 and
    # 2); every node table a doubling builds makes one kappa_log call, the
    # theta profile one per split point, and a warm run makes none
    forms = hecke_eigenforms(40)
    rankin_selberg._afe_table.cache_clear()
    rankin_selberg._theta_kernel.cache_clear()
    calls, rules = [], []
    real_kappa, real_rule = rankin_selberg.kappa_log, rankin_selberg._afe_rule

    def counted_rule(k, sigma, n):
        rules.append((k, sigma, n))
        return real_rule(k, sigma, n)

    monkeypatch.setattr(rankin_selberg, "kappa_log",
                        lambda k, x: calls.append(np.size(x)) or real_kappa(k, x))
    monkeypatch.setattr(rankin_selberg, "_afe_rule", counted_rule)
    rows = unfold_rows(forms, (0.5, 0.75, 1.25))
    assert len(rows) == len(forms) ** 2 * 3
    assert rankin_selberg._afe_table.cache_info().currsize == 2
    assert len(calls) == len(rules) + 2
    assert sorted({sigma for _, sigma, _ in rules}) == [1, 2]
    for sigma in (1, 2):
        # the kept table is the last and finest rule built for its sigma
        kept = rankin_selberg._afe_table(40, sigma)
        built = [n for _, sg, n in rules if sg == sigma]
        assert len(kept[0]) == built[-1] == 2 * built[-2]
    del calls[:], rules[:]
    assert unfold_rows(forms, (0.5, 0.75, 1.25)) == rows
    assert calls == rules == []


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


def test_completed_l_takes_real_s(delta_pair):
    # the AFE table covers the real line only: a complex s is a RangeError,
    # and a complex number with zero imaginary part is its real part
    with pytest.raises(RangeError, match="real s"):
        delta_pair.completed_l(0.5 + 3j)
    assert delta_pair.completed_l(0.5 + 0j) == delta_pair.completed_l(0.5)


@pytest.mark.parametrize("k", [12, 40])
def test_afe_matches_direct_sum_deep(k):
    # deep in Re s > 1 the Dirichlet sum to n = 2000 is exact in float64;
    # the AFE integral holds it to 1e-13 out to s = 91
    pair = RankinSelbergPair(hecke_eigenforms(k, horizon=2000)[0])
    for s in (11.0, 41.0, 71.0, 91.0):
        afe = pair.completed_l(s) / gamma_factor(k, s)
        direct = pair.l_direct(s).real
        assert abs(afe - direct) < 1e-13 * abs(direct), s


def _stand_ins(k):
    # forms of weight k for the kernel: at k = 196 the eigenforms take ~20 s
    # to build, so the two weight-24 eigen-systems, read at horizon
    # theta_cutoff(196, 1/2), stand in for them; the AFE reads only the
    # weight, the horizon and lam(n)
    if k < 196:
        return hecke_eigenforms(k)
    return [SimpleNamespace(weight=k, horizon=f.horizon, lam_f64=f.lam_f64)
            for f in hecke_eigenforms(24, horizon=theta_cutoff(k, 0.5))]


@pytest.mark.parametrize("k", [12, 40, 100, 196])
def test_afe_rule_doubled_moves_lambda_below_1e13(monkeypatch, k):
    # the kept rule is converged: twice its nodes moves Lambda(s) by at
    # most 1e-13 relative, on a diagonal and an off-diagonal pair.  The
    # off-diagonal stand-in at k = 196, no pair of eigenforms of that
    # weight, moves by 1.02e-13 at s = 1.1 and is held to 2e-13
    forms = _stand_ins(k)
    bound = 2e-13 if k == 196 else 1e-13
    pairs = [RankinSelbergPair(forms[0]), RankinSelbergPair(forms[0], forms[-1])]
    s_values = (0.5, 0.75, 1.1, 1.25, 11.0, 41.0, 71.0)
    kept = [[p.completed_l(s) for s in s_values] for p in pairs]
    table = rankin_selberg._afe_table
    monkeypatch.setattr(rankin_selberg, "_afe_table", lambda k, sigma: rankin_selberg._afe_rule(
        k, sigma, 2 * len(table(k, sigma)[0])))
    for p, values in zip(pairs, kept):
        for s, value in zip(s_values, values):
            doubled = p.completed_l(s)
            assert abs(value - doubled) <= bound * abs(doubled), (s, value, doubled)


def test_afe_finite_as_far_as_float64_reaches():
    # t^s Phi(t) is formed in log space, so Lambda(s) / Gamma(k) stays
    # finite up to the last integer s at which it is below 1.8e308
    for k, s in ((12, 153.0), (40, 145.0)):
        value = RankinSelbergPair(hecke_eigenforms(k)[0]).completed_l(s)
        assert math.isfinite(value) and value > 0, (k, s)


def test_afe_accurate_up_to_float64_overflow():
    # at that s the AFE holds the 30-digit gamma(s) times the Dirichlet sum
    # to 1e-13, and one step further Lambda(s) / Gamma(k) is past float64:
    # inf, not a finite wrong value
    for k, s in ((12, 153.0), (40, 145.0)):
        pair = RankinSelbergPair(hecke_eigenforms(k, horizon=2000)[0])
        want = gamma_factor(k, s) * pair.l_direct(s).real
        assert abs(pair.completed_l(s) - want) < 1e-13 * want, (k, s)
        with np.errstate(over="ignore"):
            assert pair.completed_l(s + 1) == math.inf, (k, s)
