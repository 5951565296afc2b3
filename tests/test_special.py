"""Special-function layer: archimedean gamma factors and K-Bessel evaluators.

Frozen reference values were produced by an independent oracle script
(mpmath.besselk / closed-form gamma identities) before the library code
under test was written.
"""

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from periodmoments import special, spectral
from periodmoments.precision import NonConvergenceError, PoleError
from periodmoments.special import (
    bessel_k,
    dirichlet_beta,
    gamma_r,
    kit_f64,
    lam,
    log_gamma_r_f64,
    upper_gamma_f64,
    upper_incomplete_gamma,
    zeta,
)

# Oracle: mpmath.besselk(0, 1), 30 digits, computed independently.
K0_AT_1 = "0.421024438240708333335627379213"
# Oracle: Re K_{i/2}(10) via mpmath.besselk(0.5j, 10).
K_HALF_I_AT_10 = "0.00001756910770414134783071906"


def test_gamma_r_value():
    with mp.workdps(30):
        # gamma_r(1) = pi^{-1/2} Gamma(1/2) = 1
        assert abs(gamma_r(1) - 1) < mpf("1e-28")
        # gamma_r(2) = pi^{-1} Gamma(1) = 1/pi
        assert abs(gamma_r(2) - 1 / mp.pi) < mpf("1e-28")


def test_gamma_r_duplication():
    # gamma_r(s) gamma_r(s+1) = 2 (2 pi)^{-s} Gamma(s), valid off poles.
    rng = np.random.default_rng(7)
    with mp.workdps(35):
        for _ in range(100):
            s = mpc(rng.uniform(0.1, 3.0), rng.uniform(-10.0, 10.0))
            lhs = gamma_r(s) * gamma_r(s + 1)
            rhs = 2 * (2 * mp.pi) ** (-s) * mp.gamma(s)
            assert abs(lhs - rhs) / abs(rhs) < mpf("1e-30")


def test_gamma_r_pole():
    with pytest.raises(PoleError):
        gamma_r(0)
    with pytest.raises(PoleError):
        gamma_r(-2)


def test_zeta_and_lambda_poles():
    with pytest.raises(PoleError):
        zeta(1)
    with pytest.raises(PoleError):
        lam(0)
    with pytest.raises(PoleError):
        lam(1)
    with mp.workdps(30):
        # lam(2) = pi/6: gamma_r(2) zeta(2) = (1/pi)(pi^2/6)
        assert abs(lam(2) - mp.pi / 6) < mpf("1e-28")


def test_lambda_at_trivial_zeros():
    # the gamma_r pole at w = -2, -4 meets a trivial zero of zeta: Lambda is
    # finite there and equals Lambda(1 - w), also as the limit of the product
    with mp.workdps(30):
        assert lam(-2) == lam(3)
        assert lam(-4) == lam(5)
        h = mpf("1e-25")
        for w in (-2, -4):
            near = gamma_r(w + h) * zeta(w + h)
            assert abs(lam(w) - near) < mpf("1e-20") * abs(lam(w))
        with pytest.raises(PoleError):
            lam(0)
        with pytest.raises(PoleError):
            lam(1)
        with pytest.raises(PoleError):
            gamma_r(-2)


def test_dirichlet_beta():
    with mp.workdps(30):
        assert abs(dirichlet_beta(1) - mp.pi / 4) < mpf("1e-27")
        assert abs(dirichlet_beta(2) - mp.catalan) < mpf("1e-27")
        # beta(3) = pi^3/32
        assert abs(dirichlet_beta(3) - mp.pi**3 / 32) < mpf("1e-27")


def test_bessel_k_frozen_values():
    with mp.workdps(30):
        v = bessel_k(0, 1)
        assert abs(v - mpf(K0_AT_1)) < mpf("1e-28")
        w = bessel_k(mpc(0, "0.5"), 10)
        # frozen literal carries 25 significant digits
        assert abs(w - mpf(K_HALF_I_AT_10)) < mpf("5e-30")


def test_bessel_k_against_mpmath_grid():
    # Independent algorithm cross-check: our cosh-transform quadrature vs
    # mpmath's hypergeometric/asymptotic besselk.
    with mp.workdps(30):
        for t in (mpf(0), mpf("0.3"), mpf(2), mpf(7)):
            for x in (mpf("0.05"), mpf("0.7"), mpf(3), mpf(25)):
                ours = bessel_k(mpc(0, t), x)
                ref = mp.besselk(mpc(0, t), x).real
                scale = max(abs(ref), mpf("1e-30"))
                assert abs(ours - ref) / scale < mpf("1e-25"), (t, x)


# bessel_k(i t, x) at 30 digits on the grid above, as the trapezoid that
# rebuilt every level from scratch returned it
BESSEL_K_REBUILT = {
    ("0", "0.05"): "3.114234029471989893914484981862",
    ("0", "0.7"): "0.66051985991510154874018161349851",
    ("0", "3"): "0.0347395043862792480723495513510888",
    ("0", "25"): "3.46416156221311435539853822297449e-12",
    ("0.3", "0.05"): "2.51376003956497514509698927180325",
    ("0.3", "0.7"): "0.632523011391177511522462114026119",
    ("0.3", "3"): "0.0342869267350946639929656313734926",
    ("0.3", "25"): "3.45805102831414935293589821602834e-12",
    ("2", "0.05"): "0.0720560794458693461602091947893755",
    ("2", "0.7"): "0.0596909941649312967148078165259089",
    ("2", "3"): "0.0191567283269773429616334616223012",
    ("2", "25"): "3.20261382762430937262370412148396e-12",
    ("7", "0.05"): "0.0000154739398833344548658907059130182",
    ("7", "0.7"): "0.0000129338543745197095094209309577617",
    ("7", "3"): "-0.0000164657825481470829016104433189851",
    ("7", "25"): "1.31710745799349384195360790111783e-12",
}


def test_bessel_k_nested_matches_rebuilt_levels():
    # the nested rule returns the values of the rebuilt one at working
    # precision
    with mp.workdps(30):
        for (t, x), ref in BESSEL_K_REBUILT.items():
            ours = bessel_k(mpc(0, t), mpf(x))
            assert abs(ours - mpf(ref)) <= 4 * mp.eps * abs(mpf(ref)), (t, x)


def test_bessel_k_evaluates_each_node_once(monkeypatch):
    # each level adds only its midpoints: no node is evaluated twice
    nodes = []
    real = special._k_integrand

    def recorded(x, nu, coefs, u, is_real):
        nodes.append(u)
        return real(x, nu, coefs, u, is_real)

    monkeypatch.setattr(special, "_k_integrand", recorded)
    with mp.workdps(30):
        assert abs(bessel_k(0, 1) - mpf(K0_AT_1)) < mpf("1e-28")
    assert len(nodes) > 100
    assert len(set(nodes)) == len(nodes)


def test_bessel_k_nonconvergence_carries_best_and_delta(monkeypatch):
    # an integrand that grows with every evaluation never settles
    calls = []

    def restless(x, nu, coefs, u, is_real):
        calls.append(u)
        return mpf(len(calls))

    monkeypatch.setattr(special, "_k_integrand", restless)
    with mp.workdps(20):
        with pytest.raises(NonConvergenceError) as exc:
            bessel_k(0, 1)
    err = exc.value
    assert err.best is not None and err.last_delta is not None
    assert err.last_delta > 0 and mp.isfinite(err.best)


def test_bessel_k_order_symmetry():
    with mp.workdps(30):
        a = bessel_k(mpc(0, "1.3"), mpf("0.9"))
        b = bessel_k(mpc(0, "-1.3"), mpf("0.9"))
        assert abs(a - b) < mpf("1e-28") * max(1, abs(a))


def test_bessel_k_underflow_flag():
    with mp.workdps(30):
        v, under = special._k_sum_ex(0, 800, (1,))
        # K_0(800) ~ 1.6e-349, below the smallest subnormal double.
        assert under is True
        assert v >= 0
        v2, under2 = special._k_sum_ex(0, 1, (1,))
        assert under2 is False
        assert abs(v2 - mpf(K0_AT_1)) < mpf("1e-28")


def test_bessel_k_domain():
    with pytest.raises(ValueError):
        bessel_k(0, -1)
    with pytest.raises(ValueError):
        bessel_k(0, 0)


def test_upper_incomplete_gamma():
    with mp.workdps(30):
        # Gamma(1/2, 2) = sqrt(pi) erfc(sqrt(2)); frozen from erfc oracle.
        ref = mpf("0.0806471179603176907886260730213")
        assert abs(upper_incomplete_gamma(mpf("0.5"), 2) - ref) < mpf("1e-28")
        # Gamma(1, x) = e^{-x}
        assert abs(upper_incomplete_gamma(1, mpf("3.7")) - mp.exp(-mpf("3.7"))) < mpf("1e-28")


def test_log_gamma_r_f64():
    # against mpmath at double precision
    for z in (0.8, 2.0, 3.5 + 2.0j, 0.5 - 7.0j):
        ours = log_gamma_r_f64(z)
        ref = complex(mp.log(mp.pi) * (-mp.mpmathify(z) / 2) + mp.loggamma(mp.mpmathify(z) / 2))
        assert abs(ours - ref) < 1e-12 * max(1.0, abs(ref))


def test_kit_f64_grid():
    # Vectorized double-precision K_{it}(x) vs mpmath, both x-branches.
    xs = np.array([0.03, 0.4, 1.0, 2.5, 8.0, 30.0])
    for t in (0.0, 0.05, 0.3, 2.0, 7.0):
        ours = kit_f64(t, xs)
        for j, x in enumerate(xs):
            ref = float(mp.besselk(mpc(0, t), mpf(x)).real)
            scale = max(abs(ref), 1e-280)
            assert abs(ours[j] - ref) / scale < 5e-12, (t, x)


def test_kit_f64_small_order_matches_mpmath():
    # Below x = 2 every nonzero normal order takes the ascending series,
    # whose 1/sinh(pi t) is exact down to the smallest normal t; t = 0 and
    # subnormal t take K_0.  x: every 16th point of the n=2 Stade log-grids
    # at s = 1/2 (down to 2.5e-30) and 3/2 below x = 2, their last points
    # below 2, and 1.99.
    xs = [1.99]
    for s in (0.5, 1.5):
        l = np.arange(-(32.0 / s + 6.0), spectral.STADE2_UPPER + spectral.STADE2_H / 2,
                      spectral.STADE2_H)
        x = 2 * np.pi * np.exp(l)
        x = x[x < 2]
        xs.extend(x[::16])
        xs.append(x[-1])
    xs = np.array(xs)
    assert xs.min() < 3e-30
    with mp.workdps(40):
        k0_ref = [mp.besselk(0, mpf(x)) for x in xs]
        # K_{it} = K_0 + O(t^2 log^2 x): below t = 1e-300 the two agree to
        # far more than 40 digits, and K_0 is the reference there (order it
        # costs mp.besselk half a second a point at such t, which raises
        # its precision through the cancellation in I_{-it} - I_{it})
        tiny = mpc(0, 2.3e-308)
        assert abs(mp.besselk(tiny, mpf(xs[0])) - k0_ref[0]) < mpf("1e-38") * k0_ref[0]
        for t in (0.0, 5e-324, 1e-320, 2.3e-308, 1e-12, 1e-6, 1e-3, 0.05, 0.0999, 0.1):
            if t < 1e-300:
                refs = [float(v) for v in k0_ref]
            else:
                refs = [float(mp.besselk(mpc(0, t), mpf(x)).real) for x in xs]
            for sign in (1, -1):
                ours = kit_f64(sign * t, xs)
                for x, got, ref in zip(xs, ours, refs):
                    assert abs(got - ref) / abs(ref) < 5e-12, (sign * t, x)
    assert np.array_equal(kit_f64(-0.0, xs), kit_f64(0.0, xs))


def test_upper_gamma_f64_negative_order():
    # Gamma(-3/2, x) via recurrence vs mpmath.
    for x in (0.3, 1.0, 4.0):
        ours = upper_gamma_f64(-1.5, x)
        ref = float(mp.gammainc(mpf("-1.5"), mpf(x)))
        assert abs(ours - ref) / abs(ref) < 1e-11


def test_precision_env_and_context():
    before = mp.dps
    with mp.workdps(55):
        assert mp.dps == 55
        inner = zeta(2)
        assert abs(inner - mp.pi**2 / 6) < mpf("1e-50")
    assert mp.dps == before
