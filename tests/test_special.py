"""Special-function layer: archimedean gamma factors and K-Bessel evaluators.

Frozen reference values were produced by an independent oracle script
(mpmath.besselk / closed-form gamma identities) before the library code
under test was written.
"""

import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp, mpc, mpf
from scipy.special import gammaincc, gammaln

from periodmoments import special, spectral
from periodmoments.precision import PoleError, RangeError
from periodmoments.special import (
    dirichlet_beta,
    gamma_r,
    kit_f64,
    kve_f64,
    lam,
    log_gamma_f64,
    log_gamma_r_f64,
    upper_gamma_f64,
    upper_incomplete_gamma,
    zeta,
)


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


# (leading shape of radial, of angular): the tensor grid, columns of
# constant x, flat points and one point
TERM_SUM_LAYOUTS = {
    "tensor": ((1, 200), (128, 1)),
    "columns": ((64, 48), (64, 1)),
    "flat": ((3072,), (3072,)),
    "point": ((), ()),
}


@pytest.mark.parametrize("angular_dtype", [float, complex])
@pytest.mark.parametrize("layout", sorted(TERM_SUM_LAYOUTS))
def test_term_sum_matches_explicit_sum(layout, angular_dtype):
    # one batched product over the term axis gives the broadcast shape
    # and the explicit sum of the (points, terms) product
    rad_shape, ang_shape = TERM_SUM_LAYOUTS[layout]
    n = 40
    rng = np.random.default_rng(17)
    radial = rng.standard_normal(rad_shape + (n,)) * np.exp(-0.5 * np.arange(n))
    phase = rng.uniform(0, 2 * np.pi, ang_shape + (n,))
    angular = np.cos(phase) if angular_dtype is float else np.exp(1j * phase)
    got = special._term_sum(radial, angular)
    want = (radial * angular).sum(-1)
    assert got.shape == np.broadcast_shapes(rad_shape, ang_shape) == want.shape
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_upper_gamma_f64_negative_order():
    # Gamma(-3/2, x) via recurrence vs mpmath.
    for x in (0.3, 1.0, 4.0):
        ours = upper_gamma_f64(-1.5, x)
        ref = float(mp.gammainc(mpf("-1.5"), mpf(x)))
        assert abs(ours - ref) / abs(ref) < 1e-11


def test_upper_gamma_f64_order_one_is_exp():
    # Gamma(1, x) = e^{-x}: the closed form agrees with the general
    # gammaincc route over the range the Epstein sums reach (x <= 42)
    x = np.geomspace(1e-6, 42.0, 20001)
    route = gammaincc(1.0, x) * math.exp(gammaln(1.0))
    got = upper_gamma_f64(1.0, x)
    assert np.max(np.abs(got - route) / route) <= 1e-14
    # a scalar x gives a 0-d result, as on the other orders
    assert float(upper_gamma_f64(1.0, 0.3)) == pytest.approx(math.exp(-0.3), rel=1e-15)


def test_upper_gamma_f64_order_one_allocates_one_array():
    # the e^{-x} branch fills its result in place: its peak is the result
    # array, not the temporary -x next to it
    x = np.linspace(1e-6, 42.0, 500_000)
    tracemalloc.start()
    try:
        upper_gamma_f64(1.0, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * x.nbytes


def test_precision_env_and_context():
    before = mp.dps
    with mp.workdps(55):
        assert mp.dps == 55
        inner = zeta(2)
        assert abs(inner - mp.pi**2 / 6) < mpf("1e-50")
    assert mp.dps == before


# Accuracy of the float64 kernels against mpmath at 30 digits.  Each bound
# sits a little above the largest error measured on the same points:
# real-order K 8.7e-16, order k - 1 3.3e-15, log Gamma 1.3e-15 (relative to
# max(1, |log Gamma|)), Gamma(a, x) 8.3e-15, the K_0 series 2.0e-15.


def _kve_ref(nu, x):
    with mp.workdps(30):
        return float(mp.besselk(nu, mpf(x)) * mp.exp(mpf(x)))


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.75, 1.3, 10.0])
def test_kve_f64_real_order_matches_mpmath(nu):
    # the batch's smallest x picks the node count: one batch per count
    x = np.geomspace(2.0, 700.0, 41)
    ref = np.array([_kve_ref(nu, v) for v in x])
    for lo in (2.0, 3.0, 5.0):
        part = x >= lo
        assert np.max(np.abs(kve_f64(nu, x[part]) - ref[part]) / ref[part]) <= 1.2e-15, lo
    # K_-nu = K_nu, and a shape comes back as given
    assert np.array_equal(kve_f64(-nu, x.reshape(41, 1)), kve_f64(nu, x).reshape(41, 1))


@pytest.mark.parametrize("k", [12, 40, 120, 170])
def test_kve_f64_order_k_minus_1_on_the_afe_nodes(k):
    # the AFE reads e^u K_{k-1}(u) at u >= 4 pi, up to the order the
    # theta/AFE range check admits (k <= 170)
    u = 4 * math.pi * np.sqrt(np.geomspace(1.0, 1500.0, 25))
    ref = np.array([_kve_ref(k - 1, v) for v in u])
    assert np.max(np.abs(kve_f64(k - 1, u) - ref) / ref) <= 5e-15


def test_kve_f64_range():
    # below x = 2 the Laguerre rule loses digits: RangeError, not a value
    with pytest.raises(RangeError, match="x >= 2"):
        kve_f64(0.25, np.array([1.99, 3.0]))


def test_log_gamma_f64_matches_mpmath():
    rng = np.random.default_rng(5)
    right = rng.uniform(0.01, 20, 300) + 1j * rng.uniform(-40, 40, 300)
    left = rng.uniform(-30, 0, 100) + 1j * rng.uniform(-5, 5, 100)
    for z in (right, left, np.array([0.25 + 0.5j, 1.0, 3.7, 0.5 - 7j, -3.7 + 2j, -0.5 + 1e-9j])):
        with mp.workdps(30):
            ref = np.array([complex(mp.loggamma(mpc(v.real, v.imag))) for v in z])
        scale = np.maximum(1.0, np.abs(ref))
        got = log_gamma_f64(z)  # the array path
        assert got.shape == z.shape
        assert np.max(np.abs(got - ref) / scale) <= 3e-15
        # the cmath path of calls with a few points
        for v, r, c in zip(z[:40], ref, scale):
            one = log_gamma_f64(v)
            assert one.shape == () and abs(one - r) / c <= 3e-15, v


def test_upper_gamma_f64_matches_mpmath():
    # every branch: the series below a + 1, the Gauss-Legendre panel up to
    # a + 8 and the continued fraction beyond
    x = np.concatenate([np.geomspace(1e-6, 42.0, 300), np.linspace(1.0, 10.0, 200)])
    for a in np.linspace(0.3, 2.5, 12):
        with mp.workdps(30):
            ref = np.array([float(mp.gammainc(mpf(a), mpf(v))) for v in x])
        assert np.max(np.abs(upper_gamma_f64(a, x) - ref) / ref) <= 1e-14, a
        # the continued fraction alone is at its floor (4.1e-16 measured),
        # two levels short of its depth it is not (4.4e-15)
        far = np.linspace(a + 8.0, 42.0, 60)
        with mp.workdps(30):
            ref = np.array([float(mp.gammainc(mpf(a), mpf(v))) for v in far])
        assert np.max(np.abs(upper_gamma_f64(a, far) - ref) / ref) <= 1e-15, a


@pytest.mark.parametrize("a", [-0.5, -0.75, -1.5, -2.25])
def test_upper_gamma_f64_walk_down(a):
    # a <= 0 climbs to a + m in (0, 1] and walks back down; each step can
    # cost a digit (measured at most 9.1e-13 at a = -2.25, x = 12)
    x = np.array([1e-6, 0.01, 0.3, 1.0, 4.0, 12.0])
    with mp.workdps(30):
        ref = np.array([float(mp.gammainc(mpf(a), mpf(v))) for v in x])
    assert np.max(np.abs(upper_gamma_f64(a, x) - ref) / np.abs(ref)) <= 2e-12


@pytest.mark.parametrize("a", [0.0, -1.0, -2.0])
def test_upper_gamma_f64_non_positive_integer_order_raises(a, recwarn):
    # the walk-down's last step would divide by a + m - 1 - j = 0
    with pytest.raises(RangeError, match="a = %r" % a):
        upper_gamma_f64(a, np.array([0.3, 1.0, 4.0]))
    assert [str(w.message) for w in recwarn] == []


def test_k0_series_matches_mpmath():
    # kit_f64's t = 0 branch below x = 2, down to the 2.5e-30 of the n = 2
    # Stade log-grid
    x = np.concatenate([np.geomspace(2.5e-30, 1.999, 60), [1.0, 1.5, 1.9999999]])
    with mp.workdps(30):
        ref = np.array([float(mp.besselk(0, mpf(v))) for v in x])
    assert np.max(np.abs(special._k0_series_f64(x) - ref) / ref) <= 4e-15
