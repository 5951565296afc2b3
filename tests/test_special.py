"""Special-function layer: archimedean gamma factors and K-Bessel evaluators.

Frozen reference values were produced by an independent oracle script
(mpmath.besselk / closed-form gamma identities) before the library code
under test was written.
"""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from scipy.special import gammaincc, gammaln

from periodmoments import special
from periodmoments.precision import PoleError, RangeError
from periodmoments.special import (
    dirichlet_beta,
    gamma_r,
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
    for x in (0, -1, mpc(1, 1)):
        with pytest.raises(RangeError, match="real x > 0"):
            upper_incomplete_gamma(mpf("0.5"), x)


def _mod_2pi_error(got, ref):
    """|got - ref| with the imaginary part taken modulo 2 pi: the real
    parts and the phases of exp(got) and exp(ref) compared."""
    d = np.asarray(got - ref)
    phase = np.remainder(d.imag + math.pi, 2 * math.pi) - math.pi
    return np.hypot(d.real, phase)


def test_log_gamma_r_f64():
    # against mpmath at double precision, modulo 2 pi i
    for z in (0.8, 2.0, 3.5 + 2.0j, 0.5 - 7.0j, 9.0j):
        ours = log_gamma_r_f64(z)
        ref = complex(mp.log(mp.pi) * (-mp.mpmathify(z) / 2) + mp.loggamma(mp.mpmathify(z) / 2))
        assert _mod_2pi_error(ours, ref) < 1e-12 * max(1.0, abs(ref))


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


# Accuracy of the float64 kernels against mpmath at 30 digits (150 at the
# fractional orders above 100).  Each bound sits a little above the largest
# error measured on the same points: real-order K 8.7e-16, order k - 1
# 3.3e-15, fractional orders 158.3 and 168.3 2.5e-15, log Gamma 1.3e-15
# (relative to max(1, |log Gamma|)), Gamma(a, x) 8.3e-15.


def _kve_ref(nu, x, dps=30):
    with mp.workdps(dps):
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
    # the AFE reads e^u K_{k-1}(u) at u >= 4 pi at every weight the
    # Petersson engine admits (k <= 196); these weights reach k = 170
    u = 4 * math.pi * np.sqrt(np.geomspace(1.0, 1500.0, 25))
    ref = np.array([_kve_ref(k - 1, v) for v in u])
    assert np.max(np.abs(kve_f64(k - 1, u) - ref) / ref) <= 5e-15


@pytest.mark.parametrize("nu", [158.3, 168.3])
def test_kve_f64_fractional_order_near_the_engine_limit(nu):
    # unfold-check reaches real orders s - 1/2 as well.  mpmath's own
    # fractional-order K cancels internally: at 40 digits it is off by up
    # to 3.3e-9 at order 168.3 near x = 106, while 60 and 150 digits agree,
    # so the reference takes 150; each node count as in the real-order test
    x = np.geomspace(2.0, 400.0, 41)
    ref = np.array([_kve_ref(nu, v, dps=150) for v in x])
    for lo in (2.0, 3.0, 5.0):
        part = x >= lo
        assert np.max(np.abs(kve_f64(nu, x[part]) - ref[part]) / ref[part]) <= 3e-15, lo


def test_kve_f64_range():
    # below x = 2 the Laguerre rule loses digits: RangeError, not a value
    with pytest.raises(RangeError, match="x >= 2"):
        kve_f64(0.25, np.array([1.99, 3.0]))


def test_log_gamma_f64_matches_mpmath():
    # on Re z >= 0, real part and phase modulo 2 pi: every caller
    # exponentiates the value or reads its real part
    rng = np.random.default_rng(5)
    right = rng.uniform(0.01, 20, 300) + 1j * rng.uniform(-40, 40, 300)
    axis = 1j * np.concatenate([rng.uniform(-40, 40, 60), np.geomspace(1e-6, 40, 40)])
    # more than _SCALAR_POINTS points, so the array path takes them too
    edge = np.array([0.25 + 0.5j, 1.0, 3.7, 0.5 - 7j, 2.27 + 0.59j, 6.5 + 1j, 7.0,
                     1e-9 - 1e-9j, 0.5 + 0.99e22j, 30 + 0.99e22j])
    for z in (right, axis, edge):
        with mp.workdps(30):
            ref = np.array([complex(mp.loggamma(mpc(v.real, v.imag))) for v in z])
        scale = np.maximum(1.0, np.abs(ref))
        got = log_gamma_f64(z)  # the array path
        assert got.shape == z.shape
        assert np.max(_mod_2pi_error(got, ref) / scale) <= 3e-15
        # the cmath path of calls with a few points
        for v, r, c in zip(z[:40], ref, scale):
            one = log_gamma_f64(v)
            assert one.shape == () and _mod_2pi_error(one, r) / c <= 3e-15, v


def test_log_gamma_f64_outside_its_domain_raises(recwarn):
    # the left half plane, the pole 0, and |z| past 1e22, where the squared
    # modulus of the 7-factor shift product would overflow to a silent -inf
    rng = np.random.default_rng(5)
    left = rng.uniform(-30, 0, 100) + 1j * rng.uniform(-5, 5, 100)
    for z in (left, np.full(10, -1e-300 + 1j), np.zeros(10), np.full(10, 0.5 + 1e30j),
              np.full(10, 1e23)):
        with pytest.raises(RangeError, match=re.escape("Re z >= 0 and 0 < |z| <= 1e22")):
            log_gamma_f64(z)  # the array path
        with pytest.raises(RangeError, match="Re z >= 0"):
            log_gamma_f64(z[0])  # the cmath path
        with pytest.raises(RangeError, match="Re z >= 0"):
            log_gamma_r_f64(2 * z)
    assert [str(w.message) for w in recwarn] == []


# Property tests: identities of log Gamma at points that Hypothesis draws
# from the closed right half plane off the pole, past the |t| <= 40 that
# the Stade sums reach.  derandomize=True and database=None fix the
# examples and max_examples their cost, so the suite stays deterministic.
# Each identity compares real parts, and phases modulo 2 pi, relative to
# the size of the logs it adds.
PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)
RIGHT_HALF_PLANE = st.builds(
    complex, st.floats(0.0, 30.0), st.floats(-60.0, 60.0)
).filter(lambda z: abs(z) >= 1e-6)


def _both_paths(points):
    """log_gamma_f64 at each point by the array path (the points repeated
    past _SCALAR_POINTS) and by the cmath path (one call per point), as
    two rows of the same columns."""
    array = log_gamma_f64(np.array(list(points) * 5))[:len(points)]
    one = np.array([complex(log_gamma_f64(z)) for z in points])
    return np.stack([array, one])


@PROPERTY
@given(RIGHT_HALF_PLANE)
def test_log_gamma_recurrence(z):
    # Gamma(z + 1) = z Gamma(z); z and z + 1 shift by different counts, so
    # the array path takes its ragged mask
    lg, lg1 = _both_paths([z, z + 1]).T
    scale = max(1.0, abs(lg[0]), abs(lg1[0]))
    assert np.max(_mod_2pi_error(lg1 - lg, cmath.log(z))) <= 1e-14 * scale


@PROPERTY
@given(RIGHT_HALF_PLANE)
def test_log_gamma_r_duplication(s):
    # Legendre: Gamma_R(s) Gamma_R(s + 1) = 2 (2 pi)^{-s} Gamma(s)
    lhs = log_gamma_r_f64(np.array([s, s + 1] * 5))
    lhs = lhs[0] + lhs[1]
    rhs = math.log(2) - s * math.log(2 * math.pi) + _both_paths([s])[:, 0]
    scale = max(1.0, abs(lhs), abs(rhs[0]), abs(s) * math.log(2 * math.pi))
    assert np.max(_mod_2pi_error(lhs, rhs)) <= 1e-14 * scale


@PROPERTY
@given(RIGHT_HALF_PLANE)
def test_log_gamma_conjugate_symmetry(z):
    # Gamma(conj z) = conj Gamma(z)
    lg, lg_bar = _both_paths([z, z.conjugate()]).T
    scale = max(1.0, abs(lg[0]))
    assert np.max(_mod_2pi_error(lg_bar, lg.conj())) <= 1e-15 * scale


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



def test_upper_gamma_f64_dense_grid():
    # the documented 1.6e-14 on [0.25, 2.5]: a dense scan (a in steps of
    # 0.001 up to 0.45 and 0.01 beyond, 1,500 x in [0.5, 2.5] and 600 in
    # [1e-6, 42]) read 1.52e-14 at most, at a = 0.268, and every reading
    # above 8e-15 lay at x in [1.13, 1.53], the series branch just below
    # a + 1 where Gamma(a) - gamma(a, x) cancels most; here the scan's
    # worst a on its x in [1.1, 1.6]
    x = np.linspace(0.5, 2.5, 1500)
    x = x[(x >= 1.1) & (x <= 1.6)]
    worst = 0.0
    for a in (0.251, 0.256, 0.265, 0.268, 0.285, 0.31, 0.361):
        with mp.workdps(40):
            ref = np.array([float(mp.gammainc(mpf(a), mpf(v))) for v in x])
        worst = max(worst, np.max(np.abs(upper_gamma_f64(a, x) - ref) / ref))
    assert worst <= 1.6e-14

@pytest.mark.parametrize("a", [-0.5, -0.75, -1.5, -2.25])
def test_upper_gamma_f64_walk_down(a):
    # a <= 0 climbs to a + m in (0, 1] and walks back down; each step can
    # cost a digit (measured at most 9.1e-13 at a = -2.25, x = 12)
    x = np.array([1e-6, 0.01, 0.3, 1.0, 4.0, 12.0])
    with mp.workdps(30):
        ref = np.array([float(mp.gammainc(mpf(a), mpf(v))) for v in x])
    assert np.max(np.abs(upper_gamma_f64(a, x) - ref) / np.abs(ref)) <= 2e-12


@pytest.mark.parametrize("n", [0, -1, -2, -3])
def test_upper_gamma_f64_walk_down_edge(n):
    # just past the documented distance from a non-positive integer the
    # walk keeps its bound of 1e-11 * 10^|a| (one digit per unit of |a|);
    # just inside it RangeError, since nearer still it loses log10
    # 1/distance more digits (9.1e-7 at a = -1.000001)
    x = np.geomspace(1e-6, 30.0, 60)
    edge = special._WALK_MIN_DISTANCE
    for a in (n - 1.01 * edge, n + 1.01 * edge):
        if a > 0:
            continue
        with mp.workdps(40):
            ref = np.array([float(mp.gammainc(mpf(a), mpf(v))) for v in x])
        err = np.max(np.abs(upper_gamma_f64(a, x) - ref) / np.abs(ref))
        assert err <= 1e-11 * 10 ** abs(a), (a, err)
    for a in (n - 0.99 * edge, n + 0.99 * edge, n - 1e-6, n + 1e-6):
        if a > 0:
            continue
        with pytest.raises(RangeError, match="within %g of the non-positive integer %d"
                           % (edge, n)):
            upper_gamma_f64(a, x)


@pytest.mark.parametrize("a", [0.0, -1.0, -2.0])
def test_upper_gamma_f64_non_positive_integer_order_raises(a, recwarn):
    # the walk-down's last step would divide by a + m - 1 - j = 0
    with pytest.raises(RangeError, match="a = %r" % a):
        upper_gamma_f64(a, np.array([0.3, 1.0, 4.0]))
    assert [str(w.message) for w in recwarn] == []


def test_upper_gamma_f64_small_order_edge(recwarn):
    # on these points the series' cancellation Gamma(a) - gamma(a, x) near
    # x = 1 reads up to 1.9e-14 at a in [0.16, 0.2), 1.5e-14 at a = 0.1 and
    # 2.2e-12 at 1e-3, against at most 1.0e-14 on [0.2, 0.3]: RangeError
    # below _MIN_ORDER, the documented 1e-14 just above it
    edge = special._MIN_ORDER
    x = np.concatenate([np.geomspace(1e-6, 42.0, 300), np.linspace(1.0, 10.0, 200)])
    a = 1.01 * edge
    with mp.workdps(40):
        ref = np.array([float(mp.gammainc(mpf(a), mpf(v))) for v in x])
    assert np.max(np.abs(upper_gamma_f64(a, x) - ref) / ref) <= 1e-14
    for a in (0.99 * edge, 0.1, 1e-3, 1e-6):
        with pytest.raises(RangeError, match="a >= %g, not a = %r" % (edge, a)):
            upper_gamma_f64(a, x)
    assert [str(w.message) for w in recwarn] == []
