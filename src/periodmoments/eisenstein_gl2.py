"""Real-analytic Eisenstein series for SL_2(Z) on the upper half plane.

Completed series via its Fourier expansion

  E*(z,s) = lam(2s) y^s + lam(2-2s) y^{1-s}
            + 4 sqrt(y) sum_{n>=1} n^{s-1/2} sigma_{1-2s}(n)
                                   K_{s-1/2}(2 pi n y) cos(2 pi n x)

with lam(w) = pi^{-w/2} Gamma(w/2) zeta(w).  Poles at s = 0, 1 with
residue(s=1) = 1/2 independent of z.  At the center the constant term
degenerates to a log:

  E*(z,1/2) = sqrt(y) (log y + euler - log 4 pi)
              + 4 sqrt(y) sum_{n>=1} d(n) K_0(2 pi n y) cos(2 pi n x).

The unnormalized E = E*/lam(2s) has residue (1/2)/lam(2) = 3/pi at s=1
and vanishes identically at s = 1/2 (scattering -1).

At working precision the tail is summed term by term, one mpmath
besselk per n, with mp.fsum; the float64 tier (completed_eisenstein_f64)
takes K per term on its grids too, as special.kve_f64 times e^-x, and
its argument 2 pi n y needs y >= 1/pi.

The residue 3/pi of E at s = 1 has both tiers too, by one symmetric
Richardson step: residue_at_one (40 digits) is the tests' oracle, and
residue_at_one_f64 (on the float64 E*) is what the CLI runs.
"""

import math
from functools import cache

import numpy as np
from mpmath import mp, mpf

from .precision import PoleError
from .special import _EULER_GAMMA, _heights, _term_sum, kve_f64, lam

__all__ = [
    "completed_eisenstein",
    "eisenstein",
    "completed_eisenstein_f64",
    "residue_at_one",
    "residue_at_one_f64",
    "CENTER_SNAP",
    "RESIDUE_STEP",
]

# |s - 1/2| below this evaluates the central limit formula
CENTER_SNAP = 1e-12
# Richardson step of residue_at_one_f64.  A power of two makes 1 +- h and
# h/2 exact: fl(1 + 1e-3) - 1 is 1.1e-13 relative off 1e-3, and the pole
# carries that offset into the residue (+1.2e-13 against the oracle).
RESIDUE_STEP = 2.0**-10


def _split_z(z):
    if isinstance(z, tuple):
        x, y = mp.mpf(z[0]), mp.mpf(z[1])
    else:
        z = mp.mpmathify(z)
        x, y = mp.re(z), mp.im(z)
    if not y > 0:
        raise ValueError("upper half plane requires y > 0")
    return x, y


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
        d += 1
    return out


def _sigma_power(w, n):
    # sum_{d | n} d^w at working precision (w may be complex)
    return mp.fsum(mp.mpf(d) ** w for d in _divisors(n)) if mp.im(w) == 0 else \
        mp.fsum(mp.exp(w * mp.log(d)) for d in _divisors(n))


def _n_terms_mp(y):
    # exp(-2 pi N y) below the working-digit budget with margin
    return max(8, int(mp.ceil(((mp.dps + 6) * mp.log(10) + 8) / (2 * mp.pi * y))))


def completed_eisenstein(z, s):
    """E*(z, s) at working precision; z upper half plane, s != 0, 1.

    The tail is mp.fsum over n of c_n K_nu(2 pi n y) (mpmath's besselk)
    with c_n = n^nu sigma_{1-2s}(n) cos(2 pi n x) and nu = s - 1/2, or
    c_n = d(n) cos(2 pi n x) and nu = 0 at the center.
    """
    x, y = _split_z(z)
    s = mp.mpmathify(s)
    if abs(s) < CENTER_SNAP or abs(s - 1) < CENTER_SNAP:
        raise PoleError("E*(z,s) has poles at s = 0 and s = 1")
    ns = range(1, _n_terms_mp(y) + 1)
    phases = [mp.cos(2 * mp.pi * n * x) for n in ns]
    if abs(s - mpf(1) / 2) <= CENTER_SNAP:
        const = mp.sqrt(y) * (mp.log(y) + mp.euler - mp.log(4 * mp.pi))
        nu = 0
        coefs = [len(_divisors(n)) * c for n, c in zip(ns, phases)]
    else:
        const = lam(2 * s) * y**s + lam(2 - 2 * s) * y ** (1 - s)
        nu = s - mpf(1) / 2
        coefs = [mp.mpf(n) ** nu * _sigma_power(1 - 2 * s, n) * c for n, c in zip(ns, phases)]
    tail = mp.fsum(c * mp.besselk(nu, 2 * mp.pi * n * y) for n, c in zip(ns, coefs))
    return const + 4 * mp.sqrt(y) * tail


def eisenstein(z, s):
    """E(z, s) = E*(z, s) / lam(2s); identically zero on the center line."""
    s = mp.mpmathify(s)
    if abs(s - mpf(1) / 2) <= CENTER_SNAP:
        # lam(2s) pole at s=1/2 while E* stays finite
        return mp.mpf(0)
    return completed_eisenstein(z, s) / lam(2 * s)


def _n_terms_f64(y_min):
    # exp(-45) ~ 3e-20 under the constant term
    return max(8, int(45.0 / (2 * math.pi * y_min)) + 1)


@cache
def _constant_lams(s: float):
    # (lam(2s), lam(2-2s)) at 30 digits, demoted to float; once per s
    with mp.workdps(30):
        return float(lam(2 * mpf(s))), float(lam(2 - 2 * mpf(s)))


def _kv(nu, x):
    """K_nu(x) for x >= 2 (RangeError below)."""
    return kve_f64(nu, x) * np.exp(-x)


def _eisenstein_radial(y, s: float, n_terms: int):
    """Radial table of E*(., s): (const(y), coef_n K_{s-1/2}(2 pi n y)),
    shapes y.shape and y.shape + (n_terms,), with coef_n = d(n) at the
    center and n^{s-1/2} sigma_{1-2s}(n) elsewhere.  The constant-term
    lambdas come from _constant_lams, computed once per process and s."""
    ns = np.arange(1, n_terms + 1, dtype=float)
    yy = y[..., None]
    if abs(s - 0.5) <= CENTER_SNAP:
        dn = np.array([len(_divisors(n)) for n in range(1, n_terms + 1)], dtype=float)
        kvals = _kv(0.0, 2 * np.pi * ns * yy)
        const = np.sqrt(y) * (np.log(y) + _EULER_GAMMA - math.log(4 * math.pi))
        return const, dn * kvals
    c1, c2 = _constant_lams(s)
    sig = np.array(
        [sum(d ** (1.0 - 2 * s) for d in _divisors(n)) for n in range(1, n_terms + 1)]
    )
    kvals = _kv(s - 0.5, 2 * np.pi * ns * yy)
    const = c1 * y**s + c2 * y ** (1.0 - s)
    return const, ns ** (s - 0.5) * sig * kvals


def _eisenstein_angular(x, n_terms: int):
    """Angular table of E*: cos(2 pi n x), shape x.shape + (n_terms,)."""
    ns = np.arange(1, n_terms + 1, dtype=float)
    return np.cos(2 * np.pi * ns * x[..., None])


def completed_eisenstein_f64(x, y, s, y_min: float = None):
    """Vectorized double-precision E*(z, s) for real s (quadrature grids).

    x, y broadcastable arrays, y > 0; the series is truncated at y_min,
    by default the smallest y given.  Points that are part of a larger
    node set pass that set's smallest height, so they use its term count;
    a y_min above min(y) raises ValueError.  The cosines are tabulated on
    x and the Bessel functions on y, and special._term_sum contracts the
    two tables over n for every point of the broadcast shape, so a tensor
    grid (x of shape (m, 1), y of shape (1, p)) or columns of constant x
    (y of shape (m, p)) cost one cosine per row of x and never a
    (points, terms) array.
    """
    x = np.asarray(x, dtype=float)
    y, y_min = _heights(y, y_min)
    s = float(s)
    if abs(s) < CENTER_SNAP or abs(s - 1.0) < CENTER_SNAP:
        raise PoleError("E*(z,s) has poles at s = 0 and s = 1")
    n_terms = _n_terms_f64(y_min)
    const, radial = _eisenstein_radial(y, s, n_terms)
    return const + 4 * np.sqrt(y) * _term_sum(radial, _eisenstein_angular(x, n_terms))


def _richardson_residue(f, h):
    """Residue of f at s = 1 by symmetric Richardson: r(h) is the mean of
    h f(1+h) and -h f(1-h), which kills the odd Taylor terms, and
    (4 r(h/2) - r(h)) / 3 removes h^2."""
    def sym(step):
        return (step * f(1 + step) + (-step) * f(1 - step)) / 2

    r1 = sym(h)
    return (4 * sym(h / 2) - r1) / 3


def residue_at_one(z, completed=False):
    """Residue of E (default) or E* at s = 1 at 40 digits, with h = 1e-3:
    the tests' oracle for residue_at_one_f64.  Exact values: 1/2 for E*,
    3/pi for E.
    """
    with mp.workdps(40):
        f = completed_eisenstein if completed else eisenstein
        return _richardson_residue(lambda s: f(z, s), mpf("1e-3"))


def residue_at_one_f64(x: float, y: float) -> float:
    """Residue of E = E*(z, s) / lam(2s) at s = 1 in float64 (exact: 3/pi),
    from completed_eisenstein_f64 (so y >= 1/pi) at h = RESIDUE_STEP."""
    return _richardson_residue(
        lambda s: float(completed_eisenstein_f64(x, y, s)) / _constant_lams(s)[0], RESIDUE_STEP)
