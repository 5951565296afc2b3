"""Petersson inner products on the modular surface and the central
second-moment pipeline.

The fundamental domain splits into the periodic strip above height 1 and
the lune between the unit circle and that line:

  strip: x in [-1/2, 1/2] x y in [1, Ymax]   (midpoint rule in x: the
         integrand is 1-periodic and band-limited, so the equispaced rule
         is spectrally exact; Gauss-Legendre in log y),
  lune:  x Gauss-Legendre, per-column Gauss-Legendre in
         y in [sqrt(1-x^2), 1].

<F, G>_k = int F(z) conj(G(z)) y^{k-2} dx dy.  Ymax = max(10, (k+40)/2pi)
keeps the tail of the cusp-form factor below 1e-30.

Only the right half of each part carries nodes: the strip's midpoint
columns in x in (0, 1/2] and the lune's positive Gauss-Legendre columns,
each with its x-weight doubled.  Every integrand summed here obeys
v(-x + iy) = conj v(x + iy): level-1 eigenforms have real coefficients,
so f(-conj z) = conj f(z), and E*(., s) at real s is real and even in x.
The domain and both rules are symmetric under x -> -x (the midpoint
abscissae are dyadic and numpy's leggauss symmetrizes its nodes and
weights), so each integral is 2 Re of its half over x > 0, and the
engine evaluates every form and E*(., s) on half the nodes.

The two parts are cached separately: the strip per (Ymax, refine), the
lune per refine alone, each with x and y in broadcast shape (the strip as
the tensor grid xs[:, None] x ys[None, :], the lune as columns of
constant x); E*(., s) is memoized per part, s and truncation height
(_part_estar).  Cusp forms and E*(., s) are
separable (radial factor in y times a phase in x per Fourier term), and
their one float64 evaluator each tabulates both factors before they
broadcast, so the strip costs a 1-D table per axis.  Both parts are
truncated at the smallest height of the nodes, a lune node's.  Form
values are not memoized: unfold_rows evaluates each form once per weight,
moment_row its reference form, and each pairs the arrays it keeps.

Unfolding identity driving the cross-checks: for eigenforms f, g and the
completed degenerate series E*,

  <f E*(., s), g>_k = L(f x g, s) Gamma(s+k-1)Gamma(s) / ((2pi)^{2s}Gamma(k))
                    = Lambda*(f x g, s) = Lambda(f x g, s) / Gamma(k),

so quadrature on the left meets the approximate-functional-equation route
on the right (RankinSelbergPair.completed_l, which returns Lambda*)
through entirely different machinery.  unfold_rows pairs
every two forms of one weight this way (at s = 1/2 it is the period route
to the central values), and inner_product gives <f, g>_k alone (the
Petersson norm); each has one code path.  The node-doubling shift of a
pairing is its value at refine 2 minus its value at refine 1.

Second-moment chain verified link by link at each weight k (f fixed as
the eigenform with smallest T_2 eigenvalue, B_k the eigenbasis):

  S(k) = sum_{g in B_k} |L(f x g, 1/2)|^2            (AFE route)
  bessel_sum = sum_g |Lambda*(f x g, 1/2)|^2 / <g,g>  (same data, rescaled)
  bessel_sum <= ||f E*(., 1/2)||^2                    (Bessel; slack >= 0)
  ||f E*(., 1/2)||^2 <= C_fit * <f E(., 1+eps), f>    (pointwise-domination
      trick; C_fit is the observed sup of E*(z,1/2)^2 / E(z,1+eps) on the
      quadrature range, reported rather than assumed)
  <f E(., 1+eps), f> = Lambda*(f x f, 1+eps) / lambda(2+2eps)
      (the unfolding identity at s = 1+eps, with E = E*/lambda(2s);
      Lambda* by the AFE)

moment_row reports the first three links, regularized_bound(pair, eps)
the last two for the diagonal pair (f, f); the growth exponent of S(k) in
k is the monitored quantity (predicted 1 + eps; the sweep fits the
log-log slope).
"""

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import special
from .eisenstein_gl2 import _constant_lams, completed_eisenstein_f64
from .modforms import Eigenform, eval_cusp_form_f64
from .precision import RangeError
from .rankin_selberg import RankinSelbergPair

__all__ = [
    "PeterssonEngine",
    "petersson_engine",
    "inner_product",
    "unfold_rows",
    "regularized_bound",
    "moment_row",
    "moment_sweep",
]

# x-rules on all of [-1/2, 1/2]; the engine keeps their x > 0 half
STRIP_X_POINTS = 128
STRIP_Y_POINTS = 200
LUNE_X_POINTS = 64
LUNE_Y_POINTS = 48

REG_EPS = 0.1


@dataclass(frozen=True, eq=False)
class _Part:
    """One part of the nodes: x and y in broadcast shape and the weights
    w0 = dx dy without the measure factor in the shape they broadcast to.
    Hashed by identity, so a memo keyed by the part is keyed by its nodes."""

    x: np.ndarray
    y: np.ndarray
    w0: np.ndarray

    def __post_init__(self):
        for a in (self.x, self.y, self.w0):
            a.flags.writeable = False


@cache
def _strip(ymax: float, refine: int) -> _Part:
    """The right half of the strip below ymax as the tensor grid
    x = xs[:, None], y = ys[None, :]: the x > 0 columns of the midpoint
    rule of STRIP_X_POINTS * refine columns on [-1/2, 1/2], weighted
    twice.  Every engine with the same ymax and refine (all k <= 22 have
    ymax = 10) shares it."""
    nx, ny = STRIP_X_POINTS * refine, STRIP_Y_POINTS * refine
    xs = (np.arange(nx // 2) + 0.5) / nx
    wx = np.full(nx // 2, 2.0 / nx)
    gl_u, gl_wu = special._leggauss(ny)
    umax = math.log(ymax)
    uu = umax / 2 * (gl_u + 1.0)
    ys = np.exp(uu)
    wy = gl_wu * umax / 2 * ys  # du -> dy jacobian
    return _Part(xs[:, None], ys[None, :], np.outer(wx, wy))


@cache
def _lune(refine: int) -> _Part:
    """The right half of the lune as columns of constant x: x of shape
    (columns, 1), y of shape (columns, nodes per column).  The columns
    are the positive half of the LUNE_X_POINTS * refine Gauss-Legendre
    abscissae (ascending, symmetric), weighted twice.  It does not
    depend on ymax, so every engine with the same refine shares it."""
    gl_x, gl_wx = special._leggauss(LUNE_X_POINTS * refine)
    gl_y, gl_wy = special._leggauss(LUNE_Y_POINTS * refine)
    right = slice(len(gl_x) // 2, None)
    # x = gl_x / 2 on [-1/2, 1/2] has weight gl_wx / 2, twice over
    xv, xw = (gl_x[right] / 2)[:, None], gl_wx[right][:, None]
    y0 = np.sqrt(1.0 - xv * xv)
    mid, half = (1.0 + y0) / 2, (1.0 - y0) / 2
    return _Part(xv, mid + half * gl_y, gl_wy * half * xw)


@cache
def _part_estar(part: _Part, s: float, y_min: float) -> np.ndarray:
    """E*(., s) on the nodes of part, its series truncated at y_min, as a
    read-only array.  Keyed by everything it depends on: engines that
    share a part and a y_min (every engine of one refine shares the lune,
    and those of one ymax the strip) share its values."""
    ev = completed_eisenstein_f64(part.x, part.y, s, y_min=y_min)
    ev.flags.writeable = False
    return ev


@dataclass
class PeterssonEngine:
    """Quadrature nodes/weights for weight-k Petersson integrals.

    The nodes cover the right half of the fundamental domain, x > 0, with
    doubled x-weights, so the engine integrates only functions v with
    v(-x + iy) = conj v(x + iy) (see the module docstring): the integral
    over the whole domain is then the real part of twice the half.
    Weights fold in the measure factor y^{k-2}; Ymax grows with k so the
    mass peak of |f|^2 y^k near y ~ k/4pi stays interior.  refine scales
    every node count for convergence probes.  Weights that overflow
    float64 (every k >= 198) raise RangeError.  x, y and w are flat: strip node
    (i, j) at i * len(ys) + j, then the lune column by column.  y_min is
    the smallest height of the nodes, a lune node's: both parts truncate
    their series there, so the strip uses as many terms as pointwise
    evaluation of all nodes would.
    """

    k: int
    refine: int = 1
    w: np.ndarray = field(init=False, repr=False)
    y_min: float = field(init=False, repr=False)
    _parts: tuple = field(init=False, repr=False)

    def __post_init__(self):
        k = self.k
        ymax = max(10.0, (k + 40.0) / (2 * math.pi))
        self._parts = (_strip(ymax, self.refine), _lune(self.refine))
        self.y_min = float(min(np.min(p.y) for p in self._parts))
        with np.errstate(over="ignore"):
            self.w = self._flat([p.w0 * p.y ** (k - 2) for p in self._parts])
        if not np.all(np.isfinite(self.w)):
            raise RangeError(
                "Petersson weights y^(k-2) overflow float64 at k=%d (ymax %.3g)" % (k, ymax)
            )

    def _flat(self, per_part) -> np.ndarray:
        """One array per part, broadcast to the part's nodes and joined
        in node order."""
        return np.concatenate(
            [np.broadcast_to(a, p.w0.shape).ravel() for a, p in zip(per_part, self._parts)]
        )

    @property
    def x(self) -> np.ndarray:
        return self._flat([p.x for p in self._parts])

    @property
    def y(self) -> np.ndarray:
        return self._flat([p.y for p in self._parts])

    def integrate(self, values: np.ndarray) -> float:
        """The integral over the fundamental domain of a v with
        v(-x + iy) = conj v(x + iy), from values = v at (self.x, self.y):
        sum w Re v.  Only the real part is returned, since the imaginary
        parts of mirror nodes cancel."""
        return float(np.sum(values.real * self.w))

    def form_values(self, form: Eigenform) -> np.ndarray:
        """The cusp form at the nodes, part by part.  Not memoized:
        callers that need a form more than once keep the array."""
        return self._flat(
            [eval_cusp_form_f64(form, p.x, p.y, y_min=self.y_min) for p in self._parts]
        )

    def estar(self, s: float) -> np.ndarray:
        """E*(., s) at the nodes for real s, read-only.  Each part is
        evaluated once per s (see _part_estar): the lune once per refine,
        the strip once per ymax and refine."""
        s = float(s)
        ev = self._flat([_part_estar(p, s, self.y_min) for p in self._parts])
        ev.flags.writeable = False
        return ev


@cache
def petersson_engine(k: int, refine: int) -> PeterssonEngine:
    """The PeterssonEngine of weight k and refine, built once per process.
    Raises RangeError where its weights overflow float64, so it also
    checks a weight before any form of that weight is built."""
    return PeterssonEngine(k, refine)


def _pairing(eng: PeterssonEngine, fv, gv, hv=None) -> float:
    # one operation order for every <f h, g> from grid values, so callers
    # that reuse f, g or h on the nodes get bit-identical sums
    vals = fv * np.conjugate(gv)
    if hv is not None:
        vals = vals * hv
    return eng.integrate(vals)


def inner_product(f: Eigenform, g: Eigenform = None, refine: int = 1) -> float:
    """<f, g>_k on the nodes of petersson_engine(k, refine), real for
    level-1 eigenforms; g=None takes <f, f>.  The node-doubling shift is
    the difference from refine 2."""
    if g is None:
        g = f
    if f.weight != g.weight:
        raise ValueError("forms must share a weight")
    eng = petersson_engine(f.weight, refine)
    fv = eng.form_values(f)
    gv = fv if g is f else eng.form_values(g)
    return _pairing(eng, fv, gv)


def _gamma_k_over_gamma_half(k: int) -> float:
    """Gamma(k) (2pi)^{2s} / (Gamma(s+k-1)Gamma(s)) at s = 1/2."""
    return math.exp(math.lgamma(k) - math.lgamma(k - 0.5)) * 2 * math.pi / math.sqrt(math.pi)


def unfold_rows(forms, s_values) -> list:
    """Quadrature <f_i E*(., s), f_j> against Lambda*(f_i x f_j, s) from
    the AFE, for every ordered pair (f_i, f_j) of forms of one weight and
    every s, in that order: one dict per entry with i, j, s, quadrature,
    afe and rel_err.

    Each form is evaluated on the nodes once, E*(., s) once per s, and
    each pair's AFE data is built once.  An s that takes E*(., s) or
    either side out of float64's finite range raises RangeError.
    """
    if not forms:
        raise ValueError("no cusp forms to pair")
    eng = petersson_engine(forms[0].weight, 1)
    values = [eng.form_values(f) for f in forms]
    estar = {}
    rows = []
    # past float64's range E*(., s) and Lambda* overflow to inf or nan, or
    # the divisor sums of E* raise OverflowError; the guards below report
    # that as a RangeError, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for s in s_values:
            try:
                estar[s] = eng.estar(s)
                finite = np.all(np.isfinite(estar[s]))
            except OverflowError:
                finite = False
            if not finite:
                raise RangeError("s = %r takes E*(., s) out of float64 range" % s)
        for i, f in enumerate(forms):
            for j, g in enumerate(forms):
                pair = RankinSelbergPair(f, g)
                for s in s_values:
                    quad = _pairing(eng, values[i], values[j], estar[s])
                    afe = pair.completed_l(s).real
                    if not (math.isfinite(quad) and math.isfinite(afe)):
                        raise RangeError("s = %r takes the unfolding out of float64 range "
                                         "(quadrature %g, afe %g)" % (s, quad, afe))
                    rel = abs(quad - afe) / max(abs(afe), 1e-300)
                    rows.append({"i": i, "j": j, "s": s,
                                 "quadrature": quad, "afe": afe, "rel_err": rel})
    return rows


def regularized_bound(pair: RankinSelbergPair, eps: float = REG_EPS) -> dict:
    """The E(., 1+eps) domination step with its constant surfaced, for the
    diagonal pair (f, f).

    lambda_star = Lambda*(f x f, 1+eps) = <f E*(., 1+eps), f>, by the AFE.
    unfolded    = <f E(., 1+eps), f> = lambda_star / lambda(2+2eps), as
                  E = E* / lambda(2s) with lambda(s) = pi^{-s/2}Gamma(s/2)zeta(s).
    c_fit       = max over the quadrature range of E*(z,1/2)^2 / E(z,1+eps);
                  the pointwise bound E*(z,1/2)^2 << y (1+log y)^2 makes this
                  finite but its size is measured, not assumed.  The
                  ratio is even in x, so its max on the engine's x > 0
                  nodes is its max on the mirrored ones.
    bound       = c_fit * unfolded  >=  ||f E*(., 1/2)||^2.
    An eps that takes unfolded or c_fit out of float64's finite nonzero
    range raises RangeError.  Up to that range the AFE holds the direct
    Dirichlet sum to 1e-13 relative, measured at s = 11, 41, 71 and 91
    and at s = 153 (k = 12) and 145 (k = 40), the last integers at which
    Lambda(s) / Gamma(k) is below float64's largest value.
    """
    if pair.g is not pair.f:
        raise ValueError("regularized_bound takes a diagonal pair (f, f)")
    # lambda(2 + 2 eps), cached with the constant term of E*(., 1 + eps)
    lam_norm = _constant_lams(1.0 + eps)[0]
    eng = petersson_engine(pair.k, 1)
    e_star_half = eng.estar(0.5)
    # past float64's range these overflow to inf or nan; the guard below
    # reports that as a RangeError, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lambda_star = pair.completed_l(1.0 + eps).real
        unfolded = lambda_star / lam_norm
        e_plain = eng.estar(1.0 + eps) / lam_norm
        c_fit = float(np.max(e_star_half**2 / e_plain))
    if not all(math.isfinite(v) and v != 0.0 for v in (unfolded, c_fit)):
        raise RangeError("eps = %r takes the regularized bound out of float64 range "
                         "(unfolded %g, c_fit %g)" % (eps, unfolded, c_fit))
    return {
        "eps": eps,
        "lambda_star": lambda_star,
        "unfolded": unfolded,
        "c_fit": c_fit,
        "bound": c_fit * unfolded,
    }


def moment_row(forms) -> dict:
    """Central second-moment data at the weight k of forms, the
    eigenbasis of S_k: the first three links of the chain in the module
    docstring.

    Reference form f: smallest T_2 eigenvalue (construction order).  Norms
    <g,g> come from the theta route; the Bessel ceiling from quadrature.
    Central values come from the AFE; unfold_rows(forms, [0.5]) is their
    period route.  f and E*(., 1/2) are evaluated on the nodes once, and
    each form's diagonal pair (g, g) is built once: it gives <g, g>, and
    for g = f also L(f x f, 1/2).
    """
    if not forms:
        raise ValueError("no cusp forms to pair")
    f = forms[0]
    k = f.weight
    eng = petersson_engine(k, 1)
    fv = eng.form_values(f)
    e_half = eng.estar(0.5)
    rescale = _gamma_k_over_gamma_half(k)
    s_k = 0.0
    bessel_sum = 0.0
    central = []
    f_pair = RankinSelbergPair(f)
    for g in forms:
        g_pair = f_pair if g is f else RankinSelbergPair(g)
        pair = f_pair if g is f else RankinSelbergPair(f, g)
        lam_star = pair.completed_l(0.5).real
        l_afe = lam_star * rescale
        norm_g = g_pair.norm_theta()
        s_k += l_afe**2
        bessel_sum += lam_star**2 / norm_g
        central.append({"g_index": g.index, "L_afe": l_afe, "norm_g": norm_g})
    ceiling = eng.integrate(np.abs(fv) ** 2 * e_half**2)
    return {
        "k": k,
        "dim": len(forms),
        "S_k": s_k,
        "bessel_sum": bessel_sum,
        "norm_fE": ceiling,
        "bessel_slack": (ceiling - bessel_sum) / ceiling,
        "central_values": central,
    }


def moment_sweep(forms_by_k) -> list:
    """Rows for each weight of forms_by_k ({k: eigenforms of weight k}),
    in ascending k, plus the cumulative log-log slope of S(k)."""
    rows = []
    logs = []
    for k in sorted(forms_by_k):
        row = moment_row(forms_by_k[k])
        logs.append((math.log(k), math.log(row["S_k"])))
        if len(logs) >= 2:
            xs = np.array([p[0] for p in logs])
            ys = np.array([p[1] for p in logs])
            slope = float(np.polyfit(xs, ys, 1)[0])
        else:
            slope = float("nan")
        row["slope_so_far"] = slope
        rows.append(row)
    return rows
