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

The two parts are cached separately: the strip per (Ymax, refine), the
lune per refine alone, each with x and y in broadcast shape (the strip as
the tensor grid xs[:, None] x ys[None, :], the lune as columns of
constant x) and its own memo of E*(., s).  Cusp forms and E*(., s) are
separable (radial factor in y times a phase in x per Fourier term), and
their one float64 evaluator each tabulates both factors before they
broadcast, so the strip costs a 1-D table per axis.  Both parts are
truncated at the smallest height of the nodes, a lune node's.  Form
values are not memoized: moment_row and unfold_rows evaluate each form
once per weight and pair the arrays they keep.

Unfolding identity driving the cross-checks: for eigenforms f, g and the
completed degenerate series E*,

  <f E*(., s), g>_k = L(f x g, s) Gamma(s+k-1)Gamma(s) / ((2pi)^{2s}Gamma(k))
                    = Lambda*(f x g, s),

so quadrature on the left meets the approximate-functional-equation route
on the right through entirely different machinery.

Second-moment chain verified link by link at each weight k (f fixed as
the eigenform with smallest T_2 eigenvalue, B_k the eigenbasis):

  S(k) = sum_{g in B_k} |L(f x g, 1/2)|^2            (AFE route)
  bessel_sum = sum_g |Lambda*(f x g, 1/2)|^2 / <g,g>  (same data, rescaled)
  bessel_sum <= ||f E*(., 1/2)||^2                    (Bessel; slack >= 0)
  ||f E*(., 1/2)||^2 <= C_fit * <f E(., 1+eps), f>    (pointwise-domination
      trick; C_fit is the observed sup of E*(z,1/2)^2 / E(z,1+eps) on the
      quadrature range, reported rather than assumed)
  <f E(., 1+eps), f> = Gamma(k+eps)/((4pi)^{1+eps}Gamma(k))
                        * sum_n lambda(n)^2 n^{-1-eps}  (unfolds exactly)

and the growth exponent of S(k) in k is the monitored quantity (predicted
1 + eps; the sweep fits the log-log slope).
"""

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from mpmath import mp
from scipy.special import gammaln

from . import special
from .eisenstein_gl2 import completed_eisenstein_f64
from .modforms import Eigenform, eval_cusp_form_f64, hecke_eigenforms
from .precision import RangeError
from .rankin_selberg import RankinSelbergPair

__all__ = [
    "PeterssonEngine",
    "petersson_engine",
    "inner_product",
    "norm_quadrature",
    "unfold_check",
    "unfold_rows",
    "norm_f_estar",
    "regularized_bound",
    "moment_row",
    "moment_sweep",
]

STRIP_X_POINTS = 128
STRIP_Y_POINTS = 200
LUNE_X_POINTS = 64
LUNE_Y_POINTS = 48

REG_EPS = 0.1


@cache
def _leggauss(n: int):
    """Gauss-Legendre rule of n nodes on [-1, 1], built once per process
    on first use (read-only)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True, eq=False)
class _Part:
    """One part of the nodes: x and y in broadcast shape, the weights
    w0 = dx dy without the measure factor in the shape they broadcast to,
    and estar, a memo of E*(., s) on the part keyed by s (read-only
    arrays of w0's shape)."""

    x: np.ndarray
    y: np.ndarray
    w0: np.ndarray
    estar: dict = field(default_factory=dict)

    def __post_init__(self):
        for a in (self.x, self.y, self.w0):
            a.flags.writeable = False


@cache
def _strip(ymax: float, refine: int) -> _Part:
    """The strip below ymax as the tensor grid x = xs[:, None],
    y = ys[None, :]; every engine with the same ymax and refine (all
    k <= 22 have ymax = 10) shares it."""
    nx, ny = STRIP_X_POINTS * refine, STRIP_Y_POINTS * refine
    xs = -0.5 + (np.arange(nx) + 0.5) / nx
    wx = np.full(nx, 1.0 / nx)
    gl_u, gl_wu = _leggauss(ny)
    umax = math.log(ymax)
    uu = umax / 2 * (gl_u + 1.0)
    ys = np.exp(uu)
    wy = gl_wu * umax / 2 * ys  # du -> dy jacobian
    return _Part(xs[:, None], ys[None, :], np.outer(wx, wy))


@cache
def _lune(refine: int) -> _Part:
    """The lune as columns of constant x: x of shape (columns, 1), y of
    shape (columns, nodes per column).  It does not depend on ymax, so
    every engine with the same refine shares it."""
    gl_x, gl_wx = _leggauss(LUNE_X_POINTS * refine)
    gl_y, gl_wy = _leggauss(LUNE_Y_POINTS * refine)
    xv, xw = (gl_x / 2)[:, None], (gl_wx / 2)[:, None]
    y0 = np.sqrt(1.0 - xv * xv)
    mid, half = (1.0 + y0) / 2, (1.0 - y0) / 2
    return _Part(xv, mid + half * gl_y, gl_wy * half * xw)


@dataclass
class PeterssonEngine:
    """Quadrature nodes/weights for weight-k Petersson integrals.

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

    def integrate(self, values: np.ndarray) -> complex:
        """Weighted sum over the nodes; values evaluated at (self.x, self.y)."""
        return complex(np.sum(values * self.w))

    def form_values(self, form: Eigenform) -> np.ndarray:
        """The cusp form at the nodes, part by part.  Not memoized:
        callers that need a form more than once keep the array."""
        return self._flat(
            [eval_cusp_form_f64(form, p.x, p.y, y_min=self.y_min) for p in self._parts]
        )

    def estar(self, s: float) -> np.ndarray:
        """E*(., s) at the nodes for real s, read-only.  Each part is
        evaluated once per s (see _Part): the lune once per refine, the
        strip once per ymax and refine."""
        s = float(s)
        for p in self._parts:
            if s not in p.estar:
                ev = completed_eisenstein_f64(p.x, p.y, s, y_min=self.y_min)
                ev.flags.writeable = False
                p.estar[s] = ev
        ev = self._flat([p.estar[s] for p in self._parts])
        ev.flags.writeable = False
        return ev


@cache
def petersson_engine(k: int, refine: int) -> PeterssonEngine:
    """The PeterssonEngine of weight k and refine, built once per process.
    Raises RangeError where its weights overflow float64, so it also
    checks a weight before any form of that weight is built."""
    return PeterssonEngine(k, refine)


def _pairing(eng: PeterssonEngine, fv, gv, hv=None) -> complex:
    # one operation order for every <f h, g> from grid values, so callers
    # that reuse f, g or h on the nodes get bit-identical sums
    vals = fv * np.conjugate(gv)
    if hv is not None:
        vals = vals * hv
    return eng.integrate(vals)


def _inner_on(eng: PeterssonEngine, f, g, hv=None) -> complex:
    fv = eng.form_values(f)
    gv = fv if g is f else eng.form_values(g)
    return _pairing(eng, fv, gv, hv)


def inner_product(
    f: Eigenform,
    g: Eigenform = None,
    multiplier=None,
    refine: int = 1,
    with_error: bool = False,
):
    """<f h, g>_k with optional multiplier h(x, y) (e.g. E*(., s)).

    multiplier: callable (x_array, y_array) -> array, or None.
    with_error doubles every node count once and reports the shift.
    """
    if g is None:
        g = f
    if f.weight != g.weight:
        raise ValueError("forms must share a weight")

    def on(eng):
        hv = None if multiplier is None else multiplier(eng.x, eng.y)
        return _inner_on(eng, f, g, hv)

    coarse = on(petersson_engine(f.weight, refine))
    if not with_error:
        return coarse
    fine = on(petersson_engine(f.weight, 2 * refine))
    return fine, abs(fine - coarse)


def norm_quadrature(f: Eigenform) -> float:
    """<f, f>_k over the fundamental domain."""
    return inner_product(f).real


def _gamma_k_over_gamma_half(k: int) -> float:
    """Gamma(k) (2pi)^{2s} / (Gamma(s+k-1)Gamma(s)) at s = 1/2."""
    return math.exp(gammaln(k) - gammaln(k - 0.5)) * 2 * math.pi / math.sqrt(math.pi)


def _unfold_on(eng: PeterssonEngine, pair: RankinSelbergPair, fv, gv, s: float) -> dict:
    quad = _pairing(eng, fv, gv, eng.estar(s)).real
    afe = pair.completed_l_normalized(s).real
    rel = abs(quad - afe) / max(abs(afe), 1e-300)
    return {"quadrature": quad, "afe": afe, "rel_err": rel}


def unfold_check(f: Eigenform, g: Eigenform, s: float, refine: int = 1) -> dict:
    """Quadrature <f E*(., s), g> against Lambda*(f x g, s) from the AFE."""
    pair = RankinSelbergPair(f, g)
    eng = petersson_engine(f.weight, refine)
    fv = eng.form_values(f)
    gv = fv if g is f else eng.form_values(g)
    return _unfold_on(eng, pair, fv, gv, s)


def unfold_rows(forms, s_values) -> list:
    """unfold_check for every ordered pair (f_i, f_j) of forms of one
    weight and every s, in that order, each entry tagged with i, j and s.

    Each form is evaluated on the nodes once, each pair's AFE data is
    built once, and every sum has unfold_check's operation order, so the
    entries equal unfold_check's bit for bit.
    """
    if not forms:
        raise ValueError("no cusp forms to pair")
    eng = petersson_engine(forms[0].weight, 1)
    values = [eng.form_values(f) for f in forms]
    rows = []
    for i, f in enumerate(forms):
        for j, g in enumerate(forms):
            pair = RankinSelbergPair(f, g)
            for s in s_values:
                row = {"i": i, "j": j, "s": s}
                row.update(_unfold_on(eng, pair, values[i], values[j], s))
                rows.append(row)
    return rows


def norm_f_estar(f: Eigenform, s: float = 0.5, refine: int = 1) -> float:
    """||f E*(., s)||^2 = int |f|^2 E*(z,s)^2 y^{k-2} dx dy (real s)."""
    eng = petersson_engine(f.weight, refine)
    return _norm_f_estar_on(eng, eng.form_values(f), eng.estar(s))


def _norm_f_estar_on(eng: PeterssonEngine, fv, ev) -> float:
    return eng.integrate(np.abs(fv) ** 2 * ev**2).real


def regularized_bound(pair: RankinSelbergPair, eps: float = REG_EPS) -> dict:
    """The E(., 1+eps) domination step with its constant surfaced, for the
    diagonal pair (f, f).

    unfolded = <f E(., 1+eps), f> = Gamma(k+eps)/((4pi)^{1+eps}Gamma(k))
               * L(f x f, 1+eps)/zeta(2+2eps), evaluated by the AFE.
    c_fit    = max over the quadrature range of E*(z,1/2)^2 / E(z,1+eps);
               the pointwise bound E*(z,1/2)^2 << y (1+log y)^2 makes this
               finite but its size is measured, not assumed.
    bound    = c_fit * unfolded  >=  ||f E*(., 1/2)||^2.
    An eps that takes unfolded or c_fit out of float64's finite nonzero
    range raises RangeError.
    """
    if pair.g is not pair.f:
        raise ValueError("regularized_bound takes a diagonal pair (f, f)")
    k = pair.k
    with mp.workdps(30):
        zeta2 = float(special.zeta(2 + 2 * eps))
        lam_norm = float(special.lam(2 + 2 * eps))
    eng = petersson_engine(k, 1)
    e_star_half = eng.estar(0.5)
    # past float64's range these overflow to inf or nan; the guard below
    # reports that as a RangeError, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        l_val = pair.l_value(1.0 + eps).real
        try:
            unfolded = (
                math.exp(gammaln(k + eps) - gammaln(k))
                / (4 * math.pi) ** (1 + eps)
                * l_val
                / zeta2
            )
        except OverflowError:
            unfolded = math.inf
        e_plain = eng.estar(1.0 + eps) / lam_norm
        c_fit = float(np.max(e_star_half**2 / e_plain))
    if not all(math.isfinite(v) and v != 0.0 for v in (unfolded, c_fit)):
        raise RangeError("eps = %r takes the regularized bound out of float64 range "
                         "(unfolded %g, c_fit %g)" % (eps, unfolded, c_fit))
    return {
        "eps": eps,
        "unfolded": unfolded,
        "c_fit": c_fit,
        "bound": c_fit * unfolded,
    }


def moment_row(k: int, forms=None, eps: float = REG_EPS) -> dict:
    """Central second-moment data at weight k.

    Reference form f: smallest T_2 eigenvalue (construction order).  Norms
    <g,g> come from the theta route; the Bessel ceiling from quadrature.
    Every link of the chain in the module docstring is reported.  f, each
    g and E*(., 1/2) are evaluated on the nodes once, and each form's
    diagonal pair (g, g) is built once: it gives <g, g>, and for g = f
    also L(f x f, 1/2), the regularized bound and Lambda*(f x f, 1 + eps).
    """
    if forms is None:
        forms = hecke_eigenforms(k)
    if not forms:
        raise ValueError("no cusp forms at weight %d" % k)
    f = forms[0]
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
        lam_star = pair.completed_l_normalized(0.5).real
        l_afe = lam_star * rescale
        norm_g = g_pair.norm_theta()
        s_k += l_afe**2
        bessel_sum += lam_star**2 / norm_g
        gv = fv if g is f else eng.form_values(g)
        quad = _pairing(eng, fv, gv, e_half).real
        central.append(
            {
                "g_index": g.index,
                "L_afe": l_afe,
                "L_period": quad * rescale,
                "norm_g": norm_g,
            }
        )
    ceiling = _norm_f_estar_on(eng, fv, e_half)
    reg = regularized_bound(f_pair, eps=eps)
    backbone_tail = f_pair.completed_l_normalized(1.0 + eps).real
    return {
        "k": k,
        "dim": len(forms),
        "S_k": s_k,
        "bessel_sum": bessel_sum,
        "norm_fE": ceiling,
        "bessel_slack": (ceiling - bessel_sum) / ceiling,
        "reg_unfolded": reg["unfolded"],
        "reg_c_fit": reg["c_fit"],
        "reg_bound": reg["bound"],
        "lambda_star_1pe": backbone_tail,
        "central_values": central,
    }


def moment_sweep(weights, forms_by_k=None, eps: float = REG_EPS) -> list:
    """Rows for each weight plus cumulative log-log slope of S(k)."""
    rows = []
    logs = []
    for k in weights:
        forms = None if forms_by_k is None else forms_by_k.get(k)
        row = moment_row(k, forms=forms, eps=eps)
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
