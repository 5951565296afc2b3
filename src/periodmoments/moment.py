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

import numpy as np
from scipy.special import gammaln

from . import special
from .eisenstein_gl2 import completed_eisenstein_f64
from .modforms import Eigenform, eval_cusp_form_f64, hecke_eigenforms
from .precision import RangeError, working_dps
from .rankin_selberg import RankinSelbergPair

__all__ = [
    "PeterssonEngine",
    "inner_product",
    "norm_quadrature",
    "unfold_check",
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


_NODE_SETS = {}


def _node_set(ymax: float, refine: int):
    """(x, y, w0, estar memo) for the strip below ymax and the lune.

    w0 carries dx dy without the measure factor.  Every engine with the
    same ymax and refine (all k <= 22 have ymax = 10) shares these arrays
    and the memo of E*(., s) on them, which depends only on the nodes and s.
    """
    key = (ymax, refine)
    if key not in _NODE_SETS:
        nx, ny = STRIP_X_POINTS * refine, STRIP_Y_POINTS * refine
        mx, my = LUNE_X_POINTS * refine, LUNE_Y_POINTS * refine
        # strip
        xs = -0.5 + (np.arange(nx) + 0.5) / nx
        wx = np.full(nx, 1.0 / nx)
        gl_u, gl_wu = np.polynomial.legendre.leggauss(ny)
        umax = math.log(ymax)
        uu = umax / 2 * (gl_u + 1.0)
        ys = np.exp(uu)
        wy = gl_wu * umax / 2 * ys  # du -> dy jacobian
        X1, Y1 = np.meshgrid(xs, ys, indexing="ij")
        W1 = np.outer(wx, wy)
        # lune
        gl_x, gl_wx = np.polynomial.legendre.leggauss(mx)
        gl_y, gl_wy = np.polynomial.legendre.leggauss(my)
        cols_x, cols_y, cols_w = [], [], []
        for xv, xwv in zip(gl_x / 2, gl_wx / 2):
            y0 = math.sqrt(1.0 - xv * xv)
            mid, half = (1.0 + y0) / 2, (1.0 - y0) / 2
            cols_x.append(np.full(my, xv))
            cols_y.append(mid + half * gl_y)
            cols_w.append(gl_wy * half * xwv)
        arrays = [np.concatenate(parts) for parts in
                  ([X1.ravel()] + cols_x, [Y1.ravel()] + cols_y, [W1.ravel()] + cols_w)]
        for a in arrays:
            a.flags.writeable = False
        _NODE_SETS[key] = (*arrays, {})
    return _NODE_SETS[key]


@dataclass
class PeterssonEngine:
    """Quadrature nodes/weights for weight-k Petersson integrals.

    Weights fold in the measure factor y^{k-2}; Ymax grows with k so the
    mass peak of |f|^2 y^k near y ~ k/4pi stays interior.  refine scales
    every node count for convergence probes.  Weights that overflow
    float64 (k >~ 190) raise RangeError.
    """

    k: int
    refine: int = 1
    x: np.ndarray = field(init=False, repr=False)
    y: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)
    _estar: dict = field(init=False, repr=False)

    def __post_init__(self):
        k = self.k
        ymax = max(10.0, (k + 40.0) / (2 * math.pi))
        self.x, self.y, w0, self._estar = _node_set(ymax, self.refine)
        with np.errstate(over="ignore"):
            self.w = w0 * self.y ** (k - 2)
        if not np.all(np.isfinite(self.w)):
            raise RangeError(
                "Petersson weights y^(k-2) overflow float64 at k=%d (ymax %.3g)" % (k, ymax)
            )

    def integrate(self, values: np.ndarray) -> complex:
        """Weighted sum over the nodes; values evaluated at (self.x, self.y)."""
        return complex(np.sum(values * self.w))

    def estar(self, s: float) -> np.ndarray:
        """E*(., s) at the nodes for real s; evaluated once per node set
        and s (see _node_set), read-only."""
        s = float(s)
        if s not in self._estar:
            ev = completed_eisenstein_f64(self.x, self.y, s)
            ev.flags.writeable = False
            self._estar[s] = ev
        return self._estar[s]


_ENGINES = {}


def _engine(k: int, refine: int = 1) -> PeterssonEngine:
    key = (k, refine)
    if key not in _ENGINES:
        _ENGINES[key] = PeterssonEngine(k, refine)
    return _ENGINES[key]


def _pairing(eng: PeterssonEngine, fv, gv, hv=None) -> complex:
    # one operation order for every <f h, g> from grid values, so callers
    # that reuse f, g or h on the nodes get bit-identical sums
    vals = fv * np.conjugate(gv)
    if hv is not None:
        vals = vals * hv
    return eng.integrate(vals)


def _inner_on(eng: PeterssonEngine, f, g, hv=None) -> complex:
    fv = eval_cusp_form_f64(f, eng.x, eng.y)
    gv = fv if g is f else eval_cusp_form_f64(g, eng.x, eng.y)
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

    coarse = on(_engine(f.weight, refine))
    if not with_error:
        return coarse
    fine = on(_engine(f.weight, 2 * refine))
    return fine, abs(fine - coarse)


def norm_quadrature(f: Eigenform) -> float:
    """<f, f>_k over the fundamental domain."""
    return inner_product(f).real


def _gamma_k_over_gamma_half(k: int) -> float:
    """Gamma(k) (2pi)^{2s} / (Gamma(s+k-1)Gamma(s)) at s = 1/2."""
    return math.exp(gammaln(k) - gammaln(k - 0.5)) * 2 * math.pi / math.sqrt(math.pi)


def unfold_check(f: Eigenform, g: Eigenform, s: float, refine: int = 1) -> dict:
    """Quadrature <f E*(., s), g> against Lambda*(f x g, s) from the AFE."""
    if f.weight != g.weight:
        raise ValueError("forms must share a weight")
    eng = _engine(f.weight, refine)
    quad = _inner_on(eng, f, g, eng.estar(s)).real
    afe = RankinSelbergPair(f, g).completed_l_normalized(s).real
    rel = abs(quad - afe) / max(abs(afe), 1e-300)
    return {"quadrature": quad, "afe": afe, "rel_err": rel}


def norm_f_estar(f: Eigenform, s: float = 0.5, refine: int = 1) -> float:
    """||f E*(., s)||^2 = int |f|^2 E*(z,s)^2 y^{k-2} dx dy (real s)."""
    eng = _engine(f.weight, refine)
    return _norm_f_estar_on(eng, eval_cusp_form_f64(f, eng.x, eng.y), eng.estar(s))


def _norm_f_estar_on(eng: PeterssonEngine, fv, ev) -> float:
    return eng.integrate(np.abs(fv) ** 2 * ev**2).real


def regularized_bound(f: Eigenform, eps: float = REG_EPS) -> dict:
    """The E(., 1+eps) domination step with its constant surfaced.

    unfolded = <f E(., 1+eps), f> = Gamma(k+eps)/((4pi)^{1+eps}Gamma(k))
               * L(f x f, 1+eps)/zeta(2+2eps), evaluated by the AFE.
    c_fit    = max over the quadrature range of E*(z,1/2)^2 / E(z,1+eps);
               the pointwise bound E*(z,1/2)^2 << y (1+log y)^2 makes this
               finite but its size is measured, not assumed.
    bound    = c_fit * unfolded  >=  ||f E*(., 1/2)||^2.
    """
    k = f.weight
    pair = RankinSelbergPair(f)
    l_val = pair.l_value(1.0 + eps).real
    with working_dps(30):
        zeta2 = float(special.zeta(2 + 2 * eps))
        lam_norm = float(special.lam(2 + 2 * eps))
    unfolded = (
        math.exp(gammaln(k + eps) - gammaln(k))
        / (4 * math.pi) ** (1 + eps)
        * l_val
        / zeta2
    )
    eng = _engine(k)
    e_star_half = eng.estar(0.5)
    e_plain = eng.estar(1.0 + eps) / lam_norm
    c_fit = float(np.max(e_star_half**2 / e_plain))
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
    g and E*(., 1/2) are evaluated on the nodes once.
    """
    if forms is None:
        forms = hecke_eigenforms(k)
    if not forms:
        raise ValueError("no cusp forms at weight %d" % k)
    f = forms[0]
    eng = _engine(k)
    fv = eval_cusp_form_f64(f, eng.x, eng.y)
    e_half = eng.estar(0.5)
    rescale = _gamma_k_over_gamma_half(k)
    s_k = 0.0
    bessel_sum = 0.0
    central = []
    for g in forms:
        pair = RankinSelbergPair(f, g)
        lam_star = pair.completed_l_normalized(0.5).real
        l_afe = lam_star * rescale
        norm_g = RankinSelbergPair(g).norm_theta()
        s_k += l_afe**2
        bessel_sum += lam_star**2 / norm_g
        gv = fv if g is f else eval_cusp_form_f64(g, eng.x, eng.y)
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
    reg = regularized_bound(f, eps=eps)
    backbone_tail = RankinSelbergPair(f).completed_l_normalized(1.0 + eps).real
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
