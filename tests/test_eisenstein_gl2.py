"""Upper-half-plane Eisenstein series: expansion, symmetries, residues.

The frozen central value was pinned by two independent routes (this
module's Fourier limit and a quadratic-form lattice sum) in an oracle
run before the module was finalized.
"""

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from periodmoments import cli
from periodmoments.eisenstein_gl2 import (
    completed_eisenstein,
    completed_eisenstein_f64,
    eisenstein,
    residue_at_one,
    residue_at_one_f64,
)
from periodmoments.precision import PoleError
from periodmoments.special import lam

# E*(0.31 + 1.37i, 1/2), 28 digits
CENTRAL_VALUE = "-1.918530492243039214048279817"
Z0 = ("0.31", "1.37")  # strings: parsed at the active working precision


def test_central_frozen_value():
    with mp.workdps(30):
        v = completed_eisenstein(Z0, mpf("0.5"))
        assert abs(v - mpf(CENTRAL_VALUE)) < mpf("1e-26")


def test_central_branch_matches_generic_limit():
    # generic-s code path approaching the center vs the snapped formula
    with mp.workdps(30):
        central = completed_eisenstein(Z0, mpf("0.5"))
        near = completed_eisenstein(Z0, mpf("0.5") + mpf("1e-9"))
        # E*'(1/2) = 0 by the functional equation, so the gap is O(h^2);
        # the generic branch also survives its 1/(2s-1) constant-term
        # cancellation this close to the center
        assert abs(central - near) < mpf("1e-14")


def test_functional_equation_complex_s():
    with mp.workdps(30):
        for s in (mpc("0.3", "0.7"), mpc("0.5", "1.9"), mpc("1.4", "-0.35")):
            a = completed_eisenstein(Z0, s)
            b = completed_eisenstein(Z0, 1 - s)
            assert abs(a - b) < mpf("1e-25") * max(1, abs(a))


def test_automorphy():
    with mp.workdps(30):
        s = mpc("0.62", "0.41")
        z = mpc(mpf("0.31"), mpf("1.37"))
        for w in (-1 / z, z + 1, (z - 1) / (1 * z + 0)):  # S, T, and S T^-1 images
            a = completed_eisenstein((mp.re(w), mp.im(w)), s)
            b = completed_eisenstein(z, s)
            assert abs(a - b) < mpf("1e-25") * max(1, abs(b))


def test_poles_raise():
    with pytest.raises(PoleError):
        completed_eisenstein(Z0, 1)
    with pytest.raises(PoleError):
        completed_eisenstein(Z0, 0)
    with pytest.raises(ValueError):
        completed_eisenstein((0.1, -2.0), 0.7)


def test_residue_of_completed_is_half():
    with mp.workdps(40):
        for z in (Z0, (mpf("-0.4"), mpf("0.8")), (mpf(0), mpf(3))):
            r = residue_at_one(z, completed=True)
            assert abs(r - mpf("0.5")) < mpf("1e-10")


def test_residue_of_unnormalized_is_three_over_pi():
    with mp.workdps(40):
        r = residue_at_one(Z0)
        assert abs(r - 3 / mp.pi) < mpf("1e-12")


def test_f64_residue_matches_the_oracle():
    # a dyadic step keeps 1 +- h exact in float64; at h = 1e-3 the offset
    # of fl(1 + h) - 1 goes through the pole and reads 1.2e-13 here
    for x, y in cli.RESIDUE_POINTS:
        want = float(residue_at_one(complex(x, y)))
        assert abs(residue_at_one_f64(x, y) - want) <= 1e-14, (x, y)


def test_center_line_vanishing_and_ratio():
    with mp.workdps(30):
        assert eisenstein(Z0, mpf("0.5")) == 0
        s = mpf("0.8")
        ratio = completed_eisenstein(Z0, s) / eisenstein(Z0, s)
        assert abs(ratio - lam(2 * s)) < mpf("1e-25") * abs(lam(2 * s))


def test_f64_matches_mp():
    xg = np.array([0.1, 0.31, -0.27])
    yg = np.array([0.9, 1.37, 2.2])
    for s_val in (0.5, 0.75, 1.1):
        got = completed_eisenstein_f64(xg, yg, s_val)
        with mp.workdps(30):
            for j in range(len(xg)):
                ref = completed_eisenstein((mpf(float(xg[j])), mpf(float(yg[j]))), mpf(s_val))
                assert abs(float(ref) - got[j]) < 5e-14 * max(1.0, abs(float(ref)))


def test_trivial_zeros_are_not_poles():
    # at s = 2, 3 (and -1, -2) the constant term reads Lambda(-2) and
    # Lambda(-4), finite by the functional equation of zeta
    with mp.workdps(30):
        for s in (2, 3):
            a = completed_eisenstein(Z0, mpf(s))
            b = completed_eisenstein(Z0, mpf(1 - s))
            assert abs(a - b) < mpf("1e-25") * abs(a)
    xg = np.array([0.1, 0.31, -0.27])
    yg = np.array([0.9, 1.37, 2.2])
    got = completed_eisenstein_f64(xg, yg, 2.0)
    with mp.workdps(30):
        for j in range(len(xg)):
            ref = completed_eisenstein((mpf(float(xg[j])), mpf(float(yg[j]))), mpf(2))
            assert abs(float(ref) - got[j]) < 5e-14 * abs(float(ref))


def test_f64_pole_guards():
    with pytest.raises(PoleError):
        completed_eisenstein_f64(np.array([0.0]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        completed_eisenstein_f64(np.array([0.0]), np.array([0.0]), 0.7)


# heights 0.3 to 10, and s near the pole, at the center, at the trivial
# zeros s = 2, 3, off the real line and on the critical line
ROUTE_POINTS = [("0.31", "0.3"), ("0.1", "1.37"), ("-0.27", "2.2"), ("0.45", "10")]
ROUTE_S = ["1.001", "0.999", "0.5", "0.25", "1.9", "2", "3", ("0.3", "0.7"), ("0.5", "1.9")]


# E*(z, s) at 40 digits on ROUTE_POINTS x ROUTE_S, one row per point, as
# the one-integral trapezoid tail returned it before the tail became a
# per-term besselk sum (the two agreed to 3.8e-41 relative).  A pair is
# (real, imaginary); on the critical line E* is real, and the stored value
# is the real part (its imaginary part was rounding, below 6e-42 relative)
E_STAR_ROUTE = [
    [
        "499.62887753130800790014442680159094558071",
        "-500.37214529804572768629522872300105120123",
        "-1.8744519473430335294086344732988381351952",
        "-2.5404204966198416703769124938414672840976",
        "0.44202991915419718403495776934474863027238",
        "0.40360888354275687048876667542543660296783",
        "0.3051672903160119186189313779468115018692",
        ("-0.4951578273780278293867627264877023005255", "0.24332363406998473746872713546844364735175"),
        "-0.037790848427985413932746627903425586284553",
    ],
    [
        "499.58382147344462289420714407213335611757",
        "-500.41719002340928573399491238625573270552",
        "-1.9181062743561783412250579848372556275037",
        "-2.5844200201164709378855130269560135024883",
        "0.38625893407545507650329864629267278343366",
        "0.34579976707381261189163731488357678148843",
        "0.21112982691000302222831109227134289818871",
        ("-0.53637595241120430290348614301617963466218", "0.24478502019833093552665196565863508842404"),
        "-0.065271134323957300799921802390307718493054",
    ],
    [
        "499.78132139004641989090123662858669425445",
        "-500.2197541366999744990156315938074946098",
        "-1.7284954400989047399631328215483053996336",
        "-2.392872198166945389768484943409059930542",
        "0.64599133246546988041868376421607951097999",
        "0.61772571544621915223692852286820480307275",
        "0.71502046733454851077235479599210401616669",
        ("-0.36036067371294843812765341207317432344829", "0.23671019699597829525720238603040821070949"),
        "0.038439307501045032115786125284998305516599",
    ],
    [
        "503.11044007537416354465409287567140123013",
        "-496.89485388802309094105507502609175144841",
        "1.1029281688936724196903823119174417028348",
        "0.55665581963685832197014588667105934920456",
        "9.5536702361963824348551479443565551463693",
        "10.985358442123068093595275433655505795478",
        "65.622537558542397743797400815615988383131",
        ("1.6934737946225345504268114132054803932641", "-0.17456677896083882839360679720585982884918"),
        "-0.002952011622590840757225797944664516314716",
    ],
]


def test_completed_eisenstein_frozen_route_grid():
    with mp.workdps(40):
        for z, row in zip(ROUTE_POINTS, E_STAR_ROUTE):
            for s, ref in zip(ROUTE_S, row):
                s = mpc(*s) if isinstance(s, tuple) else mpf(s)
                ref = mpc(*ref) if isinstance(ref, tuple) else mpf(ref)
                ours = completed_eisenstein(z, s)
                assert abs(ours - ref) <= mpf("1e-38") * abs(ref), (z, s)
