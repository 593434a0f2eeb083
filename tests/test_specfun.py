"""Special functions: identities, frozen high-precision fixtures, properties.

The fixture values below were generated once with mpmath at 50 decimal
digits (brute-force series / mp.betainc) and frozen; the library is never
consulted to produce its own expected values.  The beta function and the
regularized incomplete beta are the ones the analytic layer uses:
BetaPrimeDist.log_beta, and scipy.special.betainc in powercontrol.avg_power.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta as sp_beta
from scipy.special import betainc, hyp2f1

from fdcap.cinr import BetaPrimeDist
from fdcap.specfun import EvalResult, NumericsError, _hyp2f1, hyper_3f2
from conftest import contiguous_residuals_2f1

# (a, b, c, z, 50-digit reference)
FIX_2F1 = [
    (1.5, 3.5, 2.5, -0.3, 0.5812455512567294305113),
    (0.7, 2.2, 1.9, -0.05, 0.9612864332193017294473),
    (2.0, 3.0, 4.0, -0.5, 0.5376748108081096650554),
    (1.5, 5.5, 2.5, -0.9, 0.1528940757724063766053),
    (1.5, 3.5, 2.5, -0.9375, 0.2631469981828294070808),
    (1.5, 3.5, 2.5, -50.0, 0.001130560621475901802157),
    (1.5, 3.5, 2.5, -2.0, 0.1154700538379251529018),
    (2.5, 1.5, 4.0, -8.0, 0.08621930153711388990091),
    (1.0, 1.0, 2.0, -1.0, 0.6931471805599453094172),
]

# (a1, a2, a3, b1, b2, z, 50-digit reference)
FIX_3F2 = [
    (1.5, 1.5, 3.5, 2.5, 2.5, -10.0, 0.0511712415968985564339),
    (1.5, 1.5, 3.5, 2.5, 2.5, -0.79, 0.4832993895883186406197),
    (1.5, 1.5, 3.5, 2.5, 2.5, -2.0, 0.2553580860102019412577),
    (0.8, 1.2, 2.0, 1.7, 2.6, -0.4, 0.8595408817254788803804),
    (0.8, 1.2, 2.0, 1.7, 2.6, -30.0, 0.1395526299602334426265),
    (1.5, 1.5, 3.5, 2.5, 2.5, -0.17539, 0.8162374045716492440339),
]

# (a, b, x, 50-digit reference)
FIX_REG_BETA = [
    (2.0, 1.5, 0.4, 0.2563871975281759838448),
    (1.5, 1.5, 0.999, 0.9999463316153134945036),
    (8.0, 0.7, 0.05, 1.613673611822383103378e-11),
    (0.5, 12.0, 0.9, 0.9999999999998308186669),
    (20.0, 20.0, 0.5, 0.5),
    (3.0, 7.0, 1e-06, 8.399962200075598775659e-17),
]


def check_eval(r: EvalResult, ref: float):
    """Value matches the frozen reference and the self-reported error
    estimate honestly bounds the observed deviation."""
    assert r.ok
    assert math.isfinite(r.value)
    assert r.abs_error_estimate >= 0.0
    dev = abs(r.value - ref)
    assert dev <= abs(ref) * 1e-10 + 1e-30, f"value off by {dev:g}"
    assert dev <= max(r.abs_error_estimate, 4.0 * math.ulp(abs(ref))), \
        f"estimate {r.abs_error_estimate:g} does not cover deviation {dev:g}"


def beta_fn(a: float, b: float) -> float:
    return math.exp(BetaPrimeDist(a, b, 1.0).log_beta)


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) as scipy.special.betainc gives it."""
    return float(betainc(a, b, x))


# ------------------------------------------------------------------- beta_fn

def test_beta_trivial_points():
    assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)


def test_beta_symmetry_and_domain():
    assert beta_fn(2.75, 0.4) == pytest.approx(beta_fn(0.4, 2.75), rel=1e-14)
    with pytest.raises(ValueError):
        beta_fn(0.0, 1.0)
    with pytest.raises(ValueError):
        beta_fn(1.0, -3.0)


# -------------------------------------------------------------- reg_inc_beta

def test_reg_inc_beta_endpoints_and_uniform():
    assert reg_inc_beta(2.0, 5.0, 0.0) == 0.0
    assert reg_inc_beta(2.0, 5.0, 1.0) == 1.0
    assert reg_inc_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, rel=1e-13)


def test_reg_inc_beta_vs_quadrature():
    a, b, x = 2.0, 1.5, 0.4
    val, err = quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0.0, x,
                    epsabs=1e-14, epsrel=1e-12)
    assert err < 1e-12
    assert reg_inc_beta(a, b, x) == pytest.approx(val / sp_beta(a, b), abs=1e-10)


@pytest.mark.parametrize("a,b,x,ref", FIX_REG_BETA)
def test_reg_inc_beta_fixtures(a, b, x, ref):
    assert abs(reg_inc_beta(a, b, x) - ref) <= 1e-12


def test_reg_inc_beta_matches_mpmath():
    # differential test at t = x/(1 + x), so that only the incomplete beta
    # is measured: 2.9e-15 worst over these draws
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20151215)
    worst = 0.0
    with mpmath.workdps(40):
        for a, b, x in zip(rng.uniform(0.3, 30.0, 300),
                           rng.uniform(0.3, 30.0, 300),
                           10.0 ** rng.uniform(-3.0, 3.0, 300)):
            a, b, t = float(a), float(b), float(x / (1.0 + x))
            ref = mpmath.betainc(a, b, 0, t, regularized=True)
            worst = max(worst, abs(reg_inc_beta(a, b, t) - float(ref)))
    assert worst <= 1e-14, f"worst absolute error {worst:g}"


@given(st.floats(min_value=0.1, max_value=50.0),
       st.floats(min_value=0.1, max_value=50.0),
       st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
@settings(max_examples=120, deadline=None)
def test_reg_inc_beta_symmetry(a, b, x):
    # x is kept away from the endpoints: with a shape < 1 the density blows
    # up there and amplifies the one-ulp rounding of (1 - x) past 1e-12 —
    # a float-representation limit, not an algorithm error (direct accuracy
    # at extreme x is pinned by the x = 1e-6 fixture above)
    assert abs(reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x) - 1.0) <= 1e-12


@given(st.floats(min_value=0.3, max_value=20.0),
       st.floats(min_value=0.3, max_value=20.0),
       st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.001, max_value=0.009))
@example(5.78125, 18.4375, 0.9177010366006173, 0.001953125)
@settings(max_examples=60, deadline=None)
def test_reg_inc_beta_monotone_in_x(a, b, x, dx):
    # scipy's betainc is monotone only to within its last ulps near 1: at
    # the pinned example it reads 1 - 1.1e-16 at x and 1 - 2.2e-16 at x + dx
    assert reg_inc_beta(a, b, x) <= (reg_inc_beta(a, b, min(x + dx, 0.999))
                                     + 2.0 * math.ulp(1.0))


def test_reg_inc_beta_domain():
    # outside 0 <= x <= 1 the incomplete beta is NaN, never a number; the
    # law itself refuses a zero shape
    assert math.isnan(reg_inc_beta(1.0, 1.0, -0.1))
    assert math.isnan(reg_inc_beta(1.0, 1.0, 1.1))
    with pytest.raises(ValueError):
        BetaPrimeDist(0.0, 1.0, 1.0)


# ------------------------------------------------------- scipy.special.hyp2f1
# the 2F1 that hyper_3f2 integrates, on frozen fixtures and identities

@pytest.mark.parametrize("z", [-0.05, -0.3, -1.0, -4.0])
def test_2f1_log_identity(z):
    # 2F1(1, 1; 2; z) = -ln(1-z)/z
    assert hyp2f1(1.0, 1.0, 2.0, z) == pytest.approx(-math.log1p(-z) / z,
                                                     rel=1e-12)


@pytest.mark.parametrize("a,b,c,z,ref", FIX_2F1)
def test_2f1_fixtures(a, b, c, z, ref):
    assert abs(hyp2f1(a, b, c, z) - ref) <= abs(ref) * 1e-10 + 1e-30


def test_2f1_vs_euler_integral():
    # independent oracle at a far-negative argument: the Euler integral
    # representation with (a, b) swapped so that c > b > 0 holds
    a, b, c, z = 1.5, 3.5, 2.5, -50.0
    pref = math.exp(math.lgamma(c) - math.lgamma(a) - math.lgamma(c - a))
    val, err = quad(lambda t: t ** (a - 1.0) * (1.0 - z * t) ** (-b),
                    0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
    ref = pref * val
    assert err * pref < 1e-12
    assert hyp2f1(a, b, c, z) == pytest.approx(ref, rel=1e-9)


def test_2f1_matches_mpmath_on_the_3f2_integrand_domain():
    # differential test of _hyp2f1, the 2F1 evaluator under hyper_3f2's
    # integral, on the 2F1(mI, m0 + mI; 1 + mI; x) of the capacity closed
    # form: m_I in [0.3, 12], x in [-1e14, -1e-3] log-uniform, m0 in
    # [0.3, 6] and, on every other draw, an integer m0 in 1..6.  On 129 of
    # the 833 integer-m0 draws at x < -1, scipy's hyp2f1 alone returns
    # -inf, and _hyp2f1 takes Pfaff's polynomial there.  The worst case of
    # scipy's own 2F1 sits where b - a = m0 is near an integer and x is
    # near -2..-4 (3.9e-12 in a 3000-draw scan; 1.6e-13 over these draws);
    # the specfun integrand assumes 1e-11.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20151215)
    worst = 0.0
    with mpmath.workdps(30):
        for n, (m_i, m0, m0_int, lx) in enumerate(zip(
                rng.uniform(0.3, 12.0, 2000), rng.uniform(0.3, 6.0, 2000),
                rng.integers(1, 7, 2000), rng.uniform(-3.0, 14.0, 2000))):
            m_i, x = float(m_i), -10.0 ** float(lx)
            m0 = float(m0_int) if n % 2 else float(m0)
            ref = float(mpmath.hyp2f1(m_i, m0 + m_i, 1.0 + m_i, x))
            got = _hyp2f1(m_i, m0 + m_i, 1.0 + m_i)(x)
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-11, f"worst relative error {worst:g}"


def test_2f1_contiguous_relation_residuals():
    res = contiguous_residuals_2f1(1000, seed=61421)
    assert res.max() < 1e-8, f"worst residual {res.max():g}"


# ----------------------------------------------------------------- hyper_3f2

def test_3f2_empty_series():
    r = hyper_3f2(1.5, 1.5, 3.5, 2.5, 2.5, 0.0)
    assert r.value == 1.0
    assert r.method == "series"


@pytest.mark.parametrize("z", [-0.3, -3.0])
def test_3f2_upper_lower_cancellation(z):
    # a3 = b2 cancels term by term, leaving 2F1(a1, a2; b1; z)
    r = hyper_3f2(1.2, 1.8, 3.0, 2.2, 3.0, z)
    assert r.ok
    assert r.value == pytest.approx(hyp2f1(1.2, 1.8, 2.2, z), rel=1e-9)


@pytest.mark.parametrize("a1,a2,a3,b1,b2,z,ref", FIX_3F2)
def test_3f2_fixtures(a1, a2, a3, b1, b2, z, ref):
    check_eval(hyper_3f2(a1, a2, a3, b1, b2, z), ref)


def test_3f2_dual_method_cross_check():
    # the shipped path at z = -10 is the integral representation; the frozen
    # reference was produced by series continuation at 50 digits — the two
    # independent routes must agree
    r = hyper_3f2(1.5, 1.5, 3.5, 2.5, 2.5, -10.0)
    assert r.method == "integral-representation"
    assert r.value == pytest.approx(0.0511712415968985564339, rel=1e-8)


def test_3f2_methods():
    assert hyper_3f2(1.5, 1.5, 3.5, 2.5, 2.5, -2.0).method == "integral-representation"


def test_3f2_just_inside_the_unit_disk():
    # a0/k just below 1 at (m_I, m0) = (2.41, 3.44), where the direct
    # series needs more than 1e5 terms
    r = hyper_3f2(2.41, 2.41, 5.85, 3.41, 3.41, -0.99958)
    check_eval(r, 0.1482193159985727386391)


def test_3f2_matches_mpmath_on_the_capacity_pattern():
    # 3F2(mI, mI, m0+mI; 1+mI, 1+mI; z) as the capacity closed form takes
    # it: m_I in [0.15, 12], m0 in [0.3, 6] or, on every other draw, an
    # integer in 1..6, z in [-1e14, -1e-2] log-uniform.  Every draw must
    # evaluate, within its own error estimate and 1e-11 of mpmath (4.9e-14
    # worst in a 1000-draw scan)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20151216)
    with mpmath.workdps(30):
        for n, (m_i, m0, m0_int, lz) in enumerate(zip(
                rng.uniform(0.15, 12.0, 200), rng.uniform(0.3, 6.0, 200),
                rng.integers(1, 7, 200), rng.uniform(-2.0, 14.0, 200))):
            m_i, z = float(m_i), -10.0 ** float(lz)
            m0 = float(m0_int) if n % 2 else float(m0)
            ref = float(mpmath.hyp3f2(m_i, m_i, m0 + m_i, 1.0 + m_i,
                                      1.0 + m_i, z))
            r = hyper_3f2(m_i, m_i, m0 + m_i, 1.0 + m_i, 1.0 + m_i, z)
            assert r.ok, (m_i, m0, z)
            dev = abs(r.value - ref)
            assert dev <= 1e-11 * abs(ref), (m_i, m0, z, r.value, ref)
            assert dev <= r.abs_error_estimate, (m_i, m0, z, r, ref)


def test_3f2_unavailable_is_flagged_not_guessed():
    # no (upper, lower) pair with bj > ai > 0: the far-argument integral
    # representation does not apply, and the result must say so
    r = hyper_3f2(2.0, 3.0, 4.0, 1.5, 1.2, -2.0)
    assert not r.ok
    assert math.isnan(r.value)
    assert r.abs_error_estimate == math.inf


def test_3f2_domain():
    with pytest.raises(ValueError):
        hyper_3f2(1.0, 1.0, 1.0, -2.0, 1.5, -0.5)  # lower nonpositive integer
    with pytest.raises(ValueError):
        hyper_3f2(1.0, 1.0, 1.0, 2.0, 1.5, 0.5)    # positive axis


# ------------------------------------------------------------------- errors

def test_numerics_error_carries_stage():
    err = NumericsError("some_stage", "did not converge")
    assert err.stage == "some_stage"
    assert "some_stage" in str(err)
