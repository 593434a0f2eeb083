"""Special functions: identities, frozen high-precision fixtures, properties.

The fixture values below were generated once with mpmath at 50 decimal
digits (brute-force series / mp.betainc) and frozen; the library is never
consulted to produce its own expected values.  The beta function is the one
the analytic layer uses, BetaPrimeDist.log_beta.  The regularized incomplete
beta is checked through the part of it that the library runs: the
continued fraction specfun._beta_cf, which gives powercontrol.avg_power's
closed form, times mpmath's prefactor.  specfun.gammainc, validate's Gamma
cdf, is held to mpmath as well.
"""
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta as sp_beta
from scipy.special import gammaincinv, hyp2f1

from fdcap._integrate import NumericsError
from fdcap.cinr import BetaPrimeDist
from fdcap.specfun import EvalResult, _beta_cf, gammainc, hyper_3f2

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

# (a1, a2, a3, b1, b2, z, 50-digit reference): the capacity pattern
# 3F2(mI, mI, m0+mI; 1+mI, 1+mI; z), written out in full
FIX_3F2 = [
    (1.5, 1.5, 3.5, 2.5, 2.5, -10.0, 0.0511712415968985564339),
    (1.5, 1.5, 3.5, 2.5, 2.5, -0.79, 0.4832993895883186406197),
    (1.5, 1.5, 3.5, 2.5, 2.5, -2.0, 0.2553580860102019412577),
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
    """I_x(a, b) for 0 <= x <= 1 as x^a (1-x)^b / (a B(a, b)), mpmath's,
    times avg_power's continued fraction specfun._beta_cf(a, b, x); above
    the fraction's switch (a+1)/(a+b+2), 1 - I_(1-x)(b, a) the same way."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x_mp = mpmath.mpf(x)
        front = x_mp ** a * (1 - x_mp) ** b / mpmath.beta(a, b)
        if x > (a + 1.0) / (a + b + 2.0):
            return float(1 - front / b * _beta_cf(b, a, 1.0 - x)[0])
        return float(front / a * _beta_cf(a, b, x)[0])


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
    # is measured: 7.2e-16 worst over these draws (2.9e-15 for scipy's)
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


def test_reg_inc_beta_meets_mpmath_on_a_seeded_grid():
    # shapes log-uniform in [0.05, 1e3]; x uniform, log-uniform towards 0,
    # within 1e-12 .. 0.5 of 1, and about the mean, so that both sides of
    # the continued fraction's switch (a+1)/(a+b+2) are drawn: 1e-13
    # relative wherever I_x is above 1e-300 (4.2e-14 worst over the 551
    # draws compared)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261020)
    sides = set()
    with mpmath.workdps(40):
        for n in range(600):
            a, b = np.exp(rng.uniform(math.log(0.05), math.log(1e3), 2))
            a, b = float(a), float(b)
            sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
            x = float((rng.uniform(),
                       10.0 ** rng.uniform(-12.0, 0.0),
                       1.0 - 10.0 ** rng.uniform(-12.0, -0.3),
                       min(max(a / (a + b) + 3.0 * sd * rng.normal(), 1e-300),
                           1.0 - 2.0 ** -53))[n % 4])
            ref = mpmath.betainc(a, b, 0, x, regularized=True)
            if ref < mpmath.mpf("1e-300"):
                continue
            sides.add(x > (a + 1.0) / (a + b + 2.0))
            err = float(abs(reg_inc_beta(a, b, x) - ref) / ref)
            assert err <= 1e-13, (a, b, x, err)
    assert sides == {False, True}


def test_shift_identity_of_the_incomplete_beta():
    # I_x(a+1, b-1) = I_x(a, b) - x^a (1-x)^(b-1)/(a B(a, b)), the step from
    # the closed form's two incomplete betas to avg_power's one fraction:
    # to 1e-13 of the larger side, with the power term from mpmath
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261021)
    with mpmath.workdps(40):
        for _ in range(300):
            a = float(np.exp(rng.uniform(math.log(0.05), math.log(1e3))))
            b = 1.0 + float(np.exp(rng.uniform(math.log(0.05),
                                               math.log(1e3))))
            x = float(rng.uniform())
            term = float(mpmath.mpf(x) ** a * (1 - mpmath.mpf(x)) ** (b - 1)
                         / (a * mpmath.beta(a, b)))
            lhs, rhs = reg_inc_beta(a + 1.0, b - 1.0, x), reg_inc_beta(a, b, x)
            assert abs(lhs - (rhs - term)) <= 1e-13 * max(rhs, term), \
                (a, b, x)


def test_gamma_cdf_meets_mpmath_between_the_extreme_quantiles():
    # shapes log-uniform in [0.05, 1e3], x at the 1e-6 and 1 - 1e-12
    # quantiles and at quantiles log-uniform towards both: 1e-14 absolute
    # (7.8e-15 worst), and each value the same float alone as
    # in the whole array
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261022)
    with mpmath.workdps(40):
        for _ in range(150):
            s = float(np.exp(rng.uniform(math.log(0.05), math.log(1e3))))
            q = np.concatenate([[1e-6, 1.0 - 1e-12],
                                10.0 ** rng.uniform(-6.0, 0.0, 6),
                                1.0 - 10.0 ** rng.uniform(-12.0, 0.0, 6)])
            x = gammaincinv(s, q)
            got = gammainc(s, x)
            for xi, gi in zip(x, got):
                ref = mpmath.gammainc(s, 0, float(xi), regularized=True)
                assert abs(gi - ref) <= 1e-14, (s, xi)
                assert gammainc(s, [xi])[0] == gi


def test_gamma_cdf_ends():
    assert gammainc(1.5, [0.0])[0] == 0.0
    for s in (0.3, 50.0):
        assert gammainc(s, [1e6, 1e300, np.inf]).tolist() == [1.0] * 3
    # the exponential law
    x = np.array([1e-8, 0.3, 2.0, 30.0])
    assert gammainc(1.0, x) == pytest.approx(-np.expm1(-x), rel=1e-14,
                                             abs=0.0)


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
    # the incomplete beta is monotone only to within its last ulps near 1:
    # at the pinned example scipy's read 1 - 1.1e-16 at x and 1 - 2.2e-16
    # at x + dx
    assert reg_inc_beta(a, b, x) <= (reg_inc_beta(a, b, min(x + dx, 0.999))
                                     + 2.0 * math.ulp(1.0))


# ------------------------------------------------------- scipy.special.hyp2f1
# the reference for hyper_3f2 at m0 = 1, where it is 2F1(mI, mI; 1 + mI; z),
# on frozen fixtures and identities

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


# ----------------------------------------------------------------- hyper_3f2

def test_3f2_empty_series():
    r = hyper_3f2(1.5, 2.0, 0.0)
    assert r.value == 1.0
    assert r.method == "series"


@pytest.mark.parametrize("z", [-0.3, -3.0])
def test_3f2_upper_lower_cancellation(z):
    # at m0 = 1, a3 = m0 + mI = b2 cancels term by term, leaving
    # 2F1(mI, mI; 1 + mI; z)
    r = hyper_3f2(1.2, 1.0, z)
    assert r.ok
    assert r.value == pytest.approx(hyp2f1(1.2, 1.2, 2.2, z), rel=1e-9)


@pytest.mark.parametrize("a1,a2,a3,b1,b2,z,ref", FIX_3F2)
def test_3f2_fixtures(a1, a2, a3, b1, b2, z, ref):
    assert a1 == a2 and b1 == b2 == 1.0 + a1
    check_eval(hyper_3f2(a1, a3 - a1, z), ref)


def test_3f2_dual_method_cross_check():
    # the shipped path at z = -10 is the integral representation; the frozen
    # reference was produced by series continuation at 50 digits — the two
    # independent routes must agree
    r = hyper_3f2(1.5, 2.0, -10.0)
    assert r.method == "integral-representation"
    assert r.value == pytest.approx(0.0511712415968985564339, rel=1e-8)


def test_3f2_methods():
    assert hyper_3f2(1.5, 2.0, -2.0).method == "integral-representation"


def test_3f2_just_inside_the_unit_disk():
    # a0/k just below 1 at (m_I, m0) = (2.41, 3.44), where the direct
    # series needs more than 1e5 terms
    r = hyper_3f2(2.41, 3.44, -0.99958)
    check_eval(r, 0.1482193159985727386391)


def test_3f2_matches_mpmath_on_the_capacity_pattern():
    # 3F2(mI, mI, m0+mI; 1+mI, 1+mI; z) as the capacity closed form takes
    # it: m_I log-uniform in [0.05, 300], m0 in [0.3, 6] or, on every other
    # draw, an integer in 1..6, z log-uniform in [-1e14, -1e-8], and two
    # pinned points: m_I = 40.94, where a 2F1 under an Euler integral once
    # erred by 2.6e-10, and one near 1e-296, below where QUADPACK floors
    # its error estimate at the roundoff.  Every draw whose value is in the
    # normal range must evaluate, within its own error estimate and 1e-11
    # of mpmath (3.8e-13 worst over 2 400 draws of six seeds)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20151216)
    n = 240
    draws = [(10.0 ** float(lg_mi), float(m0_int) if k % 2 else float(m0),
              -10.0 ** float(lz))
             for k, (lg_mi, m0, m0_int, lz) in enumerate(zip(
                 rng.uniform(math.log10(0.05), math.log10(300.0), n),
                 rng.uniform(0.3, 6.0, n), rng.integers(1, 7, n),
                 rng.uniform(-8.0, 14.0, n)))]
    draws += [(40.94, 1.439, -2.72),
              (178.64918382219867, 0.8740842579629673, -45.46911529397643)]
    bad, n_normal = [], 0
    with mpmath.workdps(30):
        for m_i, m0, z in draws:
            ref = float(mpmath.hyp3f2(m_i, m_i, m0 + m_i, 1.0 + m_i,
                                      1.0 + m_i, z))
            if not sys.float_info.min <= abs(ref) <= sys.float_info.max:
                continue
            n_normal += 1
            r = hyper_3f2(m_i, m0, z)
            dev = abs(r.value - ref)
            if not (r.ok and dev <= 1e-11 * abs(ref)
                    and dev <= r.abs_error_estimate):
                bad.append((m_i, m0, z, r, ref))
    assert n_normal > 200
    assert not bad, bad


@pytest.mark.parametrize("m_i, m0, z",
                         [(30.474297455069795, 4.0, -24170008798.10369),
                          (26.611139418844306, 6.0, -554010437769.2715)])
def test_3f2_below_the_normal_doubles_is_flagged(m_i, m0, z):
    # mpmath puts these at 4.39089e-318 and 1.11513e-315: subnormal values
    # with a few digits left, whose error estimates underflow to 0.  One
    # came out 3e-5 off with an estimate of 0 and ok=True.
    r = hyper_3f2(m_i, m0, z)
    assert not r.ok
    assert math.isnan(r.value)
    assert r.abs_error_estimate == math.inf


def test_3f2_at_minus_infinity_is_flagged():
    # -a0/k is -inf where k is subnormal; no quadrature is tried
    r = hyper_3f2(1.5, 2.0, -math.inf)
    assert not r.ok
    assert math.isnan(r.value)


def test_3f2_domain():
    with pytest.raises(ValueError):
        hyper_3f2(1.0, 1.5, 0.5)    # positive axis
    with pytest.raises(ValueError):
        hyper_3f2(0.0, 1.5, -0.5)   # a shape that is not positive
    with pytest.raises(ValueError):
        hyper_3f2(1.0, -2.0, -0.5)


# ------------------------------------------------------------------- errors

def test_numerics_error_carries_stage():
    err = NumericsError("some_stage", "did not converge")
    assert err.stage == "some_stage"
    assert "some_stage" in str(err)


def test_hyper_3f2_flags_each_element_of_an_array():
    # z across -1 (with and without the second piece), the series' exact 0,
    # and -inf, which is unavailable: each element is the one-element call,
    # and the unavailable one leaves its neighbours their values
    z = np.array([-1e3, -2.0, -1.0, -0.5, 0.0, -np.inf, -3.3e7, -1e-9])
    got = hyper_3f2(1.5, 2.0, z)
    assert got.method == "integral-representation"
    assert got.ok.tolist() == [True] * 5 + [False, True, True]
    for i, zi in enumerate(z.tolist()):
        one = hyper_3f2(1.5, 2.0, zi)
        assert bool(got.ok[i]) is one.ok
        for field in ("value", "abs_error_estimate", "log_scaled"):
            a, b = float(getattr(got, field)[i]), getattr(one, field)
            assert a == b or math.isnan(a) and math.isnan(b), (zi, field)
    assert hyper_3f2(1.5, 2.0, np.zeros(3)).method == "series"
