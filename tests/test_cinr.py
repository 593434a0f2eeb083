"""Beta-prime CINR law: its parameters, the expect kernel under its Beta
weight against scipy's beta-prime law, sampling, model accuracy.

The last two tests quantify the two layers of approximation separately:
(a) exact-model sampling (h and I drawn from the Gamma laws the formula
    assumes) — agreement here is pure numerics and is tight;
(b) full-PPP sampling — the residual is the Gamma moment-matching error
    itself, which at the interference-field reference regime (5 BS/km^2,
    20 W) sits near KS 0.09.  That mismatch is real model error, so the
    test freezes the measured bracket rather than pretending it is small.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import betainc as sp_betainc
from scipy.special import digamma
from scipy.stats import betaprime

from fdcap._integrate import NumericsError, expect, quad_strict
from fdcap.cinr import BetaPrimeDist, cinr_distribution
from fdcap.interference import gamma_fit, mean_interference
from fdcap.model import GammaParams
from conftest import ks_distance, make_cfg


def law(d: BetaPrimeDist):
    """The same law as scipy's frozen beta-prime distribution."""
    return betaprime(d.m0, d.mI, scale=1.0 / d.k)


def tail_mass(d: BetaPrimeDist, x: float) -> float:
    """P[gamma > x] by the package kernel: expect of 1 from t = kx/(1+kx)."""
    return expect(d.m0, d.mI, "test", lambda t: 1.0,
                  d.k * x / (1.0 + d.k * x))[0]


@pytest.fixture
def d_micro(micro):
    return cinr_distribution(micro, gamma_fit(micro))


# -------------------------------------------------------------- construction

def test_parameters_must_be_positive():
    with pytest.raises(ValueError):
        BetaPrimeDist(m0=0.0, mI=1.5, k=1.0)
    with pytest.raises(ValueError):
        BetaPrimeDist(m0=2.0, mI=1.5, k=-1.0)


@pytest.mark.parametrize("lam", [1e-300, 1e160])
def test_k_outside_the_doubles_is_a_named_numeric_failure(lam):
    # k scales like lambda^eta: it underflows to 0, or its path-loss factor
    # overflows a double
    cfg = make_cfg(lam=lam, omega_sig=1.0)
    with pytest.raises(NumericsError) as err:
        cinr_distribution(cfg, GammaParams(shape=1.5, mean=1.0))
    assert err.value.stage == "cinr_distribution"


def test_k_reference_value():
    # Omega0 chosen equal to the link path loss (2 sqrt(lambda))^eta, so the
    # composite gain h = alpha0/(2 sqrt(lambda))^eta has mean 1
    lam = 5e-5
    cfg = make_cfg(lam=lam, omega_sig=(2.0 * math.sqrt(lam)) ** 4.0)
    d = cinr_distribution(cfg, gamma_fit(cfg))
    assert d.k == pytest.approx(3.4232e-8, rel=1e-4)
    # and in that normalization k collapses to m0 (Omega_I + N0) / mI
    omega_i = mean_interference(cfg)
    assert d.k == pytest.approx(2.0 * (omega_i + cfg.n0) / 1.5, rel=1e-14,
                                abs=0.0)


def test_k_scales_with_interference_plus_noise(micro):
    fit = gamma_fit(micro)
    d1 = cinr_distribution(micro, fit)
    # raising the noise so that Omega_I + N0 doubles must double k
    bigger = replace(micro, n0=fit.mean + 2.0 * micro.n0)
    d2 = cinr_distribution(bigger, fit)
    assert d2.k == pytest.approx(2.0 * d1.k, rel=1e-14)
    assert (d2.m0, d2.mI) == (d1.m0, d1.mI)


def test_micro_shape_parameters(d_micro):
    assert (d_micro.m0, d_micro.mI) == (2.0, 1.5)
    assert d_micro.k == pytest.approx(0.8558003667574464, rel=1e-12)


# ------------------------------------------------------- scipy reference

def test_cdf_agrees_with_scipy_backend(d_micro):
    # the reference law the tests use, scipy's betaprime with scale 1/k, is
    # the incomplete beta at t = kx/(1 + kx): the package's parametrization
    for x in (0.01, 0.5, 2.0, 40.0):
        t = d_micro.k * x / (1.0 + d_micro.k * x)
        assert law(d_micro).cdf(x) == pytest.approx(
            float(sp_betainc(d_micro.m0, d_micro.mI, t)), abs=1e-12)


# ---------------------------------------------------------------- expect

def test_expect_integrates_against_the_beta_weight(d_micro):
    m0, mI = d_micro.m0, d_micro.mI
    assert expect(m0, mI, "test", lambda t: 1.0)[0] == \
        pytest.approx(1.0, rel=1e-10)
    assert expect(m0, mI, "test", lambda t: t)[0] == \
        pytest.approx(m0 / (m0 + mI), rel=1e-10)
    assert expect(m0, mI, "test", lambda t: 1.0, 0.3)[0] == \
        pytest.approx(1.0 - float(sp_betainc(m0, mI, 0.3)), rel=1e-10)


@pytest.mark.parametrize("m0, mI", [(2.0, 1.5), (0.7, 0.143), (3.0, 0.389)])
def test_expect_log_factors_match_digamma(m0, mI):
    # E[log t] = psi(m0) - psi(m0 + mI) and E[log(1-t)] = psi(mI) -
    # psi(m0 + mI) under Beta(m0, mI); with the shapes swapped the
    # variable is 1 - t
    log_t = digamma(m0) - digamma(m0 + mI)
    log_1mt = digamma(mI) - digamma(m0 + mI)
    for shapes, at, want in (((m0, mI), 0.0, log_t), ((m0, mI), 1.0, log_1mt),
                             ((mI, m0), 0.0, log_1mt), ((mI, m0), 1.0, log_t)):
        got, _ = expect(*shapes, "test", lambda t, lg: lg, log_at=at)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    for lo, hi, at in ((0.0, 0.5, 1.0), (0.5, 1.0, 0.5)):
        with pytest.raises(ValueError):
            expect(m0, mI, "test", lambda t: 1.0, lo, hi, log_at=at)


@pytest.mark.parametrize("weight, wvar", [(None, None), ("alg", (0.0, -0.5))])
def test_quad_strict_refuses_a_nan(weight, wvar):
    # NaN > tolerance is False, so a NaN passed the convergence test once
    with pytest.raises(NumericsError, match="non-finite") as err:
        quad_strict("test", lambda t: math.nan, 0.0, 1.0, weight=weight,
                    wvar=wvar)
    assert err.value.stage == "test"


def test_expect_on_a_window_a_few_ulps_wide(d_micro):
    # nodes on [1 - 8 ulp, 1] round onto t = 1, where log(1 - t) is
    # undefined, but the weight takes each node's distance to t = 1 exactly;
    # the window's mass stays tiny
    val, _ = expect(d_micro.m0, d_micro.mI, "test", lambda t: 1.0,
                    1.0 - 8 * 2.0 ** -53)
    assert 0.0 <= val < 1e-12


@given(st.floats(min_value=0.5, max_value=20.0),
       st.floats(min_value=0.5, max_value=20.0))
@settings(max_examples=25, deadline=None)
def test_pdf_normalizes(m0, mI):
    # the density that expect integrates against, the law in the beta
    # variable t, has unit mass for every shape pair
    total, err = expect(m0, mI, "test", lambda t: 1.0)
    assert err < 1e-9
    assert abs(total - 1.0) <= 1e-9


def test_cdf_limits_and_monotonicity(d_micro):
    assert tail_mass(d_micro, 0.0) == pytest.approx(1.0, rel=1e-10, abs=0.0)
    assert tail_mass(d_micro, 1e9 / d_micro.k) < 1e-3
    xs = np.logspace(-3, 3, 25) / d_micro.k
    vals = [tail_mass(d_micro, x) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("x_over_k", [0.3, 1.0, 3.0])
def test_cdf_derivative_is_pdf(d_micro, x_over_k):
    # the Beta weight of expect, seen through x = t/(k(1-t)), is the
    # reference density
    x = x_over_k / d_micro.k
    h = 1e-4 * x
    fd = (tail_mass(d_micro, x - h) - tail_mass(d_micro, x + h)) / (2.0 * h)
    assert fd == pytest.approx(law(d_micro).pdf(x), rel=1e-6)


def test_median_halves_the_mass(d_micro):
    med = law(d_micro).median()
    assert tail_mass(d_micro, med) == pytest.approx(0.5, abs=1e-8)
    root = brentq(lambda x: tail_mass(d_micro, x) - 0.5, 1e-6 / d_micro.k,
                  1e6 / d_micro.k, rtol=1e-14)
    assert med == pytest.approx(root, rel=1e-7)


@pytest.mark.parametrize("m0,mI,k", [(0.5, 0.5, 3.0), (8.0, 12.0, 1e-6)])
def test_median_other_shapes(m0, mI, k):
    d = BetaPrimeDist(m0, mI, k)
    assert tail_mass(d, law(d).median()) == pytest.approx(0.5, abs=1e-8)


# ------------------------------------------------------------------ sampling

def test_exact_model_sampling_recovers_the_law(micro):
    # h and I drawn from the very Gamma laws the derivation assumes: the
    # only remaining gaps are the noise mean-shift and float error, and the
    # KS distance stays at the sampling-noise floor
    cfg = make_cfg(p_bs=20.0)
    fit = gamma_fit(cfg)
    d = cinr_distribution(cfg, fit)
    path = (2.0 * math.sqrt(cfg.lam)) ** cfg.eta
    rng = np.random.default_rng(22)
    n = 200_000
    h = rng.gamma(cfg.fading_signal.shape,
                  cfg.fading_signal.scale, n) / path
    i_agg = rng.gamma(fit.shape, fit.scale, n)
    g = h / (i_agg + cfg.n0)
    assert ks_distance(g, law(d).cdf) < 0.005


def test_exact_model_median_cross_check():
    # sampled h/(I + N0) median against the analytic median at the k
    # reference point; the 2% window absorbs the noise mean-shift
    lam = 5e-5
    cfg = make_cfg(lam=lam, omega_sig=(2.0 * math.sqrt(lam)) ** 4.0)
    fit = gamma_fit(cfg)
    d = cinr_distribution(cfg, fit)
    path = (2.0 * math.sqrt(lam)) ** cfg.eta
    rng = np.random.default_rng(40)
    n = 400_000
    h = rng.gamma(cfg.fading_signal.shape, cfg.fading_signal.scale, n) / path
    i_agg = rng.gamma(fit.shape, fit.scale, n)
    g = h / (i_agg + cfg.n0)
    assert np.median(g) == pytest.approx(law(d).median(), rel=0.02)


def test_ppp_sampling_shows_the_model_error():
    # full-PPP interference at the reference regime (5 BS/km^2, 20 W): the
    # Gamma fit misses the true left tail and the CINR-level KS distance
    # sits near 0.09 — frozen as a measured bracket, not assumed small
    from fdcap.mcsim import MCConfig, interference_samples

    fig2 = make_cfg(lam=5e-6, p_bs=20.0)
    d = cinr_distribution(fig2, gamma_fit(fig2))
    path = (2.0 * math.sqrt(fig2.lam)) ** fig2.eta
    mc = MCConfig(n_samples=50_000, seed=31, tail_epsilon=1e-3)
    i_agg = interference_samples(fig2, mc)
    rng = np.random.default_rng(1031)
    h = rng.gamma(fig2.fading_signal.shape,
                  fig2.fading_signal.scale, mc.n_samples) / path
    g = h / (i_agg + fig2.n0)
    ks = ks_distance(g, law(d).cdf)
    assert 0.07 < ks < 0.12, f"measured KS {ks:.4f} left its frozen bracket"
