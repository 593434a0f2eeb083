"""Aggregate-interference moments and the Gamma fit, and the field's
Laplace transform that the tests take as the exact law (conftest.FieldLaw).

Everything here is analytic except the frozen Monte Carlo oracle for the
Laplace transform: those reference means/standard errors were produced once
by a 10^6-realization field simulation (seed 20250825, tail epsilon 1e-4)
and are hardcoded so the test stays fast and independent of the sampler.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fdcap.interference import gamma_fit, mean_interference, second_moment
from conftest import FieldLaw, make_cfg, mc_annulus

M_GRID = [0.5, 1.0, 2.0, 4.0]
ETA_GRID = [2.5, 3.0, 4.0, 6.0]


def shape_closed_form(m: float, eta: float) -> float:
    return 4.0 * m * (eta - 1.0) / ((m + 1.0) * (eta - 2.0) ** 2)


def far_field(cfg) -> FieldLaw:
    """conftest.FieldLaw on [r0, 1e12 r0]: the field beyond holds the share
    1e-12^(eta-2) of the mean, 1e-6 at eta = 2.5."""
    r0 = cfg.r0
    return FieldLaw(cfg, r0, 1e12 * r0)


def transform(field: FieldLaw, s: float) -> float:
    """E[exp(-s I)] under the field law."""
    return math.exp(field.log_laplace(s))


def numerical_moment(cfg, n: int) -> float:
    """n-th moment (n in {1, 2}) of I from its transform at s = 0.

    Independent of the closed-form moments: 4th-order central differences
    of the field law's transform (analytic for small s < 0 too), step
    scaled to 1/E[I], Richardson-extrapolated across steps h and h/2, which
    must agree to 1e-3 relative.
    """
    field = far_field(cfg)
    h = 1e-3 / mean_interference(cfg)

    def lt(s: float) -> float:
        return transform(field, s)

    def stencil(step: float) -> float:
        if n == 1:
            return -(lt(-2 * step) - 8.0 * lt(-step) + 8.0 * lt(step)
                     - lt(2 * step)) / (12.0 * step)
        return (-lt(-2 * step) + 16.0 * lt(-step) - 30.0
                + 16.0 * lt(step) - lt(2 * step)) / (12.0 * step * step)

    coarse = stencil(h)
    fine = stencil(h / 2.0)
    assert abs(coarse - fine) <= 1e-3 * abs(fine), (coarse, fine)
    return fine + (fine - coarse) / 15.0


# -------------------------------------------------------------------- moments

def test_mean_reference_value():
    # lambda = 5/km^2, P_BS = 10 W, eta = 4, unit-mean fading
    cfg = make_cfg(lam=5e-6, p_bs=10.0)
    mean = mean_interference(cfg)
    assert mean == pytest.approx(2.4674e-9, rel=1e-4, abs=0.0)
    assert mean == pytest.approx(2.0 * (math.pi * 5e-6) ** 2 * 10.0 / 2.0,
                                 rel=1e-14, abs=0.0)


@pytest.mark.parametrize("m,eta", [(1.0, 2.5), (1.0, 4.0), (2.7, 3.0),
                                   (0.5, 2.5), (2.0, 3.0), (4.0, 6.0)])
def test_mean_matches_campbell_quadrature(m, eta):
    # independent oracle: Campbell's theorem, E[I] = int_r0^inf
    # 2 pi lambda p_bs Omega r^(1-eta) dr, integrated numerically after
    # the substitution u = r0/r (QUADPACK's raw semi-infinite transform
    # loses digits on steep power laws)
    cfg = make_cfg(lam=3e-5, p_bs=2.0, eta=eta, m_int=m, omega_int=1.3)
    r0 = cfg.r0
    val, err = quad(lambda u: 2.0 * math.pi * cfg.lam * cfg.p_bs * 1.3
                    * r0 ** (2.0 - eta) * u ** (eta - 3.0), 0.0, 1.0,
                    epsabs=1e-14, epsrel=1e-12)
    assert err < 1e-10 * val
    assert mean_interference(cfg) == pytest.approx(val, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("m,eta", [(1.0, 4.0), (0.5, 2.5), (4.0, 6.0),
                                   (0.5, 3.0), (4.0, 2.5)])
def test_second_moment_matches_campbell_quadrature(m, eta):
    # Var[I] = int 2 pi lambda p_bs^2 E[alpha^2] r^(1-2 eta) dr with
    # E[alpha^2] = Omega^2 (1 + 1/m); then E[I^2] = mean^2 + Var.
    # Same u = r0/r substitution as the mean oracle.
    om = 0.8
    cfg = make_cfg(lam=3e-5, p_bs=2.0, eta=eta, m_int=m, omega_int=om)
    r0 = cfg.r0
    e_a2 = om * om * (1.0 + 1.0 / m)
    var, err = quad(lambda u: 2.0 * math.pi * cfg.lam * cfg.p_bs ** 2 * e_a2
                    * r0 ** (2.0 - 2.0 * eta) * u ** (2.0 * eta - 3.0),
                    0.0, 1.0, epsabs=1e-16, epsrel=1e-12)
    ref = mean_interference(cfg) ** 2 + var
    assert err < 1e-10 * var
    assert second_moment(cfg) == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_silent_downlink_has_no_interference():
    cfg = make_cfg(p_bs=0.0)
    assert mean_interference(cfg) == 0.0
    assert second_moment(cfg) == 0.0


def test_mean_scalings():
    base = make_cfg(lam=5e-6, p_bs=10.0)
    assert mean_interference(make_cfg(lam=5e-6, p_bs=20.0)) == pytest.approx(
        2.0 * mean_interference(base), rel=1e-14, abs=0.0)
    # at eta = 4 the mean goes like lambda^2
    assert mean_interference(make_cfg(lam=2e-5, p_bs=10.0)) == pytest.approx(
        16.0 * mean_interference(base), rel=1e-14, abs=0.0)


def test_mean_insensitive_to_fading_shape():
    # E[I] depends on the fading only through its mean
    assert (mean_interference(make_cfg(m_int=0.5))
            == mean_interference(make_cfg(m_int=4.0)))


@pytest.mark.parametrize("m", M_GRID)
@pytest.mark.parametrize("eta", ETA_GRID)
def test_second_moment_exceeds_squared_mean(m, eta):
    cfg = make_cfg(eta=eta, m_int=m)
    assert second_moment(cfg) > mean_interference(cfg) ** 2


def test_explicit_radius_reduces_to_default():
    cfg = make_cfg(lam=5e-6, p_bs=20.0)
    r0 = cfg.r0
    assert mean_interference(cfg, r_min=r0) == pytest.approx(
        mean_interference(cfg), rel=1e-12, abs=0.0)
    assert second_moment(cfg, r_min=r0) == pytest.approx(
        second_moment(cfg), rel=1e-12, abs=0.0)


def test_exclusion_radius_power_laws():
    cfg = make_cfg(eta=4.0)
    r0 = cfg.r0
    # mean ~ r_min^(2-eta), variance ~ r_min^(2-2 eta)
    assert (mean_interference(cfg, r_min=2.0 * r0)
            == pytest.approx(2.0 ** -2 * mean_interference(cfg, r_min=r0),
                             rel=1e-12, abs=0.0))
    var_r0 = second_moment(cfg, r_min=r0) - mean_interference(cfg, r_min=r0) ** 2
    var_2r0 = second_moment(cfg, r_min=2.0 * r0) - mean_interference(cfg, r_min=2.0 * r0) ** 2
    assert var_2r0 == pytest.approx(2.0 ** -6 * var_r0, rel=1e-10, abs=0.0)


# ----------------------------------------------------------------- transform

def test_lt_at_zero_and_bounds():
    field = far_field(make_cfg(lam=5e-6, p_bs=10.0))
    assert transform(field, 0.0) == 1.0
    values = [transform(field, s) for s in np.logspace(6, 10, 9)]
    assert all(0.0 < v <= 1.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lt_degenerate_cases():
    # a silent downlink adds no interference at any s
    assert transform(far_field(make_cfg(p_bs=0.0)), 1e9) == 1.0


def test_lt_against_frozen_mc_oracle():
    cfg = make_cfg(lam=5e-6, p_bs=10.0)
    mean = mean_interference(cfg)
    eps = 1e-4  # tail mass the frozen run truncated at
    field = FieldLaw(cfg, *mc_annulus(cfg, eps))
    oracle = {  # s -> (MC mean of exp(-s I), standard error), n = 1e6
        1e8: (0.7952191035806628, 1.3373179254774604e-4),
        3e8: (0.5425384815067104, 2.1706647357886427e-4),
        1e9: (0.2065205795327440, 1.8806983736165540e-4),
    }
    for s, (mc_mean, mc_se) in oracle.items():
        # 3 sigma plus the first-order bound on the truncation bias s*E[tail]
        tol = 3.0 * mc_se + s * eps * mean
        assert abs(transform(field, s) - mc_mean) <= tol


def test_lt_derivative_recovers_mean():
    # -dL/ds at s=0 is E[I]; one-sided differences + Richardson on s >= 0
    cfg = make_cfg(lam=5e-6, p_bs=10.0, m_int=2.0)
    field = far_field(cfg)
    mean = mean_interference(cfg)
    h = 1e-3 / mean
    d1 = (1.0 - transform(field, h)) / h
    d2 = (1.0 - transform(field, h / 2.0)) / (h / 2.0)
    assert 2.0 * d2 - d1 == pytest.approx(mean, rel=1e-4, abs=0.0)


@pytest.mark.parametrize("m,eta", [(0.5, 2.5), (1.0, 4.0), (2.0, 3.0), (4.0, 6.0)])
def test_numerical_first_moment(m, eta):
    cfg = make_cfg(eta=eta, m_int=m, omega_int=0.9, p_bs=3.0)
    assert numerical_moment(cfg, 1) == pytest.approx(mean_interference(cfg),
                                                     rel=1e-4, abs=0.0)


@pytest.mark.parametrize("m,eta", [(1.0, 4.0), (0.5, 3.0), (4.0, 2.5)])
def test_numerical_second_moment(m, eta):
    cfg = make_cfg(eta=eta, m_int=m)
    assert numerical_moment(cfg, 2) == pytest.approx(second_moment(cfg),
                                                     rel=1e-3, abs=0.0)


# ----------------------------------------------------------------- gamma fit

def test_fit_shape_reference_value():
    fit = gamma_fit(make_cfg(m_int=1.0, eta=4.0))
    assert fit.shape == pytest.approx(1.5, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("m", M_GRID)
@pytest.mark.parametrize("eta", ETA_GRID)
def test_fit_shape_closed_form(m, eta):
    fit = gamma_fit(make_cfg(m_int=m, eta=eta))
    assert fit.shape == pytest.approx(shape_closed_form(m, eta),
                                            rel=5e-15, abs=0.0)


def test_fit_shape_bit_identical_across_scale_parameters():
    # the shape is a closed form in m and eta alone, so lambda / p_bs /
    # Omega never enter — equality down to the last bit, not within epsilon
    ref = gamma_fit(make_cfg()).shape
    for lam in (1e-6, 5e-5, 7.3e-4):
        for p_bs in (0.05, 1.0, 20.0, 173.0):
            for om in (0.1, 1.0, 11.0):
                cfg = make_cfg(lam=lam, p_bs=p_bs, omega_int=om)
                assert gamma_fit(cfg).shape == ref


def test_fit_matches_both_moments():
    for m, eta in [(0.5, 2.5), (1.0, 4.0), (4.0, 6.0)]:
        cfg = make_cfg(m_int=m, eta=eta)
        fit = gamma_fit(cfg)
        assert fit.mean == mean_interference(cfg)
        # Gamma(shape, mean): E[X^2] = mean^2 (1 + 1/shape)
        assert fit.mean ** 2 * (1.0 + 1.0 / fit.shape) == pytest.approx(
            second_moment(cfg), rel=1e-12, abs=0.0)


def test_fit_with_radius_override():
    cfg = make_cfg(lam=5e-6, p_bs=20.0)
    fit = gamma_fit(cfg, r_min=300.0)
    mean = mean_interference(cfg, r_min=300.0)
    var = second_moment(cfg, r_min=300.0) - mean ** 2
    assert fit.mean == mean
    assert fit.shape == pytest.approx(mean * mean / var, rel=1e-12,
                                            abs=0.0)
    # at r_min = r0 the generalized route lands on the default-shape value
    r0 = cfg.r0
    assert gamma_fit(cfg, r_min=r0).shape == pytest.approx(
        gamma_fit(cfg).shape, rel=1e-12)


@pytest.mark.parametrize("m,eta", [(1.0, 4.0), (0.5, 2.5)])
@pytest.mark.parametrize("r_min", [300.0, 1e4, 1e5, 1e6])
def test_fit_shape_with_radius_override_matches_mpmath(m, eta, r_min):
    # kappa_1^2 / kappa_2 from the Campbell cumulants at 50 digits; the
    # moment route mean^2 / (E[I^2] - mean^2) cancels digits as r_min grows
    # (1.6e-8 off at r_min = 1e6 m and eta = 4)
    mpmath = pytest.importorskip("mpmath")
    cfg = make_cfg(lam=5e-6, p_bs=20.0, eta=eta, m_int=m)
    with mpmath.workdps(50):
        lam, p_bs, r, e, mm = (mpmath.mpf(v)
                               for v in (cfg.lam, cfg.p_bs, r_min, eta, m))

        def kappa(n, mark):
            return (2 * mpmath.pi * lam * p_bs ** n * mark * r ** (2 - n * e)
                    / (n * e - 2))

        ref = float(kappa(1, 1) ** 2 / kappa(2, 1 + 1 / mm))
    assert gamma_fit(cfg, r_min=r_min).shape == pytest.approx(ref, rel=1e-14,
                                                              abs=0.0)
