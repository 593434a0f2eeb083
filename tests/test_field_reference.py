"""The exact Poisson-field reference law in conftest, which acceptance
criteria 1, 3 and 4 check the simulator against.

Each piece is pinned to something independent of it: the arctan closed form
of the transform at m = 1, eta = 4; the package's closed-form moments on the
truncated annulus; an adaptive radial quadrature of the untruncated
transform; the analytic pipeline's
beta-prime quadratures (fed the Gamma law instead of the field); and direct
quadrature of the water-filling policy over the signal fading.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.stats import gamma as gamma_dist

from fdcap import capacity
from fdcap.interference import gamma_fit, mean_interference, second_moment
from fdcap.powercontrol import avg_power
from conftest import (FieldLaw, conditional_power, field_cinr, gamma_cinr,
                      make_cfg, mc_annulus, signal_scale)


def _truncated_moments(cfg, r_min, r_max):
    """E[I], E[I^2] on [r_min, r_max]: the field outside r_max removed from
    the package's closed forms (means and variances of disjoint rings add)."""
    def mean_var(r):
        mean = mean_interference(cfg, r)
        return mean, second_moment(cfg, r) - mean * mean

    (m_in, v_in), (m_out, v_out) = mean_var(r_min), mean_var(r_max)
    mean = m_in - m_out
    return mean, v_in - v_out + mean * mean


@pytest.mark.parametrize("r_max_over_r0", [7.0, 31.62])
def test_transform_matches_arctan_closed_form(r_max_over_r0):
    # m = 1, eta = 4: log L(s) = -pi lambda sqrt(sp) (atan(R^2/sqrt(sp))
    # - atan(r0^2/sqrt(sp))), valid for complex s off the negative axis
    cfg = make_cfg(p_bs=20.0)
    r0 = cfg.r0
    r_max = r_max_over_r0 * r0
    field = FieldLaw(cfg, r0, r_max)
    mu = field.cumulant(1)
    s = np.array([1e-3, 1.0, 30.0, 1e4, 1e8, -1j, -100j, -1e5j, 3.0 - 4.0j,
                  0.2 + 50j]) / mu
    q = np.sqrt(s * cfg.p_bs)
    closed = (-math.pi * cfg.lam * q
              * (np.arctan(r_max ** 2 / q) - np.arctan(r0 ** 2 / q)))
    rel = np.abs(field.log_laplace(s) - closed) / np.abs(closed)
    assert rel.max() <= 1e-10, rel


@pytest.mark.parametrize("m, eta", [(1.0, 4.0), (0.5, 2.5), (2.7, 3.0),
                                    (4.0, 6.0)])
def test_moments_match_truncated_annulus_closed_forms(m, eta):
    cfg = make_cfg(p_bs=3.0, eta=eta, m_int=m, omega_int=1.3)
    r_min, r_max = mc_annulus(cfg, 1e-3)
    field = FieldLaw(cfg, r_min, r_max)
    mean, second = _truncated_moments(cfg, r_min, r_max)
    k1, k2 = field.cumulant(1), field.cumulant(2)
    assert k1 == pytest.approx(mean, rel=1e-8, abs=0.0)
    assert k2 + k1 * k1 == pytest.approx(second, rel=1e-8, abs=0.0)
    # the cumulants are the derivatives of log L at s = 0
    assert -field.log_laplace(0.0, 1) == pytest.approx(k1, rel=1e-14, abs=0.0)
    assert field.log_laplace(0.0, 2) == pytest.approx(k2, rel=1e-14, abs=0.0)


def _radial_log_laplace(cfg, s, r_min):
    """log L(s) of the field outside r_min by adaptive quadrature: with
    t = (r_min/r)^eta and b = s Omega p_bs r_min^-eta / m,

        log L(s) = -2 pi lambda (r_min^2/eta)
                   * int_0^1 t^(-2/eta - 1) (1 - (1 + b t)^-m) dt."""
    m, om = cfg.fading_interferer.shape, cfg.fading_interferer.mean
    b = s * om * cfg.p_bs * r_min ** (-cfg.eta) / m
    ex = -2.0 / cfg.eta - 1.0
    val, err = quad(lambda t: t ** ex * -math.expm1(-m * math.log1p(b * t)),
                    0.0, 1.0, epsabs=1e-14, epsrel=1e-11, limit=200)
    assert err <= 1e-11 * val
    return -2.0 * math.pi * cfg.lam * (r_min ** 2 / cfg.eta) * val


def test_transform_matches_the_package_transform():
    # the radial quadrature of the untruncated field's transform; the field
    # beyond r_max = 1e4 r0 holds 1e-8 of the mean, and to first order it
    # adds -s * (its mean) to log L, which leaves ~(s mu)^2 1e-16
    for m in (2.3, 0.6):
        cfg = make_cfg(p_bs=2.0, m_int=m, omega_int=0.7)
        r0 = cfg.r0
        field = FieldLaw(cfg, r0, 1e4 * r0)
        mu = mean_interference(cfg)
        for s in (0.1 / mu, 1.0 / mu, 10.0 / mu):
            infinite = (field.log_laplace(s)
                        - s * mean_interference(cfg, 1e4 * r0))
            assert infinite == pytest.approx(
                _radial_log_laplace(cfg, s, r0), rel=1e-10)


def test_first_derivative_matches_finite_differences(micro):
    field = FieldLaw(micro, *mc_annulus(micro, 1e-3))
    for s in np.array([0.3, 3.0, 30.0]) / field.cumulant(1):
        h = 1e-4 * s
        fd = (field.log_laplace(s + h) - field.log_laplace(s - h)) / (2 * h)
        assert field.log_laplace(s, 1) == pytest.approx(fd, rel=1e-7, abs=0.0)


def test_cdf_inversion_recovers_the_moments():
    cfg = make_cfg(p_bs=20.0)
    field = FieldLaw(cfg, *mc_annulus(cfg, 1e-3))
    mu = field.cumulant(1)
    grid = np.linspace(0.0, 20.0 * mu, 2001)
    f = field.cdf(grid)
    assert abs(f[0]) < 1e-12  # a quiet annulus is exponentially rare
    assert 0.0 <= 1.0 - f[-1] < 1e-9
    assert np.all(np.diff(f) > -1e-12)
    # E[I] = int (1 - F), E[I^2] = int 2x (1 - F); Simpson on the grid
    assert simpson(1.0 - f, x=grid) == pytest.approx(mu, rel=1e-6, abs=0.0)
    assert simpson(2.0 * grid * (1.0 - f), x=grid) == pytest.approx(
        field.cumulant(2) + mu * mu, rel=1e-6, abs=0.0)
    interp = field.cdf_interpolant(12.0 * mu)
    mid = np.linspace(0.013, 11.9, 97) * mu
    assert np.max(np.abs(interp(mid) - field.cdf(mid))) < 1e-6


def test_cinr_ccdf_limits(micro):
    law = field_cinr(micro, *mc_annulus(micro, 1e-3))
    theta = signal_scale(micro)
    assert law.ccdf(1e-12 * theta / micro.n0) == pytest.approx(1.0, abs=1e-9)
    x = np.logspace(-3, 3, 61)
    ccdf = law.ccdf(x)
    assert np.all(np.diff(ccdf) < 0) and np.all((ccdf > 0) & (ccdf < 1))
    assert law.ccdf(1e4) < 1e-12


@pytest.mark.parametrize("kwargs", [{}, {"lam": 5e-6, "p_bs": 20.0}])
def test_cinr_law_reproduces_the_beta_prime_pipeline(kwargs):
    # fed the pipeline's own law (Gamma fit with N0 as a mean shift), the
    # CCDF integrals must give back avg_power and waterfill_rate
    cfg = make_cfg(**kwargs)
    d, sol = capacity.solve_network(cfg)
    fit = gamma_fit(cfg)
    law = gamma_cinr(cfg, fit.shape, fit.mean + cfg.n0, 0.0)
    assert law.avg_power(sol.a0) == pytest.approx(avg_power(d, sol.a0),
                                                  rel=1e-9)
    assert law.waterfill_rate(sol.a0, cfg.bandwidth) == pytest.approx(
        capacity.waterfill_rate(d, sol.a0, cfg.bandwidth), rel=1e-9)


def test_conditional_power_matches_policy_quadrature(micro):
    # integrate over u = h / theta, h ~ Gamma(m0, theta)
    _, sol = capacity.solve_network(micro)
    theta = signal_scale(micro)
    u_law = gamma_dist(micro.fading_signal.shape)
    for j in (micro.n0, 3e-8, 2e-7):
        # above the cutoff the policy (a0 - 1/gamma)^+ is a0 - 1/gamma
        direct, _ = quad(lambda u: (sol.a0 - j / (u * theta)) * u_law.pdf(u),
                         j / (sol.a0 * theta), math.inf, epsabs=0.0,
                         epsrel=1e-11)
        assert conditional_power(micro, sol.a0, j) == pytest.approx(
            direct, rel=1e-9, abs=0.0)


def test_field_law_rejects_an_unbounded_annulus(micro):
    with pytest.raises(ValueError):
        FieldLaw(micro, 1.0, math.inf)
    with pytest.raises(ValueError):
        FieldLaw(micro, 2.0, 1.0)


@pytest.mark.parametrize("kwargs, spend, field_spend", [
    ({}, 0.9601, 0.9000), ({"lam": 5e-6, "p_bs": 20.0}, 0.2985, 0.1632)])
def test_noise_mean_shift_is_part_of_the_model_error(kwargs, spend,
                                                     field_spend):
    # at the solved water level the budget holds under the fitted law; with
    # the Gamma law for I kept but N0 added exactly, part of the underspend
    # the field shows is already there
    cfg = make_cfg(**kwargs)
    _, sol = capacity.solve_network(cfg)
    fit = gamma_fit(cfg)
    exact_n0 = gamma_cinr(cfg, fit.shape, fit.mean, cfg.n0)
    field = field_cinr(cfg, *mc_annulus(cfg, 1e-3))
    assert exact_n0.avg_power(sol.a0) / cfg.p_bar == pytest.approx(
        spend, abs=1e-4)
    assert field.avg_power(sol.a0) / cfg.p_bar == pytest.approx(
        field_spend, abs=1e-4)
