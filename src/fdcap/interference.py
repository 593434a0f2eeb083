"""Aggregate downlink-to-uplink interference: moments, transform, Gamma fit.

The receiving BS sits at the centre of an interference-free disc of radius
r0 = 1/sqrt(pi*lambda); every other BS is a point of a Poisson process of
intensity lambda outside that disc, transmits with power p_bs, and reaches
the centre through an independent Gamma(m, Omega) channel and path loss
r^-eta.  The aggregate

    I = sum_i p_bs * alpha_i * r_i^-eta

has, outside any exclusion radius r, the Campbell cumulants

    kappa_n(r) = 2 pi lambda p_bs^n E[alpha^n] r^(2 - n eta) / (n eta - 2),

E[alpha] = Omega, E[alpha^2] = Omega^2 (1 + 1/m), and an exact Laplace
transform.  The package approximates the law of I by the Gamma distribution
matching its first two moments (shape m_I, mean Omega_I).  How good that
approximation is, is measured by the Monte Carlo layer, never assumed.
"""
from __future__ import annotations

import math

from ._integrate import quad_strict
from .model import GammaParams, NetworkConfig, derived_geometry
from .specfun import NumericsError


def _exclusion_radius(cfg: NetworkConfig, r_min: float | None) -> float:
    if r_min is None:
        return derived_geometry(cfg).r0
    if not r_min > 0:
        raise ValueError(f"exclusion radius must be > 0, got {r_min}")
    return r_min


def _cumulant(cfg: NetworkConfig, n: int, r: float) -> float:
    """kappa_n of I (n in {1, 2}) for the field outside radius r."""
    fi = cfg.fading_interferer
    mark = fi.mean if n == 1 else fi.mean * fi.mean * (1.0 + 1.0 / fi.shape)
    return (2.0 * math.pi * cfg.lam * cfg.p_bs ** n * mark
            * r ** (2.0 - n * cfg.eta) / (n * cfg.eta - 2.0))


def mean_interference(cfg: NetworkConfig, r_min: float | None = None) -> float:
    """E[I] = kappa_1 in watts, outside r_min (default: the model's r0).

    At r0 this is 2 (pi lambda)^(eta/2) Omega p_bs / (eta - 2).
    """
    return _cumulant(cfg, 1, _exclusion_radius(cfg, r_min))


def second_moment(cfg: NetworkConfig, r_min: float | None = None) -> float:
    """E[I^2] = kappa_1^2 + kappa_2 in W^2, outside r_min (default: r0)."""
    r = _exclusion_radius(cfg, r_min)
    k1 = _cumulant(cfg, 1, r)
    return k1 * k1 + _cumulant(cfg, 2, r)


def _log_laplace(cfg: NetworkConfig, s: float, r_min: float) -> float:
    """log L(s) by radial quadrature; also valid for small negative s.

    Substituting t = (r_min/x)^eta maps the radial integral over [r_min, inf)
    onto (0, 1]:

        log L(s) = -2 pi lambda (r_min^2/eta)
                   * int_0^1 t^(-2/eta - 1) (1 - (1 + b t)^-m) dt,

    with b = s Omega p_bs r_min^-eta / m.  The integrand behaves like
    t^(-2/eta) near 0 (integrable for eta > 2).
    """
    m, om = cfg.fading_interferer.shape, cfg.fading_interferer.mean
    b = s * om * cfg.p_bs * r_min ** (-cfg.eta) / m
    if b <= -1.0:
        raise NumericsError("laplace_transform",
                            f"transform undefined this far into s < 0 (b={b})")
    ex = -2.0 / cfg.eta - 1.0

    def integrand(t: float) -> float:
        return t ** ex * -math.expm1(-m * math.log1p(b * t))

    val, _ = quad_strict("laplace_transform", integrand, 0.0, 1.0,
                         epsabs=1e-14, epsrel=1e-11)
    return -2.0 * math.pi * cfg.lam * (r_min ** 2 / cfg.eta) * val


def laplace_transform(cfg: NetworkConfig, s: float,
                      r_min: float | None = None) -> float:
    """E[exp(-s I)] for s >= 0; lies in (0, 1] and decreases in s."""
    if s < 0:
        raise ValueError(f"laplace_transform requires s >= 0, got {s}")
    if s == 0 or cfg.p_bs == 0:
        return 1.0
    return math.exp(_log_laplace(cfg, s, _exclusion_radius(cfg, r_min)))


def gamma_fit(cfg: NetworkConfig, r_min: float | None = None) -> GammaParams:
    """Gamma law matching the first two moments of I outside r_min.

    Mean Omega_I = kappa_1; shape m_I = kappa_1^2 / kappa_2
    = pi lambda r_min^2 * 4 m (eta-1) / ((m+1) (eta-2)^2), whose area factor
    is 1 at the default r0.  The closed form keeps the digits that
    mean^2 / (E[I^2] - mean^2) would cancel, and at r0 it is bit-identical
    under any lambda, p_bs and Omega.
    """
    mean = mean_interference(cfg, r_min)
    m, eta = cfg.fading_interferer.shape, cfg.eta
    shape = 4.0 * m * (eta - 1.0) / ((m + 1.0) * (eta - 2.0) ** 2)
    if r_min is not None:
        shape *= math.pi * cfg.lam * r_min * r_min
    return GammaParams(shape=shape, mean=mean)
