"""Aggregate downlink-to-uplink interference: moments and the Gamma fit.

The receiving BS sits at the centre of an interference-free disc of radius
r0 = 1/sqrt(pi*lambda); every other BS is a point of a Poisson process of
intensity lambda outside that disc, transmits with power p_bs, and reaches
the centre through an independent Gamma(m, Omega) channel and path loss
r^-eta.  The aggregate

    I = sum_i p_bs * alpha_i * r_i^-eta

has, outside any exclusion radius r, the Campbell cumulants

    kappa_n(r) = 2 pi lambda p_bs^n E[alpha^n] r^(2 - n eta) / (n eta - 2),

E[alpha] = Omega, E[alpha^2] = Omega^2 (1 + 1/m).  The package approximates
the law of I by the Gamma distribution matching its first two moments
(shape m_I, mean Omega_I).  How good that approximation is, is measured by
the Monte Carlo layer against the exact law of the field, which the tests
compute from its Laplace transform; it is never assumed.
"""
from __future__ import annotations

import math

from ._integrate import NumericsError
from .model import GammaParams, NetworkConfig


def _exclusion_radius(cfg: NetworkConfig, r_min: float | None) -> float:
    if r_min is None:
        return cfg.r0
    if not r_min > 0:
        raise ValueError(f"exclusion radius must be > 0, got {r_min}")
    return r_min


def _cumulant(cfg: NetworkConfig, n: int, r: float) -> float:
    """kappa_n of I (n in {1, 2}) for the field outside radius r."""
    fi = cfg.fading_interferer
    mark = fi.mean if n == 1 else fi.mean * fi.mean * (1.0 + 1.0 / fi.shape)
    try:
        kappa = (2.0 * math.pi * cfg.lam * cfg.p_bs ** n * mark
                 * r ** (2.0 - n * cfg.eta) / (n * cfg.eta - 2.0))
    except OverflowError:
        kappa = math.inf
    if not math.isfinite(kappa):
        raise NumericsError("interference", f"cumulant {n} outside r = {r!r} "
                            f"m overflows at lambda = {cfg.lam!r}")
    return kappa


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
