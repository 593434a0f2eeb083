"""Aggregate downlink-to-uplink interference: transform, moments, Gamma fit.

The receiving BS sits at the centre of an interference-free disc of radius
r0 = 1/sqrt(pi*lambda); every other BS is a point of a Poisson process of
intensity lambda outside that disc, transmits with power p_bs, and reaches
the centre through an independent Gamma(m, Omega) channel and path loss
r^-eta.  The aggregate

    I = sum_i p_bs * alpha_i * r_i^-eta

has an exact Laplace transform and exact first/second moments; the package
approximates its law by the Gamma distribution matching those two moments
(shape m_I, mean Omega_I).  How good that approximation is, is measured by
the Monte Carlo layer, never assumed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._integrate import quad_strict
from .model import GammaParams, NetworkConfig, derived_geometry
from .specfun import NumericsError


@dataclass(frozen=True)
class InterferenceFit:
    """Moment-matched Gamma law next to the exact moments it matched.

    gamma.mean equals mean_exact and gamma.shape equals
    mean_exact^2 / (second_moment_exact - mean_exact^2) by construction.
    """

    gamma: GammaParams
    mean_exact: float
    second_moment_exact: float


def _exclusion_radius(cfg: NetworkConfig, r_min: float | None) -> float:
    if r_min is None:
        return derived_geometry(cfg).r0
    if not r_min > 0:
        raise ValueError(f"exclusion radius must be > 0, got {r_min}")
    return r_min


def mean_interference(cfg: NetworkConfig, r_min: float | None = None) -> float:
    """E[I] in watts: 2 (pi lambda)^(eta/2) Omega p_bs / (eta - 2).

    With the default exclusion radius r0 the closed form above holds; an
    explicit r_min (used by the validation command's radius override)
    generalizes it to 2 pi lambda Omega p_bs r_min^(2-eta) / (eta - 2).
    """
    om = cfg.fading_interferer.mean  # the mean does not depend on the fading shape
    if r_min is None:
        return 2.0 * (math.pi * cfg.lam) ** (cfg.eta / 2.0) * om * cfg.p_bs / (cfg.eta - 2.0)
    _exclusion_radius(cfg, r_min)
    return (2.0 * math.pi * cfg.lam * om * cfg.p_bs
            * r_min ** (2.0 - cfg.eta) / (cfg.eta - 2.0))


def _variance(cfg: NetworkConfig, r_min: float) -> float:
    """Var[I] for an arbitrary exclusion radius (Campbell variance formula)."""
    m, om = cfg.fading_interferer.shape, cfg.fading_interferer.mean
    return (2.0 * math.pi * cfg.lam * cfg.p_bs ** 2 * om ** 2 * ((m + 1.0) / m)
            * r_min ** (2.0 - 2.0 * cfg.eta) / (2.0 * cfg.eta - 2.0))


def second_moment(cfg: NetworkConfig, r_min: float | None = None) -> float:
    """E[I^2] in W^2.

    Default exclusion radius:
        (2 (pi lambda)^eta Omega^2 p_bs^2 / (eta-2))
        * [ 2/(eta-2) + (m+1)(eta-2) / (2 m (eta-1)) ],
    which is mean^2 + variance spelled out on the r0 geometry.
    """
    m, om = cfg.fading_interferer.shape, cfg.fading_interferer.mean
    eta = cfg.eta
    if r_min is None:
        lead = 2.0 * (math.pi * cfg.lam) ** eta * om ** 2 * cfg.p_bs ** 2 / (eta - 2.0)
        bracket = 2.0 / (eta - 2.0) + (m + 1.0) * (eta - 2.0) / (2.0 * m * (eta - 1.0))
        return lead * bracket
    mean = mean_interference(cfg, r_min)
    return mean * mean + _variance(cfg, r_min)


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


def gamma_fit(cfg: NetworkConfig, r_min: float | None = None) -> InterferenceFit:
    """Gamma law matching the exact first two moments of I.

    Omega_I = E[I] and m_I = E[I]^2 / Var[I].  On the default geometry the
    scale factors of E[I]^2 and Var[I] cancel algebraically, so the shape is
    computed on the dimensionless brackets — making m_I exactly independent
    of lambda, p_bs and Omega down to the last bit, and equal to
    4 m (eta-1) / ((m+1) (eta-2)^2) to machine precision.
    """
    mean = mean_interference(cfg, r_min)
    second = second_moment(cfg, r_min)
    if r_min is None:
        m, eta = cfg.fading_interferer.shape, cfg.eta
        mean_sq_bracket = 2.0 / (eta - 2.0)
        var_bracket = (m + 1.0) * (eta - 2.0) / (2.0 * m * (eta - 1.0))
        shape = mean_sq_bracket / var_bracket
    else:
        shape = mean * mean / (second - mean * mean)
    return InterferenceFit(gamma=GammaParams(shape=shape, mean=mean),
                           mean_exact=mean, second_moment_exact=second)
