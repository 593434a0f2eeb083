"""CINR distribution: the law of gamma = h / (I + N0).

The served user's composite gain is h = alpha0 / (2 sqrt(lambda))^eta with
alpha0 ~ Gamma(m0, Omega0), and the interference I is replaced by its
moment-matched Gamma(m_I, Omega_I) law with the noise folded in as a mean
shift (Omega_I -> Omega_I + N0, same shape).  A ratio of independent Gammas
is beta-prime distributed:

    f(x) = k^m0 x^(m0-1) (1 + k x)^(-m0-m_I) / B(m0, m_I),
    k = (2 sqrt(lambda))^eta * m0 * (Omega_I + N0) / (m_I * Omega0).

The mean-shift treatment of N0 is an approximation on top of the Gamma fit
(the exact law of Gamma + constant is not Gamma); its error is measured by
the sampling cross-checks in the tests, not assumed away.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv

from ._integrate import quad_strict
from .model import GammaParams, NetworkConfig


@dataclass(frozen=True)
class BetaPrimeDist:
    """Beta-prime CINR law: signal shape m0, interference shape mI, inverse scale k."""

    m0: float
    mI: float
    k: float

    def __post_init__(self):
        if not (self.m0 > 0 and self.mI > 0 and self.k > 0):
            raise ValueError(f"beta-prime parameters must be positive, got "
                             f"(m0={self.m0}, mI={self.mI}, k={self.k})")

    @property
    def log_beta(self) -> float:
        """log B(m0, mI), cached nowhere — cheap enough to recompute."""
        return (math.lgamma(self.m0) + math.lgamma(self.mI)
                - math.lgamma(self.m0 + self.mI))


def expect(d: BetaPrimeDist, stage: str, g,
           lo: float = 0.0) -> tuple[float, float]:
    """int_lo^1 g(t) t^(m0-1) (1-t)^(mI-1) / B(m0, mI) dt by quad_strict,
    with its error estimate.

    Every expectation over the CINR law is taken in the beta variable
    t = k*gamma/(1 + k*gamma), which is Beta(m0, mI) distributed; then
    gamma = t/(k(1-t)) and 1/gamma = k(1-t)/t.  g(t) is the quantity to
    average and lo the start of its support.  A node that rounds onto
    t >= 1 (a window [lo, 1] a few ulps wide) contributes 0 instead of
    log(0).  `stage` names the caller in a NumericsError.
    """
    # bound once: QUADPACK calls the integrand up to thousands of times
    neg_log_beta, a, b = -d.log_beta, d.m0 - 1.0, d.mI - 1.0
    exp, log, log1p = math.exp, math.log, math.log1p

    def integrand(t: float) -> float:
        if t >= 1.0:
            return 0.0
        return g(t) * exp(neg_log_beta + a * log(t) + b * log1p(-t))

    return quad_strict(stage, integrand, lo, 1.0)


def cinr_distribution(cfg: NetworkConfig, fit: GammaParams) -> BetaPrimeDist:
    """Build the CINR law from a config and its interference Gamma fit."""
    m0 = cfg.fading_signal.shape
    om0 = cfg.fading_signal.mean
    path = (2.0 * math.sqrt(cfg.lam)) ** cfg.eta
    k = path * m0 * (fit.mean + cfg.n0) / (fit.shape * om0)
    return BetaPrimeDist(m0=m0, mI=fit.shape, k=k)


def pdf(d: BetaPrimeDist, x):
    """Density at x >= 0 (scalar or array).

    k^m0 x^(m0-1) (1+kx)^(-m0-mI) / B(m0, mI); at x = 0 this is 0 for
    m0 > 1, the finite limit k*mI for m0 = 1, and +inf for m0 < 1.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("pdf domain is x >= 0")
    # x = 0 hits log(0); the m0 = 1 limit also multiplies that by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pdf = (d.m0 * math.log(d.k)
                   + (d.m0 - 1.0) * np.log(x_arr)
                   - (d.m0 + d.mI) * np.log1p(d.k * x_arr)
                   - d.log_beta)
    out = np.exp(log_pdf)
    if d.m0 == 1.0:
        out = np.where(x_arr == 0.0, d.k * d.mI, out)
    return out if out.ndim else float(out)


def cdf(d: BetaPrimeDist, x: float) -> float:
    """P[gamma <= x]: the regularized incomplete beta at kx/(1+kx)."""
    if x < 0:
        raise ValueError("cdf domain is x >= 0")
    t = d.k * x / (1.0 + d.k * x)
    return float(betainc(d.m0, d.mI, t))


def mode(d: BetaPrimeDist) -> float:
    """Density peak (m0-1)/(k (mI+1)) for m0 > 1; 0 otherwise."""
    if d.m0 <= 1.0:
        return 0.0
    return (d.m0 - 1.0) / (d.k * (d.mI + 1.0))


def median(d: BetaPrimeDist) -> float:
    """The cdf's inverse at 1/2: the Beta(m0, mI) median t mapped back
    through x = t/(k(1-t))."""
    t = float(betaincinv(d.m0, d.mI, 0.5))
    return t / (d.k * (1.0 - t))


def sample(d: BetaPrimeDist, rng: np.random.Generator, size=None):
    """Draw from the law via its ratio construction.

    X ~ Gamma(m0, scale 1) and Y ~ Gamma(mI, scale 1) give X/Y distributed
    as the k = 1 law, so gamma = (X/Y)/k.  (No extra shape-ratio factor:
    that would belong to the unit-mean F-distribution convention, not this
    density — the KS self-check in the tests pins the construction.)
    """
    x = rng.gamma(d.m0, 1.0, size=size)
    y = rng.gamma(d.mI, 1.0, size=size)
    return (x / y) / d.k
