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

The package needs only the law's parameters and `expect`, the one kernel
that every rate and power integral goes through.  The tests take the
density, cdf, median and draws of the same law from
scipy.stats.betaprime(m0, mI, scale=1/k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._integrate import quad_strict
from .model import GammaParams, NetworkConfig
from .specfun import NumericsError


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
    """Build the CINR law from a config and its interference Gamma fit.

    Raises NumericsError("cinr_distribution") when k leaves the positive
    doubles, which an extreme lambda does: k scales like lambda^eta.
    """
    m0 = cfg.fading_signal.shape
    om0 = cfg.fading_signal.mean
    try:
        path = (2.0 * math.sqrt(cfg.lam)) ** cfg.eta
    except OverflowError:
        path = math.inf
    k = path * m0 * (fit.mean + cfg.n0) / (fit.shape * om0)
    if not 0.0 < k < math.inf:
        raise NumericsError("cinr_distribution", f"k = {k!r} is not finite "
                            f"and positive at lambda = {cfg.lam!r}")
    return BetaPrimeDist(m0=m0, mI=fit.shape, k=k)

