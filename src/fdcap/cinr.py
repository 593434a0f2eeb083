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
that every rate and power integral goes through.  It integrates in the
beta variable, where the law is the Beta(m0, m_I) weight
t^(m0-1) (1-t)^(m_I-1), and hands that weight to QUADPACK's
algebraic-weight rule (QAWS) instead of the integrand, so its endpoint
singularities at m0 < 1 or m_I < 1 cost no extrapolation.  The tests take
the density, cdf, median and draws of the same law from
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
    def inverse(self) -> BetaPrimeDist:
        """The law of 1/gamma, whose beta variable is u = 1 - t."""
        return BetaPrimeDist(self.mI, self.m0, 1.0 / self.k)

    @property
    def log_beta(self) -> float:
        """log B(m0, mI), cached nowhere — cheap enough to recompute."""
        return (math.lgamma(self.m0) + math.lgamma(self.mI)
                - math.lgamma(self.m0 + self.mI))


def expect(d: BetaPrimeDist, stage: str, g, lo: float = 0.0, hi: float = 1.0,
           *, log_at: float | None = None) -> tuple[float, float]:
    """int_lo^hi g(t) t^(m0-1) (1-t)^(mI-1) / B(m0, mI) dt by quad_strict,
    with its error estimate.  With log_at = 0.0 or 1.0, an end of [lo, hi],
    the integrand carries the further factor log|t - log_at|: log t or
    log(1-t).

    Every expectation over the CINR law is taken in the beta variable
    t = k*gamma/(1 + k*gamma), which is Beta(m0, mI) distributed; then
    gamma = t/(k(1-t)) and 1/gamma = k(1-t)/t.  g(t) is the quantity to
    average on its support [lo, hi].  The Beta weight is folded into
    QUADPACK's algebraic-weight rule QAWS (weight "alg", or "alg-loga" /
    "alg-logb" for the log factor) wherever its singular endpoint is an end
    of [lo, hi]: t^(m0-1) when lo = 0 and (1-t)^(mI-1) when hi = 1, so a
    weight singular there (m0 < 1 or mI < 1) is integrated exactly.  A
    factor not in the rule is multiplied into g.  QAWS evaluates g at an end
    that carries a weight, so g must be finite there.  `stage` names the
    caller in a NumericsError.

    A window of t next to 1 is best taken in u = 1 - t, the beta variable
    of d.inverse, where its width keeps full relative precision.
    """
    weights = {None: "alg", 0.0: "alg-loga", 1.0: "alg-logb"}
    if log_at not in weights or log_at not in (None, lo, hi):
        raise ValueError(f"log_at must be None, or 0.0 or 1.0 at an end of "
                         f"[{lo!r}, {hi!r}], got {log_at!r}")
    # bound once: QUADPACK calls the integrand up to hundreds of times;
    # an exponent 0.0 leaves its factor exactly 1.0
    c, a, b = math.exp(-d.log_beta), d.m0 - 1.0, d.mI - 1.0
    alpha = a if lo == 0.0 else 0.0
    beta = b if hi == 1.0 else 0.0
    a, b = a - alpha, b - beta

    def integrand(t: float) -> float:
        return c * g(t) * t ** a * (1.0 - t) ** b

    return quad_strict(stage, integrand, lo, hi, weight=weights[log_at],
                       wvar=(alpha, beta))


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

