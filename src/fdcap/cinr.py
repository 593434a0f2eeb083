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

The package needs only the law's parameters.  A sweep over lambda, p_bs
or p_bar keeps m0 and m_I, so its grid is one law whose k is an array,
one element per grid point, which the rate routines take row by row.
Every rate and power integral is taken in the beta variable
t = k*gamma/(1 + k*gamma), which is
Beta(m0, m_I) distributed, by _integrate.expect with the shapes (m0, m_I):
then gamma = t/(k(1-t)) and 1/gamma = k(1-t)/t.  The law of 1/gamma has
the beta variable u = 1 - t, Beta(m_I, m0) distributed, where a window of t
next to 1 keeps its relative precision.  The tests take the density, cdf,
median and draws of the same law from scipy.stats.betaprime(m0, mI,
scale=1/k).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._integrate import NumericsError, _log_beta, _pick
from .model import GammaParams, NetworkConfig


@dataclass(frozen=True)
class BetaPrimeDist:
    """Beta-prime CINR law: signal shape m0, interference shape mI, inverse
    scale k (a float, or an array of them: one law per element)."""

    m0: float
    mI: float
    k: float

    def __post_init__(self):
        k_ok = (self.k > 0).all() if isinstance(self.k, np.ndarray) \
            else self.k > 0
        if not (self.m0 > 0 and self.mI > 0 and k_ok):
            raise ValueError(f"beta-prime parameters must be positive, got "
                             f"(m0={self.m0}, mI={self.mI}, k={self.k})")

    @functools.cached_property
    def log_beta(self) -> float:
        """log B(m0, mI), taken once per law: every Newton step of
        powercontrol.solve_cutoff reads it."""
        return _log_beta(self.m0, self.mI)

    def transmit_window(self, a0):
        """(lo, hi, in_u): the window of the beta variable where gamma >
        1/a0, per element of k and a0.  It is [k/(k + a0), 1] in t, or,
        where a0 < k (in_u), [0, a0/(k + a0)] in u = 1 - t, a window that
        keeps its relative precision however small a0/k is."""
        k = self.k
        in_u = a0 < k
        return (_pick(in_u, 0.0, k / (k + a0)),
                _pick(in_u, a0 / (k + a0), 1.0), in_u)


def cinr_distribution(cfg: NetworkConfig, fit: GammaParams) -> BetaPrimeDist:
    """Build the CINR law from a config and its interference Gamma fit.

    Raises NumericsError("cinr_distribution") when the fit's shape m_I is
    not positive, as where it underflows at a tiny m_int, or when k leaves
    the positive doubles, which an extreme lambda does: k scales like
    lambda^eta.
    """
    if not fit.shape > 0.0:
        raise NumericsError("cinr_distribution", f"interference shape m_I = "
                            f"{fit.shape!r} is not positive")
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

