"""Reference values the benchmark checks fdcap's outputs against.

Everything here is computed from the config alone with numpy and scipy,
without calling fdcap, so a check against it measures the program rather
than repeating it:

* ``BetaPrimeReference`` rebuilds the paper's beta-prime CINR law from the
  config (Campbell mean, the closed-form Gamma shape m_I), finds the water
  level by root-finding and integrates the rates by quadrature in log x.
* ``annulus_cumulants`` gives the Campbell cumulants of the Poisson field
  on the annulus an MC run samples.
* ``field_waterfill_rate`` is the water-filling rate at a given water level
  under the exact law of that field (not the Gamma fit), for m0 = 2.
* ``hd_rate`` is the half-duplex rate of the uplink field that
  ``fdcap.mcsim.estimate_hd`` documents, by Hamdi's lemma on its Laplace
  transform.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import betaln, poch

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _log_panels(lo: float, hi: float, width: float = 0.5):
    """Composite 16-point Gauss-Legendre nodes and weights on [log lo,
    log hi]; returns the nodes mapped back (t = exp(node)) and weights for
    d(log t)."""
    a, b = math.log(lo), math.log(hi)
    edges = np.linspace(a, b, max(1, math.ceil((b - a) / width)) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (edges[:-1, None] + half * (1.0 + _GL_NODES)).ravel()
    return np.exp(nodes), (half * _GL_WEIGHTS).ravel()


def _quad(f, a, b):
    val, _ = quad(f, a, b, epsabs=0.0, epsrel=1e-11, limit=400)
    return val


class BetaPrimeReference:
    """The analytic pipeline's CINR law rebuilt from the config.

    cfg is a dict with the config-file keys (lambda, p_bs, eta, n0,
    bandwidth, p_bar, m_int, omega_int, m_sig, omega_sig).
    """

    def __init__(self, cfg: dict):
        lam, eta, m = cfg["lambda"], cfg["eta"], cfg["m_int"]
        self.m_i = 4.0 * m * (eta - 1.0) / ((m + 1.0) * (eta - 2.0) ** 2)
        self.omega_i = (2.0 * (math.pi * lam) ** (eta / 2.0) * cfg["omega_int"]
                        * cfg["p_bs"] / (eta - 2.0))
        self.m0 = cfg["m_sig"]
        self.k = ((2.0 * math.sqrt(lam)) ** eta * self.m0
                  * (self.omega_i + cfg["n0"]) / (self.m_i * cfg["omega_sig"]))
        self.bandwidth = cfg["bandwidth"]
        self.p_bar = cfg["p_bar"]
        self._log_k = math.log(self.k)
        self._log_norm = self.m0 * self._log_k - betaln(self.m0, self.m_i)

    def _density(self, y: float) -> float:
        """Density of log(gamma) at y."""
        t = self._log_k + y   # log(k gamma); log1p(k gamma) without overflow
        log1p_kx = (t + math.log1p(math.exp(-t)) if t > 0
                    else math.log1p(math.exp(t)))
        return math.exp(self._log_norm + self.m0 * y
                        - (self.m0 + self.m_i) * log1p_kx)

    def _expect(self, g, y_lo: float) -> float:
        """E[g(log gamma); log gamma > y_lo].

        The density of log gamma falls off like exp(m0 y) below the law's
        scale y_c = -log k and like exp(-m_I y) above it; the integral
        stops where either tail is below e^-40 and splits at y_c.
        """
        y_c = -self._log_k
        lo, hi = max(y_lo, y_c - 40.0 / self.m0), y_c + 40.0 / self.m_i
        f = lambda y: g(y) * self._density(y)  # noqa: E731
        if lo >= y_c:
            return _quad(f, lo, hi)
        return _quad(f, lo, y_c) + _quad(f, y_c, hi)

    def avg_power(self, a0: float) -> float:
        """E[(a0 - 1/gamma)^+]."""
        return self._expect(lambda y: a0 - math.exp(-y), -math.log(a0))

    def water_level(self, budget: float) -> float:
        """The a0 with avg_power(a0) = budget."""
        hi = budget
        while self.avg_power(hi) < budget:
            hi *= 2.0
        return brentq(lambda a: self.avg_power(a) - budget, 0.5 * hi, hi,
                      xtol=1e-300, rtol=1e-15)

    def waterfill_rate(self, a0: float) -> float:
        """(B/ln 2) E[ln(a0 gamma)^+] in bit/s."""
        return (self.bandwidth / math.log(2.0)
                * self._expect(lambda y: math.log(a0) + y, -math.log(a0)))

    def fixed_rate(self) -> float:
        """(B/ln 2) E[ln(1 + p_bar gamma)] in bit/s."""
        return (self.bandwidth / math.log(2.0)
                * self._expect(lambda y: math.log1p(self.p_bar * math.exp(y)),
                               -math.inf))


def annulus_cumulants(cfg: dict, r_min: float, r_max: float,
                      orders=(1, 2, 3, 4)) -> list:
    """Campbell cumulants of I = sum p_bs alpha_i r_i^-eta over a Poisson
    field of intensity lambda on [r_min, r_max], alpha ~ Gamma(m, Omega):

        kappa_n = pi lambda p_bs^n E[alpha^n]
                  * (r_min^(2 - n eta) - r_max^(2 - n eta)) / (n eta/2 - 1).
    """
    lam, eta, m = cfg["lambda"], cfg["eta"], cfg["m_int"]
    scale = cfg["p_bs"] * cfg["omega_int"] / m
    return [math.pi * lam * scale ** n * float(poch(m, n))
            * (r_min ** (2.0 - n * eta) - r_max ** (2.0 - n * eta))
            / (n * eta / 2.0 - 1.0)
            for n in orders]


def moment_errors(cfg: dict, r_min: float, r_max: float, n: int):
    """Mean and second moment of I on the annulus, with the standard errors
    of their n-sample estimates: returns (mean, se_mean, second, se_second).
    """
    k1, k2, k3, k4 = annulus_cumulants(cfg, r_min, r_max)
    second = k2 + k1 * k1
    fourth = k4 + 4 * k3 * k1 + 3 * k2 * k2 + 6 * k2 * k1 * k1 + k1 ** 4
    return (k1, math.sqrt(k2 / n), second,
            math.sqrt((fourth - second * second) / n))


def field_waterfill_rate(cfg: dict, r_min: float, r_max: float,
                         a0: float) -> float:
    """(B/ln 2) E[ln(a0 gamma)^+] in bit/s with gamma = h/(I + N0), I the
    exact field on [r_min, r_max] and h ~ Gamma(2, theta) the composite
    signal gain alpha0/(2 sqrt(lambda))^eta.

    For m0 = 2, P[gamma > x] = L_J(s)(1 - s (log L_J)'(s)) with s = x/theta
    and J = I + N0, and the rate is the integral of that CCDF against dx/x
    from 1/a0; log L_I is a radial integral in log r^2.
    """
    if cfg["m_sig"] != 2.0:
        raise ValueError(f"needs m_sig = 2, got {cfg['m_sig']}")
    lam, eta, m = cfg["lambda"], cfg["eta"], cfg["m_int"]
    theta = (cfg["omega_sig"] / 2.0) * (2.0 * math.sqrt(lam)) ** (-eta)
    v, w = _log_panels(r_min * r_min, r_max * r_max)
    g = cfg["omega_int"] * cfg["p_bs"] * v ** (-0.5 * eta) / m
    w = math.pi * lam * v * w
    n0 = cfg["n0"]

    def ccdf(log_x: float) -> float:
        s = math.exp(log_x) / theta
        z = s * g
        log_l = np.expm1(-m * np.log1p(z)) @ w - n0 * s
        d_log_l = -m * (g * (1.0 + z) ** (-m - 1.0)) @ w - n0
        return math.exp(log_l) * (1.0 - s * d_log_l)

    # J >= N0, so P[gamma > x] <= P[h > x N0] < 1e-24 once x N0/theta >= 60
    lo, hi = -math.log(a0), math.log(60.0 * theta / n0)
    return cfg["bandwidth"] / math.log(2.0) * (_quad(ccdf, lo, hi)
                                               if lo < hi else 0.0)


def hd_rate(cfg: dict, rho: float, r_max_over_r0: float) -> float:
    """(B/2) E[log2(1 + rho g/(I_u + N0))] in bit/s for the uplink field of
    ``fdcap.mcsim.estimate_hd``: interferers of intensity lambda on
    [r0, R_max], each received at rho alpha (d/r)^eta with d^2 ~ Exp(mean
    1/(pi lambda)) and alpha ~ Gamma(m, Omega); g ~ Gamma(m0, 1/m0).

    Hamdi's lemma, E[ln(1 + S/J)] = int_0^inf (1 - M_S(z)) M_J(z) dz/z, in
    y = z rho.  In units of 1/(pi lambda) both d^2 and r^2 become lambda-
    free: r^2 spans [1, (R_max/r0)^2] and d^2 ~ Exp(1).
    """
    eta, m, m0 = cfg["eta"], cfg["m_int"], cfg["m_sig"]
    v, wv = _log_panels(1.0, r_max_over_r0 ** 2)
    u, wu = _log_panels(1e-7, 45.0)
    wv = v * wv                   # dv = v d(log v)
    wu = u * np.exp(-u) * wu      # Exp(1) density times du
    c = (cfg["omega_int"] / m) * (u[None, :] / v[:, None]) ** (0.5 * eta)
    weights = wv[:, None] * wu[None, :]
    n0_over_rho = cfg["n0"] / rho

    def log_laplace(y: float) -> float:
        return -float(np.sum(weights * -np.expm1(-m * np.log1p(y * c))))

    def integrand(log_y: float) -> float:
        y = math.exp(log_y)
        return (-math.expm1(-m0 * math.log1p(y / m0))
                * math.exp(log_laplace(y) - y * n0_over_rho))

    y_max = 1.0
    while log_laplace(y_max) - y_max * n0_over_rho > -40.0:
        y_max *= 2.0
    val = _quad(integrand, math.log(1e-12), math.log(y_max))
    return 0.5 * cfg["bandwidth"] / math.log(2.0) * val
