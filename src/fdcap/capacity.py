"""Uplink capacity quantities for the full-duplex bound.

Three analytic quantities; the CLI reports them next to the Monte Carlo
half-duplex benchmark (mcsim.estimate_hd):
  c_fd_optimal             water-filling FD upper bound, Beta-weight quadrature
  c_fd_optimal_closed_form same quantity through the 3F2 expression
  c_fd_fixed               FD ergodic rate at constant transmit power p_bar

The quadratures are Beta-weight expectations in the beta variable of the
CINR law, by _integrate.expect and expect_log; the closed form is the
paper's 3F2, specfun.hyper_3f2(mI, m0, -a0/k), which goes through the same
kernel.

The FD quantities deliberately ignore self-interference and uplink-to-uplink
interference: they bound what a genie-aided full-duplex uplink could do, so
c_fd_optimal < c_hd is conclusive evidence that FD hurts, while
c_fd_optimal > c_hd alone proves nothing.  `fdcap analyze` therefore keys
its beneficial flag off the fixed-power FD rate instead.
"""
from __future__ import annotations

import math

import numpy as np

from ._integrate import expect, expect_log
from .cinr import BetaPrimeDist, cinr_distribution
from .interference import gamma_fit
from .model import NetworkConfig
from .powercontrol import WaterfillSolution, solve_cutoff
from .specfun import hyper_3f2


def solve_network(cfg: NetworkConfig) -> tuple[BetaPrimeDist, WaterfillSolution]:
    """Interference fit -> CINR law -> water level, the shared pipeline."""
    d = cinr_distribution(cfg, gamma_fit(cfg))
    return d, solve_cutoff(d, cfg.p_bar)


def waterfill_rate(d: BetaPrimeDist, a0: float, bandwidth: float) -> float:
    """(B/ln 2) * int_{1/a0}^inf ln(a0 x) f_gamma(x) dx by quadrature.

    In the beta variable t (see the cinr module) the integrand is
    ln(a0/k) + ln t - ln(1-t) on [t0, 1], t0 = k/(k + a0), where it
    vanishes.  For a0 >= k (t0 <= 1/2) that is one expect, whose ln(1-t),
    singular at t = 1, comes exact from each node's distance to that end
    (log_at=1.0).  For a0 < k it is taken in u = 1 - t, the Beta(mI, m0)
    variable of the law of 1/gamma, on [0, a0/(k + a0)], with ln u exact
    (log_at=0.0): a window that keeps its relative precision however small
    a0/k is, down to a width that underflows to 0.
    """
    s = a0 / (d.k + a0)
    if s == 0.0:
        # the transmit window [0, s] has no width in the doubles
        return 0.0
    log_a0_over_k = math.log(a0 / d.k)
    stage = "fd_optimal_capacity"
    if a0 >= d.k:
        val, _ = expect(d.m0, d.mI, stage,
                        lambda t, log_u: log_a0_over_k + np.log(t) - log_u,
                        d.k / (d.k + a0), log_at=1.0)
    else:
        val, _ = expect(d.mI, d.m0, stage,
                        lambda u, log_u: log_a0_over_k + np.log1p(-u) - log_u,
                        0.0, s, log_at=0.0)
    return bandwidth / math.log(2.0) * val


def fd_optimal_capacity_closed_form(d: BetaPrimeDist, a0: float,
                                    bandwidth: float) -> float | None:
    """B * a0^mI * 3F2(mI, mI, m0+mI; 1+mI, 1+mI; -a0/k)
    / (B(m0, mI) * mI^2 * k^mI * ln 2), or None when the 3F2
    (specfun.hyper_3f2) does not evaluate or the product leaves the double
    range (never a silent wrong number).  The product is taken in logs, from
    the 3F2's log_scaled, ln((a0/k)^mI 3F2): (a0/k)^mI can overflow where
    the 3F2 underflows, and the product is an ordinary rate."""
    if not a0 > 0:
        raise ValueError(f"water level must be > 0, got {a0}")
    f = hyper_3f2(d.mI, d.m0, -a0 / d.k)
    if math.isnan(f.log_scaled):
        return None
    log_c = (math.log(bandwidth / math.log(2.0)) - d.log_beta
             - 2.0 * math.log(d.mI) + f.log_scaled)
    # math.exp overflows a double above about 709.78
    return math.exp(log_c) if log_c < 709.0 else None


def fd_fixed_power_capacity(d: BetaPrimeDist, p_bar: float,
                            bandwidth: float) -> float:
    """(B/ln 2) * int_0^inf ln(1 + p_bar x) f_gamma(x) dx by quadrature.

    Constant transmit power p_bar spends the average-power budget with
    equality, so this is always a feasible (suboptimal) policy for the
    water-filling problem.  Its Poisson-field simulation counterpart is
    mcsim.estimate_fd_rates with the power p_bar.

    In the beta variable t (see the cinr module), with r = p_bar/k, the
    integrand is ln(1 + r t/(1-t)).  It is split at t_c = 1/(1 + r), where
    r t/(1-t) = 1.  Below t_c the integrand stays as it is.  Above, it is
    ln((1-t) + r t) - ln(1-t), one expect with the ln(1-t) exact from each
    node's distance to t = 1 (log_at=1.0); splitting ln(1-t) off below t_c
    instead would cancel where r t/(1-t) is small.  For r <= 1, t_c >= 1/2
    and the same two pieces are taken in u = 1 - t, as in waterfill_rate,
    where the window [0, 1 - t_c] keeps its relative precision however
    small r is.  The piece below t_c, u in [u_c, 1], goes further, by
    expect_log in w = -ln u, where the integrand is ln(1 + r (e^w - 1)).
    """
    r = p_bar / d.k
    if r == 0.0:
        # p_bar/k below the doubles: no rate to double precision, and the
        # window [0, 1 - t_c] has no width
        return 0.0
    stage = "fd_fixed_power_capacity"
    m0, mI = d.m0, d.mI
    if r > 1.0:
        t_c = 1.0 / (1.0 + r)
        low, _ = expect(m0, mI, stage, lambda t: np.log1p(r * t / (1.0 - t)),
                        0.0, t_c)
        high, _ = expect(m0, mI, stage,
                         lambda t, log_u: np.log((1.0 - t) + r * t) - log_u,
                         t_c, log_at=1.0)
    else:
        u_c = r / (1.0 + r)
        # r (e^w - 1) as r e^(w/2) * 2 sinh(w/2): e^w alone overflows
        # where -ln u_c > 709.78, for r below about 1e-308
        low, _ = expect_log(
            mI, m0, stage,
            lambda w: np.log1p(r * np.exp(0.5 * w) * (2.0 * np.sinh(0.5 * w))),
            -math.log(u_c))
        high, _ = expect(mI, m0, stage,
                         lambda u, log_u: np.log(u + r * (1.0 - u)) - log_u,
                         0.0, u_c, log_at=0.0)
    return bandwidth / math.log(2.0) * (low + high)


def default_rho(cfg: NetworkConfig):
    """Received-power target for the HD benchmark: the power budget p_bar
    inverted over the mean nearest-BS distance, rho = p_bar * rbar^(-eta).

    The HD estimate is (by design, and by test) nearly invariant to rho, so
    the default mainly fixes a scale comparable to the FD budget.
    """
    return cfg.p_bar * cfg.rbar ** (-cfg.eta)
