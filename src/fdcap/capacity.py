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

from ._integrate import (_each, _every, _log1m, _pick, _rowwise, expect,
                         expect_log)
from .cinr import BetaPrimeDist, cinr_distribution
from .interference import gamma_fit
from .model import NetworkConfig
from .powercontrol import WaterfillSolution, solve_cutoff
from .specfun import hyper_3f2


def solve_network(cfg: NetworkConfig) -> tuple[BetaPrimeDist, WaterfillSolution]:
    """Interference fit -> CINR law -> water level, the shared pipeline."""
    d = cinr_distribution(cfg, gamma_fit(cfg))
    return d, solve_cutoff(d, cfg.p_bar)


def _ratio(x, k):
    """x/k, inf where it overflows (at a subnormal k), without numpy's
    warning on arrays."""
    if not (isinstance(x, np.ndarray) or isinstance(k, np.ndarray)):
        return x / k
    with np.errstate(over="ignore"):
        return x / k


def waterfill_rate(d: BetaPrimeDist, a0, bandwidth: float):
    """(B/ln 2) * int_{1/a0}^inf ln(a0 x) f_gamma(x) dx by quadrature.

    In the beta variable t (see the cinr module) the integrand is
    ln(a0/k) + ln t - ln(1-t) on [t0, 1], t0 = k/(k + a0), where it
    vanishes.  For a0 >= k (t0 <= 1/2) that is one expect, whose ln(1-t),
    singular at t = 1, comes exact from each node's distance to that end
    (log_at=1.0).  For a0 < k it is taken in u = 1 - t, the Beta(mI, m0)
    variable of the law of 1/gamma, on [0, a0/(k + a0)], with ln u exact
    (log_at=0.0): a window that keeps its relative precision however small
    a0/k is, down to a width that underflows to 0, where the rate is 0.

    d.k and a0 may be arrays, one rate per grid point: every point is one
    row of a single kernel call, in t or u as above.
    """
    lo, hi, in_u = d.transmit_window(a0)
    # ln(a0/k) on the rows with a transmit window
    log_a0_over_k = _each(lambda v: math.log(v) if v > 0.0 else 0.0,
                          _ratio(a0, d.k))

    def g(x, log_u, in_u, log_a0_over_k):
        # ln t in t, ln(1-u) in u
        return log_a0_over_k + _rowwise(in_u, x, np.log, _log1m) - log_u

    val, _ = expect(d.m0, d.mI, "fd_optimal_capacity", g, lo, hi,
                    log_at=1.0, flip=in_u, args=(in_u, log_a0_over_k))
    return bandwidth / math.log(2.0) * val


def fd_optimal_capacity_closed_form(d: BetaPrimeDist, a0, bandwidth: float):
    """B * a0^mI * 3F2(mI, mI, m0+mI; 1+mI, 1+mI; -a0/k)
    / (B(m0, mI) * mI^2 * k^mI * ln 2), or None when the 3F2
    (specfun.hyper_3f2) does not evaluate or the product leaves the double
    range (never a silent wrong number).  The product is taken in logs, from
    the 3F2's log_scaled, ln((a0/k)^mI 3F2): (a0/k)^mI can overflow where
    the 3F2 underflows, and the product is an ordinary rate.

    d.k and a0 may be arrays, one rate per grid point, taken by one
    hyper_3f2 call; the result is then an array with NaN where the rate is
    not available, point by point."""
    if not _every(a0 > 0):
        raise ValueError(f"water level must be > 0, got {a0}")
    f = hyper_3f2(d.mI, d.m0, -_ratio(a0, d.k))
    log_front = (math.log(bandwidth / math.log(2.0)) - d.log_beta
                 - 2.0 * math.log(d.mI))

    def rate(log_scaled):
        log_c = log_front + log_scaled
        # math.exp overflows a double above about 709.78; NaN fails too
        return math.exp(log_c) if log_c < 709.0 else math.nan

    c = _each(rate, f.log_scaled)
    if isinstance(c, np.ndarray):
        return c
    return None if math.isnan(c) else c


def fd_fixed_power_capacity(d: BetaPrimeDist, p_bar, bandwidth: float):
    """(B/ln 2) * int_0^inf ln(1 + p_bar x) f_gamma(x) dx by quadrature.

    Constant transmit power p_bar spends the average-power budget with
    equality, so this is always a feasible (suboptimal) policy for the
    water-filling problem.  Its Poisson-field simulation counterpart is
    mcsim.estimate_fd_rates with the power p_bar.

    In the beta variable t (see the cinr module), with r = p_bar/k, the
    integrand is ln(1 + r t/(1-t)).  It is split at t_c = 1/(1 + r), where
    r t/(1-t) = 1.  Above t_c it is ln((1-t) + r t) - ln(1-t), one expect
    with the ln(1-t) exact from each node's distance to t = 1
    (log_at=1.0).  For r <= 1, t_c >= 1/2 and that piece is taken in
    u = 1 - t, as in waterfill_rate, where the window [0, 1 - t_c] keeps
    its relative precision however small r is.  Below t_c, on u in
    [u_c, 1], u_c = 1 - t_c, it is taken by expect_log in w = -ln u, where
    the integrand is ln(1 + r (e^w - 1)); w_c = -ln u_c is ln(1 + 1/r),
    which keeps its digits for r > 1.  Where p_bar/k is below the doubles
    both windows have no width and the rate is 0.

    d.k and p_bar may be arrays, one rate per grid point: each piece is one
    kernel call over all points, the piece above t_c in t or u as above.
    """
    r = _ratio(p_bar, d.k)
    stage = "fd_fixed_power_capacity"
    m0, mI = d.m0, d.mI
    in_u = r <= 1.0
    # r (e^w - 1) as r e^(w/2) * 2 sinh(w/2): e^w alone overflows
    # where -ln u_c > 709.78, for r below about 1e-308
    low, _ = expect_log(
        mI, m0, stage,
        lambda w, r: np.log1p(r * np.exp(0.5 * w) * (2.0 * np.sinh(0.5 * w))),
        _each(lambda v: (-math.log(v / (1.0 + v)) if v <= 1.0
                         else math.log1p(1.0 / v)) if v > 0.0 else 0.0, r),
        args=(r,))
    # (1-t) + r t in t, u + r (1-u) in u
    high, _ = expect(m0, mI, stage,
                     lambda x, log_u, c1, c2: (np.log(c1 * (1.0 - x) + c2 * x)
                                               - log_u),
                     _pick(in_u, 0.0, 1.0 / (1.0 + r)),
                     _pick(in_u, r / (1.0 + r), 1.0), log_at=1.0,
                     flip=in_u, args=(_pick(in_u, r, 1.0),
                                      _pick(in_u, 1.0, r)))
    return bandwidth / math.log(2.0) * (low + high)


def default_rho(cfg: NetworkConfig):
    """Received-power target for the HD benchmark: the power budget p_bar
    inverted over the mean nearest-BS distance, rho = p_bar * rbar^(-eta).

    The HD estimate is (by design, and by test) nearly invariant to rho, so
    the default mainly fixes a scale comparable to the FD budget.
    """
    return cfg.p_bar * cfg.rbar ** (-cfg.eta)
