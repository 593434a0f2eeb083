"""Uplink capacity quantities for the full-duplex bound and its baselines.

Four quantities, one report:
  c_fd_optimal             water-filling FD upper bound, Beta-weight quadrature
  c_fd_optimal_closed_form same quantity through the 3F2 expression
  c_fd_fixed               FD ergodic rate at constant transmit power p_bar
  c_hd                     half-duplex benchmark, Monte Carlo (see mcsim)

The FD quantities deliberately ignore self-interference and uplink-to-uplink
interference: they bound what a genie-aided full-duplex uplink could do, so
c_fd_optimal < c_hd is conclusive evidence that FD hurts, while
c_fd_optimal > c_hd alone proves nothing.  The beneficial flag therefore
keys off the fixed-power FD rate instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import mcsim
from ._integrate import quad_strict
from .cinr import BetaPrimeDist, cinr_distribution, expect
from .interference import gamma_fit
from .model import NetworkConfig, derived_geometry
from .powercontrol import WaterfillSolution, solve_cutoff
from .specfun import hyper_3f2


@dataclass(frozen=True)
class CapacityReport:
    """Capacity numbers in bit/s from compare; the closed form is None where
    it does not evaluate."""

    c_fd_optimal: float
    c_fd_optimal_closed_form: float | None
    c_fd_fixed: float
    c_hd: float
    c_hd_std_error: float
    a0: float
    fd_harmful: bool
    fd_beneficial: bool


def solve_network(cfg: NetworkConfig) -> tuple[BetaPrimeDist, WaterfillSolution]:
    """Interference fit -> CINR law -> water level, the shared pipeline."""
    d = cinr_distribution(cfg, gamma_fit(cfg))
    sol = solve_cutoff(d, cfg.p_bar)
    return d, sol


def waterfill_rate(d: BetaPrimeDist, a0: float, bandwidth: float) -> float:
    """(B/ln 2) * int_{1/a0}^inf ln(a0 x) f_gamma(x) dx by quadrature.

    In the beta variable t (see cinr.expect) the integrand is
    ln(a0/k) + ln t - ln(1-t) on [t0, 1], t0 = k/(k + a0), where it
    vanishes.  For a0 >= k (t0 <= 1/2) that is two QAWS integrals: of
    ln(a0/k) + ln t under the Beta weight, minus that of 1 under the weight
    times ln(1-t), which carries the singularity at t = 1.  For a0 < k the
    same two are taken in u = 1 - t, the beta variable of the law of
    1/gamma, on [0, a0/(k + a0)]: a window that keeps its relative
    precision however small a0/k is, down to a width that underflows to 0.
    """
    s = a0 / (d.k + a0)
    if s == 0.0:
        # the transmit window [0, s] has no width in the doubles
        return 0.0
    log_a0_over_k = math.log(a0 / d.k)
    stage = "fd_optimal_capacity"
    if a0 >= d.k:
        t0 = d.k / (d.k + a0)
        val, _ = expect(d, stage, lambda t: log_a0_over_k + math.log(t), t0)
        log_part, _ = expect(d, stage, lambda t: 1.0, t0, log_at=1.0)
    else:
        val, _ = expect(d.inverse, stage,
                        lambda u: log_a0_over_k + math.log1p(-u), 0.0, s)
        log_part, _ = expect(d.inverse, stage, lambda u: 1.0, 0.0, s,
                             log_at=0.0)
    return bandwidth / math.log(2.0) * (val - log_part)


def fd_optimal_capacity_closed_form(d: BetaPrimeDist, a0: float,
                                    bandwidth: float) -> float | None:
    """B * a0^mI * 3F2(mI, mI, m0+mI; 1+mI, 1+mI; -a0/k)
    / (B(m0, mI) * mI^2 * k^mI * ln 2), or None when the 3F2 does not
    evaluate or the product leaves the double range (never a silent wrong
    number).  The product is taken in logs: a0^mI / k^mI can overflow where
    the 3F2 is tiny."""
    if not a0 > 0:
        raise ValueError(f"water level must be > 0, got {a0}")
    f = hyper_3f2(d.mI, d.mI, d.m0 + d.mI, 1.0 + d.mI, 1.0 + d.mI, -a0 / d.k)
    if not f.ok:
        return None
    log_c = (math.log(bandwidth / math.log(2.0)) + d.mI * math.log(a0)
             - d.mI * math.log(d.k) - d.log_beta - 2.0 * math.log(d.mI)
             + math.log(f.value))
    # math.exp overflows a double above about 709.78
    return math.exp(log_c) if log_c < 709.0 else None


def fd_fixed_power_capacity(cfg: NetworkConfig) -> float:
    """(B/ln 2) * int_0^inf ln(1 + p_bar x) f_gamma(x) dx by quadrature.

    Constant transmit power p_bar spends the average-power budget with
    equality, so this is always a feasible (suboptimal) policy for the
    water-filling problem.  Its Poisson-field simulation counterpart is
    mcsim.estimate_fd_rates with the power p_bar.

    In the beta variable t (see cinr.expect), with r = p_bar/k, the
    integrand is ln(1 + r t/(1-t)).  It is split at t_c = 1/(1 + r), where
    r t/(1-t) = 1.  Below t_c the integrand stays as it is.  Above, it is
    ln((1-t) + r t) minus ln(1-t), whose singularity at t = 1 the QAWS rule
    takes; splitting ln(1-t) off below t_c instead would cancel where
    r t/(1-t) is small.  For r <= 1, t_c >= 1/2 and the same two pieces are
    taken in u = 1 - t, as in waterfill_rate, where the window [0, 1 - t_c]
    keeps its relative precision however small r is; the piece below t_c
    goes further, to w = -ln u (_fixed_rate_far_piece).
    """
    d = cinr_distribution(cfg, gamma_fit(cfg))
    r = cfg.p_bar / d.k
    if r == 0.0:
        # p_bar/k below the doubles: no rate to double precision, and the
        # window [0, 1 - t_c] has no width
        return 0.0
    stage = "fd_fixed_power_capacity"
    log, log1p = math.log, math.log1p
    if r > 1.0:
        t_c = 1.0 / (1.0 + r)
        low, _ = expect(d, stage, lambda t: log1p(r * t / (1.0 - t)), 0.0, t_c)
        high, _ = expect(d, stage, lambda t: log((1.0 - t) + r * t), t_c)
        log_part, _ = expect(d, stage, lambda t: 1.0, t_c, log_at=1.0)
    else:
        u_c = r / (1.0 + r)
        low = _fixed_rate_far_piece(d, r, -log(u_c))
        high, _ = expect(d.inverse, stage,
                         lambda u: log(u + r * (1.0 - u)), 0.0, u_c)
        log_part, _ = expect(d.inverse, stage, lambda u: 1.0, 0.0, u_c,
                             log_at=0.0)
    return cfg.bandwidth / math.log(2.0) * (low + high - log_part)


def _fixed_rate_far_piece(d: BetaPrimeDist, r: float, w_c: float) -> float:
    """E[ln(1 + r t/(1-t))] over u = 1 - t in [e^(-w_c), 1], in w = -ln u.

    There the Beta weight u^(mI-1) (1-u)^(m0-1) du becomes
    e^(-mI w) (1-e^(-w))^(m0-1) dw.  Its singular factor w^(m0-1) at w = 0
    goes to QAWS and the smooth rest, (-expm1(-w)/w)^(m0-1) e^(-mI w), into
    the integrand, as in specfun.hyper_3f2's far piece.  In w the
    integrand is smooth; in u its factor u^(mI-1) at mI < 1 is nearly
    singular just below the lower end u_c = e^(-w_c) when r is tiny, where
    QUADPACK's first nodes do not see it (1.9% low at mI = 0.143 and
    r = 1e-16).
    """
    c, b, mI = math.exp(-d.log_beta), d.m0 - 1.0, d.mI
    exp, expm1, log1p, sinh = math.exp, math.expm1, math.log1p, math.sinh

    def integrand(w: float) -> float:
        # (1 - e^(-w))/w -> 1 at the weighted end w = 0
        smooth = -expm1(-w) / w if w > 0.0 else 1.0
        # r (e^w - 1) as r e^(w/2) * 2 sinh(w/2): e^w alone overflows
        # where w_c > 709.78, for r below about 1e-308
        h = 0.5 * w
        return (c * log1p(r * exp(h) * (2.0 * sinh(h))) * smooth ** b
                * exp(-mI * w))

    val, _ = quad_strict("fd_fixed_power_capacity", integrand, 0.0, w_c,
                         weight="alg", wvar=(b, 0.0))
    return val


def default_rho(cfg: NetworkConfig):
    """Received-power target for the HD benchmark: the power budget p_bar
    inverted over the mean nearest-BS distance, rho = p_bar * rbar^(-eta).

    The HD estimate is (by design, and by test) nearly invariant to rho, so
    the default mainly fixes a scale comparable to the FD budget.
    """
    geo = derived_geometry(cfg)
    return cfg.p_bar * geo.rbar ** (-cfg.eta)


def compare(cfg: NetworkConfig, rho: float | None = None, mc=None) -> CapacityReport:
    """All four quantities plus the one-sided comparison flags.

    fd_harmful:    c_fd_optimal < c_hd (the upper bound already loses)
    fd_beneficial: c_fd_fixed > c_hd (a concrete FD policy already wins)
    Both False is the inconclusive middle ground.
    """
    d, sol = solve_network(cfg)
    c_opt = waterfill_rate(d, sol.a0, cfg.bandwidth)
    c_cf = fd_optimal_capacity_closed_form(d, sol.a0, cfg.bandwidth)
    c_fixed = fd_fixed_power_capacity(cfg)
    if rho is None:
        rho = default_rho(cfg)
    if mc is None:
        mc = mcsim.MCConfig(n_samples=100_000, seed=0)
    hd = mcsim.estimate_hd(cfg, rho, mc)
    return CapacityReport(
        c_fd_optimal=c_opt,
        c_fd_optimal_closed_form=c_cf,
        c_fd_fixed=c_fixed,
        c_hd=hd.mean,
        c_hd_std_error=hd.std_error,
        a0=sol.a0,
        fd_harmful=c_opt < hd.mean,
        fd_beneficial=c_fixed > hd.mean,
    )
