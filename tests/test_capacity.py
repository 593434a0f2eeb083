"""Capacity pipeline: water-filling bound, closed form, fixed-power rate
and HD benchmark (the comparison flags are analyze's, in test_cli).

The quadrature capacities are exact-model quantities (CINR drawn from the
fitted beta-prime law).  The Poisson-field simulation keeps the full
interference distribution and adds N0 exactly, and the simulated rate sits
well below the analytic bound at the reference micro scenario.  That gap is
model error, not a bug: the simulator agrees with the exact field capacity
to well under 1% (acceptance criterion 4), and
test_ppp_gap_is_the_known_model_error freezes the measured bracket.
"""
import collections
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn

from fdcap._integrate import NumericsError
from fdcap.capacity import (default_rho, fd_fixed_power_capacity,
                            fd_optimal_capacity_closed_form, solve_network,
                            waterfill_rate)
from fdcap.cinr import BetaPrimeDist, cinr_distribution
from fdcap.interference import gamma_fit
from fdcap.mcsim import MCConfig, estimate_fd_rates, estimate_hd
from fdcap.model import ConfigError
from fdcap.powercontrol import solve_cutoff
from conftest import (DOMAIN, SHAPE_VARIANTS, fixed_scan, make_cfg,
                      mp_expect)

# regression anchors for the two baseline scenarios (bit/s, deterministic
# quadrature); recomputed values must agree to well beyond plot precision.
# C_OPT_MICRO is the rate at mpmath's micro root a0, and mpmath's own rate
# there agrees to 4e-16
C_OPT_MICRO = 147556.36338201005
C_OPT_MACRO = 25949.138408454408
C_FIX_MICRO = 113417.27676576395
C_FIX_MACRO = 8707.83038970128


def fd_optimal(cfg):
    """(water-filling capacity in bit/s, water level a0)."""
    d, sol = solve_network(cfg)
    return waterfill_rate(d, sol.a0, cfg.bandwidth), sol.a0


def fd_fixed(cfg):
    """Fixed-power rate in bit/s on the config's own CINR law."""
    d = cinr_distribution(cfg, gamma_fit(cfg))
    return fd_fixed_power_capacity(d, cfg.p_bar, cfg.bandwidth)


def test_micro_baseline_regression(micro):
    c, a0 = fd_optimal(micro)
    assert c == pytest.approx(C_OPT_MICRO, rel=1e-9)
    assert a0 == pytest.approx(0.6793691061680457, rel=1e-9)
    assert fd_fixed(micro) == pytest.approx(C_FIX_MICRO, rel=1e-9)


def test_macro_baseline_regression(macro):
    assert fd_optimal(macro)[0] == pytest.approx(C_OPT_MACRO, rel=1e-9)
    assert fd_fixed(macro) == pytest.approx(C_FIX_MACRO, rel=1e-9)


@pytest.mark.parametrize("kwargs", [{}, {"lam": 5e-6, "p_bs": 20.0},
                                    {"p_bs": 2.0}])
def test_optimal_dominates_fixed_power(kwargs):
    # constant power p_bar is feasible for the average-power constraint, so
    # the water-filling optimum can never fall below it
    cfg = make_cfg(**kwargs)
    assert fd_optimal(cfg)[0] > fd_fixed(cfg)


@pytest.mark.parametrize("kwargs", [
    {},                             # z = -a0/k ~ -0.79, direct series range
    {"lam": 5e-6, "p_bs": 20.0},    # z ~ -0.18
    {"p_bs": 0.1},                  # z ~ -2.75, integral-representation range
])
def test_closed_form_matches_quadrature_solved(kwargs):
    cfg = make_cfg(**kwargs)
    d, sol = solve_network(cfg)
    q = waterfill_rate(d, sol.a0, cfg.bandwidth)
    cf = fd_optimal_capacity_closed_form(d, sol.a0, cfg.bandwidth)
    assert cf is not None
    assert cf == pytest.approx(q, rel=1e-6)


def test_closed_form_evaluates_where_the_3f2_is_tiny():
    # configs/micro.cfg at eta = 2.2 and lambda = 1e-8: z = -61.3 and
    # mI = 60 put the 3F2 near 3.5e-108, far below any absolute quadrature
    # tolerance, yet the closed form is an ordinary rate
    cfg = make_cfg(eta=2.2, lam=1e-8, omega_sig=1.6e-15)
    d, sol = solve_network(cfg)
    cf = fd_optimal_capacity_closed_form(d, sol.a0, cfg.bandwidth)
    assert cf == pytest.approx(158927.324, rel=1e-8, abs=0.0)
    assert cf == pytest.approx(waterfill_rate(d, sol.a0, cfg.bandwidth),
                               rel=1e-12, abs=0.0)


def test_closed_form_matches_quadrature_off_solution(micro):
    # water level decoupled from the budget solver: z = -5 exactly
    d, _ = solve_network(micro)
    a0 = 5.0 * d.k
    q = waterfill_rate(d, a0, micro.bandwidth)
    assert fd_optimal_capacity_closed_form(d, a0, micro.bandwidth) == \
        pytest.approx(q, rel=1e-6)


def test_closed_form_small_water_level_reduction(micro):
    # as a0/k -> 0 the hypergeometric factor -> 1 and the capacity collapses
    # to B/ln2 * (a0/k)^mI / (mI^2 * B(m0, mI)); check both that limit and
    # agreement with quadrature while the integration window is still
    # representable
    d, _ = solve_network(micro)
    a0 = 1e-6 * d.k
    cf = fd_optimal_capacity_closed_form(d, a0, micro.bandwidth)
    lead = (micro.bandwidth / math.log(2.0) * (a0 / d.k) ** d.mI
            / (d.mI ** 2 * beta_fn(d.m0, d.mI)))
    assert cf == pytest.approx(lead, rel=5e-6)
    assert cf == pytest.approx(waterfill_rate(d, a0, micro.bandwidth), rel=1e-6)


def beta_weight_case(variant, m_sig):
    """(config in nats, its CINR law): the micro variant at signal shape
    m_sig, with bandwidth ln 2 so that B/ln 2 = 1."""
    cfg = make_cfg(bandwidth=math.log(2.0), m_sig=m_sig, **variant)
    return cfg, cinr_distribution(cfg, gamma_fit(cfg))


def assert_nats_close(got, want, context):
    # 1e-10 relative, or 1e-13 nats where the rate itself is that small
    assert abs(got - want) <= max(1e-10 * abs(want), 1e-13), \
        (got, want, context)


@pytest.mark.parametrize("m_sig", [0.7, 2.0])
@pytest.mark.parametrize("variant", SHAPE_VARIANTS)
def test_waterfill_rate_matches_mpmath(variant, m_sig):
    # the Beta weight is singular at t = 1 for m_I < 1 and at t = 0 for
    # m0 < 1; a0/k from 1e-8 (a window [t0, 1] of width 1e-8) to 1e3
    pytest.importorskip("mpmath")
    import mpmath
    cfg, d = beta_weight_case(variant, m_sig)
    k = mpmath.mpf(d.k)
    for ratio in (1e-8, 1e-4, 1.0, 1e3):
        a0 = ratio * d.k
        want = mp_expect(d.m0, d.mI,
                         lambda t, u: mpmath.log(a0 * t / (k * u)),
                         k / (k + mpmath.mpf(a0)))
        assert_nats_close(waterfill_rate(d, a0, cfg.bandwidth), want,
                          (d, ratio))


@pytest.mark.parametrize("variant,ratio", [({}, 1e-40),
                                           ({"m_int": 0.05}, 2e-16),
                                           ({"m_int": 0.05}, 1e-20)],
                         ids=["micro-1e-40", "m_int=0.05-2e-16",
                              "m_int=0.05-1e-20"])
def test_waterfill_rate_below_the_resolution_of_t(variant, ratio):
    # a0/k so small that [t0, 1] has no representable width in t; in
    # u = 1 - t the window [0, a0/(k + a0)] keeps its rate: 0.0457 nats at
    # m_I = 0.143 and a0/k = 2e-16, 2.1e-60 nats on micro at a0/k = 1e-40
    pytest.importorskip("mpmath")
    import mpmath
    cfg, d = beta_weight_case(variant, 2.0)
    a0 = ratio * d.k
    k = mpmath.mpf(d.k)
    want = mp_expect(d.mI, d.m0,
                     lambda u, t: mpmath.log(a0 * t / (k * u)),
                     0, mpmath.mpf(a0) / (k + a0))
    assert waterfill_rate(d, a0, cfg.bandwidth) == pytest.approx(
        want, rel=1e-10, abs=0.0)


def test_waterfill_rate_of_a_window_below_the_doubles():
    # configs/micro.cfg at lambda = 1e-3: a0/(k + a0) = 5e-324/k rounds to
    # 0.0, no rate to double precision
    cfg = make_cfg(lam=1e-3, omega_sig=1.6e-15)
    d = cinr_distribution(cfg, gamma_fit(cfg))
    assert 5e-324 / (d.k + 5e-324) == 0.0
    assert waterfill_rate(d, 5e-324, cfg.bandwidth) == 0.0


@pytest.mark.parametrize("m_sig", [0.7, 2.0])
@pytest.mark.parametrize("variant", SHAPE_VARIANTS)
def test_fd_fixed_power_capacity_matches_mpmath(variant, m_sig):
    # p_bar/k from 1e-16 to 1e3, on both sides of the frame switch at
    # p_bar/k = 1; below about 1e-13 the u^(m_I-1) factor of the piece
    # on [u_c, 1] is nearly singular just below u_c at m_I < 1
    pytest.importorskip("mpmath")
    import mpmath
    cfg, d = beta_weight_case(variant, m_sig)
    for ratio in (1e-16, 1e-13, 1e-9, 1e-5, 0.5, 2.0, 1e3):
        fixed = replace(cfg, p_bar=ratio * d.k)
        r = mpmath.mpf(fixed.p_bar) / mpmath.mpf(d.k)

        def rate(t, u):
            return mpmath.log1p(r * t / u)

        t_c = 1 / (1 + r)
        want = (mp_expect(d.m0, d.mI, rate, 0, t_c)
                + mp_expect(d.m0, d.mI, rate, t_c))
        assert_nats_close(
            fd_fixed_power_capacity(d, fixed.p_bar, fixed.bandwidth), want,
            (d, ratio))


def test_fd_fixed_power_capacity_of_a_budget_below_the_doubles():
    # configs/micro.cfg at lambda = 1e-3: p_bar/k = 5e-324/k rounds to 0.0
    cfg = make_cfg(lam=1e-3, p_bar=5e-324, omega_sig=1.6e-15)
    d = cinr_distribution(cfg, gamma_fit(cfg))
    assert d.k > 2.0
    assert fd_fixed_power_capacity(d, cfg.p_bar, cfg.bandwidth) == 0.0


def test_fd_fixed_power_capacity_at_hundreds_of_interferer_shape():
    # m_I = 762, p_bar/k = 2.9e-8; mpmath (conftest.mp_expect) gives
    # 1.1297e-10 nats, 2.9337e-5 bit/s.  QUADPACK's first pass over the
    # weight e^(-762 w) w^2, whose mass lies in w < 0.01 of [0, 17.4], read
    # -2.74e-11 bit/s here
    cfg = make_cfg(lam=9.220605280047069e-09, p_bs=798.913161028488,
                   eta=2.0663455282358516, m_int=3.6901431153461446,
                   m_sig=3.0, n0=5.755658589959969e-10,
                   p_bar=2.11705633377068e-06)
    assert fd_fixed(cfg) == pytest.approx(2.9337e-5, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("eta", [2.001, 2.0001])
def test_rates_meet_mpmath_as_eta_nears_two(eta):
    # m_I = 2e6 and 2e8, the Beta(2, m_I) weight's mass near t = 1/m_I: the
    # weight's factors (1-t)^(m_I-1) away from t = 1 and the window's width
    # carry the rounding of 1 - t times m_I unless taken by log1p, 1e-9 of
    # the fixed-power rate at m_I = 2e8.  In nats, as the mpmath tests above
    pytest.importorskip("mpmath")
    import mpmath
    cfg = make_cfg(eta=eta, bandwidth=math.log(2.0))
    d, sol = solve_network(cfg)
    k, a0 = mpmath.mpf(d.k), mpmath.mpf(sol.a0)
    r = mpmath.mpf(cfg.p_bar) / k
    with mpmath.workdps(30):
        opt = mp_expect(d.m0, d.mI,
                        lambda t, u: mpmath.log(a0 * t / (k * u)),
                        k / (k + a0))
        t_c = 1 / (1 + r)
        fixed = sum(mp_expect(d.m0, d.mI,
                              lambda t, u: mpmath.log1p(r * t / u),
                              lo, hi)
                    for lo, hi in ((0, t_c), (t_c, 1)))
    assert waterfill_rate(d, sol.a0, cfg.bandwidth) == pytest.approx(
        opt, rel=1e-10, abs=0.0)
    assert fd_fixed_power_capacity(d, cfg.p_bar, cfg.bandwidth) == \
        pytest.approx(fixed, rel=1e-10, abs=0.0)


def test_closed_form_at_ninety_interferer_shape():
    # draw 158 of test_closed_form_presence_over_a_fixed_scan: m_I = 89.6,
    # z = -5.68, a 3F2 of 1.2e-74.  scipy's hyp2f1 under an Euler integral
    # was once too rough there for the 3F2's 1e-11, and the closed form was
    # blank
    cfg = make_cfg(lam=1.2979488967151133e-06, p_bs=16.468689321829743,
                   eta=2.1636728279379795, m_int=1.0650572470799573,
                   m_sig=2.0595518664356143, n0=1.48132721665835e-07,
                   p_bar=1.1200469314290488e-05)
    d, sol = solve_network(cfg)
    q = waterfill_rate(d, sol.a0, cfg.bandwidth)
    cf = fd_optimal_capacity_closed_form(d, sol.a0, cfg.bandwidth)
    assert d.mI == pytest.approx(89.6, abs=0.05)
    assert q == pytest.approx(0.15397, rel=1e-4)
    assert cf is not None
    assert cf == pytest.approx(q, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("fields", [
    {"lam": 1e-09, "p_bs": 1000.0, "eta": 2.05, "m_int": 4.068411720305371,
     "m_sig": 6.0, "n0": 8.486594876193589e-08, "p_bar": 1e-06},
    {"lam": 0.01, "p_bs": 604.5323844455263, "eta": 2.05,
     "m_int": 1.5475642000904402, "m_sig": 0.3, "n0": 1e-15, "p_bar": 1e-06}])
def test_rate_where_the_first_levels_mislead_the_error_estimate(fields):
    # m_I = 1349 and 1021, the mass of the Beta weight in a thin layer at
    # the window's end: levels 0-2 agree as if converged, and an estimate
    # taken at level 2 passed a rate 2.3e-4 and 1.6e-4 off (a 3 000-config
    # scan of DOMAIN at its bounds).  The closed form, a separate
    # quadrature, meets mpmath there to 1e-15
    cfg = make_cfg(**fields)
    d, sol = solve_network(cfg)
    q = waterfill_rate(d, sol.a0, cfg.bandwidth)
    cf = fd_optimal_capacity_closed_form(d, sol.a0, cfg.bandwidth)
    assert d.mI > 1000.0
    assert q == pytest.approx(cf, rel=1e-10, abs=0.0)


def test_closed_form_rejects_nonpositive_water_level(micro):
    d, _ = solve_network(micro)
    with pytest.raises(ValueError):
        fd_optimal_capacity_closed_form(d, 0.0, micro.bandwidth)


def test_fd_optimal_strictly_decreasing_in_bs_power():
    caps, levels = [], []
    for p_bs in (0.1, 0.5, 1.0, 2.0, 5.0):
        c, a0 = fd_optimal(make_cfg(p_bs=p_bs))
        caps.append(c)
        levels.append(a0)
    assert all(a > b for a, b in zip(caps, caps[1:]))
    # more downlink interference also forces the water level up
    assert all(a < b for a, b in zip(levels, levels[1:]))


def test_fd_optimal_strictly_increasing_in_power_budget():
    caps = [fd_optimal(make_cfg(p_bar=pb))[0] for pb in (0.1, 0.2, 0.4)]
    assert all(a < b for a, b in zip(caps, caps[1:]))


def test_fd_optimal_tiny_budget_is_tiny_but_positive():
    # ~0.03 bit/s against 180 kHz
    assert 0.0 < fd_optimal(make_cfg(p_bar=1e-12))[0] < 1.0


def test_capacity_is_exactly_linear_in_bandwidth(micro):
    # halving B halves every quadrature capacity bit-for-bit: the integral
    # factor is unchanged and scaling by a power of two commutes with
    # rounding
    half = make_cfg(bandwidth=90e3)
    assert fd_optimal(half)[0] == 0.5 * fd_optimal(micro)[0]
    assert fd_fixed(half) == 0.5 * fd_fixed(micro)


def analytic_rates(cfg):
    """k and the three analytic rates, from one CINR law and one solve."""
    d, sol = solve_network(cfg)
    return {"k": d.k,
            "fd_opt": waterfill_rate(d, sol.a0, cfg.bandwidth),
            "fd_opt_cf": fd_optimal_capacity_closed_form(d, sol.a0,
                                                         cfg.bandwidth),
            "fd_fixed": fd_fixed_power_capacity(d, cfg.p_bar, cfg.bandwidth)}


# The served gain's mean Omega_0 held fixed, as in the config files:
# k = (2 sqrt(lambda))^eta m0 (Omega_I + N0) / (m_I Omega_0) with
# Omega_I proportional to lambda^(eta/2) p_bs and m_I free of both.
@pytest.mark.parametrize("lam, p_bs", [(5e-5, 1.0), (5e-6, 20.0)])
def test_rates_depend_on_lambda_p_bs_and_n0_only_through_k(lam, p_bs):
    # at eta = 4, doubling lambda scales the interference term of k by
    # 2^4 and the noise term by 2^2: a BS power 16 times lower and a
    # noise 4 times lower give the same k, hence the same rates
    omega_sig = (2.0 * math.sqrt(lam)) ** 8
    base = analytic_rates(make_cfg(lam=lam, p_bs=p_bs, omega_sig=omega_sig))
    dense = analytic_rates(make_cfg(lam=2.0 * lam, p_bs=p_bs / 16.0,
                                    n0=1e-9 / 4.0, omega_sig=omega_sig))
    for name, value in base.items():
        assert dense[name] == pytest.approx(value, rel=1e-12, abs=0.0), name


@pytest.mark.parametrize("lam, p_bs, ratio", [(5e-5, 1.0, 4.081),
                                              (5e-6, 20.0, 4.405)])
def test_density_outweighs_bs_power_by_the_k_elasticity(lam, p_bs, ratio):
    # d ln C/d ln lambda = (eta/2)(1 + s) d ln C/d ln k and
    # d ln C/d ln p_bs = s d ln C/d ln k, s = Omega_I/(Omega_I + N0): the
    # ratio of the two elasticities is (eta/2)(1 + s)/s for k and every
    # rate.  Central differences at h = 1e-4 meet it to 6e-10
    omega_sig = (2.0 * math.sqrt(lam)) ** 8
    h = 1e-4

    def elasticity(field, value):
        up, down = (analytic_rates(make_cfg(**{"lam": lam, "p_bs": p_bs,
                                               field: value * math.exp(x)},
                                            omega_sig=omega_sig))
                    for x in (h, -h))
        return {name: math.log(up[name] / down[name]) / (2.0 * h)
                for name in up}

    cfg = make_cfg(lam=lam, p_bs=p_bs, omega_sig=omega_sig)
    fit = gamma_fit(cfg)
    s = fit.mean / (fit.mean + cfg.n0)
    want = cfg.eta / 2.0 * (1.0 + s) / s
    assert want == pytest.approx(ratio, abs=5e-4)
    by_lam, by_p_bs = elasticity("lam", lam), elasticity("p_bs", p_bs)
    for name in by_lam:
        assert by_lam[name] / by_p_bs[name] == pytest.approx(
            want, rel=1e-8, abs=0.0), name


@pytest.mark.parametrize("m_sig", [0.7, 2.0])
@pytest.mark.parametrize("variant", SHAPE_VARIANTS)
@pytest.mark.parametrize("field, lo, hi, base", [
    ("lam", 1e-7, 1e-2, {"p_bs": 1e-3}), ("p_bs", 1e-3, 1e3, {}),
    ("p_bar", 1e-4, 1e3, {})])
def test_grid_rates_are_the_point_by_point_rates(field, lo, hi, base,
                                                 variant, m_sig):
    # a grid of laws sharing m0 and m_I, one row per point, crossing a0 = k
    # and p_bar = k (both orientations, t and u, in one kernel call): the
    # same floats as the point-by-point calls
    grid = np.geomspace(lo, hi, 9)
    cfgs = [make_cfg(m_sig=m_sig, **dict(base, **variant,
                                         **{field: float(v)}))
            for v in grid]
    laws = [cinr_distribution(cfg, gamma_fit(cfg)) for cfg in cfgs]
    p_bar = np.array([cfg.p_bar for cfg in cfgs])
    grid_law = BetaPrimeDist(laws[0].m0, laws[0].mI,
                             np.array([d.k for d in laws]))
    sol = solve_cutoff(grid_law, p_bar)
    sols = [solve_cutoff(d, p) for d, p in zip(laws, p_bar.tolist())]
    assert sol.a0.tolist() == [s.a0 for s in sols]
    assert sol.achieved_avg_power.tolist() == [
        s.achieved_avg_power for s in sols]
    assert sol.residual.tolist() == [s.residual for s in sols]
    assert sol.solver_iterations == sum(s.solver_iterations for s in sols)
    a0 = sol.a0
    if not variant:
        # on configs/micro.cfg these grids cross a0 = k and p_bar = k
        assert (a0 < grid_law.k).any() and (a0 >= grid_law.k).any()
        assert (p_bar <= grid_law.k).any() and (p_bar > grid_law.k).any()
    b = cfgs[0].bandwidth
    assert waterfill_rate(grid_law, a0, b).tolist() == [
        waterfill_rate(d, s.a0, b) for d, s in zip(laws, sols)]
    assert fd_fixed_power_capacity(grid_law, p_bar, b).tolist() == [
        fd_fixed_power_capacity(d, p, b) for d, p in zip(laws,
                                                         p_bar.tolist())]
    closed = fd_optimal_capacity_closed_form(grid_law, a0, b)
    for c, d, s in zip(closed.tolist(), laws, sols):
        one = fd_optimal_capacity_closed_form(d, s.a0, b)
        assert (math.isnan(c) and one is None) or c == one


def test_default_rho_values(micro, macro):
    # p_bar * rbar^-eta with rbar = 1/(2 sqrt(lam)): 0.2 * (16 lam^2) at
    # eta = 4
    assert default_rho(micro) == pytest.approx(8e-9, rel=1e-12, abs=0.0)
    assert default_rho(macro) == pytest.approx(8e-11, rel=1e-12, abs=0.0)


def test_hd_zero_rho(micro):
    # the mc estimator accepts rho = 0: every rate is exactly zero
    st = estimate_hd(micro, 0.0, MCConfig(20_000, 3, tail_epsilon=1e-2))
    assert st.mean == 0.0 and st.variance == 0.0


@pytest.mark.parametrize("p_bs, lo, hi", [(0.1, 0.12, 0.23), (5.0, 0.33, 0.44)])
def test_ppp_gap_is_the_known_model_error(p_bs, lo, hi):
    """Poisson-field water-filling rate vs the beta-prime quadrature bound.

    The fitted CINR law overfills the low-interference/high-CINR region
    where the water-filling policy earns most of its rate, for two reasons:
    the fitted Gamma density dies only like I^(m_I - 1) at the origin while
    a nearly-empty annulus is exponentially rare, and N0 enters as a mean
    shift of that Gamma rather than as a floor under I + N0.  At 1 W the
    bound is 147.6 kbit/s, the Gamma law with N0 added exactly gives
    133.8 k and the exact field 115.3 k.  The optimism of the bound over
    the exact field grows with BS power, 16.9% at 0.1 W to 38.5% at 5 W;
    measured 17% and 39% here (MC standard error ~0.6% of the bound, far
    inside the bracket).
    """
    cfg = make_cfg(p_bs=p_bs)
    d, sol = solve_network(cfg)
    c_opt = waterfill_rate(d, sol.a0, cfg.bandwidth)
    st = estimate_fd_rates(cfg, MCConfig(50_000, 301, tail_epsilon=1e-3),
                           sol.a0)[1][0]
    gap = abs(st.mean - c_opt) / c_opt
    assert st.mean < c_opt  # the analytic bound is optimistic, never shy
    assert lo < gap < hi, f"gap {gap:.4f} outside frozen bracket [{lo}, {hi}]"


# ------------------------------------------------------------- property net
# Over conftest.DOMAIN, the valid config domain out to its bounds.


def _field(name: str):
    lo, hi, log = DOMAIN[name]
    values = st.floats(lo, hi)
    if log:
        values = values.map(lambda x: 10.0 ** x)
    if name == "p_bs":
        values = st.one_of(st.just(0.0), values)
    if name == "m_sig":
        values = st.one_of(st.integers(1, 6).map(float), values)
    return values


def _check_analytic_entries(fields: dict, seen: collections.Counter) -> None:
    """Every analytic entry returns finite numbers or a named ConfigError /
    NumericsError, a closed form that is present equals the quadrature to
    1e-6, and the fixed-power rate is nonnegative and at most the optimal
    one (constant power p_bar is a feasible policy) to (B/ln 2) 1e-6;
    counts the configs, blank closed forms and named failures."""
    seen["configs"] += 1
    try:
        cfg = make_cfg(**fields)
        d, sol = solve_network(cfg)
        c_opt = waterfill_rate(d, sol.a0, cfg.bandwidth)
        c_cf = fd_optimal_capacity_closed_form(d, sol.a0, cfg.bandwidth)
    except (ConfigError, NumericsError):
        seen["named"] += 1
        return
    assert math.isfinite(sol.a0) and math.isfinite(c_opt), fields
    if c_cf is None:
        seen["blank"] += 1
    else:
        assert c_cf == pytest.approx(c_opt, rel=1e-6, abs=0.0), fields
    try:
        c_fix = fd_fixed_power_capacity(d, cfg.p_bar, cfg.bandwidth)
    except NumericsError:
        seen["named"] += 1
        return
    assert math.isfinite(c_fix) and c_fix >= 0.0, (fields, c_fix)
    assert c_opt >= c_fix - cfg.bandwidth / math.log(2.0) * 1e-6, \
        (fields, c_opt, c_fix)


def test_analytic_entries_are_finite_or_fail_by_name():
    # Hypothesis favours the bounds (eta = 2.05, m_int = 10 or 0.05), where
    # m_I reaches the hundreds.  Every draw now solves and every closed form
    # evaluates: 20 blank closed forms and 30 named failures under QUADPACK,
    # whose QAWS rule failed on Beta exponents in the hundreds, where the
    # closed form also needed a 3F2 above the subnormals.  Its draws also
    # depend on the numeric literals of the loaded modules, so the presence
    # count that pins a drop is the fixed scan below.
    seen = collections.Counter()

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(st.fixed_dictionaries({name: _field(name) for name in DOMAIN}))
    def check(fields):
        _check_analytic_entries(fields, seen)

    check()
    assert seen["configs"] == 300
    assert seen["blank"] == 0 and seen["named"] == 0, seen


def test_closed_form_presence_over_a_fixed_scan():
    # 300 configs drawn uniformly over the same domain, every fourth with
    # p_bs = 0 and every other with an integer m_sig.  No closed form is
    # blank and no solve fails.  Under QUADPACK 4 closed forms were blank,
    # where mpmath puts the 3F2 below the normal doubles (m_I from 54 to
    # 267: hyper_3f2's log_scaled carries them now), and one solve failed
    # by name, at eta = 2.055 (m_I = 1287).
    seen = collections.Counter()
    for fields in fixed_scan():
        _check_analytic_entries(fields, seen)
    assert seen["blank"] == 0 and seen["named"] == 0, seen
