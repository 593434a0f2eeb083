"""Water-filling solver, the two-betainc closed form of E[P] and its
quadrature, the root check, and the two-2F1 closed form as printed."""
import math

import numpy as np
import pytest
from scipy.special import hyp2f1
from scipy.stats import betaprime

from fdcap import powercontrol
from fdcap.cinr import BetaPrimeDist, cinr_distribution, expect
from fdcap.interference import gamma_fit
from fdcap.powercontrol import (WaterfillSolution, avg_power, power_policy,
                                solve_cutoff)
from fdcap.specfun import NumericsError
from conftest import SHAPE_VARIANTS, make_cfg, mp_beta_expect

# regression constants recorded when the baselines were frozen
A0_MICRO = 0.6793691055610199
A0_MACRO = 3.4697039663513136


@pytest.fixture
def d_micro(micro):
    return cinr_distribution(micro, gamma_fit(micro))


@pytest.fixture
def d_macro(macro):
    return cinr_distribution(macro, gamma_fit(macro))


@pytest.fixture
def sol_micro(micro, d_micro):
    return solve_cutoff(d_micro, micro.p_bar)


# -------------------------------------------------------------------- policy

def test_policy_cutoff_is_exact(sol_micro):
    assert power_policy(sol_micro, 1.0 / sol_micro.a0) == 0.0
    assert power_policy(sol_micro, 0.5 / sol_micro.a0) == 0.0
    assert power_policy(sol_micro, 0.0) == 0.0


def test_policy_water_level_limits(sol_micro):
    a0 = sol_micro.a0
    assert power_policy(sol_micro, 1e12) == pytest.approx(a0, rel=1e-10)
    assert power_policy(sol_micro, 2.0 / a0) == pytest.approx(a0 / 2.0, rel=1e-14)


def test_policy_rejects_negative_cinr(sol_micro):
    with pytest.raises(ValueError):
        power_policy(sol_micro, -0.5)


def test_policy_vectorizes(sol_micro):
    a0 = sol_micro.a0
    g = np.array([0.0, 1.0 / a0, 2.0 / a0, 1e9])
    p = power_policy(sol_micro, g)
    assert p.shape == (4,)
    assert p[0] == p[1] == 0.0
    assert 0.0 < p[2] < p[3] < a0
    assert isinstance(power_policy(sol_micro, 2.0 / a0), float)


# ----------------------------------------------------------------- avg_power

def test_avg_power_vanishes_with_the_water_level(d_micro):
    assert avg_power(d_micro, 1e-12) <= 1e-12
    with pytest.raises(ValueError):
        avg_power(d_micro, 0.0)


def test_avg_power_strictly_increasing(d_micro):
    levels = np.logspace(-3, 2, 11)
    values = [avg_power(d_micro, a) for a in levels]
    assert all(b > a for a, b in zip(values, values[1:]))
    # and always strictly below the water level itself
    assert all(v < a for v, a in zip(values, levels))


def test_avg_power_against_sampled_policy(d_micro, sol_micro):
    # MC oracle: the policy applied to raw CINR draws; P is bounded by a0
    # so the estimator has finite variance and a tight standard error
    rng = np.random.default_rng(911)
    n = 1_000_000
    gamma = betaprime(d_micro.m0, d_micro.mI, scale=1.0 / d_micro.k).rvs(
        size=n, random_state=rng)
    p = power_policy(sol_micro, gamma)
    se = float(np.std(p, ddof=1) / math.sqrt(n))
    assert se < 2e-3 * sol_micro.a0
    assert abs(float(np.mean(p)) - avg_power(d_micro, sol_micro.a0)) <= 3.0 * se


def mp_reg_inc_beta(a, b, x):
    """I_x(a, b) at the working mpmath precision, by the modified Lentz
    evaluation of its continued fraction on the side of the mean where it
    converges (mpmath.betainc takes seconds where one parameter is ~1e4
    and x is near 1)."""
    import mpmath
    if x > (a + 1) / (a + b + 2):
        return 1 - mp_reg_inc_beta(b, a, 1 - x)
    c, d = mpmath.mpf(1), 1 / (1 - (a + b) * x / (a + 1))
    h, m = d, 0
    while True:
        m += 1
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 / (1 + num * d)
            c = 1 + num / c
            h *= d * c
        if abs(d * c - 1) < mpmath.eps:
            return x ** a * (1 - x) ** b / (a * mpmath.beta(a, b)) * h


def mp_avg_power(m0, mI, k, a0) -> float:
    """E[(a0 - 1/gamma)^+] for m0 > 1 at 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        m0, mI, k, a0 = (mpmath.mpf(v) for v in (m0, mI, k, a0))
        s = a0 / (k + a0)
        return float(a0 * mp_reg_inc_beta(mI, m0, s)
                     - k * mI / (m0 - 1) * mp_reg_inc_beta(mI + 1, m0 - 1, s))


def test_avg_power_closed_form_matches_mpmath():
    # seeded draws over m0 in (1, 10], mI in [0.05, 2e4], a0/k in
    # [1e-6, 1e6] and k in [e^-30, e^5]; draws whose E[P] is below the
    # normal double range cannot be compared relatively and are skipped
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(8101)
    compared = 0
    for _ in range(200):
        m0 = 1.0 + 10.0 ** rng.uniform(-3.0, math.log10(9.0))
        mI = math.exp(rng.uniform(math.log(0.05), math.log(2e4)))
        k = math.exp(rng.uniform(-30.0, 5.0))
        a0 = k * 10.0 ** rng.uniform(-6.0, 6.0)
        want = mp_avg_power(m0, mI, k, a0)
        if want < 1e-300:
            continue
        compared += 1
        got = avg_power(BetaPrimeDist(m0, mI, k), a0)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), (m0, mI, k, a0)
    assert compared >= 150


def test_avg_power_closed_form_matches_the_quadrature(d_micro, d_macro):
    for d, a0 in ((d_micro, A0_MICRO), (d_macro, A0_MACRO),
                  (d_micro, 0.05), (d_micro, 8.0)):
        assert avg_power(d, a0) == pytest.approx(
            powercontrol._avg_power_quad(d, a0)[0], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("m_sig", [0.7, 2.0])
@pytest.mark.parametrize("variant", SHAPE_VARIANTS)
def test_avg_power_quadrature_matches_mpmath(variant, m_sig):
    # the quadrature that is E[P] for m0 <= 1 and the root check for every
    # m0, over Beta weights singular at t = 1 (m_I < 1) and at t = 0
    # (m0 < 1), a0/k from 1e-8 to 1e3; 1e-10 relative or 1e-13 W
    pytest.importorskip("mpmath")
    import mpmath
    cfg = make_cfg(m_sig=m_sig, **variant)
    d = cinr_distribution(cfg, gamma_fit(cfg))
    k = mpmath.mpf(d.k)
    for ratio in (1e-8, 1e-4, 1.0, 1e3):
        a0 = ratio * d.k
        want = mp_beta_expect(d.m0, d.mI, lambda t, u: a0 - k * u / t,
                              k / (k + mpmath.mpf(a0)))
        got = powercontrol._avg_power_quad(d, a0)[0]
        assert abs(got - want) <= max(1e-10 * want, 1e-13), (got, want, d)


def test_avg_power_is_the_quadrature_for_m0_at_most_one():
    # E[(1-t)/t] diverges at t = 0 for m0 <= 1: no closed form, and the
    # branch is the Beta-weight quadrature, in t for a0 >= k and in
    # u = 1 - t on [0, a0/(k + a0)] for a0 < k
    for m0 in (0.6, 1.0):
        d = BetaPrimeDist(m0, 1.5, 0.86)
        for a0 in (1e-3, 0.68, 40.0):
            k = d.k
            if a0 >= k:
                want, _ = expect(d, "avg_power",
                                 lambda t: a0 - k * (1.0 - t) / t,
                                 k / (k + a0))
            else:
                want, _ = expect(d.inverse, "avg_power",
                                 lambda u: a0 - k * u / (1.0 - u),
                                 0.0, a0 / (k + a0))
            assert avg_power(d, a0) == want


# -------------------------------------------------------------------- solver

def test_solver_rejects_nonpositive_inputs(d_micro):
    with pytest.raises(ValueError):
        solve_cutoff(d_micro, 0.0)
    with pytest.raises(ValueError):
        solve_cutoff(d_micro, -0.2)


def test_solver_micro_regression(micro, sol_micro):
    assert sol_micro.a0 == pytest.approx(A0_MICRO, rel=1e-6)
    assert sol_micro.residual <= 1e-6 * micro.p_bar
    assert sol_micro.achieved_avg_power == pytest.approx(micro.p_bar, rel=2e-6)
    assert sol_micro.solver_iterations > 0


def test_solver_macro_regression(macro, d_macro):
    sol = solve_cutoff(d_macro, macro.p_bar)
    assert sol.a0 == pytest.approx(A0_MACRO, rel=1e-6)
    assert sol.residual <= 1e-6 * macro.p_bar


def test_tiny_budget_is_met_against_mpmath(micro, d_micro):
    pytest.importorskip("mpmath")
    sol = solve_cutoff(d_micro, 1e-12)
    assert mp_avg_power(d_micro.m0, d_micro.mI, d_micro.k, sol.a0) == \
        pytest.approx(1e-12, rel=1e-9, abs=0.0)


def test_root_check_names_a_beta_weight_too_narrow_for_quadrature():
    # the CINR law of configs/micro.cfg at eta = 2.001: the closed form
    # solves for a0, but the quadrature at the root (like the rate
    # quadratures after it) finds no mass under the Beta(2, 2e6) weight
    d = BetaPrimeDist(2.0, 2002000.0000004407, 0.001569037581396647)
    with pytest.raises(NumericsError, match="eta -> 2") as err:
        solve_cutoff(d, 0.2)
    assert err.value.stage == "solve_cutoff"


def test_root_check_allows_the_larger_of_its_two_tolerances(
        monkeypatch, micro, d_micro):
    # the quadrature at the root may miss p_bar by 1e-6 p_bar or by its
    # own error estimate, whichever is larger, and by no more
    p_bar = micro.p_bar
    for miss, abserr, ok in ((0.9e-6 * p_bar, 0.0, True),
                             (1.1e-6 * p_bar, 0.0, False),
                             (1e-3 * p_bar, 1.1e-3 * p_bar, True),
                             (1e-3 * p_bar, 0.9e-3 * p_bar, False)):
        monkeypatch.setattr(powercontrol, "_avg_power_quad",
                            lambda d, a0: (p_bar + miss, abserr))
        if ok:
            sol = solve_cutoff(d_micro, p_bar)
            assert sol.achieved_avg_power == p_bar + miss
            assert sol.residual == pytest.approx(miss, rel=1e-9, abs=0.0)
        else:
            with pytest.raises(NumericsError) as err:
                solve_cutoff(d_micro, p_bar)
            assert err.value.stage == "solve_cutoff"


def test_water_level_rises_with_the_budget(d_micro, micro):
    a_small = solve_cutoff(d_micro, micro.p_bar).a0
    a_big = solve_cutoff(d_micro, 2.0 * micro.p_bar).a0
    assert a_big > a_small
    # the policy never exceeds the water level, so E[P] < a0 forces a0 > p_bar
    assert a_small > micro.p_bar


def test_transmit_probability_is_nontrivial(d_micro, sol_micro):
    off = betaprime(d_micro.m0, d_micro.mI,
                    scale=1.0 / d_micro.k).cdf(1.0 / sol_micro.a0)
    assert 0.0 < off < 1.0


def test_kkt_stationarity_above_cutoff(micro, sol_micro):
    # marginal utility B*gamma/(ln2 (1 + gamma P)) equals the Lagrange
    # multiplier mu0 = B/(a0 ln2) wherever the policy transmits — the
    # water-filling first-order condition
    mu0 = micro.bandwidth / (sol_micro.a0 * math.log(2.0))
    for g in np.logspace(0.1, 6, 9) / sol_micro.a0:
        p = power_policy(sol_micro, g)
        assert p > 0.0
        marginal = micro.bandwidth * g / (math.log(2.0) * (1.0 + g * p))
        assert marginal == pytest.approx(mu0, rel=1e-8)


def test_solution_record_is_frozen(sol_micro):
    with pytest.raises(AttributeError):
        sol_micro.a0 = 1.0  # type: ignore[misc]
    assert isinstance(sol_micro, WaterfillSolution)


# --------------------------------------------------------------- closed form

def closed_form_avg_power(d, a0, second_divisor):
    """a0^(mI+1)/(B(m0,mI) k^mI) * [F1/mI - F2/second_divisor] with
    F1 = 2F1(mI, mI+m0; 1+mI; -a0/k), F2 = 2F1(mI+1, mI+m0; 2+mI; -a0/k).
    The derivation prints second_divisor = mI; the term-by-term integral
    gives mI + 1.  Returns (value, F1, F2)."""
    z = -a0 / d.k
    f1 = hyp2f1(d.mI, d.mI + d.m0, 1.0 + d.mI, z)
    f2 = hyp2f1(d.mI + 1.0, d.mI + d.m0, 2.0 + d.mI, z)
    pref = math.exp((d.mI + 1.0) * math.log(a0) - d.mI * math.log(d.k)
                    - d.log_beta)
    return pref * (f1 / d.mI - f2 / second_divisor), f1, f2


def test_closed_form_as_printed_variant_does_not(d_micro, d_macro):
    # the variant with both hypergeometric terms divided by mI misses the
    # quadrature by 56% at the micro operating point and 85% at macro —
    # frozen as measured brackets
    for d, a0, lo, hi in ((d_micro, A0_MICRO, 0.4, 0.7),
                          (d_macro, A0_MACRO, 0.7, 0.95)):
        as_printed, _, _ = closed_form_avg_power(d, a0, d.mI)
        quadrature = avg_power(d, a0)
        gap = abs(as_printed - quadrature) / quadrature
        assert lo < gap < hi, f"as-printed gap {gap:.4f} left [{lo}, {hi}]"


def test_closed_form_vanishes_with_the_water_level(d_micro):
    corrected, f1, f2 = closed_form_avg_power(d_micro, 1e-30, d_micro.mI + 1.0)
    # prefactor a0^(mI+1) dominates; both 2F1 factors tend to 1
    assert abs(corrected) < 1e-60
    assert f1 == pytest.approx(1.0, abs=1e-12)
    assert f2 == pytest.approx(1.0, abs=1e-12)


def test_policy_underspends_under_the_poisson_field():
    # the budget is solved under the fitted CINR law: the Gamma fit of I
    # with N0 folded in as a mean shift.  That law puts far more mass on a
    # near-silent I + N0 than the Poisson field (whose sum never drops
    # below N0) has, so under the field the policy underspends.  The
    # exact field values are E[P]/p_bar = 0.900 (micro) and 0.163 (macro);
    # holding the Gamma law but adding N0 exactly already gives 0.960 and
    # 0.299.  Measured 0.895 / 0.162 at n = 1e5 with standard error
    # ~0.003 — model error, frozen as brackets.
    from fdcap.capacity import solve_network
    from fdcap.mcsim import MCConfig, interference_samples

    for kwargs, seed, lo, hi in [({}, 9201, 0.87, 0.92),
                                 ({"lam": 5e-6, "p_bs": 20.0}, 9202, 0.14, 0.19)]:
        cfg = make_cfg(**kwargs)
        _, sol = solve_network(cfg)
        i_vals = interference_samples(cfg, MCConfig(100_000, seed,
                                                    tail_epsilon=1e-3))
        fs = cfg.fading_signal
        rng = np.random.default_rng(seed)
        h = (rng.gamma(fs.shape, fs.scale, i_vals.size)
             * (2.0 * math.sqrt(cfg.lam)) ** (-cfg.eta))
        spent = float(np.mean(power_policy(sol, h / (i_vals + cfg.n0))))
        assert lo < spent / cfg.p_bar < hi, \
            f"E[P]/p_bar = {spent / cfg.p_bar:.4f} left [{lo}, {hi}]"
