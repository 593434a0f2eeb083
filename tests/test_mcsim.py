"""Poisson-field simulator: determinism contract, truncation control, and
agreement of the sampled field with the analytic moments.

The sampled field is checked against its exact law in acceptance criterion
1.  Here the KS distance between sampled interference and the fitted
two-moment Gamma law at the interference-field reference regime (50
BS/km^2, 20 W, eta = 4, Rayleigh marks) is frozen as a bracket near 0.069:
that is the fit's model error (the exact field law sits 0.0688 from the fit
on the simulated annulus), not sampler noise.  The fit promises only the
two moments, which are tested tightly.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc

from fdcap import capacity, mcsim
from fdcap.interference import gamma_fit, mean_interference, second_moment
from fdcap.mcsim import (MCConfig, estimate_fd_rates, estimate_hd,
                         interference_samples, summarize, write_histogram_csv)
from fdcap.model import derived_geometry
from conftest import FieldLaw, ks_distance, make_cfg, mc_annulus


@pytest.fixture(scope="module")
def fig2():
    return make_cfg(p_bs=20.0)


@pytest.fixture(scope="module")
def fig2_samples(fig2):
    # shared across the moment / KS / shape tests so the field is sampled once
    return mcsim.interference_samples(
        fig2, MCConfig(100_000, 17, tail_epsilon=1e-3))


@pytest.fixture(scope="module")
def fig2_cumulant_samples(fig2):
    # shared by the cumulant tests against the exact law of the annulus
    return interference_samples(fig2, MCConfig(500_000, 31,
                                               tail_epsilon=1e-3))


# ---------------------------------------------------------------- config --

@pytest.mark.parametrize("kwargs, match", [
    ({"n_samples": 0, "seed": 0}, "n_samples"),
    ({"n_samples": 10, "seed": -1}, "seed"),
    ({"n_samples": 10, "seed": 1 << 64}, "seed"),
    ({"n_samples": 10, "seed": 0, "r_max": 0.0}, "r_max"),
    ({"n_samples": 10, "seed": 0, "tail_epsilon": 0.0}, "tail_epsilon"),
    ({"n_samples": 10, "seed": 0, "tail_epsilon": 0.5}, "tail_epsilon"),
    ({"n_samples": 10, "seed": 0, "workers": 0}, "workers"),
])
def test_mcconfig_rejects(kwargs, match):
    with pytest.raises(ValueError, match=match):
        MCConfig(**kwargs)


def test_mcconfig_accepts_64_bit_seed():
    MCConfig(n_samples=1, seed=(1 << 64) - 1)


def test_resolve_rmax(micro):
    r0 = derived_geometry(micro).r0

    def rmax(cfg, r_min, **kwargs):
        return mcsim._resolve_rmax(cfg, MCConfig(1, 0, **kwargs), r_min)

    # eta = 4: tail fraction (R/r0)^-2, so eps = 1e-4 needs R = 100 r0
    assert rmax(micro, r0, tail_epsilon=1e-4) == pytest.approx(100.0 * r0,
                                                                rel=1e-12)
    radii = [rmax(micro, r0, tail_epsilon=e) for e in (1e-2, 1e-3, 1e-4)]
    assert radii[0] < radii[1] < radii[2]
    assert rmax(micro, 2.0 * r0, tail_epsilon=1e-4) == pytest.approx(
        200.0 * r0, rel=1e-12)
    assert rmax(micro, r0, r_max=500.0) == 500.0
    # eps^(1/(2 - eta)) overflows this close to eta = 2: the field then
    # covers the whole plane outside r0
    assert rmax(make_cfg(eta=2.005), r0) == math.inf


@pytest.mark.parametrize("eta, most_points", [(4.0, 15.0), (3.0, 51.0),
                                              (2.05, 1e3)])
def test_near_field_leaves_the_ring_its_third_cumulant_share(eta,
                                                             most_points):
    # R_near leaves the ring [R_near, R_max] the share NEAR_SKEW_SHARE of
    # the third cumulant, which costs about delta3^(-2/(3 eta - 2)) points
    cfg = make_cfg(eta=eta)
    r0, rmax = mc_annulus(cfg, 1e-3)
    rn = mcsim._near_radius(eta, r0, rmax)
    assert cfg.lam * math.pi * (rn * rn - r0 * r0) < most_points
    share = (FieldLaw(cfg, rn, rmax).cumulant(3)
             / FieldLaw(cfg, r0, rmax).cumulant(3))
    assert share == pytest.approx(mcsim.NEAR_SKEW_SHARE, rel=1e-9, abs=0.0)


def test_explicit_rmax_must_exceed_exclusion_radius(micro):
    mc = MCConfig(10, 0, r_max=1.0)  # r0 ~ 79.8 m
    with pytest.raises(ValueError, match="exclusion radius"):
        interference_samples(micro, mc)


# ----------------------------------------------------------- determinism --

def test_same_seed_same_field(fig2):
    mc = MCConfig(3000, 12345, tail_epsilon=1e-2)
    a = interference_samples(fig2, mc)
    b = interference_samples(fig2, mc)
    assert np.array_equal(a, b)
    c = interference_samples(fig2, MCConfig(3000, 12346, tail_epsilon=1e-2))
    assert not np.array_equal(a, c)


def test_worker_count_does_not_change_results(fig2):
    base = interference_samples(fig2, MCConfig(5000, 77, tail_epsilon=1e-2))
    for workers in (2, 3):
        par = interference_samples(
            fig2, MCConfig(5000, 77, tail_epsilon=1e-2, workers=workers))
        assert np.array_equal(base, par)


def test_chunk_draw_order_is_the_documented_one(fig2):
    # reproduce the first chunk by hand: Poisson counts, then uniform radii
    # out to R_near, then unit-scale Gamma marks times one folded scale,
    # then one Gamma variate per sample with the Campbell mean and variance
    # of the ring [R_near, R_max], all from the chunk-0 PCG64 stream
    geo = derived_geometry(fig2)
    r0, eta = geo.r0, fig2.eta
    fi = fig2.fading_interferer
    for eps in (1e-2, 1e-3):
        mc = MCConfig(100, 99, tail_epsilon=eps)
        vals = interference_samples(fig2, mc)
        rmax = r0 * eps ** (1.0 / (2.0 - eta))
        q = (rmax / r0) ** (2.0 - 3.0 * eta)
        rn = min(rmax, r0 * (q + mcsim.NEAR_SKEW_SHARE * (1.0 - q))
                 ** (1.0 / (2.0 - 3.0 * eta)))
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(99, spawn_key=(0,))))
        counts = rng.poisson(fig2.lam * math.pi * (rn * rn - r0 * r0), 100)
        u = rng.random(int(counts.sum()))
        r_sq = r0 * r0 + u * (rn * rn - r0 * r0)
        marks = rng.standard_gamma(fi.shape, int(counts.sum()))
        w = marks * (fi.scale * fig2.p_bs) * r_sq ** (-0.5 * eta)
        mark_sq = fi.mean * fi.mean * (1.0 + 1.0 / fi.shape)
        k1, k2 = (2.0 * math.pi * fig2.lam * moment / (n * eta - 2.0)
                  * (rn ** (2.0 - n * eta) - rmax ** (2.0 - n * eta))
                  for n, moment in ((1, fi.mean * fig2.p_bs),
                                    (2, mark_sq * fig2.p_bs * fig2.p_bs)))
        ring = rng.gamma(k1 * k1 / k2, k2 / k1, 100)
        manual = np.bincount(np.repeat(np.arange(100), counts), weights=w,
                             minlength=100) + ring
        assert np.array_equal(manual, vals)


class _GammaSpy:
    """A Generator that records its Gamma draws in order: ("gamma", shape,
    scale, size) and ("standard_gamma", shape, 1.0, size)."""

    def __init__(self, rng):
        self._rng, self.gamma_calls = rng, []

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def gamma(self, shape, scale, size):
        self.gamma_calls.append(("gamma", shape, scale, size))
        return self._rng.gamma(shape, scale, size)

    def standard_gamma(self, shape, size):
        self.gamma_calls.append(("standard_gamma", shape, 1.0, size))
        return self._rng.standard_gamma(shape, size)


def _ring_mean_and_variance(cfg, r0, rmax, tx=None):
    """Mean and variance of the ring variate _field_interference draws:
    its one scaled gamma draw, after the unit-scale marks."""
    spy = _GammaSpy(np.random.default_rng(0))
    mcsim._field_interference(cfg, r0, rmax, 8, spy, tx)
    assert [c[0] for c in spy.gamma_calls] == ["standard_gamma", "gamma"]
    _, shape, scale, size = spy.gamma_calls[-1]
    assert size == 8
    return shape * scale, shape * scale * scale


def test_ring_variate_has_the_ring_cumulants(fig2):
    r0, rmax = mc_annulus(fig2, 1e-3)
    ring = FieldLaw(fig2, mcsim._near_radius(fig2.eta, r0, rmax), rmax)
    mean, var = _ring_mean_and_variance(fig2, r0, rmax)
    assert mean == pytest.approx(ring.cumulant(1), rel=1e-10, abs=0.0)
    assert var == pytest.approx(ring.cumulant(2), rel=1e-10, abs=0.0)


def test_uplink_ring_variate_has_the_ring_cumulants():
    # the uplink ring's cumulants are those of unit-power marks times
    # E[tx^n], here by quadrature over d^2 ~ Exp(mean 1/(pi lambda)),
    # in units of that mean
    cfg = make_cfg(eta=3.0)
    rho = capacity.default_rho(cfg)
    d_sq_mean = 1.0 / (math.pi * cfg.lam)
    r0, rmax = mc_annulus(cfg, 1e-3)
    unit = FieldLaw(replace(cfg, p_bs=1.0),
                    mcsim._near_radius(cfg.eta, r0, rmax), rmax)

    def tx_moment(n):
        val, err = quad(lambda t: t ** (0.5 * n * cfg.eta) * math.exp(-t),
                        0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        assert err < 1e-11 * val
        return (rho * d_sq_mean ** (0.5 * cfg.eta)) ** n * val

    mean, var = _ring_mean_and_variance(cfg, r0, rmax,
                                        mcsim._uplink_power(cfg, rho))
    assert mean == pytest.approx(unit.cumulant(1) * tx_moment(1), rel=1e-10,
                                 abs=0.0)
    assert var == pytest.approx(unit.cumulant(2) * tx_moment(2), rel=1e-10,
                                abs=0.0)


def test_fd_estimator_determinism_across_workers(micro):
    _, sol = capacity.solve_network(micro)
    mc1 = MCConfig(10_000, 42, tail_epsilon=1e-2)
    mc3 = MCConfig(10_000, 42, tail_epsilon=1e-2, workers=3)
    (s1,) = estimate_fd_rates(micro, mc1, [sol])[1]
    (s3,) = estimate_fd_rates(micro, mc3, [sol])[1]
    assert s1.mean == s3.mean and s1.variance == s3.variance


@pytest.mark.parametrize("workers", [1, 3])
def test_fd_rates_pass_equals_the_single_estimators(micro, workers):
    # one pass returns the field interference_samples draws and the rate of
    # each power as a pass with that power alone gives it, bit for bit;
    # 5000 is not a multiple of CHUNK, so the last chunk is short
    _, sol = capacity.solve_network(micro)
    mc = MCConfig(5000, 8, tail_epsilon=1e-2, workers=workers)
    field, (opt, fixed) = mcsim.estimate_fd_rates(micro, mc,
                                                  [sol, micro.p_bar])
    assert 5000 % mcsim.CHUNK and field.shape == (5000,)
    assert np.array_equal(field, interference_samples(micro, mc))
    assert [opt] == estimate_fd_rates(micro, mc, [sol])[1]
    assert [fixed] == estimate_fd_rates(micro, mc, [micro.p_bar])[1]
    assert opt.n == fixed.n == 5000 and opt.mean != fixed.mean


# ------------------------------------------------------------- sampling --

def test_sample_interference_single_draw(fig2):
    v = interference_samples(fig2, MCConfig(1, 4, tail_epsilon=1e-2))
    assert v.shape == (1,) and v[0] > 0.0


def test_silent_downlink_gives_zero_interference():
    cfg = make_cfg(p_bs=0.0)
    vals = interference_samples(cfg, MCConfig(500, 1, tail_epsilon=1e-2))
    assert np.all(vals == 0.0)


def test_field_cumulants_match_the_annulus_law(fig2, fig2_cumulant_samples):
    # the far ring enters with its own mean and variance, so both are the
    # whole annulus'
    n = fig2_cumulant_samples.size
    law = FieldLaw(fig2, *mc_annulus(fig2, 1e-3))
    k1, k2, k4 = law.cumulant(1), law.cumulant(2), law.cumulant(4)
    st = summarize(fig2_cumulant_samples)
    assert abs(st.mean - k1) < 4.0 * math.sqrt(k2 / n)
    assert abs(st.variance - k2) < 4.0 * math.sqrt((k4 + 2.0 * k2 * k2) / n)


def test_field_third_cumulant_matches_the_annulus_law(fig2,
                                                      fig2_cumulant_samples):
    # the ring holds the share NEAR_SKEW_SHARE of the third cumulant, and
    # its Gamma variate matches only two: far below the k-statistic's noise
    x = fig2_cumulant_samples
    n = x.size
    k = [FieldLaw(fig2, *mc_annulus(fig2, 1e-3)).cumulant(j)
         for j in range(7)]
    k3_hat = n * n / ((n - 1.0) * (n - 2.0)) * float(np.mean((x - x.mean())
                                                             ** 3))
    se = math.sqrt((k[6] + 9.0 * k[4] * k[2] + 9.0 * k[3] * k[3]
                    + 6.0 * k[2] ** 3) / n)
    assert abs(k3_hat - k[3]) < 4.0 * se


def test_uplink_field_mean_is_the_annulus_campbell_mean():
    # estimate_hd's uplink field at eta = 3, where the ring [R_near, R_max]
    # holds 14% of the mean, against the annulus' Campbell mean and
    # variance: the cumulants of unit-power marks times
    # E[tx^n] = rho^n Gamma(1 + n eta/2) (pi lambda)^(-n eta/2)
    cfg = make_cfg(eta=3.0)
    rho = capacity.default_rho(cfg)
    r0, rmax = mc_annulus(cfg, 1e-3)
    tx = mcsim._uplink_power(cfg, rho)
    vals = mcsim._field_chunks(cfg, MCConfig(30_000, 13),
                               lambda field, rng: field, tx_power=tx)
    unit = FieldLaw(replace(cfg, p_bs=1.0), r0, rmax)
    k1, k2, k4 = (unit.cumulant(n) * rho ** n * gamma_fn(1.0 + 1.5 * n)
                  * (math.pi * cfg.lam) ** (-1.5 * n) for n in (1, 2, 4))
    mean_tx = rho * gamma_fn(2.5) * (math.pi * cfg.lam) ** -1.5
    campbell = (2.0 * math.pi * cfg.lam * cfg.fading_interferer.mean * mean_tx
                * (1.0 / r0 - 1.0 / rmax))
    assert k1 == pytest.approx(campbell, rel=1e-12, abs=0.0)
    st = summarize(vals)
    assert abs(st.mean - campbell) < 4.0 * st.std_error
    assert abs(st.variance - k2) < 4.0 * math.sqrt((k4 + 2.0 * k2 * k2)
                                                   / st.n)


def test_field_moments_match_analytic(fig2, fig2_samples):
    # the two exact moments are the fit's contract: ~0.4% / 0.7% observed at
    # n = 1e5 (MC noise; standard error of the mean is ~0.5%)
    m1 = float(np.mean(fig2_samples))
    m2 = float(np.mean(fig2_samples ** 2))
    assert m1 == pytest.approx(mean_interference(fig2), rel=0.01, abs=0.0)
    assert m2 == pytest.approx(second_moment(fig2), rel=0.02, abs=0.0)


def test_field_shape_matches_fit(fig2, fig2_samples):
    fit = gamma_fit(fig2)
    emp_shape = np.mean(fig2_samples) ** 2 / np.var(fig2_samples, ddof=1)
    assert emp_shape == pytest.approx(fit.shape, rel=0.03)


def test_field_vs_fitted_gamma_ks_is_structurally_large(fig2, fig2_samples):
    # the fitted Gamma matches moments, not shape: the exact field law on
    # this annulus is KS 0.0688 from it, and the samples measure 0.068-0.070
    # at n = 1e5, an order of magnitude above MC noise (~1/sqrt(n) = 0.003)
    fit = gamma_fit(fig2)
    ks = ks_distance(fig2_samples,
                     lambda v: gammainc(fit.shape, v / fit.scale))
    assert 0.055 < ks < 0.085


def test_truncation_budget_is_honored(fig2):
    # widening R_max tenfold beyond the eps = 0.01 choice moves the mean by
    # no more than the promised tail fraction plus MC noise
    base = summarize(interference_samples(
        fig2, MCConfig(20_000, 5, tail_epsilon=0.01)))
    wide = summarize(interference_samples(
        fig2, MCConfig(20_000, 5, r_max=10.0 * mc_annulus(fig2, 0.01)[1])))
    tol = 0.01 * mean_interference(fig2) + 3.0 * (base.std_error + wide.std_error)
    assert abs(base.mean - wide.mean) < tol


# ----------------------------------------------------------- estimators --

def test_hd_benchmark_invariant_to_density_and_target(micro):
    # doubling BS density and doubling the received-power target together
    # leave the HD rate nearly unchanged (power control renormalizes both);
    # observed 2.9% at these seeds, noise ~0.3%
    rho = 5.0 * capacity.default_rho(micro)
    dense = make_cfg(lam=2.0 * micro.lam)
    h1 = estimate_hd(micro, rho, MCConfig(50_000, 23, tail_epsilon=1e-3))
    h2 = estimate_hd(dense, 2.0 * rho, MCConfig(50_000, 24, tail_epsilon=1e-3))
    assert h2.mean == pytest.approx(h1.mean, rel=0.05)


# ------------------------------------------------------------ summaries --

def test_summarize_small_array():
    st = summarize(np.array([1.0, 2.0, 3.0, 4.0]))
    assert st.mean == 2.5
    assert st.variance == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert st.std_error == pytest.approx(math.sqrt(5.0 / 12.0), rel=1e-15)
    assert st.n == 4 and st.histogram is None


def test_summarize_single_value():
    st = summarize(np.array([7.0]))
    assert st.mean == 7.0 and st.variance == 0.0 and st.std_error == 0.0


def test_summarize_histogram_counts(fig2):
    vals = interference_samples(fig2, MCConfig(20_000, 2, tail_epsilon=1e-2))
    st = summarize(vals, histogram=True)
    edges, counts = st.histogram
    assert counts.sum() == st.n
    assert len(edges) == len(counts) + 1
    # empirical density integrates to one
    assert float(np.sum(counts / st.n)) == pytest.approx(1.0, abs=1e-12)


def test_histogram_csv_round_trip(tmp_path, fig2):
    st = summarize(interference_samples(
        fig2, MCConfig(10_000, 8, tail_epsilon=1e-2)), histogram=True)
    out = tmp_path / "hist.csv"
    fit = gamma_fit(fig2)
    scale = fit.scale

    def model_pdf(x):
        return (x ** (fit.shape - 1.0) * math.exp(-x / scale)
                / (math.gamma(fit.shape) * scale ** fit.shape))

    write_histogram_csv(str(out), st, pdf=model_pdf)
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == "bin_left,bin_right,density,model_density"
    edges, counts = st.histogram
    assert len(lines) == 1 + len(counts)
    left, right, dens, model = (float(f) for f in lines[1].split(","))
    assert left == pytest.approx(edges[0], rel=1e-8)
    assert right == pytest.approx(edges[1], rel=1e-8)
    assert dens == pytest.approx(counts[0] / (st.n * (edges[1] - edges[0])),
                                 rel=1e-8)
    assert model == pytest.approx(model_pdf(0.5 * (edges[0] + edges[1])),
                                  rel=1e-8)
    # density columns integrate to ~1 over the written bins
    total = sum(float(l.split(",")[2]) * (float(l.split(",")[1])
                                          - float(l.split(",")[0]))
                for l in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_histogram_csv_requires_histogram(tmp_path):
    st = summarize(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="histogram"):
        write_histogram_csv(str(tmp_path / "x.csv"), st)
