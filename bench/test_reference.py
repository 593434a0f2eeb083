"""Tests of the benchmark's own reference computations and tracer.

    PYTHONPATH=src python -m pytest -q bench
"""
import importlib.util
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
from layertrace import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MICRO = {"lambda": 5e-5, "p_bs": 1.0, "eta": 4.0, "n0": 1e-9,
         "bandwidth": 180e3, "p_bar": 0.2, "m_int": 1.0, "omega_int": 1.0,
         "m_sig": 2.0, "omega_sig": 1.6e-15}


@pytest.fixture(scope="module")
def field_helpers():
    """tests/conftest.py, loaded under its own name."""
    spec = importlib.util.spec_from_file_location(
        "fdcap_field_helpers", os.path.join(ROOT, "tests", "conftest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def annulus(cfg, eps=1e-3):
    r0 = 1.0 / math.sqrt(math.pi * cfg["lambda"])
    return r0, r0 * eps ** (1.0 / (2.0 - cfg["eta"]))


def test_beta_prime_reference_matches_hand_solved_case():
    # eta = 4 and m_int = 1/2 give m_I = 3m/(m+1) = 1; with m_sig = 1 the
    # CINR CCDF is 1/(1 + kx), so by hand
    #   E[P](a0) = a0 - k ln(1 + a0/k),  C_opt = (B/ln 2) ln(1 + a0/k),
    #   C_fixed = (B/ln 2) p/(p - k) ln(p/k).
    cfg = dict(MICRO, m_int=0.5, m_sig=1.0)
    ref = reference.BetaPrimeReference(cfg)
    omega_i = 2.0 * (math.pi * cfg["lambda"]) ** 2 / (4.0 - 2.0)
    k = (2.0 * math.sqrt(cfg["lambda"])) ** 4 * (omega_i + 1e-9) / 1.6e-15
    assert ref.m_i == pytest.approx(1.0, rel=1e-15)
    assert ref.k == pytest.approx(k, rel=1e-13)
    a0 = ref.water_level(cfg["p_bar"])
    assert a0 - k * math.log1p(a0 / k) == pytest.approx(0.2, rel=1e-10)
    bits = cfg["bandwidth"] / math.log(2.0)
    assert ref.waterfill_rate(a0) == pytest.approx(
        bits * math.log1p(a0 / k), rel=1e-10)
    p = cfg["p_bar"]
    assert ref.fixed_rate() == pytest.approx(
        bits * p / (p - k) * math.log(p / k), rel=1e-10)


@pytest.mark.parametrize("cfg", [MICRO, dict(MICRO, **{"lambda": 5e-6,
                                                       "p_bs": 20.0}),
                                 dict(MICRO, eta=3.3, m_int=2.5)])
def test_campbell_cumulants_match_field_law(field_helpers, cfg):
    net = field_helpers.make_cfg(lam=cfg["lambda"], p_bs=cfg["p_bs"],
                                 eta=cfg["eta"], m_int=cfg["m_int"])
    r_min, r_max = annulus(cfg)
    law = field_helpers.FieldLaw(net, r_min, r_max)
    for k, kappa in zip((1, 2, 3, 4),
                        reference.annulus_cumulants(cfg, r_min, r_max)):
        assert kappa == pytest.approx(law.cumulant(k), rel=1e-9)


def test_field_waterfill_rate_matches_field_law(field_helpers):
    net = field_helpers.make_cfg()
    r_min, r_max = annulus(MICRO)
    law = field_helpers.field_cinr(net, r_min, r_max)
    for a0 in (0.05, 0.22, 1.0):
        assert reference.field_waterfill_rate(MICRO, r_min, r_max, a0) == \
            pytest.approx(law.waterfill_rate(a0, MICRO["bandwidth"]), rel=1e-8)


def test_hd_rate_matches_an_independent_simulation():
    # the same uplink field drawn with plain numpy, apart from fdcap
    import numpy as np
    rng = np.random.default_rng(7)
    cfg, n = MICRO, 20_000
    r_min, r_max = annulus(cfg)
    rho = cfg["p_bar"] * (0.5 / math.sqrt(cfg["lambda"])) ** -cfg["eta"]
    nu = cfg["lambda"] * math.pi * (r_max ** 2 - r_min ** 2)
    counts = rng.poisson(nu, n)
    r_sq = rng.uniform(r_min ** 2, r_max ** 2, counts.sum())
    d_sq = rng.exponential(1.0 / (math.pi * cfg["lambda"]), counts.sum())
    marks = rng.exponential(1.0, counts.sum())           # Gamma(1, 1)
    i_up = np.bincount(np.repeat(np.arange(n), counts),
                       weights=rho * marks * (d_sq / r_sq) ** 2, minlength=n)
    g = rng.gamma(2.0, 0.5, n)
    rate = 0.5 * cfg["bandwidth"] * np.log2(1.0 + rho * g / (i_up + cfg["n0"]))
    se = rate.std(ddof=1) / math.sqrt(n)
    want = reference.hd_rate(cfg, rho, r_max / r_min)
    assert abs(rate.mean() - want) < 4.0 * se


def test_tracer_counts_layers_and_restores_bindings():
    import fdcap.capacity
    import fdcap.powercontrol
    from fdcap import GammaParams, NetworkConfig

    net = NetworkConfig(lam=5e-5, p_bs=1.0, eta=4.0, n0=1e-9,
                        bandwidth=180e3, p_bar=0.2,
                        fading_interferer=GammaParams(1.0, 1.0),
                        fading_signal=GammaParams(2.0, 1.6e-15))
    original = fdcap.powercontrol.solve_cutoff
    tracer = Tracer()
    tracer.install()
    try:
        assert fdcap.capacity.solve_cutoff is fdcap.powercontrol.solve_cutoff
        assert fdcap.capacity.solve_cutoff is not original
        _, sol = fdcap.capacity.solve_network(net)
    finally:
        tracer.remove()
    assert fdcap.capacity.solve_cutoff is original
    stats = tracer.layer_stats()
    assert stats["capacity.solve_network"]["calls"] == 1
    assert stats["powercontrol.solve_cutoff"]["calls"] == 1
    assert stats["powercontrol.avg_power"]["calls"] == \
        sol.solver_iterations + 1
    assert tracer.counts["powercontrol.solve_cutoff.iterations"] == \
        sol.solver_iterations
    assert tracer.counts["integrate.quad_strict.neval"] > 0
    total = max(e for _, _, e, _ in tracer.spans) - min(
        s for _, s, _, _ in tracer.spans)
    self_sum = sum(v["self_s"] for v in stats.values())
    assert self_sum == pytest.approx(total, rel=1e-6)
