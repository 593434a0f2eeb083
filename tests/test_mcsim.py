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
import ast
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc

from fdcap import capacity, mcsim
from fdcap.interference import gamma_fit, mean_interference, second_moment
from fdcap.mcsim import (MCConfig, estimate_fd_rates, estimate_hd,
                         interference_samples, summarize)
from conftest import (FieldLaw, fd_rate_rows, ks_distance, law_gap,
                      make_cfg, mc_annulus, mc_chunk, near_field,
                      uplink_chunk, uplink_ring_cumulant)


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


def copy_field(field, rng, out):
    """The chunk body of _field_chunks that keeps the field itself."""
    out[...] = field


# ---------------------------------------------------------- independence --

def test_simulator_imports_only_the_model_from_the_package():
    # ROADMAP item 1: the simulator is an independent check of the analytic
    # layer, so from fdcap it takes only the model and the error type.  The
    # source is read, since importing mcsim loads all of fdcap
    tree = ast.parse(Path(mcsim.__file__).read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                taken.add((node.module, alias.name) if node.module
                          else (alias.name, None))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            assert not any(n.split(".")[0] == "fdcap" for n in names)
    assert {module for module, _ in taken} == {"model", "_integrate"}
    assert {name for module, name in taken
            if module == "_integrate"} == {"NumericsError"}


# ---------------------------------------------------------------- config --

@pytest.mark.parametrize("kwargs, match", [
    ({"n_samples": 0, "seed": 0}, "n_samples"),
    ({"n_samples": 10, "seed": -1}, "seed"),
    ({"n_samples": 10, "seed": 1 << 64}, "seed"),
    ({"n_samples": 10, "seed": 0, "r_max": 0.0}, "r_max"),
    ({"n_samples": 10, "seed": 0, "tail_epsilon": 0.0}, "tail_epsilon"),
    ({"n_samples": 10, "seed": 0, "tail_epsilon": 0.5}, "tail_epsilon"),
    ({"n_samples": 10, "seed": 0, "workers": 0}, "workers"),
    ({"n_samples": 10, "seed": 0, "workers": mcsim.MAX_WORKERS + 1},
     "workers"),
])
def test_mcconfig_rejects(kwargs, match):
    with pytest.raises(ValueError, match=match):
        MCConfig(**kwargs)


def test_mcconfig_accepts_64_bit_seed():
    MCConfig(n_samples=1, seed=(1 << 64) - 1)


def test_resolve_rmax(micro):
    r0 = micro.r0

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


# the law-gap grid, (eta, m_int, r_min / r0, tail_epsilon): eta and m_int
# across DOMAIN, at both ends and inside, on the model's annulus, and the
# baselines' geometry at r_min = r0/2, r0 and 2 r0 and tail shares 1e-4
# to 1e-2
GAP_GRID = ([(eta, m, 1.0, 1e-3) for eta in (3.0, 4.0, 5.0, 8.0)
             for m in (0.05, 0.3, 1.0, 3.0, 10.0)]
            + [(2.05, m, 1.0, 1e-3) for m in (0.05, 1.0, 10.0)]
            + [(2.5, 0.15, 1.0, 1e-3), (3.6, 0.6, 1.0, 1e-3),
               (4.4, 1.8, 1.0, 1e-3), (5.5, 2.5, 1.0, 1e-3)]
            + [(4.0, 1.0, f, eps) for f in (0.5, 1.0, 2.0)
               for eps in (1e-4, 1e-3, 1e-2) if (f, eps) != (1.0, 1e-3)])


def _gap_case(eta, m, r_factor, eps):
    """(cfg, r_min, R_max) of one GAP_GRID point, on the micro baseline."""
    cfg = make_cfg(eta=eta, m_int=m)
    r_min = r_factor * cfg.r0
    return cfg, r_min, mcsim._resolve_rmax(
        cfg, MCConfig(1, 0, tail_epsilon=eps), r_min)


@pytest.mark.parametrize("eta, m, uplink", [(4.0, 1.0, False),
                                            (3.0, 1.0, False),
                                            (3.0, 10.0, False),
                                            (2.05, 0.05, False),
                                            (4.0, 1.0, True),
                                            (2.05, 1.0, True)])
def test_near_field_leaves_the_ring_the_rules_third_cumulant_share(
        eta, m, uplink):
    # R_near leaves the BS field's ring [R_near, R_max] the share of the
    # third cumulant that _near_share picks; the uplink field cuts at the
    # same R_near, at t = T = pi lambda R_near^2, and its near field holds
    # the mass of the exact t field below T
    cfg = make_cfg(eta=eta, m_int=m)
    r0, rmax = mc_annulus(cfg, 1e-3)
    rn, _ = near_field(cfg, r0, rmax)
    share = (FieldLaw(cfg, rn, rmax).cumulant(3)
             / FieldLaw(cfg, r0, rmax).cumulant(3))
    assert share == pytest.approx(mcsim._near_share(cfg, r0, rmax),
                                  rel=1e-9, abs=0.0)
    if uplink:
        t = math.pi * cfg.lam * rn * rn
        exact = FieldLaw.uplink(cfg, 1.0, r0, rmax, t_hi=t).cumulant(0)
        assert mcsim.uplink_near_points(cfg, MCConfig(1, 0)) == pytest.approx(
            exact, rel=1e-12, abs=0.0)


def _least_share_points(cfg, r_min, rmax):
    """Expected near-field points per sample of a radius split that leaves
    the ring delta3 = NEAR_SKEW_SHARE, in either field."""
    rn = mcsim._near_radius(cfg.eta, r_min, rmax, mcsim.NEAR_SKEW_SHARE)
    return math.pi * cfg.lam * (rn * rn - r_min * r_min)


def test_near_field_never_holds_more_points_than_at_the_least_share():
    # the budget only widens the ring: over the law-gap grid the BS field
    # draws at most the points per sample that delta3 = NEAR_SKEW_SHARE
    # draws.  At the baselines (eta = 4, m = 1, r0), where that share draws
    # 14.85, the BS field draws at most 4.4 and the uplink field, cut by
    # received power at the same R_near, 4.5; at eta = 3, where it draws
    # 50.8, they draw at most 6.2 and 6.3
    for point in GAP_GRID:
        cfg, r_min, rmax = _gap_case(*point)
        share = mcsim._near_share(cfg, r_min, rmax)
        assert mcsim.NEAR_SKEW_SHARE <= share <= mcsim.MAX_SKEW_SHARE
        least = _least_share_points(cfg, r_min, rmax)
        assert near_field(cfg, r_min, rmax)[1] <= least
    for cfg, most, most_uplink, least in (
            (make_cfg(), 4.4, 4.5, 14.85),
            (make_cfg(lam=5e-6, p_bs=20.0), 4.4, 4.5, 14.85),
            (make_cfg(eta=3.0), 6.2, 6.3, 50.8)):
        r0, rmax = mc_annulus(cfg, 1e-3)
        assert _least_share_points(cfg, r0, rmax) == pytest.approx(
            least, abs=0.01)
        assert near_field(cfg, r0, rmax)[1] <= most
        assert mcsim.uplink_near_points(cfg, MCConfig(1, 0)) <= most_uplink
    # an annulus thinner than any the rule was fitted on, (R_max/r0)^(2 -
    # eta) = 1/4 here, which only an explicit r_max reaches, keeps the least
    # share
    cfg = make_cfg()
    assert (mcsim._near_share(cfg, cfg.r0, 2.0 * cfg.r0)
            == mcsim.NEAR_SKEW_SHARE)


# the GAP_GRID points whose sampled laws may stay farther than
# LAW_GAP_BUDGET from the annulus law, and how far (BS field, uplink
# field), each gap rounded up at two digits: the rule keeps
# NEAR_SKEW_SHARE there, and a narrower ring than that would cost more
# points.  Where the ring's shifted Gamma would have c < kappa_1/20 or
# k < 1.5 (a ring of about one effective point) the ring variate is the
# c = 0 Gamma, whose gaps these are
FLOOR_GAPS = {(4.0, 0.05, 1.0, 1e-3): (9.2e-3, 8.6e-3),
              (5.0, 0.05, 1.0, 1e-3): (3.1e-2, 2.5e-2),
              (5.0, 0.3, 1.0, 1e-3): (2.7e-4, 2.4e-4),
              (8.0, 0.05, 1.0, 1e-3): (3.9e-2, 2.2e-2),
              (8.0, 0.3, 1.0, 1e-3): (1.1e-2, 6.6e-3),
              (8.0, 1.0, 1.0, 1e-3): (1.3e-3, 1.4e-4),
              (8.0, 3.0, 1.0, 1e-3): (1.2e-3, 3.4e-3),
              (8.0, 10.0, 1.0, 1e-3): (2.2e-3, 5.2e-3),
              (4.0, 1.0, 0.5, 1e-4): (1.5e-4, 1.6e-4),
              (4.0, 1.0, 0.5, 1e-3): (1.6e-4, 1.5e-4),
              (4.0, 1.0, 0.5, 1e-2): (1.4e-4, 1.0e-4)}


def test_sampled_law_stays_within_the_law_gap_budget():
    # both fields' sampled laws, by transform inversion and no sampling, at
    # the rule's own R_near, with the ring variate the sampler draws.  Each
    # is within LAW_GAP_BUDGET of the annulus law, except at the floor
    # points FLOOR_GAPS, where each stays within its listed gap; and each
    # is within max(LAW_GAP_BUDGET, the gap of the c = 0 Gamma variate at
    # the same R_near): the shifted ring makes no law worse
    start = time.process_time()
    for point in GAP_GRID:
        cfg, r_min, rmax = _gap_case(*point)
        share = mcsim._near_share(cfg, r_min, rmax)
        rn = near_field(cfg, r_min, rmax)[0]
        for field, rho in enumerate((None, 1.0)):
            gap = law_gap(cfg, r_min, rmax, rn, rho)
            if gap <= mcsim.LAW_GAP_BUDGET:
                continue
            assert point in FLOOR_GAPS, (point, rho, share, gap)
            assert share == mcsim.NEAR_SKEW_SHARE
            assert gap <= FLOOR_GAPS[point][field], (point, rho, gap)
            plain = law_gap(cfg, r_min, rmax, rn, rho, plain=True)
            assert gap <= plain, (point, rho, gap, plain)
    assert time.process_time() - start < 20.0


def test_ring_variate_meets_the_ring_cumulants():
    # the variate c + Gamma(k, theta) has cumulants c + k theta, k theta^2
    # and 2 k theta^3: kappa_1 and kappa_2 of the ring always, and kappa_3
    # too where c > 0.  The ring's cumulants are the exact law's, FieldLaw's
    # beyond R_near for the BS field and conftest's quadrature for the
    # uplink field's t > T.  Where c = 0 the shifted Gamma of those three
    # would have c < kappa_1/20 or k < 1.5
    shifted = 0
    for point in GAP_GRID:
        cfg, r_min, rmax = _gap_case(*point)
        rn = near_field(cfg, r_min, rmax)[0]
        t = math.pi * cfg.lam * rn * rn
        for rho in (None, 1.0):
            if rho is None:
                want = [FieldLaw(cfg, rn, rmax).cumulant(n) for n in (1, 2, 3)]
            else:
                want = [uplink_ring_cumulant(cfg, rho, r_min, rmax, t, n)
                        for n in (1, 2, 3)]
            c, k, theta = mcsim._ring_variate(
                mcsim._ring_cumulants(cfg, r_min, rmax, rn, rho))
            got = [c + k * theta, k * theta * theta, 2.0 * k * theta ** 3]
            assert c >= 0.0
            if c > 0.0:
                shifted += 1
                assert got == pytest.approx(want, rel=1e-10, abs=0.0)
            else:
                assert got[:2] == pytest.approx(want[:2], rel=1e-10, abs=0.0)
            k1, k2, k3 = want
            theta3 = 0.5 * k3 / k2
            k3_shape = k2 / (theta3 * theta3)
            assert (c > 0.0) == (k1 - k3_shape * theta3 >= 0.05 * k1
                                 and k3_shape >= 1.5), (point, rho)
    assert shifted > len(GAP_GRID)


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


@pytest.mark.parametrize("eta, size", [(4.0, 2067), (3.0, 632)])
def test_a_chunk_holds_about_chunk_points(monkeypatch, eta, size):
    # CHUNK_POINTS // (1 + nu) samples: `size` is the chunk of a radius
    # split whose ring keeps NEAR_SKEW_SHARE, 14.9 near-field points per
    # sample at eta = 4 and 50.8 at eta = 3, and both fields cut wider
    # rings, so fewer points and more samples per chunk; the last chunk
    # holds the rest, and every chunk of a call draws its points at the
    # call's one nu
    cfg = make_cfg(eta=eta)
    rho = capacity.default_rho(cfg)
    r0, rmax = mc_annulus(cfg, 1e-3)
    assert mcsim._chunk_samples(_least_share_points(cfg, r0, rmax)) == size
    draw = mcsim._field_interference
    for uplink in (True, False):
        seen = []

        def spy(cfg, r0, rmax, r_near, nu, n, *rest):
            seen.append((nu, n))
            return draw(cfg, r0, rmax, r_near, nu, n, *rest)

        monkeypatch.setattr(mcsim, "_field_interference", spy)
        chunk = uplink_chunk(cfg) if uplink else mc_chunk(cfg)
        mcsim._field_chunks(cfg, MCConfig(3 * chunk + 5, 1, workers=2),
                            copy_field, rho=rho if uplink else None)
        nu = (mcsim.uplink_near_points(cfg, MCConfig(1, 0)) if uplink
              else near_field(cfg, r0, rmax)[1])
        assert (chunk * (1.0 + nu) <= mcsim.CHUNK_POINTS
                < (chunk + 1) * (1.0 + nu))
        assert sorted(n for _, n in seen) == [5] + [chunk] * 3
        assert all(drawn_nu == nu for drawn_nu, _ in seen)
        assert chunk > size


def test_chunk_size_limits(micro):
    # a field without near points fills a chunk with samples; past
    # CHUNK_POINTS points per sample a chunk is one sample, which the
    # guard bounds
    assert mcsim._chunk_samples(0.0) == mcsim.CHUNK_POINTS
    assert mcsim._chunk_samples(mcsim.CHUNK_POINTS - 2.0) == 1
    assert mcsim._chunk_samples(float(mcsim.MAX_CHUNK_POINTS)) == 1
    # r_min = 10 km: about 4.7e4 points per sample, one sample per chunk
    assert mc_chunk(micro, r_min=10000.0) == 1
    mc = MCConfig(3, 4, workers=2)
    vals = interference_samples(micro, mc, r_min=10000.0)
    assert np.array_equal(vals, interference_samples(
        micro, replace(mc, workers=1), r_min=10000.0))


@pytest.mark.parametrize("eta", [3.0, 2.5])
def test_field_chunks_do_not_depend_on_workers(eta):
    # the uplink field (all three buffers) and a draw after it, over 7
    # chunks and 3 samples: workers 2 and 3 run unequal chunk counts
    cfg = make_cfg(eta=eta, m_int=2.5)
    mc = MCConfig(7 * uplink_chunk(cfg) + 3, 6)
    rho = capacity.default_rho(cfg)

    def rows(workers):
        return mcsim._field_chunks(
            cfg, replace(mc, workers=workers),
            lambda field, rng, out: np.stack([field, rng.random(field.size)],
                                             out=out),
            rho=rho, rows=2)

    base = rows(1)
    assert base.shape == (2, mc.n_samples)
    for workers in (2, 3):
        assert np.array_equal(rows(workers), base)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_lowest_failing_chunk_fails_the_call(monkeypatch, workers):
    # chunks 3 and 5 of 8 raise, chunk 3 after a wait, so with other
    # workers chunk 5 fails first; every worker is joined, and the call
    # raises chunk 3's exception, the one a single worker meets first
    cfg = make_cfg()
    made, make = {}, mcsim._chunk_rng

    def chunk_rng(seed, c):
        rng = make(seed, c)
        made[id(rng)] = c, rng
        return rng

    def fn(field, rng, out):
        c = made[id(rng)][0]
        if c in (3, 5):
            time.sleep(0.05 * (c == 3))
            raise ZeroDivisionError(f"chunk {c}")

    monkeypatch.setattr(mcsim, "_chunk_rng", chunk_rng)
    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError, match=r"^chunk 3$"):
        mcsim._field_chunks(
            cfg, MCConfig(7 * mc_chunk(cfg) + 3, 4, workers=workers), fn)
    assert threading.active_count() == threads


def test_many_workers_claim_every_chunk_once(monkeypatch):
    # more workers than cores, switching threads every microsecond: each
    # of 24 chunks is drawn once, and the joined field is the 1-worker one
    cfg = make_cfg()
    mc = MCConfig(23 * mc_chunk(cfg) + 1, 3)
    base = interference_samples(cfg, mc)
    drawn, draw = [], mcsim._field_interference

    def field(cfg, r0, rmax, r_near, nu, size, rng, *rest):
        drawn.append(rng)
        return draw(cfg, r0, rmax, r_near, nu, size, rng, *rest)

    monkeypatch.setattr(mcsim, "_field_interference", field)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = interference_samples(cfg, replace(mc, workers=8))
    finally:
        sys.setswitchinterval(interval)
    assert len(drawn) == len({id(rng) for rng in drawn}) == 24
    assert np.array_equal(got, base)


def test_chunk_generators_live_in_a_bounded_window(monkeypatch):
    # one-sample chunks: a call of 2e4 chunks keeps at most RNG_WINDOW +
    # workers generators (about 1 KB each) alive, not 2e4 (about 20 MB),
    # and each chunk writes its value into the one 160 KB output, so no
    # per-chunk array outlives its chunk: the traced peak is about 0.43 MB.
    # The draw
    # is stubbed, as its own buffers are not at issue.  Past the window the
    # field is still the one every generator built up front gives, at any
    # workers
    monkeypatch.setattr(mcsim, "CHUNK_POINTS", 1)
    cfg = make_cfg()
    assert mc_chunk(cfg) == 1
    mc = MCConfig(1000, 9)
    base = interference_samples(cfg, mc)
    for workers in (2, 3):
        assert np.array_equal(
            interference_samples(cfg, replace(mc, workers=workers)), base)
    with monkeypatch.context() as m:
        m.setattr(mcsim, "RNG_WINDOW", mc.n_samples)
        assert np.array_equal(interference_samples(cfg, mc), base)
    monkeypatch.setattr(mcsim, "_field_interference",
                        lambda cfg, r0, rmax, rn, nu, size, rng, *rest:
                        np.zeros(size))
    tracemalloc.start()
    try:
        got = mcsim._field_chunks(cfg, MCConfig(20_000, 9, workers=2),
                                  lambda field, rng, out: rng.random(out=out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (20_000,)
    assert peak < 1e6


def spy_claims(monkeypatch, make, draw):
    """Spies on mcsim's chunk generators (`make`) and chunk draws (`draw`)
    for one call: the calling thread's first chunk waits until the other
    workers have drawn three.  Returns the thread that made each chunk's
    generator and the thread that drew it, by chunk index, and the count
    of generators made before each draw."""
    caller, held = threading.get_ident(), threading.Event()
    made, maker, drawer, ready = {}, {}, {}, []

    def chunk_rng(seed, c):
        rng = make(seed, c)
        made[id(rng)] = c, rng
        maker[c] = threading.get_ident()
        return rng

    def field(cfg, r0, rmax, r_near, nu, size, rng, *rest):
        c, me = made[id(rng)][0], threading.get_ident()
        first = me == caller and caller not in drawer.values()
        drawer[c] = me
        ready.append(len(maker))
        if first:
            held.wait(timeout=30.0)
        out = draw(cfg, r0, rmax, r_near, nu, size, rng, *rest)
        if sum(t != caller for t in drawer.values()) >= 3:
            held.set()
        return out

    monkeypatch.setattr(mcsim, "_chunk_rng", chunk_rng)
    monkeypatch.setattr(mcsim, "_field_interference", field)
    return caller, maker, drawer, ready


@pytest.mark.parametrize("workers", [2, 3])
def test_results_do_not_depend_on_the_claim_order(monkeypatch, micro,
                                                  workers):
    # with the calling thread's first chunk held back, the other workers
    # claim most of the 8 chunks; the field and every statistic still
    # equal the 1-worker call bit for bit, and the calling thread made
    # every chunk's generator before any was drawn, as a call of at most
    # RNG_WINDOW chunks does
    _, sol = capacity.solve_network(micro)

    def fd(mc):
        field, stats = estimate_fd_rates(micro, mc, sol.a0, micro.p_bar)
        return field.tobytes(), stats

    def hd(mc):
        return estimate_hd(micro, 0.5, mc)

    # 8 chunks of each field
    runs = [(fd, MCConfig(7 * mc_chunk(micro) + 3, 12)),
            (hd, MCConfig(7 * uplink_chunk(micro) + 3, 12))]
    bases = [(call, mc, call(mc)) for call, mc in runs]
    make, draw = mcsim._chunk_rng, mcsim._field_interference
    for call, mc, base in bases:
        caller, maker, drawer, ready = spy_claims(monkeypatch, make, draw)
        assert call(replace(mc, workers=workers)) == base
        assert sorted(maker) == sorted(drawer) == list(range(8))
        assert set(maker.values()) == {caller} and set(ready) == {8}
        assert sum(t != caller for t in drawer.values()) >= 3


@pytest.mark.parametrize("uplink", [False, True])
def test_reused_buffers_leak_nothing_into_a_later_chunk(uplink):
    # a chunk drawn into the buffers a larger chunk left, the owner
    # indices' too, is the chunk drawn into fresh ones, bit for bit, and
    # neither chunk's result is a view of the buffers
    cfg = make_cfg(eta=3.0, m_int=2.5)
    r0, rmax = mc_annulus(cfg, 1e-3)
    rn, nu = near_field(cfg, r0, rmax)
    rho = capacity.default_rho(cfg) if uplink else None
    ring = mcsim._ring_variate(mcsim._ring_cumulants(cfg, r0, rmax, rn, rho))

    def chunk(size, c, bufs):
        return mcsim._field_interference(cfg, r0, rmax, rn, nu, size,
                                         mcsim._chunk_rng(3, c), bufs, ring,
                                         rho)

    bufs = []
    big = chunk(600, 0, bufs)
    grown = list(bufs)
    small = chunk(200, 1, bufs)
    assert all(a is b for a, b in zip(grown, bufs))
    assert grown[3].dtype == np.intp
    assert np.array_equal(small, chunk(200, 1, []))
    assert np.array_equal(big, chunk(600, 0, []))
    assert not any(np.shares_memory(x, b) for x in (big, small)
                   for b in bufs)


def unit_gamma_by_hand(rng, shape, size):
    """`size` unit-scale Gamma(shape) draws as the module docstring orders
    them: at an integer shape n up to MAX_PRODUCT_SHAPE, -ln((1 - U_1)...
    (1 - U_n)) over n arrays of `size` uniforms drawn in turn and
    multiplied in that order, and otherwise numpy's standard_gamma."""
    if shape != int(shape) or shape > mcsim.MAX_PRODUCT_SHAPE:
        return rng.standard_gamma(shape, size)
    prod = 1.0 - rng.random(size)
    for _ in range(int(shape) - 1):
        prod *= 1.0 - rng.random(size)
    return -np.log(prod)


def _first_chunk_by_hand(cfg, eps, size, seed, rho=None):
    """The first chunk's draws, made by hand as the module docstring orders
    them, all from the chunk-0 SFC64 stream: the chunk's Poisson total of
    points, of mean nu*size, then one uniform U per point, whose sample is
    floor(U size) and whose position uniform is the fraction U size -
    floor(U size), then unit-scale Gamma marks (unit_gamma_by_hand), then
    one ring variate per sample.
    R_near leaves the BS field's ring
    the share _near_share picks.  In the BS field the positions are radii
    uniform in r^2 on [r0, R_near], and each point weighs its mark times
    one folded scale and (1/r^2)^(eta/2), one power per point; the ring is
    [R_near, R_max], with its first three Campbell cumulants.  With rho it
    is estimate_hd's uplink field cut at t = T = pi lambda R_near^2: its
    nu is T (e^(-v_min/T) - e^(-V/T)), its positions are
    v = pi lambda r^2 from the exponential law e^(-v/T) truncated to
    [v_min, V] by inversion, after the marks come E = v/T - ln(1 - U), and
    each point weighs mark rho E^(eta/2) v^(-eta/2), taken as two powers;
    the ring's cumulants come from conftest's quadrature.  The ring variate
    is c + Gamma(k, theta) with theta = kappa_3/(2 kappa_2), k =
    kappa_2/theta^2 and c = kappa_1 - k theta where c >= kappa_1/20 and
    k >= 1.5, and otherwise c = 0 and the Gamma of kappa_1 and kappa_2.
    Returns (each point's sample, point weights, the ring's Gamma draws,
    c); a sample is its points' sum in draw order plus its Gamma draw, plus
    c, in that order."""
    r0, eta = cfg.r0, cfg.eta
    fi = cfg.fading_interferer
    rmax = r0 * eps ** (1.0 / (2.0 - eta))
    share = mcsim._near_share(cfg, r0, rmax)
    q = (rmax / r0) ** (2.0 - 3.0 * eta)
    rn = min(rmax, r0 * (q + share * (1.0 - q)) ** (1.0 / (2.0 - 3.0 * eta)))
    v_min, v_max, t = (math.pi * cfg.lam * r * r for r in (r0, rmax, rn))
    rng = np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0,))))
    nu = (cfg.lam * math.pi * (rn * rn - r0 * r0) if rho is None
          else t * (math.exp(-v_min / t) - math.exp(-v_max / t)))
    u = rng.random(rng.poisson(nu * size)) * size
    owner = np.floor(u).astype(int)
    u -= owner
    marks = unit_gamma_by_hand(rng, fi.shape, u.size)
    if rho is None:
        r_sq = r0 * r0 + u * (rn * rn - r0 * r0)
        w = marks * (fi.scale * cfg.p_bs) * (1.0 / r_sq) ** (0.5 * eta)
        mark_sq = fi.mean * fi.mean * (1.0 + 1.0 / fi.shape)
        mark_cu = mark_sq * fi.mean * (1.0 + 2.0 / fi.shape)
        k1, k2, k3 = (2.0 * math.pi * cfg.lam * moment / (n * eta - 2.0)
                      * (rn ** (2.0 - n * eta) - rmax ** (2.0 - n * eta))
                      for n, moment in (
                          (1, fi.mean * cfg.p_bs),
                          (2, mark_sq * (cfg.p_bs * cfg.p_bs)),
                          (3, mark_cu * (cfg.p_bs * cfg.p_bs * cfg.p_bs))))
    else:
        v = v_min - t * np.log(1.0 - u * (1.0 - math.exp(-(v_max - v_min)
                                                          / t)))
        e = v / t - np.log(1.0 - rng.random(u.size))
        w = marks * fi.scale * rho * e ** (0.5 * eta) * v ** (-0.5 * eta)
        k1, k2, k3 = (uplink_ring_cumulant(cfg, rho, r0, rmax, t, n)
                      for n in (1, 2, 3))
    theta = 0.5 * k3 / k2
    shape = k2 / (theta * theta)
    shift = k1 - shape * theta
    if not (shift >= 0.05 * k1 and shape >= 1.5):
        shift, shape, theta = 0.0, k1 * k1 / k2, k2 / k1
    return owner, w, rng.gamma(shape, theta, size), shift


def test_chunk_draw_order_is_the_documented_one(fig2):
    # each sample's points are summed in draw order by bincount over their
    # owners; Rayleigh marks and Gamma(3) marks, drawn from three uniforms
    # each
    for cfg in (fig2, make_cfg(p_bs=20.0, m_int=3.0)):
        for eps in (1e-2, 1e-3):
            owner, w, ring, shift = _first_chunk_by_hand(cfg, eps, 100, 99)
            assert shift > 0.0
            manual = np.bincount(owner, w, minlength=100) + ring + shift
            assert np.array_equal(manual, interference_samples(
                cfg, MCConfig(100, 99, tail_epsilon=eps)))


def test_a_sample_without_near_points_is_its_ring_variate_alone():
    # at eta = 8 a sample expects about 2.4 near-field points, so about 9%
    # of the samples draw none: each of those is its ring variate alone,
    # to the bit, and every other is its own points' sum plus its ring
    cfg = make_cfg(eta=8.0)
    owner, w, ring, shift = _first_chunk_by_hand(cfg, 1e-3, 1024, 10)
    empty = np.bincount(owner, minlength=1024) == 0
    assert 50 < np.count_nonzero(empty) < 150
    near = np.array([math.fsum(w[owner == j]) for j in range(1024)])
    vals = interference_samples(cfg, MCConfig(1024, 10))
    assert np.array_equal(vals[empty], ring[empty] + shift)
    assert np.allclose(vals, near + ring + shift, rtol=1e-14, atol=0.0)


class _DrawSpy:
    """A Generator that records its draws in order: ("poisson", lam),
    ("random", size) for uniforms, ("standard_gamma", shape, 1.0, size) and
    ("gamma", shape, scale, size), and keeps the last gamma draw as
    `drawn`.  The unit draws take `out=` as numpy's do."""

    def __init__(self, rng):
        self._rng, self.calls = rng, []

    def poisson(self, lam):
        self.calls.append(("poisson", lam))
        return self._rng.poisson(lam)

    def random(self, size=None, out=None):
        self.calls.append(("random", size if out is None else out.size))
        return self._rng.random(size, out=out)

    def gamma(self, shape, scale, size):
        self.calls.append(("gamma", shape, scale, size))
        self.drawn = self._rng.gamma(shape, scale, size)
        return self.drawn.copy()

    def standard_gamma(self, shape, size=None, out=None):
        self.calls.append(("standard_gamma", shape, 1.0,
                           size if out is None else out.size))
        return self._rng.standard_gamma(shape, size, out=out)


def _ring_variate_cumulants(cfg, r0, rmax, rho=None):
    """(c + k theta, k theta^2, 2 k theta^3), the first three cumulants of
    the ring variate c + Gamma(k, theta) that _field_interference draws,
    read off its draws: its one scaled gamma draw, after the points'
    Poisson total, their uniforms, the unit-scale marks (uniforms to invert
    at m = 1) and, for the uplink field of rho, the uniforms of E, and c as
    what a sample without near-field points holds beyond that draw: at
    nu = 0 the chunk has none."""
    spy = _DrawSpy(np.random.default_rng(0))
    rn = near_field(cfg, r0, rmax)[0]
    out = mcsim._field_interference(
        cfg, r0, rmax, rn, 0.0, 8, spy, [],
        mcsim._ring_variate(mcsim._ring_cumulants(cfg, r0, rmax, rn, rho)),
        rho)
    marks = ("random" if cfg.fading_interferer.shape == 1.0
             else "standard_gamma")
    assert [c[0] for c in spy.calls] == (
        ["poisson", "random", marks] + ["random"] * (rho is not None)
        + ["gamma"])
    assert spy.calls[:2] == [("poisson", 0.0), ("random", 0)]
    _, shape, scale, size = spy.calls[-1]
    assert size == 8
    shift = out - spy.drawn
    assert shift == pytest.approx(np.full(8, shift[0]), rel=1e-12, abs=0.0)
    return (shift[0] + shape * scale, shape * scale * scale,
            2.0 * shape * scale ** 3)


def test_rayleigh_marks_are_minus_log_of_one_minus_the_chunk_uniforms():
    # on a unit circle at unit power and mark scale every point's weight is
    # its mark, to the bit, and the ring is empty: the marks are
    # -ln(1 - U) of the chunk's stream, after the Poisson total and the
    # points' uniforms, and each sample sums the marks of the points whose
    # floor(U size) it is
    cfg = make_cfg()
    bufs = []
    out = mcsim._field_interference(cfg, 1.0, 1.0, 1.0, 3.0, 500,
                                    mcsim._chunk_rng(5, 0), bufs,
                                    (0.0, 0.0, 0.0))
    rng = mcsim._chunk_rng(5, 0)
    total = rng.poisson(1500.0)
    owner = np.floor(rng.random(total) * 500).astype(int)
    marks = -np.log(1.0 - rng.random(total))
    assert np.array_equal(bufs[1][:total], marks)
    assert np.array_equal(bufs[3][:total], owner)
    assert out == pytest.approx([math.fsum(marks[owner == j])
                                 for j in range(500)],
                                rel=1e-14, abs=0.0)


class _ConstantUniforms:
    """A generator whose every uniform is u, and whose every Poisson total
    is 6."""

    def __init__(self, u):
        self.u = u

    def poisson(self, lam):
        return 6

    def random(self, size=None, out=None):
        if out is None:
            return np.full(size, self.u)
        out.fill(self.u)
        return out


@pytest.mark.parametrize("u, e", [(0.0, 0.0),
                                  (1.0 - 2.0 ** -53, 53.0 * math.log(2.0))])
def test_inverted_exponentials_at_the_ends_of_the_uniforms(u, e):
    # U = 0 gives ln 1 and the largest uniform ln 2^-53, never ln 0, also
    # in a product of up to MAX_PRODUCT_SHAPE of them: the marks and the
    # uplink's E come out finite, with no RuntimeWarning.  Six points of a
    # two-sample chunk lie on the unit circle, at unit mark scale, with an
    # empty ring, all in sample floor(2 U): the first at U = 0, the last
    # at the largest U.  The uplink field cut there, at T = v_min = V =
    # pi lambda and unit rho T^(-eta/2), has every v at v_min, so E = 1 + X
    # and each point weighs X (1 + X)^2 at eta = 4
    cfg = make_cfg()
    for n in range(1, mcsim.MAX_PRODUCT_SHAPE + 1):
        minus_x = mcsim._minus_gamma(_ConstantUniforms(u), n, np.empty(4))
        assert np.all(-minus_x == pytest.approx(n * e, rel=1e-15, abs=0.0))
    for rho, weight in ((None, e),
                        ((math.pi * cfg.lam) ** 2, e * (1.0 + e) ** 2)):
        bufs = []
        out = mcsim._field_interference(cfg, 1.0, 1.0, 1.0, 3.0, 2,
                                        _ConstantUniforms(u), bufs,
                                        (0.0, 0.0, 0.0), rho)
        assert np.all(np.isfinite(bufs[1][:6]))
        assert bufs[1][:6] == pytest.approx(np.full(6, weight), rel=1e-14,
                                            abs=0.0)
        held = int(u > 0.0)
        assert out[1 - held] == 0.0
        assert out[held] == pytest.approx(6.0 * weight, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", range(1, mcsim.MAX_PRODUCT_SHAPE + 1))
def test_minus_log_products_follow_the_gamma_law(n):
    # 2e5 draws of -_minus_gamma against scipy's Gamma(n, 1): the KS
    # distance below its 1e-3 critical value 1.95/sqrt(2e5), and the mean
    # and variance within 5 standard errors of n and n (the variance's,
    # sqrt((mu_4 - n^2)/size) with mu_4 = 3 n^2 + 6 n)
    size = 200_000
    x = -mcsim._minus_gamma(mcsim._chunk_rng(40 + n, 0), n, np.empty(size))
    assert ks_distance(x, stats.gamma(n).cdf) < 1.95 / math.sqrt(size)
    assert abs(x.mean() - n) < 5.0 * math.sqrt(n / size)
    assert abs(x.var(ddof=1) - n) < 5.0 * math.sqrt((2.0 * n * n + 6.0 * n)
                                                    / size)


@pytest.mark.parametrize("eta, m_int", [(3.0, 1.0), (4.0, 1.0), (4.0, 2.5),
                                        (4.0, 2.0)])
def test_uplink_chunk_is_the_two_power_formula(eta, m_int):
    # the t-space chunk by hand: one power per point, rho T^(-eta/2) (1 +
    # X/w)^(eta/2), is rho E^(eta/2) v^(-eta/2) by two powers, to rounding,
    # on the documented draws, and the ring variate takes the quadrature's
    # cumulants
    cfg = make_cfg(eta=eta, m_int=m_int)
    rho = capacity.default_rho(cfg)
    size = uplink_chunk(cfg)
    owner, w, ring, shift = _first_chunk_by_hand(cfg, 1e-3, size, 21, rho)
    near = np.bincount(owner, w, minlength=size)
    vals = mcsim._field_chunks(cfg, MCConfig(size, 21), copy_field, rho=rho)
    assert vals == pytest.approx(near + ring + shift, rel=1e-13, abs=0.0)


def test_ring_variate_has_the_ring_cumulants(fig2):
    # the drawn variate c + Gamma(k, theta) has the ring's first three
    # cumulants, those of the exact law of [R_near, R_max]
    r0, rmax = mc_annulus(fig2, 1e-3)
    ring = FieldLaw(fig2, near_field(fig2, r0, rmax)[0], rmax)
    got = _ring_variate_cumulants(fig2, r0, rmax)
    assert got == pytest.approx([ring.cumulant(n) for n in (1, 2, 3)],
                                rel=1e-10, abs=0.0)


def test_uplink_ring_variate_has_the_ring_cumulants():
    # the uplink ring holds the points with t > T = pi lambda R_near^2; its
    # variate's first three cumulants are those of the exact t field
    # beyond T (FieldLaw.uplink's panels in log t)
    cfg = make_cfg(eta=3.0)
    rho = capacity.default_rho(cfg)
    r0, rmax = mc_annulus(cfg, 1e-3)
    rn = near_field(cfg, r0, rmax)[0]
    ring = FieldLaw.uplink(cfg, rho, r0, rmax, t_lo=math.pi * cfg.lam * rn * rn)
    got = _ring_variate_cumulants(cfg, r0, rmax, rho)
    assert got == pytest.approx([ring.cumulant(n) for n in (1, 2, 3)],
                                rel=1e-10, abs=0.0)


@pytest.mark.parametrize("eta", [2.05, 3.0, 4.0, 8.0])
@pytest.mark.parametrize("m", [0.05, 1.0, 10.0])
def test_uplink_ring_cumulants_match_quadrature(eta, m):
    # mcsim's closed form, kappa_n = E[mark^n] rho^n [v^(1-a) (gamma(a-1,
    # v/T) + gamma(a, v/T))] from v_min to V, a = n eta/2, with its own
    # incomplete-gamma series, against a scipy quadrature in v: on the run's
    # annulus, out to R_max = inf, and on a thin explicit r_max = 1.5 r0
    # cut at T = V, where the ring still holds every user with E < v/T
    cfg = make_cfg(eta=eta, m_int=m)
    rho = capacity.default_rho(cfg)
    r0, rmax = mc_annulus(cfg, 1e-3)
    rn = near_field(cfg, r0, rmax)[0]
    thin = 1.5 * r0
    for r_max, r_near in ((rmax, rn), (math.inf, rn), (thin, thin)):
        got = mcsim._ring_cumulants(cfg, r0, r_max, r_near, rho)
        want = [uplink_ring_cumulant(cfg, rho, r0, r_max,
                                     math.pi * cfg.lam * r_near * r_near, n)
                for n in (1, 2, 3)]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_estimator_stats_do_not_depend_on_workers(micro):
    # the merged array is the same for any workers, and so is every
    # fixed-order reduction of it: equal floats, not merely close ones
    _, sol = capacity.solve_network(micro)

    def stats(workers):
        mc = MCConfig(10_000, 42, tail_epsilon=1e-2, workers=workers)
        return (estimate_fd_rates(micro, mc, sol.a0, micro.p_bar)[1]
                + [estimate_hd(micro, 0.5, mc)])

    base = stats(1)
    assert stats(2) == base and stats(3) == base


@pytest.mark.parametrize("workers", [1, 3])
def test_fd_rates_pass_equals_the_single_estimators(micro, workers):
    # one pass returns the field interference_samples draws and the rate of
    # each power as a pass with that power alone gives it, bit for bit;
    # 5000 is not a multiple of the chunk, so the last chunk is short
    _, sol = capacity.solve_network(micro)
    mc = MCConfig(5000, 8, tail_epsilon=1e-2, workers=workers)
    field, (opt, fixed) = mcsim.estimate_fd_rates(micro, mc, sol.a0,
                                                  micro.p_bar)
    assert 5000 % mc_chunk(micro, 1e-2) and field.shape == (5000,)
    assert np.array_equal(field, interference_samples(micro, mc))
    assert [opt] == estimate_fd_rates(micro, mc, sol.a0)[1]
    assert [fixed] == estimate_fd_rates(micro, mc, power=micro.p_bar)[1]
    assert opt.n == fixed.n == 5000 and opt.mean != fixed.mean


def test_fd_rate_rows_are_the_policy_and_fixed_power_forms(micro, monkeypatch):
    # the water-filling row B*log2(max(a0*gamma, 1)) is B*log2(1 + P*gamma)
    # under the policy P = (a0 - 1/gamma)^+, and the fixed-power row is
    # B*log2(1 + p*gamma) to the bit; test_powercontrol checks the policy's
    # cutoff and limits on the same row
    _, sol = capacity.solve_network(micro)
    a0, bandwidth = sol.a0, micro.bandwidth
    gamma = np.random.default_rng(5).gamma(0.5, 4.0 / a0, 1000)
    row, fixed = fd_rate_rows(monkeypatch, micro, gamma, a0, micro.p_bar)
    policy = np.maximum(a0 - 1.0 / gamma, 0.0)
    assert np.allclose(row, bandwidth * np.log2(1.0 + policy * gamma),
                       rtol=1e-12, atol=0.0)
    assert np.array_equal(fixed,
                          bandwidth * np.log2(1.0 + micro.p_bar * gamma))


@pytest.mark.parametrize("m_sig", [1.0, 2.0, 5.0, 2.5, 6.0])
def test_served_gains_are_drawn_after_the_field(monkeypatch, m_sig):
    # h (estimate_fd_rates) and g (estimate_hd) are the first draws after
    # each chunk's field: at an integer shape up to MAX_PRODUCT_SHAPE the
    # unit Gamma -ln((1 - U_1)...(1 - U_n)) of the chunk's next n uniform
    # arrays, otherwise numpy's gamma (unit_gamma_by_hand); each times its
    # scale, h times (2 sqrt(lambda))^(-eta) and g times rho.  The rates
    # follow in the estimators' own order of operations, so they agree to
    # the bit, over two chunks of each field
    cfg = make_cfg(m_sig=m_sig)
    fs, rho = cfg.fading_signal, capacity.default_rho(cfg)
    monkeypatch.setattr(mcsim, "summarize", lambda values: values)

    def after_field(mc, scale, **field):
        return mcsim._field_chunks(
            cfg, mc, lambda f, rng, out: np.stack(
                [f, unit_gamma_by_hand(rng, m_sig, f.size) * scale], out=out),
            rows=2, **field)

    mc = MCConfig(2 * mc_chunk(cfg) - 7, 3)
    i_bs, h = after_field(mc, fs.scale)
    h *= (2.0 * math.sqrt(cfg.lam)) ** (-cfg.eta)
    field, (rate,) = estimate_fd_rates(cfg, mc, power=cfg.p_bar)
    assert np.array_equal(field, i_bs)
    assert np.array_equal(rate, cfg.bandwidth * np.log2(
        h / (i_bs + cfg.n0) * cfg.p_bar + 1.0))
    mc = MCConfig(2 * uplink_chunk(cfg) - 7, 3)
    i_up, g = after_field(mc, 1.0 / m_sig, rho=rho)
    assert np.array_equal(estimate_hd(cfg, rho, mc), 0.5 * cfg.bandwidth
                          * np.log2(g * rho / (i_up + cfg.n0) + 1.0))


# ------------------------------------------------------- point owners --

def _chunk_owners(cfg, nu, size, seed, c):
    """The sample of each point of chunk c of a field of nu expected
    near-field points per sample, as _field_interference draws it into its
    owner buffer: floor(U size) of each point's uniform U."""
    bufs = []
    r0, rmax = mc_annulus(cfg, 1e-3)
    rn = near_field(cfg, r0, rmax)[0]
    mcsim._field_interference(cfg, r0, rmax, rn, nu, size,
                              mcsim._chunk_rng(seed, c), bufs,
                              (0.0, 0.0, 0.0))
    return bufs[3][:mcsim._chunk_rng(seed, c).poisson(nu * size)]


@pytest.mark.parametrize("nu", [0.0, 0.3, 4.39, 30.0])
def test_split_counts_follow_the_poisson_law(nu):
    # each sample's count of points, the bincount of the owners of a
    # chunk's one Poisson(nu size) total, over about 2e5 samples of whole
    # chunks: a chi-square fit to the Poisson(nu) pmf, counts pooled where
    # fewer than 5 are expected, p above 1e-3, and the mean and variance
    # within 5 standard errors of nu
    cfg = make_cfg()
    size = mcsim._chunk_samples(nu)
    counts = np.concatenate([
        np.bincount(_chunk_owners(cfg, nu, size, 9, c), minlength=size)
        for c in range(-(-200_000 // size))])
    assert counts.dtype.kind == "i" and counts.size >= 200_000
    n = counts.size
    if nu == 0.0:
        assert not np.any(counts)
        return
    k = np.arange(counts.max() + 1)
    expected = n * stats.poisson(nu).pmf(k)
    expected[-1] += n * stats.poisson(nu).sf(k[-1])
    observed = np.bincount(counts).astype(float)
    pooled_obs, pooled_exp, acc_o, acc_e = [], [], 0.0, 0.0
    for o, e in zip(observed, expected):
        acc_o, acc_e = acc_o + o, acc_e + e
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    pooled_obs[-1] += acc_o
    pooled_exp[-1] += acc_e
    assert stats.chisquare(pooled_obs, pooled_exp).pvalue > 1e-3
    assert abs(counts.mean() - nu) < 5.0 * math.sqrt(nu / n)
    assert abs(counts.var(ddof=1) - nu) < 5.0 * nu * math.sqrt(
        (1.0 / nu + 2.0) / n)


def test_the_owner_stays_below_the_chunk_size_at_the_largest_uniform():
    # floor(U size) at U = 1 - 2^-53 is size - 1 for every chunk size up
    # to CHUNK_POINTS: U size rounds below size, never onto it; and a real
    # chunk of such uniforms puts all six of its points in its last sample
    u = 1.0 - 2.0 ** -53
    sizes = np.arange(1, mcsim.CHUNK_POINTS + 1)
    assert np.array_equal((u * sizes).astype(np.intp), sizes - 1)
    cfg = make_cfg()
    for size in (1, 3, 1057, mcsim.CHUNK_POINTS):
        bufs = []
        out = mcsim._field_interference(cfg, 1.0, 1.0, 1.0, 1.0, size,
                                        _ConstantUniforms(u), bufs,
                                        (0.0, 0.0, 0.0))
        assert np.array_equal(bufs[3][:6], [size - 1] * 6)
        assert out.shape == (size,) and np.count_nonzero(out) == 1


@pytest.mark.parametrize("size", [1, 3, 1057, 6081, mcsim.CHUNK_POINTS])
def test_the_position_uniform_is_the_exact_fraction(size):
    # x - floor(x) of x = fl(U size), as the chunk takes it from a real
    # chunk's uniforms, is that fraction exactly (rational arithmetic), in
    # [0, 1)
    from fractions import Fraction
    rng = mcsim._chunk_rng(4, 0)
    rng.poisson(1.0)
    x = rng.random(2000) * size
    frac = x - np.floor(x)
    assert np.all((frac >= 0.0) & (frac < 1.0))
    for xi, fi in zip(x.tolist(), frac.tolist()):
        exact = Fraction(xi)
        assert Fraction(fi) == exact - math.floor(exact)


def test_a_chunk_without_points_is_float64_zeros_plus_its_ring():
    # no near point: bincount of no owners would be int64, and the chunk
    # still returns float64 zeros, plus the ring variate to the bit
    cfg = make_cfg()
    r0, rmax = mc_annulus(cfg, 1e-3)
    rn = near_field(cfg, r0, rmax)[0]
    ring = mcsim._ring_variate(mcsim._ring_cumulants(cfg, r0, rmax, rn))
    for drawn_ring in ((0.0, 0.0, 0.0), ring):
        spy = _DrawSpy(mcsim._chunk_rng(1, 0))
        out = mcsim._field_interference(cfg, r0, rmax, rn, 0.0, 50, spy,
                                        [], drawn_ring)
        assert out.dtype == np.float64 and out.shape == (50,)
        if drawn_ring[1]:
            assert np.array_equal(out, spy.drawn + ring[0])
        else:
            assert not np.any(out)


def test_a_silent_near_field_draws_no_points_and_one_sample_chunks_work():
    # nu = 0: a chunk holds no point.  A one-sample chunk owns every point
    # of its total, also about 1e4 of them, and a field of one-sample
    # chunks (r_min = 10 km, about 4.7e4 points per sample) is whole
    cfg = make_cfg()
    assert _chunk_owners(cfg, 0.0, 1000, 2, 0).size == 0
    one = _chunk_owners(cfg, 1e4, 1, 2, 0)
    assert 9000 < one.size < 11000 and not np.any(one)
    assert mc_chunk(cfg, r_min=10000.0) == 1
    vals = interference_samples(cfg, MCConfig(2, 3), r_min=10000.0)
    law = FieldLaw(cfg, 10000.0, mc_annulus(cfg, 1e-3)[1] * 10000.0 / cfg.r0)
    assert vals.shape == (2,)
    assert np.all(np.abs(vals - law.cumulant(1))
                  < 6.0 * math.sqrt(law.cumulant(2)))


# ------------------------------------------------------------- sampling --

def test_sample_interference_single_draw(fig2):
    v = interference_samples(fig2, MCConfig(1, 4, tail_epsilon=1e-2))
    assert v.shape == (1,) and v[0] > 0.0


@pytest.mark.parametrize("fields, mc, r_min", [
    ({"eta": 8.0}, MCConfig(1025, 10), None),
    ({"eta": 8.0}, MCConfig(1025, 13), None),
    ({}, MCConfig(10_000, 1), 1.0),
])
def test_a_chunk_without_near_points_still_adds_its_ring(fields, mc, r_min):
    # about 2.5 expected near-field points per chunk: the last chunk of one
    # sample (eta = 8) or whole chunks at r_min = 1 m draw none, and the
    # ring variate is added to a float64 zero sum
    vals = interference_samples(make_cfg(**fields), mc, r_min=r_min)
    assert vals.dtype == np.float64 and vals.shape == (mc.n_samples,)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)


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
    # the ring holds the share _near_share picks of the third cumulant,
    # which its shifted Gamma variate matches too
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
    vals = mcsim._field_chunks(cfg, MCConfig(30_000, 13), copy_field, rho=rho)
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
    assert st.n == 4


def test_summarize_single_value():
    st = summarize(np.array([7.0]))
    assert st.mean == 7.0 and st.variance == 0.0 and st.std_error == 0.0


def test_summarize_two_values():
    st = summarize(np.array([1.0, 4.0]))
    assert st.mean == 2.5 and st.variance == 4.5
    assert st.std_error == math.sqrt(2.25)


def _fsum_stats(values):
    """Exact (math.fsum) mean and ddof=1 variance: the reference for
    summarize's pairwise sums."""
    mean = math.fsum(values.tolist()) / values.size
    return mean, math.fsum(((values - mean) ** 2).tolist()) / (values.size - 1)


def test_summarize_matches_exact_sums(fig2, micro, monkeypatch):
    # a heavy-tailed field (exclusion radius 10 m: a rare near point
    # dominates its sample) and the rate arrays estimate_fd_rates
    # summarizes; non-negative summands bound numpy's pairwise sums to
    # about (128 + log2 n) * eps relative
    rates = []
    monkeypatch.setattr(mcsim, "summarize",
                        lambda values: rates.append(values) or summarize(values))
    _, sol = capacity.solve_network(micro)
    estimate_fd_rates(micro, MCConfig(40_000, 4), sol.a0, micro.p_bar)
    field = interference_samples(fig2, MCConfig(40_000, 3), r_min=10.0)
    assert len(rates) == 2
    for values in [field] + rates:
        st = summarize(values)
        mean, var = _fsum_stats(values)
        assert st.mean == pytest.approx(mean, rel=1e-13, abs=0.0)
        assert st.variance == pytest.approx(var, rel=1e-13, abs=0.0)
