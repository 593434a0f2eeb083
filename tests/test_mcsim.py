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
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc

from fdcap import capacity, mcsim
from fdcap.interference import gamma_fit, mean_interference, second_moment
from fdcap.mcsim import (MCConfig, estimate_fd_rates, estimate_hd,
                         interference_samples, summarize)
from conftest import (FieldLaw, fd_rate_rows, ks_distance, law_gap,
                      make_cfg, mc_annulus, mc_chunk, near_field, ring_gap,
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
    # draws, and at the baselines (eta = 4, m = 1, r0) at most 10 where
    # that share draws 14.85.  The uplink field, cut by received power at
    # the same R_near, draws at most 8.1 there and 12.5 at eta = 3, where
    # the radius split at that share drew 14.85 and 50.8
    for point in GAP_GRID:
        cfg, r_min, rmax = _gap_case(*point)
        share = mcsim._near_share(cfg, r_min, rmax)
        assert mcsim.NEAR_SKEW_SHARE <= share <= mcsim.MAX_SKEW_SHARE
        least = _least_share_points(cfg, r_min, rmax)
        assert near_field(cfg, r_min, rmax)[1] <= least
    for cfg, most, least in ((make_cfg(), 8.1, 14.85),
                             (make_cfg(lam=5e-6, p_bs=20.0), 8.1, 14.85),
                             (make_cfg(eta=3.0), 12.5, 50.8)):
        r0, rmax = mc_annulus(cfg, 1e-3)
        assert _least_share_points(cfg, r0, rmax) == pytest.approx(
            least, abs=0.01)
        assert near_field(cfg, r0, rmax)[1] <= max(10.0, most)
        assert mcsim.uplink_near_points(cfg, MCConfig(1, 0)) <= most
    # an annulus thinner than any the rule was fitted on, (R_max/r0)^(2 -
    # eta) = 1/4 here, which only an explicit r_max reaches, keeps the least
    # share
    cfg = make_cfg()
    assert (mcsim._near_share(cfg, cfg.r0, 2.0 * cfg.r0)
            == mcsim.NEAR_SKEW_SHARE)


def test_sampled_law_stays_within_the_law_gap_budget():
    # both fields' sampled laws, by transform inversion and no sampling, at
    # the rule's own R_near.  The BS field's is within LAW_GAP_BUDGET of the
    # annulus law, or no further than at delta3 = NEAR_SKEW_SHARE, where the
    # rule keeps that share.  The uplink field's, cut at t = pi lambda
    # R_near^2, is within the budget or no further than the BS field's.
    # Where the rule sits at NEAR_SKEW_SHARE both gaps can exceed the
    # budget; there the uplink's may exceed the BS field's (3.3e-3 against
    # 1.0e-3 at eta = 8, m = 3), but not the gap of the radius split at that
    # share that the uplink field was drawn with before (5.9e-2 there)
    start = time.process_time()
    for point in GAP_GRID:
        cfg, r_min, rmax = _gap_case(*point)
        share = mcsim._near_share(cfg, r_min, rmax)
        rn = near_field(cfg, r_min, rmax)[0]
        gap = law_gap(cfg, r_min, rmax, rn)
        least = mcsim._near_radius(cfg.eta, r_min, rmax,
                                   mcsim.NEAR_SKEW_SHARE)
        if share > mcsim.NEAR_SKEW_SHARE and gap > mcsim.LAW_GAP_BUDGET:
            least_gap = law_gap(cfg, r_min, rmax, least)
            assert gap <= least_gap, (point, share, gap, least_gap)
        uplink = law_gap(cfg, r_min, rmax, rn, rho=1.0)
        if uplink > max(mcsim.LAW_GAP_BUDGET, gap):
            assert share == mcsim.NEAR_SKEW_SHARE, (point, uplink, gap)
            radius_split = ring_gap(
                FieldLaw.uplink(cfg, 1.0, r_min, least),
                FieldLaw.uplink(cfg, 1.0, least, rmax))
            assert uplink <= radius_split, (point, uplink, radius_split)
    assert time.process_time() - start < 20.0


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
    # holds the rest, and every chunk of a call draws its counts from the
    # call's one table
    cfg = make_cfg(eta=eta)
    rho = capacity.default_rho(cfg)
    r0, rmax = mc_annulus(cfg, 1e-3)
    assert mcsim._chunk_samples(_least_share_points(cfg, r0, rmax)) == size
    draw = mcsim._field_interference
    for uplink in (True, False):
        seen = []

        def spy(cfg, r0, rmax, r_near, table, n, *rest):
            seen.append((table, n))
            return draw(cfg, r0, rmax, r_near, table, n, *rest)

        monkeypatch.setattr(mcsim, "_field_interference", spy)
        chunk = uplink_chunk(cfg) if uplink else mc_chunk(cfg)
        mcsim._field_chunks(cfg, MCConfig(3 * chunk + 5, 1, workers=2),
                            lambda field, rng: field,
                            rho=rho if uplink else None)
        nu = (mcsim.uplink_near_points(cfg, MCConfig(1, 0)) if uplink
              else near_field(cfg, r0, rmax)[1])
        assert (chunk * (1.0 + nu) <= mcsim.CHUNK_POINTS
                < (chunk + 1) * (1.0 + nu))
        assert sorted(n for _, n in seen) == [5] + [chunk] * 3
        assert all(table is seen[0][0] for table, _ in seen)
        assert chunk > size


def test_chunk_size_limits(micro):
    # a field without near points fills a chunk with samples; past
    # CHUNK_POINTS points per sample a chunk is one sample, which the
    # guard bounds
    assert mcsim._chunk_samples(0.0) == mcsim.CHUNK_POINTS
    assert mcsim._chunk_samples(mcsim.CHUNK_POINTS - 2.0) == 1
    assert mcsim._chunk_samples(float(mcsim.MAX_CHUNK_POINTS)) == 1
    # r_min = 5 km: about 5.9e4 points per sample, one sample per chunk
    assert mc_chunk(micro, r_min=5000.0) == 1
    mc = MCConfig(3, 4, workers=2)
    vals = interference_samples(micro, mc, r_min=5000.0)
    assert np.array_equal(vals, interference_samples(
        micro, replace(mc, workers=1), r_min=5000.0))


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
            lambda field, rng: np.stack([field, rng.random(field.size)]),
            rho=rho)

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

    def fn(field, rng):
        c = made[id(rng)][0]
        if c in (3, 5):
            time.sleep(0.05 * (c == 3))
            raise ZeroDivisionError(f"chunk {c}")
        return field

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

    def field(cfg, r0, rmax, r_near, table, size, rng, *rest):
        drawn.append(rng)
        return draw(cfg, r0, rmax, r_near, table, size, rng, *rest)

    monkeypatch.setattr(mcsim, "_field_interference", field)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = interference_samples(cfg, replace(mc, workers=8))
    finally:
        sys.setswitchinterval(interval)
    assert len(drawn) == len({id(rng) for rng in drawn}) == 24
    assert np.array_equal(got, base)


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

    def field(cfg, r0, rmax, r_near, table, size, rng, *rest):
        c, me = made[id(rng)][0], threading.get_ident()
        first = me == caller and caller not in drawer.values()
        drawer[c] = me
        ready.append(len(maker))
        if first:
            held.wait(timeout=30.0)
        out = draw(cfg, r0, rmax, r_near, table, size, rng, *rest)
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
    # every chunk's generator before any was drawn
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
    # a chunk drawn into the buffers a larger chunk left is the chunk drawn
    # into fresh ones, bit for bit, and neither chunk's result is a view
    # of the buffers
    cfg = make_cfg(eta=3.0, m_int=2.5)
    r0, rmax = mc_annulus(cfg, 1e-3)
    rn, nu = near_field(cfg, r0, rmax)
    table = mcsim._poisson_table(nu)
    rho = capacity.default_rho(cfg) if uplink else None

    ring = mcsim._ring_cumulants(cfg, r0, rmax, rn, rho)

    def chunk(size, c, bufs):
        return mcsim._field_interference(cfg, r0, rmax, rn, table, size,
                                         mcsim._chunk_rng(3, c), bufs, ring,
                                         rho)

    bufs = [np.empty(0)] * 3
    big = chunk(600, 0, bufs)
    grown = list(bufs)
    small = chunk(200, 1, bufs)
    assert all(a is b for a, b in zip(grown, bufs))
    assert np.array_equal(small, chunk(200, 1, [np.empty(0)] * 3))
    assert np.array_equal(big, chunk(600, 0, [np.empty(0)] * 3))
    assert not any(np.shares_memory(x, b) for x in (big, small)
                   for b in bufs)


def _first_chunk_by_hand(cfg, eps, size, seed, rho=None):
    """The first chunk's draws, made by hand as the module docstring orders
    them, all from the chunk-0 SFC64 stream: Poisson counts from the alias
    table of their law, one uniform each (slot floor(U K), coin U K - slot),
    then each point's position, then unit-scale Gamma marks (at m = 1 the
    unit exponentials -ln(1 - U)), then one Gamma variate per sample with
    the mean and variance of the ring.  R_near leaves the BS field's ring
    the share _near_share picks.  In the BS field the positions are radii
    uniform in r^2 on [r0, R_near], and each point weighs its mark times
    one folded scale and (1/r^2)^(eta/2), one power per point; the ring is
    [R_near, R_max], with its Campbell mean and variance.  With rho it is
    estimate_hd's uplink field cut at t = T = pi lambda R_near^2: its
    counts have mean T (e^(-v_min/T) - e^(-V/T)), its positions are
    v = pi lambda r^2 from the exponential law e^(-v/T) truncated to
    [v_min, V] by inversion, after the marks come E = v/T - ln(1 - U), and
    each point weighs mark rho E^(eta/2) v^(-eta/2), taken as two powers;
    the ring's cumulants come from conftest's quadrature.  Returns (counts,
    point weights, ring)."""
    r0, eta = cfg.r0, cfg.eta
    fi = cfg.fading_interferer
    rmax = r0 * eps ** (1.0 / (2.0 - eta))
    share = mcsim._near_share(cfg, r0, rmax)
    q = (rmax / r0) ** (2.0 - 3.0 * eta)
    rn = min(rmax, r0 * (q + share * (1.0 - q)) ** (1.0 / (2.0 - 3.0 * eta)))
    v_min, v_max, t = (math.pi * cfg.lam * r * r for r in (r0, rmax, rn))
    rng = np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0,))))
    lo, prob, alias = mcsim._poisson_table(
        cfg.lam * math.pi * (rn * rn - r0 * r0) if rho is None
        else t * (math.exp(-v_min / t) - math.exp(-v_max / t)))
    u = rng.random(size) * prob.size
    slot = np.floor(u).astype(int)
    counts = lo + np.where(u - slot < prob[slot], slot, alias[slot])
    u = rng.random(int(counts.sum()))
    marks = (-np.log(1.0 - rng.random(u.size)) if fi.shape == 1.0
             else rng.standard_gamma(fi.shape, u.size))
    if rho is None:
        r_sq = r0 * r0 + u * (rn * rn - r0 * r0)
        w = marks * (fi.scale * cfg.p_bs) * (1.0 / r_sq) ** (0.5 * eta)
        mark_sq = fi.mean * fi.mean * (1.0 + 1.0 / fi.shape)
        k1, k2 = (2.0 * math.pi * cfg.lam * moment / (n * eta - 2.0)
                  * (rn ** (2.0 - n * eta) - rmax ** (2.0 - n * eta))
                  for n, moment in ((1, fi.mean * cfg.p_bs),
                                    (2, mark_sq * (cfg.p_bs * cfg.p_bs))))
    else:
        v = v_min - t * np.log(1.0 - u * (1.0 - math.exp(-(v_max - v_min)
                                                          / t)))
        e = v / t - np.log(1.0 - rng.random(u.size))
        w = marks * fi.scale * rho * e ** (0.5 * eta) * v ** (-0.5 * eta)
        k1, k2 = (uplink_ring_cumulant(cfg, rho, r0, rmax, t, n)
                  for n in (1, 2))
    return counts, w, rng.gamma(k1 * k1 / k2, k2 / k1, size)


def test_chunk_draw_order_is_the_documented_one(fig2):
    # each sample's points are summed by reduceat over its run
    for eps in (1e-2, 1e-3):
        counts, w, ring = _first_chunk_by_hand(fig2, eps, 100, 99)
        starts = np.cumsum(counts) - counts
        near = np.add.reduceat(np.append(w, 0.0), starts)
        near[counts == 0] = 0.0
        manual = near + ring
        assert np.array_equal(manual, interference_samples(
            fig2, MCConfig(100, 99, tail_epsilon=eps)))


def test_a_sample_without_near_points_is_its_ring_variate_alone():
    # at eta = 8 a sample expects about 2.4 near-field points, so about 9%
    # of the samples draw none: each of those is its ring variate alone,
    # to the bit, and every other is its own points' sum plus its ring
    cfg = make_cfg(eta=8.0)
    counts, w, ring = _first_chunk_by_hand(cfg, 1e-3, 1024, 10)
    empty = counts == 0
    assert 50 < np.count_nonzero(empty) < 150
    starts = np.cumsum(counts) - counts
    near = np.array([math.fsum(w[s:s + c]) for s, c in zip(starts, counts)])
    vals = interference_samples(cfg, MCConfig(1024, 10))
    assert np.array_equal(vals[empty], ring[empty])
    assert np.allclose(vals, near + ring, rtol=1e-14, atol=0.0)


class _DrawSpy:
    """A Generator that records its draws in order: ("random", size) for
    uniforms, ("standard_gamma", shape, 1.0, size) and ("gamma", shape,
    scale, size).  The unit draws take `out=` as numpy's do."""

    def __init__(self, rng):
        self._rng, self.calls = rng, []

    def random(self, size=None, out=None):
        self.calls.append(("random", size if out is None else out.size))
        return self._rng.random(size, out=out)

    def gamma(self, shape, scale, size):
        self.calls.append(("gamma", shape, scale, size))
        return self._rng.gamma(shape, scale, size)

    def standard_gamma(self, shape, size=None, out=None):
        self.calls.append(("standard_gamma", shape, 1.0,
                           size if out is None else out.size))
        return self._rng.standard_gamma(shape, size, out=out)


def _ring_mean_and_variance(cfg, r0, rmax, rho=None):
    """Mean and variance of the ring variate _field_interference draws at
    the ring cumulants _ring_cumulants gives: its one scaled gamma draw,
    after the counts' uniforms, the positions, the unit-scale marks
    (uniforms to invert at m = 1) and, for the uplink field of rho, the
    uniforms of E."""
    spy = _DrawSpy(np.random.default_rng(0))
    rn, nu = near_field(cfg, r0, rmax)
    mcsim._field_interference(cfg, r0, rmax, rn, mcsim._poisson_table(nu), 8,
                              spy, [np.empty(0)] * 3,
                              mcsim._ring_cumulants(cfg, r0, rmax, rn, rho),
                              rho)
    marks = ("random" if cfg.fading_interferer.shape == 1.0
             else "standard_gamma")
    assert [c[0] for c in spy.calls] == (
        ["random", "random", marks] + ["random"] * (rho is not None)
        + ["gamma"])
    assert spy.calls[0] == ("random", 8)
    _, shape, scale, size = spy.calls[-1]
    assert size == 8
    return shape * scale, shape * scale * scale


def test_rayleigh_marks_are_minus_log_of_one_minus_the_chunk_uniforms():
    # on a unit circle at unit power and mark scale every point's weight is
    # its mark, to the bit, and the ring is empty: the marks are
    # -ln(1 - U) of the chunk's stream, after the counts' and radii's
    # uniforms
    cfg = make_cfg()
    table = mcsim._poisson_table(3.0)
    bufs = [np.empty(0)] * 3
    out = mcsim._field_interference(cfg, 1.0, 1.0, 1.0, table, 500,
                                    mcsim._chunk_rng(5, 0), bufs, (0.0, 0.0))
    rng = mcsim._chunk_rng(5, 0)
    counts = mcsim._poisson_counts(table, rng, 500)
    total = int(counts.sum())
    rng.random(total)
    marks = -np.log(1.0 - rng.random(total))
    assert np.array_equal(bufs[1][:total], marks)
    starts = np.cumsum(counts) - counts
    assert out == pytest.approx([math.fsum(marks[s:s + c])
                                 for s, c in zip(starts, counts)],
                                rel=1e-14, abs=0.0)


class _ConstantUniforms:
    """A generator whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None, out=None):
        if out is None:
            return np.full(size, self.u)
        out.fill(self.u)
        return out


@pytest.mark.parametrize("u, e", [(0.0, 0.0),
                                  (1.0 - 2.0 ** -53, 53.0 * math.log(2.0))])
def test_inverted_exponentials_at_the_ends_of_the_uniforms(u, e):
    # U = 0 gives ln 1 and the largest uniform ln 2^-53, never ln 0: the
    # marks and the uplink's E come out finite, with no RuntimeWarning.  A
    # one-slot table puts three points in every sample on the unit circle,
    # at unit mark scale, with an empty ring.  The uplink field cut there,
    # at T = v_min = V = pi lambda and unit rho T^(-eta/2), has every v at
    # v_min, so E = 1 + X and each point weighs X (1 + X)^2 at eta = 4
    cfg = make_cfg()
    minus_e = mcsim._minus_exponentials(_ConstantUniforms(u), np.empty(4))
    assert np.all(-minus_e == pytest.approx(e, rel=1e-15, abs=0.0))
    table = (3, np.array([1.0]), np.array([0]))
    for rho, weight in ((None, e),
                        ((math.pi * cfg.lam) ** 2, e * (1.0 + e) ** 2)):
        bufs = [np.empty(0)] * 3
        out = mcsim._field_interference(cfg, 1.0, 1.0, 1.0, table, 2,
                                        _ConstantUniforms(u), bufs,
                                        (0.0, 0.0), rho)
        assert np.all(np.isfinite(bufs[1][:6]))
        assert bufs[1][:6] == pytest.approx(np.full(6, weight), rel=1e-14,
                                            abs=0.0)
        assert out == pytest.approx([3.0 * weight] * 2, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("eta, m_int", [(3.0, 1.0), (4.0, 1.0), (4.0, 2.5)])
def test_uplink_chunk_is_the_two_power_formula(eta, m_int):
    # the t-space chunk by hand: one power per point, rho T^(-eta/2) (1 +
    # X/w)^(eta/2), is rho E^(eta/2) v^(-eta/2) by two powers, to rounding,
    # on the documented draws, and the ring variate takes the quadrature's
    # cumulants
    cfg = make_cfg(eta=eta, m_int=m_int)
    rho = capacity.default_rho(cfg)
    size = uplink_chunk(cfg)
    counts, w, ring = _first_chunk_by_hand(cfg, 1e-3, size, 21, rho)
    starts = np.cumsum(counts) - counts
    near = np.array([math.fsum(w[s:s + c]) for s, c in zip(starts, counts)])
    vals = mcsim._field_chunks(cfg, MCConfig(size, 21),
                               lambda field, rng: field, rho=rho)
    assert vals == pytest.approx(near + ring, rel=1e-13, abs=0.0)


def test_ring_variate_has_the_ring_cumulants(fig2):
    r0, rmax = mc_annulus(fig2, 1e-3)
    ring = FieldLaw(fig2, near_field(fig2, r0, rmax)[0], rmax)
    mean, var = _ring_mean_and_variance(fig2, r0, rmax)
    assert mean == pytest.approx(ring.cumulant(1), rel=1e-10, abs=0.0)
    assert var == pytest.approx(ring.cumulant(2), rel=1e-10, abs=0.0)


def test_uplink_ring_variate_has_the_ring_cumulants():
    # the uplink ring holds the points with t > T = pi lambda R_near^2; its
    # variate's mean and variance are the cumulants of the exact t field
    # beyond T (FieldLaw.uplink's panels in log t)
    cfg = make_cfg(eta=3.0)
    rho = capacity.default_rho(cfg)
    r0, rmax = mc_annulus(cfg, 1e-3)
    rn = near_field(cfg, r0, rmax)[0]
    ring = FieldLaw.uplink(cfg, rho, r0, rmax, t_lo=math.pi * cfg.lam * rn * rn)
    mean, var = _ring_mean_and_variance(cfg, r0, rmax, rho)
    assert mean == pytest.approx(ring.cumulant(1), rel=1e-10, abs=0.0)
    assert var == pytest.approx(ring.cumulant(2), rel=1e-10, abs=0.0)


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
                for n in (1, 2)]
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


# --------------------------------------------------------------- counts --

@pytest.mark.parametrize("nu", [0.0, 1e-3, 0.3, 14.85, 51.0, 1e4])
def test_alias_table_is_the_poisson_law_on_its_window(nu):
    # slot j keeps lo + j with probability prob[j] and gives lo + alias[j]
    # otherwise, each slot 1/K: the pmf that implies is Poisson's (40-digit
    # mpmath) to 1e-15, and the window leaves out less than 1e-30 of the
    # mass
    mpmath = pytest.importorskip("mpmath")
    lo, prob, alias = mcsim._poisson_table(nu)
    size = prob.size
    root = math.sqrt(nu)
    assert lo == max(0, math.floor(nu - 12.0 * root - 30.0))
    assert lo + size - 1 == math.floor(nu + 12.0 * root + 30.0)
    assert np.all((prob >= 0.0) & (prob <= 1.0))
    assert np.all((alias >= 0) & (alias < size))
    implied = prob.copy()
    np.add.at(implied, alias, 1.0 - prob)
    implied /= size
    with mpmath.workdps(40):
        mu = mpmath.mpf(nu)
        pmf = np.array([float(mpmath.exp(k * mpmath.log(mu) - mu
                                         - mpmath.loggamma(k + 1)))
                        if nu else float(k == 0)
                        for k in range(lo, lo + size)])
        outside = (mpmath.gammainc(lo + size, 0, nu, regularized=True)
                   + (mpmath.gammainc(lo, nu, mpmath.inf, regularized=True)
                      if lo else 0))
    assert np.max(np.abs(implied - pmf)) < 1e-15
    assert outside < 1e-30


@pytest.mark.parametrize("nu", [14.85, 1e4])
def test_alias_counts_have_the_poisson_mean_and_variance(nu):
    # the counts' mean and variance are nu, within 5 standard errors of
    # 2e5 draws: at nu = 1e4 the window starts at lo = 8770
    counts = mcsim._poisson_counts(mcsim._poisson_table(nu),
                                   mcsim._chunk_rng(9, 0), 200_000)
    assert counts.dtype.kind == "i"
    n = counts.size
    assert abs(counts.mean() - nu) < 5.0 * math.sqrt(nu / n)
    assert abs(counts.var(ddof=1) - nu) < 5.0 * nu * math.sqrt(
        (1.0 / nu + 2.0) / n)


def test_a_silent_near_field_draws_no_points_and_one_sample_chunks_work():
    # nu = 0: every count is 0.  One sample draws one count, also in a
    # window far from 0, and a field of one-sample chunks (r_min = 5 km,
    # about 5.9e4 points per sample) is whole
    rng = mcsim._chunk_rng(2, 0)
    assert not np.any(mcsim._poisson_counts(mcsim._poisson_table(0.0), rng,
                                            1000))
    table = mcsim._poisson_table(1e4)
    one = mcsim._poisson_counts(table, rng, 1)
    assert one.shape == (1,) and table[0] <= one[0] < table[0] + table[1].size
    cfg = make_cfg()
    assert mc_chunk(cfg, r_min=5000.0) == 1
    vals = interference_samples(cfg, MCConfig(2, 3), r_min=5000.0)
    law = FieldLaw(cfg, 5000.0, mc_annulus(cfg, 1e-3)[1] * 5000.0 / cfg.r0)
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
    # and its Gamma variate matches only two: far below the k-statistic's
    # noise
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
    vals = mcsim._field_chunks(cfg, MCConfig(30_000, 13),
                               lambda field, rng: field, rho=rho)
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
