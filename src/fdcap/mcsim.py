"""Monte Carlo ground truth: Poisson base-station fields and simulation-side
estimates of every analytic quantity in the package.

Sampling model
--------------
Interfering BSs form a Poisson field of intensity lambda restricted to the
annulus [r0, R_max]: r0 = 1/sqrt(pi*lambda) is the model's exclusion radius,
and R_max = r0 * tail_epsilon^(1/(2-eta)) (infinite where that overflows,
eta near 2) leaves the share tail_epsilon of E[I] to the tail.  Marks are
Gamma(m, Omega).

The sampler draws only the near field [r0, R_near] point by point: counts
are Poisson(lambda*pi*(R_near^2 - r0^2)) and radii have density
2r/(R_near^2 - r0^2).  Each sample adds one Gamma variate (shape
kappa_1^2/kappa_2, scale kappa_2/kappa_1) for the far ring [R_near, R_max],
matched to the ring's first two Campbell cumulants

    kappa_n = 2*pi*lambda*E[mark^n]*E[tx^n]
              * (R_near^(2-n eta) - R_max^(2-n eta))/(n eta - 2),

so every sample has the whole annulus' mean and variance: second-order
moment matching of a guard-zone field (Heath, Kountouris & Bai, IEEE TSP
2013) beyond the near/far split of Haenggi & Ganti (FnT Networking 2009).
R_near leaves the ring the share delta3 = NEAR_SKEW_SHARE of the annulus'
third cumulant, R_near^(2-3 eta) = R_max^(2-3 eta) + delta3 * (r0^(2-3 eta)
- R_max^(2-3 eta)), for a cost of about delta3^(-2/(3 eta-2)) points per
sample: 15 at eta = 4, 51 at eta = 3, under 1e3 as eta -> 2, whatever
tail_epsilon is.

Determinism
-----------
Realizations are generated in fixed chunks of CHUNK; chunk c uses an
independent PCG64 stream (numpy's default bit generator) spawned as
SeedSequence(seed, spawn_key=(c,)).
The stream therefore depends only on the chunk index, never on the worker
that happens to run it, and per-sample values land at fixed positions in the
output array — identical results for any `workers`.  Scalar reductions go
through math.fsum (exact compensated summation), so merged statistics do not
depend on accumulation order either.

Draw order inside a chunk (relied on by the determinism tests):
interference: counts, radii, marks, ring;
fd estimators: counts, radii, marks, ring, then alpha0;
hd estimator:  counts, radii, marks, d^2 (power control), ring, then g.
Marks are unit-scale standard_gamma draws and d^2 unit-mean
standard_exponential draws.  Their scales multiply the chunk's points in
place: once for the BS field (mark scale times p_bs), and for the uplink
field once by the mark scale and once by rho*(pi*lambda)^(-eta/2).
The fd order extends the interference order, so one pass serves both:
estimate_fd_rates returns its field with its rates, and `fdcap validate`
draws a second field only for an --r0 override, on that other annulus.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .model import NetworkConfig, derived_geometry
from .powercontrol import WaterfillSolution, power_policy
from .specfun import NumericsError

CHUNK = 1024
# share of the annulus' third interference cumulant left to the far ring,
# which each sample carries as one moment-matched Gamma variate instead of
# point by point
NEAR_SKEW_SHARE = 1e-6
# expected field points in one chunk above which the sampler refuses to
# draw: one float64 array of this many points takes 128 MiB
MAX_CHUNK_POINTS = 1 << 24


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run parameters.

    r_max=None means R_max = r0 * tail_epsilon^(1/(2-eta)).  The default
    tail budget 1e-3 is also the CLI's.  It sets the annulus whose law the
    samples follow, not the cost: the sampler draws points only out to
    R_near and the ring beyond as one Gamma variate (module docstring).
    """

    n_samples: int
    seed: int
    r_max: Optional[float] = None
    tail_epsilon: float = 1e-3
    workers: int = 1

    def __post_init__(self):
        if not self.n_samples >= 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.seed < 0 or self.seed >> 64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.r_max is not None and not self.r_max > 0:
            raise ValueError(f"r_max must be > 0, got {self.r_max}")
        if not 0.0 < self.tail_epsilon <= 0.01:
            raise ValueError(
                f"tail_epsilon must be in (0, 0.01], got {self.tail_epsilon}")
        if not self.workers >= 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class SampleStats:
    """mean/variance (ddof=1)/std_error = sqrt(variance/n) of one estimate;
    histogram, when present, is (bin_edges, counts) with counts summing to n."""

    mean: float
    variance: float
    std_error: float
    n: int
    histogram: Optional[tuple] = None


def _resolve_rmax(cfg: NetworkConfig, mc: MCConfig, r_min: float) -> float:
    """mc.r_max, or r_min * tail_epsilon^(1/(2-eta)): the field beyond
    holds that share of the mean (it scales as R^(2-eta)).  inf on overflow."""
    if mc.r_max is not None:
        if not mc.r_max > r_min:
            raise ValueError(
                f"r_max must exceed the exclusion radius {r_min!r}, "
                f"got {mc.r_max!r}")
        return mc.r_max
    try:
        return r_min * mc.tail_epsilon ** (1.0 / (2.0 - cfg.eta))
    except OverflowError:
        return math.inf


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk_index,))))


def _near_radius(eta: float, r_min: float, r_max: float) -> float:
    """Inner radius of the ring [R_near, r_max] that holds the share
    NEAR_SKEW_SHARE of the third cumulant of the field on [r_min, r_max]."""
    e = 2.0 - 3.0 * eta
    q = (r_max / r_min) ** e
    return min(r_max, r_min * (q + NEAR_SKEW_SHARE * (1.0 - q)) ** (1.0 / e))


def _field_interference(cfg: NetworkConfig, r0: float, rmax: float,
                        size: int, rng: np.random.Generator,
                        tx_power: Optional[tuple] = None) -> np.ndarray:
    """`size` i.i.d. draws of the aggregate interference (W) of the field
    on [r0, rmax]: the near field point by point, the far ring as one
    moment-matched Gamma variate per sample (only if its mean is positive).

    Draws counts, radii, marks and the ring, in that order.  Every
    interferer sends p_bs unless `tx_power` is a triple (draw, mean, mean
    of square): then draw(n, rng) draws the n interferers' transmit powers,
    after their marks.  Raises NumericsError("mcsim") before drawing when a
    chunk would hold more than MAX_CHUNK_POINTS points on average.
    """
    draw, tx_mean, tx_sq = ((None, cfg.p_bs, cfg.p_bs * cfg.p_bs)
                            if tx_power is None else tx_power)
    r_near = _near_radius(cfg.eta, r0, rmax)
    nu = cfg.lam * math.pi * (r_near * r_near - r0 * r0)
    if nu * CHUNK > MAX_CHUNK_POINTS:
        raise NumericsError(
            "mcsim", f"the field on [{r0:.6g}, {r_near:.6g}] m holds "
                     f"{nu:.3g} expected points per sample, and a chunk of "
                     f"{CHUNK} samples would exceed {MAX_CHUNK_POINTS} points")
    counts = rng.poisson(nu, size)
    total = int(counts.sum())
    # in place: every fresh temporary of a chunk's size costs page faults
    r_sq = rng.random(total)
    r_sq *= r_near * r_near - r0 * r0
    r_sq += r0 * r0
    fi = cfg.fading_interferer
    w = rng.standard_gamma(fi.shape, total)
    if draw is None:
        w *= fi.scale * tx_mean
    else:
        w *= fi.scale
        w *= draw(total, rng)
    r_sq **= -0.5 * cfg.eta
    w *= r_sq
    idx = np.repeat(np.arange(size), counts)
    out = np.bincount(idx, weights=w, minlength=size)
    mark_sq = fi.mean * fi.mean * (1.0 + 1.0 / fi.shape)
    k1, k2 = (2.0 * math.pi * cfg.lam * moment / (n * cfg.eta - 2.0)
              * (r_near ** (2.0 - n * cfg.eta) - rmax ** (2.0 - n * cfg.eta))
              for n, moment in ((1, fi.mean * tx_mean), (2, mark_sq * tx_sq)))
    if k1 > 0.0:
        out += rng.gamma(k1 * k1 / k2, k2 / k1, size)
    return out


def _field_chunks(cfg: NetworkConfig, mc: MCConfig,
                  fn: Callable[[np.ndarray, np.random.Generator], np.ndarray],
                  r_min: Optional[float] = None,
                  tx_power: Optional[tuple] = None) -> np.ndarray:
    """fn(field, chunk_rng) of every chunk, joined along the last axis.

    field holds the chunk's draws of the interference of the field on
    [r_min, R_max] (r_min defaults to the model's r0; tx_power as in
    _field_interference), drawn from chunk_rng before fn's own draws.  fn
    returns one value per sample, or rows of them, as estimate_fd_rates
    does.  Chunks join in index order: the same result for any workers.
    """
    if r_min is None:
        r_min = derived_geometry(cfg).r0
    elif not r_min > 0:
        raise ValueError(f"r_min must be > 0, got {r_min}")
    rmax = _resolve_rmax(cfg, mc, r_min)
    n = mc.n_samples

    def work(c):
        rng = _chunk_rng(mc.seed, c)
        size = min(CHUNK, n - c * CHUNK)
        return fn(_field_interference(cfg, r_min, rmax, size, rng, tx_power),
                  rng)

    chunks = range((n + CHUNK - 1) // CHUNK)
    if mc.workers == 1:
        parts = [work(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=mc.workers) as pool:
            parts = list(pool.map(work, chunks))
    return np.concatenate(parts, axis=-1)


def summarize(values: np.ndarray, histogram: bool = False) -> SampleStats:
    n = values.size
    # fsum over a list: the same exact sum, 1.5x faster than over an array
    mean = math.fsum(values.tolist()) / n
    if n > 1:
        var = math.fsum(((values - mean) ** 2).tolist()) / (n - 1)
    else:
        var = 0.0
    hist = None
    if histogram:
        edges = np.histogram_bin_edges(values, bins="fd")
        counts, edges = np.histogram(values, bins=edges)
        hist = (edges, counts)
    return SampleStats(mean=mean, variance=var,
                       std_error=math.sqrt(var / n), n=n, histogram=hist)


def interference_samples(cfg: NetworkConfig, mc: MCConfig,
                         r_min: Optional[float] = None) -> np.ndarray:
    """n_samples i.i.d. aggregate-interference draws (W).

    r_min overrides the exclusion radius (default: the model's r0), mirroring
    the same override on the analytic moment formulas.
    """
    return _field_chunks(cfg, mc, lambda field, rng: field, r_min)


def _signal_gain(cfg: NetworkConfig, rng: np.random.Generator,
                 size: int) -> np.ndarray:
    """Composite signal gain h = alpha0 / (2 sqrt(lambda))^eta."""
    fs = cfg.fading_signal
    alpha0 = rng.gamma(fs.shape, fs.scale, size)
    return alpha0 * (2.0 * math.sqrt(cfg.lam)) ** (-cfg.eta)


def estimate_fd_rates(cfg: NetworkConfig, mc: MCConfig,
                      powers: Sequence[Union[float, WaterfillSolution]]
                      ) -> tuple[np.ndarray, list[SampleStats]]:
    """One field pass: the draws of I, equal to interference_samples(cfg,
    mc), and the FD rate's SampleStats (bit/s) for each entry of `powers`,
    a constant transmit power (W) or a WaterfillSolution's policy.

    Per sample: I from the Poisson field (not the Gamma fit), h from the
    signal fading, gamma = h/(I + N0), rate = B*log2(1 + P(gamma)*gamma).
    All rates share the field and the h drawn after it, so each equals the
    same call with that power alone.  Water-filling contributions are
    exactly zero below the cutoff 1/a0, where power_policy returns zero.
    """
    def chunk(i_agg, rng):
        h = _signal_gain(cfg, rng, i_agg.size)
        gamma = h / (i_agg + cfg.n0)
        return np.stack([i_agg] + [
            cfg.bandwidth * np.log2(1.0 + (
                power_policy(p, gamma) if isinstance(p, WaterfillSolution)
                else p) * gamma) for p in powers])

    field, *rates = _field_chunks(cfg, mc, chunk)
    return field, [summarize(r) for r in rates]


def _uplink_power(cfg: NetworkConfig, rho: float) -> tuple:
    """estimate_hd's interferer transmit-power law as (draw, mean, mean of
    square): rho*d^eta with d^2 ~ Exp(mean 1/(pi*lambda)), whose moments are
    E[tx^n] = rho^n*Gamma(1 + n*eta/2)*(pi*lambda)^(-n*eta/2)."""
    def draw(n, rng):
        tx = rng.standard_exponential(n)
        tx **= 0.5 * cfg.eta
        tx *= rho * (math.pi * cfg.lam) ** (-0.5 * cfg.eta)
        return tx

    return (draw, *(rho ** n * math.gamma(1.0 + 0.5 * n * cfg.eta)
                    * (math.pi * cfg.lam) ** (-0.5 * n * cfg.eta)
                    for n in (1, 2)))


def estimate_hd(cfg: NetworkConfig, rho: float, mc: MCConfig) -> SampleStats:
    """Half-duplex benchmark (B/2)*E[log2(1 + rho*g/(I_u + N0))] (bit/s).

    Reconstructed interference model (the source for this benchmark is
    external; documented here and tested for its claimed invariances):
    interfering uplink users form a Poisson field of intensity lambda (one
    active co-channel user per cell) on the same annulus [r0, R_max] as the
    BS field, sampled the same way: point by point out to R_near, plus one
    Gamma variate with the far ring's Campbell mean and variance.  Each
    transmits rho*d^eta where d is its own nearest-BS distance (Rayleigh,
    d^2 ~ Exp(mean 1/(pi*lambda))) — path-loss inversion to received level
    rho; interferer channels are Gamma(m, Omega).
    The served link sees a unit-mean Gamma(m0, 1/m0) gain g, so the received
    signal power is rho*g.  The estimate is insensitive to both lambda and
    rho (tested), which is what makes this reconstruction usable as a
    benchmark.
    """
    if not rho >= 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    m0 = cfg.fading_signal.shape

    def chunk(i_up, rng):
        g = rng.gamma(m0, 1.0 / m0, i_up.size)
        sinr = rho * g / (i_up + cfg.n0)
        return 0.5 * cfg.bandwidth * np.log2(1.0 + sinr)

    return summarize(_field_chunks(cfg, mc, chunk,
                                   tx_power=_uplink_power(cfg, rho)))


def write_histogram_csv(path: str, stats: SampleStats,
                        pdf: Optional[Callable[[float], float]] = None) -> None:
    """Write the histogram as CSV rows bin_left,bin_right,density.

    When `pdf` is given, a fourth column holds it at the bin midpoint —
    the analytic overlay for the empirical-density plot.
    """
    if stats.histogram is None:
        raise ValueError("SampleStats carries no histogram")
    edges, counts = stats.histogram
    widths = np.diff(edges)
    density = counts / (stats.n * widths)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        header = "bin_left,bin_right,density"
        if pdf is not None:
            header += ",model_density"
        fh.write(header + "\n")
        for i in range(len(counts)):
            row = f"{edges[i]:.9e},{edges[i + 1]:.9e},{density[i]:.9e}"
            if pdf is not None:
                mid = 0.5 * (edges[i] + edges[i + 1])
                row += f",{pdf(mid):.9e}"
            fh.write(row + "\n")
