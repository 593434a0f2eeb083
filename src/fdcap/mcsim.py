"""Monte Carlo ground truth: Poisson base-station fields and simulation-side
estimates of every analytic quantity in the package, as raw draws or as
SampleStats; the CLI builds its reports and histogram from these.

Sampling model
--------------
Interfering BSs form a Poisson field of intensity lambda restricted to the
annulus [r0, R_max]: r0 = 1/sqrt(pi*lambda) is the model's exclusion radius,
and R_max = r0 * tail_epsilon^(1/(2-eta)) (infinite where that overflows,
eta near 2) leaves the share tail_epsilon of E[I] to the tail.  Marks are
Gamma(m, Omega).

The sampler draws only the near field [r0, R_near] point by point: counts
are Poisson(lambda*pi*(R_near^2 - r0^2)) and radii have density
2r/(R_near^2 - r0^2).  A chunk's points lie in draw order, each sample's
as one run, in a buffer whose last slot is a 0.0 sentinel, and
np.add.reduceat sums every run (its first point plus numpy's pairwise sum
of the others; a sample without points gets 0.0).
Each sample adds one Gamma variate (shape kappa_1^2/kappa_2, scale
kappa_2/kappa_1) for the far ring [R_near, R_max], matched to the ring's
first two Campbell cumulants

    kappa_n = 2*pi*lambda*E[mark^n]*p_bs^n
              * (R_near^(2-n eta) - R_max^(2-n eta))/(n eta - 2),

so every sample has the whole annulus' mean and variance: second-order
moment matching of a guard-zone field (Heath, Kountouris & Bai, IEEE TSP
2013) beyond the near/far split of Haenggi & Ganti (FnT Networking 2009).
R_near leaves the ring the share delta3 of the annulus' third cumulant,
R_near^(2-3 eta) = R_max^(2-3 eta) + delta3 * (r0^(2-3 eta) - R_max^(2-3
eta)), for a cost of about pi*lambda*r0^2 * delta3^(-2/(3 eta-2)) points per
sample, whatever tail_epsilon is.  The sampled law differs from the
annulus law only in the ring, whose Gamma variate misses its third and
higher cumulants, so delta3 sets sup_x |F_sampled - F_annulus|, the law
gap.  The ring takes the widest share whose law gap stays within
LAW_GAP_BUDGET = 1e-4, ten times below what a KS distance resolves at 1e6
samples: _near_share's fitted envelope of that share, never below
NEAR_SKEW_SHARE = 1e-6 nor above MAX_SKEW_SHARE = 1e-3.  At the baselines
(eta = 4, m = 1) that is 1.7e-5, R_near = 3.0 r0 and 8.0 points per
sample, with a gap of 7.3e-5 (4.6e-6 at 1e-6).  Where the rule falls to
1e-6 (m below 0.34 at eta = 4 and 0.9 at eta = 5, every m from eta = 5.6
on) the ring keeps that share, though there the gap at 1e-6 can already
exceed the budget.  The tests compute the gap by transform inversion at
the rule's own R_near.

estimate_hd's uplink field has users of intensity lambda on the same
annulus, each sending rho*d^eta with d^2 ~ Exp(mean 1/(pi*lambda)) its
own-cell distance.  With v = pi*lambda*r^2 and E = pi*lambda*d^2 a unit
exponential, a user is received at mark*rho*(E/v)^(eta/2) =
mark*rho*t^(-eta/2), t = v/E, and by the mapping theorem (Kingman, Poisson
Processes, 1993) the t form a Poisson field of intensity (1 + x)*e^(-x)
taken between x = V/t and x = v_min/t, v_min and V the v of r0 and R_max:
the BS field's form in v.  So the uplink near field is cut by received
power, at t <= T = pi*lambda*R_near^2 with R_near from the BS field's rule:
its counts are Poisson(T*(e^(-v_min/T) - e^(-V/T))), each point's v has
the law e^(-v/T) truncated to [v_min, V], drawn by inversion, and its
E = v/T + X, X a unit exponential.  The ring t > T holds only weak points
and takes one Gamma variate with

    kappa_n = E[mark^n]*rho^n*[v^(1-a)*(gamma(a-1, v/T) + gamma(a, v/T))]
              from v = V to v = v_min,   a = n eta/2,

gamma the lower incomplete gamma (_uplink_ring_term) and the V term 0 at
R_max = inf.  At the baselines that is 8.06 points per sample, with a law
gap of 6.3e-5.  A radius split does not suit this field: its ring's
E^(eta/2) transmit powers keep it far from a Gamma law (a gap of 2.05e-3
at delta3 = 1e-6, for 14.85 points, and more for a wider ring).

Determinism
-----------
A chunk holds max(1, CHUNK_POINTS // (1 + nu)) samples, nu the expected
near-field points per sample, and chunk c draws from its own SFC64 stream
SeedSequence(seed, spawn_key=(c,)).  Both depend only on the config, the
annulus and c, never on the worker that runs the chunk, and per-sample
values land at fixed positions in the output array: identical results for
any `workers`.  The calling thread builds every chunk's generator before
any worker starts and is itself worker 0 of W; each worker claims the next
unclaimed chunk from one shared counter and draws it into point buffers it
allocates once per call and reuses.  A chunk returns a fresh array into
its own slot, and the slots join in chunk order.  Statistics are numpy's
fixed-order reductions of that array, so they are bit-identical for any
`workers` as well; see summarize for their error bound.

The sampler draws two fields: the BS field, and with a received-power
target rho (_field_chunks' rho) estimate_hd's uplink field.  Draw order
inside a chunk (relied on by the determinism tests):
interference: counts, radii, marks, ring;
fd estimators: counts, radii, marks, ring, then alpha0;
hd estimator:  counts, v, marks, E, ring, then g.
Counts come from one Walker/Vose alias table of their Poisson law, built
once per call on a window that leaves out less than 1e-30 of the mass, one
uniform U per sample: slot floor(U*K) of the table's K, coin U*K - slot.
Radii and v are uniforms, v as w = v/T with -w = ln(1 - c*U) - v_min/T,
c = 1 - e^(-(V - v_min)/T).  Marks are unit-scale standard_gamma draws
into the sum buffer, but at m = 1 unit exponentials by inversion,
-ln(1 - U) with 1 - U exact, so never ln 0; E takes its unit exponential X
the same way.  Both are drawn as ln(1 - U) = -X, and the sign rides on a
multiply or divide that is there anyway.  One in-place multiply scales the
marks: by the mark scale times p_bs for the BS field, or times
rho*T^(-eta/2) for the uplink field, negated at m = 1.  Every point then
takes one power: (1/r^2)^(eta/2) in the BS field, after one divide, and
(1 + X/w)^(eta/2) = (T*E/v)^(eta/2) in the uplink field, after one divide
of -X by -w and one add.
The fd order extends the interference order, so one pass serves both:
estimate_fd_rates returns its field with its rates, and `fdcap validate`
draws a second field only for an --r0 override, on that other annulus.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._integrate import NumericsError
from .model import NetworkConfig

# field points one chunk holds: three point buffers of this size (radii or
# the uplink's v, marks with reduceat's sentinel, the uplink's E) take
# about 1 MB, half a core's 2 MiB L2
CHUNK_POINTS = 1 << 15
# least share of the annulus' third interference cumulant that the BS
# field's far ring takes, which each sample carries as one moment-matched
# Gamma variate instead of point by point
NEAR_SKEW_SHARE = 1e-6
# sup_x |F_sampled - F_annulus| the BS field's near field is sized for, ten
# times below the ~1e-3 a KS distance resolves at 1e6 samples
LAW_GAP_BUDGET = 1e-4
# most of the third cumulant the BS field's ring takes: the top of the
# shares _near_share's envelope was fitted on
MAX_SKEW_SHARE = 1e-3
# _near_share's log10 share at pi*lambda*r_min^2 = 1: row i, column j
# multiplies eta^i * (ln m)^j
_SHARE_FIT = ((-3.16896, -1.21717, -0.0953359, -0.0135956),
              (0.288829, 1.00438, -0.0195234, 0.0),
              (-0.194547, -0.11609, 0.0, 0.0),
              (0.0055417, 0.0, 0.0, 0.0))
# most Monte Carlo worker threads a run may start: each allocates its own
# point buffers, and threads past the host's cores only wait for the GIL
MAX_WORKERS = 64
# expected field points per sample above which the sampler refuses to
# draw, since even a chunk of one sample would hold more: one float64 array
# of this many points takes 128 MiB
MAX_CHUNK_POINTS = 1 << 24


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run parameters.

    r_max=None means R_max = r0 * tail_epsilon^(1/(2-eta)).  The default
    tail budget 1e-3 is also the CLI's.  It sets the annulus whose law the
    samples follow, not the cost: the sampler draws points one by one only
    in the near field, out to R_near in the BS field and down to received
    power rho*T^(-eta/2), T = pi*lambda*R_near^2, in the uplink field, and
    the ring beyond as one Gamma variate.  R_near is as small as keeps the
    BS field's sampled law within LAW_GAP_BUDGET of the annulus law
    (module docstring).
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
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be in [1, {MAX_WORKERS}], "
                             f"got {self.workers}")


@dataclass(frozen=True)
class SampleStats:
    """mean/variance (ddof=1)/std_error = sqrt(variance/n) of one estimate."""

    mean: float
    variance: float
    std_error: float
    n: int


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
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(chunk_index,))))


def _poisson_table(nu: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(lo, prob, alias): a Walker/Vose alias table of the Poisson(nu) law
    on k in [lo, nu + 12 sqrt(nu) + 30], lo = max(0, floor(nu - 12 sqrt(nu)
    - 30)), a window whose outside holds less than 1e-30 of the mass.

    The pmf is built in logs from the mode floor(nu) outward by the steps
    ln(nu/k), then normalised: k*ln(nu) - nu - lgamma(k + 1) would lose
    about nu*eps to cancellation, an error of 8e-14 in the pmf at nu = 1e4.
    Slot j keeps lo + j with probability prob[j] and otherwise gives
    lo + alias[j].
    """
    root = math.sqrt(nu)
    lo = max(0, math.floor(nu - 12.0 * root - 30.0))
    k = np.arange(lo, math.floor(nu + 12.0 * root + 30.0) + 1)
    if nu == 0.0:
        pmf = (k == 0).astype(float)
    else:
        mode = math.floor(nu) - lo
        steps = np.log(nu / k[1:])  # ln p_k - ln p_(k-1)
        pmf = np.exp(np.concatenate([-np.cumsum(steps[:mode][::-1])[::-1],
                                     [0.0], np.cumsum(steps[mode:])]))
        pmf /= math.fsum(pmf)
    size = k.size
    scaled = (pmf * size).tolist()
    prob, alias = [1.0] * size, list(range(size))
    small = [j for j, q in enumerate(scaled) if q < 1.0]
    large = [j for j, q in enumerate(scaled) if q >= 1.0]
    while small and large:
        j, g = small.pop(), large.pop()
        prob[j], alias[j] = scaled[j], g
        scaled[g] = (scaled[g] + scaled[j]) - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    return lo, np.array(prob), np.array(alias, dtype=np.intp)


def _poisson_counts(table: tuple, rng: np.random.Generator,
                    size: int) -> np.ndarray:
    """`size` Poisson counts from the alias table `table` (_poisson_table),
    one uniform U each: slot floor(U*K) of the K, and U*K - slot as its
    coin."""
    lo, prob, alias = table
    u = rng.random(size)
    u *= prob.size
    slot = u.astype(np.intp)
    u -= slot
    counts = np.where(u < prob[slot], slot, alias[slot])
    counts += lo
    return counts


def _minus_exponentials(rng: np.random.Generator,
                        out: np.ndarray) -> np.ndarray:
    """`out` filled with -E for unit exponentials E, by inversion: ln(1 - U),
    where 1 - U is exact for numpy's 53-bit uniforms and never 0."""
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    return np.log(out, out=out)


def _near_radius(eta: float, r_min: float, r_max: float,
                 share: float) -> float:
    """Inner radius of the ring [R_near, r_max] that holds the share `share`
    of the third cumulant of the field on [r_min, r_max]."""
    e = 2.0 - 3.0 * eta
    q = (r_max / r_min) ** e
    return min(r_max, r_min * (q + share * (1.0 - q)) ** (1.0 / e))


def _near_share(cfg: NetworkConfig, r_min: float, r_max: float) -> float:
    """Share delta3 of the third cumulant that the BS field's ring on
    [r_min, r_max] may hold so that its law stays within LAW_GAP_BUDGET of
    the annulus law (module docstring), in [NEAR_SKEW_SHARE, MAX_SKEW_SHARE].

    log10 delta3 is a lower envelope, in eta and y = ln m, of the share at
    which the transform gap meets the budget at pi*lambda*r_min^2 = 1,
    fitted over eta in [2.05, 8], m in [0.05, 10] and tail shares 1e-4 to
    1e-2; a sparser near field, a = pi*lambda*r_min^2 < 1, takes a^5 of it,
    and a denser one its a = 1 share.  An annulus thinner than the fitted
    ones, (r_max/r_min)^(2 - eta) > 1e-2, keeps NEAR_SKEW_SHARE.
    """
    if (r_max / r_min) ** (2.0 - cfg.eta) > 1.01e-2:  # 1e-2 and rounding
        return NEAR_SKEW_SHARE
    y = math.log(cfg.fading_interferer.shape)
    log_share = sum(c * cfg.eta ** i * y ** j
                    for i, row in enumerate(_SHARE_FIT)
                    for j, c in enumerate(row))
    log_share += 5.0 * math.log10(min(1.0, math.pi * cfg.lam * r_min * r_min))
    return min(MAX_SKEW_SHARE, max(NEAR_SKEW_SHARE, 10.0 ** log_share))


def _near_field(cfg: NetworkConfig, r_min: float,
                r_max: float) -> tuple[float, float]:
    """(R_near, nu): the inner radius of the BS field's far ring on [r_min,
    r_max], at _near_share, and the expected near-field points per sample."""
    r_near = _near_radius(cfg.eta, r_min, r_max, _near_share(cfg, r_min, r_max))
    return r_near, cfg.lam * math.pi * (r_near * r_near - r_min * r_min)


def _uplink_points(cfg: NetworkConfig, r_min: float, r_max: float,
                   r_near: float) -> float:
    """Expected near-field points per sample of the uplink field on [r_min,
    r_max] cut at T = pi*lambda*r_near^2: T*(e^(-v_min/T) - e^(-V/T)), with
    v_min and V the pi*lambda*r^2 of r_min and r_max (module docstring)."""
    t = math.pi * cfg.lam * r_near * r_near
    return t * (math.exp(-math.pi * cfg.lam * r_min * r_min / t)
                - math.exp(-math.pi * cfg.lam * r_max * r_max / t))


def near_field(cfg: NetworkConfig, mc: MCConfig,
               r_min: Optional[float] = None) -> tuple[float, float]:
    """(R_near, nu) of the BS field interference_samples(cfg, mc, r_min)
    and estimate_fd_rates draw: the ring's inner radius (m) and the
    expected near-field points per sample."""
    r_min = cfg.r0 if r_min is None else r_min
    return _near_field(cfg, r_min, _resolve_rmax(cfg, mc, r_min))


def uplink_near_points(cfg: NetworkConfig, mc: MCConfig) -> float:
    """Expected near-field points per sample of the uplink field that
    estimate_hd(cfg, rho, mc) draws, at any rho."""
    r0 = cfg.r0
    rmax = _resolve_rmax(cfg, mc, r0)
    return _uplink_points(cfg, r0, rmax, _near_field(cfg, r0, rmax)[0])


def _uplink_ring_term(a: float, v: float, t: float) -> float:
    """v^(1-a) (gamma(a-1, v/t) + gamma(a, v/t)), lower incomplete gammas;
    0 at v = inf.

    With x = v/t it is t^(1-a) e^(-x) (1 + x sum_j x^j/(a+1)_j)/(a-1), a
    series of positive terms, summed to a relative 1e-17.  Past x = 2a + 60
    both gammas are complete to below 1e-17 of themselves, so the term is
    v^(1-a) a Gamma(a-1)."""
    x = v / t
    if x > 2.0 * a + 60.0:
        if v == math.inf:
            return 0.0
        return math.exp((1.0 - a) * math.log(v) + math.log(a)
                        + math.lgamma(a - 1.0))
    term = total = 1.0
    j = 1.0
    while term > 1e-17 * total:
        term *= x / (a + j)
        total += term
        j += 1.0
    return math.exp((1.0 - a) * math.log(t) - x + math.log1p(x * total)
                    - math.log(a - 1.0))


def _ring_cumulants(cfg: NetworkConfig, r_min: float, r_max: float,
                    r_near: float,
                    rho: Optional[float] = None) -> tuple[float, float]:
    """(kappa_1, kappa_2) of the far ring of the field on [r_min, r_max]:
    the BS field's beyond R_near = r_near, or with `rho` the uplink field's
    points with t > T = pi*lambda*r_near^2 (module docstring)."""
    fi = cfg.fading_interferer
    marks = (fi.mean, fi.mean * fi.mean * (1.0 + 1.0 / fi.shape))
    if rho is None:
        tx = (cfg.p_bs, cfg.p_bs * cfg.p_bs)
        return tuple(
            2.0 * math.pi * cfg.lam * (mark * p) / (n * cfg.eta - 2.0)
            * (r_near ** (2.0 - n * cfg.eta) - r_max ** (2.0 - n * cfg.eta))
            for n, mark, p in zip((1, 2), marks, tx))
    v_min, v_max, t = (math.pi * cfg.lam * r * r for r in (r_min, r_max, r_near))
    return tuple(moment * rho ** n
                 * (_uplink_ring_term(0.5 * n * cfg.eta, v_min, t)
                    - _uplink_ring_term(0.5 * n * cfg.eta, v_max, t))
                 for n, moment in zip((1, 2), marks))


def _chunk_samples(nu: float) -> int:
    """Samples per chunk at nu expected near-field points per sample."""
    return max(1, int(CHUNK_POINTS // (1.0 + nu)))


def _field_interference(cfg: NetworkConfig, r0: float, rmax: float,
                        r_near: float, table: tuple, size: int,
                        rng: np.random.Generator, bufs: list, ring: tuple,
                        rho: Optional[float] = None) -> np.ndarray:
    """`size` i.i.d. draws of the aggregate interference (W) of the field
    on [r0, rmax], as a fresh array: the near field, its per-sample counts
    from the alias table `table` of their Poisson law (_poisson_table),
    point by point, and the far ring as one Gamma variate per sample with
    the cumulants `ring` = (kappa_1, kappa_2) (_ring_cumulants), only if
    kappa_1 is positive.

    Draws in the module docstring's order into views of the three float64
    arrays in `bufs`, which it replaces by larger ones when the chunk's
    points outgrow them.  The BS field's near field is [r0, r_near], and
    every point sends p_bs.  With `rho` it is estimate_hd's uplink field
    cut at T = pi*lambda*r_near^2, each point at mark*rho*T^(-eta/2)*(1 +
    X/w)^(eta/2) with w = v/T.  X and the m = 1 marks are drawn as their
    negatives ln(1 - U) (_minus_exponentials); the marks' scale and -w
    carry the sign.
    """
    counts = _poisson_counts(table, rng, size)
    total = int(counts.sum())
    if bufs[1].size <= total:  # one slot more for reduceat's sentinel
        bufs[:] = [np.empty(total + total // 8 + 1) for _ in bufs]
    # in place: every fresh temporary of a chunk's size costs page faults
    pos = rng.random(out=bufs[0][:total])
    if rho is None:  # r^2
        pos *= r_near * r_near - r0 * r0
        pos += r0 * r0
        tx_scale = cfg.p_bs
    else:  # -w
        t = math.pi * cfg.lam * r_near * r_near
        pos *= math.expm1(math.pi * cfg.lam * (r0 * r0 - rmax * rmax) / t)
        np.log1p(pos, out=pos)
        pos -= math.pi * cfg.lam * r0 * r0 / t
        tx_scale = rho * t ** (-0.5 * cfg.eta)
    fi = cfg.fading_interferer
    w = bufs[1][:total + 1]
    w[total] = 0.0
    marks = w[:total]
    mark_scale = fi.scale * tx_scale
    if fi.shape == 1.0:  # -E, so the scale takes the sign
        _minus_exponentials(rng, marks)
        mark_scale = -mark_scale
    else:
        rng.standard_gamma(fi.shape, out=marks)
    marks *= mark_scale
    # one power per point: (1/r^2)^(eta/2), or (1 + X/w)^(eta/2)
    if rho is None:
        np.divide(1.0, pos, out=pos)
    else:
        np.divide(_minus_exponentials(rng, bufs[2][:total]), pos, out=pos)
        pos += 1.0
    pos **= 0.5 * cfg.eta
    marks *= pos
    # each sample's run of points starts at its offset; the 0.0 sentinel in
    # w's last slot keeps every offset, `total` too, a valid index, and
    # reduceat returns the element at the offset for an empty run
    starts = np.cumsum(counts) - counts
    out = np.add.reduceat(w, starts)
    out[counts == 0] = 0.0
    k1, k2 = ring
    if k1 > 0.0:
        out += rng.gamma(k1 * k1 / k2, k2 / k1, size)
    return out


def _field_chunks(cfg: NetworkConfig, mc: MCConfig,
                  fn: Callable[[np.ndarray, np.random.Generator], np.ndarray],
                  r_min: Optional[float] = None,
                  rho: Optional[float] = None) -> np.ndarray:
    """fn(field, chunk_rng) of every chunk, joined along the last axis.

    field holds the chunk's draws of the interference of the field on
    [r_min, R_max] (r_min defaults to the model's r0), the BS field or with
    rho the uplink field (_field_interference), drawn from chunk_rng before
    fn's own draws.  fn returns one value per sample, or rows of them, as
    estimate_fd_rates does.  R_near, nu (_near_field, or _uplink_points
    with rho), the chunk size _chunk_samples(nu), the counts' alias table
    _poisson_table(nu) and the ring's cumulants are set once per call.
    The calling thread builds every chunk's generator, then runs as worker
    0 beside min(workers, chunks) - 1 threads.  Each worker claims chunk
    indices from one counter, draws into its own point buffers and puts
    fn's result in the chunk's slot; the slots join in index order: the
    same result for any workers.  A failing chunk stops further claims;
    once every worker has returned, the exception of the lowest failing
    chunk is raised, the one a single worker would meet first.  Raises
    NumericsError("mcsim") before drawing when one sample would hold more
    than MAX_CHUNK_POINTS points on average.
    """
    if r_min is None:
        r_min = cfg.r0
    elif not r_min > 0:
        raise ValueError(f"r_min must be > 0, got {r_min}")
    rmax = _resolve_rmax(cfg, mc, r_min)
    r_near, nu = _near_field(cfg, r_min, rmax)
    if rho is not None:
        nu = _uplink_points(cfg, r_min, rmax, r_near)
    if nu > MAX_CHUNK_POINTS:
        raise NumericsError(
            "mcsim", f"the field on [{r_min:.6g}, {r_near:.6g}] m holds "
                     f"{nu:.3g} expected points per sample, more than "
                     f"{MAX_CHUNK_POINTS}")
    n, size = mc.n_samples, _chunk_samples(nu)
    table = _poisson_table(nu)
    ring = _ring_cumulants(cfg, r_min, rmax, r_near, rho)
    chunks = -(-n // size)
    rngs = [_chunk_rng(mc.seed, c) for c in range(chunks)]
    parts, failures = [None] * chunks, {}
    unclaimed, claim = iter(range(chunks)), threading.Lock()

    def work():
        bufs = [np.empty(0)] * 3
        while not failures:
            with claim:
                c = next(unclaimed, None)
            if c is None:
                return
            try:
                parts[c] = fn(_field_interference(
                    cfg, r_min, rmax, r_near, table, min(size, n - c * size),
                    rngs[c], bufs, ring, rho), rngs[c])
            except BaseException as exc:  # raised below, once all joined
                failures[c] = exc

    threads = [threading.Thread(target=work)
               for _ in range(min(mc.workers, chunks) - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if failures:
        raise failures[min(failures)]
    return np.concatenate(parts, axis=-1)


def summarize(values: np.ndarray) -> SampleStats:
    """SampleStats of `values`: mean and variance (ddof=1; 0.0 for one
    value).

    The mean and the sum of squared deviations are numpy's pairwise sums
    over the array in index order: the same array gives the same bits.
    Every summand is non-negative (interference, rates, squared
    deviations), so each sum's relative error is at most about
    (128 + log2 n) * eps, 1.5e-14 at n = 1e5, far below any MC standard
    error.
    """
    n = values.size
    mean = float(values.mean())
    var = float(values.var(ddof=1)) if n > 1 else 0.0
    return SampleStats(mean=mean, variance=var,
                       std_error=math.sqrt(var / n), n=n)


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
    h = rng.gamma(fs.shape, fs.scale, size)
    h *= (2.0 * math.sqrt(cfg.lam)) ** (-cfg.eta)
    return h


def estimate_fd_rates(cfg: NetworkConfig, mc: MCConfig,
                      a0: Optional[float] = None,
                      power: Optional[float] = None
                      ) -> tuple[np.ndarray, list[SampleStats]]:
    """One field pass: the draws of I, equal to interference_samples(cfg,
    mc), and the FD rate's SampleStats (bit/s) under the water-filling
    policy of water level a0 (W) and at the constant transmit power `power`
    (W), in that order, each only if given.

    Per sample: I from the Poisson field (not the Gamma fit), h from the
    signal fading, gamma = h/(I + N0), rate = B*log2(1 + P(gamma)*gamma).
    Both rates share the field and the h drawn after it, so each equals the
    same call with that argument alone.  Under the water-filling policy
    P(gamma) = (a0 - 1/gamma)^+, 1 + P(gamma)*gamma is max(a0*gamma, 1), and
    that is the form evaluated: no division by gamma, and a rate of exactly
    zero at and below the cutoff 1/a0, where the maximum is 1.  Each chunk
    writes the field and the rates in place, as the rows of one array.
    """
    levels = [(p, waterfill) for p, waterfill in ((a0, True), (power, False))
              if p is not None]

    def chunk(i_agg, rng):
        rows = np.empty((1 + len(levels), i_agg.size))
        rows[0] = i_agg
        gamma = _signal_gain(cfg, rng, i_agg.size)
        i_agg += cfg.n0  # copied into row 0: reused as I + N0
        gamma /= i_agg
        for (p, waterfill), row in zip(levels, rows[1:]):
            np.multiply(gamma, p, out=row)
            if waterfill:
                np.maximum(row, 1.0, out=row)
            else:
                row += 1.0
            np.log2(row, out=row)
            row *= cfg.bandwidth
        return rows

    field, *rates = _field_chunks(cfg, mc, chunk)
    return field, [summarize(r) for r in rates]


def estimate_hd(cfg: NetworkConfig, rho: float, mc: MCConfig) -> SampleStats:
    """Half-duplex benchmark (B/2)*E[log2(1 + rho*g/(I_u + N0))] (bit/s).

    Reconstructed interference model (the source for this benchmark is
    external; documented here and tested for its claimed invariances):
    interfering uplink users form a Poisson field of intensity lambda (one
    active co-channel user per cell) on the same annulus [r0, R_max] as the
    BS field.  Each transmits rho*d^eta where d is its own nearest-BS
    distance (Rayleigh, d^2 ~ Exp(mean 1/(pi*lambda))) — path-loss
    inversion to received level rho; interferer channels are Gamma(m,
    Omega).  The field is sampled point by point down to received power
    rho*T^(-eta/2), T = pi*lambda*R_near^2 at the BS field's R_near, plus
    one Gamma variate with the mean and variance of the weaker rest
    (module docstring).
    The served link sees a unit-mean Gamma(m0, 1/m0) gain g, so the received
    signal power is rho*g.  The estimate is insensitive to both lambda and
    rho (tested), which is what makes this reconstruction usable as a
    benchmark.  Each chunk evaluates its rates in place, in g.
    """
    if not rho >= 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    m0 = cfg.fading_signal.shape

    def chunk(i_up, rng):
        g = rng.gamma(m0, 1.0 / m0, i_up.size)
        g *= rho
        i_up += cfg.n0
        g /= i_up
        g += 1.0
        np.log2(g, out=g)
        g *= 0.5 * cfg.bandwidth
        return g

    return summarize(_field_chunks(cfg, mc, chunk, rho=rho))
