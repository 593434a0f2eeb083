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
are Poisson(nu), nu = lambda*pi*(R_near^2 - r0^2), and radii have density
2r/(R_near^2 - r0^2).  A chunk of `size` samples draws its points'
Poisson(nu*size) total at once, and each point belongs to sample
floor(U*size) of its own uniform U: by Poisson colouring (Kingman, Poisson
Processes, 1993) the samples' counts are then i.i.d. Poisson(nu).
np.bincount sums each sample's points in draw order (a sample without
points gets 0.0).
Each sample adds one variate for the far ring [R_near, R_max], matched to
the ring's first three Campbell cumulants

    kappa_n = 2*pi*lambda*E[mark^n]*p_bs^n
              * (R_near^(2-n eta) - R_max^(2-n eta))/(n eta - 2),

E[mark^n] = Omega^n*(1 + 1/m)...(1 + (n-1)/m): the shifted Gamma
c + Gamma(k, theta) with theta = kappa_3/(2*kappa_2), k =
4*kappa_2^3/kappa_3^2 and c = kappa_1 - k*theta (_ring_variate).  Where
c < kappa_1/20, or k < 1.5 (a ring of about one effective point), it is
the c = 0 Gamma of the first two alone, shape kappa_1^2/kappa_2 and scale
kappa_2/kappa_1.  Either way every sample has the whole annulus' mean and
variance: moment matching of a guard-zone field (Heath, Kountouris & Bai,
IEEE TSP 2013) beyond the near/far split of Haenggi & Ganti (FnT
Networking 2009).  R_near leaves the ring the share delta3 of the annulus'
third cumulant, R_near^(2-3 eta) = R_max^(2-3 eta) + delta3 * (r0^(2-3
eta) - R_max^(2-3 eta)), for a cost of about pi*lambda*r0^2 *
delta3^(-2/(3 eta-2)) points per sample, whatever tail_epsilon is.  The
sampled law differs from the annulus law only in the ring, whose variate
misses its fourth and higher cumulants (and the third where c = 0), so
delta3 sets sup_x |F_sampled - F_annulus|, the law gap.  The ring takes
the widest share whose law gap stays within LAW_GAP_BUDGET = 1e-4 in both
fields, ten times below what a KS distance resolves at 1e6 samples:
_near_share's fitted envelope of that share, never below NEAR_SKEW_SHARE =
1e-6 nor above MAX_SKEW_SHARE = 1e-3.  At the baselines (eta = 4, m = 1)
that is 2.2e-4, R_near = 2.32 r0 and 4.39 points per sample, with a gap of
6.8e-5 (6.5e-4 for the c = 0 Gamma at that R_near).  Where the rule falls
to 1e-6 (m below 0.18 at eta = 4, below 0.42 and above 6.3 at eta = 5,
every m from eta = 5.45 on) the ring keeps that share, though there the
gap at 1e-6 can already exceed the budget.  The tests compute the gap by
transform inversion at the rule's own R_near.

estimate_hd's uplink field has users of intensity lambda on the same
annulus, each sending rho*d^eta with d^2 ~ Exp(mean 1/(pi*lambda)) its
own-cell distance.  With v = pi*lambda*r^2 and E = pi*lambda*d^2 a unit
exponential, a user is received at mark*rho*(E/v)^(eta/2) =
mark*rho*t^(-eta/2), t = v/E, and by the mapping theorem (Kingman) the t
form a Poisson field of intensity (1 + x)*e^(-x) taken between x = V/t
and x = v_min/t, v_min and V the v of r0 and R_max: the BS field's form
in v.  So the uplink near field is cut by received
power, at t <= T = pi*lambda*R_near^2 with R_near from the BS field's rule:
its counts are Poisson(T*(e^(-v_min/T) - e^(-V/T))), each point's v has
the law e^(-v/T) truncated to [v_min, V], drawn by inversion, and its
E = v/T + X, X a unit exponential.  The ring t > T holds only weak points
and takes the same kind of variate, with

    kappa_n = E[mark^n]*rho^n*[v^(1-a)*(gamma(a-1, v/T) + gamma(a, v/T))]
              from v = V to v = v_min,   a = n eta/2,

gamma the lower incomplete gamma (_uplink_ring_term) and the V term 0 at
R_max = inf.  At the baselines that is 4.48 points per sample, with a law
gap of 6.2e-5.  A radius split does not suit this field: its ring's
E^(eta/2) transmit powers keep it far from a Gamma law (a gap of 2.05e-3
at delta3 = 1e-6, for 14.85 points, and more for a wider ring).

Determinism
-----------
A chunk holds max(1, CHUNK_POINTS // (1 + nu)) samples, nu the expected
near-field points per sample, and chunk c draws from its own SFC64 stream
SeedSequence(seed, spawn_key=(c,)).  Both depend only on the config, the
annulus and c, never on the worker that runs the chunk, and per-sample
values land at fixed positions in the output array: identical results for
any `workers`.  The calling thread builds the generators of the first
RNG_WINDOW chunks (of every chunk, in a call of no more) before any worker
starts and is itself worker 0 of W; each worker claims the next unclaimed
chunk from one shared counter, builds the generator RNG_WINDOW chunks
ahead if there is such a chunk, and draws its chunk into point buffers it
allocates once per call and reuses.  Each chunk writes its values into its
own slice of the call's one output array.  Statistics are numpy's
fixed-order reductions of that array, so they are bit-identical for any
`workers` as well; see summarize for their error bound.

The sampler draws two fields: the BS field, and with a received-power
target rho (_field_chunks' rho) estimate_hd's uplink field.  Draw order
inside a chunk (relied on by the determinism tests):
interference: total, points' uniforms, marks, ring;
fd estimators: total, points' uniforms, marks, ring, then alpha0;
hd estimator:  total, points' uniforms, marks, E, ring, then g.
alpha0 and g are Gamma(m0) draws, at an integer m0 up to MAX_PRODUCT_SHAPE
as m0 uniform arrays, after the ring (below).
The total is one Poisson(nu*size) draw.  A point's uniform U gives its
sample floor(U*size) and, as the fraction F = U*size - floor(U*size),
exact in double precision and of 53 - log2(size) >= 38 bits, its radius
or v: r^2 = r0^2 + F*(R_near^2 - r0^2), and v as w = v/T with -w =
ln(1 - c*F) - v_min/T, c = 1 - e^(-(V - v_min)/T).  Marks are
unit-scale Gamma(m) draws into the marks buffer, which bincount weighs
the owners by.  At an integer m up to MAX_PRODUCT_SHAPE they are
-ln((1 - U_1)...(1 - U_m)) over m uniform arrays drawn in turn, the
Erlang construction (Devroye, Non-Uniform Random Variate Generation,
1986, IX.3), with each 1 - U exact, so never ln 0: at m = 1 the unit
exponential -ln(1 - U) by inversion.  Other shapes are numpy's
standard_gamma draws (from m = 6 on, faster than m uniform arrays).  E
takes its unit exponential X the same way as an m = 1 mark.  Products are
drawn as ln(...) = -X, and the sign rides on a multiply or divide that is
there anyway.  One in-place multiply scales the marks: by the mark scale
times p_bs for the BS field, or times rho*T^(-eta/2) for the uplink field,
negated for a product.  alpha0 and g are drawn by the same rule, and the
sign rides on their scale multiply.  Every point then takes one power:
(1/r^2)^(eta/2) in the BS field, after one divide, and (1 + X/w)^(eta/2) =
(T*E/v)^(eta/2) in the uplink field, after one divide of -X by -w and one
add.
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

# field points one chunk holds: three float64 point buffers of this size
# (radii or the uplink's v, marks, the uplink's E) and the owner indices
# take about 1 MB, half a core's 2 MiB L2
CHUNK_POINTS = 1 << 15
# least share of the annulus' third interference cumulant that the BS
# field's far ring takes, which each sample carries as one moment-matched
# variate instead of point by point
NEAR_SKEW_SHARE = 1e-6
# sup_x |F_sampled - F_annulus| both fields' near fields are sized for, ten
# times below the ~1e-3 a KS distance resolves at 1e6 samples
LAW_GAP_BUDGET = 1e-4
# most of the third cumulant the BS field's ring takes: the top of the
# shares _near_share's envelope was fitted on
MAX_SKEW_SHARE = 1e-3
# _near_share's log10 share at pi*lambda*r_min^2 = 1: row i, column j
# multiplies eta^i * (ln m)^j
_SHARE_FIT = ((-3.90393, -2.06469, -0.121445, -0.0629242),
              (1.63928, 1.66671, -0.059988, 0.0),
              (-0.447588, -0.22833, 0.0, 0.0),
              (0.0132974, 0.0, 0.0, 0.0))
# largest integer Gamma shape drawn as minus the log of a product of
# uniforms (_minus_gamma): from shape 6 on, numpy's standard_gamma is faster
MAX_PRODUCT_SHAPE = 5
# chunk generators, about 1 KB each, built ahead of the claims
# (_field_chunks): a call of more chunks builds each later one as the
# chunk this many before it is claimed
RNG_WINDOW = 256
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
    the ring beyond as one shifted Gamma variate with its first three
    cumulants (or, where that does not fit, a Gamma with its mean and
    variance).  R_near is as small as keeps both fields' sampled laws
    within LAW_GAP_BUDGET of the annulus law (module docstring).
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


def _minus_gamma(rng: np.random.Generator, n: int, out: np.ndarray,
                 scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """`out` filled with -X for X ~ Gamma(n, 1), n an integer in [1,
    MAX_PRODUCT_SHAPE]: ln((1 - U_1)...(1 - U_n)) over n arrays of
    out.size uniforms drawn in order, the first into `out` and the others
    into `scratch` (a fresh array if None), the Erlang construction (Devroye,
    Non-Uniform Random Variate Generation, 1986, IX.3).  1 - U is exact for
    numpy's 53-bit uniforms and never 0, so the product stays above
    2^(-53 n), a normal double, and is never ln 0."""
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    if n > 1:
        scratch = (np.empty(out.size) if scratch is None
                   else scratch[:out.size])
        for _ in range(n - 1):
            rng.random(out=scratch)
            np.subtract(1.0, scratch, out=scratch)
            out *= scratch
    return np.log(out, out=out)


def _gamma_fill(rng: np.random.Generator, shape: float, out: np.ndarray,
                scratch: Optional[np.ndarray] = None) -> float:
    """`out` filled with sign * X for X ~ Gamma(shape, 1), and that sign
    returned, to ride on the scale multiply that follows: an integer shape
    up to MAX_PRODUCT_SHAPE as _minus_gamma (-1.0), any other as numpy's
    standard_gamma (1.0)."""
    if float(shape).is_integer() and shape <= MAX_PRODUCT_SHAPE:
        _minus_gamma(rng, int(shape), out, scratch)
        return -1.0
    rng.standard_gamma(shape, out=out)
    return 1.0


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
    1e-2 by a linear program that weights the grid nodes near the
    baselines (eta = 4, m = 1) up to 31-fold; a sparser near field, a = pi*lambda*r_min^2 < 1, takes a^5 of it,
    and a denser one a^1.5, fitted on a in {2, 4, 9}, unless its a = 1
    share is already NEAR_SKEW_SHARE.  An annulus thinner than the fitted
    ones, (r_max/r_min)^(2 - eta) > 1e-2, keeps NEAR_SKEW_SHARE.
    """
    if (r_max / r_min) ** (2.0 - cfg.eta) > 1.01e-2:  # 1e-2 and rounding
        return NEAR_SKEW_SHARE
    y = math.log(cfg.fading_interferer.shape)
    log_share = sum(c * cfg.eta ** i * y ** j
                    for i, row in enumerate(_SHARE_FIT)
                    for j, c in enumerate(row))
    a = math.pi * cfg.lam * r_min * r_min
    if a < 1.0:
        log_share += 5.0 * math.log10(a)
    elif log_share > math.log10(NEAR_SKEW_SHARE):
        log_share += 1.5 * math.log10(a)
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
                    rho: Optional[float] = None) -> tuple[float, ...]:
    """(kappa_1, kappa_2, kappa_3) of the far ring of the field on [r_min,
    r_max]: the BS field's beyond R_near = r_near, or with `rho` the uplink
    field's points with t > T = pi*lambda*r_near^2 (module docstring)."""
    fi = cfg.fading_interferer
    mark_sq = fi.mean * fi.mean * (1.0 + 1.0 / fi.shape)
    marks = (fi.mean, mark_sq, mark_sq * fi.mean * (1.0 + 2.0 / fi.shape))
    if rho is None:
        p = cfg.p_bs
        return tuple(
            2.0 * math.pi * cfg.lam * (mark * tx) / (n * cfg.eta - 2.0)
            * (r_near ** (2.0 - n * cfg.eta) - r_max ** (2.0 - n * cfg.eta))
            for n, mark, tx in zip((1, 2, 3), marks, (p, p * p, p * p * p)))
    v_min, v_max, t = (math.pi * cfg.lam * r * r for r in (r_min, r_max, r_near))
    return tuple(moment * rho ** n
                 * (_uplink_ring_term(0.5 * n * cfg.eta, v_min, t)
                    - _uplink_ring_term(0.5 * n * cfg.eta, v_max, t))
                 for n, moment in zip((1, 2, 3), marks))


def _ring_variate(kappa: tuple) -> tuple[float, float, float]:
    """(c, k, theta) of the ring variate c + Gamma(k, theta) for the ring
    cumulants kappa = (kappa_1, kappa_2, kappa_3) (_ring_cumulants).

    The shifted Gamma meets all three: theta = kappa_3/(2 kappa_2), k =
    kappa_2/theta^2 = 4 kappa_2^3/kappa_3^2 and c = kappa_1 - k theta.  It
    is taken where c >= kappa_1/20 and k >= 1.5.  Below k = 1.5 the ring
    holds about one effective point, and its density's edge at c can fit
    that ring's law worse than the plain Gamma does (2.2e-3 against 1.3e-3
    in sup-CDF distance at eta = 8, m = 1, k = 1.1).  Below c = kappa_1/20
    the two variates are nearly one law, and the shifted one read up to
    1.12e-4 against 0.91e-4 (eta = 6.26, m = 0.94, c = 0.03 kappa_1).
    Elsewhere c = 0, with the mean and variance alone: k =
    kappa_1^2/kappa_2, theta = kappa_2/kappa_1.  An empty ring,
    kappa_1 = 0, gives k = 0, and no variate is drawn."""
    k1, k2, k3 = kappa
    if not k1 > 0.0:
        return 0.0, 0.0, 0.0
    theta = 0.5 * k3 / k2
    shape = k2 / (theta * theta)
    shift = k1 - shape * theta
    if shift >= 0.05 * k1 and shape >= 1.5:
        return shift, shape, theta
    return 0.0, k1 * k1 / k2, k2 / k1


def _chunk_samples(nu: float) -> int:
    """Samples per chunk at nu expected near-field points per sample."""
    return max(1, int(CHUNK_POINTS // (1.0 + nu)))


def _field_interference(cfg: NetworkConfig, r0: float, rmax: float,
                        r_near: float, nu: float, size: int,
                        rng: np.random.Generator, bufs: list, ring: tuple,
                        rho: Optional[float] = None) -> np.ndarray:
    """`size` i.i.d. draws of the aggregate interference (W) of the field
    on [r0, rmax], as a fresh float64 array: the near field point by
    point, nu expected points per sample, and the far ring as one variate
    c + Gamma(k, theta) per sample, `ring` = (c, k, theta) (_ring_variate),
    only if k is positive: the Gamma draw is added, then c.

    The chunk's near field is one Poisson(nu*size) total of points, and a
    point of uniform U belongs to sample floor(U*size), so by Poisson
    colouring each sample's count is an independent Poisson(nu).  The
    fraction U*size - floor(U*size), exact in double precision with 53 -
    log2(size) bits, is the point's position uniform.  Each sample sums
    its points in draw order (np.bincount).  Draws in the module
    docstring's order into views of the three float64 arrays and the intp
    owner array in the list `bufs`, which it fills on first use and
    replaces by larger ones when the chunk's points outgrow them.  The BS
    field's near field is [r0, r_near], and every point sends p_bs.  With
    `rho` it is estimate_hd's uplink field cut at T = pi*lambda*r_near^2,
    each point at mark*rho*T^(-eta/2)*(1 + X/w)^(eta/2) with w = v/T.  X
    and the marks of an integer shape up to MAX_PRODUCT_SHAPE are drawn as
    their negatives (_minus_gamma, the marks' extra uniforms into the
    third buffer before X); the marks' scale and -w carry the sign.
    """
    total = int(rng.poisson(nu * size))
    if not bufs or bufs[0].size < total:
        grown = total + total // 8
        bufs[:] = [np.empty(grown) for _ in range(3)] + [
            np.empty(grown, dtype=np.intp)]
    # in place: every fresh temporary of a chunk's size costs page faults
    pos = rng.random(out=bufs[0][:total])
    pos *= size
    owner = bufs[3][:total]
    owner[...] = pos  # floor, as pos >= 0
    pos -= owner
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
    marks = bufs[1][:total]
    sign = _gamma_fill(rng, fi.shape, marks, bufs[2])
    marks *= sign * fi.scale * tx_scale
    # one power per point: (1/r^2)^(eta/2), or (1 + X/w)^(eta/2)
    if rho is None:
        np.divide(1.0, pos, out=pos)
    else:
        np.divide(_minus_gamma(rng, 1, bufs[2][:total]), pos, out=pos)
        pos += 1.0
    pos **= 0.5 * cfg.eta
    marks *= pos
    # float64 also without points, where bincount's sum is int64
    out = np.bincount(owner, weights=marks, minlength=size).astype(
        float, copy=False)
    shift, shape, scale = ring
    if shape > 0.0:
        out += rng.gamma(shape, scale, size)
        out += shift
    return out


def _field_chunks(cfg: NetworkConfig, mc: MCConfig,
                  fn: Callable[[np.ndarray, np.random.Generator, np.ndarray],
                               None],
                  r_min: Optional[float] = None,
                  rho: Optional[float] = None, rows: int = 0) -> np.ndarray:
    """One array of n_samples values, or of `rows` rows of them, that
    fn(field, chunk_rng, out) fills chunk by chunk: `out` is the chunk's
    slice of it along the last axis.

    field holds the chunk's draws of the interference of the field on
    [r_min, R_max] (r_min defaults to the model's r0), the BS field or with
    rho the uplink field (_field_interference), drawn from chunk_rng before
    fn's own draws.  R_near, nu (_near_field, or _uplink_points with rho),
    the chunk size _chunk_samples(nu) and the ring's cumulants are set once
    per call, and the output is allocated once.
    The calling thread builds the generators of the first RNG_WINDOW
    chunks, then runs as worker 0 beside min(workers, chunks) - 1 threads.
    Each worker claims chunk indices from one counter; a claim of chunk c
    also builds the generator of chunk c + RNG_WINDOW, if there is one,
    under the counter's lock, so at most RNG_WINDOW + workers generators
    are alive.  Each worker draws into its own point buffers, and fn writes
    the chunk's values at their fixed place: the same result for any
    workers.  A failing chunk stops further claims;
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
    ring = _ring_variate(_ring_cumulants(cfg, r_min, rmax, r_near, rho))
    chunks = -(-n // size)
    rngs = {c: _chunk_rng(mc.seed, c) for c in range(min(chunks, RNG_WINDOW))}
    out = np.empty((rows, n) if rows else n)
    failures = {}
    unclaimed, claim = iter(range(chunks)), threading.Lock()

    def work():
        bufs = []
        while not failures:
            with claim:
                c = next(unclaimed, None)
                if c is None:
                    return
                rng = rngs.pop(c)
                if c + RNG_WINDOW < chunks:
                    rngs[c + RNG_WINDOW] = _chunk_rng(mc.seed, c + RNG_WINDOW)
            lo = c * size
            try:
                fn(_field_interference(cfg, r_min, rmax, r_near, nu,
                                       min(size, n - lo), rng, bufs, ring,
                                       rho),
                   rng, out[..., lo:lo + size])
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
    return out


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
    return _field_chunks(cfg, mc, lambda field, rng, out: np.copyto(out, field),
                         r_min)


def _signal_gain(cfg: NetworkConfig, rng: np.random.Generator,
                 size: int) -> np.ndarray:
    """Composite signal gain h = alpha0 / (2 sqrt(lambda))^eta, alpha0 ~
    Gamma(m0, Omega0/m0) drawn by _gamma_fill: at an integer m0 up to
    MAX_PRODUCT_SHAPE from the next m0 arrays of `size` uniforms, and the
    sign rides on the scale multiply."""
    fs = cfg.fading_signal
    h = np.empty(size)
    sign = _gamma_fill(rng, fs.shape, h)
    h *= sign * fs.scale
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
    signal fading (_signal_gain: at an integer m0 up to MAX_PRODUCT_SHAPE,
    from m0 uniform arrays after the ring), gamma = h/(I + N0), rate =
    B*log2(1 + P(gamma)*gamma).
    Both rates share the field and the h drawn after it, so each equals the
    same call with that argument alone.  Under the water-filling policy
    P(gamma) = (a0 - 1/gamma)^+, 1 + P(gamma)*gamma is max(a0*gamma, 1), and
    that is the form evaluated: no division by gamma, and a rate of exactly
    zero at and below the cutoff 1/a0, where the maximum is 1.  Each chunk
    writes the field and the rates in place, in its slice of the rows of
    one array.
    """
    levels = [(p, waterfill) for p, waterfill in ((a0, True), (power, False))
              if p is not None]

    def chunk(i_agg, rng, rows):
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

    field, *rates = _field_chunks(cfg, mc, chunk, rows=1 + len(levels))
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
    one shifted Gamma variate with the first three cumulants of the weaker
    rest, or a Gamma with its mean and variance (module docstring).
    The served link sees a unit-mean Gamma(m0, 1/m0) gain g, so the received
    signal power is rho*g; g is drawn by _gamma_fill after the ring, at an
    integer m0 up to MAX_PRODUCT_SHAPE from the next m0 uniform arrays, and
    its sign rides on the 1/m0 multiply.  The estimate is insensitive to both lambda and
    rho (tested), which is what makes this reconstruction usable as a
    benchmark.  Each chunk evaluates its rates in place, in g, its slice of
    the output.
    """
    if not rho >= 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    m0 = cfg.fading_signal.shape

    def chunk(i_up, rng, g):
        sign = _gamma_fill(rng, m0, g)
        g *= sign / m0
        g *= rho
        i_up += cfg.n0
        g /= i_up
        g += 1.0
        np.log2(g, out=g)
        g *= 0.5 * cfg.bandwidth

    return summarize(_field_chunks(cfg, mc, chunk, rho=rho))
