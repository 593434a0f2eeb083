"""Shared test helpers: canonical configs, the exact Poisson-field reference
law, and the acceptance summary hook."""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc, gammaincc, poch

from fdcap import GammaParams, NetworkConfig, mcsim
from fdcap.mcsim import MCConfig, _resolve_rmax


def make_cfg(lam=5e-5, p_bs=1.0, eta=4.0, n0=1e-9, bandwidth=180e3, p_bar=0.2,
             m_int=1.0, omega_int=1.0, m_sig=2.0, omega_sig=None) -> NetworkConfig:
    """Build a config for tests.

    omega_sig defaults to (2*sqrt(lam))**(2*eta) so that the composite signal
    gain h = alpha0 / (2*sqrt(lam))**eta has mean rbar**-eta — the same
    convention the shipped baseline config files use.
    """
    if omega_sig is None:
        omega_sig = (2.0 * math.sqrt(lam)) ** (2.0 * eta)
    return NetworkConfig(lam=lam, p_bs=p_bs, eta=eta, n0=n0,
                         bandwidth=bandwidth, p_bar=p_bar,
                         fading_interferer=GammaParams(shape=m_int, mean=omega_int),
                         fading_signal=GammaParams(shape=m_sig, mean=omega_sig))


# The valid config domain out to its bounds: field -> (low, high, drawn in
# log10).  p_bs also takes 0, and m_sig also the integers 1..6.
DOMAIN = {"lam": (-9.0, -2.0, True), "p_bs": (-3.0, 3.0, True),
          "eta": (2.05, 8.0, False), "m_int": (0.05, 10.0, False),
          "m_sig": (0.3, 6.0, False), "n0": (-15.0, -6.0, True),
          "p_bar": (-6.0, 1.0, True)}


def fixed_scan():
    """The property nets' fixed scan: 300 make_cfg field dicts drawn
    uniformly over DOMAIN (numpy seed 20151217), every fourth with p_bs = 0
    and every other with an integer m_sig."""
    rng = np.random.default_rng(20151217)
    for n in range(300):
        fields = {}
        for name, (lo, hi, log) in DOMAIN.items():
            x = float(rng.uniform(lo, hi))
            fields[name] = 10.0 ** x if log else x
        if n % 4 == 0:
            fields["p_bs"] = 0.0
        if n % 2:
            fields["m_sig"] = float(rng.integers(1, 7))
        yield fields


@pytest.fixture
def micro() -> NetworkConfig:
    """Dense small-cell baseline: lambda = 50/km^2, P_BS = 1 W."""
    return make_cfg()


@pytest.fixture
def macro() -> NetworkConfig:
    """Sparse high-power baseline: lambda = 5/km^2, P_BS = 20 W."""
    return make_cfg(lam=5e-6, p_bs=20.0)


def contiguous_residuals_2f1(n_draws: int, seed: int) -> np.ndarray:
    """Normalized residuals of the three-term Gauss contiguous relation

        (c-a) F(a-1,b;c;z) + (2a-c+(b-a)z) F(a,b;c;z) + a(z-1) F(a+1,b;c;z) = 0

    over random draws a, b in [0.3, 4], c in [0.5, 6], z in [-5, -0.01].
    Each residual is scaled by the sum of the three term magnitudes.
    """
    from scipy.special import hyp2f1

    rng = np.random.default_rng(seed)
    out = np.empty(n_draws)
    for i in range(n_draws):
        a = rng.uniform(0.3, 4.0)
        b = rng.uniform(0.3, 4.0)
        c = rng.uniform(0.5, 6.0)
        z = -rng.uniform(0.01, 5.0)
        t1 = (c - a) * hyp2f1(a - 1.0, b, c, z)
        t2 = (2.0 * a - c + (b - a) * z) * hyp2f1(a, b, c, z)
        t3 = a * (z - 1.0) * hyp2f1(a + 1.0, b, c, z)
        scale = abs(t1) + abs(t2) + abs(t3)
        out[i] = abs(t1 + t2 + t3) / scale if scale else abs(t1 + t2 + t3)
    return out


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a vectorized cdf."""
    v = np.sort(samples)
    ref = cdf(v)
    i = np.arange(1, v.size + 1)
    return float(max(np.max(i / v.size - ref), np.max(ref - (i - 1) / v.size)))


# ------------------------------------------------- exact field reference --
#
# The Gamma fit and the N0 mean shift are the analytic pipeline's model; the
# simulator samples the Poisson field itself.  The references below compute
# the law of that same field, on the same annulus, from its Laplace transform
# (Andrews, Baccelli & Ganti, IEEE TCOM 2011; Hamdi, IEEE TCOM 2010), so a
# simulator check against them measures the sampler alone.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gauss_legendre(lo: float, hi: float, n_panels: int):
    """Nodes and weights of a composite 16-point Gauss-Legendre rule."""
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (edges[:-1, None] + half * (1.0 + _GL_NODES)).ravel()
    return nodes, (half * _GL_WEIGHTS).ravel()


class FieldLaw:
    """Exact law of the aggregate interference I of the Poisson field on the
    annulus [r_min, r_max] that the simulator samples — no sampling, no fit.

    With v = r^2 and g(v) = Omega p_bs v^(-eta/2) / m,

        log L(s) = -pi lambda int_{r_min^2}^{r_max^2} (1 - (1 + s g(v))^-m) dv

    for real or complex s with Re s >= 0.  The integral runs in log v on
    panels of width 1/2 with 16-point Gauss-Legendre rules; the integrand is
    analytic in log v at least pi/eta away from the real axis for every such
    s, so each panel converges to machine precision.  FieldLaw.uplink gives
    the uplink field's law in the same form.
    """

    def __init__(self, cfg: NetworkConfig, r_min: float, r_max: float):
        if not 0.0 < r_min < r_max < math.inf:
            raise ValueError(f"need 0 < r_min < r_max < inf, got "
                             f"[{r_min}, {r_max}]")
        lo, hi = 2.0 * math.log(r_min), 2.0 * math.log(r_max)
        log_v, w = _gauss_legendre(lo, hi, math.ceil(2.0 * (hi - lo)))
        v = np.exp(log_v)
        self.m = cfg.fading_interferer.shape
        self._g = (cfg.fading_interferer.mean * cfg.p_bs
                   * v ** (-0.5 * cfg.eta) / self.m)
        self._w = math.pi * cfg.lam * v * w  # dv = v d(log v)

    @classmethod
    def uplink(cls, cfg: NetworkConfig, rho: float, r_min: float,
               r_max: float, t_lo: float = 0.0, t_hi: float = math.inf):
        """Exact law of the uplink field's points with t in [t_lo, t_hi]:
        users of intensity lambda on [r_min, r_max] (r_max finite), each at
        its own-cell distance d, d^2 ~ Exp(mean 1/(pi lambda)), sending
        rho d^eta.  With v = pi lambda r^2 and E = pi lambda d^2, each is
        received at mark rho t^(-eta/2), t = v/E, and by the mapping theorem
        the t form a Poisson field of intensity

            lambda_t(t) = (1 + x) e^-x taken between x = V/t and v_min/t,

        v_min and V the v of r_min and r_max: P(2, V/t) - P(2, v_min/t) in
        regularized incomplete gammas, and Q(2, v_min/t) - Q(2, V/t) where
        v_min/t > 1, so that neither difference cancels.  The integral runs
        in log t as FieldLaw's does, from v_min/50, where lambda_t is below
        1e-20, to 1e5 V, beyond which lambda_t ~ (V^2 - v_min^2)/(2 t^2)
        leaves less than 1e-10 of the mean.
        """
        v_min, v_max = (math.pi * cfg.lam * r * r for r in (r_min, r_max))
        if not 0.0 < v_min < v_max < math.inf:
            raise ValueError(f"need 0 < r_min < r_max < inf, got "
                             f"[{r_min}, {r_max}]")
        lo = math.log(max(t_lo, v_min / 50.0))
        hi = math.log(min(t_hi, 1e5 * v_max))
        log_t, w = _gauss_legendre(lo, hi, math.ceil(2.0 * (hi - lo)))
        t = np.exp(log_t)
        x_lo, x_hi = v_min / t, v_max / t
        density = np.where(x_lo > 1.0,
                           gammaincc(2.0, x_lo) - gammaincc(2.0, x_hi),
                           gammainc(2.0, x_hi) - gammainc(2.0, x_lo))
        law = cls.__new__(cls)
        law.m = cfg.fading_interferer.shape
        law._g = (cfg.fading_interferer.mean * rho * t ** (-0.5 * cfg.eta)
                  / law.m)
        law._w = density * t * w
        return law

    def log_laplace(self, s, k: int = 0):
        """k-th s-derivative of log L(s), for scalar or array s."""
        z = np.multiply.outer(s, self._g)
        if k == 0:
            return np.expm1(-self.m * np.log1p(z)) @ self._w
        return ((-1) ** k * poch(self.m, k)
                * (self._g ** k * (1.0 + z) ** (-self.m - k)) @ self._w)

    def cumulant(self, k: int) -> float:
        """k-th cumulant of I, (-1)^k times the k-th derivative at s = 0."""
        return float(poch(self.m, k) * (self._g ** k @ self._w))

    def cdf(self, x) -> np.ndarray:
        """P[I <= x] by Gil-Pelaez inversion of phi(w) = L(-i w):

            F(x) = 1/2 - (1/pi) int_0^inf Im[exp(-i w x) phi(w)] / w dw,

        truncated where |phi| < 1e-13, on panels that each span at most
        20 rad of the oscillation at the largest x.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        mu = self.cumulant(1)
        w_max = 1.0
        while self.log_laplace(-1j * w_max / mu).real > math.log(1e-13):
            w_max *= 2.0
        n_panels = math.ceil(w_max * max(x.max() / mu, 1.0) / 20.0)
        w, wt = _gauss_legendre(0.0, w_max, n_panels)
        phi = np.exp(self.log_laplace(-1j * w / mu)) * wt / w
        out = np.empty(x.size)
        for i in range(0, x.size, 64):
            wx = np.multiply.outer(x[i:i + 64] / mu, w)
            out[i:i + 64] = 0.5 - (np.cos(wx) @ phi.imag
                                   - np.sin(wx) @ phi.real) / math.pi
        return out

    def cdf_interpolant(self, x_max: float) -> PchipInterpolator:
        """Monotone interpolant of cdf on [0, x_max], good to ~1e-6."""
        grid = np.linspace(0.0, x_max, 2001)
        return PchipInterpolator(grid, np.clip(self.cdf(grid), 0.0, 1.0))


def signal_scale(cfg: NetworkConfig) -> float:
    """Gamma scale theta of the gain h = alpha0 / (2 sqrt(lambda))^eta."""
    fs = cfg.fading_signal
    return fs.scale * (2.0 * math.sqrt(cfg.lam)) ** (-cfg.eta)


class CinrLaw:
    """Law of the CINR gamma = h / J for a given transform of J, with
    h ~ Gamma(2, theta) (the baselines' m0 = 2):

        Fbar(x) = P[gamma > x] = E[Q(2, x J / theta)] = L_J(s) - s L_J'(s),

    with s = x/theta.  log_laplace_j(s, k) returns the k-th derivative
    (k in {0, 1}) of log L_J.  avg_power and waterfill_rate integrate the
    CCDF by parts: E[(a0 - 1/gamma)^+] = int_{1/a0}^inf Fbar(x) x^-2 dx and
    E[ln(a0 gamma)^+] = int_{1/a0}^inf Fbar(x) x^-1 dx.
    """

    def __init__(self, cfg: NetworkConfig, log_laplace_j):
        if cfg.fading_signal.shape != 2.0:
            raise ValueError("CinrLaw needs signal fading shape m0 = 2, got "
                             f"{cfg.fading_signal.shape}")
        self.theta = signal_scale(cfg)
        self._log_laplace_j = log_laplace_j

    def ccdf(self, x):
        s = np.asarray(x, dtype=float) / self.theta
        return (np.exp(self._log_laplace_j(s, 0))
                * (1.0 - s * self._log_laplace_j(s, 1)))

    def _integral(self, a0: float, power: int) -> float:
        val, err = quad(lambda x: self.ccdf(x) / x ** power, 1.0 / a0,
                        math.inf, epsabs=0.0, epsrel=1e-11, limit=200)
        assert err <= 1e-9 * val, (val, err)
        return val

    def avg_power(self, a0: float) -> float:
        return self._integral(a0, 2)

    def waterfill_rate(self, a0: float, bandwidth: float) -> float:
        return bandwidth / math.log(2.0) * self._integral(a0, 1)


def mc_annulus(cfg: NetworkConfig, tail_epsilon: float) -> tuple:
    """[r0, R_max] that an MC run with this tail_epsilon samples."""
    r0 = cfg.r0
    return r0, _resolve_rmax(cfg, MCConfig(1, 0, tail_epsilon=tail_epsilon),
                             r0)


def near_field(cfg: NetworkConfig, r0: float, rmax: float) -> tuple:
    """(R_near, nu): the BS field's near field, which the sampler draws
    point by point on [r0, R_near] with the ring beyond taking the share
    mcsim._near_share allows, and its expected points per sample."""
    return mcsim._near_field(cfg, r0, rmax)


def mc_chunk(cfg: NetworkConfig, tail_epsilon: float = 1e-3,
             r_min=None) -> int:
    """Samples per chunk of an MC run of the BS field on [r_min (default
    r0), R_max]: the chunk size at its expected near-field points per
    sample."""
    r0 = cfg.r0 if r_min is None else r_min
    rmax = _resolve_rmax(cfg, MCConfig(1, 0, tail_epsilon=tail_epsilon), r0)
    return mcsim._chunk_samples(near_field(cfg, r0, rmax)[1])


def uplink_chunk(cfg: NetworkConfig, tail_epsilon: float = 1e-3) -> int:
    """Samples per chunk of an estimate_hd run: the chunk size at the
    uplink field's expected near-field points per sample."""
    return mcsim._chunk_samples(mcsim.uplink_near_points(
        cfg, MCConfig(1, 0, tail_epsilon=tail_epsilon)))


def uplink_ring_cumulant(cfg: NetworkConfig, rho: float, r_min: float,
                         r_max: float, t_near: float, n: int) -> float:
    """n-th cumulant of the uplink field's ring t > t_near on [r_min,
    r_max], r_max = inf allowed, by scipy quadrature in v = pi lambda r^2
    and not through the t field: a user at v sends into the ring when its
    E = pi lambda d^2 is below v/t_near, received at mark rho (E/v)^(eta/2),
    so the cumulant is E[mark^n] rho^n int_{v_min}^V v^-a gamma(a + 1,
    v/t_near) dv with a = n eta/2 and gamma the lower incomplete gamma.
    Past v = (a + 60) t_near gamma(a + 1, .) is Gamma(a + 1) to 1e-17, and
    that piece of the integral is taken in closed form."""
    a = 0.5 * n * cfg.eta
    fi = cfg.fading_interferer
    mark = fi.mean ** n * poch(fi.shape, n) / fi.shape ** n
    v_min, v_max = (math.pi * cfg.lam * r * r for r in (r_min, r_max))
    cut = min(v_max, max(v_min, (a + 60.0) * t_near))
    full = gamma_fn(a + 1.0)
    val, err = quad(lambda v: v ** -a * gammainc(a + 1.0, v / t_near),
                    v_min, cut, epsabs=0.0, epsrel=2e-14, limit=200)
    assert err <= 1e-13 * val, (val, err)
    tail = (cut ** (1.0 - a) - v_max ** (1.0 - a)) / (a - 1.0)
    return mark * rho ** n * full * (val + tail)


def law_gap(cfg: NetworkConfig, r_min: float, r_max: float,
            r_near: float, rho=None, plain: bool = False) -> float:
    """sup_x |F_sampled(x) - F_field(x)| for the field on [r_min, r_max]
    as the sampler draws it (ring_gap): the BS field cut at r_near, or with
    `rho` the uplink field (FieldLaw.uplink) cut at t = T = pi lambda
    r_near^2.  The gap does not depend on rho.  `plain` takes the ring as
    the c = 0 Gamma variate of its mean and variance alone."""
    if rho is None:
        if not r_near < r_max:
            return 0.0
        return ring_gap(FieldLaw(cfg, r_min, r_near),
                        FieldLaw(cfg, r_near, r_max), plain)
    t = math.pi * cfg.lam * r_near * r_near
    return ring_gap(FieldLaw.uplink(cfg, rho, r_min, r_max, t_hi=t),
                    FieldLaw.uplink(cfg, rho, r_min, r_max, t_lo=t), plain)


def ring_variate(ring, plain: bool = False) -> tuple:
    """(c, k, theta) of the variate c + Gamma(k, theta) that the sampler
    draws for a ring of the law `ring`, by mcsim's own rule from the ring's
    exact cumulants; `plain` gives the c = 0 Gamma of the mean and variance
    alone."""
    k1, k2, k3 = (ring.cumulant(n) for n in (1, 2, 3))
    if plain:
        return 0.0, k1 * k1 / k2, k2 / k1
    return mcsim._ring_variate((k1, k2, k3))


def ring_gap(near, ring, plain: bool = False) -> float:
    """sup_x |F_sampled(x) - F_field(x)| for a field whose points split
    into the independent laws `near`, drawn point by point, and `ring`,
    drawn as the sampler's one variate c + Gamma(k, theta) (ring_variate),
    whose characteristic function is exp(i w c) (1 - i w theta)^(-k): no
    sampling, no fit.

    The two laws share the near field, so the difference of their
    characteristic functions is phi_near(w) phi_ring(w) (phi_variate(w) /
    phi_ring(w) - 1), taken through expm1 of the log ratio.  Its Gil-Pelaez
    integral is a trapezoid sum at steps 2 pi/P out to w = 12/sd_ring,
    where the ring's factor has died out, taken as one FFT: by Poisson's
    summation formula it gives sum_j D(x + jP) for the CDF difference D,
    which is 0 below x = 0.  D varies on the ring's scale, and its largest
    values lie within a few sd_ring of 0, far below E[I]; P = 2 E[I] + 20
    sd_ring, so the images D(x + jP), j >= 1, come from where D has died
    out, however far the near field's law spreads.  D is evaluated at most every
    sd_ring/4 on [0, P).  A shifted variate's density has an edge at c, so
    its |phi_variate| falls only as (w theta)^(-k); its sum runs on out to
    where that is 1e-3, w = 1e3^(1/k)/theta, if that is farther (12/sd_ring
    reads 7.4e-4 for a converged 2.2e-3 at eta = 8, m = 1, k = 1.1), but
    stops past 12/sd_ring where |phi_near| < 1e-10 bounds every term.
    """
    shift, shape, scale = ring_variate(ring, plain)
    k1, k2 = ring.cumulant(1), ring.cumulant(2)
    sd = math.sqrt(k2)
    period = 2.0 * (near.cumulant(1) + k1) + 20.0 * sd
    step = 2.0 * math.pi / period
    w_top = 12.0 / sd
    if shift > 0.0:
        w_top = max(w_top, 1e3 ** (1.0 / shape) / scale)
    w = step * np.arange(1, math.ceil(w_top / step) + 1)
    # in blocks, since FieldLaw holds s x nodes terms at once; past
    # 12/sd_ring, until |phi_near| is below 1e-10
    log_near, log_ring = [], []
    for i in range(0, w.size, 256):
        log_near.append(near.log_laplace(-1j * w[i:i + 256]))
        if w[i] > 12.0 / sd and log_near[-1].real.max() < math.log(1e-10):
            w, log_near = w[:i], log_near[:-1]
            break
        log_ring.append(ring.log_laplace(-1j * w[i:i + 256]))
    log_near, log_ring = np.concatenate(log_near), np.concatenate(log_ring)
    size = 1 << math.ceil(math.log2(max(4.0 * period / sd, w.size + 1)))
    log_variate = 1j * w * shift - shape * np.log1p(-1j * w * scale)
    terms = np.zeros(size, complex)
    terms[1:w.size + 1] = (np.exp(log_near + log_ring)
                           * np.expm1(log_variate - log_ring) / w)
    return float(np.max(np.abs(np.fft.fft(terms).imag))) * step / math.pi


def field_cinr(cfg: NetworkConfig, r_min: float, r_max: float) -> CinrLaw:
    """CINR law with J = I + N0 and I the exact field on [r_min, r_max]."""
    field = FieldLaw(cfg, r_min, r_max)
    return CinrLaw(cfg, lambda s, k: field.log_laplace(s, k)
                   - cfg.n0 * (s if k == 0 else 1.0))


def gamma_cinr(cfg: NetworkConfig, shape: float, mean: float,
               n0: float) -> CinrLaw:
    """CINR law with J = Gamma(shape, mean) + n0 (n0 held exact)."""
    scale = mean / shape

    def log_laplace_j(s, k):
        if k == 0:
            return -shape * np.log1p(s * scale) - n0 * s
        return -shape * scale / (1.0 + s * scale) - n0

    return CinrLaw(cfg, log_laplace_j)


def conditional_power(cfg: NetworkConfig, a0: float, j) -> np.ndarray:
    """E[(a0 - J/h)^+ | J] for h ~ Gamma(m0, theta), m0 > 1, in closed form:

        a0 Q(m0, J/(a0 theta)) - J Q(m0 - 1, J/(a0 theta)) / (theta (m0 - 1)).

    Averaging this over field draws of J = I + N0 is the water-filling
    spend with the signal fading integrated out exactly.
    """
    m0, theta = cfg.fading_signal.shape, signal_scale(cfg)
    j = np.asarray(j)
    t = j / (a0 * theta)
    return (a0 * gammaincc(m0, t)
            - j * gammaincc(m0 - 1.0, t) / (theta * (m0 - 1.0)))


def fd_rate_rows(monkeypatch, cfg: NetworkConfig, gamma, a0=None,
                 power=None) -> list:
    """The rate rows of mcsim.estimate_fd_rates' chunk body on chosen CINRs:
    a zero field and n0 = 1 make gamma the signal gain itself, and an
    identity summarize returns each row: a0's, then power's."""
    gamma = np.asarray(gamma, dtype=float)

    def one_chunk(cfg, mc, fn, rows):
        out = np.empty((rows, gamma.size))
        fn(np.zeros(gamma.size), None, out)
        return out

    monkeypatch.setattr(mcsim, "_field_chunks", one_chunk)
    monkeypatch.setattr(mcsim, "_signal_gain",
                        lambda cfg, rng, size: gamma.copy())
    monkeypatch.setattr(mcsim, "summarize", lambda values: values)
    return mcsim.estimate_fd_rates(replace(cfg, n0=1.0), MCConfig(gamma.size, 0),
                                   a0, power)[1]


# Variants of configs/micro.cfg whose interference shape m_I spans the
# Beta weight's regimes: 0.143 and 0.389 (singular at t = 1), 1.5 (the
# baseline) and 2.9.
SHAPE_VARIANTS = ({"m_int": 0.05}, {"eta": 8.0}, {}, {"eta": 3.2442})


def mp_expect(p, q, G, lo, hi=1) -> float:
    """int_lo^hi G(t, 1-t) t^(p-1) (1-t)^(q-1) / B(p, q) dt by mpmath at 30
    digits; lo and hi are exact (mpmath numbers or floats), G takes mpmath
    numbers.  The window is split at the weight's mode +- 1, 2, 4, 8 and 16
    sd, so that a weight narrower than the window is not missed (unsplit
    halves of [0, 1] read -7e-11 for -0.0374 at p = 718, q = 54), and the
    pieces at t = 0 and t = 1 are taken in w = t^p and v = (1-t)^q, which
    absorb a singular weight factor (plain mpmath.quad over t misses it, by
    1.4e-4 at q = 0.14)."""
    import mpmath
    with mpmath.workdps(30):
        p, q, lo, hi = (mpmath.mpf(x) for x in (p, q, lo, hi))
        mode = p / (p + q)
        sd = mpmath.sqrt(p * q / ((p + q) ** 2 * (p + q + 1)))
        cuts = {lo, hi}
        for k in (-16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16):
            if lo < mode + k * sd < hi:
                cuts.add(mode + k * sd)
        log_b = mpmath.log(mpmath.beta(p, q))
        total = mpmath.mpf(0)
        for a, b in zip(sorted(cuts), sorted(cuts)[1:]):
            if a == 0:
                def f(w):
                    t = w ** (1 / p)
                    return (G(t, 1 - t) / p
                            * mpmath.exp((q - 1) * mpmath.log1p(-t) - log_b))
                total += mpmath.quad(f, [0, b ** p])
            elif b == 1:
                def f(v):
                    u = v ** (1 / q)
                    return (G(1 - u, u) / q
                            * mpmath.exp((p - 1) * mpmath.log1p(-u) - log_b))
                total += mpmath.quad(f, [0, (1 - a) ** q])
            else:
                total += mpmath.quad(
                    lambda t: G(t, 1 - t) * mpmath.exp(
                        (p - 1) * mpmath.log(t) + (q - 1) * mpmath.log1p(-t)
                        - log_b), [a, b])
        return float(total)


# test_acceptance.py records one (criterion, passed, detail) verdict per
# criterion here; the hook prints them as a closing block so the run ends
# with one human-readable pass/fail line per acceptance criterion.
ACCEPTANCE_VERDICTS: list = []


def record_verdict(name: str, passed: bool, detail: str) -> bool:
    ACCEPTANCE_VERDICTS.append((name, passed, detail))
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in ACCEPTANCE_VERDICTS:
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{word}  {name}: {detail}")
