"""Special functions for the closed-form capacity expressions, in Python and
numpy alone:

- the paper's 3F2(mI, mI, m0+mI; 1+mI, 1+mI; z) on the nonpositive real
  axis (its argument is -a0/k <= 0).  Since (a)_n/(a+1)_n = a/(a+n), the
  3F2 is the log-weighted Beta integral mI^2 int_0^1 t^(mI-1) (-ln t)
  (1 - z t)^(-m0-mI) dt, taken by the rate integrals' kernel in _integrate;
- the regularized incomplete beta I_x(a, b), whose continued fraction
  (_beta_cf) also gives powercontrol's closed-form E[P] and its slope;
- the regularized lower incomplete gamma P(s, x), the Gamma cdf of
  validate's KS statistic, on numpy arrays.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._integrate import (NumericsError, _each, _every, _pick, _stirling,
                         expect, quad_strict)

# relative tolerance of each quadrature piece; no absolute one, since the
# pieces can sit far below any (about 1e-108 at z = -61, mI = 60, before
# their common factor s^mI is taken out) and still give an ordinary rate
_EPSREL = 1e-11


@dataclass(frozen=True)
class EvalResult:
    """A special-function value with an error estimate and provenance.

    ``method`` is "series" for the exact value 1 at z = 0 and
    "integral-representation" otherwise.  ``ok`` is False when a quadrature
    piece failed, the error estimate is too large or the value is below the
    normal doubles; ``value`` is NaN in that case.  ``log_scaled`` is
    ln((-z)^m_i 3F2), the product the capacity closed form takes, finite
    also where only the value itself underflows, and NaN where a piece
    failed or the estimate is too large.  For an array of z, value,
    abs_error_estimate, ok and log_scaled are arrays, one element per z,
    and method is "series" only where every element is.
    """

    value: float
    abs_error_estimate: float
    method: str
    ok: bool = True
    log_scaled: float = 0.0


def hyper_3f2(m_i: float, m0: float, z) -> EvalResult:
    """3F2(m_i, m_i, m0+m_i; 1+m_i, 1+m_i; z) for m_i, m0 > 0 and z <= 0.

    With a^2/(a+n)^2 = a^2 int_0^1 t^(a+n-1) (-ln t) dt, summing the series
    gives m_i^2 int_0^1 t^(m_i-1) (-ln t) (1 - z t)^(-m0-m_i) dt.  Split at
    s = min(1, 1/|z|), past which (1 - z t)^(-m0-m_i) falls like a power of
    t, and with L = -ln s and t = s v on [0, s] and t = s e^w on [s, 1],
    that is m_i^2 s^m_i times

        int_0^1 v^(m_i-1) (L - ln v) (1 - z s v)^(-m0-m_i) dv
          + int_0^L (L - w) e^(-m0 w) (1 + e^(-w))^(-m0-m_i) dw,

    the first a Beta(m_i, 1) expectation over m_i, which _integrate.expect
    takes with the weight and its ln v exact at v = 0, the second (for
    z < -1 only) a quadrature with the weight L - w exact at w = L.  Neither
    holds the factor s^m_i, which can underflow where the rate it belongs
    to is ordinary: for z < -1, s^m_i (-z)^m_i = 1, so log_scaled, the log
    of (-z)^m_i 3F2, needs no power of |z| at all.  Each piece is taken to
    1e-11 relative, with no absolute tolerance.  When z is -inf, a piece
    fails (an error estimate that misses the tolerance at the rule's last
    level, or a value that is not finite), or the error estimate reaches
    1e-3 of the value, the result is flagged unavailable (ok=False,
    log_scaled NaN); where only the value is subnormal, it alone is
    (ok=False, value NaN) — never a silent wrong number.

    z may be an array, one 3F2 per element: each piece is then one kernel
    call over the elements, the second with an empty window where
    z >= -1, and each element is flagged on its own.
    """
    if not (m_i > 0.0 and m0 > 0.0 and _every(z <= 0.0)):
        raise ValueError(f"hyper_3f2 needs m_i, m0 > 0 and z <= 0, got "
                         f"m_i={m_i}, m0={m0}, z={z}")
    method = "integral-representation"
    if not isinstance(z, np.ndarray):
        if z == 0.0:
            return EvalResult(1.0, 0.0, "series")
        value, error, log_scaled = (_integral(m_i, m0, z) if z > -math.inf
                                    else ([math.nan], [math.inf], [math.nan]))
        return EvalResult(value[0], error[0], method,
                          ok=not math.isnan(value[0]),
                          log_scaled=log_scaled[0])
    # z = 0 is the series' exact 1; -inf and the failures are unavailable
    zs = z.ravel()
    value = np.where(zs == 0.0, 1.0, math.nan)
    error = np.where(zs == 0.0, 0.0, math.inf)
    log_scaled = np.where(zs == 0.0, 0.0, math.nan)
    rows = np.flatnonzero((zs < 0.0) & (zs > -math.inf))
    if rows.size:
        value[rows], error[rows], log_scaled[rows] = _integral(m_i, m0,
                                                                zs[rows])
    if (zs == 0.0).all():
        method = "series"
    return EvalResult(value.reshape(z.shape), error.reshape(z.shape), method,
                      ok=~np.isnan(value).reshape(z.shape),
                      log_scaled=log_scaled.reshape(z.shape))


def _aslist(x) -> list:
    """The elements of an array x, or [x] for a number."""
    return x.tolist() if isinstance(x, np.ndarray) else [x]


def _integral(m_i: float, m0: float, z) -> tuple[list, list, list]:
    """hyper_3f2's integral representation at the finite z < 0, a number or
    an array of them: lists of the values, error estimates and log_scaled,
    NaN, inf and NaN where a value is unavailable (and NaN, inf and its
    log_scaled where only the value is subnormal)."""
    b = m0 + m_i
    log_z = _each(lambda v: math.log(-v) if v < -1.0 else 0.0, z)  # L
    tol = {"epsabs": 0.0, "epsrel": _EPSREL, "nan_rows": True}
    zs = _aslist(z)
    value, error, log_scaled = ([math.nan] * len(zs), [math.inf] * len(zs),
                                [math.nan] * len(zs))
    try:
        # the log_at=0.0 argument is ln v; z s is max(z, -1)
        head, head_err = expect(
            m_i, 1.0, "hyper_3f2",
            lambda v, log_v, log_z, zs: ((log_z - log_v)
                                         * np.exp(-b * np.log1p(-zs * v))),
            log_at=0.0, args=(log_z, _pick(z < -1.0, -1.0, z)), **tol)
        # an empty window, and 0, where z >= -1
        tail, tail_err = quad_strict(
            "hyper_3f2",
            lambda w: np.exp(-m0 * w - b * np.log1p(np.exp(-w))),
            0.0, log_z, weight="alg", wvar=(0.0, 1.0), **tol) \
            if not _every(log_z == 0.0) else (log_z, log_z)
    except NumericsError:
        return value, error, log_scaled
    for row, (zi, lz, h, he, t, te) in enumerate(zip(
            zs, *map(_aslist, (log_z, head, head_err, tail, tail_err)))):
        # the 3F2 is m_i s^m_i total: expect's weight holds 1/B(m_i, 1) = m_i
        total = h + m_i * t
        if not total > 0.0:
            continue
        # no better than the requested tolerance, with a margin of 10: the
        # rule's estimate extrapolates from its last three levels.  Its
        # roundoff floor, 50 eps times the absolute terms, holds however
        # small the 3F2 is, since neither piece holds s^m_i
        rel = ((he + m_i * te) / total + _EPSREL) * 10.0
        if not rel < 1e-3:
            continue
        log_total = math.log(m_i * total)
        if lz > 0.0:
            log_scaled[row], val = log_total, math.exp(log_total - m_i * lz)
        else:
            log_scaled[row], val = log_total + m_i * math.log(-zi), m_i * total
        # a subnormal value (0 included) has lost its relative precision
        if val >= sys.float_info.min:
            value[row], error[row] = val, rel * val
    return value, error, log_scaled


# ---------------------------------------------------------------- betainc

_EPS = sys.float_info.epsilon
_TINY = 1e-300              # the modified Lentz method's stand-in for 0
_CF_STEPS = 100_000         # near its switch point the fraction takes about
                            # sqrt(max(a, b)) steps
_STIRLING_FROM = 10.0       # the shape from which _stirling holds


def _beta_cf(a: float, b: float, x: float) -> tuple[float, float, float]:
    """The continued fraction of I_x(a, b) = x^a (1-x)^b / (a B(a, b)) cf
    (Numerical Recipes, 3rd ed., 6.4) with two of its tails:

        cf = 1/(1 + d1 u),  u = 1/(1 + d2 w),  w = 1/(1 + d3/(1 + d4/...)),
        d_(2m) = m (b-m) x / ((a+2m-1)(a+2m)),
        d_(2m+1) = -(a+m)(a+b+m) x / ((a+2m)(a+2m+1)).

    Returns (cf, u, w).  w is taken by the modified Lentz method, which
    converges in a few steps for x <= (a+1)/(a+b+2); a fraction that has
    not settled after _CF_STEPS steps raises NumericsError("betainc").
    """
    apb = a + b
    c = 1.0 - (a + 1.0) * (apb + 1.0) * x / ((a + 2.0) * (a + 3.0)) or _TINY
    d, f = 1.0, c
    for m in range(2, _CF_STEPS):
        q = a + 2.0 * m
        num = m * (b - m) * x / ((q - 1.0) * q)
        d = 1.0 / (1.0 + num * d or _TINY)
        c = 1.0 + num / c or _TINY
        f *= c * d
        num = -(a + m) * (apb + m) * x / (q * (q + 1.0))
        d = 1.0 / (1.0 + num * d or _TINY)
        c = 1.0 + num / c or _TINY
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= _EPS:
            w = 1.0 / f
            u = 1.0 / (1.0 + (b - 1.0) * x / ((a + 1.0) * (a + 2.0)) * w)
            return 1.0 / (1.0 - apb * x / (a + 1.0) * u), u, w
    raise NumericsError("betainc", f"the continued fraction of I_x(a, b) did "
                                   f"not settle in {_CF_STEPS} steps "
                                   f"(a={a!r}, b={b!r}, x={x!r})")


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """a b = p + e exactly (Dekker's product, by Veltkamp's split)."""
    p = a * b
    t = 134217729.0 * a
    ah = t - (t - a)
    t = 134217729.0 * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _scaled_ratio(x: float, s: float, s_lo: float,
                  a: float) -> tuple[float, float]:
    """x (s + s_lo) / a as hi + lo, the product and the quotient's
    remainder exact."""
    p, p_lo = _two_prod(x, s)
    r = p / a
    q, q_lo = _two_prod(r, a)
    return r, ((p - q) - q_lo + p_lo + x * s_lo) / a


def _beta_power(a: float, b: float, x: float) -> float:
    """x^a (1-x)^b / B(a, b) for 0 < x < 1, to a few ulps where it is a
    normal double: every power is one pow of an exact base.  1 - x is
    y + y_lo with y_lo exact, its power pow(y, b) e^(b y_lo/y).

    Below shapes of 10, 1/B(a, b) is from lgamma.  With one shape below
    10, Gamma(lo + hi)/Gamma(hi) = hi^lo e^((lo + hi - 1/2) ln(1 + lo/hi)
    - lo + S(lo + hi) - S(hi)), S Stirling's series.  With both at 10 or
    more, x^a y^b / B(a, b) = sqrt(a b/(2 pi (a+b))) r^a t^b
    e^(S(a+b) - S(a) - S(b)) with r = x (a+b)/a and t = y (a+b)/b in
    double-double; r^a t^b <= 1, and each factor is taken as the 2^j-th
    power of pow(r, a/2^j) pow(t, b/2^j) (a/2^j exact), so that neither
    leaves the doubles.  The exponent of e^E would carry E's own rounding,
    6e-14 relative at E = -540.
    """
    y = 1.0 - x
    y_lo = (1.0 - y) - x
    lo, hi = min(a, b), max(a, b)
    if hi < _STIRLING_FROM:
        return (x ** a * y ** b * math.exp(
            b * y_lo / y + math.lgamma(a + b) - math.lgamma(a)
            - math.lgamma(b)))
    if lo < _STIRLING_FROM:
        return (x ** a * y ** b * hi ** lo / math.gamma(lo) * math.exp(
            b * y_lo / y + (lo + hi - 0.5) * math.log1p(lo / hi) - lo
            + _stirling(lo + hi) - _stirling(hi)))
    s = a + b
    s_lo = (a - s) + b if a >= b else (b - s) + a
    r, r_lo = _scaled_ratio(x, s, s_lo, a)
    t, t_lo = _scaled_ratio(y, s, s_lo, b)
    t_lo += y_lo * s / b
    squarings, largest = 0, max(abs(a * math.log(r)), abs(b * math.log(t)))
    while largest > 700.0 * 2 ** squarings:
        squarings += 1
    z = r ** (a / 2 ** squarings) * t ** (b / 2 ** squarings)
    for _ in range(squarings):
        z *= z
    return z * math.sqrt(a * b / (2.0 * math.pi * s)) * math.exp(
        a * r_lo / r + b * t_lo / t + _stirling(s) - _stirling(a)
        - _stirling(b))


def betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta I_x(a, b) for a, b > 0, NaN for x
    outside [0, 1].

    x^a (1-x)^b / (a B(a, b)) (_beta_power) times the continued fraction
    (_beta_cf) for x <= (a+1)/(a+b+2), and 1 - I_(1-x)(b, a) above.
    mpmath's value is met to 1e-13 relative or better wherever I_x is above
    1e-300, for shapes from 0.05 to 1e3 (tests/test_specfun.py).
    """
    if not 0.0 <= x <= 1.0:
        return math.nan
    if x == 0.0 or x == 1.0:
        return x
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_power(a, b, x) / b * _beta_cf(b, a, 1.0 - x)[0]
    return _beta_power(a, b, x) / a * _beta_cf(a, b, x)[0]


# --------------------------------------------------------------- gammainc

# from this shape P(s, x) takes the uniform prefactor, and a continued
# fraction above x = s + 1
_GAMMA_LARGE = 30.0


def _log1pmx(u: np.ndarray) -> np.ndarray:
    """u - ln(1 + u) for u > -1.  With v = u/(2 + u), ln(1 + u) =
    2 atanh(v), so u - ln(1 + u) = u v - 2 v^3 sum_j v^(2j)/(2j + 3), a
    sum without cancellation, for |v| <= 0.6; directly outside."""
    v = u / (2.0 + u)
    out = u - np.log1p(u)
    near = np.abs(v) <= 0.6
    if near.any():
        vn, un = v[near], u[near]
        w = vn * vn
        acc = np.zeros_like(w)
        for k in range(81, 1, -2):      # 0.36^40 < 1e-17
            acc = acc * w + 1.0 / k
        out[near] = un * vn - 2.0 * vn * w * acc
    return out


def _gamma_front(s: float, x: np.ndarray) -> np.ndarray:
    """x^s e^(-x) / Gamma(s + 1).  Past s = _GAMMA_LARGE as
    e^(-s phi((x-s)/s) - S(s)) / sqrt(2 pi s), phi(u) = u - ln(1+u) and S
    Stirling's series, where x^s and e^(-x) leave the doubles."""
    if s < _GAMMA_LARGE:
        return np.power(x, s) * np.exp(-x) / math.gamma(s + 1.0)
    return (np.exp(-s * _log1pmx((x - s) / s) - _stirling(s))
            / math.sqrt(2.0 * math.pi * s))


def _gamma_q_cf(s: float, x: np.ndarray) -> np.ndarray:
    """Legendre's continued fraction of Q(s, x) x^(-s) e^x Gamma(s),
    1/(x+1-s - 1(1-s)/(x+3-s - 2(2-s)/(x+5-s - ...))), for x > s + 1, by
    the modified Lentz method, each element until its own step is within
    eps of 1 (it settles within about sqrt(s) steps)."""
    out = np.empty_like(x)
    live = np.arange(x.size)
    b = x + 1.0 - s
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    i = 0
    while live.size:
        i += 1
        if i == _CF_STEPS:
            raise NumericsError("gammainc", f"Legendre's continued fraction "
                                            f"did not settle in {_CF_STEPS} "
                                            f"steps (s={s!r})")
        an = -i * (i - s)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h = h * delta
        done = np.abs(delta - 1.0) <= _EPS
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
    return out


def _series_terms(s: float, top: float) -> int:
    """The terms, a multiple of 8, after which the rest of the series
    sum_n y^n/((s+1)...(s+n)) is below 2^-56 of its sum for every y <= top
    (the rest's share grows with y): past the largest term, the rest is
    below term r/(1 - r), r = top/(s + n + 1)."""
    term = total = 1.0
    n = 0
    while True:
        for _ in range(8):
            n += 1
            term *= top / (s + n)
            total += term
        r = top / (s + n + 1.0)
        if r < 1.0 and term < total * (2.0 ** -56 / r * (1.0 - r)):
            return n


def gammainc(s: float, x) -> np.ndarray:
    """The regularized lower incomplete gamma P(s, x), the Gamma(s, 1) cdf,
    at each element of the array x >= 0 (inf included), for s > 0.

    Each value depends on its own x alone, so it is the same float in any
    array.  Below s = _GAMMA_LARGE it is x^s e^(-x)/Gamma(s+1) times the
    series sum_n x^n/((s+1)...(s+n)), its terms added in order out to the
    count the largest element needs (_series_terms): past it the rest of
    each element's series is below 2^-56 of its sum, which no longer moves
    it.  Where the bound
    Q(s, x) <= x^(s-1) e^(-x) / (Gamma(s) (1 - (s-1)^+/x)) is below
    e^(-40), P is 1.0.  From s = _GAMMA_LARGE, P = 1 - Q above x = s + 1,
    Q by Legendre's continued fraction, and the prefactor is the uniform
    one.  mpmath's value is met to 1e-14 or better
    from the 1e-6 to the 1 - 1e-12 quantile, for s from 0.05 to 1e3
    (tests/test_specfun.py).
    """
    x = np.asarray(x, dtype=float)
    p = np.zeros(x.shape)
    upper = x > s + 1.0
    series = x > 0.0
    if upper.any():
        xu = x[upper]
        if s >= _GAMMA_LARGE:
            q, finite = np.zeros_like(xu), xu < np.inf
            q[finite] = (s * _gamma_front(s, xu[finite])
                         * _gamma_q_cf(s, xu[finite]))
            p[upper] = 1.0 - q
            series &= ~upper
        else:
            with np.errstate(invalid="ignore"):
                log_q = ((s - 1.0) * np.log(xu) - xu - math.lgamma(s)
                         - np.log1p(-max(s - 1.0, 0.0) / xu))
            far = np.zeros(x.shape, dtype=bool)
            far[upper] = ~(log_q >= -40.0)      # NaN at x = inf
            p[far] = 1.0
            series &= ~far
    y = x[series]
    if not y.size:
        return p
    # term by term, first to last: a term past those an element needs is
    # below half an ulp of its sum and leaves it as it is, so the element's
    # value does not depend on the count
    term, total = np.ones_like(y), np.ones_like(y)
    for n in range(1, _series_terms(s, float(y.max())) + 1):
        term *= y
        term *= 1.0 / (s + n)
        total += term
    p[series] = _gamma_front(s, y) * total
    return p
