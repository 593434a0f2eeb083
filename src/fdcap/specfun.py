"""Special functions for the closed-form capacity expressions: the paper's
3F2(mI, mI, m0+mI; 1+mI, 1+mI; z) on the nonpositive real axis (its
argument is -a0/k <= 0).  Since (a)_n/(a+1)_n = a/(a+n), the 3F2 is the
log-weighted Beta integral mI^2 int_0^1 t^(mI-1) (-ln t) (1 - z t)^(-m0-mI) dt,
taken by the rate integrals' kernel in _integrate.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._integrate import NumericsError, expect, quad_strict

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
    failed or the estimate is too large.
    """

    value: float
    abs_error_estimate: float
    method: str
    ok: bool = True
    log_scaled: float = 0.0


_UNAVAILABLE = EvalResult(math.nan, math.inf, "integral-representation",
                          ok=False, log_scaled=math.nan)


def hyper_3f2(m_i: float, m0: float, z: float) -> EvalResult:
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
    raises NumericsError (an error estimate that misses the tolerance at
    the rule's last level, or a value that is not finite), or the error
    estimate reaches 1e-3 of the value, the result is flagged unavailable
    (ok=False, log_scaled NaN); where only the value is subnormal, it alone
    is (ok=False, value NaN) — never a silent wrong number.
    """
    if not (m_i > 0.0 and m0 > 0.0 and z <= 0.0):
        raise ValueError(f"hyper_3f2 needs m_i, m0 > 0 and z <= 0, got "
                         f"m_i={m_i}, m0={m0}, z={z}")
    if z == 0.0:
        return EvalResult(1.0, 0.0, "series")
    if z == -math.inf:
        return _UNAVAILABLE
    b = m0 + m_i
    log_z = math.log(-z) if z < -1.0 else 0.0   # L = -ln s
    zs = max(z, -1.0)                           # z s
    tol = {"epsabs": 0.0, "epsrel": _EPSREL}
    try:
        # the log_at=0.0 argument is ln v
        head, head_err = expect(
            m_i, 1.0, "hyper_3f2",
            lambda v, log_v: (log_z - log_v) * np.exp(-b * np.log1p(-zs * v)),
            log_at=0.0, **tol)
        tail, tail_err = 0.0, 0.0
        if log_z > 0.0:
            tail, tail_err = quad_strict(
                "hyper_3f2",
                lambda w: np.exp(-m0 * w - b * np.log1p(np.exp(-w))),
                0.0, log_z, weight="alg", wvar=(0.0, 1.0), **tol)
    except NumericsError:
        return _UNAVAILABLE
    # the 3F2 is m_i s^m_i total: expect's weight holds 1/B(m_i, 1) = m_i
    total = head + m_i * tail
    if not total > 0.0:
        return _UNAVAILABLE
    # no better than the requested tolerance, with a margin of 10: the
    # rule's estimate extrapolates from its last three levels.  Its roundoff
    # floor, 50 eps times the absolute terms, holds however small the 3F2
    # is, since neither piece holds s^m_i
    rel = ((head_err + m_i * tail_err) / total + _EPSREL) * 10.0
    if not rel < 1e-3:
        return _UNAVAILABLE
    log_total = math.log(m_i * total)
    if log_z > 0.0:
        log_scaled, val = log_total, math.exp(log_total - m_i * log_z)
    else:
        log_scaled, val = log_total + m_i * math.log(-z), m_i * total
    # a subnormal value (0 included) has lost its relative precision
    if not val >= sys.float_info.min:
        return EvalResult(math.nan, math.inf, "integral-representation",
                          ok=False, log_scaled=log_scaled)
    return EvalResult(val, rel * val, "integral-representation",
                      log_scaled=log_scaled)
