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

from ._integrate import NumericsError, expect, expect_log

# relative tolerance of each QAWS piece; no absolute one, since the 3F2 can
# sit far below any (about 1e-108 at z = -61, mI = 60) and still give an
# ordinary rate
_EPSREL = 1e-11


@dataclass(frozen=True)
class EvalResult:
    """A special-function value with an error estimate and provenance.

    ``method`` is "series" for the exact value 1 at z = 0 and
    "integral-representation" otherwise.  ``ok`` is False when a quadrature
    piece failed or the error estimate is too large; ``value`` is NaN in
    that case.
    """

    value: float
    abs_error_estimate: float
    method: str
    ok: bool = True


_UNAVAILABLE = EvalResult(math.nan, math.inf, "integral-representation",
                          ok=False)


def hyper_3f2(m_i: float, m0: float, z: float) -> EvalResult:
    """3F2(m_i, m_i, m0+m_i; 1+m_i, 1+m_i; z) for m_i, m0 > 0 and z <= 0.

    With a^2/(a+n)^2 = a^2 int_0^1 t^(a+n-1) (-ln t) dt, summing the series
    gives m_i^2 int_0^1 t^(m_i-1) (-ln t) (1 - z t)^(-m0-m_i) dt.  That is
    m_i times a Beta(m_i, 1) expectation, which _integrate.expect takes with
    the weight and its ln t in QUADPACK's QAWS rule, over [0, s]: s = 1 for
    |z| <= 1, and otherwise s = 1/|z|, past which (1 - z t)^(-m0-m_i) falls
    like a power of t, so that [s, 1] goes to expect_log in w = -ln t,
    where the integrand is w (1 + |z| e^(-w))^(-m0-m_i).  Each piece is
    taken to 1e-11 relative, with no absolute tolerance.  When z is -inf, a
    piece raises NumericsError (a QUADPACK warning with an error estimate
    that misses the tolerance, or a value that is not finite), the error
    estimate reaches 1e-3 of the value, or the value is subnormal, the
    result is flagged unavailable (ok=False) — never a silent wrong number.
    """
    if not (m_i > 0.0 and m0 > 0.0 and z <= 0.0):
        raise ValueError(f"hyper_3f2 needs m_i, m0 > 0 and z <= 0, got "
                         f"m_i={m_i}, m0={m0}, z={z}")
    if z == 0.0:
        return EvalResult(1.0, 0.0, "series")
    if z == -math.inf:
        return _UNAVAILABLE
    b = m0 + m_i
    exp, log1p = math.exp, math.log1p
    tol = {"epsabs": 0.0, "epsrel": _EPSREL, "limit": 300}
    s = min(-1.0 / z, 1.0)
    try:
        # the log_at=0.0 weight is ln t: -g gives the integral's -ln t
        head, head_err = expect(m_i, 1.0, "hyper_3f2",
                                lambda t: -exp(-b * log1p(-z * t)), 0.0, s,
                                log_at=0.0, **tol)
        tail, tail_err = 0.0, 0.0
        if s < 1.0:
            tail, tail_err = expect_log(
                m_i, 1.0, "hyper_3f2",
                lambda w: w * exp(-b * log1p(-z * exp(-w))), -math.log(s),
                **tol)
    except NumericsError:
        return _UNAVAILABLE
    val = m_i * (head + tail)
    # no better than the requested tolerance: QUADPACK drops its roundoff
    # floor (50 eps |integral|) for integrals below about 2e-294
    est = (m_i * (head_err + tail_err) + _EPSREL * abs(val)) * 10.0
    # a subnormal value (0 included) has lost its relative precision, and
    # its error estimate has underflowed with it
    if not (est < 1e-3 * abs(val) and abs(val) >= sys.float_info.min):
        return _UNAVAILABLE
    return EvalResult(val, est, "integral-representation")
