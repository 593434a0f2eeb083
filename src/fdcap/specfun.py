"""Special functions for the closed-form capacity expressions: the paper's
3F2(mI, mI, m0+mI; 1+mI, 1+mI; z) on the nonpositive real axis (its
argument is -a0/k <= 0), an Euler integral taken by the rate integrals'
kernel in _integrate, with the 2F1 under it as an incomplete beta past -1.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from scipy.special import betaincc, hyp2f1

from ._integrate import NumericsError, expect, expect_log

# Relative error bound of the 3F2 integrand's 2F1 (_hyp2f1), with margin:
# the mpmath differential test in test_specfun measures the worst case on
# that domain (m_I up to 300, x down to -1e14): 2.3e-13 over its draws,
# 1.3e-12 over four seeds of 2 000 draws.
_HYP2F1_RTOL = 1e-11
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


def _hyp2f1(a: float, m0: float):
    """x -> 2F1(a, a + m0; a + 1; x) for x <= 0, as the 3F2 integrand takes it.

    On [-1, 0] it is scipy.special.hyp2f1, a convergent series there.  Past
    -1, since c = a + 1, it is an incomplete beta (DLMF 8.17.7),

        2F1(a, a + m0; a + 1; x) = a (-x)^(-a) B(a, m0) I_(1/(1-x))^c(m0, a),

    with the complement I^c = scipy.special.betaincc and the prefactor in
    logs, where (-x)^(-a) alone under- or overflows.  scipy's hyp2f1 there
    returns -inf at integer m0, and NaN or a wrong number at m_I in the
    tens and hundreds.
    """
    b, c = a + m0, a + 1.0
    log_pref = (math.log(a) + math.lgamma(a) + math.lgamma(m0)
                - math.lgamma(b))

    def f21(x: float) -> float:
        if x >= -1.0:
            return hyp2f1(a, b, c, x)
        return (math.exp(log_pref - a * math.log(-x))
                * betaincc(m0, a, 1.0 / (1.0 - x)))
    return f21


def hyper_3f2(m_i: float, m0: float, z: float) -> EvalResult:
    """3F2(m_i, m_i, m0+m_i; 1+m_i, 1+m_i; z) for m_i, m0 > 0 and z <= 0.

    By Euler's integral it is the Beta(m_i, 1) expectation of
    2F1(m_i, m0+m_i; 1+m_i; z t), which _integrate.expect takes with the
    weight in QUADPACK's QAWS rule, over [0, s]: s = 1 for |z| <= 1, and
    otherwise s = 1/|z|, past which the 2F1 falls like |z t|^(-m_i) and the
    integrand like 1/t, so that [s, 1] goes to expect_log in w = -ln t,
    where the integrand is flat.  Each piece is taken to 1e-11 relative,
    with no absolute tolerance, and the 2F1 (_hyp2f1) errs by at most
    _HYP2F1_RTOL relative.  When a piece raises NumericsError (a QUADPACK
    warning with an error estimate that misses the tolerance, or a value
    that is not finite), the error estimate reaches 1e-3 of the value, or
    the value is subnormal, the result is flagged unavailable (ok=False) —
    never a silent wrong number.
    """
    if not (m_i > 0.0 and m0 > 0.0 and z <= 0.0):
        raise ValueError(f"hyper_3f2 needs m_i, m0 > 0 and z <= 0, got "
                         f"m_i={m_i}, m0={m0}, z={z}")
    if z == 0.0:
        return EvalResult(1.0, 0.0, "series")
    f21 = _hyp2f1(m_i, m0)
    tol = {"epsabs": 0.0, "epsrel": _EPSREL, "limit": 300}
    s = min(-1.0 / z, 1.0)
    try:
        pieces = [expect(m_i, 1.0, "hyper_3f2", lambda t: f21(z * t), 0.0, s,
                         **tol)]
        if s < 1.0:
            pieces.append(expect_log(m_i, 1.0, "hyper_3f2",
                                     lambda w: f21(z * math.exp(-w)),
                                     -math.log(s), **tol))
    except NumericsError:
        return _UNAVAILABLE
    val = sum(v for v, _ in pieces)
    quad_err = sum(e for _, e in pieces)
    mass = sum(abs(v) for v, _ in pieces)
    est = (quad_err + _HYP2F1_RTOL * mass) * 10.0
    # a subnormal value (0 included) has lost its relative precision, and
    # its error estimate has underflowed with it
    if not (est < 1e-3 * abs(val) and abs(val) >= sys.float_info.min):
        return _UNAVAILABLE
    return EvalResult(val, est, "integral-representation")
