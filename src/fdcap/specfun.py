"""Special functions for the closed-form capacity expressions.

The generalized 3F2 on the nonpositive real axis, which is all the capacity
formula uses (its argument is -a0/k <= 0).  It is an Euler integral over
scipy.special.hyp2f1 against a Beta weight, taken by the rate integrals'
kernel in _integrate: one expect over [0, 1] for |z| <= 1, and for
|z| > 1 two pieces split at t = 1/|z| (at most 1/2) where the 2F1 turns
over, the far one by expect_log in w = -ln t.  Under the integral the 2F1
is taken through Pfaff's transformation where that makes it a polynomial
(integer m0 in the capacity pattern), and from scipy directly otherwise.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from scipy.special import hyp2f1

from ._integrate import NumericsError, expect, expect_log

# Relative error bound of the 3F2 integrand's 2F1 (_hyp2f1), with margin:
# the mpmath differential test in test_specfun measures the worst case on
# that domain (about 4e-12, where b - a is near an integer).
_HYP2F1_RTOL = 1e-11
# relative tolerance of each QAWS piece; no absolute one, since the 3F2 can
# sit far below any (about 1e-108 at z = -61, mI = 60) and still give an
# ordinary rate
_EPSREL = 1e-11


@dataclass(frozen=True)
class EvalResult:
    """A special-function value with an error estimate and provenance.

    ``method`` is "series" for the exact value 1 at z = 0 and
    "integral-representation" otherwise.  ``ok`` is False when the method's
    validity conditions failed or its error estimate is too large; ``value``
    is NaN in that case.
    """

    value: float
    abs_error_estimate: float
    method: str
    ok: bool = True


_UNAVAILABLE = EvalResult(math.nan, math.inf, "integral-representation",
                          ok=False)

def _hyp2f1(a: float, b: float, c: float):
    """x -> 2F1(a, b; c; x) for x <= 0, as the 3F2 integrand takes it.

    Where c - b (or c - a) is a nonpositive integer to rounding, the 2F1 at
    x < -1 is taken by Pfaff's transformation,

        2F1(a, b; c; x) = (1-x)^(-a) 2F1(a, c-b; c; x/(x-1)),

    a polynomial of degree b - c in x/(x-1), which lies in (1/2, 1).  There
    scipy.special.hyp2f1 itself can return -inf: at 2F1(mI, m0+mI; 1+mI; x)
    with integer m0 >= 2, the capacity pattern.  Everywhere else the 2F1 is
    scipy's: for a non-integer c - b, x/(x-1) rounds too close to 1 at large
    |x| (1e-4 relative at |x| = 5e13 and m0 < 1).
    """
    for a_, b_ in ((a, b), (b, a)):
        n = float(round(c - b_))
        if n <= 0.0 and (abs(c - b_ - n)
                         <= 4.0 * math.ulp(max(abs(b_), abs(c)))):
            def pfaff(x: float) -> float:
                if x < -1.0:
                    return (1.0 - x) ** -a_ * hyp2f1(a_, n, c, x / (x - 1.0))
                return hyp2f1(a, b, c, x)
            return pfaff
    return lambda x: hyp2f1(a, b, c, x)


def hyper_3f2(a1: float, a2: float, a3: float,
              b1: float, b2: float, z: float) -> EvalResult:
    """3F2(a1, a2, a3; b1, b2; z) for z <= 0.

    One-dimensional integral representation lowering 3F2 to 2F1 under the
    integral, valid for every z <= 0,

        3F2 = Gamma(bj)/(Gamma(ai) Gamma(bj-ai))
              * int_0^1 t^(ai-1) (1-t)^(bj-ai-1) 2F1(rest; rest; z t) dt,

    when some upper/lower pair satisfies bj > ai > 0: the Beta(ai, bj-ai)
    expectation of the 2F1, which _integrate.expect takes with the weight
    in QUADPACK's QAWS rule:
      - |z| <= 1: one expect over [0, 1].
      - |z| > 1: split at s = 1/|z|, past which the 2F1 falls like
        |z t|^(-ai) and the integrand like 1/t (at s = 1/2 for |z| < 2, so
        that (1-t)^(bj-ai-1) stays clear of its singular end): expect on
        [0, s], and expect_log on [s, 1] in w = -ln t, where the integrand
        is flat.
    Each piece is taken to 1e-11 relative, with no absolute tolerance.
    The 2F1 is _hyp2f1, taken to err by at most _HYP2F1_RTOL relative.
    When no pairing qualifies, a piece raises NumericsError (a QUADPACK
    warning with an error estimate that misses the tolerance, or a value
    that is not finite), the error estimate reaches 1e-3 of the value, or
    the value is subnormal, the result is flagged unavailable (ok=False) —
    never a silent wrong number.
    """
    for bq in (b1, b2):
        if bq <= 0 and float(bq).is_integer():
            raise ValueError(f"hyper_3f2: lower parameters must not be nonpositive "
                             f"integers, got {bq}")
    if z > 0:
        raise ValueError(f"hyper_3f2 is restricted to z <= 0, got {z}")
    if z == 0.0:
        return EvalResult(1.0, 0.0, "series")

    # choose the (ai, bj) pair with the most room, for the tamest endpoint
    uppers = [a1, a2, a3]
    lowers = [b1, b2]
    best = None
    for i, ai in enumerate(uppers):
        for j, bj in enumerate(lowers):
            if ai > 0 and bj - ai > 0:
                if best is None or bj - ai > best[0]:
                    best = (bj - ai, i, j)
    if best is None:
        return _UNAVAILABLE
    _, i, j = best
    ai, bj = uppers[i], lowers[j]
    p, q = [u for idx, u in enumerate(uppers) if idx != i]
    f21 = _hyp2f1(p, q, lowers[1 - j])
    tol = {"epsabs": 0.0, "epsrel": _EPSREL, "limit": 300}
    try:
        if z >= -1.0:
            pieces = [expect(ai, bj - ai, "hyper_3f2", lambda t: f21(z * t),
                             **tol)]
        else:
            s = min(-1.0 / z, 0.5)
            pieces = [expect(ai, bj - ai, "hyper_3f2", lambda t: f21(z * t),
                             0.0, s, **tol),
                      expect_log(ai, bj - ai, "hyper_3f2",
                                 lambda w: f21(z * math.exp(-w)),
                                 -math.log(s), **tol)]
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
