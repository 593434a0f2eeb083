"""Special functions for the closed-form capacity expressions.

The generalized 3F2 on the nonpositive real axis, which is all the capacity
formula uses (its argument is -a0/k <= 0).  It is an Euler integral over
scipy.special.hyp2f1 whose Beta weight goes into QUADPACK's
algebraic-weight rule (QAWS), as in cinr.expect: one integral over [0, 1]
for |z| <= 1, and for |z| > 1 two, split at t = 1/|z| (at most 1/2) where
the 2F1 turns over, the far one in u = -ln t.  Under the integral the 2F1
is taken through Pfaff's transformation where that makes it a polynomial
(integer m0 in the capacity pattern), and from scipy directly otherwise.
Log-gamma comes from math.lgamma.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.special import hyp2f1

# Relative error bound of the 3F2 integrand's 2F1 (_hyp2f1), with margin:
# the mpmath differential test in test_specfun measures the worst case on
# that domain (about 4e-12, where b - a is near an integer).
_HYP2F1_RTOL = 1e-11
# relative tolerance of each QAWS piece; no absolute one, since the 3F2 can
# sit far below any (about 1e-108 at z = -61, mI = 60) and still give an
# ordinary rate
_EPSREL = 1e-11


class NumericsError(RuntimeError):
    """A numeric stage failed; ``stage`` names it for error reporting."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


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


def _qaws(f, lo: float, hi: float, alpha: float,
          beta: float) -> tuple[float, float]:
    """int_lo^hi f(x) (x-lo)^alpha (hi-x)^beta dx by QUADPACK's QAWS rule,
    and its error estimate; (nan, inf) where the value is not finite, or a
    QUADPACK warning comes with an estimate that misses the tolerance."""
    out = quad(f, lo, hi, epsabs=0.0, epsrel=_EPSREL, limit=300,
               weight="alg", wvar=(alpha, beta), full_output=1)
    val, err = out[0], out[1]
    # len(out) > 3: QUADPACK appended a warning message
    if not math.isfinite(val) or (len(out) > 3
                                  and not err <= _EPSREL * abs(val)):
        return math.nan, math.inf
    return val, err


def hyper_3f2(a1: float, a2: float, a3: float,
              b1: float, b2: float, z: float) -> EvalResult:
    """3F2(a1, a2, a3; b1, b2; z) for z <= 0.

    One-dimensional integral representation lowering 3F2 to 2F1 under the
    integral, valid for every z <= 0,

        3F2 = Gamma(bj)/(Gamma(ai) Gamma(bj-ai))
              * int_0^1 t^(ai-1) (1-t)^(bj-ai-1) 2F1(rest; rest; z t) dt,

    when some upper/lower pair satisfies bj > ai > 0.  The weight is in the
    QAWS rule, not in the integrand:
      - |z| <= 1: one integral over [0, 1], weight t^(ai-1) (1-t)^(bj-ai-1).
      - |z| > 1: split at s = 1/|z|, past which the 2F1 falls like
        |z t|^(-ai) and the integrand like 1/t (at s = 1/2 for |z| < 2, so
        that (1-t)^(bj-ai-1) stays clear of its singular end).  On [0, s]
        the weight is t^(ai-1) and (1-t)^(bj-ai-1) is in the integrand.  On
        [s, 1], t = e^(-u), u in [0, -ln s], where the integrand is flat:
        the weight is u^(bj-ai-1), and the smooth rest of
        (1-e^(-u))^(bj-ai-1), (-expm1(-u)/u)^(bj-ai-1), is in the integrand
        with e^(-ai u).
    The 2F1 is _hyp2f1, taken to err by at most _HYP2F1_RTOL relative.
    When no pairing qualifies, a QUADPACK warning comes with an error
    estimate that misses the tolerance, or the error estimate reaches 1e-3
    of the value, the result is flagged unavailable (ok=False) — never a
    silent wrong number.
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
        return EvalResult(math.nan, math.inf, "integral-representation", ok=False)
    _, i, j = best
    ai = uppers[i]
    bj = lowers[j]
    p, q = [u for idx, u in enumerate(uppers) if idx != i]
    f21 = _hyp2f1(p, q, lowers[1 - j])
    alpha, beta = ai - 1.0, bj - ai - 1.0
    exp, expm1 = math.exp, math.expm1

    if z >= -1.0:
        pieces = [_qaws(lambda t: f21(z * t), 0.0, 1.0, alpha, beta)]
    else:
        def far(u: float) -> float:
            # (1 - e^(-u))/u -> 1 at the weighted end u = 0
            smooth = -expm1(-u) / u if u > 0.0 else 1.0
            return exp(-ai * u) * smooth ** beta * f21(z * exp(-u))

        s = min(-1.0 / z, 0.5)
        pieces = [_qaws(lambda t: (1.0 - t) ** beta * f21(z * t),
                        0.0, s, alpha, 0.0),
                  _qaws(far, 0.0, -math.log(s), beta, 0.0)]
    val = sum(v for v, _ in pieces)
    quad_err = sum(e for _, e in pieces)
    pref = math.exp(math.lgamma(bj) - math.lgamma(ai) - math.lgamma(bj - ai))
    mass = sum(abs(v) for v, _ in pieces)
    est = pref * (quad_err + _HYP2F1_RTOL * mass) * 10.0
    if not est < 1e-3 * abs(pref * val):  # a value of 0 has underflowed
        return EvalResult(math.nan, math.inf, "integral-representation", ok=False)
    return EvalResult(pref * val, est, "integral-representation")
