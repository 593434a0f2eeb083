"""Special functions for the closed-form capacity expressions.

The generalized 3F2 on the nonpositive real axis, which is all the capacity
formula uses (its argument is -a0/k <= 0).  It is one Euler integral over
scipy.special.hyp2f1; log-gamma comes from math.lgamma and the regularized
incomplete beta from scipy.special.betainc.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.special import hyp2f1

# Relative error bound of scipy.special.hyp2f1 on the 3F2 integrand's 2F1,
# with margin: the mpmath differential test in test_specfun measures the
# worst case on that domain (about 4e-12, where b - a is near an integer).
_HYP2F1_RTOL = 1e-11


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


def hyper_3f2(a1: float, a2: float, a3: float,
              b1: float, b2: float, z: float) -> EvalResult:
    """3F2(a1, a2, a3; b1, b2; z) for z <= 0.

    One-dimensional integral representation lowering 3F2 to 2F1 under the
    integral, valid for every z <= 0,

        3F2 = Gamma(bj)/(Gamma(ai) Gamma(bj-ai))
              * int_0^1 t^(ai-1) (1-t)^(bj-ai-1) 2F1(rest; rest; z t) dt,

    when some upper/lower pair satisfies bj > ai > 0.  The 2F1 is
    scipy.special.hyp2f1, taken to err by at most _HYP2F1_RTOL relative.
    When no pairing qualifies, or the error estimate reaches 1e-3 of the
    value, the result is flagged unavailable (ok=False) — never a silent
    wrong number.
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
    r = lowers[1 - j]

    def integrand(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((ai - 1.0) * math.log(t)
                        + (bj - ai - 1.0) * math.log1p(-t)) * hyp2f1(p, q, r, z * t)

    # relative tolerance only: the 3F2 can sit far below any absolute one
    # (about 1e-108 at z = -61, mI = 60) and still give an ordinary rate
    val, quad_err = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=300)
    pref = math.exp(math.lgamma(bj) - math.lgamma(ai) - math.lgamma(bj - ai))
    est = pref * (quad_err + _HYP2F1_RTOL * abs(val)) * 10.0
    if not est < 1e-3 * abs(pref * val):  # a value of 0 has underflowed
        return EvalResult(math.nan, math.inf, "integral-representation", ok=False)
    return EvalResult(pref * val, est, "integral-representation")
