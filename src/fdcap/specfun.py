"""Special functions for the closed-form capacity expressions.

Gauss 2F1 and the generalized 3F2, both only on the nonpositive real axis,
which is all the capacity formulas use (their argument is -a0/k <= 0).
Log-gamma comes from math.lgamma and the regularized incomplete beta from
scipy.special.betainc.

Series evaluation uses term-ratio stopping at 1e-15 relative with a 1e5-term
cap; hitting the cap is reported as failure, never silently truncated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

_SERIES_RTOL = 1e-15
_SERIES_MAX_TERMS = 100_000


class NumericsError(RuntimeError):
    """A numeric stage failed; ``stage`` names it for error reporting."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class EvalResult:
    """A special-function value with an error estimate and provenance.

    ``method`` is one of series, transformation, integral-representation.
    ``ok`` is False when evaluation did not converge or the method's
    validity conditions failed; ``value`` is NaN in that case.
    """

    value: float
    abs_error_estimate: float
    method: str
    ok: bool = True


def _hyp_series(num: tuple[float, ...], den: tuple[float, ...], z: float):
    """Generic pFq series sum_n prod(num)_n / prod(den)_n * z^n / n!.

    Returns (value, last_term_magnitude, n_terms, converged, peak) where
    peak is the largest |term| seen — for alternating series it measures how
    much cancellation the sum went through, which the error estimate must
    reflect (roundoff scales with the peak, not with the final value).
    """
    term = 1.0
    total = 1.0
    peak = 1.0
    for n in range(_SERIES_MAX_TERMS):
        ratio = z / (n + 1.0)
        for p in num:
            ratio *= p + n
        for q in den:
            ratio /= q + n
        term *= ratio
        total += term
        if abs(term) > peak:
            peak = abs(term)
        if abs(term) <= _SERIES_RTOL * abs(total):
            return total, abs(term), n + 1, True, peak
    return total, abs(term), _SERIES_MAX_TERMS, False, peak


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0 and float(x).is_integer()


def gauss_2f1(a: float, b: float, c: float, z: float) -> EvalResult:
    """Gauss hypergeometric 2F1(a, b; c; z) for z <= 0.

    Direct series on (-0.5, 0]; for z <= -0.5 the Pfaff transformation
    2F1(a,b;c;z) = (1-z)^{-a} 2F1(a, c-b; c; z/(z-1)) maps the argument into
    (0, 1) first.  The alternating direct series loses digits to cancellation
    as z approaches -1 (several decades for moderate a, b against a small c),
    so the switch sits at -0.5 rather than at the series' formal convergence
    edge.  Target relative error 1e-10; non-convergence is returned as
    ok=False rather than raised, so callers can fall back to quadrature.
    """
    if _is_nonpositive_int(c):
        raise ValueError(f"gauss_2f1: c must not be a nonpositive integer, got {c}")
    if z > 0:
        raise ValueError(f"gauss_2f1 is restricted to z <= 0, got {z}")
    if z == 0.0:
        return EvalResult(1.0, 0.0, "series")
    if z > -0.5:
        total, last, n, converged, peak = _hyp_series((a, b), (c,), z)
        est = 10.0 * (last + 1e-16 * peak * math.sqrt(n))
        if not converged:
            return EvalResult(math.nan, math.inf, "series", ok=False)
        return EvalResult(total, est, "series")
    # Pfaff: pull z in (-inf, -0.5] to w = z/(z-1) in (0, 1)
    w = z / (z - 1.0)
    total, last, n, converged, peak = _hyp_series((a, c - b), (c,), w)
    if not converged:
        return EvalResult(math.nan, math.inf, "transformation", ok=False)
    pref = math.exp(-a * math.log1p(-z))
    est = 10.0 * pref * (last + 1e-16 * peak * math.sqrt(n))
    return EvalResult(pref * total, est, "transformation")


def hyper_3f2(a1: float, a2: float, a3: float,
              b1: float, b2: float, z: float) -> EvalResult:
    """3F2(a1, a2, a3; b1, b2; z) for z <= 0.

    |z| < 1: direct series.  z <= -1: one-dimensional integral representation
    lowering 3F2 to 2F1 under the integral,

        3F2 = Gamma(bj)/(Gamma(ai) Gamma(bj-ai))
              * int_0^1 t^(ai-1) (1-t)^(bj-ai-1) 2F1(rest; rest; z t) dt,

    valid when some upper/lower pair satisfies bj > ai > 0.  When no pairing
    qualifies, or the error estimate exceeds 1e-3 of the value, the result
    is flagged unavailable (ok=False) — never a silent wrong number.
    """
    for bq in (b1, b2):
        if _is_nonpositive_int(bq):
            raise ValueError(f"hyper_3f2: lower parameters must not be nonpositive "
                             f"integers, got {bq}")
    if z > 0:
        raise ValueError(f"hyper_3f2 is restricted to z <= 0, got {z}")
    if z == 0.0:
        return EvalResult(1.0, 0.0, "series")
    if abs(z) < 1.0:
        total, last, n, converged, peak = _hyp_series((a1, a2, a3), (b1, b2), z)
        if not converged:
            return EvalResult(math.nan, math.inf, "series", ok=False)
        est = 10.0 * (last + 1e-16 * peak * math.sqrt(n))
        return EvalResult(total, est, "series")

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
    rest_up = [u for idx, u in enumerate(uppers) if idx != i]
    rest_low = lowers[1 - j]

    inner_bad = False
    inner_err = 0.0

    def integrand(t: float) -> float:
        nonlocal inner_bad, inner_err
        if t <= 0.0 or t >= 1.0:
            return 0.0
        f = gauss_2f1(rest_up[0], rest_up[1], rest_low, z * t)
        if not f.ok:
            inner_bad = True
            return 0.0
        inner_err = max(inner_err, f.abs_error_estimate)
        return math.exp((ai - 1.0) * math.log(t)
                        + (bj - ai - 1.0) * math.log1p(-t)) * f.value

    val, quad_err = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=300)
    pref = math.exp(math.lgamma(bj) - math.lgamma(ai) - math.lgamma(bj - ai))
    est = pref * (quad_err + inner_err) * 10.0
    if inner_bad or est > 1e-3 * abs(pref * val):
        return EvalResult(math.nan, math.inf, "integral-representation", ok=False)
    return EvalResult(pref * val, est, "integral-representation")
