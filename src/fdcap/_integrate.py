"""Thin wrapper around adaptive quadrature with strict error reporting."""
from __future__ import annotations

import math

from scipy.integrate import quad

from .specfun import NumericsError


def quad_strict(stage: str, func, a: float, b: float, *,
                epsabs: float = 1e-13, epsrel: float = 1e-10,
                limit: int = 200, weight: str | None = None,
                wvar=None) -> tuple[float, float]:
    """Adaptive quadrature that raises NumericsError on non-convergence.

    Returns (value, achieved_abs_error).  `weight`/`wvar` pass through to
    scipy.integrate.quad: weight="alg" with wvar=(alpha, beta) integrates
    func(x) (x-a)^alpha (b-x)^beta by QUADPACK's QAWS rule, "alg-loga" and
    "alg-logb" the same times log(x-a) or log(b-x).  A non-finite value or
    error estimate raises, and so does a QUADPACK warning, with the achieved
    error estimate in the message, unless that estimate meets the requested
    tolerance anyway (QUADPACK also warns of roundoff it detected after
    converging).
    """
    out = quad(func, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
               full_output=1, weight=weight, wvar=wvar)
    value, abserr = out[0], out[1]
    if not (math.isfinite(value) and math.isfinite(abserr)):
        raise NumericsError(
            stage, f"quadrature returned a non-finite result "
                   f"(value={value!r}, error estimate={abserr!r})"
                   + (f": {out[3]}" if len(out) > 3 else ""))
    # len(out) > 3: QUADPACK appended a warning message
    if len(out) > 3 and abserr > max(epsabs, epsrel * abs(value)):
        raise NumericsError(
            stage, f"quadrature did not converge: {out[3]} "
                   f"(value={value!r}, error estimate={abserr!r})")
    return value, abserr
