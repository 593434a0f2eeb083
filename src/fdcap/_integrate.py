"""Thin wrapper around adaptive quadrature with strict error reporting."""
from __future__ import annotations

from scipy.integrate import quad

from .specfun import NumericsError


def quad_strict(stage: str, func, a: float, b: float, *,
                epsabs: float = 1e-13, epsrel: float = 1e-10,
                limit: int = 200) -> tuple[float, float]:
    """Adaptive quadrature that raises NumericsError on non-convergence.

    Returns (value, achieved_abs_error).  A QUADPACK warning becomes an
    exception naming the pipeline stage, with the achieved error estimate
    in the message, unless that estimate meets the requested tolerance
    anyway (QUADPACK also warns of roundoff it detected after converging).
    """
    out = quad(func, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
               full_output=1)
    value, abserr = out[0], out[1]
    # len(out) > 3: QUADPACK appended a warning message
    if len(out) > 3 and abserr > max(epsabs, epsrel * abs(value)):
        raise NumericsError(
            stage, f"quadrature did not converge: {out[3]} "
                   f"(value={value!r}, error estimate={abserr!r})")
    return value, abserr
