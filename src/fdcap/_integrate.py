"""The one module that calls QUADPACK (scipy.integrate.quad): strict
quadrature, and the Beta-weight expectation kernel that every rate, power
and 3F2 integral goes through.  `expect` hands the Beta(p, q) weight to
QUADPACK's algebraic-weight rule (QAWS) instead of the integrand, so its
endpoint singularities at p < 1 or q < 1 cost no extrapolation;
`expect_log` takes a window next to t = 1 in w = -ln t.  Every failure is
a NumericsError naming its stage.
"""
from __future__ import annotations

import math

from scipy.integrate import quad


class NumericsError(RuntimeError):
    """A numeric stage failed; ``stage`` names it for error reporting."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def quad_strict(stage: str, func, a: float, b: float, *,
                epsabs: float = 1e-13, epsrel: float = 1e-10,
                limit: int = 200, weight: str | None = None,
                wvar=None) -> tuple[float, float]:
    """Adaptive quadrature that raises NumericsError on non-convergence.

    Returns (value, achieved_abs_error), the error estimate as its absolute
    value: QAWS can return a negative one.  `weight`/`wvar` pass through to
    scipy.integrate.quad: weight="alg" with wvar=(alpha, beta) integrates
    func(x) (x-a)^alpha (b-x)^beta by QUADPACK's QAWS rule, "alg-loga" and
    "alg-logb" the same times log(x-a) or log(b-x).  A non-finite value or
    error estimate raises, and so does a QUADPACK warning, with the achieved
    error estimate in the message, unless that estimate meets the requested
    tolerance anyway (QUADPACK also warns of roundoff it detected after
    converging).  QUADPACK's refusal of its input, as a QAWS exponent that
    rounds to -1, raises too.
    """
    try:
        out = quad(func, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                   full_output=1, weight=weight, wvar=wvar)
    except ValueError as exc:
        raise NumericsError(stage, f"quadrature failed: {exc} (weight="
                                   f"{weight!r}, wvar={wvar!r})") from None
    value, abserr = out[0], abs(out[1])
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


def _inv_beta(p: float, q: float) -> float:
    """1/B(p, q) through math.lgamma."""
    return math.exp(-(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)))


def expect(p: float, q: float, stage: str, g, lo: float = 0.0,
           hi: float = 1.0, *, log_at: float | None = None,
           **tol) -> tuple[float, float]:
    """int_lo^hi g(t) t^(p-1) (1-t)^(q-1) / B(p, q) dt by quad_strict,
    with its error estimate.  With log_at = 0.0 or 1.0, an end of [lo, hi],
    the integrand carries the further factor log|t - log_at|: log t or
    log(1-t).  `tol` (epsabs, epsrel, limit) goes to quad_strict.

    The Beta weight is folded into QUADPACK's algebraic-weight rule QAWS
    (weight "alg", or "alg-loga" / "alg-logb" for the log factor) wherever
    its singular endpoint is an end of [lo, hi]: t^(p-1) when lo = 0 and
    (1-t)^(q-1) when hi = 1, so a weight singular there (p < 1 or q < 1) is
    integrated exactly.  A factor not in the rule is multiplied into g.
    QAWS evaluates g at an end that carries a weight, so g must be finite
    there.  `stage` names the caller in a NumericsError.

    A window of t next to 1 loses relative precision in t: take it in
    u = 1 - t, which is Beta(q, p) distributed, or by expect_log.
    """
    weights = {None: "alg", 0.0: "alg-loga", 1.0: "alg-logb"}
    if log_at not in weights or log_at not in (None, lo, hi):
        raise ValueError(f"log_at must be None, or 0.0 or 1.0 at an end of "
                         f"[{lo!r}, {hi!r}], got {log_at!r}")
    # bound once: QUADPACK calls the integrand up to hundreds of times;
    # an exponent 0.0 leaves its factor exactly 1.0
    c, a, b = _inv_beta(p, q), p - 1.0, q - 1.0
    alpha = a if lo == 0.0 else 0.0
    beta = b if hi == 1.0 else 0.0
    a, b = a - alpha, b - beta

    def integrand(t: float) -> float:
        return c * g(t) * t ** a * (1.0 - t) ** b

    return quad_strict(stage, integrand, lo, hi, weight=weights[log_at],
                       wvar=(alpha, beta), **tol)


def expect_log(p: float, q: float, stage: str, g, w_c: float,
               **tol) -> tuple[float, float]:
    """The Beta(p, q) expectation of g over t in [e^(-w_c), 1], taken in
    w = -ln t on [0, w_c]: g is a function of w.  `tol` as for expect.

    There the weight t^(p-1) (1-t)^(q-1) dt is e^(-p w) (1-e^(-w))^(q-1) dw:
    its factor w^(q-1) goes to QAWS, and (-expm1(-w)/w)^(q-1) e^(-p w) into
    the integrand.  In t, a factor t^(p-1) at p < 1 is nearly singular just
    below e^(-w_c), where QUADPACK's first nodes miss it when w_c is large.
    """
    c, b = _inv_beta(p, q), q - 1.0
    exp, expm1 = math.exp, math.expm1

    def integrand(w: float) -> float:
        # (1 - e^(-w))/w -> 1 at the weighted end w = 0
        smooth = -expm1(-w) / w if w > 0.0 else 1.0
        return c * g(w) * smooth ** b * exp(-p * w)

    return quad_strict(stage, integrand, 0.0, w_c, weight="alg",
                       wvar=(b, 0.0), **tol)
