"""Strict quadrature, and the Beta-weight expectation kernel that every
rate, power and 3F2 integral goes through.

`quad` is a nested double-exponential (tanh-sinh) rule in numpy (Takahasi
& Mori, Publ. RIMS 9, 1974; Bailey, Jeyabalan & Li, Exp. Math. 14, 2005).
It maps the window [a, b] onto the y axis by x = a + (b-a)/(1 + e^(-2s)),
s = (pi/2) sinh y, and sums the trapezoid rule in y.  Each node carries its
distances to both ends of the window in logs, so a weight (x-a)^alpha
(b-x)^beta and a log(x-a) or log(b-x) factor are exact at the node however
close to its end it lies, even where that distance underflows the doubles:
an algebraic or log end singularity costs no extrapolation.  `expect` hands
the Beta(p, q) weight to that rule, and `expect_log` takes a window next to
t = 1 in w = -ln t.  Every failure is a NumericsError naming its stage.
"""
from __future__ import annotations

import math
import sys

import numpy as np


class NumericsError(RuntimeError):
    """A numeric stage failed; ``stage`` names it for error reporting."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


# Level l of the rule spaces its nodes h = 2^-(l+1) apart in y, each level
# holding those of the one before.  Levels 0-3 (h = 1/2 ... 1/16) are
# tabulated once, out to |y| = 8, and evaluated in one pass; y = +-3.5, the
# default reach, lies e^(-52) of the window from its end.
_H = 0.0625
_FIRST = 3                  # the level of the tabulated nodes
_BASE = 56                  # default reach in nodes of level 3: y = 3.5
_TABLE = 128                # tabulated reach: y = 8
LEVELS = 8                  # the last level quad refines to by default
_EPS = sys.float_info.epsilon
# the weights quad takes, and the row of _nodes whose log a log weight uses
_WEIGHTS = {None: None, "alg": None, "alg-loga": 1, "alg-logb": 2}


def _nodes(y: np.ndarray) -> np.ndarray:
    """Rows at the points y of the rule on the unit window: each node's
    distance to the left end, the log of that and of its distance to the
    right end, and the log of dx/dy = pi cosh(y) x (1 - x)."""
    s = 0.5 * math.pi * np.sinh(y)
    log_left = -np.logaddexp(0.0, -2.0 * s)
    log_right = -np.logaddexp(0.0, 2.0 * s)
    log_jac = np.log(math.pi * np.cosh(y)) + log_left + log_right
    return np.array([np.exp(log_left), log_left, log_right, log_jac])


_TABLED = _nodes(np.arange(-_TABLE, _TABLE + 1) * _H)


def _reach(exponent: float) -> int:
    """Nodes of level 3 from y = 0 to the end whose weight is
    distance^exponent, a multiple of 8: far enough that the mass the rule
    leaves out beyond them, about e^(-(exponent + 1) D) for the log
    distance -D of the last node, is below e^(-46) of the window's even
    with a log factor on top.  D = pi sinh(y); the default reach gives 52,
    and a weight that nears distance^-1 widens it."""
    power = exponent + 1.0
    if power * 52.0 >= 46.0:
        return _BASE
    y = math.asinh(46.0 / (math.pi * power))
    return 8 * math.ceil(y / (8.0 * _H))


def quad(func, a: float, b: float, *, epsabs: float = 1e-13,
         epsrel: float = 1e-10, limit: int = LEVELS,
         weight: str | None = None, wvar=None,
         log_weight=None) -> tuple[float, float, dict]:
    """int_a^b func(x) (x-a)^alpha (b-x)^beta e^log_weight(x) dx by the
    nested tanh-sinh rule: (value, error estimate, {"neval": nodes
    evaluated, "level": last level}).  log_weight, a function of x on numpy
    arrays (or None), joins the end weight in logs, so that the weight's
    factors may overflow or underflow where their product does not.

    weight="alg" with wvar=(alpha, beta) applies the algebraic weight, both
    exponents above -1; weight=None has none.  "alg-loga" and "alg-logb"
    apply it too and call func(x, log(x-a)) or func(x, log(b-x)), both logs
    exact, so that func carries the log factor itself.  func takes and
    returns numpy arrays (or a scalar).

    Levels 0-3 cost one call of func.  With d_l the difference of levels
    l and l-1, the error estimate is d_l^2 / d_(l-1), at most d_l, and
    never below 50 eps times the sum of the absolute terms.  (Taken at
    level 2, from levels 0-2, that extrapolation missed the tolerance 17
    times in 21 000 rate, power and 3F2 integrals, by up to 165 times;
    from level 3 on, none.)  While it misses max(epsabs, epsrel |value|),
    the rule halves h, up to level `limit`, and returns what it has there.
    A ValueError refuses an exponent at or below -1 (as alpha = p - 1 is
    for p below 2^-54); a window with b <= a integrates to 0.
    """
    if weight not in _WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}")
    alpha, beta = wvar if weight is not None else (0.0, 0.0)
    if not (alpha > -1.0 and beta > -1.0):
        raise ValueError(f"the weight's exponents must exceed -1, got "
                         f"{(alpha, beta)!r}")
    width = b - a
    if not width > 0.0:
        return 0.0, 0.0, {"neval": 0, "level": 0}
    # b - a rounds to eps of the width, a weight exponent in the millions
    # (m_I as eta -> 2) would carry that into the weight
    log_width = (math.log(b) + math.log1p(-a / b) if 0.0 < a < 0.5 * b
                 else math.log(width))
    j0, j1 = _reach(alpha), _reach(beta)
    log_end = _WEIGHTS[weight]
    scale = (alpha + beta + 1.0) * log_width

    def terms(nodes):
        left, log_left, log_right, log_jac = nodes
        # at most b: a + width rounds to either side of it
        x = np.minimum(a + width * left, b)
        log_w = log_jac + scale
        if alpha:
            log_w += alpha * log_left
        if beta:
            log_w += beta * log_right
        if log_weight is not None:
            log_w += log_weight(x)
        f = (func(x) if log_end is None
             else func(x, nodes[log_end] + log_width))
        return f * np.exp(log_w, out=log_w)

    if j0 <= _TABLE and j1 <= _TABLE:
        v = terms(_TABLED[:, _TABLE - j0:_TABLE + j1 + 1])
    else:
        v = terms(_nodes(np.arange(-j0, j1 + 1) * _H))
    # the first node's index is a multiple of 8 and so is the count of the
    # others: levels 1, 2 and 3 sum every fourth, every other and every
    # node (Python floats, in which inf - inf is a silent nan)
    phase = np.add.reduce(v[1:].reshape(-1, 8), axis=0).tolist()
    first = float(v[0])
    levels = [4.0 * _H * (first + phase[3] + phase[7]),
              2.0 * _H * (first + sum(phase[1::2])),
              _H * (first + sum(phase))]
    neval, level, h = v.size, _FIRST, _H
    abs_sum = _H * float(np.add.reduce(np.abs(v)))
    while True:
        value = levels[-1]
        d1 = abs(value - levels[-2])
        d2 = abs(levels[-2] - levels[-3])
        abserr = max(d1 if d2 <= d1 else d1 * (d1 / d2),
                     50.0 * _EPS * abs_sum)
        if abserr <= max(epsabs, epsrel * abs(value)) or level >= limit:
            return value, abserr, {"neval": neval, "level": level}
        # the midpoints of the last level's nodes
        h *= 0.5
        level += 1
        v = terms(_nodes(np.arange(-j0 * _H + h, j1 * _H, 2.0 * h)))
        neval += v.size
        abs_sum = 0.5 * abs_sum + h * float(np.add.reduce(np.abs(v)))
        levels.append(0.5 * value + h * float(np.add.reduce(v)))


def quad_strict(stage: str, func, a: float, b: float, *,
                epsabs: float = 1e-13, epsrel: float = 1e-10,
                limit: int = LEVELS, weight: str | None = None,
                wvar=None, log_weight=None) -> tuple[float, float]:
    """`quad`, through the module's global name, raising NumericsError
    (with `stage`) where it does not converge.

    Returns (value, achieved_abs_error).  `weight`/`wvar`, `log_weight`
    and `limit`, the last level, are as for quad.  A non-finite value or
    error estimate raises, and so does an estimate that still misses
    max(epsabs, epsrel |value|) at the last level, with the estimate in the
    message; so does quad's refusal of its input, as a weight exponent that
    rounds to -1.
    """
    try:
        value, abserr, info = quad(func, a, b, epsabs=epsabs, epsrel=epsrel,
                                   limit=limit, weight=weight, wvar=wvar,
                                   log_weight=log_weight)
    except ValueError as exc:
        raise NumericsError(stage, f"quadrature failed: {exc} (weight="
                                   f"{weight!r}, wvar={wvar!r})") from None
    if not (math.isfinite(value) and math.isfinite(abserr)):
        raise NumericsError(
            stage, f"quadrature returned a non-finite result "
                   f"(value={value!r}, error estimate={abserr!r})")
    if abserr > max(epsabs, epsrel * abs(value)):
        raise NumericsError(
            stage, f"quadrature did not converge by level {info['level']} "
                   f"({info['neval']} nodes) (value={value!r}, error "
                   f"estimate={abserr!r})")
    return value, abserr


# Stirling's series B_2j / (2j (2j-1) z^(2j-1)), j = 1..7
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0)


def _stirling(z: float) -> float:
    """S(z) = ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2 for z >= 10,
    where the series' next term is below 1e-16 of it."""
    y = 1.0 / (z * z)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * y + c
    return acc / z


def _log_beta(p: float, q: float) -> float:
    """ln B(p, q).  Past q = 100 (or p), lgamma(q) - lgamma(p + q) cancels
    to about eps lgamma(q), 1e-9 at q = 2e6, so that difference is taken by
    Stirling's series, (q - 1/2) ln(1 + p/q) + p ln(q + p) - p + S(q + p)
    - S(q), to about 20 eps p (mpmath: 2e-14 or better for p <= 6)."""
    p, q = min(p, q), max(p, q)
    if q < 100.0:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    return (math.lgamma(p) - (q - 0.5) * math.log1p(p / q)
            - p * math.log(q + p) + p + _stirling(q) - _stirling(q + p))


def expect(p: float, q: float, stage: str, g, lo: float = 0.0,
           hi: float = 1.0, *, log_at: float | None = None,
           **tol) -> tuple[float, float]:
    """int_lo^hi g(t) t^(p-1) (1-t)^(q-1) / B(p, q) dt by quad_strict,
    with its error estimate.  g takes and returns numpy arrays.  With
    log_at = 0.0 or 1.0, an end of [lo, hi], g is called as g(t, lg) with
    lg = log|t - log_at|, exact from the node's distance to that end, and
    carries that factor itself: g(t, lg) = lg * ... gives the log t or
    log(1-t) weight, and one call can also hold terms without it.  `tol`
    (epsabs, epsrel, limit) goes to quad_strict.

    The Beta weight goes into the rule's end weight wherever its singular
    endpoint is an end of [lo, hi]: t^(p-1) when lo = 0 and (1-t)^(q-1)
    when hi = 1, so a weight singular there (p < 1 or q < 1) is integrated
    exactly.  A factor not at an end, and 1/B(p, q), join it in logs, as
    (p-1) ln t and (q-1) ln(1-t) by log1p: 1 - t rounds to eps, which an
    exponent in the millions (m_I as eta -> 2) would magnify.  The rule
    may put a node on a weighted end whose distance underflows, so g must
    be finite there.  `stage` names the caller in a NumericsError.

    A window of t next to 1 loses relative precision in t: take it in
    u = 1 - t, which is Beta(q, p) distributed, or by expect_log.
    """
    weights = {None: "alg", 0.0: "alg-loga", 1.0: "alg-logb"}
    if log_at not in weights or log_at not in (None, lo, hi):
        raise ValueError(f"log_at must be None, or 0.0 or 1.0 at an end of "
                         f"[{lo!r}, {hi!r}], got {log_at!r}")
    log_b = _log_beta(p, q)
    # an exponent 0.0 leaves its factor out
    a, b = p - 1.0, q - 1.0
    alpha = a if lo == 0.0 else 0.0
    beta = b if hi == 1.0 else 0.0
    a, b = a - alpha, b - beta

    def log_weight(t):
        value = -log_b
        if a:
            value = value + a * np.log(t)
        if b:
            value = value + b * np.log1p(-t)
        return value

    return quad_strict(stage, g, lo, hi, weight=weights[log_at],
                       wvar=(alpha, beta), log_weight=log_weight, **tol)


def expect_log(p: float, q: float, stage: str, g, w_c: float,
               **tol) -> tuple[float, float]:
    """The Beta(p, q) expectation of g over t in [e^(-w_c), 1], taken in
    w = -ln t on [0, w_c]: g is a function of w, on numpy arrays.  `tol`
    as for expect.

    There the weight t^(p-1) (1-t)^(q-1) dt is e^(-p w) (1-e^(-w))^(q-1) dw:
    its factor w^(q-1) goes to the rule's end weight, and -p w
    + (q-1) ln(-expm1(-w)/w) and 1/B(p, q) join it in logs.  In t, a factor
    t^(p-1) at p < 1 is nearly singular just above e^(-w_c), a feature far
    from either end of the window that the rule resolves only at fine
    levels when w_c is large.
    """
    log_b, b = _log_beta(p, q), q - 1.0

    def log_weight(w):
        value = -p * w - log_b
        if b:
            # (1 - e^(-w))/w -> 1 at the weighted end w = 0, which a node
            # reaches where its distance underflows
            w = np.maximum(w, sys.float_info.min)
            value = value + b * np.log(-np.expm1(-w) / w)
        return value

    return quad_strict(stage, g, 0.0, w_c, weight="alg", wvar=(b, 0.0),
                       log_weight=log_weight, **tol)
