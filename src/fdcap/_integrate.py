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

The rule takes rows: window ends given as arrays are one integral per
element, all evaluated together, node by node, in one numpy pass per level,
so that a sweep's grid costs one call of the integrand per level rather
than one per grid point.  Each row keeps its own value, error estimate and
level, and gets the same floats as a call with that row alone; a row may
be flipped, mirrored end for end, so that one call can take some rows in t
and others in u = 1 - t.  A scalar window is the one-row case.
"""
from __future__ import annotations

import functools
import math
import sys

import numpy as np


class NumericsError(RuntimeError):
    """A numeric stage failed; ``stage`` names it for error reporting, and
    ``row``, for a call over rows, the first row that failed (else None)."""

    def __init__(self, stage: str, message: str, row: int | None = None):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.row = row


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


def _each(fn, x):
    """The scalar function fn (math.log, say) at each element of the array
    x, as an array of x's shape, or at the number x: the same floats as fn
    on one element, which numpy's own transcendentals need not be."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _pick(cond, a, b):
    """np.where(cond, a, b) over rows, or for one row's bool the value."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _uniform(rows):
    """True or False where every row of the column `rows` (or the bool of
    one row) is that, None where the rows differ."""
    if not isinstance(rows, np.ndarray):
        return bool(rows)
    flipped = np.count_nonzero(rows)
    return None if 0 < flipped < rows.size else bool(flipped)


def _rowwise(rows, x, off, on):
    """off(x) on the rows of x where the column `rows` (shape (R, 1), or a
    bool for one row) is False and on(x) on the others, in one array; off
    and on are ufuncs, or take their out= and where= (as _log1m does)."""
    uniform = _uniform(rows)
    if uniform is not None:
        return on(x) if uniform else off(x)
    out = np.empty_like(x)
    off(x, out=out, where=~rows)
    on(x, out=out, where=rows)
    return out


def _log1m(t: np.ndarray, **where) -> np.ndarray:
    """ln(1 - t), as the ufunc np.log1p(-t) (with its out= and where=)."""
    return np.log1p(-t, **where)


def _shape(*xs) -> tuple:
    """The broadcast shape of xs, numbers and arrays."""
    shapes = {x.shape for x in xs if isinstance(x, np.ndarray)}
    if len(shapes) > 1:
        return np.broadcast_shapes(*shapes)
    return shapes.pop() if shapes else ()


def _every(x) -> bool:
    """Whether x, a bool or an array of them, is True throughout."""
    return bool(x.all()) if isinstance(x, np.ndarray) else bool(x)


def _rows(x, shape):
    """An array x broadcast to `shape`, as a column of its elements; a
    number as it is, the same in every row."""
    if not isinstance(x, np.ndarray):
        return x
    if not x.ndim:
        return x[()]
    if x.shape != shape:
        x = np.broadcast_to(x, shape)
    return x.reshape(-1, 1)


def _take(state: list, rows: list) -> list:
    """The given rows of each column of `state`; numbers stay as they
    are."""
    return [c[rows] if isinstance(c, np.ndarray) else c for c in state]


def _column(x, size: int) -> list:
    """The values of _rows' x, one per row."""
    return x[:, 0].tolist() if isinstance(x, np.ndarray) else [x] * size


def quad(func, a, b, *, epsabs: float = 1e-13, epsrel: float = 1e-10,
         limit: int = LEVELS, weight: str | None = None, wvar=None,
         log_weight=None, flip=None, args=()) -> tuple:
    """int_a^b func(x) (x-a)^alpha (b-x)^beta e^log_weight(x) dx by the
    nested tanh-sinh rule: (value, error estimate, {"neval": nodes
    evaluated, "level": last level, "failed": the rows, in order, whose
    value or error is not finite or whose error still misses the tolerance
    at the last level}).  log_weight, a function of x on numpy
    arrays (or None), joins the end weight in logs, so that the weight's
    factors may overflow or underflow where their product does not.

    weight="alg" with wvar=(alpha, beta) applies the algebraic weight, both
    exponents above -1; weight=None has none.  "alg-loga" and "alg-logb"
    apply it too and call func(x, log(x-a)) or func(x, log(b-x)), both logs
    exact, so that func carries the log factor itself.  func takes and
    returns numpy arrays (or a scalar).

    Rows: a and b may be arrays, broadcast with `flip` and each of `args`
    to the shape of the result, one integral per element.  x is then an
    array with one row of nodes per integral, and func and log_weight are
    called as func(x, *cols) (func(x, log, *cols) with a log weight) and
    log_weight(x, *cols), cols the args as columns, one entry per row of x
    (for a single row, x is one row of nodes and cols are numbers).
    Where flip is True the row is mirrored: its weight is (x-a)^beta
    (b-x)^alpha, its log factor is at the other end, and its nodes are
    those of the window [-b, -a] at -x.  value and error are arrays of that
    shape, "level" too, and "neval" counts the nodes of all rows.  A row
    gets the same floats as the call with it alone; a scalar window, the
    one-row case, returns floats.

    Levels 0-3 cost one call of func.  With d_l the difference of levels
    l and l-1, the error estimate is d_l^2 / d_(l-1), at most d_l, and
    never below 50 eps times the sum of the absolute terms.  (Taken at
    level 2, from levels 0-2, that extrapolation missed the tolerance 17
    times in 21 000 rate, power and 3F2 integrals, by up to 165 times;
    from level 3 on, none.)  While it misses max(epsabs, epsrel |value|),
    the rule halves h, up to level `limit`, and returns what it has there;
    only the rows that miss are refined.  A ValueError refuses an exponent
    at or below -1 (as alpha = p - 1 is for p below 2^-54); a window with
    b <= a integrates to 0.
    """
    if weight not in _WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}")
    alpha, beta = wvar if weight is not None else (0.0, 0.0)
    if not (alpha > -1.0 and beta > -1.0):
        raise ValueError(f"the weight's exponents must exceed -1, got "
                         f"{(alpha, beta)!r}")
    flip = False if flip is None else flip
    shape = _shape(a, b, flip, *args)
    size = math.prod(shape)
    if shape:
        a, b, flip = _rows(a, shape), _rows(b, shape), _rows(flip, shape)
        args = [_rows(x, shape) for x in args]
        width = b - a
        if not isinstance(width, np.ndarray):
            # x has a row of nodes for each row
            width = np.full((size, 1), width)
        ends = zip(_column(a, size), _column(b, size), width[:, 0].tolist())
    else:
        width = b - a
        ends = [(a, b, width)]
    values, errors, levels = [0.0] * size, [0.0] * size, [0] * size
    neval, failed = 0, []
    # the rows with a window; b - a rounds to eps of the width, a weight
    # exponent in the millions (m_I as eta -> 2) would carry that into it
    rows, log_width = [], []
    for i, (lo, hi, w) in enumerate(ends):
        if w > 0.0:
            rows.append(i)
            log_width.append(math.log(hi) + math.log1p(-lo / hi)
                             if 0.0 < lo < 0.5 * hi else math.log(w))
    j0, j1 = _reach(alpha), _reach(beta)
    log_end = _WEIGHTS[weight]
    mirror = _uniform(flip) is not False
    state = [a, b, width, flip, *args]
    if size == 1:
        # one row: its window and args as numbers, and x one row of nodes
        if shape:
            state = [c[0, 0] if isinstance(c, np.ndarray) else c
                     for c in state]
        state.insert(3, log_width[0] if rows else 0.0)
    else:
        if len(rows) < size:
            state = _take(state, rows)
        state.insert(3, np.array(log_width).reshape(-1, 1))

    def terms(nodes, mirrored, lo, hi, width, log_width, fl, *cols):
        # a flipped row takes its own nodes, those at -y, with the ends'
        # roles, and its exponents, swapped
        uniform = _uniform(fl)
        e_left, e_right = alpha, beta
        if uniform is not False:
            if mirrored is not nodes:
                nodes = (mirrored if uniform else np.where(
                    fl, mirrored[:, None, :], nodes[:, None, :]))
            e_left, e_right = ((beta, alpha) if uniform else
                               (np.where(fl, beta, alpha),
                                np.where(fl, alpha, beta)))
        left, log_left, log_right, log_jac = nodes
        # at most b: a + width rounds to either side of it
        x = np.minimum(lo + width * left, hi)
        log_w = log_jac + (alpha + beta + 1.0) * log_width
        if alpha or uniform is not False and beta:
            log_w += e_left * log_left
        if beta or uniform is not False and alpha:
            log_w += e_right * log_right
        if log_weight is not None:
            log_w += log_weight(x, *cols)
        if log_end is None:
            f = func(x, *cols)
        else:
            log_at = (nodes[log_end] if uniform is False else
                      nodes[3 - log_end] if uniform else
                      np.where(fl, nodes[3 - log_end], nodes[log_end]))
            f = func(x, log_at + log_width, *cols)
        return f * np.exp(log_w, out=log_w)

    if rows:
        if j0 <= _TABLE and j1 <= _TABLE:
            nodes = _TABLED[:, _TABLE - j0:_TABLE + j1 + 1]
            mirrored = (nodes if j0 == j1
                        else _TABLED[:, _TABLE - j1:_TABLE + j0 + 1])
        else:
            nodes = _nodes(np.arange(-j0, j1 + 1) * _H)
            mirrored = (nodes if j0 == j1 or not mirror
                        else _nodes(np.arange(-j1, j0 + 1) * _H))
        v = terms(nodes, mirrored, *state)
        neval = v.size
        # the first node's index is a multiple of 8 and so is the count of
        # the others: levels 1, 2 and 3 sum every fourth, every other and
        # every node (Python floats, in which inf - inf is a silent nan)
        if size == 1:
            table = [(float(v[0]), np.add.reduce(v[1:].reshape(-1, 8),
                                                 axis=0).tolist(),
                      float(np.add.reduce(np.abs(v))))]
        else:
            table = zip(v[:, 0].tolist(),
                        np.add.reduce(v[:, 1:].reshape(len(rows), -1, 8),
                                      axis=1).tolist(),
                        np.add.reduce(np.abs(v), axis=1).tolist())
        # each row's levels and absolute terms: the first node, then the
        # phases' sums from 0 in order, as Python's sum takes them
        pending = [(i, [4.0 * _H * (first + p[3] + p[7]),
                        2.0 * _H * (first + (0.0 + p[1] + p[3] + p[5] + p[7])),
                        _H * (first + (0.0 + p[0] + p[1] + p[2] + p[3] + p[4]
                                       + p[5] + p[6] + p[7]))], _H * abs_sum)
                   for i, (first, p, abs_sum) in enumerate(table)]
        lev, h = _FIRST, _H
        while True:
            live = []
            for i, sums, abs_sum in pending:
                value = sums[-1]
                d1 = abs(value - sums[-2])
                d2 = abs(sums[-2] - sums[-3])
                # max(a, b) as b if b > a else a, NaN included
                est = d1 if d2 <= d1 else d1 * (d1 / d2)
                floor = 50.0 * _EPS * abs_sum
                abserr = floor if floor > est else est
                tol = epsrel * abs(value)
                met = abserr <= (tol if tol > epsabs else epsabs)
                if met or lev >= limit:
                    row = rows[i]
                    values[row], errors[row], levels[row] = value, abserr, lev
                    if not (met and math.isfinite(value)
                            and math.isfinite(abserr)):
                        failed.append(row)
                else:
                    live.append((i, sums, abs_sum))
            if not live:
                break
            # the midpoints of the last level's nodes, on the rows that
            # miss their tolerance
            h *= 0.5
            lev += 1
            sub = (state if size == 1 else
                   _take(state, [i for i, _, _ in live]))
            nodes = _nodes(np.arange(-j0 * _H + h, j1 * _H, 2.0 * h))
            mirrored = (nodes if j0 == j1 or _uniform(sub[4]) is False else
                        _nodes(np.arange(-j1 * _H + h, j0 * _H, 2.0 * h)))
            v = terms(nodes, mirrored, *sub).reshape(len(live), -1)
            neval += v.size
            pending = [(i, sums + [0.5 * sums[-1] + h * s],
                        0.5 * abs_sum + h * s_abs)
                       for (i, sums, abs_sum), s_abs, s in zip(
                           live, np.add.reduce(np.abs(v), axis=1).tolist(),
                           np.add.reduce(v, axis=1).tolist())]
    failed.sort()
    if not shape:
        return values[0], errors[0], {"neval": neval, "level": levels[0],
                                      "failed": failed}
    return (np.array(values).reshape(shape), np.array(errors).reshape(shape),
            {"neval": neval, "level": np.array(levels).reshape(shape),
             "failed": failed})


def quad_strict(stage: str, func, a, b, *, epsabs: float = 1e-13,
                epsrel: float = 1e-10, limit: int = LEVELS,
                weight: str | None = None, wvar=None, log_weight=None,
                flip=None, args=(), nan_rows: bool = False) -> tuple:
    """`quad`, through the module's global name, raising NumericsError
    (with `stage`) where it does not converge.

    Returns (value, achieved_abs_error).  `weight`/`wvar`, `log_weight`,
    `flip`, `args` and `limit`, the last level, are as for quad.  A
    non-finite value or error estimate raises, and so does an estimate that
    still misses max(epsabs, epsrel |value|) at the last level, with the
    estimate in the message; so does quad's refusal of its input, as a
    weight exponent that rounds to -1.  Over rows, the error names the
    first row that fails and its window, and carries the row's index as
    its ``row``; with nan_rows=True a failing row returns NaN for its value
    and error instead, and its neighbours keep theirs.
    """
    try:
        value, abserr, info = quad(func, a, b, epsabs=epsabs, epsrel=epsrel,
                                   limit=limit, weight=weight, wvar=wvar,
                                   log_weight=log_weight, flip=flip,
                                   args=args)
    except ValueError as exc:
        raise NumericsError(stage, f"quadrature failed: {exc} (weight="
                                   f"{weight!r}, wvar={wvar!r})") from None
    if not info["failed"]:
        return value, abserr
    rows = np.ndim(value) > 0
    v, e = ((np.ravel(value).tolist(), np.ravel(abserr).tolist()) if rows
            else ([value], [abserr]))
    for i in info["failed"]:
        if not (math.isfinite(v[i]) and math.isfinite(e[i])):
            message = (f"quadrature returned a non-finite result "
                       f"(value={v[i]!r}, error estimate={e[i]!r})")
        else:
            nodes = f" ({info['neval']} nodes)" if not rows else ""
            message = (f"quadrature did not converge by level "
                       f"{np.ravel(info['level'])[i]}{nodes} (value="
                       f"{v[i]!r}, error estimate={e[i]!r})")
        if nan_rows:
            v[i] = e[i] = math.nan
        elif not rows:
            raise NumericsError(stage, message)
        else:
            lo, hi = (float(np.broadcast_to(x, np.shape(value)).flat[i])
                      for x in (a, b))
            raise NumericsError(stage, f"{message} at row {i}, window "
                                       f"[{lo!r}, {hi!r}]", row=i)
    if not rows:
        return v[0], e[0]
    return np.reshape(v, np.shape(value)), np.reshape(e, np.shape(value))


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


@functools.lru_cache(maxsize=256)
def _log_beta(p: float, q: float) -> float:
    """ln B(p, q).  Past q = 100 (or p), lgamma(q) - lgamma(p + q) cancels
    to about eps lgamma(q), 1e-9 at q = 2e6, so that difference is taken by
    Stirling's series, (q - 1/2) ln(1 + p/q) + p ln(q + p) - p + S(q + p)
    - S(q), to about 20 eps p (mpmath: 2e-14 or better for p <= 6).
    Cached: every expect and every grid point's law of a sweep asks for
    the same shapes."""
    p, q = min(p, q), max(p, q)
    if q < 100.0:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    return (math.lgamma(p) - (q - 0.5) * math.log1p(p / q)
            - p * math.log(q + p) + p + _stirling(q) - _stirling(q + p))


def expect(p: float, q: float, stage: str, g, lo=0.0, hi=1.0, *,
           log_at: float | None = None, flip=None, args=(),
           **tol) -> tuple:
    """int_lo^hi g(t) t^(p-1) (1-t)^(q-1) / B(p, q) dt by quad_strict,
    with its error estimate.  g takes and returns numpy arrays.  With
    log_at = 0.0 or 1.0, an end of [lo, hi], g is called as g(t, lg) with
    lg = log|t - log_at|, exact from the node's distance to that end, and
    carries that factor itself: g(t, lg) = lg * ... gives the log t or
    log(1-t) weight, and one call can also hold terms without it.  `tol`
    (epsabs, epsrel, limit, nan_rows) goes to quad_strict.

    The Beta weight goes into the rule's end weight wherever its singular
    endpoint is an end of [lo, hi]: t^(p-1) when lo = 0 and (1-t)^(q-1)
    when hi = 1, so a weight singular there (p < 1 or q < 1) is integrated
    exactly.  A factor not at an end, and 1/B(p, q), join it in logs, as
    (p-1) ln t and (q-1) ln(1-t) by log1p: 1 - t rounds to eps, which an
    exponent in the millions (m_I as eta -> 2) would magnify.  The rule
    may put a node on a weighted end whose distance underflows, so g must
    be finite there.  `stage` names the caller in a NumericsError.

    Rows, as for quad: lo and hi may be arrays, and `args` are passed on to
    g as columns, g(t, *cols) or g(t, lg, *cols).  A row where `flip` is
    True takes its expectation in u = 1 - t instead: its window [lo, hi] is
    one of u, its weight Beta(q, p), g sees u, and log_at still names the
    end of t (1.0 is u = 0).  An end of t is in the rule's weight where
    every row's window reaches it, and in logs for the others.

    A window of t next to 1 loses relative precision in t: take it in
    u = 1 - t, which is Beta(q, p) distributed, or by expect_log.
    """
    uniform = None if flip is None else _uniform(flip)
    if uniform:
        # every row in u: the Beta(q, p) expectation, its log at the same
        # end of t
        p, q = q, p
        log_at = None if log_at is None else 1.0 - log_at
    if uniform is not None:
        flip = None
    weights = {None: "alg", 0.0: "alg-loga", 1.0: "alg-logb"}
    # does every row's window reach t = 0, and t = 1
    if flip is None:
        at0, at1 = _every(lo == 0.0), _every(hi == 1.0)
    else:
        # a flipped row reaches t = 0 at hi = 1 and t = 1 at lo = 0
        at0 = not np.where(flip, hi - 1.0, lo).any()
        at1 = not np.where(flip, lo, hi - 1.0).any()
    if log_at not in weights or log_at is not None and not (
            at0 if log_at == 0.0 else at1):
        raise ValueError(f"log_at must be None, or 0.0 or 1.0 at an end of "
                         f"[{lo!r}, {hi!r}], got {log_at!r}")
    log_b = _log_beta(p, q)
    # an exponent 0.0 leaves its factor out
    a, b = p - 1.0, q - 1.0
    alpha = a if at0 else 0.0
    beta = b if at1 else 0.0
    a, b = a - alpha, b - beta

    kw = dict(weight=weights[log_at], wvar=(alpha, beta), **tol)
    if flip is None:
        def log_weight(t, *_):
            value = -log_b
            if a:
                value = value + a * np.log(t)
            if b:
                value = value + b * np.log1p(-t)
            return value

        return quad_strict(stage, g, lo, hi, log_weight=log_weight,
                           args=args, **kw)

    def log_weight(x, swap, *_):
        # ln t and ln(1-t) are ln x and ln(1-x) on a row as given, and the
        # other way round on a flipped one, where x is u = 1 - t
        value = -log_b
        if a:
            value = value + a * _rowwise(swap, x, np.log, _log1m)
        if b:
            value = value + b * _rowwise(swap, x, _log1m, np.log)
        return value

    def func(x, *rest):
        # the flip column, which g does not take, follows x (and its log)
        if log_at is None:
            return g(x, *rest[1:])
        return g(x, rest[0], *rest[2:])

    return quad_strict(stage, func, lo, hi, log_weight=log_weight, flip=flip,
                       args=(flip, *args), **kw)


def expect_log(p: float, q: float, stage: str, g, w_c, *, args=(),
               **tol) -> tuple:
    """The Beta(p, q) expectation of g over t in [e^(-w_c), 1], taken in
    w = -ln t on [0, w_c]: g is a function of w, on numpy arrays.  `tol`
    as for expect; w_c may be an array of rows, with `args` passed on to g
    as columns, g(w, *cols), as for quad.

    There the weight t^(p-1) (1-t)^(q-1) dt is e^(-p w) (1-e^(-w))^(q-1) dw:
    its factor w^(q-1) goes to the rule's end weight, and -p w
    + (q-1) ln(-expm1(-w)/w) and 1/B(p, q) join it in logs.  In t, a factor
    t^(p-1) at p < 1 is nearly singular just above e^(-w_c), a feature far
    from either end of the window that the rule resolves only at fine
    levels when w_c is large.
    """
    log_b, b = _log_beta(p, q), q - 1.0

    def log_weight(w, *_):
        value = -p * w - log_b
        if b:
            # (1 - e^(-w))/w -> 1 at the weighted end w = 0, which a node
            # reaches where its distance underflows
            w = np.maximum(w, sys.float_info.min)
            value = value + b * np.log(-np.expm1(-w) / w)
        return value

    return quad_strict(stage, g, 0.0, w_c, weight="alg", wvar=(b, 0.0),
                       log_weight=log_weight, args=args, **tol)
