"""Water-filling power control under an average-power constraint.

The optimal policy for maximizing ergodic rate subject to E[P] <= p_bar is

    P(gamma) = (a0 - 1/gamma)^+        (watts),

where the water level a0 = B / (mu0 ln 2) absorbs the bandwidth and the
Lagrange multiplier mu0; the user stays silent below the cutoff CINR 1/a0.
a0 solves E[(a0 - 1/gamma)^+] = p_bar over the beta-prime CINR law: Newton
steps on ln E[P], whose value and slope P(gamma > 1/a0) come from one
continued fraction of the regularized incomplete beta (specfun._beta_cf),
and from a Beta-weight quadrature (_integrate.expect, the tanh-sinh rule
with the weight exact at the window's ends) where that closed form does not
hold or would lose its digits.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._integrate import NumericsError, _every, _uniform, expect
from .cinr import BetaPrimeDist
from .specfun import _beta_cf

# past this shape the continued fraction's 1 + d_3 cancels to about eps
# times the shape near its switch point: E[P] and its slope are then
# quadratures
_MAX_SHAPE = 1e5
# above its switch point the closed form for m0 > 1 is a difference, kept
# where E[P] is at least this share of the mean of 1/gamma
_CANCEL = 1e-4
# below this E[P] is not a normal double, and Newton takes its log from the
# continued fraction
_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class WaterfillSolution:
    """Solved water level and its diagnostics.

    a0 in W (policy output is directly in watts), achieved_avg_power the
    quadrature E[P] at a0 (for every m0, also where the solve used the
    closed form), residual its absolute deviation from the constraint,
    solver_iterations the avg_power calls after the first.  For a grid,
    a0, achieved_avg_power and residual are arrays, one element per point,
    and solver_iterations counts over all points.
    """

    a0: float
    achieved_avg_power: float
    solver_iterations: int
    residual: float


def _avg_power_quad(d: BetaPrimeDist, a0, **tol) -> tuple:
    """E[(a0 - 1/gamma)^+] and its error estimate by _integrate.expect.

    In the beta variable t the integrand is a0 - k(1-t)/t on [t0, 1],
    t0 = k/(k + a0), where it vanishes; the (1-t)^(mI-1) factor of the Beta
    weight is in the quadrature rule's end weight.  For a0 < k the same is
    taken in u = 1 - t, as in capacity.waterfill_rate: a0 - k u/(1-u) on
    [0, s], s = a0/(k + a0), a window that keeps its relative precision
    however small a0/k is, under the Beta(mI, m0) weight of u
    (BetaPrimeDist.transmit_window).  Where that window has no width in the
    doubles, the expectation is 0 with the error estimate a0, since it lies
    in [0, a0].  d.k and a0 may be arrays, one row per grid point, taken in
    one call of the kernel; `tol` goes to expect.
    """
    lo, hi, in_u = d.transmit_window(a0)

    def g(x, in_u, a0, k):
        # k (1-t)/t in t, k u/(1-u) in u
        y = 1.0 - x
        uniform = _uniform(in_u)
        if uniform is not None:
            return a0 - k * (x if uniform else y) / (y if uniform else x)
        return a0 - k * np.where(in_u, x, y) / np.where(in_u, y, x)

    value, abserr = expect(d.m0, d.mI, "avg_power", g, lo, hi, flip=in_u,
                           args=(in_u, a0, d.k), **tol)
    return value, (np.where(hi > 0.0, abserr, a0)
                   if isinstance(value, np.ndarray) else
                   abserr if hi > 0.0 else a0)


def _transmit_quad(d: BetaPrimeDist, a0: float) -> float:
    """P(gamma > 1/a0) by _integrate.expect, in t or u as _avg_power_quad."""
    lo, hi, in_u = d.transmit_window(a0)
    return expect(d.m0, d.mI, "avg_power", lambda x: 1.0, lo, hi,
                  flip=in_u)[0]


def avg_power(d: BetaPrimeDist, a0: float, *, elasticity: bool = False):
    """E[(a0 - 1/gamma)^+], or with elasticity=True the triple (E[P],
    d ln E[P] / d ln a0, ln E[P]) that solve_cutoff's Newton steps take.

    With s = a0/(k + a0) and c = k/(k + a0), each logged without the
    other's rounding (ln s = -ln(1 + k/a0)), and F = s^mI c^m0 / B(mI, m0),
    the slope dE[P]/da0 = P(gamma > 1/a0) is I_s(mI, m0), and E[P] is
    (k + a0)/B(mI, m0) int_0^s (s - u) u^(mI-1) (1-u)^(m0-2) du.  Both
    come from one continued fraction (specfun._beta_cf) and its tails u, w:

    - for s <= (mI+1)/(mI+m0+2), I_s = F cf/mI and E[P] = a0 I_s (1 + X)
      /(mI + 1), X = mI (mI+m0) s u w/((mI+1)(mI+2)), for every m0: a sum
      of positive terms, so the elasticity (mI + 1)/(1 + X) keeps its
      digits also where E[P] and I_s are subnormal, and so does ln E[P] =
      ln a0 + ln F - ln mI + ln cf + ln(1 + X) - ln(mI + 1) where E[P]
      underflows to 0;
    - above, for m0 > 1, with J = 1 - I_s = F cf/m0 from the fraction in c,
      E[P] = a0 - k mI/(m0-1) + a0 J [1 + c (mI-1) (1 + m0 (mI+m0) c u w
      /((m0+1)(m0+2)))/(m0+1)] / (s (m0-1)), the mean of 1/gamma and its
      part above a0.

    Both follow from the closed form a0 I_s(mI, m0) - k mI/(m0-1)
    I_s(mI+1, m0-1) by I_x(a+1, b-1) = I_x(a, b) - x^a (1-x)^(b-1)/(a B(a,
    b)) and the fraction's first two steps.  E[P] is the quadrature
    (_avg_power_quad) above the switch for m0 <= 1, where the mean of
    1/gamma diverges, where E[P] is below _CANCEL of that mean, and past
    _MAX_SHAPE, where the fraction's 1 + d_3 cancels to about eps times the
    shape near the switch and the slope is a quadrature too.  Where such a
    quadrature E[P] is not a normal double below the switch, the elasticity
    and ln E[P] are the fraction's, which far below the switch keeps its
    digits at any shape.

    Strictly increasing and continuous in a0, -> 0 as a0 -> 0+.
    """
    if not a0 > 0:
        raise ValueError(f"water level must be > 0, got {a0}")
    m0, mi, k = d.m0, d.mI, d.k
    power = ratio = log_power = None
    tol = {}
    s, c = a0 / (k + a0), k / (k + a0)
    log_front = (-mi * math.log1p(k / a0) - m0 * math.log1p(a0 / k)
                 - d.log_beta)
    apb = m0 + mi
    below = s <= (mi + 1.0) / (apb + 2.0)
    if max(m0, mi) > _MAX_SHAPE:
        slope = _transmit_quad(d, a0)
    else:
        front = math.exp(log_front)
        if below:
            cf, u, w = _beta_cf(mi, m0, s)
            slope = front / mi * cf
            x = mi * apb * s * u * w / ((mi + 1.0) * (mi + 2.0))
            power = a0 * slope * (1.0 + x) / (mi + 1.0)
            ratio = (mi + 1.0) / (1.0 + x)
        else:
            cf, u, w = _beta_cf(m0, mi, c)
            j = front / m0 * cf
            slope = 1.0 - j
            if m0 > 1.0:
                mean = k * mi / (m0 - 1.0)
                above = (a0 * j * (1.0 + c * (mi - 1.0) * (
                    1.0 + m0 * apb * c * u * w / ((m0 + 1.0) * (m0 + 2.0)))
                    / (m0 + 1.0)) / (s * (m0 - 1.0)))
                power = (a0 - mean) + above
                if not power > _CANCEL * mean:
                    # the quadrature to 1e-10 of E[P] itself, as the
                    # closed form would be
                    power, tol = None, {"epsabs": 0.0}
    if power is None:
        power = _avg_power_quad(d, a0, **tol)[0]
    if elasticity and below and power < _NORMAL:
        # ln E[P] (and the elasticity) from the fraction, finite where E[P]
        # is not a normal double
        if ratio is None:
            cf, u, w = _beta_cf(mi, m0, s)
            x = mi * apb * s * u * w / ((mi + 1.0) * (mi + 2.0))
            ratio = (mi + 1.0) / (1.0 + x)
        log_power = (math.log(a0) + log_front - math.log(mi) + math.log(cf)
                     + math.log1p(x) - math.log(mi + 1.0))
    if not elasticity:
        return power
    if ratio is None:
        ratio = a0 * slope / power if power > 0.0 else 0.0
    if log_power is None:
        log_power = math.log(power) if power > 0.0 else -math.inf
    return power, ratio, log_power


def _newton(d: BetaPrimeDist, p_bar: float) -> tuple[float, int]:
    """solve_cutoff's Newton steps for one law: (a0, avg_power calls after
    the first)."""
    a0, lo, hi, powers = p_bar, 0.0, math.inf, []  # E[P] at each a0 tried
    while True:
        try:
            power, ratio, log_power = avg_power(d, a0, elasticity=True)
        except NumericsError as exc:
            raise NumericsError(
                "solve_cutoff", f"E[P] at a0={a0!r} failed ({exc}) "
                                f"(mI={d.mI!r}); {_NARROW}") from exc
        powers.append(power)
        lo, hi = (a0, hi) if power < p_bar else (lo, a0)
        # Newton step in ln a0, none where ln E[P] is -inf or the slope 0;
        # e^710 overflows
        step = ((math.log(p_bar) - log_power) / ratio
                if log_power > -math.inf and ratio > 0.0 else math.inf)
        new = a0 * math.exp(step) if step < 709.0 else math.inf
        if abs(new - a0) <= 1e-10 * a0:
            return new, len(powers) - 1
        if len(powers) > 200:
            cause = ("E[P] underflows to 0.0 at every bracket point: "
                     "p_bar is too small for double precision at this a0/k"
                     if all(p == 0.0 for p in powers) else
                     "mI grows without bound as eta -> 2, like 1/(eta-2)^2, "
                     "and E[P] loses its precision at mI that large")
            raise NumericsError(
                "solve_cutoff",
                f"{'no bracket for' if hi == math.inf else 'no root of'} "
                f"the power constraint after 200 steps "
                f"(a0={a0!r}, a0/k={a0 / d.k!r}, E[P]={power!r}, "
                f"p_bar={p_bar!r}, mI={d.mI!r}); {cause}")
        a0 = new if lo < new < hi else (
            2.0 * a0 if hi == math.inf else math.sqrt(lo) * math.sqrt(hi))


_NARROW = ("mI grows without bound as eta -> 2, like 1/(eta-2)^2, and at mI "
           "that large the quadrature of E[P] does not settle or parts from "
           "the E[P] that solved for a0")


def solve_cutoff(d: BetaPrimeDist, p_bar) -> WaterfillSolution:
    """Solve E[(a0 - 1/gamma)^+] = p_bar for the water level a0.

    Newton's method on ln E[P] against ln a0, whose slope is avg_power's
    elasticity a0 I_s(mI, m0) / E[P], s = a0/(k + a0), since dE[P]/da0 =
    P(gamma > 1/a0) = I_s(mI, m0).  It starts at a0 = p_bar, left of the
    root since E[P] < a0, and keeps a bracket [lo, hi] from the signs seen;
    ln E[P] comes from the closed form where E[P] itself underflows, so
    the steps start at p_bar however small E[P] is there.  Where a step
    leaves the bracket, or ln E[P] is -inf, it doubles a0 while there is no
    upper end and bisects the bracket in ln a0 after.  It stops once a step
    moves a0 by at most 1e-10 a0, within 201 avg_power calls.

    The root is then checked by one quadrature of E[P] at a0, which is
    achieved_avg_power: if it fails, or misses p_bar by more than 1e-6 p_bar
    and by more than its own error estimate, a NumericsError("solve_cutoff")
    is raised, as it is where avg_power's own quadrature fails.  That
    quadrature integrates against the same Beta(m0, mI) weight as the rate
    integrals in capacity, so a weight the kernel cannot take fails here by
    name rather than as a silently wrong rate.  As eta -> 2 (mI -> inf)
    that first happens at mI = 2e20 (eta = 2 + 1e-10 on configs/micro.cfg),
    where the rule's last level misses 1e-10 of E[P].

    d.k and p_bar may be arrays, one row per grid point: Newton then runs
    point by point, the root check takes all rows in one kernel call, the
    fields of the solution are arrays but solver_iterations, the total,
    and a failure carries the index of its point as its ``row``.
    """
    grid = isinstance(d.k, np.ndarray) or isinstance(p_bar, np.ndarray)
    if not _every(np.asarray(p_bar) > 0 if grid else p_bar > 0):
        raise ValueError(f"p_bar must be > 0, got {p_bar}")
    if grid:
        k, budget = np.broadcast_arrays(d.k, p_bar)
        laws = [BetaPrimeDist(d.m0, d.mI, v) for v in k.tolist()]
        budgets = budget.astype(float).tolist()
    else:
        laws, budgets = [d], [p_bar]
    roots, iterations = [], 0
    for row, (law, p) in enumerate(zip(laws, budgets)):
        try:
            root, steps = _newton(law, p)
        except NumericsError as exc:
            exc.row = row if grid else None
            raise
        roots.append(root)
        iterations += steps
    a0 = np.array(roots) if grid else roots[0]
    try:
        achieved, abserr = _avg_power_quad(d, a0)
    except NumericsError as exc:
        at = a0 if exc.row is None else roots[exc.row]
        raise NumericsError(
            "solve_cutoff", f"the quadrature E[P] at the root a0={at!r} "
                            f"failed ({exc}) (mI={d.mI!r}); {_NARROW}",
            exc.row) from exc
    residuals = []
    for row, (at, got, err, p) in enumerate(zip(
            roots, np.ravel(achieved).tolist(), np.ravel(abserr).tolist(),
            budgets)):
        residuals.append(abs(got - p))
        if residuals[-1] > max(1e-6 * p, err):
            raise NumericsError(
                "solve_cutoff",
                f"the quadrature E[P] at the root a0={at!r} is {got!r} "
                f"(error estimate {err!r}), not p_bar={p!r} (mI={d.mI!r}); "
                f"{_NARROW}", row if grid else None)
    return WaterfillSolution(
        a0=a0,
        achieved_avg_power=achieved,
        solver_iterations=iterations,
        residual=np.array(residuals) if grid else residuals[0],
    )
