"""Water-filling power control under an average-power constraint.

The optimal policy for maximizing ergodic rate subject to E[P] <= p_bar is

    P(gamma) = (a0 - 1/gamma)^+        (watts),

where the water level a0 = B / (mu0 ln 2) absorbs the bandwidth and the
Lagrange multiplier mu0; the user stays silent below the cutoff CINR 1/a0.
a0 solves E[(a0 - 1/gamma)^+] = p_bar over the beta-prime CINR law: Newton
steps on E[P], two regularized incomplete betas for m0 > 1 and a Beta-weight
quadrature (_integrate.expect, the tanh-sinh rule with the weight exact at
the window's ends) for m0 <= 1, with its slope P(gamma > 1/a0), one more.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import betainc

from ._integrate import NumericsError, expect
from .cinr import BetaPrimeDist


@dataclass(frozen=True)
class WaterfillSolution:
    """Solved water level and its diagnostics.

    a0 in W (policy output is directly in watts), achieved_avg_power the
    quadrature E[P] at a0 (for every m0, also where the solve used the
    closed form), residual its absolute deviation from the constraint,
    solver_iterations the avg_power calls after the first.
    """

    a0: float
    achieved_avg_power: float
    solver_iterations: int
    residual: float


def _avg_power_quad(d: BetaPrimeDist, a0: float) -> tuple[float, float]:
    """E[(a0 - 1/gamma)^+] and its error estimate by _integrate.expect.

    In the beta variable t the integrand is a0 - k(1-t)/t on [t0, 1],
    t0 = k/(k + a0), where it vanishes; the (1-t)^(mI-1) factor of the Beta
    weight is in the quadrature rule's end weight.  For a0 < k the same is
    taken in u = 1 - t, as in capacity.waterfill_rate: a0 - k u/(1-u) on
    [0, s], s = a0/(k + a0), a window that keeps its relative precision
    however small a0/k is, under the Beta(mI, m0) weight of u.
    """
    k = d.k
    if a0 >= k:
        return expect(d.m0, d.mI, "avg_power",
                      lambda t: a0 - k * (1.0 - t) / t, k / (k + a0))
    s = a0 / (k + a0)
    if s == 0.0:
        # the transmit window has no width in the doubles; the expectation
        # itself lies in [0, a0]
        return 0.0, a0
    return expect(d.mI, d.m0, "avg_power", lambda u: a0 - k * u / (1.0 - u),
                  0.0, s)


def avg_power(d: BetaPrimeDist, a0: float) -> float:
    """E[(a0 - 1/gamma)^+]: closed form for m0 > 1, quadrature otherwise.

    For m0 > 1, with s = a0/(k + a0) the width of the transmit window
    [t0, 1] of the beta variable t (see the cinr module),

        E[P] = a0 I_s(mI, m0) - k mI/(m0 - 1) I_s(mI + 1, m0 - 1),

    I the regularized incomplete beta: the second term is k E[(1-t)/t] over
    the same window, and B(m0-1, mI+1)/B(m0, mI) = mI/(m0-1).  For m0 <= 1
    that mean diverges at t = 0 and E[P] is the Beta-weight quadrature.

    Strictly increasing and continuous in a0, -> 0 as a0 -> 0+.
    """
    if not a0 > 0:
        raise ValueError(f"water level must be > 0, got {a0}")
    if d.m0 <= 1.0:
        return _avg_power_quad(d, a0)[0]
    s = a0 / (d.k + a0)
    return float(a0 * betainc(d.mI, d.m0, s)
                 - d.k * d.mI / (d.m0 - 1.0)
                 * betainc(d.mI + 1.0, d.m0 - 1.0, s))


def solve_cutoff(d: BetaPrimeDist, p_bar: float) -> WaterfillSolution:
    """Solve E[(a0 - 1/gamma)^+] = p_bar for the water level a0.

    Newton's method on ln E[P] against ln a0, whose slope is the elasticity
    a0 I_s(mI, m0) / E[P], s = a0/(k + a0), since dE[P]/da0 =
    P(gamma > 1/a0) = I_s(mI, m0).  It starts at a0 = p_bar, left of the
    root since E[P] < a0, and keeps a bracket [lo, hi] from the signs seen;
    where a step leaves it, or E[P] underflows to 0, it doubles a0 while
    there is no upper end and bisects the bracket in ln a0 after.  It stops
    once a step moves a0 by at most 1e-10 a0, within 201 avg_power calls.

    The root is then checked by one quadrature of E[P] at a0, which is
    achieved_avg_power: if it fails, or misses p_bar by more than 1e-6 p_bar
    and by more than its own error estimate, a NumericsError("solve_cutoff")
    is raised.  That quadrature integrates against the same Beta(m0, mI)
    weight as the rate integrals in capacity, so a weight the kernel cannot
    take fails here by name rather than as a silently wrong rate.  As
    eta -> 2 (mI -> inf) the kernel meets mpmath to 1e-14 out to mI = 2e14
    (eta = 2 + 1e-7), where scipy's betainc in the closed form for m0 > 1
    is 4e-5 off and the check names it.
    """
    if not p_bar > 0:
        raise ValueError(f"p_bar must be > 0, got {p_bar}")
    a0, lo, hi, powers = p_bar, 0.0, math.inf, []  # E[P] at each a0 tried
    while True:
        power = avg_power(d, a0)
        powers.append(power)
        lo, hi = (a0, hi) if power < p_bar else (lo, a0)
        slope = betainc(d.mI, d.m0, a0 / (d.k + a0))
        # Newton step in ln a0, none at E[P] = 0 or slope 0; e^710 overflows
        step = ((math.log(p_bar) - math.log(power)) * power / (a0 * slope)
                if power > 0.0 and slope > 0.0 else math.inf)
        new = a0 * math.exp(step) if step < 709.0 else math.inf
        if abs(new - a0) <= 1e-10 * a0:
            a0 = new
            break
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

    narrow = ("mI grows without bound as eta -> 2, like 1/(eta-2)^2, and "
              "at mI that large the E[P] that solved for a0 (the incomplete "
              "betas for m0 > 1) and its quadrature part ways")
    try:
        achieved, abserr = _avg_power_quad(d, a0)
    except NumericsError as exc:
        raise NumericsError(
            "solve_cutoff", f"the quadrature E[P] at the root a0={a0!r} "
                            f"failed ({exc}) (mI={d.mI!r}); {narrow}") from exc
    residual = abs(achieved - p_bar)
    if residual > max(1e-6 * p_bar, abserr):
        raise NumericsError(
            "solve_cutoff",
            f"the quadrature E[P] at the root a0={a0!r} is {achieved!r} "
            f"(error estimate {abserr!r}), not p_bar={p_bar!r} (mI={d.mI!r}); "
            f"{narrow}")
    return WaterfillSolution(
        a0=a0,
        achieved_avg_power=achieved,
        solver_iterations=len(powers) - 1,
        residual=residual,
    )
