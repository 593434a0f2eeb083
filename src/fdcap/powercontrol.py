"""Water-filling power control under an average-power constraint.

The optimal policy for maximizing ergodic rate subject to E[P] <= p_bar is

    P(gamma) = (a0 - 1/gamma)^+        (watts),

where the water level a0 = B / (mu0 ln 2) absorbs the bandwidth and the
Lagrange multiplier mu0; the user stays silent below the cutoff CINR 1/a0.
a0 solves E[(a0 - 1/gamma)^+] = p_bar over the beta-prime CINR law: Brent's
method on E[P], which is two regularized incomplete betas for m0 > 1 and a
Beta-weight quadrature (_integrate.expect, QUADPACK's algebraic-weight rule
QAWS) for m0 <= 1.  One quadrature of E[P] at the root then checks the
root, and with it the Beta-weight kernel that the rate integrals in
capacity and the 3F2 share.
"""
from __future__ import annotations

from dataclasses import dataclass

from scipy.optimize import brentq
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
    weight is in the quadrature rule.  For a0 < k the same is taken in
    u = 1 - t, as in capacity.waterfill_rate: a0 - k u/(1-u) on [0, s],
    s = a0/(k + a0), a window that keeps its relative precision however
    small a0/k is, under the Beta(mI, m0) weight of u.
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

    Since E[(a0 - 1/gamma)^+] < a0, starting at a0 = p_bar and doubling
    until the constraint is crossed always brackets the root; Brent's method
    (scipy.optimize.brentq) on avg_power then solves it to xtol = 1e-7 p_bar.
    The slope dE[P]/da0 = P(gamma > 1/a0) is at most 1, so the constraint
    residual stays under 1e-6 p_bar, with a tenfold margin for the error of
    E[P].

    The root is then checked by one quadrature of E[P] at a0, which is
    achieved_avg_power: if it fails, or misses p_bar by more than 1e-6 p_bar
    and by more than its own error estimate, a NumericsError("solve_cutoff")
    is raised.  That quadrature integrates against the same Beta(m0, mI)
    weight as the rate integrals in capacity, so a weight too narrow for it
    (mI -> inf as eta -> 2) fails here by name rather than as a silently
    wrong rate.
    """
    if not p_bar > 0:
        raise ValueError(f"p_bar must be > 0, got {p_bar}")
    powers = {}  # a0 -> avg_power(d, a0): brentq re-evaluates the bracket ends

    def excess(a: float) -> float:
        if a not in powers:
            powers[a] = avg_power(d, a)
        return powers[a] - p_bar

    hi = p_bar
    while excess(hi) < 0.0:
        if len(powers) > 200:
            if all(p == 0.0 for p in powers.values()):
                cause = ("E[P] underflows to 0.0 at every bracket point: "
                         "p_bar is too small for double precision at "
                         "this a0/k")
            else:
                cause = ("mI grows without bound as eta -> 2, like "
                         "1/(eta-2)^2, and the E[P] quadrature cannot "
                         "resolve a Beta(m0, mI) weight that narrow")
            raise NumericsError(
                "solve_cutoff",
                f"no bracket for the power constraint after 200 doublings "
                f"(a0={hi!r}, a0/k={hi / d.k!r}, E[P]={powers[hi]!r}, "
                f"p_bar={p_bar!r}, mI={d.mI!r}); {cause}")
        hi *= 2.0

    a0, info = brentq(excess, 0.5 * hi, hi, xtol=1e-7 * p_bar,
                      full_output=True, disp=False)
    if not info.converged:
        raise NumericsError("solve_cutoff", f"Brent's method stopped at "
                                            f"a0={a0!r}: {info.flag}")
    narrow = ("mI grows without bound as eta -> 2, like 1/(eta-2)^2, and "
              "the quadrature over a Beta(m0, mI) weight that narrow, which "
              "the rate integrals share, misses it")
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
