"""Cost-optimal vaccination-program duration and procurement planning.

The decision variable is the single scalar tau (how long the program runs).
The objective is the total cost J(T), evaluated by simulation;
``objective`` returns it for one duration as a float.  Every candidate
program follows the same always-on run until it ends, so one such run
gives the stock cap and every candidate's state at its end.  A uniform
scan then costs its candidates together, with one batched solve of the
uncontrolled tails, and that solve also carries each tail's forward
sensitivity to tau, so every scanned point has its cost slope
dJ/dtau = a*v(tau) + (alpha*b + beta*c)*dq(T)/dtau as well (v the rate at
tau, q the integral of i).  The slopes bracket the minimum next to the
scan's best point, where a cubic Hermite step places it; that interval is
scanned again only while the Hermite and secant roots disagree.  The
answer is the always-on run cut there: only its unvaccinated rest is
solved again, so each answer makes one ``integrate`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import EpidemicIndicators, indicators
from .model import Scenario, VaccinationPolicy
from .solver import Tolerances, Trajectory, integrate, stopped_program, stopped_programs

#: Points per scan; scanning one interval again narrows it by a factor PRESCAN_POINTS - 1.
PRESCAN_POINTS = 64

#: Absolute tolerance on the optimal duration.
DEFAULT_OPT_TOL = 1e-4

Resources = tuple[float, float, float]  # (k, l, m)


@dataclass(frozen=True)
class OptimizationResult:
    """Best duration found, its cost, indicators and trajectory.

    ``evaluations`` counts the durations the search costed, each with its
    cost slope: the points of every batched scan plus the returned program,
    cut from the always-on run.
    """

    tau_star: float
    cost_star: float
    indicators: EpidemicIndicators
    evaluations: int
    trajectory: Trajectory


def objective(
    tau: float,
    scenario: Scenario,
    resources: Resources,
    tol: Tolerances = Tolerances(),
) -> float:
    """Total per-capita cost J(T) of running the program for ``tau`` time units.

    The system is integrated over the full horizon [0, T]: vaccination spend
    stops when the program does, treatment spend keeps accruing while
    infections persist.  ``integrate`` refuses a tau outside [0, T].
    """
    return float(integrate(scenario, VaccinationPolicy(*resources, tau=tau), tol).J[-1])


def _cap(always_on: Trajectory) -> float:
    """The longest program the always-on run's stock sustains: its stock-out, or T."""
    exhausted = always_on.exhaustion_time
    return always_on.scenario.T if exhausted is None else exhausted


def feasible_tau_max(
    scenario: Scenario, resources: Resources, tol: Tolerances = Tolerances()
) -> float:
    """Longest program the vaccine stock can sustain.

    Smallest t with V(t) = m under the always-on policy (tau = T), or T if the
    stock is never exhausted.  V is nondecreasing, so the crossing is unique.
    Raises ValidationError for resources ``VaccinationPolicy`` refuses,
    before any shortcut.
    """
    policy = VaccinationPolicy(*resources, tau=scenario.T)
    # no stock sustains no program, and an unlimited one the whole horizon
    if not 0.0 < policy.m < math.inf:
        return min(policy.m, scenario.T)
    return _cap(integrate(scenario, policy, tol))


def minimize_tau(
    scenario: Scenario,
    resources: Resources,
    tol: Tolerances = Tolerances(),
) -> OptimizationResult:
    """Find the duration minimizing the total cost on [0, feasible_tau_max].

    The one ``integrate`` call of the search is the always-on run (tau = T).
    It gives the cap ``feasible_tau_max`` and the state at every candidate
    end of the program.  A ``PRESCAN_POINTS``-point uniform scan of
    [0, cap], costed by ``stopped_programs`` in one batched tail solve,
    guards against multimodality and gives each point's cost J and slope
    J' = dJ/dtau.  J is continuously differentiable on [0, cap]; only J''
    jumps, at the rate kink.  A best point on the cap with J' < 0 there
    (the left derivative) is the answer, the cap itself, and so is a best
    point at 0 with J' > 0 there.  Otherwise the answer lies in the
    interval next to the best point where J' goes from <= 0 to >= 0: it is
    the root of the derivative of the cubic Hermite interpolant of J on
    that interval (``_hermite_min``).  Where that root and the secant root
    of J' differ by more than ``DEFAULT_OPT_TOL`` / 10, the interval is
    scanned again with ``PRESCAN_POINTS`` points, until they agree or the
    spacing is at most ``DEFAULT_OPT_TOL``.  Where no interval next to the
    best point brackets a sign change, as on a cost flat to rounding, the
    best point's neighbours are scanned again instead, and the last scan's
    best point is the answer.  The always-on run cut at the answer by
    ``stopped_program``, which is ``integrate`` at that duration bit for
    bit, gives the returned duration, cost and trajectory; a binding
    stock's program then records its stock-out at exactly the cap.  A
    program that vaccinates nobody (k, l or m zero) costs the same at every
    tau, so its answer is the run cut at tau = 0.
    """
    k, l, _ = resources
    always_on = integrate(scenario, VaccinationPolicy(*resources, tau=scenario.T), tol)
    cap = 0.0 if k == 0.0 or l == 0.0 else _cap(always_on)
    scanned, tau, lo, hi = 0, 0.0, 0.0, cap
    while hi > lo:
        grid = np.linspace(lo, hi, PRESCAN_POINTS)
        scanned += len(grid)
        scan = stopped_programs(always_on, grid)
        cost, slope = scan.final[:, 4], scan.slope
        best = int(np.argmin(cost))
        tau = float(grid[best])
        if (tau == cap and slope[best] < 0.0) or (tau == 0.0 and slope[best] > 0.0):
            break
        # the interval next to the best point where J' changes sign, if any
        edge = [j for j in (best - 1, best) if 0 <= j < len(grid) - 1 and slope[j] <= 0.0 <= slope[j + 1]]
        if not edge:
            if grid[1] - grid[0] <= DEFAULT_OPT_TOL:
                break
            lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
            continue
        j = edge[0]
        tau, secant = _hermite_min(grid[j : j + 2], cost[j : j + 2], slope[j : j + 2])
        if abs(tau - secant) <= DEFAULT_OPT_TOL / 10 or grid[1] - grid[0] <= DEFAULT_OPT_TOL:
            break
        lo, hi = grid[j], grid[j + 1]
    best = stopped_program(always_on, tau)
    return OptimizationResult(
        tau_star=tau,
        cost_star=float(best.J[-1]),
        indicators=indicators(best),
        evaluations=scanned + 1,
        trajectory=best,
    )


def _hermite_min(t, cost, slope) -> tuple[float, float]:
    """The minimum of J on [t[0], t[1]] from its ends' costs and slopes, slope[0] <= 0 <= slope[1].

    Returns the root where the derivative of the cubic Hermite interpolant
    rises through 0, and the secant root of the slope, each a point of the
    interval.
    """
    (t0, t1), (d0, d1) = t, slope
    h = t1 - t0
    mean = (cost[1] - cost[0]) / h
    # the interpolant's derivative at t0 + x*h is a*x**2 + b*x + c
    a, b, c = 3.0 * (d0 + d1) - 6.0 * mean, 6.0 * mean - 4.0 * d0 - 2.0 * d1, d0
    root = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    # the rising root, (-b + root) / (2a), in a form that does not cancel
    if b + root != 0.0:
        x = -2.0 * c / (b + root)
    else:
        x = 0.0 if a == 0.0 else (root - b) / (2.0 * a)
    secant = d0 / (d0 - d1) if d0 != d1 else 0.0

    def at(x):
        x = min(max(x, 0.0), 1.0)
        return float((1.0 - x) * t0 + x * t1)

    return at(x), at(secant)


def procurement_plan(
    scenario: Scenario,
    resources: tuple[float, float],
    tol: Tolerances = Tolerances(),
) -> OptimizationResult:
    """Optimal program without a supply limit, to decide how much vaccine to buy.

    The stock m is ignored on purpose: ``tau_star`` minimizes the cost with
    unlimited supply, and the stock that plan consumes is its
    ``indicators.total_vaccinated`` (with unlimited supply no vaccination
    happens after tau, so V(T) = V(tau)).
    """
    k, l = resources
    return minimize_tau(scenario, (k, l, math.inf), tol)
