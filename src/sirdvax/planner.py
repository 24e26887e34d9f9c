"""Cost-optimal vaccination-program duration and procurement planning.

The decision variable is the single scalar tau (how long the program runs).
The objective is evaluated by simulation, so the search is derivative-free.
Every candidate program follows the same always-on run until it ends, so one
such run gives the stock cap and every candidate's state at its end.  Nested
uniform scans then cost their candidates together, each with one batched
solve of the uncontrolled tails, each over the neighbours of the previous
scan's best point, until the spacing reaches the tolerance.  One exact
simulation at the last best point gives the returned duration and cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import EpidemicIndicators, indicators
from .model import Scenario, VaccinationPolicy
from .solver import Tolerances, Trajectory, integrate, stopped_programs

#: Points per scan; each scan narrows the bracket by a factor (PRESCAN_POINTS - 1) / 2.
PRESCAN_POINTS = 64

#: Absolute tolerance on the optimal duration.
DEFAULT_OPT_TOL = 1e-4

Resources = tuple[float, float, float]  # (k, l, m)


@dataclass(frozen=True)
class ObjectiveEvaluation:
    """One evaluation of the total-cost objective at a candidate duration.

    ``trajectory.exhaustion_time`` tells whether, and when, the stock ran out.
    """

    tau: float
    cost: float
    trajectory: Trajectory


@dataclass(frozen=True)
class OptimizationResult:
    """Best duration found, its cost, indicators and trajectory.

    ``evaluations`` counts the durations the search costed: the points of
    every batched scan plus the one exact objective evaluation.
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
) -> ObjectiveEvaluation:
    """Total per-capita cost of running the program for ``tau`` time units.

    The system is integrated over the full horizon [0, T] and the cost is
    J(T): vaccination spend stops when the program does, treatment spend
    keeps accruing while infections persist.  ``integrate`` refuses a tau
    outside [0, T].
    """
    traj = integrate(scenario, VaccinationPolicy(*resources, tau=tau), tol)
    return ObjectiveEvaluation(tau=tau, cost=float(traj.J[-1]), trajectory=traj)


def _always_on(
    scenario: Scenario, resources: Resources, tol: Tolerances
) -> tuple[float, Trajectory | None]:
    """``feasible_tau_max`` and the always-on run (tau = T) it is read from.

    With no stock there is no program to run: the cap is 0 and the run None.
    """
    k, l, m = resources
    if m == 0.0:
        return 0.0, None
    policy = VaccinationPolicy(k=k, l=l, m=m, tau=scenario.T)
    traj = integrate(scenario, policy, tol)
    if traj.exhaustion_time is not None:
        return traj.exhaustion_time, traj
    return scenario.T, traj


def feasible_tau_max(
    scenario: Scenario, resources: Resources, tol: Tolerances = Tolerances()
) -> float:
    """Longest program the vaccine stock can sustain.

    Smallest t with V(t) = m under the always-on policy (tau = T), or T if the
    stock is never exhausted.  V is nondecreasing, so the crossing is unique.
    """
    if not math.isfinite(resources[2]):
        return scenario.T
    return _always_on(scenario, resources, tol)[0]


def minimize_tau(
    scenario: Scenario,
    resources: Resources,
    tol: Tolerances = Tolerances(),
) -> OptimizationResult:
    """Find the duration minimizing the total cost on [0, feasible_tau_max].

    One always-on run (tau = T) gives the cap ``feasible_tau_max`` and the
    state at every candidate end of the program.  A ``PRESCAN_POINTS``-point
    uniform scan of [0, cap], costed by ``stopped_programs`` in one batched
    tail solve, guards against multimodality and brackets the best basin.
    The scan is repeated with ``PRESCAN_POINTS`` points over the best point's
    neighbours until the spacing is at most ``DEFAULT_OPT_TOL``; a grid scan
    is not misled by the cost's kinks at supply exhaustion and the rate
    switch.  One exact ``objective`` run at the last scan's best point then
    gives the returned duration, cost and trajectory.  Every grid includes
    its end points, so a best point on the cap returns the cap itself.  A
    program that vaccinates nobody (k, l or m zero) costs the same at every
    tau, so its search is the one run at tau = 0.
    """
    k, l, _ = resources
    cap, always_on = (0.0, None) if k == 0.0 or l == 0.0 else _always_on(scenario, resources, tol)
    scanned, tau, lo, hi = 0, 0.0, 0.0, cap
    while hi > lo:
        grid = np.linspace(lo, hi, PRESCAN_POINTS)
        scanned += len(grid)
        k_best = int(np.argmin(stopped_programs(always_on, grid).final[:, 4]))
        tau = float(grid[k_best])
        if grid[1] - grid[0] <= DEFAULT_OPT_TOL:
            break
        lo, hi = grid[max(k_best - 1, 0)], grid[min(k_best + 1, len(grid) - 1)]
    best = objective(tau, scenario, resources, tol)
    return OptimizationResult(
        tau_star=best.tau,
        cost_star=best.cost,
        indicators=indicators(best.trajectory),
        evaluations=scanned + 1,
        trajectory=best.trajectory,
    )


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
