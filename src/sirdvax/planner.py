"""Cost-optimal vaccination-program duration and procurement planning.

The decision variable is the single scalar tau (how long the program runs).
The objective is evaluated by simulation, so the search is derivative-free.
Every candidate program follows the same always-on run until it ends, so one
such run gives the stock cap and every candidate's state at its end; a coarse
scan then costs all candidates at once with one batched solve of their
uncontrolled tails and brackets the best basin.  A bounded golden-section /
parabolic refinement polishes it with exact simulations, which alone decide
the returned duration and cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .analysis import EpidemicIndicators, indicators
from .errors import ValidationError
from .model import Scenario, VaccinationPolicy
from .solver import Tolerances, Trajectory, integrate, stopped_programs

#: Scan resolution used to bracket the best basin before refinement.
PRESCAN_POINTS = 64

#: Absolute tolerance on the optimal duration.
DEFAULT_OPT_TOL = 1e-4

Resources = tuple[float, float, float]  # (k, l, m)


@dataclass(frozen=True)
class ObjectiveEvaluation:
    """One evaluation of the total-cost objective at a candidate duration.

    ``feasible`` reports that the stock was not exhausted before the scheduled
    program end, i.e. the policy ran untruncated.
    """

    tau: float
    cost: float
    trajectory: Trajectory
    feasible: bool


@dataclass(frozen=True)
class OptimizationResult:
    """Best duration found, its cost, indicators and trajectory.

    ``evaluations`` counts the durations the search costed: the points of the
    batched scan plus the exact objective evaluations.
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
    keeps accruing while infections persist.
    """
    if tau < 0.0 or tau > scenario.T:
        raise ValidationError(f"tau must lie in [0, {scenario.T}], got {tau}")
    k, l, m = resources
    policy = VaccinationPolicy(k=k, l=l, m=m, tau=tau)
    traj = integrate(scenario, policy, tol)
    cost = float(traj.J[-1])
    feasible = traj.exhaustion_time is None or traj.exhaustion_time >= tau
    return ObjectiveEvaluation(tau=tau, cost=cost, trajectory=traj, feasible=feasible)


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
    uniform scan of [0, cap], costed by ``stopped_programs`` in one
    batched tail solve, guards against multimodality and brackets the best
    basin.  Bounded golden-section/parabolic refinement on the scan's
    neighbours of its best point then polishes to ``DEFAULT_OPT_TOL`` with
    exact ``objective`` runs, and the best point of the scan is run exactly
    too.
    Exact runs are memoised, so no duration is integrated twice.  The
    returned duration, cost and trajectory are those of the best exact run,
    so the returned cost never exceeds any exactly evaluated one.
    """
    exact: dict[float, ObjectiveEvaluation] = {}

    def j(tau: float) -> ObjectiveEvaluation:
        if tau not in exact:
            exact[tau] = objective(tau, scenario, resources, tol)
        return exact[tau]

    cap, always_on = _always_on(scenario, resources, tol)
    if cap <= 0.0:
        scanned = 0
        best = j(0.0)
    else:
        grid = np.linspace(0.0, cap, PRESCAN_POINTS)
        scanned = len(grid)
        k_best = int(np.argmin(stopped_programs(always_on, grid).final[:, 4]))
        lo = grid[max(k_best - 1, 0)]
        hi = grid[min(k_best + 1, len(grid) - 1)]
        refined = minimize_scalar(
            lambda tau: j(float(tau)).cost,
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": DEFAULT_OPT_TOL},
        )
        best = j(float(refined.x))
        j(float(grid[k_best]))
        for candidate in exact.values():
            if candidate.cost < best.cost:
                best = candidate

    return OptimizationResult(
        tau_star=best.tau,
        cost_star=best.cost,
        indicators=indicators(best.trajectory),
        evaluations=scanned + len(exact),
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
