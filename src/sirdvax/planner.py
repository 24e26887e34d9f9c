"""Cost-optimal vaccination-program duration and procurement planning.

The decision variable is the single scalar tau (how long the program runs).
The objective is evaluated by simulation, so the search is derivative-free:
a coarse pre-scan brackets the best basin and a bounded golden-section /
parabolic refinement polishes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .analysis import EpidemicIndicators, indicators
from .errors import ValidationError
from .model import Scenario, VaccinationPolicy
from .solver import Tolerances, Trajectory, integrate

#: Pre-scan resolution used to bracket the best basin before refinement.
PRESCAN_POINTS = 64

#: Default absolute tolerance on the optimal duration.
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

    ``evaluations`` counts the objective evaluations the search made.
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
    horizon: str = "full",
) -> ObjectiveEvaluation:
    """Total per-capita cost of running the program for ``tau`` time units.

    The system is always integrated over the full horizon [0, T].  With
    ``horizon="full"`` (the default) the reported cost is J(T): vaccination
    spend stops when the program does, treatment spend keeps accruing while
    infections persist.  ``horizon="program"`` reports J(tau) instead, i.e.
    only costs accrued while the program ran.
    """
    if tau < 0.0 or tau > scenario.T:
        raise ValidationError(f"tau must lie in [0, {scenario.T}], got {tau}")
    if horizon not in ("full", "program"):
        raise ValidationError(f"unknown objective horizon {horizon!r}")
    k, l, m = resources
    policy = VaccinationPolicy(k=k, l=l, m=m, tau=tau)
    traj = integrate(scenario, policy, tol)
    cost = float(traj.J[-1]) if horizon == "full" else traj.state_at(tau).J
    feasible = traj.exhaustion_time is None or traj.exhaustion_time >= tau
    return ObjectiveEvaluation(tau=tau, cost=cost, trajectory=traj, feasible=feasible)


def feasible_tau_max(
    scenario: Scenario, resources: Resources, tol: Tolerances = Tolerances()
) -> float:
    """Longest program the vaccine stock can sustain.

    Smallest t with V(t) = m under the always-on policy (tau = T), or T if the
    stock is never exhausted.  V is nondecreasing, so the crossing is unique.
    """
    k, l, m = resources
    if m == 0.0:
        return 0.0
    if not math.isfinite(m):
        return scenario.T
    policy = VaccinationPolicy(k=k, l=l, m=m, tau=scenario.T)
    traj = integrate(scenario, policy, tol)
    if traj.exhaustion_time is not None:
        return traj.exhaustion_time
    return scenario.T


def minimize_tau(
    scenario: Scenario,
    resources: Resources,
    tol: Tolerances = Tolerances(),
    opt_tol: float = DEFAULT_OPT_TOL,
    horizon: str = "full",
) -> OptimizationResult:
    """Find the duration minimizing the total cost on [0, feasible_tau_max].

    A ``PRESCAN_POINTS``-point uniform scan guards against multimodality and
    brackets the best basin; bounded golden-section/parabolic refinement then
    polishes to ``opt_tol``.  The returned cost never exceeds any probed value.
    """
    evaluations = 0

    def j(tau: float) -> ObjectiveEvaluation:
        nonlocal evaluations
        evaluations += 1
        return objective(tau, scenario, resources, tol, horizon)

    cap = feasible_tau_max(scenario, resources, tol)
    if cap <= 0.0:
        best = j(0.0)
    else:
        grid = np.linspace(0.0, cap, PRESCAN_POINTS)
        scanned = [j(tau) for tau in grid]
        costs = [ev.cost for ev in scanned]
        k_best = int(np.argmin(costs))
        lo = grid[max(k_best - 1, 0)]
        hi = grid[min(k_best + 1, len(grid) - 1)]
        refined = minimize_scalar(
            lambda tau: j(float(tau)).cost,
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": opt_tol},
        )
        best = j(float(refined.x))
        for candidate in scanned:
            if candidate.cost < best.cost:
                best = candidate

    return OptimizationResult(
        tau_star=best.tau,
        cost_star=best.cost,
        indicators=indicators(best.trajectory),
        evaluations=evaluations,
        trajectory=best.trajectory,
    )


def procurement_plan(
    scenario: Scenario,
    resources: tuple[float, float],
    tol: Tolerances = Tolerances(),
    opt_tol: float = DEFAULT_OPT_TOL,
) -> tuple[float, float]:
    """Optimal duration without a supply limit and the stock that plan consumes.

    Returns (tau, m) where tau minimizes the cost with unlimited supply and m
    is the vaccine actually used by that program, read off the optimal
    trajectory's usage integral.
    """
    k, l = resources
    result = minimize_tau(scenario, (k, l, math.inf), tol, opt_tol)
    # no vaccination happens after tau with unlimited supply, so V(T) = V(tau)
    return result.tau_star, result.indicators.total_vaccinated
