"""Cost-optimal vaccination-program duration and procurement planning.

The decision variable is the single scalar tau (how long the program runs).
The objective is the total cost J(T), evaluated by simulation, so the search
is derivative-free; ``objective`` returns it for one duration as a float.
Every candidate program follows the same always-on run until it ends, so one
such run gives the stock cap and every candidate's state at its end.  Nested
uniform scans then cost their candidates together, each with one batched
solve of the uncontrolled tails, each over the neighbours of the previous
scan's best point, until the spacing reaches the tolerance.  The answer is
the always-on run cut at the last best point: only its unvaccinated rest is
solved again, so each answer makes one ``integrate`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import EpidemicIndicators, indicators
from .model import Scenario, VaccinationPolicy
from .solver import Tolerances, Trajectory, integrate, stopped_program, stopped_programs

#: Points per scan; each scan narrows the bracket by a factor (PRESCAN_POINTS - 1) / 2.
PRESCAN_POINTS = 64

#: Absolute tolerance on the optimal duration.
DEFAULT_OPT_TOL = 1e-4

Resources = tuple[float, float, float]  # (k, l, m)


@dataclass(frozen=True)
class OptimizationResult:
    """Best duration found, its cost, indicators and trajectory.

    ``evaluations`` counts the durations the search costed: the points of
    every batched scan plus the returned program, cut from the always-on run.
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
    guards against multimodality and brackets the best basin.  The scan is
    repeated with ``PRESCAN_POINTS`` points over the best point's neighbours
    until the spacing is at most ``DEFAULT_OPT_TOL``; a grid scan is not
    misled by the cost's kinks at supply exhaustion and the rate switch.
    The always-on run cut at the last scan's best point by
    ``stopped_program``, which is ``integrate`` at that duration bit for
    bit, gives the returned duration, cost and trajectory.  Every grid
    includes its end points, so a best point on the cap returns the cap
    itself, and a binding stock's program then records its stock-out at
    exactly the cap.  A program that vaccinates nobody (k, l or m zero)
    costs the same at every tau, so its answer is the run cut at tau = 0.
    """
    k, l, _ = resources
    always_on = integrate(scenario, VaccinationPolicy(*resources, tau=scenario.T), tol)
    cap = 0.0 if k == 0.0 or l == 0.0 else _cap(always_on)
    scanned, tau, lo, hi = 0, 0.0, 0.0, cap
    while hi > lo:
        grid = np.linspace(lo, hi, PRESCAN_POINTS)
        scanned += len(grid)
        k_best = int(np.argmin(stopped_programs(always_on, grid).final[:, 4]))
        tau = float(grid[k_best])
        if grid[1] - grid[0] <= DEFAULT_OPT_TOL:
            break
        lo, hi = grid[max(k_best - 1, 0)], grid[min(k_best + 1, len(grid) - 1)]
    best = stopped_program(always_on, tau)
    return OptimizationResult(
        tau_star=tau,
        cost_star=float(best.J[-1]),
        indicators=indicators(best),
        evaluations=scanned + 1,
        trajectory=best,
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
