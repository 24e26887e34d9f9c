"""Normalized SIRD epidemic simulation with a resource-limited vaccination policy.

The package simulates the four-compartment epidemic in population-fraction
form, applies a vaccination program capped by medical-system capacity,
willingness, and vaccine stock, and finds the cost-optimal program duration
together with the vaccine amount such a program consumes.
"""

from .analysis import EpidemicIndicators, indicators
from .config import ScenarioConfig, config_from_dict, config_to_dict, dump_config, load_config
from .errors import DomainError, IntegrationError, ValidationError
from .model import (
    AugmentedState,
    CostParams,
    EpidemicParams,
    Scenario,
    SirdState,
    VaccinationPolicy,
    exact_infection_probability,
    infection_intensity,
    treatment_cost_rate,
)
from .planner import (
    ObjectiveEvaluation,
    OptimizationResult,
    feasible_tau_max,
    minimize_tau,
    objective,
    procurement_plan,
)
from .solver import (
    EPIDEMIC_END_THRESHOLD,
    EVENT_EPIDEMIC_END,
    EVENT_PROGRAM_END,
    EVENT_RATE_KINK,
    EVENT_SUPPLY_EXHAUSTED,
    Event,
    Tolerances,
    Trajectory,
    integrate,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedState",
    "CostParams",
    "DomainError",
    "EPIDEMIC_END_THRESHOLD",
    "EVENT_EPIDEMIC_END",
    "EVENT_PROGRAM_END",
    "EVENT_RATE_KINK",
    "EVENT_SUPPLY_EXHAUSTED",
    "EpidemicIndicators",
    "EpidemicParams",
    "Event",
    "IntegrationError",
    "ObjectiveEvaluation",
    "OptimizationResult",
    "Scenario",
    "ScenarioConfig",
    "SirdState",
    "Tolerances",
    "Trajectory",
    "VaccinationPolicy",
    "ValidationError",
    "config_from_dict",
    "config_to_dict",
    "dump_config",
    "exact_infection_probability",
    "feasible_tau_max",
    "indicators",
    "infection_intensity",
    "integrate",
    "load_config",
    "minimize_tau",
    "objective",
    "procurement_plan",
    "treatment_cost_rate",
]
