"""Normalized SIRD epidemic simulation with a resource-limited vaccination policy.

The package simulates the four-compartment epidemic in population-fraction
form, applies a vaccination program limited by medical-system capacity,
willingness, and vaccine stock, and finds the cost-optimal program duration
together with the vaccine amount such a program consumes.
"""

from .analysis import EpidemicIndicators, indicators
from .config import ScenarioConfig, config_from_dict, config_to_dict, dump_config, load_config
from .errors import IntegrationError, ValidationError
from .model import (
    CostParams,
    EpidemicParams,
    Scenario,
    SirdState,
    VaccinationPolicy,
    treatment_cost_rate,
)
from .planner import (
    OptimizationResult,
    feasible_tau_max,
    minimize_tau,
    objective,
    procurement_plan,
)
from .solver import (
    EPIDEMIC_END_THRESHOLD,
    EVENT_EPIDEMIC_END,
    EVENT_PEAK,
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
    "CostParams",
    "EPIDEMIC_END_THRESHOLD",
    "EVENT_EPIDEMIC_END",
    "EVENT_PEAK",
    "EVENT_PROGRAM_END",
    "EVENT_RATE_KINK",
    "EVENT_SUPPLY_EXHAUSTED",
    "EpidemicIndicators",
    "EpidemicParams",
    "Event",
    "IntegrationError",
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
    "feasible_tau_max",
    "indicators",
    "integrate",
    "load_config",
    "minimize_tau",
    "objective",
    "procurement_plan",
    "treatment_cost_rate",
]
