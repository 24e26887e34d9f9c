"""Shared fixtures: the two bundled scenarios and cached trajectories."""

from __future__ import annotations

import math

import pytest

from sirdvax import (
    CostParams,
    EpidemicParams,
    Scenario,
    SirdState,
    Tolerances,
    VaccinationPolicy,
    integrate,
)

M_VARIANT1 = 2.949
M_VARIANT2 = 0.5


@pytest.fixture(scope="session")
def epidemic():
    return EpidemicParams(alpha=0.95, beta=0.05, r=10.0, eps=0.3)


@pytest.fixture(scope="session")
def cost():
    return CostParams(a=5.0, b=50.0, c=500.0)


@pytest.fixture(scope="session")
def scenario(epidemic, cost):
    return Scenario(
        epidemic=epidemic,
        cost=cost,
        initial=SirdState(s=0.999, i=0.001, rho=0.0, d=0.0),
        T=15.0,
    )


@pytest.fixture(scope="session")
def disease_free(epidemic, cost):
    return Scenario(
        epidemic=epidemic,
        cost=cost,
        initial=SirdState(s=0.999, i=0.0, rho=0.001, d=0.0),
        T=15.0,
    )


@pytest.fixture(scope="session")
def tolerances():
    return Tolerances()


@pytest.fixture(scope="session")
def full_program_traj(scenario, tolerances):
    """Program running the whole horizon, unlimited supply."""
    policy = VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=scenario.T)
    return integrate(scenario, policy, tolerances)


@pytest.fixture(scope="session")
def variant1_traj(scenario, tolerances):
    policy = VaccinationPolicy(k=0.1, l=0.3, m=M_VARIANT1, tau=scenario.T)
    return integrate(scenario, policy, tolerances)


@pytest.fixture(scope="session")
def variant2_traj(scenario, tolerances):
    policy = VaccinationPolicy(k=0.1, l=0.3, m=M_VARIANT2, tau=scenario.T)
    return integrate(scenario, policy, tolerances)


@pytest.fixture(scope="session")
def tight_supply_traj(scenario, tolerances):
    """Binding vaccine stock: exhaustion while the capacity branch is active."""
    policy = VaccinationPolicy(k=0.1, l=0.3, m=0.2, tau=scenario.T)
    return integrate(scenario, policy, tolerances)


@pytest.fixture(scope="session")
def unvaccinated_traj(scenario, tolerances):
    return integrate(scenario, VaccinationPolicy(0.0, 0.0, 0.0, 0.0), tolerances)
