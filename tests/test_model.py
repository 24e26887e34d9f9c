"""Algebraic ingredients: parameter rules, the vaccination rule and the RHS.

The RHS's infection term is linear in the infected fraction, beta_e*i per
susceptible; it is checked against the paper's Table-1 values and against
the exact contact probability 1 - (1 - eps)^(r*dt*i) of
``oracles.exact_infection_probability``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirdvax import (
    CostParams,
    EpidemicParams,
    IntegrationError,
    Scenario,
    SirdState,
    VaccinationPolicy,
    ValidationError,
    integrate,
    treatment_cost_rate,
)
from sirdvax.model import _rhs_values
from sirdvax.solver import _rates, _read_out
from oracles import exact_infection_probability

# hand-evaluated with r=10, eps=0.3: transmission_rate*i = -r*i*ln(1-eps) at i=0.001
P_TABLE1 = 0.0035667494393873235
# hand-evaluated 1 - 0.7**(r*dt*i) at i=0.001, dt=0.01
EXACT_PROB_TABLE1 = 3.5666858316357516e-05


def finite_floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# bounded to physically plausible contact models; extreme magnitudes would
# push the conservation check out of the floating-point budget it asserts
epidemic_params = st.builds(
    lambda alpha, r, eps: EpidemicParams(alpha=alpha, beta=1.0 - alpha, r=r, eps=eps),
    alpha=finite_floats(0.5, 0.999),
    r=finite_floats(0.1, 20.0),
    eps=finite_floats(0.01, 0.5),
)

simplex_states = st.builds(
    lambda parts: SirdState(
        s=parts[0] / sum(parts),
        i=parts[1] / sum(parts),
        rho=parts[2] / sum(parts),
        d=parts[3] / sum(parts),
    ),
    st.tuples(*[finite_floats(1e-3, 1.0)] * 4),
)


def rate(t, s, policy, exhaustion_time=None):
    """The solver's vaccination rule at one time."""
    return float(_rates(policy, exhaustion_time, np.array([t]), np.array([s]))[0])


def intensity(i, params):
    """Infections per unit time of a wholly susceptible population, read off the RHS."""
    return -_rhs_values(1.0, i, 0.0, params.transmission_rate)[0]


def rhs(scenario, v):
    """The right-hand side the solver integrates, at the scenario's initial state."""
    beta_e = scenario.epidemic.transmission_rate
    return _rhs_values(scenario.initial.s, scenario.initial.i, v, beta_e)


class TestParameterValidation:
    def test_alpha_beta_must_be_complementary(self):
        with pytest.raises(ValidationError):
            EpidemicParams(alpha=0.6, beta=0.5, r=10.0, eps=0.3)

    def test_beta_is_canonicalized(self):
        params = EpidemicParams(alpha=0.95, beta=0.05, r=10.0, eps=0.3)
        assert params.alpha + params.beta == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=-0.1, beta=1.1, r=10.0, eps=0.3),
            dict(alpha=0.95, beta=0.05, r=0.0, eps=0.3),
            dict(alpha=0.95, beta=0.05, r=-1.0, eps=0.3),
            dict(alpha=0.95, beta=0.05, r=10.0, eps=0.0),
            dict(alpha=0.95, beta=0.05, r=10.0, eps=1.0),
            dict(alpha=1.0 + 1e-13, beta=0.0, r=10.0, eps=0.3),
        ],
    )
    def test_epidemic_params_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            EpidemicParams(**kwargs)

    def test_cost_params_rejects_negative(self):
        with pytest.raises(ValidationError):
            CostParams(a=-1.0, b=50.0, c=500.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=-0.1, l=0.3, m=1.0, tau=5.0),
            dict(k=0.1, l=1.5, m=1.0, tau=5.0),
            dict(k=0.1, l=0.3, m=-1.0, tau=5.0),
            dict(k=0.1, l=0.3, m=1.0, tau=-5.0),
        ],
    )
    def test_policy_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            VaccinationPolicy(**kwargs)

    def test_policy_accepts_unlimited_supply(self):
        policy = VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=5.0)
        assert math.isinf(policy.m)

    def test_state_rejects_broken_simplex(self):
        with pytest.raises(ValidationError):
            SirdState(s=0.6, i=0.6, rho=0.0, d=0.0)
        with pytest.raises(ValidationError):
            SirdState(s=-0.1, i=0.5, rho=0.3, d=0.3)

    def test_state_tolerates_drift(self):
        SirdState(s=1.0 + 5e-10, i=0.0, rho=0.0, d=-5e-10)

    def test_scenario_rejects_nonpositive_horizon(self, epidemic, cost):
        with pytest.raises(ValidationError):
            Scenario(
                epidemic=epidemic,
                cost=cost,
                initial=SirdState(s=0.999, i=0.001, rho=0.0, d=0.0),
                T=0.0,
            )

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_scenario_rejects_a_non_finite_horizon(self, epidemic, cost, horizon):
        with pytest.raises(ValidationError):
            Scenario(
                epidemic=epidemic,
                cost=cost,
                initial=SirdState(s=0.999, i=0.001, rho=0.0, d=0.0),
                T=horizon,
            )


class TestInfectionIntensity:
    def test_zero_infected_means_zero_intensity(self, epidemic):
        assert intensity(0.0, epidemic) == 0.0

    def test_table1_value(self, epidemic):
        assert epidemic.transmission_rate * 0.001 == pytest.approx(P_TABLE1, abs=1e-7)

    def test_linearity_in_i(self, epidemic):
        one = intensity(0.001, epidemic)
        two = intensity(0.002, epidemic)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    @given(
        params=epidemic_params,
        i=finite_floats(1e-6, 1.0),
        scale=finite_floats(0.0, 1.0),
    )
    def test_homogeneous_of_degree_one(self, params, i, scale):
        # p(scale*i) == scale*p(i) for scale in [0, 1/i]; sampled on [0, 1]
        direct = intensity(scale * i, params)
        scaled = scale * intensity(i, params)
        assert direct == pytest.approx(scaled, rel=1e-12, abs=1e-300)


class TestExactInfectionProbability:
    def test_zero_interval(self, epidemic):
        assert exact_infection_probability(0.001, 0.0, epidemic) == 0.0

    def test_zero_infected(self, epidemic):
        assert exact_infection_probability(0.0, 0.5, epidemic) == 0.0

    def test_table1_value(self, epidemic):
        got = exact_infection_probability(0.001, 0.01, epidemic)
        assert got == pytest.approx(EXACT_PROB_TABLE1, abs=1e-9)

    def test_result_is_a_probability(self, epidemic):
        for i in (0.0, 0.3, 1.0):
            for dt in (0.0, 0.05, 10.0):
                assert 0.0 <= exact_infection_probability(i, dt, epidemic) <= 1.0

    @given(
        params=epidemic_params,
        i=finite_floats(1e-3, 1.0),
        dt=finite_floats(1e-3, 0.1),
    )
    def test_linearization_second_order_bound(self, params, i, dt):
        # lower bounds keep the quadratic remainder above rounding noise,
        # where the inequality is observable at all in double precision
        linear = params.transmission_rate * i * dt
        exact = exact_infection_probability(i, dt, params)
        assert abs(exact - linear) <= linear * linear


class TestVaccinationRate:
    def test_capacity_branch_binds_at_start(self):
        policy = VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=15.0)
        assert rate(0.0, 0.999, policy) == 0.1

    def test_willingness_branch(self):
        policy = VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=15.0)
        assert rate(1.0, 0.2, policy) == pytest.approx(0.06, rel=1e-12)

    def test_program_end_is_exclusive(self):
        # the rate in effect just after t: the program has ended at t = tau
        policy = VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=5.0)
        assert rate(5.0 - 1e-12, 0.999, policy) == 0.1
        assert rate(5.0, 0.999, policy) == 0.0

    def test_exhausted_supply_stops_vaccination(self):
        policy = VaccinationPolicy(k=0.1, l=0.3, m=0.5, tau=15.0)
        assert rate(1.0 - 1e-12, 0.999, policy, exhaustion_time=1.0) == 0.1
        assert rate(1.0, 0.999, policy, exhaustion_time=1.0) == 0.0
        assert rate(7.0, 0.999, policy, exhaustion_time=1.0) == 0.0

    @given(
        s=finite_floats(0.0, 1.0),
        t=finite_floats(0.0, 30.0),
        k=finite_floats(0.0, 1.0),
        l=finite_floats(0.0, 1.0),
        tau=finite_floats(0.0, 15.0),
    )
    def test_rate_bounded_by_capacity(self, s, t, k, l, tau):
        policy = VaccinationPolicy(k=k, l=l, m=math.inf, tau=tau)
        assert 0.0 <= rate(t, s, policy) <= k

    def test_monotone_in_s_up_to_the_kink(self):
        policy = VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=15.0)
        grid = np.linspace(0.0, 1.0, 101)
        rates = _rates(policy, None, np.zeros_like(grid), grid)
        assert np.all(np.diff(rates) >= 0.0)


class TestAugmentedRhs:
    def test_treatment_cost_rate_table1(self, epidemic, cost):
        assert treatment_cost_rate(epidemic, cost) == pytest.approx(72.5, rel=1e-12)

    def test_disease_free_fixed_point(self, disease_free):
        assert rhs(disease_free, 0.0) == (0.0,) * 4

    def test_table1_initial_derivatives(self, scenario):
        # hand evaluation: p = 0.0035667494, s*p = 0.0035631827, v = k = 0.1;
        # with rho0 = d0 = 0 the read-out is linear, so it maps the derivatives
        # of (s, i, q, V) to those of (s, i, rho, d, J, V)
        assert rhs(scenario, 0.1)[2] == scenario.initial.i
        ds, di, drho, dd, dJ, dV = _read_out(np.array([rhs(scenario, 0.1)]), scenario)[0]
        assert ds == pytest.approx(-0.10356318268994794, abs=1e-9)
        assert di == pytest.approx(0.0025631826899479362, abs=1e-9)
        assert drho == pytest.approx(0.10095, abs=1e-9)
        assert dd == pytest.approx(5e-5, abs=1e-9)
        assert dJ == pytest.approx(0.5725, abs=1e-9)
        assert dV == pytest.approx(0.1, abs=1e-12)

    def test_alternate_treatment_coefficient(self, scenario):
        # literal per-case weighting b + c*beta instead of alpha*b + beta*c,
        # written as a mild-case cost of b/alpha: only the cost read-out
        # depends on the coefficient
        cost = scenario.cost
        literal = dataclasses.replace(cost, b=cost.b / scenario.epidemic.alpha)
        assert treatment_cost_rate(scenario.epidemic, literal) == pytest.approx(75.0, rel=1e-12)
        rows = np.array([[0.5, 0.01, 0.2, 0.1]])  # s, i, q, V
        base = _read_out(rows, scenario)[0]
        other = _read_out(rows, dataclasses.replace(scenario, cost=literal))[0]
        assert other[4] == pytest.approx(5.0 * 0.1 + 75.0 * 0.2, rel=1e-9)
        assert np.array_equal(np.delete(other, 4), np.delete(base, 4))

    def test_rejects_corrupted_state(self, scenario):
        # the integrated right-hand side clamps its inputs, so a corrupted
        # state is refused where the solver checks its samples
        corrupted = SirdState(s=0.999, i=0.001, rho=0.0, d=0.0)
        object.__setattr__(corrupted, "s", -0.5)  # bypass construction checks
        broken = Scenario(
            epidemic=scenario.epidemic, cost=scenario.cost, initial=corrupted, T=scenario.T
        )
        with pytest.raises(IntegrationError):
            integrate(broken, VaccinationPolicy(k=0.1, l=0.3, m=2.949, tau=15.0))

    @settings(max_examples=200)
    @given(
        params=epidemic_params,
        state=simplex_states,
        k=finite_floats(0.0, 1.0),
        l=finite_floats(0.0, 1.0),
        t=finite_floats(0.0, 10.0),
    )
    def test_compartment_derivatives_conserve_mass(self, params, state, k, l, t):
        scenario = Scenario(
            epidemic=params,
            cost=CostParams(a=1.0, b=10.0, c=100.0),
            initial=state,
            T=20.0,
        )
        policy = VaccinationPolicy(k=k, l=l, m=math.inf, tau=10.0)
        ds, di, dq, dV = rhs(scenario, rate(t, state.s, policy))
        # rho' = alpha*q' + V' and d' = beta*q'
        assert abs(ds + di + (params.alpha * dq + dV) + params.beta * dq) <= 1e-15

    @settings(max_examples=100)
    @given(params=epidemic_params, state=simplex_states, k=finite_floats(0.0, 1.0))
    def test_cost_and_usage_never_decrease(self, params, state, k):
        scenario = Scenario(
            epidemic=params,
            cost=CostParams(a=2.0, b=20.0, c=200.0),
            initial=state,
            T=20.0,
        )
        policy = VaccinationPolicy(k=k, l=0.5, m=math.inf, tau=10.0)
        # J' = a*V' + (alpha*b + beta*c)*q' with nonnegative unit costs
        _, _, dq, dV = rhs(scenario, rate(0.0, state.s, policy))
        assert dq >= 0.0
        assert dV >= 0.0
