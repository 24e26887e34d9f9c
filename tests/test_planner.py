"""Objective evaluation, the feasibility cap, the search, and procurement."""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from sirdvax import (
    EVENT_RATE_KINK,
    EVENT_SUPPLY_EXHAUSTED,
    IntegrationError,
    Tolerances,
    VaccinationPolicy,
    ValidationError,
    feasible_tau_max,
    integrate,
    minimize_tau,
    objective,
    procurement_plan,
)
from sirdvax import planner, solver
from sirdvax.planner import PRESCAN_POINTS
from sirdvax.solver import stopped_programs

RESOURCES_UNLIMITED = (0.1, 0.3, math.inf)
RESOURCES_VARIANT1 = (0.1, 0.3, 2.949)
RESOURCES_VARIANT2 = (0.1, 0.3, 0.5)
RESOURCES_TIGHT = (0.1, 0.3, 0.2)

# frozen from tight-tolerance runs cross-checked against the RK4 oracle
TAU_OPT = 6.9295
COST_OPT = 41.2811
PROCUREMENT_STOCK = 0.43093
COST_NO_PROGRAM = 70.20865


def run(tau, scenario, resources, tol=Tolerances()):
    """The run ``objective`` costs at ``tau``."""
    return integrate(scenario, VaccinationPolicy(*resources, tau=tau), tol)


class TestObjective:
    def test_rejects_tau_outside_horizon(self, scenario):
        with pytest.raises(ValidationError):
            objective(-1.0, scenario, RESOURCES_UNLIMITED)
        with pytest.raises(ValidationError):
            objective(16.0, scenario, RESOURCES_UNLIMITED)

    def test_disease_free_program_costs_nothing(self, disease_free):
        assert objective(0.0, disease_free, RESOURCES_UNLIMITED) == 0.0

    def test_no_program_cost_matches_policy_free_integration(self, scenario, tolerances):
        # same integrator with no resources either: the step sequences
        # coincide, so the costs must agree essentially bit-for-bit
        with_zero_duration = objective(0.0, scenario, RESOURCES_VARIANT1, tolerances)
        without_policy = integrate(scenario, VaccinationPolicy(0.0, 0.0, 0.0, 0.0), tolerances)
        assert isinstance(with_zero_duration, float)
        assert abs(with_zero_duration - without_policy.J[-1]) <= 1e-9
        assert with_zero_duration == pytest.approx(COST_NO_PROGRAM, abs=1e-3)

    def test_no_program_cost_matches_treatment_quadrature(self, scenario, tolerances):
        cost = objective(0.0, scenario, RESOURCES_VARIANT1, tolerances)
        traj = run(0.0, scenario, RESOURCES_VARIANT1, tolerances)
        t, i = traj.times, traj.i
        treatment = 72.5 * np.sum(np.diff(t) * (i[1:] + i[:-1]) / 2.0)  # trapezoid rule
        assert cost == pytest.approx(treatment, rel=1e-4)

    def test_feasibility_flag_tracks_truncation(self, scenario):
        # the stock of 0.2 runs out at t = 2 on the capacity branch
        assert run(1.5, scenario, RESOURCES_TIGHT).exhaustion_time is None
        truncated = run(5.0, scenario, RESOURCES_TIGHT)
        assert truncated.exhaustion_time == pytest.approx(2.0, abs=1e-6)

    def test_cost_differences_beyond_the_epidemic_are_pure_vaccine_spend(
        self, scenario, tolerances
    ):
        # infections are negligible after t ~ 14, so extending the program
        # only adds dose cost: delta j == a * delta V up to the tiny change
        # the extra vaccination makes to the remaining epidemic
        early = (14.0, scenario, RESOURCES_UNLIMITED, tolerances)
        late = (15.0, scenario, RESOURCES_UNLIMITED, tolerances)
        dj = objective(*late) - objective(*early)
        dv = run(*late).V[-1] - run(*early).V[-1]
        assert dj > 0.0
        assert abs(dj - 5.0 * dv) <= 1e-3 * dj


class TestFeasibleTauMax:
    @pytest.mark.parametrize(
        "resources",
        [
            (0.1, 0.3, -1.0),
            (0.1, 0.3, math.nan),
            (0.1, 0.3, -math.inf),
            (-1.0, 0.3, 0.0),
            (math.nan, 0.3, math.inf),
            (0.1, 7.0, math.inf),
        ],
        ids=["m-negative", "m-nan", "m-minus-inf", "k-negative", "k-nan", "l-above-one"],
    )
    def test_refuses_invalid_resources(self, scenario, resources):
        # the no-stock and unlimited-stock answers need no run, but the rules still apply
        with pytest.raises(ValidationError):
            feasible_tau_max(scenario, resources)

    def test_no_stock_no_program(self, scenario):
        assert feasible_tau_max(scenario, (0.1, 0.3, 0.0)) == 0.0

    @pytest.mark.parametrize("resources", [(0.0, 0.3, 0.5), (0.1, 0.0, 0.5)], ids=["k-0", "l-0"])
    def test_no_capacity_never_draws_the_stock(self, scenario, resources):
        assert feasible_tau_max(scenario, resources) == 15.0

    def test_unlimited_stock_allows_the_whole_horizon(self, scenario):
        assert feasible_tau_max(scenario, RESOURCES_UNLIMITED) == 15.0

    def test_binding_stock_caps_at_stock_over_capacity(self, scenario):
        # s >= k/l while the stock lasts (asserted in the solver tests), so
        # usage grows at exactly k and the cap is m/k
        assert feasible_tau_max(scenario, RESOURCES_TIGHT) == pytest.approx(2.0, abs=1e-6)

    def test_bundled_stock_levels_never_bind(self, scenario):
        assert feasible_tau_max(scenario, RESOURCES_VARIANT1) == 15.0
        assert feasible_tau_max(scenario, RESOURCES_VARIANT2) == 15.0

    def test_nondecreasing_in_stock(self, scenario):
        caps = [feasible_tau_max(scenario, (0.1, 0.3, m)) for m in (0.05, 0.2, 0.4)]
        assert caps == sorted(caps)

    def test_nonincreasing_in_capacity_while_it_binds(self, scenario):
        # the capacity branch is active this early (s stays above k/l), so a
        # faster program drains the same stock sooner
        assert feasible_tau_max(scenario, (0.1, 0.3, 0.2)) == pytest.approx(2.0, abs=1e-6)
        assert feasible_tau_max(scenario, (0.2, 0.3, 0.2)) == pytest.approx(1.0, abs=1e-6)


class TestMinimizeTau:
    def test_finds_the_known_optimum(self, scenario):
        result = minimize_tau(scenario, RESOURCES_VARIANT1)
        assert result.tau_star == pytest.approx(TAU_OPT, abs=0.05)
        assert result.cost_star == pytest.approx(COST_OPT, abs=0.01)
        assert result.evaluations >= 64

    def test_dominates_a_uniform_grid(self, scenario, tolerances):
        result = minimize_tau(scenario, RESOURCES_VARIANT1, tolerances)
        grid_costs = [
            objective(tau, scenario, RESOURCES_VARIANT1, tolerances)
            for tau in np.linspace(0.0, 15.0, 201)
        ]
        assert result.cost_star <= min(grid_costs) + 1e-6

    def test_deterministic(self, scenario):
        first = minimize_tau(scenario, RESOURCES_VARIANT1)
        second = minimize_tau(scenario, RESOURCES_VARIANT1)
        assert first.tau_star == second.tau_star
        assert first.cost_star == second.cost_star

    def test_inactive_stock_levels_agree(self, scenario):
        one = minimize_tau(scenario, RESOURCES_VARIANT1)
        two = minimize_tau(scenario, RESOURCES_VARIANT2)
        assert one.tau_star == two.tau_star
        assert one.cost_star == two.cost_star

    def test_disease_free_needs_no_program(self, disease_free):
        result = minimize_tau(disease_free, RESOURCES_VARIANT1)
        assert result.tau_star == 0.0
        assert result.cost_star == 0.0

    def test_search_respects_the_feasibility_cap(self, scenario, tolerances):
        result = minimize_tau(scenario, RESOURCES_TIGHT, tolerances)
        cap = feasible_tau_max(scenario, RESOURCES_TIGHT, tolerances)
        assert result.tau_star <= cap + 1e-12
        assert result.indicators.total_vaccinated <= 0.2 + 1e-6
        grid_costs = [
            objective(tau, scenario, RESOURCES_TIGHT, tolerances)
            for tau in np.linspace(0.0, cap, 101)
        ]
        assert result.cost_star <= min(grid_costs) + 1e-6


def always_on_run(scenario, resources, tol):
    k, l, m = resources
    return integrate(scenario, VaccinationPolicy(k=k, l=l, m=m, tau=scenario.T), tol)


def stopped_program_costs(always_on, taus):
    return stopped_programs(always_on, taus).final[:, 4]


def scan_grid(scenario, resources, tol):
    return np.linspace(0.0, feasible_tau_max(scenario, resources, tol), PRESCAN_POINTS)


class TestBatchedScan:
    @pytest.mark.parametrize(
        "scenario_name, resources",
        [
            ("scenario", RESOURCES_VARIANT1),
            ("scenario", RESOURCES_TIGHT),
            ("scenario", (0.1, 0.3, 0.4)),
            ("scenario", RESOURCES_UNLIMITED),
            ("milder", RESOURCES_VARIANT1),
            ("disease_free", RESOURCES_VARIANT1),
        ],
        ids=["variant1", "stock-0.2", "stock-0.4", "unlimited", "variant1-r4", "disease-free"],
    )
    def test_costs_and_argmin_match_exact_objective_runs(
        self, request, scenario_name, resources, tolerances
    ):
        if scenario_name == "milder":
            base = request.getfixturevalue("scenario")
            scenario = dataclasses.replace(
                base, epidemic=dataclasses.replace(base.epidemic, r=4.0)
            )
        else:
            scenario = request.getfixturevalue(scenario_name)
        grid = scan_grid(scenario, resources, tolerances)
        scanned = stopped_program_costs(always_on_run(scenario, resources, tolerances), grid)
        exact = np.array(
            [objective(float(tau), scenario, resources, tolerances) for tau in grid]
        )
        np.testing.assert_allclose(scanned, exact, rtol=1e-5, atol=0.0)
        assert int(np.argmin(scanned)) == int(np.argmin(exact))

    def test_disease_free_scan_matches_the_closed_form(self, disease_free, tolerances):
        # with no infection only doses cost: J(T) = a*V(tau), where V grows at
        # k until l*s = k and then drains s exponentially at rate l
        k, l, _ = RESOURCES_VARIANT1
        s0, a = disease_free.initial.s, disease_free.cost.a
        t_kink = (s0 - k / l) / k
        grid = scan_grid(disease_free, RESOURCES_VARIANT1, tolerances)
        used = np.where(
            grid <= t_kink, k * grid, s0 - (k / l) * np.exp(-l * (grid - t_kink))
        )
        scanned = stopped_program_costs(
            always_on_run(disease_free, RESOURCES_VARIANT1, tolerances), grid
        )
        np.testing.assert_allclose(scanned, a * used, rtol=1e-6, atol=0.0)
        assert int(np.argmin(scanned)) == 0
        assert objective(0.0, disease_free, RESOURCES_VARIANT1, tolerances) == 0.0

    @pytest.mark.parametrize("m", [0.2, 0.4])
    def test_last_point_is_the_cap_where_the_stock_runs_out(self, scenario, tolerances, m):
        resources = (0.1, 0.3, m)
        always_on = always_on_run(scenario, resources, tolerances)
        grid = scan_grid(scenario, resources, tolerances)
        assert grid[-1] == always_on.exhaustion_time < scenario.T
        last = run(float(grid[-1]), scenario, resources, tolerances)
        assert last.exhaustion_time == grid[-1]
        assert any(e.kind == EVENT_SUPPLY_EXHAUSTED for e in last.events)

    def test_rejects_unsorted_or_out_of_range_durations(self, full_program_traj):
        for taus in ([2.0, 1.0], [-1.0, 1.0], [1.0, 16.0]):
            with pytest.raises(ValidationError):
                stopped_program_costs(full_program_traj, np.array(taus))

    def test_a_failed_tail_solve_is_loud(self, full_program_traj, monkeypatch):
        def failing(*args, **kwargs):
            return SimpleNamespace(status=-1, message="required step size is less than spacing")

        monkeypatch.setattr(solver, "solve_ivp", failing)
        with pytest.raises(IntegrationError):
            stopped_program_costs(full_program_traj, np.array([1.0, 2.0]))


class TestExactPolish:
    """The answer is the always-on run cut at tau*, with no second integration."""

    @pytest.mark.parametrize(
        "resources", [RESOURCES_VARIANT1, (0.1, 0.3, 0.4)], ids=["variant1", "stock-0.4"]
    )
    def test_never_worse_than_any_exact_run_and_none_repeated(
        self, scenario, monkeypatch, resources
    ):
        cuts = []
        scanned = []
        cut = planner.stopped_program
        scan = planner.stopped_programs

        def recording(always_on, tau):
            cuts.append(tau)
            return cut(always_on, tau)

        def counting(always_on, taus, *args, **kwargs):
            scanned.append(len(taus))
            return scan(always_on, taus, *args, **kwargs)

        monkeypatch.setattr(planner, "stopped_program", recording)
        monkeypatch.setattr(planner, "stopped_programs", counting)
        result = minimize_tau(scenario, resources)
        # the one exact program is the answer, cut once
        assert cuts == [result.tau_star]
        assert result.cost_star == result.trajectory.J[-1]
        assert result.cost_star == objective(result.tau_star, scenario, resources)
        assert set(scanned) == {PRESCAN_POINTS}
        # the returned program counts as one evaluation, as the exact run it replaced did
        assert result.evaluations == sum(scanned) + 1

    @pytest.mark.parametrize(
        "scenario_name, resources",
        [
            ("scenario", RESOURCES_VARIANT1),
            ("scenario", (0.1, 0.3, 0.4)),
            ("scenario", RESOURCES_UNLIMITED),
            ("scenario", (0.1, 0.3, 0.0)),
            ("scenario", (0.0, 0.3, 0.5)),
            ("disease_free", RESOURCES_VARIANT1),
        ],
        ids=["variant1", "stock-0.4", "unlimited", "m-0", "k-0", "disease-free"],
    )
    def test_one_always_on_run_and_one_exact_run(
        self, request, monkeypatch, scenario_name, resources
    ):
        runs, cuts = [], []
        exact_integrate = planner.integrate
        cut = planner.stopped_program

        def counting(*args, **kwargs):
            runs.append(args[1].tau)
            return exact_integrate(*args, **kwargs)

        def recording(always_on, tau):
            cuts.append(tau)
            return cut(always_on, tau)

        monkeypatch.setattr(planner, "integrate", counting)
        monkeypatch.setattr(planner, "stopped_program", recording)
        scenario = request.getfixturevalue(scenario_name)
        result = minimize_tau(scenario, resources)
        # one integration per answer, the always-on run, even where tau* = 0
        assert runs == [scenario.T]
        assert cuts == [result.tau_star]
        assert result.cost_star == result.trajectory.J[-1]


class TestNestedScan:
    """The nested batched scans against the bounded-Brent polish they replaced.

    The frozen values are that polish's answers (tau*, J*) at the default
    tolerances, re-run on exact runs of the current solver.
    """

    BRENT_VARIANT1 = (6.929469700298203, 41.28118832341842)

    @pytest.mark.parametrize(
        "r, brent",
        [
            (10.0, BRENT_VARIANT1),
            (4.0, (3.6979353456826174, 3.088068289756702)),
            (25.0, (5.645656262933394, 64.52062438152615)),
        ],
        ids=["variant1", "variant1-r4", "variant1-r25"],
    )
    def test_agrees_with_the_brent_polish(self, scenario, r, brent):
        scenario = dataclasses.replace(
            scenario, epidemic=dataclasses.replace(scenario.epidemic, r=r)
        )
        result = minimize_tau(scenario, RESOURCES_VARIANT1)
        assert abs(result.tau_star - brent[0]) <= planner.DEFAULT_OPT_TOL
        assert result.cost_star == pytest.approx(brent[1], rel=1e-12, abs=0.0)

    def test_procurement_agrees_with_the_brent_polish(self, scenario):
        plan = procurement_plan(scenario, (0.1, 0.3))
        tau, cost = self.BRENT_VARIANT1
        assert abs(plan.tau_star - tau) <= planner.DEFAULT_OPT_TOL
        assert plan.cost_star == pytest.approx(cost, rel=1e-12, abs=0.0)

    # 0.05, 0.123456 and 0.2 run out on the capacity branch, 0.4 on the willingness
    # branch; at 0.005497495826377295's cap the program ends with V 5.2e-18 short
    # of m unless its stock-out is recorded at the cap itself and V pinned there.
    # The answer is the always-on run cut at the cap, which is that run's
    # recorded stock-out, so it records the stock-out there by construction
    @pytest.mark.parametrize("m", [0.005497495826377295, 0.05, 0.123456, 0.2, 0.4])
    def test_binding_stock_returns_the_cap_itself(self, scenario, m):
        resources = (0.1, 0.3, m)
        result = minimize_tau(scenario, resources)
        assert result.tau_star == feasible_tau_max(scenario, resources)
        # the exact run at the cap records the always-on run's stock-out and pins V there
        assert result.trajectory.exhaustion_time == result.tau_star
        assert result.indicators.total_vaccinated == m

    def test_optimum_next_to_the_rate_kink(self, scenario, tolerances):
        # a dose cost that puts tau* within 1e-3 of the switch from the
        # capacity to the willingness branch, where J'' jumps; the reference
        # is bounded Brent on exact runs across the switch
        scenario = dataclasses.replace(
            scenario, cost=dataclasses.replace(scenario.cost, a=76.288)
        )
        run = always_on_run(scenario, RESOURCES_UNLIMITED, tolerances)
        (kink,) = [e.time for e in run.events if e.kind == EVENT_RATE_KINK]
        result = minimize_tau(scenario, RESOURCES_UNLIMITED)
        assert abs(result.tau_star - kink) <= 1e-3 < scenario.T / (PRESCAN_POINTS - 1)
        reference = minimize_scalar(
            lambda tau: objective(float(tau), scenario, RESOURCES_UNLIMITED),
            bounds=(kink - 0.25, kink + 0.25),
            method="bounded",
            options={"xatol": 1e-6},
        )
        assert abs(result.tau_star - reference.x) <= planner.DEFAULT_OPT_TOL
        assert result.cost_star == pytest.approx(reference.fun, rel=1e-12, abs=0.0)

    def test_only_the_answer_builds_samples(self, scenario, monkeypatch):
        # the always-on run hands on its segments and builds no sample table
        merge = solver._merge_times
        calls = []

        def counted(*args):
            calls.append(args)
            return merge(*args)

        monkeypatch.setattr(solver, "_merge_times", counted)
        result = minimize_tau(scenario, RESOURCES_VARIANT1)
        assert len(calls) == 1
        # the answer's samples, built once, are read from then on
        assert result.trajectory.times[-1] == scenario.T
        assert len(calls) == 1

    def test_non_finite_scan_costs_are_loud(self, scenario, monkeypatch):
        # argmin would pick a NaN cost; the sample clamp refuses it first
        solve = solver._solve_tails

        def poisoned(*args, **kwargs):
            sol = solve(*args, **kwargs)
            sol.y[4, -1] = math.nan
            return sol

        monkeypatch.setattr(solver, "_solve_tails", poisoned)
        with pytest.raises(IntegrationError, match="not finite"):
            minimize_tau(scenario, RESOURCES_VARIANT1)


class TestProcurementPlan:
    def test_matches_the_frozen_plan(self, scenario):
        plan = procurement_plan(scenario, (0.1, 0.3))
        assert plan.tau_star == pytest.approx(TAU_OPT, abs=0.05)
        assert plan.indicators.total_vaccinated == pytest.approx(PROCUREMENT_STOCK, abs=2e-3)

    def test_disease_free_buys_nothing(self, disease_free):
        plan = procurement_plan(disease_free, (0.1, 0.3))
        assert (plan.tau_star, plan.indicators.total_vaccinated) == (0.0, 0.0)

    def test_no_capacity_buys_nothing(self, scenario):
        # with k = 0 or l = 0 nobody is vaccinated at any tau, so the plan is
        # the one run at tau = 0
        for resources in ((0.0, 0.3), (0.1, 0.0)):
            plan = procurement_plan(scenario, resources)
            assert plan.indicators.total_vaccinated == 0.0
            assert (plan.tau_star, plan.evaluations) == (0.0, 1)

    def test_capacity_above_willingness_is_irrelevant(self, scenario, tolerances):
        # with k > l*s everywhere the willingness branch binds throughout,
        # so doubling k cannot change the plan; the premise is checked first
        from sirdvax import VaccinationPolicy

        probe = integrate(
            scenario, VaccinationPolicy(k=0.5, l=0.3, m=math.inf, tau=15.0), tolerances
        )
        assert (0.3 * probe.s).max() < 0.5
        base = procurement_plan(scenario, (0.5, 0.3), tolerances)
        doubled = procurement_plan(scenario, (1.0, 0.3), tolerances)
        assert doubled.tau_star == pytest.approx(base.tau_star, abs=1e-12)
        assert doubled.indicators.total_vaccinated == pytest.approx(
            base.indicators.total_vaccinated, abs=1e-12
        )
