"""Integration, event location, dense output, and trajectory invariants."""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sirdvax.solver
from sirdvax import (
    CostParams,
    EVENT_EPIDEMIC_END,
    EVENT_PEAK,
    EVENT_PROGRAM_END,
    EVENT_RATE_KINK,
    EVENT_SUPPLY_EXHAUSTED,
    EpidemicParams,
    IntegrationError,
    Scenario,
    SirdState,
    Tolerances,
    VaccinationPolicy,
    ValidationError,
    feasible_tau_max,
    indicators,
    integrate,
    load_config,
)
from sirdvax.solver import (
    SAMPLE_POINTS,
    _clamp,
    _drift_band,
    _merge_times,
    _read_out,
    _sample,
)
from oracles import random_cases, rk4_reference

# frozen from a 1e-11/1e-13 adaptive run cross-checked against the fixed-step
# RK4 oracle (they agree to 6e-9)
V_TOTAL_UNCONSTRAINED = 0.4582025544
J_TOTAL_FULL_PROGRAM = 41.3812610212
KINK_TIME = 3.1113937823

VARIANT1 = load_config("variant1").scenario
# a random case whose stock runs out on the willingness branch at tau = 2.41254
RANDOM_269 = random_cases(600, seed=11)[269]


def event_times(traj, kind):
    return [e.time for e in traj.events if e.kind == kind]


MERGE_TOL = 1e-3


@st.composite
def merge_cases(draw):
    """A grid far coarser than ``MERGE_TOL`` and clusters of events near its points.

    Each cluster spans at most half the tolerance, lies near a grid point (an
    end point too) or anywhere, and keeps more than twice the tolerance from
    the others.  A cluster near the last grid point lies within the tolerance
    of it or not at all, so the end that absorbs its last event absorbs all.
    """
    grid = np.linspace(0.0, 1.0, draw(st.integers(2, 21)))
    clusters = []
    for _ in range(draw(st.integers(0, 4))):
        anchor = draw(st.sampled_from(grid.tolist()) | st.floats(0.0, 1.0))
        start = anchor + draw(st.floats(-MERGE_TOL, MERGE_TOL))
        spread = draw(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=3))
        cluster = np.clip(start + MERGE_TOL * np.array(spread), 0.0, 1.0)
        near_end = 1.0 - cluster <= MERGE_TOL
        assume(near_end.all() or not near_end.any())
        clusters.append(cluster)
    bounds = sorted((c.min(), c.max()) for c in clusters)
    assume(all(lo - hi > 2 * MERGE_TOL for (_, hi), (lo, _) in zip(bounds, bounds[1:])))
    events = [float(t) for c in clusters for t in c]
    return grid, draw(st.permutations(events))


class TestToleranceValidation:
    @pytest.mark.parametrize("field", ["rtol", "atol"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValidationError):
            Tolerances(**{field: 0.0})

    def test_defaults_are_valid(self):
        tol = Tolerances()
        assert tol.rtol > 0 and tol.atol > 0

    # never integrated: with rtol = inf integrate does not finish, and with
    # atol = inf it returns a J(T) 1.7% off on variant 1 at tau = 7.5
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["rtol", "atol"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValidationError, match=field):
            Tolerances(**{field: value})

    def test_rejects_rtol_below_the_solver_floor(self):
        # solve_ivp would raise it to 100 * eps with only a warning
        with pytest.raises(ValidationError, match="rtol"):
            Tolerances(rtol=1e-20)
        assert Tolerances(rtol=100 * np.finfo(float).eps).rtol > 0.0


class TestFullProgramRun:
    def test_covers_horizon_with_strictly_increasing_times(self, full_program_traj):
        t = full_program_traj.times
        assert t[0] == 0.0
        assert t[-1] == 15.0
        assert np.all(np.diff(t) > 0)

    def test_mass_conserved_at_every_sample(self, full_program_traj):
        total = full_program_traj.values[:, :4].sum(axis=1)
        assert np.abs(total - 1.0).max() <= 1e-6

    def test_monotone_columns(self, full_program_traj):
        traj = full_program_traj
        assert np.all(np.diff(traj.s) <= 0)
        for column in (traj.rho, traj.d, traj.J, traj.V):
            assert np.all(np.diff(column) >= 0)

    def test_total_usage_and_cost(self, full_program_traj):
        assert full_program_traj.V[-1] == pytest.approx(V_TOTAL_UNCONSTRAINED, abs=1e-4)
        assert full_program_traj.J[-1] == pytest.approx(J_TOTAL_FULL_PROGRAM, abs=1e-3)

    def test_kink_event_located(self, full_program_traj):
        (t_kink,) = event_times(full_program_traj, EVENT_RATE_KINK)
        assert t_kink == pytest.approx(KINK_TIME, abs=1e-3)
        # at the kink the willingness branch meets the capacity branch
        s_kink = full_program_traj.state_at(t_kink)[0]
        assert 0.3 * s_kink == pytest.approx(0.1, abs=1e-8)

    def test_program_end_marker(self, full_program_traj):
        assert event_times(full_program_traj, EVENT_PROGRAM_END) == [15.0]

    def test_no_exhaustion_without_a_binding_stock(self, variant1_traj, variant2_traj):
        assert event_times(variant1_traj, EVENT_SUPPLY_EXHAUSTED) == []
        assert event_times(variant2_traj, EVENT_SUPPLY_EXHAUSTED) == []

    def test_inactive_stock_levels_give_identical_runs(
        self, full_program_traj, variant1_traj, variant2_traj
    ):
        # neither bundled stock level is ever reached, so all three runs match
        assert np.array_equal(variant1_traj.values, variant2_traj.values)
        assert np.array_equal(variant1_traj.values, full_program_traj.values)

    def test_values_are_immutable(self, full_program_traj):
        with pytest.raises(ValueError):
            full_program_traj.values[0, 0] = 2.0


class TestSupplyExhaustion:
    def test_exhaustion_time_is_stock_over_capacity(self, tight_supply_traj):
        # v == k up to the crossing: s stays above k/l (checked below), so the
        # usage integral is k*t and the stock m = 0.2 runs out at exactly m/k
        (t_e,) = event_times(tight_supply_traj, EVENT_SUPPLY_EXHAUSTED)
        assert t_e == pytest.approx(2.0, abs=1e-6)
        s_at = tight_supply_traj.state_at
        assert min(s_at(t)[0] for t in np.linspace(0.0, t_e, 50)) >= 1.0 / 3.0

    def test_usage_meets_the_stock_at_the_event(self, tight_supply_traj):
        (t_e,) = event_times(tight_supply_traj, EVENT_SUPPLY_EXHAUSTED)
        assert abs(tight_supply_traj.state_at(t_e)[5] - 0.2) <= 1e-11

    def test_usage_never_exceeds_the_stock(self, tight_supply_traj):
        # the located stock-out pins V to the stock exactly, at and between samples
        traj = tight_supply_traj
        after = traj.times >= traj.exhaustion_time
        assert traj.V.max() == 0.2 and np.all(traj.V[after] == 0.2)
        between = np.linspace(traj.exhaustion_time, 15.0, 37)
        assert all(traj.state_at(float(t))[5] == 0.2 for t in [*traj.times[after], *between])

    def test_vaccination_stops_at_exhaustion(self, tight_supply_traj):
        (t_e,) = event_times(tight_supply_traj, EVENT_SUPPLY_EXHAUSTED)
        assert tight_supply_traj.rate_at(t_e - 1e-6) > 0.0
        for t in (t_e, t_e + 1e-9, 5.0, 10.0, 15.0):
            assert tight_supply_traj.rate_at(t) == 0.0

    @pytest.mark.parametrize(
        "scenario, resources",
        [
            pytest.param(VARIANT1, (0.1, 0.3, 0.2), id="capacity-branch"),
            pytest.param(VARIANT1, (0.1, 0.3, 0.4), id="willingness-branch"),
            # its run at tau ended the program 1.3e-9 short of m when the last
            # program step was clipped to tau, and recorded no stock-out
            pytest.param(
                RANDOM_269[0],
                (RANDOM_269[1].k, RANDOM_269[1].l, RANDOM_269[1].m),
                id="random-case-269",
            ),
        ],
    )
    def test_program_ending_as_the_stock_runs_out_records_exhaustion(self, scenario, resources):
        # tau is the longest program the stock sustains, so the stock runs out
        # exactly as the program ends: the run at tau takes the always-on
        # run's steps and locates the same stock-out
        tau = feasible_tau_max(scenario, resources)
        traj = integrate(scenario, VaccinationPolicy(*resources, tau=tau))
        assert event_times(traj, EVENT_SUPPLY_EXHAUSTED) == [tau]
        assert traj.exhaustion_time == tau
        assert traj.rate_at(tau) == 0.0

    def test_program_ending_one_ulp_before_the_stock_out_records_none(self, scenario):
        # the stock runs out one ulp after the program ends, so it never runs
        # out: no stock-out is recorded and V is not pinned to m
        resources = (0.1, 0.3, 0.2)
        cap = feasible_tau_max(scenario, resources)
        traj = integrate(scenario, VaccinationPolicy(*resources, tau=math.nextafter(cap, 0.0)))
        assert event_times(traj, EVENT_SUPPLY_EXHAUSTED) == []
        assert traj.exhaustion_time is None
        assert traj.V[-1] < 0.2

    def test_stock_running_out_at_the_horizon(self, disease_free):
        # with no infection V = k*t, so m = k*T runs out at T, where the
        # stock-out is located; the empty unvaccinated segment after it
        # holds V at m.  At T = 2.02 the fall is located in the last ulp
        # below u = 1 of the capacity stage.
        k = 0.3
        for T in (2.02, 2.0):
            traj = integrate(
                dataclasses.replace(disease_free, T=T), VaccinationPolicy(k=k, l=1.0, m=k * T, tau=T)
            )
            assert traj.exhaustion_time == T
            assert traj.segments[-1][:2] == (T, T)
            assert traj.V[-1] == traj.state_at(T)[5] == k * T

    def test_zero_stock_never_vaccinates(self, scenario):
        policy = VaccinationPolicy(k=0.1, l=0.3, m=0.0, tau=15.0)
        traj = integrate(scenario, policy)
        assert event_times(traj, EVENT_SUPPLY_EXHAUSTED) == [0.0]
        assert traj.V[-1] == 0.0


class TestDegenerateRuns:
    def test_disease_free_is_constant(self, disease_free):
        policy = VaccinationPolicy(k=0.1, l=0.3, m=0.0, tau=0.0)
        traj = integrate(disease_free, policy)
        assert np.array_equal(traj.values, np.tile(traj.values[0], (len(traj.times), 1)))
        assert traj.values[0, 0] == 0.999

    def test_policy_none_runs_uncontrolled(self, unvaccinated_traj):
        assert unvaccinated_traj.V[-1] == 0.0
        assert event_times(unvaccinated_traj, EVENT_PROGRAM_END) == []
        assert unvaccinated_traj.rate_at(1.0) == 0.0

    def test_tau_beyond_horizon_rejected(self, scenario):
        # VaccinationPolicy refuses tau < 0 and NaN; integrate refuses tau > T
        for tau in (16.0, math.inf):
            with pytest.raises(ValidationError, match="tau must lie in"):
                integrate(scenario, VaccinationPolicy(k=0.1, l=0.3, m=1.0, tau=tau))


class TestEpidemicEndEvent:
    def test_marker_recorded_once_infections_die_out(self, epidemic, cost):
        long_scenario = Scenario(
            epidemic=epidemic,
            cost=cost,
            initial=SirdState(s=0.999, i=0.001, rho=0.0, d=0.0),
            T=25.0,
        )
        traj = integrate(long_scenario, VaccinationPolicy(0.0, 0.0, 0.0, 0.0))
        (t_end,) = event_times(traj, EVENT_EPIDEMIC_END)
        assert 15.0 < t_end < 25.0
        assert traj.state_at(t_end)[1] == pytest.approx(1e-6, rel=1e-3)

    @settings(max_examples=100, deadline=None)
    @given(
        case=st.sampled_from(random_cases(20)),
        i0=st.sampled_from([None, 0.0, 5e-7, 1e-3]),
        subcritical=st.booleans(),
        stretch=st.sampled_from([1.0, 4.0]),
    )
    def test_at_most_one_end_never_before_the_peak(self, case, i0, subcritical, stretch):
        # di/dt = i*(beta_e*s - 1) has no vaccination term and s never
        # increases, so i is unimodal and falls through the threshold once.
        # A horizon stretched 4x holds the end in about half the runs, not 1/7
        scenario, policy = case
        initial = scenario.initial
        if i0 is not None:
            initial = SirdState(s=1.0 - i0 - initial.rho, i=i0, rho=initial.rho, d=0.0)
        epidemic = scenario.epidemic
        if subcritical:
            # beta_e*s0 = 0.9: i never rises
            r = 0.9 / (-math.log1p(-epidemic.eps) * initial.s)
            epidemic = dataclasses.replace(epidemic, r=r)
        scenario = dataclasses.replace(
            scenario, epidemic=epidemic, initial=initial, T=stretch * scenario.T
        )
        traj = integrate(scenario, policy)
        ends = event_times(traj, EVENT_EPIDEMIC_END)
        (t_peak,) = event_times(traj, EVENT_PEAK)
        assert len(ends) <= 1
        assert all(t_end >= t_peak for t_end in ends)

    def test_no_marker_within_short_horizon(self, full_program_traj):
        # infections are still just above the threshold at T = 15
        assert event_times(full_program_traj, EVENT_EPIDEMIC_END) == []
        assert full_program_traj.i[-1] > 1e-6


class TestPeakEvent:
    """The peak of i is located where beta_e*s falls through 1."""

    @staticmethod
    def assert_located_peak(traj):
        """One peak event, on the crossing, at the maximum the RK4 oracle finds."""
        (t_peak,) = event_times(traj, EVENT_PEAK)
        ind = indicators(traj)
        assert ind.peak_time == t_peak
        beta_e = traj.scenario.epidemic.transmission_rate
        assert abs(beta_e * traj.state_at(t_peak)[0] - 1.0) <= 1e-9
        assert ind.peak_i >= traj.i.max()
        # the RK4 oracle at h = 1e-4 is accurate far below this bound
        ref = rk4_reference(traj.scenario, traj.policy, 1e-4, [t_peak])[-1]
        assert ind.peak_i == pytest.approx(ref[1], rel=0.0, abs=1e-8)
        return t_peak

    def test_bundled_variants(self, variant1_traj, variant2_traj):
        for traj in (variant1_traj, variant2_traj):
            assert 0.0 < self.assert_located_peak(traj) < traj.scenario.T

    def test_exactly_one_peak_per_run(self, full_program_traj, unvaccinated_traj):
        runs = [full_program_traj, unvaccinated_traj]
        runs += [integrate(scenario, policy) for scenario, policy in random_cases(20)]
        for traj in runs:
            (t_peak,) = event_times(traj, EVENT_PEAK)
            assert indicators(traj).peak_i >= traj.i.max()
            if 0.0 < t_peak < traj.scenario.T:
                beta_e = traj.scenario.epidemic.transmission_rate
                assert abs(beta_e * traj.state_at(t_peak)[0] - 1.0) <= 1e-9

    def test_no_rise_peaks_at_zero(self, epidemic, cost, disease_free):
        subcritical = Scenario(
            epidemic=dataclasses.replace(epidemic, r=0.5),
            cost=cost,
            initial=SirdState(s=0.999, i=0.001, rho=0.0, d=0.0),
            T=15.0,
        )
        assert subcritical.epidemic.transmission_rate * subcritical.initial.s <= 1.0
        for scenario in (subcritical, disease_free):
            traj = integrate(scenario, VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=15.0))
            assert event_times(traj, EVENT_PEAK) == [0.0]
            ind = indicators(traj)
            assert (ind.peak_time, ind.peak_i) == (0.0, scenario.initial.i)

    def test_rise_through_the_horizon_peaks_at_the_end(self, epidemic, cost):
        # the bundled epidemic peaks near t = 3.3; stop the horizon before it
        short = Scenario(
            epidemic=epidemic,
            cost=cost,
            initial=SirdState(s=0.999, i=0.001, rho=0.0, d=0.0),
            T=2.0,
        )
        traj = integrate(short, VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=2.0))
        assert event_times(traj, EVENT_PEAK) == [2.0]
        assert indicators(traj).peak_i == traj.i[-1] == traj.i.max()

    @pytest.mark.parametrize("switch", ["program-end", "stock-out", "rate-kink"])
    def test_crossing_on_a_switch(self, scenario, full_program_traj, switch):
        (t_peak,) = event_times(full_program_traj, EVENT_PEAK)
        if switch == "program-end":
            policy = VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=t_peak)
        elif switch == "stock-out":
            used = full_program_traj.state_at(t_peak)[5]
            policy = VaccinationPolicy(k=0.1, l=0.3, m=used, tau=15.0)
        else:
            # l*s = k where beta_e*s = 1 when l = k*beta_e
            beta_e = scenario.epidemic.transmission_rate
            policy = VaccinationPolicy(k=0.1, l=0.1 * beta_e, m=math.inf, tau=15.0)
        traj = integrate(scenario, policy)
        t_located = self.assert_located_peak(traj)
        kind = {
            "program-end": EVENT_PROGRAM_END,
            "stock-out": EVENT_SUPPLY_EXHAUSTED,
            "rate-kink": EVENT_RATE_KINK,
        }[switch]
        (t_switch,) = event_times(traj, kind)
        assert t_located == pytest.approx(t_switch, rel=0.0, abs=1e-8)

    @pytest.mark.parametrize(
        "case",
        [random_cases(11, seed=7)[10], random_cases(43, seed=7)[42]],
        ids=["case-10", "case-42"],
    )
    def test_program_ending_one_ulp_before_the_peak(self, case):
        # the program ends one ulp before the always-on run's peak, where
        # beta_e*s may already read at or below 1: the peak is recorded once,
        # on one side of the program end
        scenario, policy = case
        always_on = indicators(integrate(scenario, dataclasses.replace(policy, tau=scenario.T)))
        tau = math.nextafter(always_on.peak_time, 0.0)
        assert math.nextafter(tau, math.inf) == always_on.peak_time
        traj = integrate(scenario, dataclasses.replace(policy, tau=tau))
        assert len(event_times(traj, EVENT_PEAK)) == 1
        ind = indicators(traj)
        assert ind.peak_time == pytest.approx(always_on.peak_time, rel=0.0, abs=1e-9)
        assert ind.peak_i == pytest.approx(always_on.peak_i, rel=0.0, abs=1e-9)


class TestDenseOutput:
    def test_initial_state_exact(self, full_program_traj, scenario):
        row = full_program_traj.state_at(0.0)
        assert tuple(row) == (*dataclasses.astuple(scenario.initial), 0.0, 0.0)

    def test_sample_points_exact(self, full_program_traj, tight_supply_traj):
        for traj in (full_program_traj, tight_supply_traj):
            for t, row in zip(traj.times, traj.values):
                assert np.array_equal(traj.state_at(float(t)), row)

    def test_out_of_range_rejected(self, full_program_traj):
        with pytest.raises(ValidationError):
            full_program_traj.state_at(-1e-9)
        with pytest.raises(ValidationError):
            full_program_traj.state_at(15.0 + 1e-9)

    def test_nan_time_rejected(self, full_program_traj):
        with pytest.raises(ValidationError):
            full_program_traj.state_at(math.nan)
        with pytest.raises(ValidationError):
            full_program_traj.rate_at(math.nan)

    def test_samples_start_at_zero_with_an_event_just_after_it(self, scenario):
        traj = integrate(scenario, VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=1e-13))
        assert event_times(traj, EVENT_PROGRAM_END) == [1e-13]
        assert traj.times[0] == 0.0
        assert tuple(traj.values[0]) == (*dataclasses.astuple(scenario.initial), 0.0, 0.0)

    def test_samples_end_at_the_horizon_with_an_event_just_before_it(self, scenario):
        tau = 15.0 - 1e-11
        traj = integrate(scenario, VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=tau))
        assert event_times(traj, EVENT_PROGRAM_END) == [tau]
        assert traj.times[-1] == 15.0
        assert tuple(traj.values[-1]) == tuple(traj.state_at(15.0))

    def test_merged_times_keep_both_ends(self):
        # 0.005 lies within tol of 0, and 0.993 moves the sample at 0.985 to
        # within tol of 1: both ends stay
        times = _merge_times(np.array([0.0, 0.5, 1.0]), [0.005, 0.985, 0.993], 0.01)
        assert times.tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize(
        ("events", "kept"), [([0.495, 0.503], 0.503), ([0.508, 0.517], 0.517)]
    )
    def test_grid_point_near_a_replaced_event_gives_way(self, events, kept):
        # 0.5 lies within tol of the first event, which the second replaces:
        # 0.5 goes, also where the second lies farther than tol from it
        times = _merge_times(np.array([0.0, 0.5, 1.0]), events, 0.01)
        assert times.tolist() == [0.0, kept, 1.0]

    @given(case=merge_cases())
    @settings(max_examples=300, deadline=None)
    def test_merged_times_cover_grid_and_events(self, case):
        grid, events = case
        times = _merge_times(grid, events, MERGE_TOL)
        assert times[0] == grid[0] and times[-1] == grid[-1]
        assert np.all(np.diff(times) > MERGE_TOL)
        for t in events:
            assert np.abs(times - t).min() <= MERGE_TOL
        for g in grid:
            assert g in times or any(abs(g - t) <= MERGE_TOL for t in events)

    def test_peak_just_after_zero_is_read_at_zero(self, cost):
        # beta_e*s0 = 1 + 1e-13: i peaks about 1e-13 after the start
        eps = 0.3
        r = (2.0 + 2e-13) / -math.log1p(-eps)
        epidemic = EpidemicParams(alpha=0.95, beta=0.05, r=r, eps=eps)
        scenario = Scenario(epidemic, cost, SirdState(s=0.5, i=0.5, rho=0.0, d=0.0), T=15.0)
        traj = integrate(scenario, VaccinationPolicy(0.0, 0.0, 0.0, 0.0))
        (t_peak,) = event_times(traj, EVENT_PEAK)
        assert 0.0 < t_peak < 1e-12
        assert traj.times[0] == 0.0
        assert indicators(traj).peak_i == traj.i[0] == 0.5

    def test_between_samples_tracks_a_tighter_reference(self, scenario, tolerances):
        policy = VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=15.0)
        coarse = integrate(scenario, policy, tolerances)
        tight = integrate(
            scenario,
            policy,
            Tolerances(rtol=tolerances.rtol / 10.0, atol=tolerances.atol / 10.0),
        )
        # interpolation error stays within a small multiple of the local
        # tolerance scale; the factor absorbs global error amplification
        rng = np.random.default_rng(7)
        for t in rng.uniform(0.0, 15.0, size=40):
            y = coarse.state_at(float(t))
            y_ref = tight.state_at(float(t))
            bound = 50.0 * (tolerances.rtol * np.abs(y_ref) + tolerances.atol)
            assert np.all(np.abs(y - y_ref) <= bound)


class TestRateColumn:
    """The rate column of whole runs, against the rule read one time at a time."""

    @pytest.mark.parametrize("tau", [0.0, 3.0, 7.5, 15.0])
    @pytest.mark.parametrize("m", [0.2, 0.4, math.inf])
    def test_rates_follow_the_program(self, m, tau):
        traj = integrate(VARIANT1, VaccinationPolicy(k=0.1, l=0.3, m=m, tau=tau))
        rates = traj.rates
        assert rates.tolist() == [traj.rate_at(t) for t in traj.times]
        stock_out = math.inf if traj.exhaustion_time is None else traj.exhaustion_time
        on = traj.times < min(tau, stock_out)
        assert np.all(rates[~on] == 0.0)
        assert np.all(rates[on] > 0.0)


class TestAccuracy:
    def test_halving_tolerances_moves_the_final_state_less_than_rtol(
        self, scenario, tolerances
    ):
        policy = VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=15.0)
        coarse = integrate(scenario, policy, tolerances)
        fine = integrate(
            scenario,
            policy,
            Tolerances(rtol=tolerances.rtol / 2.0, atol=tolerances.atol / 2.0),
        )
        diff = np.abs(coarse.values[-1] - fine.values[-1])
        assert diff[:4].max() < tolerances.rtol
        # the cost and usage accumulators are not unit-scale; compare on the
        # error-control scale rtol*|y| + atol
        scale = tolerances.rtol * np.abs(fine.values[-1][4:]) + tolerances.atol
        assert np.all(diff[4:] <= 2.0 * scale)

    def test_agrees_with_fixed_step_reference(self, scenario, full_program_traj):
        # h = 1e-3 keeps this quick; the acceptance suite runs h = 1e-4
        policy = VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=15.0)
        ref = rk4_reference(scenario, policy, 1e-3, full_program_traj.times)
        err = np.abs(full_program_traj.values[:, :4] - ref[:, :4]).max()
        assert err <= 1e-4

    def test_reference_resolves_supply_exhaustion(self, scenario, tight_supply_traj):
        policy = VaccinationPolicy(k=0.1, l=0.3, m=0.2, tau=15.0)
        ref = rk4_reference(scenario, policy, 1e-3, tight_supply_traj.times)
        err = np.abs(tight_supply_traj.values[:, :4] - ref[:, :4]).max()
        assert err <= 1e-4
        assert abs(ref[-1, 5] - 0.2) <= 1e-9


class TestRateBranches:
    """Runs whose rate kink meets t = 0, the program end or the stock-out."""

    @staticmethod
    def assert_matches_reference(traj):
        # the RK4 oracle at h = 1e-4 resolves the switches far below these bounds
        ref = rk4_reference(traj.scenario, traj.policy, 1e-4, [traj.scenario.T])[-1]
        assert traj.J[-1] == pytest.approx(ref[4], rel=1e-7, abs=0.0)
        assert traj.V[-1] == pytest.approx(ref[5], rel=0.0, abs=1e-8)

    @pytest.mark.parametrize("tau", [12.142857, 15.0])
    def test_disease_free_kink_at_the_closed_form(self, disease_free, tau):
        # with no infection s falls at exactly k until l*s = k
        traj = integrate(disease_free, VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=tau))
        s0 = disease_free.initial.s
        (t_kink,) = event_times(traj, EVENT_RATE_KINK)
        assert t_kink == pytest.approx((s0 - 0.1 / 0.3) / 0.1, rel=0.0, abs=1e-12)

    def test_willingness_branch_from_the_start_when_l_s0_equals_k(self, epidemic, cost):
        low = Scenario(
            epidemic=epidemic,
            cost=cost,
            initial=SirdState(s=0.5, i=0.001, rho=0.499, d=0.0),
            T=15.0,
        )
        assert 0.2 * low.initial.s == 0.1
        traj = integrate(low, VaccinationPolicy(k=0.1, l=0.2, m=math.inf, tau=15.0))
        assert event_times(traj, EVENT_RATE_KINK) == []
        # s falls from the start, so usage lags the capacity k*t at once
        assert traj.state_at(1.0)[5] < 0.1 * 1.0 - 1e-3
        self.assert_matches_reference(traj)

    def test_program_ending_at_the_kink(self, scenario, full_program_traj):
        (t_kink,) = event_times(full_program_traj, EVENT_RATE_KINK)
        traj = integrate(scenario, VaccinationPolicy(k=0.1, l=0.3, m=math.inf, tau=t_kink))
        assert event_times(traj, EVENT_PROGRAM_END) == [t_kink]
        assert event_times(traj, EVENT_SUPPLY_EXHAUSTED) == []
        assert all(abs(t - t_kink) <= 1e-12 for t in event_times(traj, EVENT_RATE_KINK))
        self.assert_matches_reference(traj)

    def test_stock_running_out_at_the_kink(self, scenario, full_program_traj):
        # usage grows at exactly k up to the kink, so m = k*t_kink runs out there
        (t_kink,) = event_times(full_program_traj, EVENT_RATE_KINK)
        traj = integrate(scenario, VaccinationPolicy(k=0.1, l=0.3, m=0.1 * t_kink, tau=15.0))
        (t_out,) = event_times(traj, EVENT_SUPPLY_EXHAUSTED)
        assert t_out == pytest.approx(t_kink, rel=1e-12)
        assert traj.exhaustion_time == t_out
        assert event_times(traj, EVENT_PROGRAM_END) == [15.0]
        self.assert_matches_reference(traj)


class TestOracleAtTheHorizon:
    """Edge cases against the RK4 oracle over the whole bundled horizon T = 15."""

    @pytest.mark.parametrize(
        "r, resources, tau",
        [
            # the program ends inside a long step of the always-on run
            pytest.param(4.0, (0.1, 0.3, math.inf), 3.697935, id="r4-program-end"),
            pytest.param(10.0, (0.1, 0.3, 1e-6), 15.0, id="tiny-stock"),
            pytest.param(10.0, (0.0, 0.3, 0.2), 15.0, id="no-capacity"),
        ],
    )
    def test_final_cost_and_usage(self, scenario, r, resources, tau):
        scenario = dataclasses.replace(
            scenario, epidemic=dataclasses.replace(scenario.epidemic, r=r)
        )
        policy = VaccinationPolicy(*resources, tau=tau)
        traj = integrate(scenario, policy)
        ref = rk4_reference(scenario, policy, 1e-4, [scenario.T])[-1]
        assert traj.J[-1] == pytest.approx(ref[4], rel=1e-8, abs=0.0)
        assert traj.V[-1] == pytest.approx(ref[5], rel=0.0, abs=1e-8)


def count_solves(scenario, policy):
    """integrate's trajectory and the number of solve_ivp calls it made."""
    solver = sirdvax.solver
    with mock.patch.object(solver, "solve_ivp", wraps=solver.solve_ivp) as spy:
        traj = integrate(scenario, policy)
    return traj, spy.call_count


class TestSegmentSequence:
    """integrate solves at most three segments: capacity, willingness, off."""

    @pytest.mark.parametrize(
        "s0, resources, solves",
        [
            pytest.param(0.999, (0.1, 0.3, 2.949, 15.0), 2, id="variant1-full-program"),
            pytest.param(0.999, (0.1, 0.3, 2.949, 7.5), 3, id="variant1-tau-7.5"),
            pytest.param(0.999, (0.1, 0.3, 0.2, 15.0), 2, id="stock-0.2"),
            pytest.param(0.999, (0.1, 0.3, 0.4, 15.0), 3, id="stock-0.4"),
            pytest.param(0.5, (0.1, 0.2, math.inf, 15.0), 1, id="l-s0-equals-k"),
            pytest.param(0.5, (0.1, 0.2, math.inf, 7.5), 2, id="l-s0-equals-k-tau-7.5"),
            pytest.param(0.999, (0.0, 0.0, 0.0, 0.0), 1, id="no-policy"),
            pytest.param(0.999, (0.1, 0.3, 2.949, 0.0), 1, id="tau-0"),
            pytest.param(0.999, (0.1, 0.3, 0.0, 15.0), 1, id="m-0"),
        ],
    )
    def test_solve_count(self, epidemic, cost, s0, resources, solves):
        # a program over the whole horizon has no unvaccinated segment unless
        # its stock runs out; with l*s0 = k there is no capacity segment
        scenario = Scenario(
            epidemic=epidemic,
            cost=cost,
            initial=SirdState(s=s0, i=0.001, rho=0.999 - s0, d=0.0),
            T=15.0,
        )
        assert count_solves(scenario, VaccinationPolicy(*resources))[1] == solves

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.sampled_from([0.0, 1e-4, 0.1, math.inf]),
        l=st.sampled_from([0.0, 1e-4, 0.3, 1.0]),
        m=st.sampled_from([0.0, 1e-6, 0.2, math.inf]),
        duration=st.sampled_from(["zero", "horizon", "stock-over-capacity"]),
        i0=st.sampled_from([0.0, 1e-3]),
        T=st.sampled_from([1e-13, 1e-10, 1e-3, 15.0]),
    )
    def test_invariants_on_degenerate_parameters(self, k, l, m, duration, i0, T):
        tau = {"zero": 0.0, "horizon": T}.get(duration)
        if tau is None:
            # the stock runs out at m/k on the capacity branch
            tau = T if k == 0.0 or math.isinf(m) else min(m / k, T)
        scenario = Scenario(
            epidemic=EpidemicParams(alpha=0.95, beta=0.05, r=10.0, eps=0.3),
            cost=CostParams(a=5.0, b=50.0, c=500.0),
            initial=SirdState(s=1.0 - i0, i=i0, rho=0.0, d=0.0),
            T=T,
        )
        policy = VaccinationPolicy(k=k, l=l, m=m, tau=tau)
        traj, solves = count_solves(scenario, policy)
        assert solves <= 3
        assert traj.times[-1] == T and len(traj.times) >= SAMPLE_POINTS
        times = [e.time for e in traj.events]
        assert times == sorted(times)
        assert [e.kind for e in traj.events].count(EVENT_PEAK) == 1
        # worst residual seen over every combination: 8.9e-16
        assert np.abs(traj.values[:, :4].sum(axis=1) - 1.0).max() <= 1e-12
        # rho, d, J and V never decrease between samples
        assert np.all(np.diff(traj.values[:, 2:], axis=0) >= 0.0)
        if traj.exhaustion_time is not None:
            # every recorded stock-out pins V to m
            assert np.all(traj.V[traj.times >= traj.exhaustion_time] == m)
        if T < 1.0:
            # the RK4 oracle is cheap on a tiny horizon; worst J(T) gap seen 3.6e-14
            ref = rk4_reference(scenario, policy, T / 1000.0, [T])[-1]
            assert traj.J[-1] == pytest.approx(ref[4], rel=1e-8, abs=1e-300)
            assert traj.V[-1] == pytest.approx(ref[5], rel=0.0, abs=1e-12)


class TestStoredState:
    """integrate solves (s, i, q, V); rho, d and J are read off it."""

    @pytest.mark.parametrize(
        "policy",
        [
            pytest.param(VaccinationPolicy(0.1, 0.3, 2.949, 7.5), id="variant1-tau-7.5"),
            pytest.param(VaccinationPolicy(0.1, 0.3, 0.4, 15.0), id="stock-0.4"),
        ],
    )
    def test_trajectory_does_not_depend_on_the_costs(self, scenario, policy):
        runs = [
            integrate(dataclasses.replace(scenario, cost=cost), policy)
            for cost in (CostParams(5.0, 50.0, 500.0), CostParams(0.0, 1.0, 2000.0))
        ]
        assert np.array_equal(runs[0].times, runs[1].times)
        assert runs[0].events == runs[1].events
        same = [0, 1, 2, 3, 5]  # s, i, rho, d, V
        assert np.array_equal(runs[0].values[:, same], runs[1].values[:, same])
        assert not np.array_equal(runs[0].J, runs[1].J)


class TestAlwaysOnPrefix:
    """A program of duration tau is the always-on run (tau = T) until tau."""

    @pytest.mark.parametrize("m", [0.2, 0.4, math.inf])
    def test_samples_up_to_tau_are_the_always_on_run(self, scenario, tolerances, m):
        resources = (0.1, 0.3, m)
        always_on = integrate(scenario, VaccinationPolicy(*resources, tau=scenario.T))
        cap = feasible_tau_max(scenario, resources)
        for tau in sorted({*np.linspace(0.0, scenario.T, 12).tolist(), cap}):
            traj = integrate(scenario, VaccinationPolicy(*resources, tau=tau))
            upto = traj.times[traj.times <= tau]
            expected = _read_out(
                _clamp(_sample(always_on.segments, upto), tolerances.atol), scenario
            )
            assert np.array_equal(traj.values[: len(upto)], expected), tau
            if always_on.exhaustion_time is not None and always_on.exhaustion_time < tau:
                assert traj.exhaustion_time == always_on.exhaustion_time


# the stock 0.005497495826377295 runs out within 5.2e-18 of V = m at its cap
STOPPED_PROGRAM_STOCKS = (0.0, 0.005497495826377295, 0.2, 0.4, math.inf)


def stopped_program_cases():
    """(id, scenario, resources): variant 1 at five stocks, k = 0, disease-free, a small i(0), random k, l > 0."""
    disease_free = dataclasses.replace(
        VARIANT1, initial=SirdState(s=0.999, i=0.0, rho=0.001, d=0.0)
    )
    cases = [(f"m-{m}", VARIANT1, (0.1, 0.3, m)) for m in STOPPED_PROGRAM_STOCKS]
    # infections start below the end threshold and end within the horizon
    small_i0 = dataclasses.replace(VARIANT1, initial=SirdState(s=1.0 - 5e-7, i=5e-7, rho=0.0, d=0.0), T=40.0)
    cases += [("k-0", VARIANT1, (0.0, 0.3, 2.949)), ("disease-free", disease_free, (0.1, 0.3, 2.949))]
    cases.append(("small-i0", small_i0, (0.1, 0.3, 0.4)))
    cases += [
        (f"random-{n}", scenario, (policy.k, policy.l, policy.m))
        for n, (scenario, policy) in enumerate(random_cases(40, seed=7))
        if policy.k > 0.0 and policy.l > 0.0
    ]
    return [pytest.param(scenario, resources, id=name) for name, scenario, resources in cases]


def stopped_program_taus(always_on, cap):
    """0, the cap and its lower neighbour, five interior durations, and each always-on mark up to the cap.

    The marks are the always-on run's kink, stock-out, peak and end, each
    with both its float neighbours: a program may end on a crossing or
    just either side of it, where one rounding rule decides which side it
    is recorded on.
    """
    marks = [e.time for e in always_on.events if e.kind != EVENT_PROGRAM_END]
    near = [t for mark in marks for t in (math.nextafter(mark, 0.0), mark, math.nextafter(mark, math.inf))]
    interior = np.linspace(0.0, cap, 7)[1:-1].tolist()
    return sorted({0.0, math.nextafter(cap, 0.0), cap, *interior, *(t for t in near if t <= cap)})


class TestStoppedProgram:
    """``stopped_program`` cuts the always-on run at tau; it is ``integrate`` at tau bit for bit."""

    @pytest.mark.parametrize("scenario, resources", stopped_program_cases())
    def test_the_cut_is_the_integrated_program(self, scenario, resources):
        always_on = integrate(scenario, VaccinationPolicy(*resources, tau=scenario.T))
        for tau in stopped_program_taus(always_on, feasible_tau_max(scenario, resources)):
            cut = sirdvax.solver.stopped_program(always_on, tau)
            run = integrate(scenario, VaccinationPolicy(*resources, tau=tau))
            assert np.array_equal(cut.times, run.times), tau
            assert np.array_equal(cut.values, run.values), tau
            assert cut.events == run.events, tau
            assert cut.exhaustion_time == run.exhaustion_time, tau
            assert [seg[:2] for seg in cut.segments] == [seg[:2] for seg in run.segments], tau
            assert cut.policy == run.policy

    @pytest.mark.parametrize("scenario, resources", stopped_program_cases())
    def test_a_one_duration_sweep_is_the_integrated_program(self, scenario, resources):
        # integrate runs the tail the tau sweep runs for each of its rows
        always_on = integrate(scenario, VaccinationPolicy(*resources, tau=scenario.T))
        for tau in stopped_program_taus(always_on, feasible_tau_max(scenario, resources)):
            run = integrate(scenario, VaccinationPolicy(*resources, tau=tau))
            row = sirdvax.solver.stopped_programs(always_on, [tau], crossings=True)
            assert run.values[-1].tobytes() == row.final[0].tobytes(), tau
            crossings = np.array([row.peak_time[0], row.peak_i[0], row.end_time[0]])
            assert np.array(run.peak_and_end()).tobytes() == crossings.tobytes(), tau

    def test_refuses_a_duration_outside_the_horizon(self, full_program_traj):
        for tau in (-1.0, 16.0, math.nan):
            with pytest.raises(ValidationError):
                sirdvax.solver.stopped_program(full_program_traj, tau)

    def test_refuses_a_run_that_is_not_always_on(self):
        # cut from a run that stopped at 5, a program of duration 10 would
        # record a kink at 5 and a positive rate on [5, 10] while V stays flat
        resources = load_config("variant1").resources
        short = integrate(VARIANT1, VaccinationPolicy(*resources, tau=5.0))
        with pytest.raises(ValidationError, match="always-on run"):
            sirdvax.solver.stopped_program(short, 10.0)


class TestSharedTailStage:
    """``stopped_programs`` with crossings runs the stacked runs' unvaccinated stage on its tails."""

    @staticmethod
    def always_on_cases():
        """(id, scenario, resources, durations): the variants over two tail chunks, random runs over one."""
        cases = []
        for name in ("variant1", "variant2"):
            config = load_config(name)
            for m in (0.2, 0.4, math.inf):
                cases.append((f"{name}-m{m}", config.scenario, (config.k, config.l, m), 300))
        for n, (scenario, policy) in enumerate(random_cases(40, seed=7)):
            cases.append((f"random-{n}", scenario, (policy.k, policy.l, policy.m), 37))
        return [pytest.param(*case[1:], id=case[0]) for case in cases]

    @pytest.mark.parametrize("scenario, resources, durations", always_on_cases())
    def test_final_states_are_the_scans_bit_for_bit(self, scenario, resources, durations):
        # the planner's scan costs and the tau sweep's rows come from the same numbers
        always_on = integrate(scenario, VaccinationPolicy(*resources, tau=scenario.T))
        taus = np.linspace(0.0, scenario.T, durations)
        scan = sirdvax.solver.stopped_programs(always_on, taus)
        swept = sirdvax.solver.stopped_programs(always_on, taus, crossings=True)
        assert swept.final.tobytes() == scan.final.tobytes()

    @pytest.mark.parametrize("durations", [64, 37, 1])
    def test_sensitivities_ride_on_the_states_steps(self, durations):
        # the states' steps, values and right-hand side calls are those of the
        # solve without the sensitivity rows, bit for bit
        resources = load_config("variant1").resources
        always_on = integrate(VARIANT1, VaccinationPolicy(*resources, tau=VARIANT1.T))
        taus = np.linspace(0.0, VARIANT1.T - 1.0, durations)
        start = _sample(always_on.segments, taus)
        beta_e, spans = VARIANT1.epidemic.transmission_rate, VARIANT1.T - taus
        riders = np.column_stack((start, np.full(durations, -0.1), np.zeros((durations, 2))))
        alone = sirdvax.solver._solve_tails(Tolerances(), spans, start, beta_e, 0.0, 0.0, dense=False)
        carried = sirdvax.solver._solve_tails(Tolerances(), spans, riders, beta_e, 0.0, 0.0, dense=False)
        assert alone.t.tobytes() == carried.t.tobytes()
        assert alone.y.tobytes() == carried.y[: 4 * durations].tobytes()
        assert alone.nfev == carried.nfev
        assert np.isfinite(carried.y).all()

    def test_a_tail_leaving_the_band_inside_a_step_is_refused(self, monkeypatch):
        # F[1] adds x*(1 - x) to the step: a dip at its middle, its ends as they are
        resources = load_config("variant1").resources
        always_on = integrate(VARIANT1, VaccinationPolicy(*resources, tau=VARIANT1.T))
        taus = np.linspace(0.0, VARIANT1.T, 16)
        read = sirdvax.solver._read_steps

        def poisoned(sol):
            steps = read(sol)
            steps.F[len(steps.F) // 2, 1, len(taus) + 5] -= 4.0
            return steps

        monkeypatch.setattr(sirdvax.solver, "_read_steps", poisoned)
        sirdvax.solver.stopped_programs(always_on, taus)
        with pytest.raises(IntegrationError, match=r"state 1 left \[0, 1\]"):
            sirdvax.solver.stopped_programs(always_on, taus, crossings=True)


class TestRunsLeavingTheBand:
    """``integrate`` checks each solve's dense output when it is made, before any sample is read."""

    @pytest.mark.parametrize(
        "tau, solve", [(7.5, 0), (7.5, -1), (0.0, -1)], ids=["capacity-branch", "unvaccinated-rest", "uncontrolled"]
    )
    def test_a_dip_inside_a_step_is_refused(self, monkeypatch, tau, solve):
        # F[1] adds x*(1 - x) to the step: a dip at its middle, its ends as they are
        resources = load_config("variant1").resources
        read, solves = sirdvax.solver._read_steps, []

        def recording(sol):
            solves.append(read(sol))
            return solves[-1]

        monkeypatch.setattr(sirdvax.solver, "_read_steps", recording)
        integrate(VARIANT1, VaccinationPolicy(*resources, tau=tau))
        poison = len(solves) + solve if solve < 0 else solve

        def poisoned(sol):
            steps = recording(sol)
            if len(solves) - 1 == poison:
                steps.F[len(steps.F) // 2, 1, 1] -= 4.0
            return steps

        solves.clear()
        monkeypatch.setattr(sirdvax.solver, "_read_steps", poisoned)
        with pytest.raises(IntegrationError, match=r"state 1 left \[0, 1\]"):
            integrate(VARIANT1, VaccinationPolicy(*resources, tau=tau))


class TestFinalSizeRelation:
    def test_unvaccinated_terminal_susceptibles(self, epidemic, cost):
        # classical final-size identity of the uncontrolled epidemic:
        # ln(s_inf/s0) = R0*(s_inf - s0 - i0) once infections have died out
        long_scenario = Scenario(
            epidemic=epidemic,
            cost=cost,
            initial=SirdState(s=0.999, i=0.001, rho=0.0, d=0.0),
            T=60.0,
        )
        traj = integrate(long_scenario, VaccinationPolicy(0.0, 0.0, 0.0, 0.0))
        s_inf = traj.s[-1]
        r0 = epidemic.transmission_rate
        residual = math.log(s_inf / 0.999) - r0 * (s_inf - 0.999 - 0.001)
        assert abs(residual) <= 1e-3


def clamp_row_by_row(rows, atol):
    """The per-row repair rule the array clamp replaced, kept as its reference."""
    band = _drift_band(atol)
    out = rows.copy()
    for row in out:
        for idx in range(4):
            if row[idx] < 0.0 or row[idx] > 1.0:
                if row[idx] < -band or row[idx] > 1.0 + band:
                    raise IntegrationError(f"state {idx}: {row[idx]}")
                row[idx] = min(max(row[idx], 0.0), 1.0)
    return out


class TestSampleClamp:
    ATOL = 1e-9

    def drifted_rows(self, n=400):
        # stored rows (s, i, q, V) inside [0, 1], each value pushed out by up
        # to half the drift band with probability 1/2 (both signs)
        band = _drift_band(self.ATOL)
        rng = np.random.default_rng(3)
        rows = rng.uniform(0.0, 1.0, size=(n, 4))
        rows[::7, :] = 0.0
        rows[3::7, :] = 1.0
        drift = rng.uniform(-0.5 * band, 0.5 * band, size=rows.shape)
        rows += np.where(rng.uniform(size=rows.shape) < 0.5, drift, 0.0)
        return rows

    def test_repairs_in_band_drift_exactly_as_the_per_row_rule(self):
        rows = self.drifted_rows()
        got = _clamp(rows, self.ATOL)
        assert np.array_equal(got, clamp_row_by_row(rows, self.ATOL))
        assert not np.array_equal(got, rows)  # the drift was real
        assert got.min() >= 0.0 and got.max() <= 1.0

    def test_single_row_with_a_scalar_flag(self):
        # one row, as state_at clamps it, is repaired as it is among others
        rows = self.drifted_rows()
        for j in (0, 3, 5, 250, 397):
            got = _clamp(rows[j : j + 1], self.ATOL)
            assert np.array_equal(got, _clamp(rows, self.ATOL)[j : j + 1])

    @pytest.mark.parametrize(
        "column, value",
        [
            pytest.param(0, -1.01, id="s-below"),
            pytest.param(1, 1.0 + 1.01, id="i-above"),
            pytest.param(2, -1.01, id="q-below"),
            pytest.param(2, 1.0 + 1.01, id="q-above"),
            pytest.param(3, -1.01, id="V-negative"),
            pytest.param(3, 1.0 + 1.01, id="V-above"),
        ],
    )
    def test_refuses_excursions_beyond_the_band(self, column, value):
        # value is in units of the band beyond the nearest bound
        band = _drift_band(self.ATOL)
        rows = self.drifted_rows()
        bound = 1.0 if value > 1.0 else 0.0
        rows[17, column] = bound + (value - bound) * band
        with pytest.raises(IntegrationError):
            _clamp(rows, self.ATOL)
        with pytest.raises(IntegrationError):
            clamp_row_by_row(rows, self.ATOL)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1, 2, 3], ids=["s", "i", "q", "V"])
    def test_refuses_non_finite_samples(self, column, value):
        # every comparison with NaN is false, so no band check would catch it
        rows = self.drifted_rows()
        rows[17, column] = value
        with pytest.raises(IntegrationError, match="not finite"):
            _clamp(rows, self.ATOL)
