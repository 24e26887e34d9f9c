"""Epidemic indicators: peak, duration, and totals."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from sirdvax import (
    SirdState,
    Tolerances,
    VaccinationPolicy,
    ValidationError,
    config_from_dict,
    indicators,
    integrate,
)
from sirdvax.analysis import run_indicators, stopped_program_indicators
from sirdvax.solver import stopped_programs
from oracles import random_cases

PEAK_I_FULL_PROGRAM = 0.1786375065  # frozen from a 1e-11/1e-13 reference run
PEAK_I_UNVACCINATED = 0.3633827668


class TestPeak:
    def test_full_program_peak_matches_finer_reference(self, scenario, full_program_traj):
        ind = indicators(full_program_traj)
        policy = full_program_traj.policy
        finer = integrate(scenario, policy, Tolerances(rtol=1e-7, atol=1e-10))
        ind_ref = indicators(finer)
        assert ind.peak_i == pytest.approx(ind_ref.peak_i, abs=1e-5)
        assert ind.peak_i == pytest.approx(PEAK_I_FULL_PROGRAM, abs=1e-5)
        assert ind.peak_time == pytest.approx(3.2967, abs=1e-3)

    def test_unvaccinated_peak(self, unvaccinated_traj):
        ind = indicators(unvaccinated_traj)
        assert ind.peak_i == pytest.approx(PEAK_I_UNVACCINATED, abs=1e-5)
        assert ind.peak_time == pytest.approx(3.1044, abs=1e-3)

    def test_peak_dominates_every_sample(self, full_program_traj):
        ind = indicators(full_program_traj)
        assert ind.peak_i == full_program_traj.i.max()

    def test_vaccination_lowers_the_peak(self, full_program_traj, unvaccinated_traj):
        assert indicators(full_program_traj).peak_i < indicators(unvaccinated_traj).peak_i

    def test_peak_value_is_the_row_at_the_peak_time(self):
        # the peak value is the sample at the peak, as state_at reads it there
        for scenario, policy in random_cases(40, seed=7):
            for tau in (policy.tau, scenario.T, 0.0):
                traj = integrate(scenario, dataclasses.replace(policy, tau=tau))
                ind = indicators(traj)
                assert ind.peak_i == traj.state_at(ind.peak_time)[1]


class TestDuration:
    def test_threshold_not_reached_within_horizon(self, full_program_traj):
        # infections sit just above the default threshold at T = 15
        assert indicators(full_program_traj).duration == 15.0

    def test_crossing_bracketed_by_the_samples(self):
        # a fast epidemic that falls below the threshold within the horizon,
        # where the duration is its epidemic_end event
        config = config_from_dict(
            {
                "epidemic": {"alpha": 0.8641, "beta": 0.1359, "r": 14.776, "eps": 0.3347},
                "cost": {"a": 4.466, "b": 55.81, "c": 241.6},
                "resources": {"k": 0.1984, "l": 0.4881, "m": 0.149182},
                "initial": {"s": 0.995262, "i": 0.004738, "rho": 0.0, "d": 0.0},
                "T": 17.57,
            }
        )
        policy = VaccinationPolicy(k=config.k, l=config.l, m=config.m, tau=2.74338)
        traj = integrate(config.scenario, policy, config.tolerances)
        ind = indicators(traj)
        assert ind.peak_time < ind.duration < 17.57
        assert traj.state_at(ind.duration)[1] == pytest.approx(1e-6, rel=1e-6)

    def test_disease_free_trajectory(self, disease_free):
        traj = integrate(disease_free, VaccinationPolicy(k=0.0, l=0.0, m=0.0, tau=0.0))
        ind = indicators(traj)
        assert ind.peak_i == 0.0
        assert ind.peak_time == 0.0
        assert ind.duration == 0.0
        assert ind.total_cost == 0.0


class TestTotals:
    def test_deaths_match_quadrature_of_infections(self, full_program_traj):
        # dd/dt = beta*i, so the death toll equals beta times the integral of
        # the stored infected samples up to quadrature error
        ind = indicators(full_program_traj)
        t, i = full_program_traj.times, full_program_traj.i
        quad = 0.05 * np.sum(np.diff(t) * (i[1:] + i[:-1]) / 2.0)  # trapezoid rule
        assert abs(ind.total_deaths - quad) <= 1e-5

    def test_totals_read_off_the_final_sample(self, tight_supply_traj):
        ind = indicators(tight_supply_traj)
        assert ind.total_deaths == tight_supply_traj.d[-1]
        assert ind.total_vaccinated == tight_supply_traj.V[-1]
        assert ind.total_cost == tight_supply_traj.J[-1]
        assert ind.total_vaccinated <= 0.2 + 1e-6

    def test_less_vaccine_cannot_mean_fewer_deaths(
        self, variant1_traj, variant2_traj, tight_supply_traj
    ):
        deaths_v1 = indicators(variant1_traj).total_deaths
        deaths_v2 = indicators(variant2_traj).total_deaths
        assert deaths_v2 >= deaths_v1  # equal here: neither stock binds
        assert indicators(tight_supply_traj).total_deaths > deaths_v1

    def test_vaccination_cuts_the_death_toll(self, full_program_traj, unvaccinated_traj):
        assert (
            indicators(full_program_traj).total_deaths
            < indicators(unvaccinated_traj).total_deaths
        )


INDICATOR_FIELDS = (
    "peak_i",
    "peak_time",
    "duration",
    "total_deaths",
    "total_vaccinated",
    "total_cost",
)
# a uniform grid plus the durations that end on the stock-outs at m = 0.2
# and 0.4, near the peak and at the unlimited optimum
AGREEMENT_TAUS = np.unique(
    np.concatenate([np.linspace(0.0, 15.0, 11), [2.0, 3.2967, 4.8605, 6.9295]])
)


def always_on(scenario, resources):
    k, l, m = resources
    return integrate(scenario, VaccinationPolicy(k=k, l=l, m=m, tau=scenario.T))


def worst_disagreement(scenario, resources, taus):
    """Largest relative gap per indicator between batched rows and exact runs."""
    rows = stopped_program_indicators(always_on(scenario, resources), taus)
    worst = dict.fromkeys(INDICATOR_FIELDS, 0.0)
    for tau, row in zip(taus, rows):
        exact = indicators(integrate(scenario, VaccinationPolicy(*resources, tau=float(tau))))
        for name in INDICATOR_FIELDS:
            got, want = getattr(row, name), getattr(exact, name)
            if got != want:
                worst[name] = max(worst[name], abs(got - want) / abs(want))
    return worst


class TestStoppedProgramIndicators:
    """Batched tau-sweep rows against ``integrate`` plus ``indicators``."""

    @pytest.mark.parametrize(
        "scenario_name, resources",
        [
            ("scenario", (0.1, 0.3, 2.949)),
            ("scenario", (0.1, 0.3, 0.5)),
            ("scenario", (0.1, 0.3, 0.2)),
            ("scenario", (0.1, 0.3, 0.4)),
            ("scenario", (0.1, 0.3, 0.0)),
            ("scenario", (0.0, 0.3, 0.5)),
            ("disease_free", (0.1, 0.3, 0.5)),
        ],
        ids=["variant1", "variant2", "stock-0.2", "stock-0.4", "m-0", "k-0", "disease-free"],
    )
    def test_rows_agree_with_exact_runs(self, request, scenario_name, resources):
        scenario = request.getfixturevalue(scenario_name)
        worst = worst_disagreement(scenario, resources, AGREEMENT_TAUS)
        assert all(gap <= 1e-7 for gap in worst.values()), worst

    def test_epidemic_end_within_the_horizon(self, scenario):
        # on a long horizon the end crossing is located too; i is near the
        # 1e-6 threshold there, so atol = 1e-11 leaves its time about 1e-5
        # relative uncertain in either run, batched or exact
        long = dataclasses.replace(scenario, T=40.0)
        worst = worst_disagreement(long, (0.1, 0.3, 0.5), np.linspace(0.0, 40.0, 9))
        assert worst.pop("duration") <= 1e-5
        assert all(gap <= 1e-7 for gap in worst.values()), worst

    def test_rows_come_back_in_the_requested_order(self, scenario):
        resources = (0.1, 0.3, 0.4)
        run = always_on(scenario, resources)
        rows = stopped_program_indicators(run, [10.0, 2.0, 6.0, 2.0])
        at_2, at_6, at_10 = stopped_program_indicators(run, [2.0, 6.0, 10.0])
        assert rows == [at_10, at_2, at_6, at_2]

    @pytest.mark.parametrize("m", [2.949, 0.2, 0.4])
    def test_usage_never_decreases_along_a_sorted_grid(self, scenario, m):
        run = always_on(scenario, (0.1, 0.3, m))
        taus = np.linspace(0.0, 15.0, 301)
        used = [row.total_vaccinated for row in stopped_program_indicators(run, taus)]
        assert np.all(np.diff(used) >= 0.0)
        assert max(used) <= min(m, 0.1 * 15.0) + 1e-9
        if run.exhaustion_time is not None:
            # a program at or past the cap uses exactly the stock
            assert {u for tau, u in zip(taus, used) if tau >= run.exhaustion_time} == {m}

    def test_unlimited_stock_and_a_chunk_boundary(self, scenario):
        # more durations than one batched solve takes, unlimited stock
        from sirdvax.solver import TAIL_CHUNK

        taus = np.linspace(0.0, 15.0, TAIL_CHUNK + 3)
        rows = stopped_program_indicators(always_on(scenario, (0.1, 0.3, math.inf)), taus)
        for j in (0, TAIL_CHUNK - 1, TAIL_CHUNK, len(taus) - 1):
            policy = VaccinationPolicy(0.1, 0.3, math.inf, tau=float(taus[j]))
            exact = indicators(integrate(scenario, policy))
            for name in INDICATOR_FIELDS:
                assert getattr(rows[j], name) == pytest.approx(getattr(exact, name), rel=1e-7)

    def test_the_full_duration_is_the_always_on_run_exactly(self):
        # a program of duration T shares every crossing of the always-on run
        # and has no tail to solve, so its row is that run's indicators
        for scenario, policy in random_cases(40, seed=7):
            run = integrate(scenario, dataclasses.replace(policy, tau=scenario.T))
            assert stopped_program_indicators(run, [scenario.T]) == [indicators(run)]

    def test_no_durations_give_no_rows(self, scenario):
        run = always_on(scenario, (0.1, 0.3, 0.4))
        assert stopped_program_indicators(run, []) == []
        for crossings in (False, True):
            tails = stopped_programs(run, [], crossings=crossings)
            assert tails.final.shape == (0, 6)
        assert len(tails.peak_time) == len(tails.peak_i) == len(tails.end_time) == 0

    @pytest.mark.parametrize(
        "entry", [stopped_programs, stopped_program_indicators], ids=["solver", "analysis"]
    )
    @pytest.mark.parametrize("taus", [[math.nan], [1.0, math.nan], [math.nan, 1.0]])
    def test_nan_durations_are_refused(self, scenario, entry, taus):
        run = always_on(scenario, (0.1, 0.3, 0.4))
        with pytest.raises(ValidationError, match="durations"):
            entry(run, taus)

    @pytest.mark.parametrize(
        "entry", [stopped_programs, stopped_program_indicators], ids=["solver", "analysis"]
    )
    def test_a_run_that_is_not_always_on_is_refused(self, scenario, entry):
        # every program follows the always-on run until it ends; a run that
        # stopped at 5 would give a program of duration 10 too few doses
        short = integrate(scenario, VaccinationPolicy(0.1, 0.3, 2.949, tau=5.0))
        with pytest.raises(ValidationError, match="always-on run"):
            entry(short, [10.0])

    @pytest.mark.parametrize("m", [2.949, 0.2])
    def test_one_duration_alone_agrees_with_it_among_others(self, scenario, m):
        # a solve of one tail must not read its start from the caller's rows,
        # which it overwrites with the state at T; the first duration ends
        # just before the peak, so the crossing lies in the tail's first step
        run = always_on(scenario, (0.1, 0.3, m))
        peak_time, peak_i, _ = run.peak_and_end()
        just_before = np.nextafter(peak_time, 0.0)
        for tau in (just_before, 3.29, 7.5):
            (alone,) = stopped_program_indicators(run, [tau])
            among = stopped_program_indicators(run, [1.0, tau, 12.0])[1]
            for name in INDICATOR_FIELDS:
                assert getattr(alone, name) == pytest.approx(getattr(among, name), rel=1e-7)
        (alone,) = stopped_program_indicators(run, [just_before])
        assert alone.peak_i == pytest.approx(peak_i, rel=1e-9)

    def test_program_ending_just_before_the_peak_shares_it(self, scenario):
        # on these epidemics beta_e*s reads <= 1 one ulp before the located
        # peak, so a tail starting there has no fall through 1 to find
        below = 0
        for r, eps in ((6.679470535551442, 0.19427233724301723),
                       (13.86957746760121, 0.11372608685892367)):
            epidemic = dataclasses.replace(scenario.epidemic, r=r, eps=eps)
            run = always_on(dataclasses.replace(scenario, epidemic=epidemic), (0.1, 0.3, math.inf))
            peak_time, peak_i, _ = run.peak_and_end()
            tau = np.nextafter(peak_time, 0.0)
            below += epidemic.transmission_rate * run.state_at(tau)[0] <= 1.0
            row = stopped_program_indicators(run, [tau, 12.0])[0]
            assert row.peak_time == pytest.approx(peak_time, abs=1e-12)
            assert row.peak_i == pytest.approx(peak_i, rel=1e-12)
        assert below > 0


class TestRunIndicators:
    """Stacked rows of runs that differ in more than their duration."""

    @pytest.mark.parametrize("tau", [15.0, 7.5])
    @pytest.mark.parametrize("k, l", [(0.1, 0.3), (0.1, 0.05)], ids=["capacity", "willing"])
    def test_a_stock_that_runs_out_is_used_exactly(self, scenario, tau, k, l):
        # V = m from every recorded stock-out on, and usage never falls as
        # the stock grows
        stocks = [*np.linspace(0.0, 0.6, 31), math.inf]
        runs = [VaccinationPolicy(k, l, m, tau) for m in stocks]
        rows = run_indicators([(scenario, policy) for policy in runs])
        used = [row.total_vaccinated for row in rows]
        assert np.all(np.diff(used) >= 0.0)
        ran_out = [integrate(scenario, policy).exhaustion_time is not None for policy in runs]
        assert 0 < sum(ran_out) < len(runs)
        pinned = [(u, m) for u, m, out in zip(used, stocks, ran_out) if out]
        assert all(u == m for u, m in pinned)

    def test_no_runs_give_no_rows(self):
        assert run_indicators([]) == []

    def test_a_duration_beyond_the_horizon_is_refused(self, scenario):
        with pytest.raises(ValidationError, match="tau must lie in"):
            run_indicators([(scenario, VaccinationPolicy(0.1, 0.3, 0.4, tau=scenario.T + 1.0))])

    @pytest.mark.parametrize("tau", [15.0, 7.5])
    def test_a_rate_kink_at_the_peak(self, scenario, tau):
        # with k = l/beta_e the rate kink (l*s = k) and the peak (beta_e*s = 1)
        # fall at one s, so at one time; at r = 3.5 rounding puts the peak's
        # fall just past the kink, where the willingness branch starts with
        # beta_e*s already at or below 1
        scenario = dataclasses.replace(
            scenario, epidemic=dataclasses.replace(scenario.epidemic, r=3.5)
        )
        runs = [
            VaccinationPolicy(k, 0.3, math.inf, tau)
            for k in ulp_window(0.3 / scenario.epidemic.transmission_rate, 3)
        ]
        rows = run_indicators([(scenario, policy) for policy in runs])
        for policy, row in zip(runs, rows):
            exact = indicators(integrate(scenario, policy))
            assert 0.0 < exact.peak_time < tau
            for name in INDICATOR_FIELDS:
                # the epidemic ends within the horizon, where atol leaves the
                # end about 1e-5 relative uncertain
                rel = 1e-5 if name == "duration" else 1e-7
                assert getattr(row, name) == pytest.approx(getattr(exact, name), rel=rel), name

    def test_a_row_cut_before_its_infections_rise_keeps_only_its_own_crossings(self, scenario):
        # i starts below the end threshold and the first row's stock runs out
        # at t = 0.01; that row rides on in the capacity stage with the other
        # until the other's kink near t = 39, through an end of the epidemic
        # that is the ride's, not its own; with i(0) 2000 times below the
        # bundled runs', the shared steps move the peak by about 1e-7 relative
        small = dataclasses.replace(
            scenario, initial=SirdState(s=1.0 - 5e-7, i=5e-7, rho=0.0, d=0.0), T=60.0
        )
        runs = [VaccinationPolicy(1e-3, 1.0, m, small.T) for m in (1e-5, math.inf)]
        rows = run_indicators([(small, policy) for policy in runs])
        for policy, row in zip(runs, rows):
            exact = indicators(integrate(small, policy))
            for name in INDICATOR_FIELDS:
                rel = 1e-5 if name == "duration" else 1e-6
                assert getattr(row, name) == pytest.approx(getattr(exact, name), rel=rel), name

    @pytest.mark.parametrize("m", [math.inf, 0.4])
    @pytest.mark.parametrize("r", [4.0, 10.0, 25.0])
    def test_programs_ending_around_the_crossings(self, scenario, r, m):
        # a row's peak or end within ulps of its program end is still found,
        # on one side of the cut or the other
        scenario = dataclasses.replace(
            scenario, epidemic=dataclasses.replace(scenario.epidemic, r=r)
        )
        crossings = indicators(always_on(scenario, (0.1, 0.3, m)))
        windows = [("peak_time", crossings.peak_time)]
        if crossings.duration < scenario.T:
            windows.append(("duration", crossings.duration))
        for name, at in windows:
            taus = ulp_window(at)
            rows = run_indicators([(scenario, VaccinationPolicy(0.1, 0.3, m, tau)) for tau in taus])
            rel = 1e-5 if name == "duration" else 1e-7
            for tau, row in zip(taus, rows):
                assert getattr(row, name) == pytest.approx(at, rel=rel), tau


def ulp_window(x, n=12):
    """x and the n doubles on either side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return [*below[::-1], *above[1:]]


class TestCrossingsAtTheBoundary:
    """A program ending within a few ulps of the always-on peak or end shares it.

    Rounding can put a crossing just past the program end in the same step,
    and a tail starting just past a crossing has no fall through 0 to find,
    so every duration in the window must still report the always-on run's
    crossing, from ``integrate`` and from the batched tails.
    """

    @pytest.mark.parametrize("m", [math.inf, 0.4])
    @pytest.mark.parametrize("r", [4.0, 10.0, 25.0])
    def test_durations_around_the_crossings(self, scenario, r, m):
        scenario = dataclasses.replace(
            scenario, epidemic=dataclasses.replace(scenario.epidemic, r=r)
        )
        resources = (0.1, 0.3, m)
        run = always_on(scenario, resources)
        crossings = indicators(run)
        assert 0.0 < crossings.peak_time < scenario.T
        windows = [("peak_time", crossings.peak_time)]
        if 0.0 < crossings.duration < scenario.T:
            windows.append(("duration", crossings.duration))
        for name, at in windows:
            taus = ulp_window(at)
            rows = stopped_program_indicators(run, taus)
            for tau, row in zip(taus, rows):
                exact = indicators(integrate(scenario, VaccinationPolicy(*resources, tau=tau)))
                for found in (exact, row):
                    assert getattr(found, name) == pytest.approx(at, rel=0.0, abs=1e-9), tau
