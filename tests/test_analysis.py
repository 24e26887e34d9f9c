"""Epidemic indicators: peak, duration, and totals."""

from __future__ import annotations


import numpy as np
import pytest

from sirdvax import (
    Tolerances,
    VaccinationPolicy,
    ValidationError,
    config_from_dict,
    indicators,
    integrate,
)

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
        assert ind.peak_i >= full_program_traj.i.max()

    def test_vaccination_lowers_the_peak(self, full_program_traj, unvaccinated_traj):
        assert indicators(full_program_traj).peak_i < indicators(unvaccinated_traj).peak_i


class TestDuration:
    def test_threshold_not_reached_within_horizon(self, full_program_traj):
        # infections sit just above the default threshold at T = 15
        assert indicators(full_program_traj).duration == 15.0

    def test_custom_threshold_locates_the_crossing(self, full_program_traj):
        ind = indicators(full_program_traj, end_threshold=1e-5)
        assert ind.peak_time < ind.duration < 15.0
        i_at = full_program_traj.state_at(ind.duration).state.i
        assert i_at == pytest.approx(1e-5, rel=1e-6)

    def test_crossing_bracketed_by_the_samples(self):
        # a fast epidemic that falls below the threshold within the horizon;
        # the crossing is bracketed on the samples and refined on state_at,
        # so both must agree on the sign at the bracket ends
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
        assert traj.state_at(ind.duration).state.i == pytest.approx(1e-6, rel=1e-6)

    def test_disease_free_trajectory(self, disease_free):
        traj = integrate(disease_free, VaccinationPolicy(k=0.0, l=0.0, m=0.0, tau=0.0))
        ind = indicators(traj)
        assert ind.peak_i == 0.0
        assert ind.peak_time == 0.0
        assert ind.duration == 0.0
        assert ind.total_cost == 0.0

    def test_threshold_must_be_positive(self, full_program_traj):
        with pytest.raises(ValidationError):
            indicators(full_program_traj, end_threshold=0.0)


class TestTotals:
    def test_deaths_match_quadrature_of_infections(self, full_program_traj):
        # dd/dt = beta*i, so the death toll equals beta times the integral of
        # the stored infected samples up to quadrature error
        ind = indicators(full_program_traj)
        quad = 0.05 * np.trapezoid(full_program_traj.i, full_program_traj.times)
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
