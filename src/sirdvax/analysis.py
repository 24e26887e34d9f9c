"""Summary indicators of a simulated epidemic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import (
    EPIDEMIC_END_THRESHOLD,
    StoppedPrograms,
    Tolerances,
    Trajectory,
    stacked_runs,
    stopped_programs,
)


@dataclass(frozen=True)
class EpidemicIndicators:
    """Headline numbers of one trajectory.

    ``peak_time`` is the trajectory's ``peak`` event: where beta_e*s falls
    through 1, which is the maximum of the infected fraction since di/dt has
    no vaccination term and s never increases; 0 if i never rises, T if it
    never stops rising.  ``peak_i`` is the infected fraction there.
    ``duration`` is the first ``epidemic_end`` event (the infected fraction
    falling below ``EPIDEMIC_END_THRESHOLD``) at or after the peak, or T if
    there is none within the horizon; it is ``peak_time`` when the peak
    itself lies below the threshold.  Measuring after the peak avoids
    triggering on a small initial infected fraction.
    """

    peak_i: float
    peak_time: float
    duration: float
    total_deaths: float
    total_vaccinated: float
    total_cost: float


def _from_crossings(
    peak_time: float, peak_i: float, end_time: float, final: np.ndarray
) -> EpidemicIndicators:
    """Indicators from the peak, the first end at or after it, and the state at T."""
    return EpidemicIndicators(
        peak_i=float(peak_i),
        peak_time=float(peak_time),
        duration=float(peak_time if peak_i < EPIDEMIC_END_THRESHOLD else end_time),
        total_deaths=float(final[3]),
        total_vaccinated=float(final[5]),
        total_cost=float(final[4]),
    )


def indicators(traj: Trajectory) -> EpidemicIndicators:
    """Peak, duration and totals of a trajectory, read off its events and last sample."""
    return _from_crossings(*traj.peak_and_end(), traj.values[-1])


def stopped_program_indicators(always_on: Trajectory, taus) -> list[EpidemicIndicators]:
    """Indicators of the programs of each duration in ``taus``, in the given order.

    ``always_on`` is a run with the program on for the whole horizon; every
    program of duration tau follows it until tau.  The durations may come in
    any order and repeat; each distinct one is solved once by
    ``stopped_programs``, which refuses a run that is not always-on.
    """
    unique, position = np.unique(np.asarray(taus, dtype=float), return_inverse=True)
    rows = _indicator_rows(stopped_programs(always_on, unique, crossings=True))
    return [rows[j] for j in position.ravel()]


def run_indicators(points, tol: Tolerances = Tolerances()) -> list[EpidemicIndicators]:
    """Indicators of the run of each (scenario, policy) in ``points``, in the given order.

    Each row is ``indicators(integrate(scenario, policy, tol))`` within
    tolerance: ``stacked_runs`` solves all the runs together rather than one
    by one, and solves runs alike in their dynamics once.
    """
    return _indicator_rows(stacked_runs(points, tol))


def _indicator_rows(programs: StoppedPrograms) -> list[EpidemicIndicators]:
    """Indicators of each row of ``programs``, from its crossings and its state at T."""
    return [
        _from_crossings(*row)
        for row in zip(programs.peak_time, programs.peak_i, programs.end_time, programs.final)
    ]
