"""Summary indicators of a simulated epidemic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import EPIDEMIC_END_THRESHOLD, Trajectory, stopped_programs


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
    tails = stopped_programs(always_on, unique, crossings=True)
    rows = [
        _from_crossings(*crossing, final)
        for *crossing, final in zip(tails.peak_time, tails.peak_i, tails.end_time, tails.final)
    ]
    return [rows[j] for j in position.ravel()]
