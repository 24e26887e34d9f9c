"""Summary indicators of a simulated epidemic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .solver import EPIDEMIC_END_THRESHOLD, Trajectory


@dataclass(frozen=True)
class EpidemicIndicators:
    """Headline numbers of one trajectory.

    ``duration`` is the first time after the peak at which the infected
    fraction falls below ``EPIDEMIC_END_THRESHOLD``, or T if it never does
    within the horizon.  Measuring after the peak avoids triggering on a
    small initial infected fraction.
    """

    peak_i: float
    peak_time: float
    duration: float
    total_deaths: float
    total_vaccinated: float
    total_cost: float


def indicators(traj: Trajectory) -> EpidemicIndicators:
    """Compute peak, duration, and totals from a trajectory.

    The peak is located by scanning the samples and refining on the bracketing
    interval with the trajectory's dense output; the end crossing is located
    the same way.
    """
    times, infected = traj.times, traj.i
    j = int(np.argmax(infected))
    peak_time, peak_i = float(times[j]), float(infected[j])
    lo, hi = times[max(j - 1, 0)], times[min(j + 1, len(times) - 1)]
    if hi > lo:
        refined = minimize_scalar(
            lambda t: -traj.state_at(float(t)).state.i,
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-10},
        )
        if -refined.fun > peak_i:
            peak_i, peak_time = float(-refined.fun), float(refined.x)

    duration = float(times[-1])
    if peak_i < EPIDEMIC_END_THRESHOLD:
        duration = peak_time
    else:
        below = np.flatnonzero((times > peak_time) & (infected < EPIDEMIC_END_THRESHOLD))
        if below.size:
            idx = int(below[0])
            t_lo, t_hi = float(times[idx - 1]), float(times[idx])
            if infected[idx - 1] >= EPIDEMIC_END_THRESHOLD and t_hi > t_lo:
                duration = float(
                    brentq(
                        lambda t: traj.state_at(float(t)).state.i - EPIDEMIC_END_THRESHOLD,
                        t_lo,
                        t_hi,
                        xtol=1e-12,
                    )
                )
            else:
                duration = t_lo

    return EpidemicIndicators(
        peak_i=peak_i,
        peak_time=peak_time,
        duration=duration,
        total_deaths=float(traj.d[-1]),
        total_vaccinated=float(traj.V[-1]),
        total_cost=float(traj.J[-1]),
    )
