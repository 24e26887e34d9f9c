"""Piecewise adaptive integration of the augmented SIRD system.

The right-hand side is smooth except at the scheduled program end (t = tau),
at the rate kink (where l*s crosses k), and at supply exhaustion (where the
accumulated usage V reaches the stock m).  Each of these is located as an
event and integration restarts there, so every smooth piece is integrated at
the method's full order.  Dense output (the solver's cubic Hermite continuous
extension) backs interpolation between samples.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, IntegrationError, ValidationError
from .model import (
    AugmentedState,
    Scenario,
    SirdState,
    VaccinationPolicy,
    _rhs_values,
    treatment_cost_rate,
    vaccination_rate,
)

EVENT_PROGRAM_END = "program_end"
EVENT_RATE_KINK = "rate_kink"
EVENT_SUPPLY_EXHAUSTED = "supply_exhausted"
EVENT_EPIDEMIC_END = "epidemic_end"

#: Infected fraction below which the epidemic is marked as over.
EPIDEMIC_END_THRESHOLD = 1e-6

#: Number of uniform sample points emitted per trajectory (event times extra).
SAMPLE_POINTS = 1001

_METHOD = "RK23"


@dataclass(frozen=True)
class Tolerances:
    """Integration tolerances.

    Measured against a fixed-step 4th-order reference at step 1e-4: with the
    defaults, the bundled variants (i0 = 1e-3, tau = 7.5 or 15) agree to
    2.6e-6 in the compartments' max norm and to 1.7e-6 relative in J(T).  A
    slow epidemic grown from a small infected fraction fares worse, because
    ``atol`` is then large against i: from i0 = 1.41e-4 the compartments
    still agree to 4.0e-6, but J(T) misses by 2.6e-5 relative (1.5e-4
    absolute); ``rtol`` 1e-8 with ``atol`` 1e-11 brings that to 2.7e-7.
    """

    rtol: float = 1e-6
    atol: float = 1e-9
    max_step: float = math.inf
    event_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("rtol", "atol", "max_step", "event_tol"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValidationError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class Event:
    """A located non-smooth point or marker: (time, kind)."""

    time: float
    kind: str


class Trajectory:
    """Densely sampled solution of the augmented system on [0, T].

    Samples sit on a uniform grid of ``SAMPLE_POINTS`` points plus every
    located event time.  ``events`` lists, in time order:

    - ``program_end`` at t = tau whenever tau > 0 (the scheduled end of the
      program, recorded even if the stock ran out earlier),
    - ``rate_kink`` where the policy rate switches from the capacity branch k
      to the willingness branch l*s,
    - ``supply_exhausted`` where V reaches m (vaccination stops for good),
      including at t = tau when the program ends with V short of m by no
      more than the integration drift band,
    - ``epidemic_end`` where the infected fraction falls below
      ``EPIDEMIC_END_THRESHOLD`` (marker only).

    Immutable after construction; safe to share between threads.
    """

    def __init__(
        self,
        times: np.ndarray,
        values: np.ndarray,
        events: tuple[Event, ...],
        scenario: Scenario,
        policy: VaccinationPolicy | None,
        tolerances: Tolerances,
        exhaustion_time: float | None,
        segments: tuple[tuple[float, float, object], ...],
    ) -> None:
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        times.flags.writeable = False
        values.flags.writeable = False
        self.times = times
        self.values = values
        self.events = events
        self.scenario = scenario
        self.policy = policy
        self.tolerances = tolerances
        self.exhaustion_time = exhaustion_time
        self._segments = segments
        self._segment_starts = [seg[0] for seg in segments]

    @property
    def s(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def i(self) -> np.ndarray:
        return self.values[:, 1]

    @property
    def rho(self) -> np.ndarray:
        return self.values[:, 2]

    @property
    def d(self) -> np.ndarray:
        return self.values[:, 3]

    @property
    def J(self) -> np.ndarray:
        return self.values[:, 4]

    @property
    def V(self) -> np.ndarray:
        return self.values[:, 5]

    @staticmethod
    def _to_state(row: np.ndarray) -> AugmentedState:
        return AugmentedState(
            state=SirdState(s=row[0], i=row[1], rho=row[2], d=row[3]),
            J=row[4],
            V=row[5],
        )

    def _interpolate(self, t: float) -> np.ndarray:
        idx = bisect.bisect_right(self._segment_starts, t) - 1
        idx = max(idx, 0)
        _, t_hi, interpolant = self._segments[idx]
        if t > t_hi:  # beyond the last segment end by roundoff
            t = t_hi
        return np.asarray(interpolant(t), dtype=float)

    def state_at(self, t: float) -> AugmentedState:
        """Interpolated state at any time in [0, T]; exact at sample points.

        At a sample time this is the stored sample.  Interpolating there
        instead could differ from it in the last bits (the samples come from
        one array evaluation per segment), and then a sign read off the
        samples, such as the bracket of a threshold crossing, need not hold.
        """
        if t < 0.0 or t > self.scenario.T:
            raise DomainError(f"time {t} outside the trajectory range [0, {self.scenario.T}]")
        j = int(np.searchsorted(self.times, t))
        if j < len(self.times) and self.times[j] == t:
            return self._to_state(self.values[j])
        capped = self.exhaustion_time is not None and t >= self.exhaustion_time
        stock = self.policy.m if capped else math.inf
        row = _clamp(self._interpolate(t)[np.newaxis], self.tolerances.atol, stock, capped)
        return self._to_state(row[0])

    def rate_at(self, t: float) -> float:
        """Vaccination rate in effect just after time t.

        Right-continuous at switch-off points: 0 at and after the scheduled
        program end and at and after supply exhaustion.
        """
        if self.policy is None or t >= self.policy.tau:
            return 0.0
        exhausted = self.exhaustion_time is not None and t >= self.exhaustion_time
        return vaccination_rate(t, self.state_at(t).state.s, self.policy, exhausted)


def _drift_band(atol: float) -> float:
    """Largest deviation treated as integration drift rather than a real excursion."""
    return max(1e-9, 100.0 * atol)


def _clamp(
    rows: np.ndarray, atol: float, stock: float, capped: np.ndarray | bool
) -> np.ndarray:
    """Repair floating-point drift on samples; refuse real excursions.

    ``rows`` holds one augmented state per row.  ``capped`` marks the rows at
    or after supply exhaustion (a boolean per row, or one for all), where the
    usage V may not exceed ``stock``.  Returns the repaired rows.
    """
    band = _drift_band(atol)
    compartments, accumulators, usage = rows[:, :4], rows[:, 4:], rows[:, 5]
    outside = (compartments < -band) | (compartments > 1.0 + band)
    if outside.any():
        row, idx = np.argwhere(outside)[0]
        raise IntegrationError(
            f"compartment {idx} left [0, 1] beyond the repair band: {compartments[row, idx]}"
        )
    negative = accumulators < -band
    if negative.any():
        raise IntegrationError(f"accumulator went negative: {accumulators[negative][0]}")
    over = capped & (usage > stock)
    if (usage[over] > stock + band).any():
        raise IntegrationError(
            f"usage exceeded the stock after exhaustion: {usage[over].max()}"
        )
    out = np.empty_like(rows)
    out[:, :4] = np.where(
        compartments < 0.0, 0.0, np.where(compartments > 1.0, 1.0, compartments)
    )
    out[:, 4:] = np.where(accumulators < 0.0, 0.0, accumulators)
    out[over, 5] = stock
    return out


def _sample(segments, times: np.ndarray) -> np.ndarray:
    """Dense output of the segments at sorted times, one array call per segment.

    A time equal to a segment start is read from the segment it starts.
    """
    # times are sorted, so each segment's samples form one run of rows
    edges = [0, *np.searchsorted(times, [seg[0] for seg in segments[1:]]), len(times)]
    raw = np.empty((len(times), 6))
    for (_, t_hi, interpolant), lo, hi in zip(segments, edges, edges[1:]):
        if hi > lo:
            raw[lo:hi] = interpolant(np.minimum(times[lo:hi], t_hi)).T
    return raw


def _merge_times(grid: np.ndarray, extra: list[float], span: float) -> np.ndarray:
    """Union of grid and event times; near-duplicates collapse onto the event time."""
    tol = 1e-12 * max(1.0, span)
    merged = list(grid)
    for t in sorted(extra):
        pos = bisect.bisect_left(merged, t)
        for neighbor in (pos - 1, pos):
            if 0 <= neighbor < len(merged) and abs(merged[neighbor] - t) <= tol:
                merged[neighbor] = t
                break
        else:
            merged.insert(pos, t)
    out = [merged[0]]
    for t in merged[1:]:
        if t - out[-1] > tol:
            out.append(t)
    return np.array(out)


def integrate(
    scenario: Scenario,
    policy: VaccinationPolicy | None,
    tol: Tolerances = Tolerances(),
    treatment_coeff: float | None = None,
) -> Trajectory:
    """Integrate the augmented system over [0, T] and return its trajectory.

    The supply constraint is enforced by event detection: once V reaches
    policy.m, vaccination is switched off for the remainder of the horizon.
    ``policy=None`` runs the uncontrolled epidemic (no program, no events
    other than the epidemic-end marker).
    """
    if policy is not None and policy.tau > scenario.T:
        raise ValidationError(
            f"program duration tau={policy.tau} exceeds the horizon T={scenario.T}"
        )

    epidemic, cost = scenario.epidemic, scenario.cost
    beta_e = epidemic.transmission_rate
    alpha, beta = epidemic.alpha, epidemic.beta
    a = cost.a
    coeff = (
        treatment_coeff
        if treatment_coeff is not None
        else treatment_cost_rate(epidemic, cost)
    )
    k = policy.k if policy is not None else 0.0
    l = policy.l if policy is not None else 0.0

    def rhs_off(t, y):
        s = min(max(y[0], 0.0), 1.0)
        i = min(max(y[1], 0.0), 1.0)
        infections = s * beta_e * i
        return (-infections, infections - i, alpha * i, beta * i, coeff * i, 0.0)

    def rhs_on(t, y):
        s = min(max(y[0], 0.0), 1.0)
        i = min(max(y[1], 0.0), 1.0)
        v = k if k < l * s else l * s
        infections = s * beta_e * i
        return (
            -infections - v,
            infections - i,
            alpha * i + v,
            beta * i,
            a * v + coeff * i,
            v,
        )

    def epidemic_end(t, y):
        return y[1] - EPIDEMIC_END_THRESHOLD

    epidemic_end.terminal = False
    epidemic_end.direction = -1

    T = scenario.T
    tau = policy.tau if policy is not None else 0.0
    m = policy.m if policy is not None else 0.0

    events: list[Event] = []
    segments: list[tuple[float, float, object]] = []
    exhaustion_time: float | None = None

    vaccinating = policy is not None and tau > 0.0 and k > 0.0 and l > 0.0
    if vaccinating and m == 0.0:
        events.append(Event(0.0, EVENT_SUPPLY_EXHAUSTED))
        exhaustion_time = 0.0
        vaccinating = False

    t0 = 0.0
    y0 = list(scenario.augmented_initial().as_vector())
    boundary_tol = 1e-12 * max(1.0, T)
    kink_armed = vaccinating and l * y0[0] > k

    iterations = 0
    while vaccinating or not segments or t0 < T - boundary_tol:
        iterations += 1
        if iterations > 64:
            raise IntegrationError("event handling failed to advance the integration")
        if vaccinating and min(tau, T) - t0 <= boundary_tol:
            # scheduled program end; a stock drawn down to within the drift
            # band of the sample clamp has run out here as well
            if m - y0[5] <= _drift_band(tol.atol):
                events.append(Event(t0, EVENT_SUPPLY_EXHAUSTED))
                exhaustion_time = t0
            vaccinating = False
            continue
        t_end = min(tau, T) if vaccinating else T
        watchers = [epidemic_end]
        exhaust_index = kink_index = None
        if vaccinating and math.isfinite(m):
            def supply_exhausted(t, y, _m=m):
                return y[5] - _m

            supply_exhausted.terminal = True
            supply_exhausted.direction = 1
            exhaust_index = len(watchers)
            watchers.append(supply_exhausted)
        if vaccinating and kink_armed:
            def rate_kink(t, y, _k=k, _l=l):
                return _l * y[0] - _k

            rate_kink.terminal = True
            rate_kink.direction = -1
            kink_index = len(watchers)
            watchers.append(rate_kink)

        sol = solve_ivp(
            rhs_on if vaccinating else rhs_off,
            (t0, t_end),
            y0,
            method=_METHOD,
            rtol=tol.rtol,
            atol=tol.atol,
            max_step=tol.max_step,
            dense_output=True,
            events=watchers,
        )
        if sol.status < 0:
            raise IntegrationError(f"solver failed on [{t0}, {t_end}]: {sol.message}")

        for t_cross in sol.t_events[0]:
            events.append(Event(float(t_cross), EVENT_EPIDEMIC_END))
        segments.append((t0, float(sol.t[-1]), sol.sol))
        t0 = float(sol.t[-1])
        y0 = sol.y[:, -1].tolist()

        if sol.status == 1:
            fired_exhaust = (
                exhaust_index is not None
                and len(sol.t_events[exhaust_index]) > 0
                and abs(sol.t_events[exhaust_index][-1] - t0) <= boundary_tol
            )
            if fired_exhaust:
                events.append(Event(t0, EVENT_SUPPLY_EXHAUSTED))
                exhaustion_time = t0
                vaccinating = False
            elif kink_index is not None and len(sol.t_events[kink_index]) > 0:
                events.append(Event(t0, EVENT_RATE_KINK))
                kink_armed = False
            else:
                raise IntegrationError("terminated by an event that cannot be attributed")

    if policy is not None and tau > 0.0:
        events.append(Event(min(tau, T), EVENT_PROGRAM_END))
    events.sort(key=lambda e: (e.time, e.kind))

    grid = np.linspace(0.0, T, SAMPLE_POINTS)
    times = _merge_times(grid, [e.time for e in events], T)

    raw = _sample(segments, times)
    exhausted_from = exhaustion_time if exhaustion_time is not None else math.inf
    rows = _clamp(raw, tol.atol, m, times >= exhausted_from)

    return Trajectory(
        times=times,
        values=rows,
        events=tuple(events),
        scenario=scenario,
        policy=policy,
        tolerances=tol,
        exhaustion_time=exhaustion_time,
        segments=tuple(segments),
    )


def stopped_program_costs(
    always_on: Trajectory, taus: np.ndarray, horizon: str = "full"
) -> np.ndarray:
    """Costs of ending the program at each of ``taus``, read off one always-on run.

    ``always_on`` is a run with the program on for the whole horizon
    (tau = T), and ``taus`` are sorted times in [0, T].  Until tau a program
    of duration tau follows the always-on run (past supply exhaustion both
    have stopped vaccinating), so its state at tau is that run's dense output
    there.  With ``horizon="program"`` the cost is that state's J.  With
    ``horizon="full"`` every state is then advanced to T without vaccination,
    all in one solve: each tail's interval [tau, T] is mapped onto u in
    [0, 1] by t = tau + u*(T - tau), and the stacked tails share one step
    sequence, so the step error is controlled on them jointly rather than
    tail by tail.  The cost is J(T) of each tail.  The treatment cost rate is
    the scenario's own.
    """
    if horizon not in ("full", "program"):
        raise ValidationError(f"unknown objective horizon {horizon!r}")
    taus = np.asarray(taus, dtype=float)
    if np.any(np.diff(taus) < 0.0) or taus[0] < 0.0 or taus[-1] > always_on.scenario.T:
        raise ValidationError(f"durations must be sorted within [0, {always_on.scenario.T}]")
    prefix = _sample(always_on._segments, taus).T
    scenario, tol = always_on.scenario, always_on.tolerances
    spans = scenario.T - taus
    if horizon == "program" or not spans.max() > 0.0:
        return prefix[4]

    epidemic, cost_a = scenario.epidemic, scenario.cost.a
    coeff = treatment_cost_rate(epidemic, scenario.cost)
    n = len(taus)
    no_vaccination = np.zeros(n)

    def rhs(u, y):
        y = y.reshape(6, n)
        s = np.clip(y[0], 0.0, 1.0)
        i = np.clip(y[1], 0.0, 1.0)
        dt = np.array(_rhs_values(s, i, no_vaccination, epidemic, cost_a, coeff))
        return (dt * spans).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, 1.0),
        prefix.ravel(),
        method=_METHOD,
        rtol=tol.rtol,
        atol=tol.atol,
        max_step=tol.max_step / spans.max(),
    )
    if sol.status < 0:
        raise IntegrationError(f"batched tail solve failed: {sol.message}")
    return sol.y[:, -1].reshape(6, n)[4]
