"""Piecewise adaptive integration of the augmented SIRD system.

The right-hand side is smooth except at the scheduled program end (t = tau),
at the rate kink (where l*s crosses k), and at supply exhaustion (where the
accumulated usage V reaches the stock m).  Each of these is located as an
event and integration restarts there.  Every segment fixes the vaccination
rate to one branch (k before the kink, l*s after it, 0 once the program has
ended or the stock has run out), so no step straddles a switch and every
smooth piece is integrated at the full order of the Dormand-Prince 8(5,3)
pair (SciPy's DOP853).  Its 7th-order dense output backs interpolation
between samples and the location of events.
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
)

EVENT_PROGRAM_END = "program_end"
EVENT_RATE_KINK = "rate_kink"
EVENT_SUPPLY_EXHAUSTED = "supply_exhausted"
EVENT_EPIDEMIC_END = "epidemic_end"

#: Infected fraction below which the epidemic is marked as over.
EPIDEMIC_END_THRESHOLD = 1e-6

#: Number of uniform sample points emitted per trajectory (event times extra).
SAMPLE_POINTS = 1001

_METHOD = "DOP853"


@dataclass(frozen=True)
class Tolerances:
    """Integration tolerances.

    Measured against a fixed-step 4th-order reference at step 1e-4: with the
    defaults, the bundled variants (i0 = 1e-3, tau = 7.5 or 15) agree to
    4.2e-9 in the compartments' max norm and to 1.7e-9 relative in J(T).  A
    slow epidemic grown from i0 = 1.41e-4 agrees to 3.3e-9 in the
    compartments and to 2.9e-9 relative in J(T).
    """

    rtol: float = 1e-8
    atol: float = 1e-11
    max_step: float = math.inf

    def __post_init__(self) -> None:
        for name in ("rtol", "atol", "max_step"):
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
      placed at t = tau when the two are within the integration drift band
      of each other: the program ends with V short of m by no more than
      the band, or V reaches m so shortly before tau that at most the band
      would have been used by then,
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
        raw = _sample(self._segments, np.array([t]))
        return self._to_state(_clamp(raw, self.tolerances.atol, stock, capped)[0])

    @property
    def rates(self) -> np.ndarray:
        """Vaccination rate in effect just after each sample time."""
        return _rates(self.policy, self.exhaustion_time, self.times, self.s)

    def rate_at(self, t: float) -> float:
        """Vaccination rate in effect just after time t.

        Right-continuous at switch-off points: 0 at and after the scheduled
        program end and at and after supply exhaustion.
        """
        s = np.array([self.state_at(t).state.s])
        return float(_rates(self.policy, self.exhaustion_time, np.array([t]), s)[0])


def _rates(
    policy: VaccinationPolicy | None,
    exhaustion_time: float | None,
    times: np.ndarray,
    s: np.ndarray,
) -> np.ndarray:
    """The vaccination rule at each of ``times`` with susceptibles ``s``.

    min(k, l*s) while t < tau and t < ``exhaustion_time``, else 0.
    """
    v = np.zeros(len(times))
    if policy is not None:
        live = times < policy.tau
        if exhaustion_time is not None:
            live &= times < exhaustion_time
        v[live] = np.minimum(policy.k, policy.l * s[live])
    return v


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
    coeff = treatment_cost_rate(epidemic, cost)
    k = policy.k if policy is not None else 0.0
    l = policy.l if policy is not None else 0.0

    def rhs(t, y, rate, willingness):
        # one rate branch per segment: v = rate + willingness*s is k on the
        # capacity branch, l*s on the willingness branch and 0 when off
        s = min(max(y[0], 0.0), 1.0)
        i = min(max(y[1], 0.0), 1.0)
        return _rhs_values(s, i, rate + willingness * s, epidemic, cost.a, coeff)

    # solve_ivp passes the right-hand side's args to every event function too
    def epidemic_end(t, y, *branch):
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
            def supply_exhausted(t, y, *branch, _m=m):
                return y[5] - _m

            supply_exhausted.terminal = True
            supply_exhausted.direction = 1
            exhaust_index = len(watchers)
            watchers.append(supply_exhausted)
        if vaccinating and kink_armed:
            def rate_kink(t, y, *branch, _k=k, _l=l):
                return _l * y[0] - _k

            rate_kink.terminal = True
            rate_kink.direction = -1
            kink_index = len(watchers)
            watchers.append(rate_kink)

        if not vaccinating:
            branch = (0.0, 0.0)
        elif kink_armed:
            branch = (k, 0.0)
        else:
            branch = (0.0, l)
        sol = solve_ivp(
            rhs,
            (t0, t_end),
            y0,
            method=_METHOD,
            rtol=tol.rtol,
            atol=tol.atol,
            max_step=tol.max_step,
            dense_output=True,
            events=watchers,
            args=branch,
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
                # a stock that runs out so close to the program end that the
                # usage left before it (at most k per unit time) lies within
                # the drift band has run out at the end, as in the rule above
                if k * (t_end - t0) <= _drift_band(tol.atol):
                    exhaustion_time = t_end
                else:
                    exhaustion_time = t0
                events.append(Event(exhaustion_time, EVENT_SUPPLY_EXHAUSTED))
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


def stopped_program_costs(always_on: Trajectory, taus: np.ndarray) -> np.ndarray:
    """Costs of ending the program at each of ``taus``, read off one always-on run.

    ``always_on`` is a run with the program on for the whole horizon
    (tau = T), and ``taus`` are sorted times in [0, T].  Until tau a program
    of duration tau follows the always-on run (past supply exhaustion both
    have stopped vaccinating), so its state at tau is that run's dense output
    there.  Every state is then advanced to T without vaccination, all in one
    solve: each tail's interval [tau, T] is mapped onto u in [0, 1] by
    t = tau + u*(T - tau), and the stacked tails share one step sequence, so
    the step error is controlled on them jointly rather than tail by tail.
    The cost is J(T) of each tail.
    """
    taus = np.asarray(taus, dtype=float)
    if np.any(np.diff(taus) < 0.0) or taus[0] < 0.0 or taus[-1] > always_on.scenario.T:
        raise ValidationError(f"durations must be sorted within [0, {always_on.scenario.T}]")
    prefix = _sample(always_on._segments, taus).T
    scenario, tol = always_on.scenario, always_on.tolerances
    spans = scenario.T - taus
    if not spans.max() > 0.0:
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
