"""Piecewise adaptive integration of the SIRD system under a vaccination program.

A program vaccinates at min(k, l*s) until tau or until the stock m runs out,
so every run has at most three smooth pieces, always in this order:

1. the capacity branch (rate k), while l*s > k;
2. the willingness branch (rate l*s), from the rate kink where l*s falls
   through k;
3. no vaccination, from the program end or supply exhaustion (where the
   accumulated usage V reaches m) to the horizon T.

``integrate`` solves each piece it needs as one segment with the rate fixed
to its branch.  A vaccinating segment solves toward T and ends where the
kink, exhaustion or the program end is located as a terminal event, so no
step straddles a switch and every smooth piece is integrated at the full
order of the Dormand-Prince 8(5,3) pair (SciPy's DOP853).  Its 7th-order
dense output backs interpolation between samples and the location of events.

The integrated state is (s, i, q, V): the susceptible and infected
fractions, q the integral of i over time, and V the vaccine used.  The
recovered and dead fractions and the accumulated cost are linear in q and V
(``_read_out``), so the dynamics carry no unit costs.
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
EVENT_PEAK = "peak"

#: Infected fraction below which the epidemic is marked as over.
EPIDEMIC_END_THRESHOLD = 1e-6

#: Number of uniform sample points emitted per trajectory (event times extra).
SAMPLE_POINTS = 1001

_METHOD = "DOP853"

#: Tails per batched solve in ``stopped_programs``; bounds the memory one
#: solve and its dense output take, whatever the number of durations.
TAIL_CHUNK = 256

#: Smallest rtol solve_ivp honours; it raises a smaller one to this with only a warning.
RTOL_FLOOR = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class Tolerances:
    """Integration tolerances.

    Measured against a fixed-step 4th-order reference at step 1e-4: with the
    defaults, the bundled variants (i0 = 1e-3, tau = 7.5 or 15) agree to
    3.1e-9 in the compartments' max norm and to 2.0e-9 relative in J(T).  A
    slow epidemic grown from i0 = 1.41e-4 agrees to 3.6e-9 in the
    compartments and to 4.1e-9 relative in J(T).
    """

    rtol: float = 1e-8
    atol: float = 1e-11
    max_step: float = math.inf

    def __post_init__(self) -> None:
        for name in ("rtol", "atol", "max_step"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValidationError(f"{name} must be positive, got {value}")
            # an infinite tolerance accepts any step; only max_step may be unlimited
            if math.isinf(value) and name != "max_step":
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.rtol < RTOL_FLOOR:
            raise ValidationError(f"rtol must be at least {RTOL_FLOOR:.3g}, got {self.rtol}")


@dataclass(frozen=True)
class Event:
    """A located non-smooth point or marker: (time, kind)."""

    time: float
    kind: str


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Densely sampled solution on [0, T].

    ``values`` holds one row (s, i, rho, d, J, V) per sample, read off the
    integrated state (s, i, q, V) by ``_read_out``.

    Samples sit on a uniform grid of ``SAMPLE_POINTS`` points plus every
    located event time.  ``events`` lists, in time order:

    - ``program_end`` at t = tau whenever tau > 0 (the scheduled end of the
      program, recorded even if the stock ran out earlier),
    - ``rate_kink`` where the policy rate switches from the capacity branch k
      to the willingness branch l*s,
    - ``supply_exhausted`` where V reaches m (vaccination stops for good,
      and V is exactly m from the located stock-out on), and at t = tau when
      the program ends with V short of m by no more than the integration
      drift band (V is left there),
    - ``epidemic_end``, at most once: where the infected fraction falls
      below ``EPIDEMIC_END_THRESHOLD`` (marker only),
    - ``peak``, exactly once: the maximum of the infected fraction on
      [0, T] (marker only).  di/dt = i*(beta_e*s - 1) has no vaccination
      term and s never increases, so i peaks where beta_e*s falls through 1
      (beta_e the transmission rate).  The peak is at t = 0 when beta_e*s
      starts at or below 1 or there are no infections, and at T when
      beta_e*s stays above 1 throughout.

    Both markers are recorded once, at their first crossing.  A crossing
    that rounding places just past a located switch is recorded at the end
    of the segment the switch ends, where its function has already fallen
    through 0.

    ``segments`` holds (start, end, dense output of (s, i, q, V)) for each
    solver segment in time order: the capacity branch, the willingness
    branch and the unvaccinated rest, as far as the run has them.

    Immutable after construction; safe to share between threads.
    """

    times: np.ndarray
    values: np.ndarray
    events: tuple[Event, ...]
    scenario: Scenario
    policy: VaccinationPolicy
    tolerances: Tolerances
    exhaustion_time: float | None
    segments: tuple[tuple[float, float, object], ...]

    def __post_init__(self) -> None:
        for name in ("times", "values"):
            array = np.asarray(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

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

    def state_at(self, t: float) -> AugmentedState:
        """Interpolated state at any time in [0, T]; exact at sample points.

        The samples were read through the same ``_sample`` and ``_clamp``,
        and DOP853's dense output is evaluated element by element, so at a
        sample time this returns the stored sample bit for bit.
        """
        # NaN fails every comparison, so the range test is written to fail on it
        if not 0.0 <= t <= self.scenario.T:
            raise DomainError(f"time {t} outside the trajectory range [0, {self.scenario.T}]")
        rows = _clamp(_sample(self.segments, np.array([t])), self.tolerances.atol)
        s, i, rho, d, J, V = _read_out(rows, self.scenario)[0]
        return AugmentedState(SirdState(s, i, rho, d), J, V)

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

    def peak_and_end(self) -> tuple[float, float, float]:
        """The epidemic's peak time, the infected fraction there, and its end.

        The peak is the ``peak`` event and the end is the first
        ``epidemic_end`` at or after it, or T if there is none.
        """
        peak_time = next(e.time for e in self.events if e.kind == EVENT_PEAK)
        # the peak time is a sample time, or within the merge tolerance of one
        row = min(int(np.searchsorted(self.times, peak_time)), len(self.times) - 1)
        end_time = next(
            (e.time for e in self.events if e.kind == EVENT_EPIDEMIC_END and e.time >= peak_time),
            self.scenario.T,
        )
        return peak_time, float(self.i[row]), end_time


def _rates(
    policy: VaccinationPolicy,
    exhaustion_time: float | None,
    times: np.ndarray,
    s: np.ndarray,
) -> np.ndarray:
    """The vaccination rule at each of ``times`` with susceptibles ``s``.

    min(k, l*s) while t < tau and t < ``exhaustion_time``, else 0.
    """
    v = np.zeros(len(times))
    live = times < policy.tau
    if exhaustion_time is not None:
        live &= times < exhaustion_time
    v[live] = np.minimum(policy.k, policy.l * s[live])
    return v


def _drift_band(atol: float) -> float:
    """Largest deviation treated as integration drift rather than a real excursion."""
    return max(1e-9, 100.0 * atol)


def _clamp(rows: np.ndarray, atol: float) -> np.ndarray:
    """Repair floating-point drift on stored rows (s, i, q, V); refuse real excursions.

    All four values are population fractions in [0, 1]; a non-finite value
    or one beyond the drift band is refused.  The stock needs no rule here:
    ``integrate`` pins V to m where the stock runs out.  Returns the repaired
    rows.
    """
    finite = np.isfinite(rows)
    if not finite.all():
        row, idx = np.argwhere(~finite)[0]
        raise IntegrationError(f"state {idx} is not finite: {rows[row, idx]}")
    band = _drift_band(atol)
    outside = (rows < -band) | (rows > 1.0 + band)
    if outside.any():
        row, idx = np.argwhere(outside)[0]
        raise IntegrationError(f"state {idx} left [0, 1] beyond the repair band: {rows[row, idx]}")
    return np.where(rows < 0.0, 0.0, np.where(rows > 1.0, 1.0, rows))


def _read_out(rows: np.ndarray, scenario: Scenario) -> np.ndarray:
    """The rows (s, i, rho, d, J, V) of stored rows (s, i, q, V).

    rho = rho0 + alpha*q + V, d = d0 + beta*q and J = a*V + (alpha*b + beta*c)*q.
    """
    epidemic, initial = scenario.epidemic, scenario.initial
    s, i, q, V = rows.T
    rho = initial.rho + epidemic.alpha * q + V
    J = scenario.cost.a * V + treatment_cost_rate(epidemic, scenario.cost) * q
    return np.column_stack((s, i, rho, initial.d + epidemic.beta * q, J, V))


def _sample(segments, times: np.ndarray) -> np.ndarray:
    """Dense output of the segments at sorted times, one array call per segment.

    A time equal to a segment start is read from the segment it starts.
    """
    # times are sorted, so each segment's samples form one run of rows
    edges = [0, *np.searchsorted(times, [seg[0] for seg in segments[1:]]), len(times)]
    raw = np.empty((len(times), 4))  # s, i, q, V
    for (_, t_hi, interpolant), lo, hi in zip(segments, edges, edges[1:]):
        if hi > lo:
            raw[lo:hi] = interpolant(np.minimum(times[lo:hi], t_hi)).T
    return raw


def _merge_times(grid: np.ndarray, extra: list[float], tol: float) -> np.ndarray:
    """Union of grid and event times; those within ``tol`` collapse onto the event time."""
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
    policy: VaccinationPolicy,
    tol: Tolerances = Tolerances(),
) -> Trajectory:
    """Integrate the system over [0, T] and return its trajectory.

    The run is at most three segments in a fixed order: the capacity branch
    (rate k, while l*s > k), the willingness branch (rate l*s), then no
    vaccination up to T.  Each vaccinating segment solves toward T and ends
    at the first of the rate kink, supply exhaustion and tau, so until tau the
    run is the always-on run (tau = T) bit for bit.  Once V reaches policy.m,
    vaccination is off for the rest of the horizon and V stays m.  A program
    with tau = 0 (or k = 0, l = 0 or m = 0) runs the uncontrolled epidemic.

    Every segment also watches the peak and the epidemic end until each is
    recorded.  solve_ivp drops a root located past the terminal root of the
    same step, so a marker with no root whose function was above 0 at the
    segment's start and is at or below 0 at its end is recorded at that end.

    Raises ValidationError unless 0 <= tau <= T.
    """
    T = scenario.T
    # NaN fails every comparison, so the range test is written to fail on it
    if not 0.0 <= policy.tau <= T:
        raise ValidationError(f"tau must lie in [0, {T}], got {policy.tau}")

    epidemic = scenario.epidemic
    beta_e = epidemic.transmission_rate
    k, l, m, tau = policy.k, policy.l, policy.m, policy.tau

    def rhs(t, y, rate, willingness):
        # one rate branch per segment: v = rate + willingness*s is k on the
        # capacity branch, l*s on the willingness branch and 0 when off
        s = min(max(y[0], 0.0), 1.0)
        i = min(max(y[1], 0.0), 1.0)
        return _rhs_values(s, i, rate + willingness * s, epidemic)

    # solve_ivp passes the right-hand side's args to every event function too
    def epidemic_end(t, y, *branch):
        return y[1] - EPIDEMIC_END_THRESHOLD

    def peak(t, y, *branch):
        return beta_e * y[0] - 1.0

    def supply_exhausted(t, y, *branch):
        return y[3] - m

    def rate_kink(t, y, *branch):
        return l * y[0] - k

    def program_end(t, y, *branch):
        return t - tau

    epidemic_end.terminal, epidemic_end.direction = False, -1
    peak.terminal, peak.direction = False, -1
    supply_exhausted.terminal, supply_exhausted.direction = True, 1
    rate_kink.terminal, rate_kink.direction = True, -1
    program_end.terminal, program_end.direction = True, 1

    events: list[Event] = []
    segments: list[tuple[float, float, object]] = []
    exhaustion_time: float | None = None
    fired = None  # the terminal watcher that ended the last vaccinating segment
    t0 = 0.0
    y0 = [scenario.initial.s, scenario.initial.i, 0.0, 0.0]  # q = V = 0
    # times closer than this are one time: at the segment ends and in the samples
    time_tol = 1e-12 * T
    # markers still to record, each once; i peaks where beta_e*s falls through
    # 1, and with no infections, or with beta_e*s at or below 1 from the
    # start, i never rises and peaks at 0
    pending = {epidemic_end: EVENT_EPIDEMIC_END, peak: EVENT_PEAK}
    if not (y0[1] > 0.0 and beta_e * y0[0] > 1.0):
        events.append(Event(0.0, pending.pop(peak)))

    def advance(branch, terminal=()):
        """Solve one segment from t0 toward T; return the terminal watcher that fired."""
        nonlocal t0, y0
        watchers = [*pending, *terminal]
        sol = solve_ivp(
            rhs,
            (t0, T),
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
            raise IntegrationError(f"solver failed on [{t0}, {T}]: {sol.message}")
        hits = dict(zip(watchers, sol.t_events))
        fired = next((w for w in terminal if len(hits[w]) > 0), None)
        # the program ends at tau itself, wherever its watcher's root landed
        t1 = tau if fired is program_end else float(sol.t[-1])
        y1 = sol.sol(t1)
        for watcher in [*pending]:
            # its first root, else t1 when solve_ivp dropped a root rounded past t1
            fell = watcher(t0, y0, *branch) > 0.0 >= watcher(t1, y1, *branch)
            if len(hits[watcher]) > 0 or fell:
                events.append(Event(float([*hits[watcher], t1][0]), pending.pop(watcher)))
        segments.append((t0, t1, sol.sol))
        t0, y0 = t1, y1.tolist()
        return fired

    if tau > 0.0 and k > 0.0 and l > 0.0:
        if m == 0.0:
            exhaustion_time = 0.0
        else:
            if l * y0[0] > k:
                fired = advance((k, 0.0), (supply_exhausted, program_end, rate_kink))
                if fired is rate_kink:
                    events.append(Event(t0, EVENT_RATE_KINK))
            # a kink located at or past tau comes after the program's end
            if fired is None or fired is rate_kink and t0 < tau:
                fired = advance((0.0, l), (supply_exhausted, program_end))
            if fired is supply_exhausted:
                # the stock is used up: V stays m, bit for bit, without vaccination
                y0[3] = m
            # the stock has also run out where the program ends with V within the
            # drift band of m; V stays short of it there (a pin would add doses)
            if m - y0[3] <= _drift_band(tol.atol):
                exhaustion_time = t0
        if exhaustion_time is not None:
            events.append(Event(exhaustion_time, EVENT_SUPPLY_EXHAUSTED))
    # past a stock-out the pinned V is read off this segment, however short
    if not segments or fired is supply_exhausted or t0 < T - time_tol:
        advance((0.0, 0.0))

    if peak in pending:
        # beta_e*s stayed above 1, so i rose throughout
        events.append(Event(T, EVENT_PEAK))
    if tau > 0.0:
        events.append(Event(tau, EVENT_PROGRAM_END))
    events.sort(key=lambda e: (e.time, e.kind))

    grid = np.linspace(0.0, T, SAMPLE_POINTS)
    times = _merge_times(grid, [e.time for e in events], time_tol)

    raw = _sample(segments, times)
    rows = _read_out(_clamp(raw, tol.atol), scenario)

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


@dataclass(frozen=True)
class StoppedPrograms:
    """Programs ended at each of a set of durations, read off one always-on run.

    ``final`` holds each program's state (s, i, rho, d, J, V) at T, one row
    per duration.
    When crossings are located, ``peak_time`` and ``peak_i`` give each
    program's ``peak`` event and the infected fraction there, and
    ``end_time`` its first ``epidemic_end`` at or after the peak, or T, as
    ``Trajectory.peak_and_end`` reads them off one run; otherwise they are
    None.
    """

    final: np.ndarray
    peak_time: np.ndarray | None = None
    peak_i: np.ndarray | None = None
    end_time: np.ndarray | None = None


def stopped_programs(
    always_on: Trajectory, taus: np.ndarray, crossings: bool = False
) -> StoppedPrograms:
    """Programs ending at each of ``taus``, read off one always-on run.

    ``always_on`` is a run with the program on for the whole horizon
    (tau = T), and ``taus`` are sorted times in [0, T].  Until tau a program
    of duration tau is the always-on run bit for bit (past supply exhaustion
    both have stopped vaccinating, with V exactly m), so its state at tau is
    that run's dense output there.  Every state is then advanced to T without
    vaccination, which keeps V as it is, in one solve per ``TAIL_CHUNK``
    durations: each tail's interval [tau, T] is mapped onto u in [0, 1] by
    t = tau + u*(T - tau), and the stacked tails share one step sequence, so
    the step error is controlled on them jointly rather than tail by tail.

    With ``crossings``, each program's peak and end are located too.  A
    program shares the always-on run's crossing where that lies at or before
    tau, and otherwise has it located on its own tail.  Rounding can put
    tau just before an always-on crossing with the function already at or
    below 0, where the tail has no fall to find: so a program shares the
    peak too when beta_e*s is at or below 1 at tau, and, once past the
    always-on peak, the end too when i is at or below
    ``EPIDEMIC_END_THRESHOLD`` at tau.
    """
    taus = np.asarray(taus, dtype=float)
    scenario, tol = always_on.scenario, always_on.tolerances
    T = scenario.T
    # NaN fails every comparison, so the range test is written to fail on it
    if np.any(np.diff(taus) < 0.0) or not np.all((taus >= 0.0) & (taus <= T)):
        raise ValidationError(f"durations must be sorted within [0, {T}]")
    final = _sample(always_on.segments, taus)
    if crossings:
        peak_on, peak_i_on, end_on = always_on.peak_and_end()
        # a tail's crossing is searched for where its function starts above 0,
        # and otherwise is the always-on run's; i below the threshold before
        # the peak may still rise through it, so that end is searched for
        beta_e = scenario.epidemic.transmission_rate
        tail_peak = (taus < peak_on) & (beta_e * final[:, 0] > 1.0)
        tail_end = (taus < end_on) & ((taus < peak_on) | (final[:, 1] > EPIDEMIC_END_THRESHOLD))
        peak_time = np.where(tail_peak, T, peak_on)
        peak_i = np.full(len(taus), peak_i_on)
        end_time = np.where(tail_end, T, end_on)

    for lo in range(0, len(taus), TAIL_CHUNK):
        cols = slice(lo, lo + TAIL_CHUNK)
        spans = T - taus[cols]
        # a tail to search has tau < T, so it is solved
        locate = crossings and bool(tail_peak[cols].any() or tail_end[cols].any())
        if spans.max() > 0.0:
            sol = _solve_tails(scenario, tol, spans, final[cols], locate)
            final[cols] = sol.y[:, -1].reshape(-1, len(spans)).T
        final[cols] = _clamp(final[cols], tol.atol)
        if locate:
            _tail_crossings(
                sol,
                taus[cols],
                T,
                beta_e,
                final[cols, 1],
                tail_peak[cols],
                tail_end[cols],
                (peak_time[cols], peak_i[cols], end_time[cols]),
            )
    final = _read_out(final, scenario)
    if not crossings:
        return StoppedPrograms(final)
    return StoppedPrograms(final, peak_time, peak_i, end_time)


def _solve_tails(scenario: Scenario, tol: Tolerances, spans, start: np.ndarray, dense: bool):
    """One solve of the uncontrolled tails from the rows of ``start`` over ``spans``.

    The state vector stacks the tails component by component: all s, then
    all i, and so on.
    """
    epidemic, n = scenario.epidemic, len(spans)
    no_vaccination = np.zeros(n)

    def rhs(u, y):
        y = y.reshape(-1, n)
        s = np.clip(y[0], 0.0, 1.0)
        i = np.clip(y[1], 0.0, 1.0)
        dt = np.array(_rhs_values(s, i, no_vaccination, epidemic))
        return (dt * spans).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, 1.0),
        # a copy: the solver keeps y0 as its first step's start, and with one
        # tail ravel() would return a view of the caller's rows
        start.T.flatten(),
        method=_METHOD,
        rtol=tol.rtol,
        atol=tol.atol,
        max_step=tol.max_step / spans.max(),
        dense_output=dense,
    )
    if sol.status < 0:
        raise IntegrationError(f"batched tail solve failed: {sol.message}")
    return sol


#: Chebyshev points of the second kind on [0, 1], as many as a DOP853 dense
#: output step has coefficients (it is a polynomial of degree 7 in time), and
#: their barycentric weights.
_NODES = 0.5 - 0.5 * np.cos(np.pi * np.arange(8) / 7)
_WEIGHTS = np.array([0.5, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -0.5])

#: Bisection steps that shrink [0, 1] below the spacing of doubles.
_BISECTIONS = 60


def _step_nodes(sol, width: int, cols: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Dense output of tail ``cols[j]`` at the nodes of its step ``steps[j]``.

    Shape (4, len(cols), len(_NODES)) for the state (s, i, q, V): one
    interpolant call per distinct step.
    """
    out = np.empty((len(sol.y) // width, len(cols), len(_NODES)))
    for step in np.unique(steps):
        here = steps == step
        t0, t1 = sol.t[step], sol.t[step + 1]
        values = sol.sol.interpolants[step](t0 + _NODES * (t1 - t0))
        out[:, here] = values.reshape(-1, width, len(_NODES))[:, cols[here]]
    return out


def _interpolate(node_values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row j's polynomial through ``node_values[j]`` on ``_NODES``, at ``x[j]``."""
    diff = x[:, None] - _NODES
    on_node = diff == 0.0
    diff[on_node] = 1.0
    w = _WEIGHTS / diff
    out = (w * node_values).sum(axis=1) / w.sum(axis=1)
    rows, nodes = np.nonzero(on_node)
    out[rows] = node_values[rows, nodes]
    return out


def _first_fall(sol, width, cols, g):
    """First fall of g through 0 on each tail in ``cols``.

    ``g`` maps the stacked state, component first, to the watched function.
    As solve_ivp finds an event of direction -1, the crossing lies in the
    first step with g >= 0 at its start and g <= 0 at its end; bisection on
    the step's dense output then finds the position x in [0, 1] within it.
    Returns each tail's step and x, step -1 where g does not fall through 0.
    """
    values = g(sol.y.reshape(-1, width, sol.y.shape[1])[:, cols])
    down = (values[:, :-1] >= 0.0) & (values[:, 1:] <= 0.0)
    step = np.where(down.any(axis=1), down.argmax(axis=1), -1)
    todo = np.flatnonzero(step >= 0)
    nodes = g(_step_nodes(sol, width, cols[todo], step[todo]))
    lo, hi = np.zeros(len(todo)), np.ones(len(todo))
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        fallen = _interpolate(nodes, mid) <= 0.0
        hi = np.where(fallen, mid, hi)
        lo = np.where(fallen, lo, mid)
    x = np.zeros(len(cols))
    x[todo] = hi
    return step, x


def _tail_crossings(sol, taus, T, beta_e, final_i, tail_peak, tail_end, out) -> None:
    """Locate peaks and ends on the tails of one solve, writing them into ``out``.

    ``out`` is (peak_time, peak_i, end_time), arrays over the tails that
    already hold T, or the always-on run's crossings where those apply.
    ``tail_peak`` and ``tail_end`` flag the tails to search; beta_e*s starts
    above 1 on every tail in ``tail_peak``.  Both crossings are searched from
    the tail's start: the peak where beta_e*s falls through 1, as
    ``integrate``'s ``peak`` watcher finds it, and the end where i falls
    through ``EPIDEMIC_END_THRESHOLD``.  With no vaccination i rises while
    beta_e*s > 1 and falls after, so its first fall through the threshold
    comes after its peak.  A tail where beta_e*s stays above 1 peaks at T.
    """
    peak_time, peak_i, end_time = out
    width = len(taus)

    def time(cols, step, x):
        u = sol.t[step] + x * (sol.t[step + 1] - sol.t[step])
        return np.minimum(taus[cols] + u * (T - taus[cols]), T)

    cols = np.flatnonzero(tail_peak)
    step, x = _first_fall(sol, width, cols, lambda y: beta_e * y[0] - 1.0)
    found = step >= 0
    peak_time[cols[found]] = time(cols[found], step[found], x[found])
    nodes = _step_nodes(sol, width, cols[found], step[found])[1]
    peak_i[cols[found]] = _interpolate(nodes, x[found])
    # i rose to the end of the tail: the peak is at T
    peak_i[cols[~found]] = final_i[cols[~found]]

    cols = np.flatnonzero(tail_end)
    step, x = _first_fall(sol, width, cols, lambda y: y[1] - EPIDEMIC_END_THRESHOLD)
    found = step >= 0
    end_time[cols[found]] = time(cols[found], step[found], x[found])
