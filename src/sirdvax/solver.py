"""Piecewise adaptive integration of the SIRD system under a vaccination program.

A program vaccinates at min(k, l*s) until tau or until the stock m runs out,
so every run has at most three smooth pieces, always in this order:

1. the capacity branch (rate k), while l*s > k;
2. the willingness branch (rate l*s), from the rate kink where l*s falls
   through k;
3. no vaccination, from the program end or supply exhaustion (where the
   accumulated usage V reaches m) to the horizon T.

``integrate`` solves each piece it needs as one segment with the rate fixed
to its branch, so no step straddles a switch and every smooth piece is
integrated at the full order of the Dormand-Prince 8(5,3) pair (SciPy's
DOP853).  Its 7th-order dense output backs interpolation between samples
and every located crossing.  Each solve's steps are read once into arrays
(``_read_steps``), and one kernel, ``_dense``, evaluates any number of
points on them in one array pass, with SciPy's choice of step and its
Horner order, so every value equals SciPy's dense output bit for bit.
One locator, ``_first_fall``, finds them all
on a solve's steps: the rate kink and the stock-out that end a segment, the
peak and the epidemic end of a run, and those of the batched tails in
``stopped_programs`` and of the stacked runs in ``stacked_runs``.
solve_ivp only stops a vaccinating segment, with one terminal event; the
segment then ends at the earliest of tau and the located kink and
stock-out.

One rule refuses a run: every solve whose dense output is kept is checked
when it is made, by ``_refuse_excursions``, and refused if that output
leaves [0, 1] by more than the drift band before a run's end.  The
samples are then built only when read, and ``_clamp`` only repairs them.

``stacked_runs`` answers many runs that differ in their parameters, not
only in tau, with one stacked solve per piece: each row of
``_solve_tails``, the one stacked solve, has its own transmission rate and
vaccination rate.  Each piece is one stage, ``_advance``, and the tails of
``stopped_programs`` are the unvaccinated stage of stacked runs that start
at each tau.

Until tau a run is the always-on run (tau = T) bit for bit, so
``stopped_program`` cuts that run's vaccinating segments at tau instead of
solving them again.  ``integrate`` and ``stopped_program`` share one
finishing step, ``_finish``: the cut, the stock-out, the unvaccinated rest,
the peak and the end, and the samples.

The integrated state is (s, i, q, V): the susceptible and infected
fractions, q the integral of i over time, and V the vaccine used.  The
recovered and dead fractions and the accumulated cost are linear in q and V
(``_read_out``), so the dynamics carry no unit costs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError, ValidationError
from .model import Scenario, VaccinationPolicy, _rhs_values, treatment_cost_rate

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

#: Rows per stacked solve in ``stopped_programs`` and ``stacked_runs``;
#: bounds the memory one solve and its dense output take, whatever the
#: number of rows.
TAIL_CHUNK = 256

#: Smallest rtol solve_ivp honours; it raises a smaller one to this with only a warning.
RTOL_FLOOR = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class Tolerances:
    """Integration tolerances: solve_ivp's ``rtol`` and ``atol``, both positive and finite.

    Measured against a fixed-step 4th-order reference at step 1e-4: with the
    defaults, the bundled variants (i0 = 1e-3, tau = 7.5 or 15) agree to
    3.1e-9 in the compartments' max norm and to 2.0e-9 relative in J(T).  A
    slow epidemic grown from i0 = 1.41e-4 agrees to 3.6e-9 in the
    compartments and to 4.1e-9 relative in J(T).
    """

    rtol: float = 1e-8
    atol: float = 1e-11

    def __post_init__(self) -> None:
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            # an infinite tolerance accepts any step, and NaN fails both comparisons
            if not 0.0 < value < math.inf:
                raise ValidationError(f"{name} must be positive and finite, got {value}")
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
    located event time.  They start at 0 and end at T: a time within
    1e-12*T of another is one sample, and an event that close to 0 or T is
    sampled at that end.  ``events`` lists, in time order:

    - ``program_end`` at t = tau whenever tau > 0 (the scheduled end of the
      program, recorded even if the stock ran out earlier),
    - ``rate_kink`` where the policy rate switches from the capacity branch k
      to the willingness branch l*s,
    - ``supply_exhausted`` where V reaches m, when that is located at or
      before tau: vaccination stops for good, and V is exactly m from there
      on.  A program that ends before its stock runs out records none, however
      little stock is left,
    - ``epidemic_end``, at most once: where the infected fraction falls
      below ``EPIDEMIC_END_THRESHOLD`` (marker only),
    - ``peak``, exactly once: the maximum of the infected fraction on
      [0, T] (marker only).  di/dt = i*(beta_e*s - 1) has no vaccination
      term and s never increases, so i peaks where beta_e*s falls through 1
      (beta_e the transmission rate).  The peak is at t = 0 when beta_e*s
      starts at or below 1 or there are no infections, and at T when
      beta_e*s stays above 1 throughout.

    Both markers are located at their first crossing on the run's steps,
    each step cut at its segment's end, so a crossing at a switch is found on
    one side of it.

    ``segments`` holds (start, end, steps) for each solver segment in time
    order: the capacity branch, the willingness branch and the unvaccinated
    rest, as far as the run has them.  The steps are the segment's solve,
    read once into arrays of DOP853 dense-output coefficients of
    (s, i, q, V); ``_sample`` reads every segment in one array pass.

    ``times`` and ``values`` are built on first use, read-only; a run that
    only hands its segments on, as the planner's always-on run does, builds
    none.  Every solve was checked when it was made (``_refuse_excursions``),
    so reading the samples refuses nothing new.

    Immutable after construction; safe to share between threads, where a
    race only computes the same samples twice.
    """

    events: tuple[Event, ...]
    scenario: Scenario
    policy: VaccinationPolicy
    tolerances: Tolerances
    exhaustion_time: float | None
    segments: tuple[tuple[float, float, _Steps], ...]

    @functools.cached_property
    def times(self) -> np.ndarray:
        T = self.scenario.T
        # times within 1e-12*T of each other are one sample, as in _finish's segment ends
        times = _merge_times(np.linspace(0.0, T, SAMPLE_POINTS), [e.time for e in self.events], 1e-12 * T)
        times.flags.writeable = False
        return times

    @functools.cached_property
    def values(self) -> np.ndarray:
        values = _rows(self.segments, self.times, self.scenario, self.tolerances.atol)
        values.flags.writeable = False
        return values

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

    def state_at(self, t: float) -> np.ndarray:
        """The row (s, i, rho, d, J, V) at any time in [0, T], as ``values`` holds it.

        Read by ``_rows``, as the samples are, and DOP853's dense output is
        evaluated element by element, so at a sample time this is that sample
        bit for bit.  Raises ValidationError outside [0, T].
        """
        self.scenario.in_horizon("t", t)
        return _rows(self.segments, np.array([t]), self.scenario, self.tolerances.atol)[0]

    @property
    def rates(self) -> np.ndarray:
        """Vaccination rate in effect just after each sample time."""
        return _rates(self.policy, self.exhaustion_time, self.times, self.s)

    def rate_at(self, t: float) -> float:
        """Vaccination rate in effect just after time t, for s in ``state_at``'s row.

        Right-continuous at switch-off points: 0 at and after the scheduled
        program end and at and after supply exhaustion.
        """
        s = self.state_at(t)[:1]
        return float(_rates(self.policy, self.exhaustion_time, np.array([t]), s)[0])

    def peak_and_end(self) -> tuple[float, float, float]:
        """The epidemic's peak time, the infected fraction there, and its end.

        The peak is the ``peak`` event and the end is the first
        ``epidemic_end`` at or after it, or T if there is none.  The
        infected fraction is the row at the peak time, read by ``_rows`` as
        ``state_at`` and the samples are.
        """
        peak_time = next(e.time for e in self.events if e.kind == EVENT_PEAK)
        row = _rows(self.segments, np.array([peak_time]), self.scenario, self.tolerances.atol)[0]
        end_time = next(
            (e.time for e in self.events if e.kind == EVENT_EPIDEMIC_END and e.time >= peak_time),
            self.scenario.T,
        )
        return peak_time, float(row[1]), end_time


def _rates(
    policy: VaccinationPolicy,
    exhaustion_time: float | None,
    times: np.ndarray,
    s: np.ndarray,
) -> np.ndarray:
    """The vaccination rule at each of ``times`` with susceptibles ``s``.

    min(k, l*s) before tau, or before ``exhaustion_time`` when the stock ran
    out earlier, and 0 from there on: the cut ``_finish`` applies.
    """
    end = policy.tau if exhaustion_time is None else min(policy.tau, exhaustion_time)
    return np.where(times < end, np.minimum(policy.k, policy.l * s), 0.0)


def _drift_band(atol: float) -> float:
    """Largest deviation treated as integration drift rather than a real excursion."""
    return max(1e-9, 100.0 * atol)


def _clamp(rows: np.ndarray, atol: float) -> np.ndarray:
    """Repair floating-point drift on stored rows (s, i, q, V); refuse real excursions.

    All four values are population fractions in [0, 1]; a non-finite value
    or one beyond the drift band is refused.  The stock needs no rule here:
    ``integrate`` pins V to m where the stock runs out.  Returns the repaired
    rows.  It repairs samples and the states that runs read off their dense
    output, which ``_refuse_excursions`` has already checked; it refuses on
    its own only the end states of the solves that keep no dense output
    (``stopped_programs`` without crossings), and inside
    ``_refuse_excursions``.
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


#: Maps a DOP853 step's dense-output coefficients F (SciPy's Horner form
#: adds F[j]*x**((j+2)//2)*(1-x)**((j+1)//2) to y_old) to the degree-7
#: Bernstein coefficients of y - y_old on the step, shape (8, 7).
_TO_BERNSTEIN = np.array(
    [[math.comb(6 - j, k - j // 2 - 1) if k > j // 2 else 0 for j in range(7)] for k in range(8)]
) / np.array([[math.comb(7, k)] for k in range(8)])


def _refuse_excursions(steps: _Steps, ends: np.ndarray, atol: float) -> None:
    """Refuse a solve whose dense output leaves [0, 1] beyond the drift band before a run's end.

    ``steps`` holds the solve of ``len(ends)`` stacked runs, component
    first, and run r counts up to ``ends[r]``.  On each step the polynomial
    lies within the hull of its Bernstein coefficients (``_TO_BERNSTEIN``),
    so a solve whose hulls all lie within the band passes at once.
    Otherwise each run's part of a step that starts before its end, cut at
    that end, is a piece: a piece passes once its hull lies within the band,
    its end values, values of the dense output, are refused by ``_clamp``
    as samples are, and the rest are halved by de Casteljau, for at most
    ``_BITS`` rounds.  Every sample of the run is a value of these
    polynomials, so this refuses at least what checking the samples would.
    """
    band = _drift_band(atol)
    shift = _TO_BERNSTEIN @ steps.F
    # y_old + c rounds monotonically in c, so these bound the hulls; NaN fails both comparisons
    lo, hi = (steps.y_old + shift.min(axis=1)).min(), (steps.y_old + shift.max(axis=1)).max()
    if lo >= -band and hi <= 1.0 + band:
        return
    # (step, run, component, coefficient), each step's part before each run's end
    coef = (steps.y_old[:, None] + shift).reshape(len(shift), 8, 4, len(ends)).transpose(0, 3, 2, 1)
    part = (ends - steps.t_old[:, None]) / steps.h[:, None]
    step, run = np.nonzero(part > 0.0)
    pieces, _ = _split(coef[step, run], np.minimum(part[step, run], 1.0)[:, None, None])
    for _ in range(_BITS):
        pieces = pieces[~((pieces.min(axis=(1, 2)) >= -band) & (pieces.max(axis=(1, 2)) <= 1.0 + band))]
        if not len(pieces):
            return
        _clamp(np.concatenate((pieces[..., 0], pieces[..., -1])), atol)
        pieces = np.concatenate(_split(pieces, 0.5))


def _split(coef: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    """De Casteljau: the Bernstein coefficients (last axis) of each polynomial on [0, x] and on [x, 1].

    ``x`` broadcasts against ``coef``.
    """
    levels = [coef]
    for _ in range(coef.shape[-1] - 1):
        levels.append((1.0 - x) * levels[-1][..., :-1] + x * levels[-1][..., 1:])
    return np.stack([c[..., 0] for c in levels], -1), np.stack([c[..., -1] for c in levels[::-1]], -1)


def _read_out(rows: np.ndarray, scenario: Scenario) -> np.ndarray:
    """The rows (s, i, rho, d, J, V) of stored rows (s, i, q, V).

    rho = rho0 + alpha*q + V, d = d0 + beta*q and J = a*V + (alpha*b + beta*c)*q.
    """
    epidemic, initial = scenario.epidemic, scenario.initial
    s, i, q, V = rows.T
    rho = initial.rho + epidemic.alpha * q + V
    J = scenario.cost.a * V + treatment_cost_rate(epidemic, scenario.cost) * q
    return np.column_stack((s, i, rho, initial.d + epidemic.beta * q, J, V))


def _rows(segments, times: np.ndarray, scenario: Scenario, atol: float) -> np.ndarray:
    """The rows (s, i, rho, d, J, V) of a run's segments at sorted times.

    The segments' dense output, repaired or refused by ``_clamp`` and read
    out: the one reader of the samples and of ``Trajectory.state_at``.
    """
    return _read_out(_clamp(_sample(segments, times), atol), scenario)


def _sample(segments, times: np.ndarray) -> np.ndarray:
    """Dense output of the segments at ``times``, one ``_dense`` call for all of them.

    A time equal to a segment start is read from the segment it starts,
    and a time past a segment's end at that end.  Within a segment the
    step is the one SciPy's ``OdeSolution`` picks, so each row is that
    segment's dense output bit for bit.
    """
    steps, counts = _join(segments, "right")
    ends = np.cumsum(counts)
    seg = np.searchsorted([t_lo for t_lo, _, _ in segments[1:]], times, side="right")
    times = np.minimum(times, np.array([t_hi for _, t_hi, _ in segments])[seg])
    # the joined steps are in time order: SciPy's step for each time, kept within its segment
    k = np.clip(np.searchsorted(steps.t_old, times) - 1, (ends - counts)[seg], ends[seg] - 1)
    return _dense(steps, k, times)


def _merge_times(grid: np.ndarray, extra: list[float], tol: float) -> np.ndarray:
    """Union of grid and event times; times within ``tol`` of each other are one.

    A grid point within ``tol`` of an event gives way to the event, but the
    grid's end points stay: an event that close to an end is sampled at the
    end, so the samples start at the first grid point and end at the last.
    Of events within ``tol`` of each other, the last one stands.  The grid
    points are tested against every event, before close events are merged.
    """
    events = np.sort(extra)
    # each grid point's distance to the nearest event below and above it
    pos = np.searchsorted(events, grid)
    padded = np.concatenate(([-np.inf], events, [np.inf]))
    near = np.minimum(grid - padded[pos], padded[pos + 1] - grid) <= tol
    near[[0, -1]] = False
    events = events[np.diff(events, append=np.inf) > tol]
    events = events[(events - grid[0] > tol) & (grid[-1] - events > tol)]
    return np.union1d(grid[~near], events)


def integrate(
    scenario: Scenario,
    policy: VaccinationPolicy,
    tol: Tolerances = Tolerances(),
) -> Trajectory:
    """Integrate the system over [0, T] and return its trajectory.

    The run is at most three segments in a fixed order: the capacity branch
    (rate k, while l*s > k), the willingness branch (rate l*s), then no
    vaccination up to T.  Each vaccinating segment solves toward T until
    solve_ivp stops it near the first of tau, the rate kink and the
    stock-out, and ends at the earliest of tau and the kink and stock-out
    that ``_first_fall`` locates on its steps, so until tau the run is the
    always-on run (tau = T) bit for bit.  ``_finish`` then records the
    stock-out, solves the unvaccinated rest and locates the peak and the
    end, as ``stopped_program`` does on the always-on run's segments.  A
    program with tau = 0 (or k = 0, l = 0 or m = 0) runs the uncontrolled
    epidemic.

    Raises ValidationError unless 0 <= tau <= T.
    """
    T = scenario.T
    epidemic = scenario.epidemic
    k, l, m, tau = policy.k, policy.l, policy.m, policy.tau
    segments: list[tuple[float, float, _Steps]] = []
    stock_out = math.inf
    t0, y0 = 0.0, _initial_state(scenario)

    def advance(rate, willingness, g):
        """Solve one vaccinating segment from t0 and return where g's functions first fall on it.

        solve_ivp stops near the first of tau and those falls.  The segment
        then ends at the earliest of tau and the located falls.
        """
        nonlocal t0, y0
        rhs = _branch(epidemic, rate, willingness)
        sol = _solve(rhs, (t0, T), y0, tol, events=_stop_at(tau, g)).sol
        steps = _read_steps(sol)
        # the step solve_ivp's stop cut short is searched in full
        whole = [(t0, sol.interpolants[-1].t, steps)]
        falls = _first_fall(*_steps(whole), g)[:, 0].tolist()
        t1 = min(tau, *falls)
        _refuse_excursions(steps, np.array([t1]), tol.atol)
        segments.append((t0, t1, steps))
        t0, y0 = t1, _at(steps, np.array([t1]))[0]
        return falls

    # a tau beyond T solves nothing: _finish refuses it
    if 0.0 < tau <= T and k > 0.0 and l > 0.0:
        if m == 0.0:
            stock_out = 0.0
        else:
            willing = l * y0[0] <= k
            if not willing:
                kink, stock_out = advance(k, 0.0, lambda y, _: [l * y[0] - k, m - y[3]])
                # the willingness branch follows a kink before the stock-out and tau
                willing = kink < min(stock_out, tau)
            if willing:
                (stock_out,) = advance(0.0, l, lambda y, _: [m - y[3]])
    return _finish(scenario, policy, tol, segments, stock_out)


def _require_always_on(run: Trajectory) -> None:
    """Refuse a run whose program does not last the whole horizon (tau = T).

    A shorter run has stopped vaccinating at its own tau, so it is not the
    run that every program follows until its end.
    """
    if run.policy.tau != run.scenario.T:
        raise ValidationError(
            f"expected the always-on run (tau = T = {run.scenario.T}), got tau = {run.policy.tau}"
        )


def stopped_program(always_on: Trajectory, tau: float) -> Trajectory:
    """The program of duration tau, cut from the always-on run (tau = T).

    Until tau the program is the always-on run bit for bit, so this is
    ``integrate`` at tau with the vaccinating segments taken from that run
    rather than solved again: only the unvaccinated rest is solved.

    Raises ValidationError unless ``always_on`` runs its program for the
    whole horizon and 0 <= tau <= T.
    """
    _require_always_on(always_on)
    policy = replace(always_on.policy, tau=tau)
    # a program that vaccinates nobody has no vaccinating segments
    vaccinating = always_on.segments if policy.k > 0.0 and policy.l > 0.0 else ()
    exhausted = always_on.exhaustion_time
    stock_out = math.inf if exhausted is None else exhausted
    return _finish(always_on.scenario, policy, always_on.tolerances, vaccinating, stock_out)


def _finish(
    scenario: Scenario,
    policy: VaccinationPolicy,
    tol: Tolerances,
    vaccinating,
    stock_out: float,
) -> Trajectory:
    """The run of ``policy`` from its vaccinating segments, solved toward T.

    The segments are cut at tau, or at the located stock-out ``stock_out``
    when that lies at or before tau (tau > 0): the stock-out is then
    recorded, stops vaccination for the rest of the horizon and pins V to m.
    A second segment starts at the rate kink.  The unvaccinated rest is
    solved up to T, and the peak and the epidemic end are located by one
    ``_first_fall`` call on the run's steps, each cut at its segment's end:
    a crossing at a segment's end is found on one side of it.
    """
    T, tau = scenario.T, scenario.in_horizon("tau", policy.tau)
    exhaustion_time = stock_out if 0.0 < tau and stock_out <= tau else None
    cut = tau if exhaustion_time is None else exhaustion_time
    segments = [(t_lo, min(t_hi, cut), steps) for t_lo, t_hi, steps in vaccinating if t_lo < cut]
    events = [Event(t_lo, EVENT_RATE_KINK) for t_lo, _, _ in segments[1:]]
    t0 = segments[-1][1] if segments else 0.0
    y0 = _at(segments[-1][2], np.array([t0]))[0] if segments else _initial_state(scenario)
    if exhaustion_time is not None:
        # the stock is used up: V stays m, bit for bit, without vaccination
        y0[3] = policy.m
        events.append(Event(exhaustion_time, EVENT_SUPPLY_EXHAUSTED))
    # times within 1e-12*T are one time, here as in the samples; past a
    # stock-out the pinned V is read off this segment, however short
    if not segments or exhaustion_time is not None or t0 < T - 1e-12 * T:
        steps = _read_steps(_solve(_branch(scenario.epidemic, 0.0, 0.0), (t0, T), y0, tol).sol)
        _refuse_excursions(steps, np.array([T]), tol.atol)
        segments.append((t0, T, steps))

    beta_e = scenario.epidemic.transmission_rate
    peak, end = _first_fall(*_steps(segments), _markers(np.array([beta_e])))[:, 0].tolist()
    # i peaks where beta_e*s falls through 1, at T if it never does, and at 0
    # with no infections or with beta_e*s at or below 1 from the start
    rising = scenario.initial.i > 0.0 and beta_e * scenario.initial.s > 1.0
    events.append(Event(min(peak, T) if rising else 0.0, EVENT_PEAK))
    if end < math.inf:
        events.append(Event(end, EVENT_EPIDEMIC_END))
    if tau > 0.0:
        events.append(Event(tau, EVENT_PROGRAM_END))
    events.sort(key=lambda e: (e.time, e.kind))

    return Trajectory(
        events=tuple(events),
        scenario=scenario,
        policy=policy,
        tolerances=tol,
        exhaustion_time=exhaustion_time,
        segments=tuple(segments),
    )


@dataclass(frozen=True)
class StoppedPrograms:
    """Programs read off one always-on run, or stacked runs of their own.

    ``stopped_programs`` gives the first and ``stacked_runs`` the second.

    ``final`` holds each program's state (s, i, rho, d, J, V) at T, one row
    per program.
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

    Without ``crossings`` the solves keep no dense output, and each tail's
    state at T is repaired or refused by ``_clamp``: the planner's scans need
    nothing more.  With ``crossings`` the tails are the last stage of
    stacked runs (``_advance``), so each tail's dense output is checked by
    ``_refuse_excursions`` and its peak and end are located as a stacked
    run's are.  A program shares the always-on run's crossing where that
    lies at or before tau, and otherwise has it located on its own tail.
    Rounding can put tau just before an always-on crossing with the function
    already at or below 0, where the tail has no fall to find: so a program
    shares the peak too when beta_e*s is at or below 1 at tau, and, once
    past the always-on peak, the end too when i is at or below
    ``EPIDEMIC_END_THRESHOLD`` at tau.

    Raises ValidationError unless ``always_on`` runs its program for the
    whole horizon and ``taus`` are sorted within [0, T].
    """
    _require_always_on(always_on)
    # a copy: the tails' stage moves each tail's start time on to T
    taus = np.array(taus, dtype=float)
    scenario, tol = always_on.scenario, always_on.tolerances
    T = scenario.T
    # NaN fails every comparison, so the range test is written to fail on it
    if np.any(np.diff(taus) < 0.0) or not np.all((taus >= 0.0) & (taus <= T)):
        raise ValidationError(f"durations must be sorted within [0, {T}]")
    start = _sample(always_on.segments, taus)
    beta_e = scenario.epidemic.transmission_rate
    if not crossings:
        for lo in range(0, len(taus), TAIL_CHUNK):
            cols = slice(lo, lo + TAIL_CHUNK)
            # the durations are sorted: a chunk whose first tail is empty is all empty
            if taus[lo] < T:
                sol = _solve_tails(tol, T - taus[cols], start[cols], beta_e, 0.0, 0.0, dense=False)
                start[cols] = sol.y[:, -1].reshape(4, -1).T
        return StoppedPrograms(_read_out(_clamp(start, tol.atol), scenario))
    peak_on, peak_i_on, end_on = always_on.peak_and_end()
    # a tail's crossing is searched for (NaN) where its function starts above
    # 0, and otherwise is the always-on run's; i below the threshold before
    # the peak may still rise through it, so that end is searched for
    tail_peak = (taus < peak_on) & (beta_e * start[:, 0] > 1.0)
    tail_end = (taus < end_on) & ((taus < peak_on) | (start[:, 1] > EPIDEMIC_END_THRESHOLD))
    peaks = np.where(tail_peak, np.nan, peak_on), np.full(len(taus), peak_i_on)
    runs = _Runs(np.full(len(taus), beta_e), taus, start, *peaks, np.where(tail_end, np.nan, end_on))
    for lo in range(0, len(taus), TAIL_CHUNK):
        _advance(runs, np.arange(lo, min(lo + TAIL_CHUNK, len(taus))), T, 0.0, 0.0, tol)
    final, crossed = _close(runs, T, tol.atol)
    return StoppedPrograms(_read_out(final, scenario), *crossed)


def stacked_runs(points, tol: Tolerances = Tolerances()) -> StoppedPrograms:
    """The run of each (scenario, policy) in ``points``, from stacked solves of all of them.

    Row j holds ``integrate(*points[j], tol)`` as ``StoppedPrograms`` holds a
    program: its state at T, its peak and its end.  Runs alike in all their
    dynamics read (s0, i0, beta_e, k, l, m, tau and T) are solved once, and
    each row's state at T is read out with its own scenario, so unit costs
    and alpha need no solve of their own.

    Per ``TAIL_CHUNK`` distinct runs, three stacked stages (``_advance``)
    follow ``integrate``'s segments:

    1. the capacity branch on [0, tau], for the runs with l*s0 > k;
    2. the willingness branch from each run's rate kink (or from 0) to tau;
    3. no vaccination, from each run's cut to T, as ``stopped_programs``
       solves its tails.

    A run with k, l, m or tau 0 vaccinates nobody and has only the third.
    A vaccinating solve stops at one terminal event, once every row has
    passed its own cut: the first of tau, the rate kink (l*s falls through
    k) and the stock-out (V reaches m).  A row past its cut rides on with
    the others, and its values there are never read.  A row whose stock
    runs out at or before tau has V pinned to m, as ``_finish`` pins it.
    Runs whose stock never runs out and that are alike in all else are one
    run, and take one row's results.

    The rows share each solve's steps, so a row agrees with its own
    ``integrate`` run within tolerance, not bit for bit.  The vaccinating
    solves divide rtol and atol by the square root of their row count, so
    that the joint error norm bounds each row as its own solve would.  The
    unvaccinated rest is solved at ``tol``.  Raises ValidationError unless
    every tau lies in [0, T].
    """
    keys = np.array(
        [
            (
                scenario.initial.s,
                scenario.initial.i,
                scenario.epidemic.transmission_rate,
                policy.k,
                policy.l,
                policy.m,
                scenario.in_horizon("tau", policy.tau),
                scenario.T,
            )
            for scenario, policy in points
        ],
        dtype=float,
    ).reshape(-1, 8)
    unique, position = np.unique(keys, axis=0, return_inverse=True)
    position = position.ravel()
    at_end = np.empty((len(unique), 4))
    crossings = np.empty((3, len(unique)))
    ran_out = np.empty(len(unique), dtype=bool)
    for lo in range(0, len(unique), TAIL_CHUNK):
        rows = slice(lo, lo + TAIL_CHUNK)
        at_end[rows], crossings[:, rows], ran_out[rows] = _stacked_chunk(*unique[rows].T, tol)
    # a stock that never runs out leaves a run as it is without one, so such
    # runs alike in all else are one run: they take one row's results, where
    # the stacked solves would set them apart in their last bits
    free = np.flatnonzero(~ran_out)
    _, first, group = np.unique(
        np.delete(unique[free], 5, axis=1), axis=0, return_index=True, return_inverse=True
    )
    same = free[first][group.ravel()]
    at_end[free], crossings[:, free] = at_end[same], crossings[:, same]
    final = [_read_out(at_end[j : j + 1], sc)[0] for (sc, _), j in zip(points, position)]
    return StoppedPrograms(np.reshape(final, (-1, 6)), *crossings[:, position])


def _stacked_chunk(s0, i0, beta_e, k, l, m, tau, T, tol: Tolerances):
    """Each stacked run's state (s, i, q, V) at T, its peak time, peak i and end, and its stock-out.

    The runs' parameters come one array each, as ``stacked_runs`` describes;
    every run starts at t = 0 in (s0, i0, 0, 0).  A run ran out of stock
    where it is recorded at or before tau, or has none (m = 0).
    """
    n = len(s0)
    rising = (i0 > 0.0) & (beta_e * s0 > 1.0)
    start = np.column_stack((s0, i0, np.zeros(n), np.zeros(n)))
    runs = _Runs(beta_e, np.zeros(n), start, np.where(rising, np.nan, 0.0), i0.copy(), np.full(n, np.nan))
    ran_out = m == 0.0
    vaccinating = (tau > 0.0) & (k > 0.0) & (l > 0.0) & (m > 0.0)
    capacity = np.flatnonzero(vaccinating & (l * s0 > k))
    willing = np.flatnonzero(vaccinating & (l * s0 <= k))
    if len(capacity):

        def cuts(state, r):
            return [l[r, None] * state[0] - k[r, None], m[r, None] - state[3]]

        kink, stock = _advance(runs, capacity, tau, k[capacity], 0.0, tol, cuts)
        # the willingness branch follows a kink before the stock-out and tau
        on = kink < np.minimum(stock, 1.0)
        exhausted = capacity[~on & (stock < np.inf)]
        runs.y[exhausted, 3], ran_out[exhausted] = m[exhausted], True
        willing = np.union1d(willing, capacity[on])
    if len(willing):
        (stock,) = _advance(runs, willing, tau, 0.0, l[willing], tol, lambda y, r: [m[r, None] - y[3]])
        exhausted = willing[stock < np.inf]
        runs.y[exhausted, 3], ran_out[exhausted] = m[exhausted], True
    _advance(runs, np.arange(n), T, 0.0, 0.0, tol)
    return *_close(runs, T, tol.atol), ran_out


class _Runs(NamedTuple):
    """Stacked runs part way: where each row's next part starts, and its crossings so far.

    Row j is at time ``t[j]`` in state ``y[j]`` (s, i, q, V), with the
    transmission rate ``beta_e[j]``.  ``peak_time`` and ``end_time`` are NaN
    until located, and ``peak_i`` holds i at a located peak.  ``_advance``
    moves the rows on in place, and ``_close`` reads the results.
    """

    beta_e: np.ndarray
    t: np.ndarray
    y: np.ndarray
    peak_time: np.ndarray
    peak_i: np.ndarray
    end_time: np.ndarray


def _advance(runs: _Runs, rows, ends, rate, willingness, tol: Tolerances, cuts=None):
    """Solve ``rows`` from their (t, y) toward ``ends``, each as far as its first fall of ``cuts``.

    One stacked ``_solve_tails`` call, on the branch ``rate`` and
    ``willingness`` give; ``ends`` holds each run's end, indexed by run, or
    one end for all.  ``cuts`` gives, as ``_first_fall``'s g does for the
    rows it is handed, the functions whose first fall cuts a row's part;
    without it each part runs to its end.  ``_refuse_excursions`` checks
    each row's part.  Records the peaks and ends within each part, reading
    i at a located peak off the dense output as a run reads its peak row,
    moves each row's (t, y) to its cut, and returns the falls of ``cuts`` as
    positions in [0, 1], inf where there is none.

    A row with beta_e*s already at or below 1 where its part starts, its
    peak's fall put just past the previous cut by rounding (a rate kink at
    the peak, with k = l/beta_e), peaks there.
    """
    beta_e, t, y, peak_time, peak_i, end_time = runs
    at_peak = rows[np.isnan(peak_time[rows]) & (beta_e[rows] * y[rows, 0] <= 1.0)]
    peak_time[at_peak], peak_i[at_peak] = t[at_peak], y[at_peak, 1]
    spans = np.broadcast_to(ends, t.shape)[rows] - t[rows]
    if cuts is None and not spans.max() > 0.0:
        return None
    part_tol, events, markers = tol, None, _markers(beta_e)
    if cuts is not None:
        # solve_ivp's error norm is the RMS over all rows' components, so
        # it lets one row err sqrt(rows) times what its own solve would
        root = math.sqrt(len(rows))
        part_tol = Tolerances(max(tol.rtol / root, RTOL_FLOOR), tol.atol / root)

        def events(u, state):
            # the last row's first cut function falls through 0 here
            return np.min(cuts(state.reshape(4, -1, 1), rows), axis=0).max()

        events.terminal, events.direction = True, -1

    def g(state, r):
        return [*(cuts(state, rows[r]) if cuts else ()), *markers(state, rows[r])]

    sol = _solve_tails(part_tol, spans, y[rows], beta_e[rows], rate, willingness, events=events)
    steps = _read_steps(sol.sol)
    if cuts is None:
        edges, states = sol.t, sol.y.reshape(4, len(rows), -1)
    else:
        # the step the terminal event cut short is searched in full
        edges, states, _ = _steps([(0.0, sol.sol.interpolants[-1].t, steps)])
    falls = _first_fall(edges, states, steps, g)
    cut = np.minimum(falls[:-2].min(axis=0, initial=np.inf), 1.0)
    _refuse_excursions(steps, cut, tol.atol)
    cols = np.arange(len(rows))[:, None] + len(rows) * np.arange(4)
    new = np.isnan(peak_time[rows]) & (falls[-2] <= cut)
    peak_time[rows[new]] = t[rows[new]] + falls[-2, new] * spans[new]
    peak_i[rows[new]] = _clamp(_at(steps, falls[-2, new], cols[new]), tol.atol)[:, 1]
    new = np.isnan(end_time[rows]) & (falls[-1] <= cut)
    end_time[rows[new]] = t[rows[new]] + falls[-1, new] * spans[new]
    # each row's state at its own cut; a part that runs to its end ends where the solve does
    y[rows] = sol.y[:, -1].reshape(4, -1).T if cuts is None else _at(steps, cut, cols)
    t[rows] += cut * spans
    return falls[:-2]


def _close(runs: _Runs, T, atol: float):
    """Each run's state at T, repaired by ``_clamp``, and its peak time, peak i and end.

    A run whose peak was never found has beta_e*s above 1 throughout, so it
    peaks at T, where i is highest.  The end is the first at or after the
    peak, or T.
    """
    final = _clamp(runs.y, atol)
    rose = np.isnan(runs.peak_time)
    peak_time = np.where(rose, T, np.minimum(runs.peak_time, T))
    # NaN, no end located, fails the comparison
    end_time = np.where(runs.end_time >= peak_time, np.minimum(runs.end_time, T), T)
    return final, (peak_time, np.where(rose, final[:, 1], runs.peak_i), end_time)


def _solve_tails(tol: Tolerances, spans, start, beta_e, rate, willingness, dense=True, events=None):
    """The one stacked solve: row j from ``start[j]`` over an interval of length ``spans[j]``.

    Row j has the transmission rate ``beta_e[j]`` and vaccinates at
    ``rate[j] + willingness[j]*s``: k on the capacity branch, l*s on the
    willingness branch, and 0 with both 0.  A scalar stands for the same
    value in every row.  Each row's interval is mapped
    onto u in [0, 1] by t = start + u*span, so the rows share one step
    sequence and the step error is controlled on them jointly.  The state
    vector stacks the rows component by component: all s, then all i, and so
    on.  ``_stacked_branch`` gives its right-hand side.
    """
    rhs = _stacked_branch(spans, beta_e, rate, willingness)
    # a copy: the solver keeps y0 as its first step's start, and with one
    # row ravel() would return a view of the caller's rows
    return _solve(rhs, (0.0, 1.0), start.T.flatten(), tol, dense=dense, events=events)


def _stacked_branch(spans, beta_e, rate, willingness):
    """The right-hand side of ``_solve_tails``' rows in u: row j's ``_rhs_values`` times ``spans[j]``.

    A solve in which no row vaccinates clips s and i to [0, 1], as
    ``_branch`` does.  A vaccinating solve does not: a row past its own cut
    rides on with the others, its s may fall through 0 there, and the clip's
    kink would shrink every row's steps.  Before its cut a row's s is at
    least k/l > 0 or falls toward 0 on the willingness branch without
    reaching it, so there the clip would do nothing.
    """
    n = len(spans)
    vaccinating = bool(np.any(rate) or np.any(willingness))
    no_vaccination = np.zeros(n)

    def rhs(u, y):
        # all s, then all i: one block to clip
        si = y[: 2 * n] if vaccinating else y[: 2 * n].clip(0.0, 1.0)
        s, i = si[:n], si[n:]
        v = rate + willingness * s if vaccinating else no_vaccination
        dt = np.empty((4, n))
        dt[0], dt[1], dt[2], dt[3] = _rhs_values(s, i, v, beta_e)
        dt *= spans
        return dt.ravel()

    return rhs


def _solve(rhs, span, y0, tol: Tolerances, dense=True, events=None):
    """The one solve_ivp call: DOP853 over ``span`` from ``y0``; a failed solve raises IntegrationError."""
    sol = solve_ivp(
        rhs,
        span,
        y0,
        method=_METHOD,
        rtol=tol.rtol,
        atol=tol.atol,
        dense_output=dense,
        events=events,
    )
    if sol.status < 0:
        raise IntegrationError(f"solver failed on [{span[0]}, {span[1]}]: {sol.message}")
    return sol


def _initial_state(scenario: Scenario) -> np.ndarray:
    """The integrated state (s, i, q, V) at t = 0, where q = V = 0."""
    return np.array([scenario.initial.s, scenario.initial.i, 0.0, 0.0])


def _branch(epidemic, rate: float, willingness: float):
    """The right-hand side on one rate branch: v = rate + willingness*s.

    That is k on the capacity branch, l*s on the willingness branch and 0
    when the program is off.  The transmission rate beta_e is read once,
    when the branch is built, not on every call.  Each call clips s and i
    to [0, 1] and works on Python floats, which give the same numbers as
    NumPy's scalars at a fraction of the cost, and returns an ndarray.
    """
    beta_e = epidemic.transmission_rate

    def rhs(t, y):
        s, i, _, _ = y.tolist()
        s = min(max(s, 0.0), 1.0)
        i = min(max(i, 0.0), 1.0)
        return np.array(_rhs_values(s, i, rate + willingness * s, beta_e))

    return rhs


class _Steps(NamedTuple):
    """A solve's DOP853 steps as arrays, read once off solve_ivp's dense output.

    Step j starts at ``t_old[j]`` in state ``y_old[j]``, has length
    ``h[j]`` and the dense-output coefficients ``F[j]``, shape (7, n).
    """

    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    F: np.ndarray


def _read_steps(sol) -> _Steps:
    """The steps of solve_ivp's dense output ``sol`` (an ``OdeSolution``)."""
    steps = sol.interpolants
    if not hasattr(steps[0], "F"):
        # an empty solve has one ConstantDenseOutput, its value at every time:
        # y_old with F = 0 (and h = 1 keeps x finite)
        (step,) = steps
        n = len(step.value)
        return _Steps(np.array([step.t_old]), np.ones(1), np.array([step.value]), np.zeros((1, 7, n)))
    return _Steps(
        np.array([step.t_old for step in steps]),
        np.array([step.h for step in steps]),
        np.array([step.y_old for step in steps]),
        np.array([step.F for step in steps]),
    )


def _dense(steps: _Steps, k: np.ndarray, t: np.ndarray, cols=None) -> np.ndarray:
    """Step ``k``'s dense output at time ``t``, as SciPy's ``Dop853DenseOutput`` evaluates it.

    ``k`` and ``t`` broadcast to the points' shape, and the result adds a
    last axis: every state component, or with ``cols`` the components
    ``cols`` (which broadcast against ``k[..., None]``) of each point.  The
    polynomial is summed in SciPy's Horner order, so each value equals
    SciPy's bit for bit.
    """
    if cols is None:

        def gather(a):
            return a.take(k, axis=0)

    else:
        flat = k[..., None] * steps.y_old.shape[1] + cols

        def gather(a):
            return a.take(flat)

    x = ((t - steps.t_old[k]) / steps.h[k])[..., None]
    factors = (x, 1 - x)
    y_old = gather(steps.y_old)
    y = np.zeros(x.shape[:-1] + y_old.shape[-1:])
    # SciPy's loop: the highest coefficient first, times x and 1 - x in turn
    for i, j in enumerate(range(steps.F.shape[1] - 1, -1, -1)):
        y += gather(steps.F[:, j])
        y *= factors[i % 2]
    y += y_old
    return y


def _at(steps: _Steps, t: np.ndarray, cols=None) -> np.ndarray:
    """The solve's dense output at ``t``, on the step SciPy's ``OdeSolution`` picks.

    That is the last step that starts before t, or the first one.
    """
    k = np.clip(np.searchsorted(steps.t_old, t) - 1, 0, len(steps.t_old) - 1)
    return _dense(steps, k, t, cols)


def _join(segments, side: str) -> tuple[_Steps, np.ndarray]:
    """The steps of a run's segments in time order, and how many each segment keeps.

    A segment keeps its steps up to its end; ``side``, as ``np.searchsorted``
    takes it, says whether it keeps one that starts right there.
    """
    counts = np.array([np.searchsorted(steps.t_old, t_hi, side) for _, t_hi, steps in segments])
    kept = [[a[:c] for a in steps] for (_, _, steps), c in zip(segments, counts)]
    return _Steps(*map(np.concatenate, zip(*kept))), counts


def _steps(segments):
    """The steps of a run's segments, each kept while it starts before its segment's end.

    Returns them as ``_first_fall`` takes them: the edges (each step's
    start, then the last segment's end), the state there, shape
    (4, width, edges) for a solve of ``width`` stacked runs, and the
    steps.  A step's start state is its ``y_old``, which DOP853's dense
    output returns exactly there; the end state is the last segment's
    dense output at its end.
    """
    steps, _ = _join(segments, "left")
    t_end, last = segments[-1][1], segments[-1][2]
    edges = np.append(steps.t_old, t_end)
    states = np.vstack((steps.y_old, _at(last, np.array([t_end]))))
    return edges, states.T.reshape(4, -1, len(edges)), steps


#: Chebyshev points of the second kind on [0, 1], as many as a DOP853 dense
#: output step has coefficients (it is a polynomial of degree 7 in time), and
#: their barycentric weights.
_NODES = 0.5 - 0.5 * np.cos(np.pi * np.arange(8) / 7)
_WEIGHTS = np.array([0.5, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -0.5])

#: Bits to which the search narrows a crossing's position in [0, 1], below
#: the spacing of doubles there.
_BITS = 60

#: Pieces per round of the search, shared by the crossings searched
#: together: a lone run's few crossings take hundreds each, so few rounds,
#: and a chunk of tails takes two, a bisection.
_PIECES = 512


def _markers(beta_e: np.ndarray):
    """The peak's function beta_e*s - 1 and the epidemic end's i - ``EPIDEMIC_END_THRESHOLD``.

    ``beta_e`` holds each stacked run's transmission rate.
    """
    return lambda y, rows: [beta_e[rows, None] * y[0] - 1.0, y[1] - EPIDEMIC_END_THRESHOLD]


def _stop_at(tau: float, g):
    """A terminal solve_ivp event at the first of tau and the falls of g's functions.

    Each of them falls through 0 at most once on a segment, so their
    minimum does too, where the first of them does.  g is that of one run,
    row 0.
    """

    def stop(t, y):
        return min(tau - t, *g(y, 0))

    stop.terminal, stop.direction = True, -1
    return stop


def _first_fall(edges, states, steps: _Steps, g):
    """Where each of g's functions first falls through 0 on each stacked run.

    The steps of one solve run from ``edges[j]`` to ``edges[j + 1]``;
    ``states`` holds the state at the edges, shape (4, width, len(edges)),
    and row j of ``steps`` holds the dense output of the stacked state,
    component first, on step j (or on an interval containing it).  ``g``
    maps a state array (4, r, ...) and the run each of its r entries
    belongs to, an index array of shape (r,), to a list of its n functions'
    values, so that a function can read each run's own parameters.  It is
    called on the edge states, one entry per run, and on the node states of
    each crossing's step, one entry per crossing; one ``_dense`` call reads
    the nodes of every crossing, each from its own step and only its own
    run's components.  As solve_ivp finds an event of direction -1, a
    crossing lies in the first step with g >= 0 at its start and g <= 0 at
    its end; ``_fall_position`` then narrows it on the step's polynomial.
    This is the one place that locates crossings: the rate kink, the
    stock-out, the peak and the epidemic end, of one run (width 1), of
    stacked tails or of stacked runs.

    Returns each crossing's time, shape (n, width), inf where g does not
    fall through 0.  The state at a crossing is read off the dense output
    there, as any other value is.
    """
    values = np.asarray(g(states, np.arange(states.shape[1])))
    down = (values[..., :-1] >= 0.0) & (values[..., 1:] <= 0.0)
    func, run = np.nonzero(down.any(axis=-1))
    step = down[func, run].argmax(axis=-1)
    # the state at the Chebyshev nodes of each crossing's step: its run's
    # four components, shape (4, crossings, nodes)
    t0, t1 = edges[step, None], edges[step + 1, None]
    cols = run[:, None, None] + states.shape[1] * np.arange(len(states))
    nodes = _dense(steps, step[:, None], t0 + _NODES * (t1 - t0), cols).transpose(2, 0, 1)
    x = _fall_position(np.asarray(g(nodes, run))[func, np.arange(len(step))])
    times = np.full(values.shape[:2], np.inf)
    times[func, run] = edges[step] + x * (edges[step + 1] - edges[step])
    return times


def _fall_position(node_values: np.ndarray) -> np.ndarray:
    """Where row j's polynomial through ``node_values[j]`` on ``_NODES`` falls through 0.

    Each polynomial is >= 0 at 0 and <= 0 at 1.  Every round splits each
    bracket into equal pieces, keeps the first piece that ends at or below
    0 and re-expresses the polynomial by its values at that piece's nodes,
    so a round is one matrix product and the fall found is the first at the
    pieces' resolution.  Returns the bracket's right end.
    """
    rows = len(node_values)
    if rows == 0:
        return np.zeros(0)
    bits = max(1, int(math.log2(_PIECES / rows)))
    splits, to_pieces = 2**bits, _piece_basis(bits)
    every = np.arange(rows)
    lo, width = np.zeros(rows), 1.0
    for _ in range(-(-_BITS // bits)):
        pieces = (node_values @ to_pieces).reshape(rows, splits, len(_NODES))
        fallen = pieces[:, :, -1] <= 0.0
        # the last piece ends where the bracket does, at or below 0
        fallen[:, -1] = True
        first = fallen.argmax(axis=1)
        node_values = pieces[every, first]
        width /= splits
        lo += first * width
    return lo + width


@functools.cache
def _piece_basis(bits: int) -> np.ndarray:
    """Maps values at ``_NODES`` to values at the nodes of each of 2**bits equal pieces of [0, 1].

    Shape (len(_NODES), 2**bits * len(_NODES)).
    """
    splits = 2**bits
    return _lagrange(((np.arange(splits)[:, None] + _NODES) / splits).ravel()).T


def _lagrange(x: np.ndarray) -> np.ndarray:
    """The Lagrange basis on ``_NODES`` at each of ``x``: shape (len(x), len(_NODES))."""
    diff = x[:, None] - _NODES
    on_node = diff == 0.0
    diff[on_node] = 1.0
    w = _WEIGHTS / diff
    basis = w / w.sum(axis=1, keepdims=True)
    exact = on_node.any(axis=1)
    basis[exact] = on_node[exact]
    return basis
