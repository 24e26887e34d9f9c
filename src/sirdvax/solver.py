"""Piecewise adaptive integration of the SIRD system under a vaccination program.

A program vaccinates at min(k, l*s) until tau or until the stock m runs out,
so every run has at most three smooth pieces, always in this order:

1. the capacity branch (rate k), while l*s > k;
2. the willingness branch (rate l*s), from the rate kink where l*s falls
   through k;
3. no vaccination, from the program end or supply exhaustion (where the
   accumulated usage V reaches m) to the horizon T.

Every run is solved as stacked runs, of one row or many, piece by piece:
each piece is one stage, ``_advance``, one solve with the rate fixed to its
branch, so no step straddles a switch and every smooth piece is
integrated at the full order of the Dormand-Prince 8(5,3) pair (SciPy's
DOP853).  A stage maps each row's interval onto u in [0, 1] by
t = start + u*span, and its steps stay in u: every time a run is read at
is mapped onto u once (``_to_u``).  The 7th-order dense output backs
interpolation between samples and every located crossing.  Each solve's
steps are read once into arrays (``_read_steps``), and one kernel,
``_dense``, evaluates any number of points on them in one array pass,
with SciPy's choice of step and its Horner order, so every value equals
SciPy's dense output bit for bit.  One locator, ``_first_fall``, finds
them all on a stage's steps: the rate kink and the stock-out that end a
vaccinating stage, and the peak and the epidemic end.  A vaccinating
stage's stepper stops itself, on the first step where the last row's
first stop falls through 0 (``_StateControlled``), so solve_ivp gets no
events and finds no root; each row then ends at the earliest of its tau
and its located kink and stock-out.  One rule,
``_kept``, decides which peak and end a row cut within a few ulps of them
keeps, in a stage and in the cut of the always-on run alike.

One rule refuses a run: every solve whose dense output is kept is checked
when it is made, by ``_refuse_excursions``, and refused if that output
leaves [0, 1] by more than the drift band before a run's end.  The
samples are then built only when read, and ``_clamp`` only repairs them.

One schedule runs them all: ``_vaccinate`` (the capacity branch, the
willingness branch, the stock-out pin), then ``_tail`` (no vaccination).
``integrate`` runs it for one row, whose stage solves become its
``Trajectory.segments``, and ``stacked_runs`` for many runs that differ in
their parameters, not only in tau: each row of ``_solve_tails``, the one
stacked solve, has its own transmission rate and vaccination rate.  The
choice by row count is one fork: a solve of one row, as every stage of a
lone run is, steps on Python floats, its right-hand side
(``_stacked_branch``) and its DOP853 step alike (``_FloatStepped``,
straight-line code generated once from SciPy's tableau), and calls no
BLAS, so a lone run's bits do not depend on the BLAS kernel.  n rows step
on SciPy's DOP853 (``_StateControlled``).

Until tau a run is the always-on run (tau = T) bit for bit, so
``stopped_program`` and ``stopped_programs`` cut that run's vaccinating
segments at tau instead of solving them again (``_cut``), and run the tail
``integrate`` runs: a program of one duration is ``integrate`` at that
duration bit for bit.  The planner's scans, which need only each tail's
state at T, carry each tail's sensitivity to tau in the same solve
instead, for the cost's slope; the states alone choose the steps
(``_StateControlled``).

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
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput

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

    Both markers are located at their first crossing on the steps of the
    stage that reaches it; one within its stage's last step, just past the
    stage's end, is kept where the function is already at or below 0
    there (``_advance``), so a crossing at a switch is found once.

    ``segments`` holds (start, end, steps, span) for each solver segment in
    time order: the capacity branch, the willingness branch and the
    unvaccinated rest, as far as the run has them.  The steps are the
    segment's solve, in its own variable u with t = start + u*span, read
    once into arrays of DOP853 dense-output coefficients of (s, i, q, V);
    ``_sample`` maps each time onto its segment's u once and reads it there.

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
    segments: tuple[tuple[float, float, _Steps, float], ...]

    @functools.cached_property
    def times(self) -> np.ndarray:
        T = self.scenario.T
        # times within 1e-12*T of each other are one sample
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
    out earlier, and 0 from there on: the cut ``_vaccinate`` and ``_cut`` apply.
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
    """Dense output of the segments at ``times``.

    A time equal to a segment start is read from the segment it starts,
    and a time past a segment's end at that end.  Each time is mapped onto
    its segment's u once (``_to_u``) and read on the step SciPy's
    ``OdeSolution`` picks there, so each row is that segment's dense output
    bit for bit.
    """
    seg = np.searchsorted([start for start, *_ in segments[1:]], times, side="right")
    rows = np.empty((len(times), 4))
    for j, (start, end, steps, span) in enumerate(segments):
        here = seg == j
        rows[here] = _at(steps, _to_u(np.minimum(times[here], end), start, span))
    return rows


def _to_u(t, start, span) -> np.ndarray:
    """Times ``t`` on a solve of t = start + u*span, as its u; 0 on an empty span."""
    dt = np.subtract(t, start)
    span = np.broadcast_to(span, dt.shape)
    return np.divide(dt, span, out=np.zeros(dt.shape), where=span > 0.0)


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

    The run is a stacked run of one row, on the stages ``stacked_runs``
    runs for each of its rows (``_vaccinate``): the capacity branch (rate
    k, while l*s > k), the willingness branch (rate l*s), then no
    vaccination up to T (``_program``).  Each vaccinating stage solves
    toward T until its stepper stops on the step of the first of tau, the
    rate kink and the stock-out, and ends at the earliest of tau and the
    kink and stock-out that ``_first_fall`` locates on its steps, so until
    tau the run is the always-on run (tau = T) bit for bit.  ``_program`` then
    solves the unvaccinated rest as ``stopped_program`` does on the
    always-on run's segments.  A program with tau = 0 (or k = 0, l = 0 or
    m = 0) runs the uncontrolled epidemic.

    Raises ValidationError unless 0 <= tau <= T.
    """
    runs, stock_out, parts = _vaccinate(*np.array(_dynamics(scenario, policy), dtype=float)[:, None], tol)
    return _program(scenario, policy, tol, _segments(parts), runs, stock_out)


def _dynamics(scenario: Scenario, policy: VaccinationPolicy) -> tuple[float, ...]:
    """All that a run's dynamics read: (s0, i0, beta_e, k, l, m, tau, T).

    Raises ValidationError unless 0 <= tau <= T.
    """
    initial, tau = scenario.initial, scenario.in_horizon("tau", policy.tau)
    return (initial.s, initial.i, scenario.epidemic.transmission_rate, policy.k, policy.l, policy.m, tau, scenario.T)


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
    rather than solved again: only the unvaccinated rest is solved, by the
    tail ``integrate`` runs.

    Raises ValidationError unless ``always_on`` runs its program for the
    whole horizon and 0 <= tau <= T.
    """
    policy = replace(always_on.policy, tau=tau)
    runs, stock_out, vaccinating = _cut_runs(always_on, np.array([always_on.scenario.in_horizon("tau", tau)]))
    (cut,) = runs.t.tolist()
    vaccinating = [(start, min(end, cut), steps, span) for start, end, steps, span in vaccinating if start < cut]
    return _program(always_on.scenario, policy, always_on.tolerances, vaccinating, runs, stock_out)


def _program(scenario: Scenario, policy: VaccinationPolicy, tol: Tolerances, vaccinating, runs, stock_out):
    """The trajectory of one program, a stacked run of one row at the end of its vaccinating segments.

    ``runs`` holds the row after the segments ``vaccinating`` and
    ``stock_out`` where its stock ran out (NaN if it did not).  The row's
    tail (``_tail``) is solved up to T; a kink is recorded at each
    vaccinating segment's start after the first, and the stock-out stops
    vaccination for the rest of the horizon.
    """
    T = scenario.T
    tail = _tail(runs, np.zeros(1, dtype=int), T, tol, ~np.isnan(stock_out))
    (exhausted,), (peak,), (end,) = stock_out.tolist(), runs.peak_time.tolist(), runs.end_time.tolist()
    events = [Event(start, EVENT_RATE_KINK) for start, *_ in vaccinating[1:]]
    if not math.isnan(exhausted):
        events.append(Event(exhausted, EVENT_SUPPLY_EXHAUSTED))
    # i peaks at T if beta_e*s never falls through 1
    events.append(Event(T if math.isnan(peak) else min(peak, T), EVENT_PEAK))
    if not math.isnan(end):
        events.append(Event(min(end, T), EVENT_EPIDEMIC_END))
    if policy.tau > 0.0:
        events.append(Event(policy.tau, EVENT_PROGRAM_END))
    events.sort(key=lambda e: (e.time, e.kind))
    exhaustion_time = None if math.isnan(exhausted) else exhausted
    segments = (*vaccinating, *_segments(tail))
    return Trajectory(tuple(events), scenario, policy, tol, exhaustion_time, segments)


def _segments(parts) -> tuple:
    """The segments (start, end, steps, span) of a one-row run's parts."""
    return tuple((float(start[0]), float(end[0]), steps, float(span[0])) for start, end, steps, span in parts)


@dataclass(frozen=True)
class StoppedPrograms:
    """Programs read off one always-on run, or stacked runs of their own.

    ``stopped_programs`` gives the first and ``stacked_runs`` the second.

    ``final`` holds each program's state (s, i, rho, d, J, V) at T, one row
    per program.  ``slope`` holds dJ(T)/dtau at each program's tau, the
    planner's cost slope, when the programs are read off one always-on run
    without crossings; otherwise it is None.
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
    slope: np.ndarray | None = None


def stopped_programs(
    always_on: Trajectory, taus: np.ndarray, crossings: bool = False
) -> StoppedPrograms:
    """Programs ending at each of ``taus``, read off one always-on run.

    ``always_on`` is a run with the program on for the whole horizon
    (tau = T), and ``taus`` are sorted times in [0, T].  Until tau a program
    of duration tau is the always-on run bit for bit, so its state where it
    stops vaccinating, at tau or at the always-on stock-out before it
    (``_cut``), is that run's dense output there.  Every state is then
    advanced to T without vaccination, which keeps V as it is, in one solve
    per ``TAIL_CHUNK`` durations: each tail's interval [cut, T] is mapped
    onto u in [0, 1] by t = cut + u*(T - cut), and the stacked tails share
    one step sequence, so the step error is controlled on them jointly
    rather than tail by tail.

    Without ``crossings`` the solves keep no dense output, and each tail's
    state at T is repaired or refused by ``_clamp``: the planner's scans need
    nothing more than that and each program's cost slope
    dJ(T)/dtau = a*v + (alpha*b + beta*c)*z_q(T).  v is the always-on rate
    min(k, l*s) just before tau (just after it at tau = 0), up to and at the
    stock-out and 0 past it, so at a binding cap this is the left
    derivative.  z = d(s, i, q)/dtau starts at (-v, 0, 0) on each tail, the
    vaccinating less the unvaccinated derivative of (s, i, q) at tau, and
    is carried to T by the tail's own solve (``_solve_tails``), on the
    steps the states choose.  A slope that is not finite is refused.

    With ``crossings`` the tails are the last stage of stacked runs
    (``_tail``), the one ``integrate`` runs, so a program of one duration is
    ``integrate`` at that duration bit for bit; each tail's dense output is
    checked by ``_refuse_excursions`` and its peak and end are located as a
    stacked run's are.  A program takes the always-on run's crossings where
    its own vaccinating stage would have kept them (``_cut_runs``).

    Raises ValidationError unless ``always_on`` runs its program for the
    whole horizon and ``taus`` are sorted within [0, T].
    """
    taus = np.array(taus, dtype=float)
    scenario, tol = always_on.scenario, always_on.tolerances
    T = scenario.T
    # NaN fails every comparison, so the range test is written to fail on it
    if np.any(np.diff(taus) < 0.0) or not np.all((taus >= 0.0) & (taus <= T)):
        raise ValidationError(f"durations must be sorted within [0, {T}]")
    if not crossings:
        cut, start, _, _ = _cut(always_on, taus)
        beta_e = scenario.epidemic.transmission_rate
        # the rate just before tau (just after it at tau = 0), 0 past the stock-out
        policy, cap = always_on.policy, always_on.exhaustion_time
        cap = T if cap is None else cap
        v = np.where((taus <= cap) & (cap > 0.0), np.minimum(policy.k, policy.l * start[:, 0]), 0.0)
        # each tail carries z = d(s, i, q)/dtau, which starts at (-v, 0, 0)
        tails = np.column_stack((start, -v, np.zeros((len(taus), 2))))
        for lo in range(0, len(taus), TAIL_CHUNK):
            cols = slice(lo, lo + TAIL_CHUNK)
            # the cuts are sorted: a chunk whose first tail is empty is all empty
            if cut[lo] < T:
                sol = _solve_tails(tol, T - cut[cols], tails[cols], beta_e, 0.0, 0.0, dense=False)
                tails[cols] = sol.y[:, -1].reshape(7, -1).T
        final = _read_out(_clamp(tails[:, :4], tol.atol), scenario)
        slope = scenario.cost.a * v + treatment_cost_rate(scenario.epidemic, scenario.cost) * tails[:, 6]
        if not np.isfinite(slope).all():
            bad = np.flatnonzero(~np.isfinite(slope))[0]
            raise IntegrationError(f"cost slope at tau = {taus[bad]} is not finite: {slope[bad]}")
        return StoppedPrograms(final, slope=slope)
    runs, stock_out, _ = _cut_runs(always_on, taus)
    for lo in range(0, len(taus), TAIL_CHUNK):
        _tail(runs, np.arange(lo, min(lo + TAIL_CHUNK, len(taus))), T, tol, ~np.isnan(stock_out))
    final, crossed = _close(runs, T, tol.atol)
    return StoppedPrograms(_read_out(final, scenario), *crossed)


def _cut(always_on: Trajectory, taus: np.ndarray):
    """Where each program of a duration in ``taus`` stops vaccinating, and its state there.

    A program stops at its tau, or at the always-on run's stock-out where
    that lies at or before tau (tau > 0), and one that vaccinates nobody at
    0.  Returns the cuts, the always-on run's dense output there (s, i, q,
    V), each program's stock-out (NaN where its stock lasts), and the
    always-on run's vaccinating segments.  Raises ValidationError unless
    ``always_on`` runs its program for the whole horizon.
    """
    _require_always_on(always_on)
    policy = always_on.policy
    exhausted = math.inf if always_on.exhaustion_time is None else always_on.exhaustion_time
    vaccinates = policy.k > 0.0 and policy.l > 0.0
    vaccinating = [seg for seg in always_on.segments if seg[0] < exhausted] if vaccinates else []
    stock_out = np.where((taus > 0.0) & (exhausted <= taus), exhausted, np.nan)
    cut = np.where(np.isnan(stock_out), taus, stock_out) if vaccinating else np.zeros(len(taus))
    # at its stock-out the always-on run's rest starts, with V pinned to m
    return cut, _sample(always_on.segments, cut), stock_out, vaccinating


def _cut_runs(always_on: Trajectory, taus: np.ndarray):
    """The programs of ``taus`` as stacked runs at their cuts (``_cut``), with the crossings they keep.

    A program's vaccinating stage is the always-on run's, solved as far as
    the step of its cut, so it keeps the always-on peak and end that the
    one rounding rule at a cut (``_kept``) keeps on that run's steps.  Its other
    crossings are located on its tail.  i at a kept peak past the cut is
    read on the tail, where the program's samples read it.  Returns the
    runs, and the stock-outs and vaccinating segments as ``_cut`` does.
    """
    cut, start, stock_out, vaccinating = _cut(always_on, taus)
    beta_e = np.full(len(taus), always_on.scenario.epidemic.transmission_rate)
    peak_on = next(e.time for e in always_on.events if e.kind == EVENT_PEAK)
    end_on = next((e.time for e in always_on.events if e.kind == EVENT_EPIDEMIC_END), math.inf)
    crossing = np.array([[peak_on], [end_on]])
    kept, markers = crossing <= cut, _markers(beta_e)
    for seg_start, seg_end, steps, span in vaccinating:
        here = np.flatnonzero((seg_start < cut) & (cut <= seg_end))
        kept[:, here] = _kept(crossing, cut[here], start[here], here, markers, steps, seg_start, span)
    peak_time, end_time = np.where(kept, crossing, np.nan)
    peak_i = np.where(kept[0] & (peak_on <= cut), always_on.peak_and_end()[1], np.nan)
    return _Runs(beta_e, cut, start, peak_time, peak_i, end_time), stock_out, vaccinating


def stacked_runs(points, tol: Tolerances = Tolerances()) -> StoppedPrograms:
    """The run of each (scenario, policy) in ``points``, from stacked solves of all of them.

    Row j holds ``integrate(*points[j], tol)`` as ``StoppedPrograms`` holds a
    program: its state at T, its peak and its end.  Runs alike in all their
    dynamics read (s0, i0, beta_e, k, l, m, tau and T) are solved once, and
    each row's state at T is read out with its own scenario, so unit costs
    and alpha need no solve of their own.

    Per ``TAIL_CHUNK`` distinct runs, the stages ``integrate`` runs for its
    one row are run for all of them: ``_vaccinate``'s capacity and
    willingness branches, then ``_tail``.  A run with k, l, m or tau 0
    vaccinates nobody and has only the tail.  Runs whose stock never runs
    out and that are alike in all else are one run, and take one row's
    results.

    The rows share each solve's steps, so a row agrees with its own
    ``integrate`` run within tolerance, not bit for bit.  The vaccinating
    solves divide rtol and atol by the square root of their row count, so
    that the joint error norm bounds each row as its own solve would.  The
    unvaccinated rest is solved at ``tol``.  Raises ValidationError unless
    every tau lies in [0, T].
    """
    keys = np.array([_dynamics(scenario, policy) for scenario, policy in points], dtype=float).reshape(-1, 8)
    unique, position = np.unique(keys, axis=0, return_inverse=True)
    position = position.ravel()
    at_end = np.empty((len(unique), 4))
    crossings = np.empty((3, len(unique)))
    ran_out = np.empty(len(unique), dtype=bool)
    for lo in range(0, len(unique), TAIL_CHUNK):
        rows = slice(lo, lo + TAIL_CHUNK)
        runs, stock_out, _ = _vaccinate(*unique[rows].T, tol)
        ran_out[rows] = ~np.isnan(stock_out)
        _tail(runs, np.arange(len(stock_out)), unique[rows, 7], tol, ran_out[rows])
        at_end[rows], crossings[:, rows] = _close(runs, unique[rows, 7], tol.atol)
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


def _vaccinate(s0, i0, beta_e, k, l, m, tau, T, tol: Tolerances):
    """Stacked runs through their vaccinating stages: the runs at their cuts, and where their stock ran out.

    The runs' parameters come one array each, as ``stacked_runs``
    describes; every run starts at t = 0 in (s0, i0, 0, 0).  The stages:

    1. the capacity branch, for the runs with l*s0 > k;
    2. the willingness branch, from each run's rate kink (or from 0);
    3. the stock-out pin: a run whose stock runs out at or before tau has V
       set to m, and one with no stock (m = 0) runs out at 0.

    Each stage solves toward T and stops each run at the first of its tau,
    the rate kink (l*s falls through k) and the stock-out (V reaches m),
    once every run has passed its own; a run past its stop rides on with
    the others, and only its crossings within its stop's step are its own.
    Returns the runs, their stock-outs (NaN where the stock lasts) and the
    stages' parts as ``_advance`` gives them.
    """
    n = len(s0)
    rising = (i0 > 0.0) & (beta_e * s0 > 1.0)
    start = np.column_stack((s0, i0, np.zeros(n), np.zeros(n)))
    # i peaks at 0 unless it rises, and then where it is located
    peak = np.where(rising, np.nan, 0.0), np.where(rising, np.nan, i0)
    runs = _Runs(beta_e, np.zeros(n), start, *peak, np.full(n, np.nan))
    parts = []
    program = (tau > 0.0) & (k > 0.0) & (l > 0.0)
    stock_out = np.where(program & (m == 0.0), 0.0, np.nan)
    capacity = np.flatnonzero(program & (m > 0.0) & (l * s0 > k))
    willing = np.flatnonzero(program & (m > 0.0) & (l * s0 <= k))
    # V reaches m where -V - (-m) = m - V falls through 0
    stock_out_form = (3, np.full(n, -1.0), -m)
    if len(capacity):
        # the rate kink: l*s falls through k
        part, (kink, stock) = _advance(runs, capacity, T, k[capacity], 0.0, tol, [(0, l, k), stock_out_form], tau)
        parts.append(part)
        # the willingness branch follows a kink before the stock-out and tau
        on = kink < np.minimum(stock, tau[capacity])
        out = ~on & (stock <= tau[capacity])
        stock_out[capacity[out]] = stock[out]
        willing = np.union1d(willing, capacity[on])
    if len(willing):
        part, (stock,) = _advance(runs, willing, T, 0.0, l[willing], tol, [stock_out_form], tau)
        parts.append(part)
        out = stock <= tau[willing]
        stock_out[willing[out]] = stock[out]
    # the stock is used up: V stays m, bit for bit, without vaccination
    ran_out = ~np.isnan(stock_out)
    runs.y[ran_out, 3] = m[ran_out]
    return runs, stock_out, parts


def _tail(runs: _Runs, rows, T, tol: Tolerances, pinned) -> list:
    """The unvaccinated stage of ``rows``, from each row's cut up to its T: its parts, none or one.

    It is solved unless every row already ends at T; a row whose stock
    ran out at T (``pinned``) still takes an empty solve, whose steps hold
    its pinned V for the samples.
    """
    if np.any(runs.t[rows] < np.broadcast_to(T, runs.t.shape)[rows]) or np.any(pinned[rows]):
        return [_advance(runs, rows, T, 0.0, 0.0, tol)[0]]
    return []


class _Runs(NamedTuple):
    """Stacked runs part way: where each row's next part starts, and its crossings so far.

    Row j is at time ``t[j]`` in state ``y[j]`` (s, i, q, V), with the
    transmission rate ``beta_e[j]``.  ``peak_time`` and ``end_time`` are NaN
    until located, and ``peak_i`` holds i at a located peak, NaN until
    read.  ``_advance`` moves the rows on in place, and ``_close`` reads
    the results.
    """

    beta_e: np.ndarray
    t: np.ndarray
    y: np.ndarray
    peak_time: np.ndarray
    peak_i: np.ndarray
    end_time: np.ndarray


def _advance(runs: _Runs, rows, ends, rate, willingness, tol: Tolerances, cuts=(), stops=None):
    """Solve ``rows`` from their (t, y) toward ``ends``, each as far as its first stop.

    One stacked ``_solve_tails`` call, on the branch ``rate`` and
    ``willingness`` give; ``ends`` and ``stops`` hold each run's end and
    program end, indexed by run, or one value for all.  ``cuts`` lists the
    functions whose first fall stops a row, each a linear form
    (component, weight, level) with one weight and level per run:
    weight*y[component] - level.  A vaccinating stage has them, and stops
    each row at the first of its program end and those falls, once every
    row has passed its own: its stepper ends the solve on the first step
    where the stop function, the largest of the rows' first stops, falls
    through 0 (``_StateControlled``), and the whole of that step is
    searched.  The function has a float form for one row, as
    ``_stacked_branch`` has.  Without them each part runs to its end.

    Each row's cut is a time: it is mapped onto u once (``_to_u``), the row
    moves on to it with its dense output there, and ``_refuse_excursions``
    checks its part up to it.  A fall located in the last ulp below u = 1
    lies at the row's end.  The peaks and ends are recorded where ``_kept``
    keeps them.  i at a peak is read at the peak time, on the part whose
    samples read it: past the cut, on the next.  Returns the part, as the
    rows' starts and cuts, the steps and the rows' spans, and the times of
    the falls of ``cuts``, inf where there is none.
    """
    beta_e, t, y, peak_time, peak_i, end_time = runs
    start = t[rows]
    t_end = np.broadcast_to(ends, t.shape)[rows]
    spans = t_end - start
    part_tol, stop, markers = tol, None, _markers(beta_e)
    forms = [(c, weight[rows], level[rows]) for c, weight, level in cuts]
    if cuts:
        stops = np.broadcast_to(stops, t.shape)[rows]
        # solve_ivp's error norm is the RMS over all rows' components, so
        # it lets one row err sqrt(rows) times what its own solve would
        root = math.sqrt(len(rows))
        part_tol = Tolerances(max(tol.rtol / root, RTOL_FLOOR), tol.atol / root)
        u_stop = _to_u(stops, start, spans)

        def stop(u, state):
            # the last row's first stop falls through 0 where this does
            y = state.reshape(4, -1)
            return np.min([u_stop - u, *(weight * y[c] - level for c, weight, level in forms)], axis=0).max()

        if len(rows) == 1:
            (u_one,), one = u_stop.tolist(), [(c, float(weight[0]), float(level[0])) for c, weight, level in forms]

            def floats(u, *y):
                first = u_one - u
                for c, weight, level in one:
                    value = weight * y[c] - level
                    # np.min's rule, which passes NaN on
                    first = first if first <= value or first != first else value
                return first

            stop.floats = floats

    def g(state, r):
        cut = [weight[r, None] * state[c] - level[r, None] for c, weight, level in forms]
        return [*cut, *markers(state, rows[r])]

    sol = _solve_tails(part_tol, spans, y[rows], beta_e[rows], rate, willingness, stop=stop)
    steps = _read_steps(sol.sol)
    # each fall's position in u as a time, inf where there is none
    u_falls = _first_fall(sol.t, sol.y.reshape(4, len(rows), -1), steps, g)
    falls = np.where(np.isfinite(u_falls), start + np.minimum(u_falls, 1.0) * spans, np.inf)
    # start + u*span can put a fall in the last ulp below u = 1 an ulp before the end
    falls = np.where(np.isfinite(u_falls) & (u_falls >= _LAST_U), t_end, falls)
    t_cut = np.minimum(stops, falls[:-2].min(axis=0)) if cuts else t_end
    u_cut = _to_u(t_cut, start, spans)
    _refuse_excursions(steps, u_cut, tol.atol)
    cols = np.arange(len(rows))[:, None] + len(rows) * np.arange(4)
    at_cut = _at(steps, u_cut, cols)
    marks = falls[-2:]
    kept = _kept(marks, t_cut, at_cut, rows, markers, steps, start, spans)
    for fall, keep, found in zip(marks, kept, (peak_time, end_time)):
        new = np.isnan(found[rows]) & keep
        found[rows[new]] = fall[new]
    read = np.isnan(peak_i[rows]) & ~np.isnan(peak_time[rows]) & ((peak_time[rows] <= t_cut) | (not cuts))
    if read.any():
        u = _to_u(np.minimum(peak_time[rows[read]], t_cut[read]), start[read], spans[read])
        peak_i[rows[read]] = _clamp(_at(steps, u, cols[read]), tol.atol)[:, 1]
    y[rows], t[rows] = at_cut, t_cut
    return (start, t_cut, steps, spans), falls[:-2]


def _kept(falls, t_cut, at_cut, rows, markers, steps: _Steps, start, span):
    """Which falls of ``markers`` (the peak's and the end's) a stage cut at ``t_cut`` keeps.

    The one rounding rule at a cut: a stage keeps a fall at or before its
    cut, and one past it that it located inside its last step (the cut's)
    where the function at the cut is already at or below 0, as rounding can
    put a cut just before a crossing.  ``falls`` holds the times, shape
    (2, len(rows)), inf where there is none; ``at_cut`` holds each row's
    state (s, i, q, V) at its cut, and ``steps`` the stage's solve of
    t = start + u*span.
    """
    last = _step_of(steps, _to_u(t_cut, start, span))
    same_step = _step_of(steps, _to_u(falls, start, span)) == last
    below = np.asarray(markers(at_cut.T[:, :, None], rows))[:, :, 0] <= 0.0
    return (falls <= t_cut) | (np.isfinite(falls) & below & same_step)


def _close(runs: _Runs, T, atol: float):
    """Each run's state at T, repaired by ``_clamp``, and its peak time, peak i and end.

    A run whose peak was never found has beta_e*s above 1 throughout, so it
    peaks at T, where i is highest; so does one whose peak, past its last
    cut, no part read.  The end is the first at or after the peak, or T.
    """
    final = _clamp(runs.y, atol)
    peak_time = np.where(np.isnan(runs.peak_time), T, np.minimum(runs.peak_time, T))
    peak_i = np.where(np.isnan(runs.peak_i), final[:, 1], runs.peak_i)
    # NaN, no end located, fails the comparison
    end_time = np.where(runs.end_time >= peak_time, np.minimum(runs.end_time, T), T)
    return final, (peak_time, peak_i, end_time)


def _solve_tails(tol: Tolerances, spans, start, beta_e, rate, willingness, dense=True, stop=None):
    """The one stacked solve: row j from ``start[j]`` over an interval of length ``spans[j]``.

    Row j has the transmission rate ``beta_e[j]`` and vaccinates at
    ``rate[j] + willingness[j]*s``: k on the capacity branch, l*s on the
    willingness branch, and 0 with both 0.  A scalar stands for the same
    value in every row.  Each row's interval is mapped
    onto u in [0, 1] by t = start + u*span, so the rows share one step
    sequence and the step error is controlled on them jointly.  The state
    vector stacks the rows component by component: all s, then all i, and so
    on.  ``_stacked_branch`` gives its right-hand side.  Where every span
    is 0 the solve is empty, and its one step holds the start.

    ``start`` holds (s, i, q, V) per row, or, for an unvaccinated solve,
    (s, i, q, V) and a sensitivity z = (z_s, z_i, z_q) of (s, i, q).  The
    sensitivities ride on the steps the states choose: the error norm reads
    the states alone (``_StateControlled``), so the states' steps and values
    are those of the solve without them, bit for bit.

    A solve of one row steps on Python floats (``_FloatStepped``), with
    the float right-hand side ``_stacked_branch`` gives it; n rows step on
    SciPy's DOP853 arrays (``_StateControlled``).  Both are solve_ivp
    calls, on the same rules of step control, so every solve's result and
    dense output read alike.  With ``stop``, a function of (u, state) as
    ``_advance`` gives it, the stepper ends the solve on the first step
    where it falls through 0.  A failed solve raises IntegrationError.
    """
    rhs = _stacked_branch(spans, beta_e, rate, willingness, sensitivities=start.shape[1] > 4)
    span = (0.0, 1.0 if np.max(spans) > 0.0 else 0.0)
    sol = solve_ivp(
        rhs,
        span,
        # a copy: the solver keeps y0 as its first step's start, and with one
        # row ravel() would return a view of the caller's rows
        start.T.flatten(),
        method=_FloatStepped if len(start) == 1 else _StateControlled,
        rtol=tol.rtol,
        atol=tol.atol,
        dense_output=dense,
        controlled=4 * len(start),
        stop=stop,
    )
    if sol.status < 0:
        raise IntegrationError(f"solver failed on [{span[0]}, {span[1]}]: {sol.message}")
    return sol


def _stacked_branch(spans, beta_e, rate, willingness, sensitivities=False):
    """The right-hand side of ``_solve_tails``' rows in u: row j's ``_rhs_values`` times ``spans[j]``.

    A solve in which no row vaccinates clips s and i to [0, 1] and
    vaccinates at a rate of 0.  A vaccinating solve does not clip: a row
    past its own cut rides on with the others, its s may fall through 0
    there, and the clip's kink would shrink every row's steps.  Before its
    cut a row's s is at least k/l > 0 or falls toward 0 on the willingness
    branch without reaching it, so there the clip would do nothing.

    With ``sensitivities`` an unvaccinated solve's state holds three more
    components per row, z = d(s, i, q)/dtau, which move by the Jacobian of
    the unvaccinated dynamics at the row's (clipped) s and i:
    z_s' = -beta_e*(i*z_s + s*z_i), z_i' = beta_e*(i*z_s + s*z_i) - z_i and
    z_q' = z_i, each times the row's span.  The states' derivatives are
    those of the solve without them, bit for bit.

    The one fork by row count: one row is worked on Python floats, which
    give the same numbers as NumPy's arrays at a fraction of the cost per
    call, the row of an n-row stack bit for bit.  Its ``floats`` attribute
    takes and returns the components as floats, and ``_FloatStepped``
    steps on it; called on an array it returns one.
    """
    n = len(spans)
    vaccinating = bool(np.any(rate) or np.any(willingness))
    if n == 1:
        span, b, r, w = (float(np.ravel(x)[0]) for x in (spans, beta_e, rate, willingness))

        def states(s, i, q, v):
            if not vaccinating:
                # np.clip's rule, which passes NaN and -0.0 on
                s = 0.0 if s < 0.0 else 1.0 if s > 1.0 else s
                i = 0.0 if i < 0.0 else 1.0 if i > 1.0 else i
            ds, di, dq, dv = _rhs_values(s, i, r + w * s if vaccinating else 0.0, b)
            return ds * span, di * span, dq * span, dv * span

        def riders(s, i, q, v, z_s, z_i, z_q):
            derivatives = states(s, i, q, v)
            if not vaccinating:
                s = 0.0 if s < 0.0 else 1.0 if s > 1.0 else s
                i = 0.0 if i < 0.0 else 1.0 if i > 1.0 else i
            flow = b * (i * z_s + s * z_i)
            return (*derivatives, -flow * span, (flow - z_i) * span, z_i * span)

        floats = riders if sensitivities else states

        def one_row(u, y):
            return np.array(floats(*y.tolist()))

        one_row.floats = floats
        return one_row
    no_vaccination = np.zeros(n)
    width = 7 if sensitivities else 4

    def rhs(u, y):
        # all s, then all i: one block to clip
        si = y[: 2 * n] if vaccinating else y[: 2 * n].clip(0.0, 1.0)
        s, i = si[:n], si[n:]
        v = rate + willingness * s if vaccinating else no_vaccination
        dt = np.empty((width, n))
        dt[0], dt[1], dt[2], dt[3] = _rhs_values(s, i, v, beta_e)
        if sensitivities:
            z_s, z_i = y[4 * n : 5 * n], y[5 * n : 6 * n]
            flow = beta_e * (i * z_s + s * z_i)
            dt[4], dt[5], dt[6] = -flow, flow - z_i, z_i
        dt *= spans
        return dt.ravel()

    return rhs


class _StateControlled(DOP853):
    """SciPy's DOP853 with the first ``controlled`` components alone in its step control.

    The other components ride along on the steps those choose.  The first
    step and every error norm are SciPy's rules (Hairer, Norsett & Wanner,
    Solving ODEs I, II.4) on the controlled components, so when those do
    not depend on the rest, their steps and values are those of a solve of
    the controlled components alone, bit for bit.  The riders are the
    forward sensitivities of the planner's scans: an explicit Runge-Kutta
    step of the variational equation is the derivative of the state's own
    step, so on the same steps they are the derivatives of the solve.  With
    no riders every component is controlled, and the steps are SciPy's
    DOP853's bit for bit.

    A ``stop`` function of (t, y) ends the solve on the first accepted step
    at whose start it is at or above 0 and at whose end it is at or below
    0: solve_ivp's rule for a terminal event of direction -1, so the solve
    ends on the step such an event would end it on, and a NaN never stops
    it.  The stepper ends it by setting ``t_bound`` to that step's end,
    where ``OdeSolver.step`` finishes a solve; solve_ivp finds no root.
    """

    def __init__(self, fun, t0, y0, t_bound, controlled, stop=None, **options):
        self.controlled, self.stop = controlled, stop
        span = abs(t_bound - t0)
        # a first step SciPy takes as given, so it chooses none on all
        # components; on an empty span SciPy's rule gives 0 without a call
        super().__init__(fun, t0, y0, t_bound, first_step=span or None, **options)
        if span:
            self.h_abs = self._first_step(t_bound)
        # the stop function at the start of the next step
        self.g = None if stop is None else stop(t0, self.y)

    def _step_impl(self):
        success, message = super()._step_impl()
        if success and self.stop is not None:
            self._stop_on(self.stop(self.t, self.y))
        return success, message

    def _stop_on(self, g):
        """End the solve at the step just taken if the stop function fell through 0 on it, to ``g``."""
        if self.g >= 0.0 and g <= 0.0:
            self.t_bound = self.t
        self.g = g

    @staticmethod
    def _norm(x):
        """SciPy's RMS norm."""
        return np.linalg.norm(x) / x.size**0.5

    def _first_step(self, t_bound):
        """SciPy's ``select_initial_step`` on the controlled components, in its order of operations."""
        norm, c, direction = self._norm, self.controlled, self.direction
        y0, f0 = self.y, self.f
        span = abs(t_bound - self.t)
        scale = self.atol + np.abs(y0[:c]) * self.rtol
        d0, d1 = norm(y0[:c] / scale), norm(f0[:c] / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, span)
        f1 = self.fun(self.t + h0 * direction, y0 + h0 * direction * f0)
        d2 = norm((f1[:c] - f0[:c]) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / (self.error_estimator_order + 1))
        h = min(100 * h0, h1, span, self.max_step)
        # a NaN step, as a NaN right-hand side at the start gives, never
        # falls below the minimum step, so every rejection would keep it
        if not math.isfinite(h):
            raise IntegrationError(f"first step is not finite: {h}")
        return h

    def _estimate_error_norm(self, K, h, scale):
        # contiguous, as the stages of a solve of the controlled components are:
        # NumPy sums a strided matrix product in another order
        c = self.controlled
        return super()._estimate_error_norm(np.ascontiguousarray(K[:, :c]), h, scale[:c])


#: SciPy's step-size controller (``scipy.integrate._ivp.rk``): the safety
#: factor, the bounds on a step's change and DOP853's error exponent.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1 / 8


class _FloatStepped(_StateControlled):
    """DOP853 on Python floats, for a solve of one row: its (s, i, q, V) and any riders.

    solve_ivp takes it as its method, so a one-row solve reads as any
    other: its ``OdeSolution`` of SciPy's ``Dop853DenseOutput`` steps, and
    ``nfev`` as SciPy counts it (12 per attempted step, 3 per dense
    output).  The step is SciPy's, in straight-line float code
    (``_float_dop853``), on the right-hand side's ``floats``, and the stop
    function's ``floats`` decide where the solve stops; the first
    step, the error norm on the four states and the step-size controller
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5) are SciPy's
    rules, so a solve takes SciPy's steps within rounding.  No sum calls
    BLAS, the first step's norm included, so a solve is the same bits on
    every BLAS kernel.  It steps forward only, as every solve of u in
    [0, 1] does, with no maximum step.
    """

    def __init__(self, fun, t0, y0, t_bound, controlled, **options):
        super().__init__(fun, t0, y0, t_bound, controlled, **options)
        self.rhs, (self.float_step, self.float_dense) = fun.floats, _FLOAT_DOP853[self.n]
        # Python floats throughout: NumPy scalars would cost the float code its speed
        self.tols, self.h_abs = (float(self.rtol), float(self.atol)), float(self.h_abs)
        self.f = tuple(self.f.tolist())

    @staticmethod
    def _norm(x):
        """The RMS norm without BLAS, whose sums depend on its kernel: NumPy's sum, in one order on every machine."""
        return np.sqrt(np.sum(x * x)) / x.size**0.5

    def _step_impl(self):
        t, y, f = self.t, self.y.tolist(), self.f
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = min(t + h_abs, self.t_bound)
            h = h_abs = t_new - t
            y_new, f_new, stages, error = self.float_step(self.rhs, h, y, f, *self.tols)
            self.nfev += 12
            if error < 1.0:
                factor = _MAX_FACTOR if error == 0.0 else min(_MAX_FACTOR, _SAFETY * error**_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # NaN fails the test above and gives MIN_FACTOR here
            h_abs *= max(_MIN_FACTOR, _SAFETY * error**_EXPONENT)
            rejected = True
        self.h_previous, self.y_old, self.t, self.y = h, self.y, t_new, np.array(y_new)
        self.h_abs, self.f, self.stages = h_abs, f_new, stages
        if self.stop is not None:
            self._stop_on(self.stop.floats(t_new, *y_new))
        return True, None

    def _dense_output_impl(self):
        F = self.float_dense(self.rhs, self.h_previous, self.y_old.tolist(), self.y.tolist(), self.stages)
        self.nfev += 3
        return Dop853DenseOutput(self.t_old, self.t, self.y_old, np.array(F).reshape(7, self.n))


def _float_dop853(width: int):
    """One DOP853 step and its dense output for ``width`` components, as straight-line float code.

    Generated from the tableau of SciPy's ``DOP853`` class, its
    coefficients written as literals and its exact zeros skipped, and
    compiled once.  The right-hand side does not read the time, so the
    nodes ``C`` and ``C_EXTRA`` enter no stage.
    ``step(rhs, h, y, f, rtol, atol)`` returns y and f at the step's end,
    the 13 stages (flat, stage first) and SciPy's error norm: E5 with the
    E3 correction, on the first four components, with the scale
    atol + max(|y|, |y_new|)*rtol.  ``dense(rhs, h, y_old, y, stages)``
    returns the 7 x ``width`` dense-output coefficients F, flat, with the
    three extra stages.  Products are written x * x and the maximum keeps
    a NaN, so a diverging row fails its steps as SciPy's does.
    """
    comps = range(width)

    def names(stage):
        return ", ".join(f"k{stage}_{j}" for j in comps)

    def combo(coefs, j):
        return " + ".join(f"{c!r} * k{i}_{j}" for i, c in enumerate(coefs.tolist()) if c != 0.0)

    def stage(s, a):
        return f"    {names(s)}, = rhs({', '.join(f'y{j} + ({combo(a[:s], j)}) * h' for j in comps)})"

    ys, new = ", ".join(f"y{j}" for j in comps), ", ".join(f"n{j}" for j in comps)
    stages = ", ".join(names(s) for s in range(DOP853.n_stages + 1))
    step = [
        "def step(rhs, h, y, f, rtol, atol):",
        f"    {ys}, = y",
        f"    {names(0)}, = f",
        *(stage(s, DOP853.A[s]) for s in range(1, DOP853.n_stages)),
        f"    {new}, = {', '.join(f'y{j} + h * ({combo(DOP853.B, j)})' for j in comps)}",
        f"    {names(DOP853.n_stages)}, = rhs({new})",
    ]
    for j in range(4):
        step += [
            f"    a, b = abs(y{j}), abs(n{j})",
            "    scale = atol + (b if b > a or b != b else a) * rtol",
            f"    e5_{j}, e3_{j} = ({combo(DOP853.E5, j)}) / scale, ({combo(DOP853.E3, j)}) / scale",
        ]
    step += [
        f"    e5 = {' + '.join(f'e5_{j} * e5_{j}' for j in range(4))}",
        f"    e3 = {' + '.join(f'e3_{j} * e3_{j}' for j in range(4))}",
        "    error = h * e5 / math.sqrt((e5 + 0.01 * e3) * 4) if e5 else 0.0",
        f"    return ({new},), ({names(DOP853.n_stages)},), ({stages},), error",
    ]
    extra = range(DOP853.n_stages + 1, DOP853.n_stages + 1 + len(DOP853.A_EXTRA))
    last = DOP853.n_stages
    dense = [
        "def dense(rhs, h, y, y_new, stages):",
        f"    {ys}, = y",
        f"    {new}, = y_new",
        f"    {stages}, = stages",
        *(stage(s, a) for s, a in zip(extra, DOP853.A_EXTRA)),
        *(f"    d{j} = n{j} - y{j}" for j in comps),
        "    return (",
        *(f"        d{j}," for j in comps),
        *(f"        h * k0_{j} - d{j}," for j in comps),
        *(f"        2 * d{j} - h * (k{last}_{j} + k0_{j})," for j in comps),
        *(f"        h * ({combo(row, j)})," for row in DOP853.D for j in comps),
        "    )",
    ]
    namespace = {"math": math}
    exec(compile("\n".join(step + dense) + "\n", f"<DOP853 on {width} floats>", "exec"), namespace)
    return namespace["step"], namespace["dense"]


#: The float steps of a one-row solve: (s, i, q, V), and with the sensitivities.
_FLOAT_DOP853 = {width: _float_dop853(width) for width in (4, 7)}


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


def _at(steps: _Steps, u: np.ndarray, cols=None) -> np.ndarray:
    """The solve's dense output at ``u``, on the step SciPy's ``OdeSolution`` picks (``_step_of``)."""
    return _dense(steps, _step_of(steps, u), u, cols)


def _step_of(steps: _Steps, u: np.ndarray) -> np.ndarray:
    """The step SciPy's ``OdeSolution`` reads at ``u``: the last that starts before u, or the first."""
    return np.clip(np.searchsorted(steps.t_old, u) - 1, 0, len(steps.t_old) - 1)


#: Chebyshev points of the second kind on [0, 1], as many as a DOP853 dense
#: output step has coefficients (it is a polynomial of degree 7 in time), and
#: their barycentric weights.
_NODES = 0.5 - 0.5 * np.cos(np.pi * np.arange(8) / 7)
_WEIGHTS = np.array([0.5, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -0.5])

#: Bits to which the search narrows a crossing's position in [0, 1], below
#: the spacing of doubles there.
_BITS = 60

#: u at the last ulp below 1: a fall located at or past it lies at its
#: stage's end, where start + u*span could put it an ulp before that end.
_LAST_U = 1.0 - np.spacing(1.0)

#: Each round of the search splits a bracket into 2**_PIECE_BITS equal
#: pieces, whatever the number of crossings searched together: 10 rounds of
#: 64 reach ``_BITS``.
_PIECE_BITS = 6


def _markers(beta_e: np.ndarray):
    """The peak's function beta_e*s - 1 and the epidemic end's i - ``EPIDEMIC_END_THRESHOLD``.

    ``beta_e`` holds each stacked run's transmission rate.
    """
    return lambda y, rows: [beta_e[rows, None] * y[0] - 1.0, y[1] - EPIDEMIC_END_THRESHOLD]


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
    fall through 0, without reading any node when none does.  The state at
    a crossing is read off the dense output there, as any other value is.
    """
    values = np.asarray(g(states, np.arange(states.shape[1])))
    down = (values[..., :-1] >= 0.0) & (values[..., 1:] <= 0.0)
    times = np.full(values.shape[:2], np.inf)
    func, run = np.nonzero(down.any(axis=-1))
    if not len(func):
        return times
    step = down[func, run].argmax(axis=-1)
    # the state at the Chebyshev nodes of each crossing's step: its run's
    # four components, shape (4, crossings, nodes)
    t0, t1 = edges[step, None], edges[step + 1, None]
    cols = run[:, None, None] + states.shape[1] * np.arange(len(states))
    nodes = _dense(steps, step[:, None], t0 + _NODES * (t1 - t0), cols).transpose(2, 0, 1)
    x = _fall_position(np.asarray(g(nodes, run))[func, np.arange(len(step))])
    times[func, run] = edges[step] + x * (edges[step + 1] - edges[step])
    return times


def _fall_position(node_values: np.ndarray) -> np.ndarray:
    """Where row j's polynomial through ``node_values[j]`` on ``_NODES`` falls through 0.

    Each polynomial is >= 0 at 0 and <= 0 at 1.  Every round evaluates
    each bracket's polynomial at the ends of its 2**``_PIECE_BITS`` equal
    pieces, keeps the first piece that ends at or below 0 and re-expresses
    the polynomial by its values at that piece's nodes, so the fall found is
    the first at the pieces' resolution.  Returns the right end of a bracket
    2**-``_BITS`` wide.  The sums are einsum's, without BLAS: each row is
    summed alone and in one order, so a row's result is the same bits
    whichever rows share the call, on every BLAS kernel.
    """
    ends, pieces = _piece_bases()
    lo, width = np.zeros(len(node_values)), 1.0
    for _ in range(-(-_BITS // _PIECE_BITS)):
        fallen = np.einsum("rk,kp->rp", node_values, ends) <= 0.0
        # the last piece ends where the bracket does, at or below 0
        fallen[:, -1] = True
        first = fallen.argmax(axis=1)
        node_values = np.einsum("rk,rkn->rn", node_values, pieces[first])
        width /= ends.shape[1]
        lo += first * width
    return lo + width


@functools.cache
def _piece_bases() -> tuple[np.ndarray, np.ndarray]:
    """Maps from values at ``_NODES`` to each piece's end, shape (8, pieces), and to piece p's nodes, (pieces, 8, 8).

    The pieces are the 2**``_PIECE_BITS`` equal pieces of [0, 1].
    """
    splits = 2**_PIECE_BITS
    ends = _lagrange(np.arange(1, splits + 1) / splits).T.copy()
    at_nodes = _lagrange(((np.arange(splits)[:, None] + _NODES) / splits).ravel())
    return ends, np.ascontiguousarray(at_nodes.reshape(splits, len(_NODES), len(_NODES)).transpose(0, 2, 1))


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
