"""The step reader, the band rule, the float step and both right-hand sides against SciPy and the rules they replace.

Every dense-output value the solver reads goes through ``_dense`` on
arrays read once off SciPy's steps; these tests hold it to SciPy's own
``OdeSolution`` and per-step interpolants bit for bit.  The band rule
(``_refuse_excursions``) reads the same steps in Bernstein form.  A
one-row solve steps on Python floats (``_FloatStepped``); its steps are
held to SciPy's DOP853 within rounding.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

import sirdvax.solver
from sirdvax import (
    IntegrationError,
    SirdState,
    Tolerances,
    VaccinationPolicy,
    integrate,
    load_config,
    minimize_tau,
)
from sirdvax.model import _rhs_values
from sirdvax.analysis import run_indicators
from sirdvax.solver import (
    _NODES,
    _TO_BERNSTEIN,
    _Steps,
    _at,
    _clamp,
    _dense,
    _drift_band,
    _FLOAT_DOP853,
    _FloatStepped,
    _fall_position,
    _first_fall,
    _markers,
    _read_steps,
    _refuse_excursions,
    _sample,
    _solve_tails,
    _stacked_branch,
    _StateControlled,
    stacked_runs,
    stopped_programs,
)
from oracles import random_cases


def same_bits(a, b) -> bool:
    """Equal as stored doubles: the sign of zero and NaN count."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@contextlib.contextmanager
def recorded_solves():
    """Map id(steps) -> SciPy's ``OdeSolution`` for every solve ``_read_steps`` reads."""
    solutions = {}
    read = sirdvax.solver._read_steps

    def recording(sol):
        steps = read(sol)
        solutions[id(steps)] = (steps, sol)
        return steps

    with mock.patch.object(sirdvax.solver, "_read_steps", recording):
        yield solutions


@contextlib.contextmanager
def recorded_tail_solves():
    """Every stacked solve's solve_ivp result, in call order."""
    solves = []
    solve = sirdvax.solver._solve_tails

    def recording(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    with mock.patch.object(sirdvax.solver, "_solve_tails", recording):
        yield solves


def on_segment(t, start, span):
    """Times t on a segment solved in u, t = start + u*span, as u; 0 on an empty segment."""
    return (t - start) / span if span > 0.0 else np.zeros_like(t)


def scipy_sample(segments, solutions, times):
    """The segments' dense output at sorted times, each segment read by SciPy's ``OdeSolution``.

    A time equal to a segment start is read from the segment it starts, and
    a time past a segment's end at that end.
    """
    edges = [0, *np.searchsorted(times, [seg[0] for seg in segments[1:]]), len(times)]
    raw = np.empty((len(times), 4))
    for (start, end, steps, span), lo, hi in zip(segments, edges, edges[1:]):
        if hi > lo:
            raw[lo:hi] = solutions[id(steps)][1](on_segment(np.minimum(times[lo:hi], end), start, span)).T
    return raw


def scipy_first_fall(edges, states, interpolants, g):
    """``_first_fall`` with each crossing step's nodes read by calling SciPy's interpolant of that step."""
    values = np.asarray(g(states, np.arange(states.shape[1])))
    down = (values[..., :-1] >= 0.0) & (values[..., 1:] <= 0.0)
    func, run = np.nonzero(down.any(axis=-1))
    step = down[func, run].argmax(axis=-1)
    nodes = np.empty((len(states), len(step), len(_NODES)))
    for j in set(step.tolist()):
        here = step == j
        t0, t1 = edges[j], edges[j + 1]
        at_nodes = interpolants[j](t0 + _NODES * (t1 - t0))
        nodes[:, here] = at_nodes.reshape(len(states), -1, len(_NODES))[:, run[here]]
    x = _fall_position(np.asarray(g(nodes, run))[func, np.arange(len(step))])
    times = np.full(values.shape[:2], np.inf)
    times[func, run] = edges[step] + x * (edges[step + 1] - edges[step])
    return times, step


def segment_edges(segment, solutions):
    """A segment's steps up to its end as ``_first_fall`` takes them, with SciPy's interpolants of those steps.

    The edges are the start of each step that starts before the end, then
    the end; the states, shape (4, 1, edges), are each step's ``y_old``,
    which DOP853's dense output returns exactly there, and the dense output
    at the end.
    """
    start, end, steps, span = segment
    u_end = float(on_segment(np.array(end), start, span))
    kept = np.searchsorted(steps.t_old, u_end)
    edges = np.append(steps.t_old[:kept], u_end)
    states = np.vstack((steps.y_old[:kept], _at(steps, np.array([u_end]))))
    interpolants = [step for step in solutions[id(steps)][1].interpolants if step.t_old < u_end]
    return edges, states.T.reshape(4, -1, len(edges)), steps, interpolants


def stock_out_at_the_horizon(T=2.02):
    """A disease-free run whose stock runs out at T and leaves an empty last segment.

    With no infection V = k*t, so m = k*T runs out at T.  At T = 2.02 the
    stock-out is located in the last ulp below u = 1 of its stage.
    """
    variant1 = load_config("variant1").scenario
    k = 0.3
    scenario = dataclasses.replace(variant1, initial=SirdState(s=0.999, i=0.0, rho=0.001, d=0.0), T=T)
    return scenario, VaccinationPolicy(k=k, l=1.0, m=k * T, tau=T)


def run_cases():
    """(id, scenario, policy): the bundled variants at three stocks and four durations, random runs, a stock-out at T."""
    cases = []
    for name in ("variant1", "variant2"):
        config = load_config(name)
        for m, tau in itertools.product((0.2, 0.4, math.inf), (0.0, 3.29, 7.5, 15.0)):
            policy = VaccinationPolicy(config.k, config.l, m, tau)
            cases.append((f"{name}-m{m}-tau{tau}", config.scenario, policy))
    cases += [(f"random-{n}", *case) for n, case in enumerate(random_cases(40, seed=7))]
    # a program ending within 1e-12*T of T: its unvaccinated rest spans
    # 1e-11, and the samples take its end for T
    variant1 = load_config("variant1")
    T = variant1.scenario.T
    short = VaccinationPolicy(variant1.k, variant1.l, math.inf, T - 1e-11)
    cases.append(("ends-just-before-T", variant1.scenario, short))
    cases.append(("stock-out-at-T", *stock_out_at_the_horizon()))
    cases.append(("stock-out-at-T-2.0", *stock_out_at_the_horizon(2.0)))
    return [pytest.param(scenario, policy, id=name) for name, scenario, policy in cases]


class TestSamplesEqualScipy:
    @pytest.mark.parametrize("scenario, policy", run_cases())
    def test_every_reader_time_equals_the_odesolution(self, scenario, policy):
        with recorded_solves() as solutions:
            traj = integrate(scenario, policy)
        segments = traj.segments
        starts = [seg[0] for seg in segments]
        edges = np.concatenate([start + steps.t_old * span for start, _, steps, span in segments])
        times = np.unique(np.concatenate((traj.times, edges[edges <= scenario.T], starts, [scenario.T])))
        assert same_bits(_sample(segments, times), scipy_sample(segments, solutions, times))
        for _, _, steps, _ in segments:
            sol = solutions[id(steps)][1]
            # at a step edge SciPy reads the step that ends there
            assert same_bits(_at(steps, steps.t_old), sol(steps.t_old).T)
            for t in steps.t_old:
                assert same_bits(_at(steps, np.array([t]))[0], sol(t))

    def test_the_empty_segment_after_a_stock_out_at_t_is_its_constant(self):
        for T in (2.02, 2.0):
            scenario, policy = stock_out_at_the_horizon(T)
            with recorded_solves() as solutions:
                traj = integrate(scenario, policy)
            t_lo, t_hi, steps, span = traj.segments[-1]
            assert t_lo == t_hi == scenario.T and span == 0.0
            (constant,) = solutions[id(steps)][1].interpolants
            assert not hasattr(constant, "F")
            assert same_bits(_at(steps, np.array([0.0]))[0], constant(0.0))
            assert traj.V[-1] == policy.m

    def test_a_time_at_an_empty_segment_is_read_from_it(self):
        # the empty segment's constant, not the previous segment's end, is read at its start
        config = load_config("variant1")
        scenario, T = config.scenario, config.scenario.T
        with recorded_solves() as solutions:
            traj = integrate(scenario, VaccinationPolicy(*config.resources, tau=T))
        (t_lo, t_hi, steps, span), *_ = traj.segments
        pinned = _at(steps, np.array([(t_hi - t_lo) / span]))[0]
        pinned[3] += 1e-3
        beta_e = scenario.epidemic.transmission_rate
        empty = _solve_tails(Tolerances(), np.zeros(1), pinned[None], beta_e, 0.0, 0.0).sol
        segments = [(t_lo, t_hi, steps, span), (t_hi, t_hi, _read_steps(empty), 0.0)]
        solutions[id(segments[1][2])] = (segments[1][2], empty)
        times = np.array([0.0, 0.5 * t_hi, t_hi])
        got = _sample(segments, times)
        assert same_bits(got, scipy_sample(segments, solutions, times))
        assert same_bits(got[-1], pinned)

    @pytest.fixture(scope="class")
    def tails(self):
        """64 rows of variant 1's always-on run at 64 durations, with their spans."""
        config = load_config("variant1")
        always_on = integrate(config.scenario, VaccinationPolicy(*config.resources, tau=config.scenario.T))
        taus = np.linspace(0.0, 14.0, 64)
        spans = config.scenario.T - taus
        return config.scenario.epidemic.transmission_rate, spans, _sample(always_on.segments, taus)

    @pytest.mark.parametrize("rate", [0.0, 0.1], ids=["unvaccinated", "capacity"])
    def test_a_stacked_solve_at_every_u_point(self, tails, rate):
        beta_e, spans, start = tails
        sol = _solve_tails(Tolerances(), spans, start, beta_e, np.full(len(spans), rate), 0.0).sol
        steps = _read_steps(sol)
        grid = np.linspace(0.0, 1.0, 1001)
        assert same_bits(_at(steps, grid), sol(grid).T)

    def test_a_stopped_stacked_solve_and_its_cut_states(self, tails):
        # the stepper ends the solve's times at the end of the step the stop falls through 0 on
        beta_e, spans, start = tails

        def stop(u, y):
            return 0.6 - u

        sol = _solve_tails(Tolerances(), spans, start, beta_e, 0.1, 0.0, stop=stop).sol
        assert sol.interpolants[-1].t_old <= 0.6 <= sol.ts[-1] == sol.interpolants[-1].t < 1.0
        steps = _read_steps(sol)
        grid = np.linspace(0.0, 1.0, 1001)
        assert same_bits(_at(steps, grid), sol(grid).T)
        n = len(spans)
        cuts = np.random.default_rng(5).uniform(0.0, 0.7, n)
        cuts[:3] = (0.0, steps.t_old[1], 0.6)
        cols = np.arange(n)[:, None] + n * np.arange(4)
        expected = sol(cuts).reshape(4, n, n)[:, np.arange(n), np.arange(n)].T
        assert same_bits(_at(steps, cuts, cols), expected)


class TestLocatorEqualsScipyNodes:
    @pytest.mark.parametrize("scenario, policy", run_cases())
    def test_markers_of_a_run(self, scenario, policy):
        with recorded_solves() as solutions:
            traj = integrate(scenario, policy)
        g = _markers(np.array([scenario.epidemic.transmission_rate]))
        # an empty segment, after a stock-out at T, has no step to search
        for segment in (seg for seg in traj.segments if seg[0] < seg[1]):
            edges, states, steps, interpolants = segment_edges(segment, solutions)
            times = _first_fall(edges, states, steps, g)
            expected_times, _ = scipy_first_fall(edges, states, interpolants, g)
            assert same_bits(times, expected_times)

    def test_several_functions_crossing_in_one_step(self):
        config = load_config("variant1")
        with recorded_solves() as solutions:
            traj = integrate(config.scenario, VaccinationPolicy(*config.resources, tau=7.5))
        # the segment with the most steps
        segment = max(traj.segments, key=lambda seg: len(seg[2].t_old))
        edges, states, steps, interpolants = segment_edges(segment, solutions)
        # s falls through three levels inside one step, and through one in another
        j = len(edges) // 2
        levels = [
            _at(steps, np.array([edges[j] + f * (edges[j + 1] - edges[j])]))[0, 0]
            for f in (0.2, 0.5, 0.8)
        ]
        levels.append(states[0, 0, j + 3] + 1e-9)

        def g(y, rows):
            return [y[0] - level for level in levels]

        times = _first_fall(edges, states, steps, g)
        expected_times, step = scipy_first_fall(edges, states, interpolants, g)
        assert step.tolist()[:3] == [j, j, j]
        assert np.all(np.isfinite(times))
        assert same_bits(times, expected_times)

    def test_markers_of_stacked_tails(self):
        config = load_config("variant2")
        scenario = config.scenario
        always_on = integrate(scenario, VaccinationPolicy(*config.resources, tau=scenario.T))
        taus = np.linspace(0.0, 5.0, 40)
        spans = scenario.T - taus
        beta_e = scenario.epidemic.transmission_rate
        sol = _solve_tails(Tolerances(), spans, _sample(always_on.segments, taus), beta_e, 0.0, 0.0)
        states = sol.y.reshape(4, len(spans), -1)
        g = _markers(np.full(len(spans), beta_e))
        times = _first_fall(sol.t, states, _read_steps(sol.sol), g)
        expected_times, step = scipy_first_fall(sol.t, states, sol.sol.interpolants, g)
        # many tails cross in one step, so one step's nodes serve several rows
        assert len(step) > len(set(step.tolist())) > 1
        assert same_bits(times, expected_times)

    @pytest.mark.parametrize("name", ["variant1", "variant2"])
    def test_a_located_peak_i_is_the_dense_output_there(self, name):
        # as a run reads its peak row: the tail's dense output at the located position
        config = load_config(name)
        scenario = config.scenario
        always_on = integrate(scenario, VaccinationPolicy(*config.resources, tau=scenario.T))
        taus = np.linspace(0.0, 5.0, 40)
        with recorded_tail_solves() as solves:
            programs = stopped_programs(always_on, taus, crossings=True)
        (sol,) = solves
        steps, n = _read_steps(sol.sol), len(taus)
        beta_e = scenario.epidemic.transmission_rate
        u = _first_fall(sol.t, sol.y.reshape(4, n, -1), steps, _markers(np.full(n, beta_e)))[0]
        located = (taus < always_on.peak_and_end()[0]) & np.isfinite(u)
        assert located.sum() >= 10
        spans = scenario.T - taus
        assert same_bits(programs.peak_time[located], (taus + u * spans)[located])
        # i is read at the peak time, mapped onto u once as a sample time is
        at_peak = (programs.peak_time - taus) / spans
        cols = np.arange(n)[located, None] + n * np.arange(4)
        assert same_bits(programs.peak_i[located], _at(steps, at_peak[located], cols)[:, 1])

    def test_a_stacked_run_reads_its_peak_i_the_same_way(self):
        # unvaccinated runs have one stage, from t = 0 to T
        cases = random_cases(12, seed=3)
        points = [(scenario, dataclasses.replace(policy, tau=0.0)) for scenario, policy in cases]
        # distinct s0 first in each run's key, so the stacked rows are in this order
        points.sort(key=lambda point: point[0].initial.s)
        with recorded_tail_solves() as solves:
            rows = run_indicators(points)
        (sol,) = solves
        steps, n = _read_steps(sol.sol), len(points)
        beta_e = np.array([scenario.epidemic.transmission_rate for scenario, _ in points])
        u = _first_fall(sol.t, sol.y.reshape(4, n, -1), steps, _markers(beta_e))[0]
        located = np.isfinite(u)
        assert located.sum() >= 6
        # i is read at the peak time, mapped onto u once as a sample time is
        at_peak = np.array([row.peak_time / scenario.T for row, (scenario, _) in zip(rows, points)])
        cols = np.arange(n)[located, None] + n * np.arange(4)
        got = np.array([row.peak_i for row in rows])[located]
        assert same_bits(got, _at(steps, at_peak[located], cols)[:, 1])


def bernstein(steps):
    """Each step's Bernstein coefficients, shape (steps, 8, n)."""
    return steps.y_old[:, None] + _TO_BERNSTEIN @ steps.F


def one_step(coefficients):
    """One step on [0, 1] whose components have the Bernstein coefficients ``coefficients``, shape (8, n)."""
    coefficients = np.asarray(coefficients, dtype=float)
    y_old = coefficients[0]
    # coefficient 0 is y_old, and the map's other rows are invertible
    F = np.linalg.solve(_TO_BERNSTEIN[1:], coefficients[1:] - y_old)
    return _Steps(np.zeros(1), np.ones(1), y_old[None], F[None])


def run_coefficients(i_coefficients, runs=1, run=0):
    """Coefficients (8, 4*runs) with s = 0.5, q = 0.25, V = 0 and run ``run``'s i as given, other runs' i 0.1."""
    columns = np.tile([[0.5], [0.1], [0.25], [0.0]], runs).ravel()
    coefficients = np.tile(columns, (8, 1))
    coefficients[:, runs + run] = i_coefficients
    return coefficients


#: x**4 in degree-7 Bernstein form: values 0 to 1, rising late in the step
X4 = np.array([math.comb(k, 4) / math.comb(7, 4) for k in range(8)])
ATOL = 1e-11


class TestBandRule:
    def band_passes(self, steps, ends):
        _refuse_excursions(steps, np.asarray(ends, dtype=float), ATOL)

    @pytest.mark.parametrize(
        "scenario, policy",
        [case for case in run_cases() if case.id.startswith("variant")][::3],
    )
    def test_bernstein_form_is_the_dense_output_of_a_run(self, scenario, policy):
        for _, _, steps, _ in integrate(scenario, policy).segments:
            self.assert_bernstein_is_dense(steps)

    def test_bernstein_form_is_the_dense_output_of_stacked_tails(self):
        config = load_config("variant1")
        always_on = integrate(config.scenario, VaccinationPolicy(*config.resources, tau=config.scenario.T))
        taus = np.linspace(0.0, 14.0, 64)
        start = _sample(always_on.segments, taus)
        beta_e = config.scenario.epidemic.transmission_rate
        sol = _solve_tails(Tolerances(), config.scenario.T - taus, start, beta_e, 0.0, 0.0)
        self.assert_bernstein_is_dense(_read_steps(sol.sol))

    @staticmethod
    def assert_bernstein_is_dense(steps):
        coefficients = bernstein(steps)
        x = np.linspace(0.0, 1.0, 9)
        basis = np.array([[math.comb(7, k) * v**k * (1 - v) ** (7 - k) for k in range(8)] for v in x])
        k = np.arange(len(steps.t_old))[:, None]
        dense = _dense(steps, k, steps.t_old[:, None] + x * steps.h[:, None])
        assert np.max(np.abs(basis @ coefficients - dense)) <= 1e-15
        assert same_bits(coefficients[:, 0], steps.y_old)
        # the end value, as SciPy's Horner form gives it at x = 1
        assert same_bits(coefficients[:, -1], steps.y_old + steps.F[:, 0])

    def test_a_hull_inside_the_band_passes(self):
        self.band_passes(one_step(run_coefficients(np.linspace(0.1, 0.2, 8))), [1.0])

    def test_a_hull_outside_with_values_inside_passes_by_halving(self):
        # the 0.397 peak weight of coefficient 1 keeps every value above 0.006
        i = np.full(8, 0.01)
        i[1] = -1e-3
        steps = one_step(run_coefficients(i))
        assert bernstein(steps).min() < -_drift_band(ATOL)
        self.band_passes(steps, [1.0])

    def test_a_dip_inside_the_step_is_refused(self):
        i = np.full(8, -0.01)
        i[[0, -1]] = 1e-3
        steps = one_step(run_coefficients(i))
        ends = _dense(steps, np.zeros(2, dtype=int), np.array([0.0, 1.0]))[:, 1]
        assert np.all(ends > 0.0)
        with pytest.raises(IntegrationError, match=r"state 1 left \[0, 1\]"):
            self.band_passes(steps, [1.0])

    def test_a_nan_coefficient_is_refused(self):
        steps = one_step(run_coefficients(np.full(8, 0.1)))
        steps.F[0, 3, 1] = math.nan
        with pytest.raises(IntegrationError, match="not finite"):
            self.band_passes(steps, [1.0])

    def test_steps_after_a_runs_end_are_not_its_own(self):
        # the second step leaves the band at its end, and its polynomial run
        # backwards from its start would leave it too
        x = np.arange(8) / 7
        first = one_step(run_coefficients(np.full(8, 0.01)))
        second = one_step(run_coefficients(0.01 + 0.1 * x - 0.2 * X4))
        steps = _Steps(np.array([0.0, 1.0]), np.ones(2), *map(np.concatenate, zip(first[2:], second[2:])))
        self.band_passes(steps, [0.5])
        self.band_passes(steps, [1.0])
        with pytest.raises(IntegrationError, match=r"state 1 left \[0, 1\]"):
            self.band_passes(steps, [1.9])

    @pytest.mark.parametrize("runs, run", [(1, 0), (3, 0), (3, 2)])
    def test_values_past_a_runs_end_are_not_its_own(self, runs, run):
        # i = 0.01 - 0.05*x**4 leaves the band past x = 0.67
        steps = one_step(run_coefficients(0.01 - 0.05 * X4, runs, run))
        ends = np.ones(runs)
        ends[run] = 0.5
        self.band_passes(steps, ends)
        ends[run] = 0.9
        with pytest.raises(IntegrationError, match=r"state 1 left \[0, 1\]"):
            self.band_passes(steps, ends)


#: s and i values: inside [0, 1], at its ends, just outside it, -0.0 and NaN
EDGE_VALUES = (0.3, 0.0, 1.0, -0.0, -1e-12, 1.0 + 1e-12, math.nan)
EDGE_STATES = [(s, i, 0.25, 0.125) for s, i in itertools.product(EDGE_VALUES, repeat=2)]
#: (rate, willingness) of the capacity and willingness branches and of no vaccination
BRANCHES = {"capacity": (0.1, 0.0), "willingness": (0.0, 0.3), "off": (0.0, 0.0)}


def per_call_stacked(spans, beta_e, rate, willingness):
    """The stacked right-hand side as it was written, with two clips and a stack of four rows."""
    n = len(spans)
    vaccinating = bool(np.any(rate) or np.any(willingness))

    def rhs(u, y):
        s, i = y.reshape(-1, n)[:2]
        if vaccinating:
            v = rate + willingness * s
        else:
            s, i, v = np.clip(s, 0.0, 1.0), np.clip(i, 0.0, 1.0), np.zeros(n)
        return (np.array(_rhs_values(s, i, v, beta_e)) * spans).ravel()

    return rhs


class TestRightHandSides:
    BETA_E = 3.5

    @pytest.mark.parametrize("branch", BRANCHES, ids=list(BRANCHES))
    def test_one_row_values_on_every_edge_state(self, branch):
        # the one-row path works on Python floats and keeps the stacked rules
        spans, rate, willingness = np.full(1, 2.5), *(np.full(1, v) for v in BRANCHES[branch])
        rhs = _stacked_branch(spans, self.BETA_E, rate, willingness)
        reference = per_call_stacked(spans, self.BETA_E, rate, willingness)
        for state in EDGE_STATES:
            y = np.array(state)
            got = rhs(0.0, y)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert same_bits(got, reference(0.0, y)), state

    @pytest.mark.parametrize("branch", BRANCHES, ids=list(BRANCHES))
    @pytest.mark.parametrize("per_row_beta", [False, True], ids=["one-beta", "beta-per-row"])
    def test_stacked_values_are_unchanged(self, branch, per_row_beta):
        n = len(EDGE_STATES)
        rng = np.random.default_rng(11)
        spans = rng.uniform(0.5, 15.0, n)
        beta_e = rng.uniform(1.0, 6.0, n) if per_row_beta else self.BETA_E
        rate, willingness = (np.full(n, value) for value in BRANCHES[branch])
        y = np.array(EDGE_STATES).T.flatten()
        got = _stacked_branch(spans, beta_e, rate, willingness)(0.5, y)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert same_bits(got, per_call_stacked(spans, beta_e, rate, willingness)(0.5, y))

    @pytest.mark.parametrize("branch", BRANCHES, ids=list(BRANCHES))
    def test_one_row_is_its_row_of_a_stack(self, branch):
        # both keep the stacked rules (no clip while vaccinating, a rate of 0
        # when off), so they agree on every edge state
        rate, willingness = BRANCHES[branch]
        n = len(EDGE_STATES)
        spans = np.random.default_rng(12).uniform(0.5, 15.0, n)
        stacked = _stacked_branch(spans, self.BETA_E, np.full(n, rate), np.full(n, willingness))
        dt = stacked(0.0, np.array(EDGE_STATES).T.flatten()).reshape(4, n)
        for j, state in enumerate(EDGE_STATES):
            one = _stacked_branch(spans[j : j + 1], self.BETA_E, np.full(1, rate), np.full(1, willingness))
            assert same_bits(one(0.0, np.array(state)), dt[:, j]), state
            # the float step's own call: a tuple of Python floats
            floats = one.floats(*state)
            assert all(type(value) is float for value in floats)
            assert same_bits(floats, dt[:, j]), state

    @pytest.mark.parametrize("branch", BRANCHES, ids=list(BRANCHES))
    def test_one_row_with_sensitivities_is_its_row_of_a_stack(self, branch):
        rate, willingness = BRANCHES[branch]
        n = len(EDGE_STATES)
        rng = np.random.default_rng(13)
        spans = rng.uniform(0.5, 15.0, n)
        states = np.column_stack((EDGE_STATES, rng.uniform(-1.0, 1.0, (n, 3))))
        stacked = _stacked_branch(spans, self.BETA_E, np.full(n, rate), np.full(n, willingness), sensitivities=True)
        dt = stacked(0.0, states.T.flatten()).reshape(7, n)
        for j, state in enumerate(states):
            one = _stacked_branch(
                spans[j : j + 1], self.BETA_E, np.full(1, rate), np.full(1, willingness), sensitivities=True
            )
            assert same_bits(one(0.0, state), dt[:, j]), state
            assert same_bits(one.floats(*state.tolist()), dt[:, j]), state

    def test_nan_reaches_the_clamp(self):
        # neither path clips NaN to a number, so the clamp refuses it
        for branch in BRANCHES.values():
            y = np.array([math.nan, 0.01, 0.0, 0.0])
            one = _stacked_branch(np.ones(1), self.BETA_E, *(np.full(1, v) for v in branch))
            assert np.isnan(one(0.0, y)).any()
            stacked = _stacked_branch(np.ones(2), self.BETA_E, *(np.full(2, v) for v in branch))
            assert np.isnan(stacked(0.0, np.repeat(y, 2))).any()
            with pytest.raises(IntegrationError, match="not finite"):
                _clamp(y[None], 1e-11)


def recorded_stage_solves():
    """Every ``_solve_tails`` call as (args, kwargs, result), in call order."""
    calls = []
    solve = sirdvax.solver._solve_tails

    def recording(*args, **kwargs):
        # copies: a caller may write a solve's result into the rows it started from
        copied = tuple(np.copy(arg) if isinstance(arg, np.ndarray) else arg for arg in args)
        sol = solve(*args, **kwargs)
        calls.append((copied, kwargs, sol))
        return sol

    return calls, mock.patch.object(sirdvax.solver, "_solve_tails", recording)


def terminal_event(stop):
    """A stage's stop function as solve_ivp's terminal event of direction -1, as stages were stopped before."""
    if stop is None:
        return None

    def event(u, y):
        return stop(u, y)

    event.terminal, event.direction = True, -1
    return event


def float_step_states():
    """States (s, i, q, V) a step starts from: each segment's ends on both variants, and s and i at the edges of [0, 1]."""
    states = []
    for name in ("variant1", "variant2"):
        config = load_config(name)
        for m in (0.2, 0.4, math.inf):
            run = integrate(config.scenario, VaccinationPolicy(config.k, config.l, m, config.scenario.T))
            for _, _, steps, _ in run.segments:
                states += [steps.y_old[0], steps.y_old[-1]]
    finite = [v for v in EDGE_VALUES if not math.isnan(v)]
    states += [np.array([s, i, 0.25, 0.125]) for s, i in itertools.product(finite, repeat=2)]
    return states


class TestFloatStep:
    """The one-row step on Python floats against SciPy's DOP853.

    The float code sums each stage, the error estimate and the dense output
    left to right; SciPy sums them with BLAS.  Those sums cancel (the rows
    of E5, E3 and D sum to 0), so the two agree to a few ulps of the terms
    summed, not of the result: each quantity is compared on its terms'
    size, h*max|K| for the stages K of the step.
    """

    @pytest.mark.parametrize("width", [4, 7])
    @pytest.mark.parametrize("branch", BRANCHES, ids=list(BRANCHES))
    def test_one_step_is_scipys(self, branch, width):
        rate, willingness = (np.full(1, v) for v in BRANCHES[branch])
        rhs = _stacked_branch(np.full(1, 7.5), 3.5, rate, willingness, sensitivities=width == 7)
        step, dense = _FLOAT_DOP853[width]
        tol = Tolerances()
        compared = 0
        for state, h in itertools.product(float_step_states(), (0.005, 0.02)):
            y = np.concatenate((state, [-0.1, 0.02, 0.0]))[:width]
            # SciPy's step from y at h, on the states' error norm
            reference = _StateControlled(rhs, 0.0, y, 1.0, 4, rtol=tol.rtol, atol=tol.atol)
            reference.h_abs = h
            reference.step()
            if reference.t != h:
                continue  # rejected at h: no one step to compare
            compared += 1
            K = reference.K
            size = h * np.abs(K).max(axis=0)
            y_new, f_new, stages, error = step(rhs.floats, h, y.tolist(), rhs.floats(*y.tolist()), tol.rtol, tol.atol)
            assert np.all(np.abs(np.subtract(y_new, reference.y)) <= 1e-14 * np.maximum(np.abs(y), size))
            assert np.all(np.abs(np.subtract(stages, K.ravel())) <= 1e-12 * np.tile(size / h, len(K)))
            scale = tol.atol + np.maximum(np.abs(y[:4]), np.abs(reference.y[:4])) * tol.rtol
            expected = reference._estimate_error_norm(K, h, scale)
            # the norm of the estimate's terms before they cancel
            terms = h * np.linalg.norm((np.abs(DOP853.E5) @ np.abs(K[:, :4])) / scale) / 2
            assert abs(error - expected) <= 1e-15 * terms
            F = np.reshape(dense(rhs.floats, h, y.tolist(), y_new, stages), (7, width))
            assert np.all(np.abs(F - reference.dense_output().F) <= 1e-11 * size)
        assert compared >= 40

    @pytest.mark.parametrize("name", ["variant1", "variant2"])
    def test_a_one_row_solve_takes_scipys_steps(self, name):
        # every stage of lone runs, and the one-duration tails of the sweep
        # and of the planner's scan (with the sensitivities)
        config = load_config(name)
        scenario = config.scenario
        calls, recording = recorded_stage_solves()
        with recording:
            for m, tau in itertools.product((0.2, 0.4, math.inf), (2.5, 7.5, 15.0)):
                integrate(scenario, VaccinationPolicy(config.k, config.l, m, tau))
            always_on = integrate(scenario, VaccinationPolicy(*config.resources, tau=scenario.T))
            for tau in (0.0, 5.0):
                stopped_programs(always_on, [tau])
                stopped_programs(always_on, [tau], crossings=True)
        assert {len(args[2]) for args, _, _ in calls} == {1}
        assert {len(args[2][0]) for args, _, _ in calls} == {4, 7}
        for (tol, spans, start, beta_e, rate, willingness), kwargs, sol in calls:
            rhs = _stacked_branch(spans, beta_e, rate, willingness, sensitivities=start.shape[1] > 4)
            # SciPy's DOP853 steps, stopped by solve_ivp's terminal event
            event = terminal_event(kwargs.get("stop"))
            reference = solve_ivp(
                rhs,
                (0.0, 1.0 if spans[0] > 0.0 else 0.0),
                start.ravel(),
                method=_StateControlled,
                controlled=4,
                rtol=tol.rtol,
                atol=tol.atol,
                dense_output=kwargs.get("dense", True),
                events=event,
            )
            # both succeed; an event that stops the reference reads as status 1
            assert sol.status == 0 and reference.status in (0, 1)
            assert len(sol.t) == len(reference.t)
            assert sol.nfev == reference.nfev
            # the reference's times end at the event's root, inside the step
            # the solve ends on
            ends, at_end = reference.t.copy(), reference.y[:, -1]
            if event is not None:
                # and its state where the solve ends, read on that step
                last = reference.sol.interpolants[-1]
                ends[-1], at_end = last.t, last(sol.t[-1])
            # the steps' sizes follow the error estimates, which cancel to
            # about 1e-6 of their terms' size, and a step to the 1/8th power
            np.testing.assert_allclose(np.diff(sol.t), np.diff(ends), rtol=1e-6, atol=0.0)
            np.testing.assert_allclose(sol.y[:, -1], at_end, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_a_diverging_row_is_refused(self, rows):
        # beta_e*span overflows a step's stage sums: the states turn inf, then
        # NaN, every step is rejected, and the solve fails as SciPy's does
        start = np.tile([0.5, 0.5, 0.0, 0.0], (rows, 1))
        with np.errstate(all="ignore"), pytest.raises(IntegrationError, match="solver failed"):
            _solve_tails(Tolerances(), np.full(rows, 15.0), start, 1e308, 0.0, 0.0)


def lone_runs_and_an_m_sweep():
    """Lone runs of both variants at three stocks and three durations, then stacked runs of a 12-value m sweep."""
    for name in ("variant1", "variant2"):
        config = load_config(name)
        for m, tau in itertools.product((0.2, 0.4, math.inf), (2.5, 7.5, 15.0)):
            integrate(config.scenario, VaccinationPolicy(config.k, config.l, m, tau))
    config = load_config("variant1")
    stocks = np.linspace(0.05, 0.6, 12)
    stacked_runs([(config.scenario, VaccinationPolicy(config.k, config.l, m, config.scenario.T)) for m in stocks])


def stop_values(stop, sol):
    """The stop function at each of a solve's step edges, by its array form and by its float form (or None)."""
    array = np.array([stop(u, y) for u, y in zip(sol.t, sol.y.T)])
    if not hasattr(stop, "floats"):
        return array, None
    return array, np.array([stop.floats(u, *y.tolist()) for u, y in zip(sol.t, sol.y.T)])


def falls_through_0(g):
    """Per step, solve_ivp's rule for an event of direction -1: g >= 0 at its start and <= 0 at its end."""
    return (g[:-1] >= 0.0) & (g[1:] <= 0.0)


class TestStopInTheStepper:
    """A vaccinating stage's stepper stops its own solve, where solve_ivp's terminal event stopped it."""

    @pytest.fixture(scope="class")
    def stage_solves(self):
        calls, recording = recorded_stage_solves()
        with recording:
            lone_runs_and_an_m_sweep()
        return calls

    def test_every_stage_takes_the_steps_of_a_terminal_event(self, stage_solves):
        # the reference is the old path: one-row solves on the float stepper,
        # n rows on SciPy's DOP853, stopped by solve_ivp's terminal event
        stopped = [0, 0]
        for (tol, spans, start, beta_e, rate, willingness), kwargs, sol in stage_solves:
            rows, width = start.shape
            stop = kwargs.get("stop")
            if rows == 1:
                method, options = _FloatStepped, {"controlled": 4}
            else:
                method, options = "DOP853", {}
            reference = solve_ivp(
                _stacked_branch(spans, beta_e, rate, willingness),
                (0.0, 1.0 if np.max(spans) > 0.0 else 0.0),
                start.T.flatten(),
                method=method,
                rtol=tol.rtol,
                atol=tol.atol,
                dense_output=kwargs.get("dense", True),
                events=terminal_event(stop),
                **options,
            )
            assert width == 4
            assert sol.nfev == reference.nfev
            for got, expected in zip(_read_steps(sol.sol), _read_steps(reference.sol)):
                assert same_bits(got, expected)
            if stop is not None and sol.t[-1] < 1.0:
                stopped[rows > 1] += 1
        # stages stopped short of u = 1, of one row and of many
        assert stopped[0] >= 20 and stopped[1] >= 1

    def test_float_and_array_forms_stop_alike(self, stage_solves):
        compared = 0
        for _, kwargs, sol in stage_solves:
            stop = kwargs.get("stop")
            if stop is None:
                continue
            array, floats = stop_values(stop, sol)
            stops = falls_through_0(array)
            # the solve ends on the first step where the stop falls through 0, or at u = 1
            assert not stops[:-1].any()
            assert stops[-1] or sol.t[-1] == 1.0
            if floats is not None:
                compared += 1
                assert np.array_equal(falls_through_0(floats), stops)
                np.testing.assert_array_equal(floats, array)
                # and on s and V, the components the stops read, at the
                # edges of [0, 1] and NaN: both pass a NaN on, so that it
                # never stops a solve
                for u, s, v in itertools.product((0.0, 0.5, 1.0), EDGE_VALUES, EDGE_VALUES):
                    state = np.array([s, 0.01, 0.25, v])
                    np.testing.assert_array_equal(stop.floats(u, *state.tolist()), stop(u, state))
        assert compared >= 20

    def test_no_package_call_passes_events(self):
        spy = mock.MagicMock(wraps=solve_ivp)
        modules = [
            module
            for name, module in sys.modules.items()
            if name.startswith("sirdvax") and getattr(module, "solve_ivp", None) is solve_ivp
        ]
        assert modules
        with contextlib.ExitStack() as patches:
            for module in modules:
                patches.enter_context(mock.patch.object(module, "solve_ivp", spy))
            lone_runs_and_an_m_sweep()
            config = load_config("variant1")
            always_on = integrate(config.scenario, VaccinationPolicy(*config.resources, tau=config.scenario.T))
            stopped_programs(always_on, np.linspace(0.0, 15.0, 5), crossings=True)
            minimize_tau(config.scenario, (config.k, config.l, 0.4), config.tolerances)
        assert spy.call_count > 50
        for call in spy.call_args_list:
            # events is solve_ivp's seventh parameter
            assert len(call.args) < 7 and "events" not in call.kwargs

    def test_no_crossing_reads_no_node(self):
        config = load_config("variant1")
        start = np.array([[config.scenario.initial.s, config.scenario.initial.i, 0.0, 0.0]] * 3)
        sol = _solve_tails(Tolerances(), np.full(3, 15.0), start, 3.5, 0.0, 0.0)

        def g(y, rows):
            return [y[0] + 1.0, y[1] + 1.0]

        refuse = mock.Mock(side_effect=AssertionError("a node was read"))
        with mock.patch.object(sirdvax.solver, "_fall_position", refuse), mock.patch.object(
            sirdvax.solver, "_dense", refuse
        ):
            times = _first_fall(sol.t, sol.y.reshape(4, 3, -1), _read_steps(sol.sol), g)
        assert same_bits(times, np.full((2, 3), np.inf))
        refuse.assert_not_called()

    @pytest.mark.parametrize("rows", [1, 2])
    def test_a_nan_start_fails_the_solve(self, rows):
        # a NaN rate makes the first step NaN, which no rejection ends; a
        # subprocess with a timeout fails the test rather than hanging it
        code = (
            "import math, numpy as np\n"
            "from sirdvax import IntegrationError, Tolerances\n"
            "from sirdvax.solver import _solve_tails\n"
            f"start = np.tile([0.5, 0.01, 0.0, 0.0], ({rows}, 1))\n"
            "try:\n"
            f"    _solve_tails(Tolerances(), np.full({rows}, 15.0), start, 3.5, math.nan, 0.0)\n"
            "except IntegrationError as exc:\n"
            "    print(f'IntegrationError: {exc}')\n"
        )
        package_root = str(Path(sirdvax.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, path]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "IntegrationError: first step is not finite: nan\n"


def falls(rng, rows):
    """Node values of ``rows`` polynomials on ``_NODES`` with a root in (0, 1), >= 0 at 0, and those roots."""
    root = rng.uniform(0.05, 0.95, (rows, 1))
    slope, bend = rng.uniform(0.1, 10.0, (rows, 1)), rng.uniform(-1.0, 1.0, (rows, 1))
    return (root - _NODES) * slope * (1.0 + bend * (_NODES - root) ** 2), root[:, 0]


class TestFallPosition:
    def test_a_crossing_is_located_alike_alone_and_among_others(self):
        rng = np.random.default_rng(17)
        for rows in [3] * 200 + [50, 600]:
            node_values, _ = falls(rng, rows)
            together = _fall_position(node_values)
            for j in range(min(rows, 5)):
                assert same_bits(_fall_position(node_values[j : j + 1]), together[j : j + 1])

    def test_the_fall_is_the_root(self):
        node_values, root = falls(np.random.default_rng(19), 500)
        np.testing.assert_allclose(_fall_position(node_values), root, rtol=0.0, atol=1e-14)
