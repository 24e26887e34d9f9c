"""The step reader, the band rule and both right-hand sides against SciPy and the rules they replace.

Every dense-output value the solver reads goes through ``_dense`` on
arrays read once off SciPy's steps; these tests hold it to SciPy's own
``OdeSolution`` and per-step interpolants bit for bit.  The band rule
(``_refuse_excursions``) reads the same steps in Bernstein form.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest

import sirdvax.solver
from sirdvax import IntegrationError, SirdState, Tolerances, VaccinationPolicy, integrate, load_config
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
    _edges,
    _fall_position,
    _first_fall,
    _markers,
    _read_steps,
    _refuse_excursions,
    _sample,
    _solve_tails,
    _stacked_branch,
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
    x = _fall_position(np.asarray(g(nodes, run))[func, np.arange(len(step))], states.shape[1])
    times = np.full(values.shape[:2], np.inf)
    times[func, run] = edges[step] + x * (edges[step + 1] - edges[step])
    return times, step


def segment_edges(segment, solutions):
    """A segment's steps up to its end as ``_edges`` gives them, with SciPy's interpolants of those steps."""
    start, end, steps, span = segment
    u_end = float(on_segment(np.array(end), start, span))
    interpolants = [step for step in solutions[id(steps)][1].interpolants if step.t_old < u_end]
    return (*_edges(steps, u_end), steps, interpolants)


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
        # the terminal event ends the solve's times at its root, inside the last step
        beta_e, spans, start = tails

        def stop(u, y):
            return 0.6 - u

        stop.terminal = True
        sol = _solve_tails(Tolerances(), spans, start, beta_e, 0.1, 0.0, events=stop).sol
        assert sol.ts[-1] < sol.interpolants[-1].t
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
