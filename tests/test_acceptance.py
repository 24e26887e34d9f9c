"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.

Criteria 1, 2 and 8 check the rate cap k and the stock m.  Their targets rest
on one bound: doses are given at a rate of at most k and drain susceptibles,
so any run's usage obeys V(T) <= min(k*T, s(0)) = min(1.5, 0.999) for the
bundled scenario.  A procurement stock of 2.9491 lies beyond it, and the
bundled variant-2 stock of 0.5 never binds (the always-on program uses 0.458
in all), so neither can serve as a target.  Instead:

* criterion 1 anchors the procurement stock m** to the usage V(T) that the
  independent fixed-step RK4 oracle computes at the returned duration tau**,
  checks with the same oracle that tau** costs no more than its neighbours
  tau** +- 0.05, and checks m** <= min(k*tau**, s(0));
* criterion 2 optimizes under two stocks that provably bind, one running out
  on each rate branch: m = 0.2 at exactly m/k = 2.0 on the capacity branch
  (before the kink at t ~ 3.111, where k*t ~ 0.311), and m = 0.4 at
  t ~ 4.8605 on the willingness branch (between 0.311 and the 0.431 the
  unlimited optimum uses).  The optimum is the longest program the stock
  sustains, so the stock runs out exactly as the program ends;
* criterion 8 simulates the variant-2 configuration with those binding
  stocks and checks that vaccination stops strictly earlier than in
  variant 1.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from sirdvax import (
    EVENT_SUPPLY_EXHAUSTED,
    VaccinationPolicy,
    Scenario,
    SirdState,
    dump_config,
    feasible_tau_max,
    integrate,
    load_config,
    minimize_tau,
    procurement_plan,
)
from sirdvax.cli import main
from oracles import exact_infection_probability, random_cases, rk4_reference

GRID_POINTS = 1500
RESOURCES = {"variant1": (0.1, 0.3, 2.949), "variant2": (0.1, 0.3, 0.5)}
# stocks that run out under the variant-2 program, one on each rate branch
BINDING_STOCKS = {"capacity branch": 0.2, "willingness branch": 0.4}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" | {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def random_trajectories():
    return [(scen, pol, integrate(scen, pol)) for scen, pol in random_cases(20)]


def test_criterion_1_procurement_anchor(scenario):
    k, l = 0.1, 0.3
    started = time.perf_counter()
    plan = procurement_plan(scenario, (k, l))
    elapsed = time.perf_counter() - started
    tau_pp, m_pp = plan.tau_star, plan.indicators.total_vaccinated

    def reference(tau):
        policy = VaccinationPolicy(k=k, l=l, m=math.inf, tau=tau)
        return rk4_reference(scenario, policy, 1e-4, [scenario.T])[-1]

    at_optimum = reference(tau_pp)
    anchor_gap = abs(m_pp - at_optimum[5])
    neighbour_costs = [reference(tau_pp + step)[4] for step in (-0.05, 0.05)]
    is_minimum = all(at_optimum[4] <= cost for cost in neighbour_costs)
    usage_bound = min(k * tau_pp, scenario.initial.s)
    ok = anchor_gap <= 1e-5 and is_minimum and m_pp <= usage_bound and elapsed < 10.0
    report(
        1,
        "procurement anchor",
        ok,
        f"m**={m_pp:.7f} vs RK4 oracle V(T)={at_optimum[5]:.7f} (|diff|={anchor_gap:.1e}, "
        f"limit 1e-5), oracle J(T) at tau**={tau_pp:.4f} {at_optimum[4]:.7f} vs "
        f"tau**-/+0.05 {neighbour_costs[0]:.7f}/{neighbour_costs[1]:.7f}, "
        f"m** <= min(k*tau**, s0)={usage_bound:.5f} {m_pp <= usage_bound}, "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_2_variant2_constraint_activity(scenario):
    k, l = 0.1, 0.3
    details = []
    ok = True
    for branch, m in BINDING_STOCKS.items():
        resources = (k, l, m)
        started = time.perf_counter()
        result = minimize_tau(scenario, resources)
        traj = integrate(scenario, VaccinationPolicy(k=k, l=l, m=m, tau=result.tau_star))
        elapsed = time.perf_counter() - started
        tau_cap = feasible_tau_max(scenario, resources)
        exhausted_at = [e.time for e in traj.events if e.kind == EVENT_SUPPLY_EXHAUSTED]
        cap_ok = traj.V.max() <= m + 1e-6
        rate_ok = all(traj.rate_at(t) == 0.0 for t in exhausted_at)
        at_capacity = branch != "capacity branch" or (
            len(exhausted_at) == 1 and abs(exhausted_at[0] - m / k) <= 1e-6
        )
        ok = (
            ok
            and result.tau_star == tau_cap
            and bool(exhausted_at)
            and cap_ok
            and rate_ok
            and at_capacity
            and elapsed < 10.0
        )
        details.append(
            f"m={m} ({branch}): tau*={result.tau_star:.6f} vs feasible max "
            f"{tau_cap:.6f}, exhaustion events={exhausted_at or 'none'}, "
            f"V<=m+1e-6 {cap_ok}, rate 0 at exhaustion {rate_ok}, "
            f"runtime {elapsed:.1f}s"
        )
    report(2, "variant-2 constraint activity", ok, "; ".join(details))


def test_criterion_3_conservation(variant1_traj, variant2_traj, random_trajectories):
    worst = 0.0
    for traj in [variant1_traj, variant2_traj] + [t for _, _, t in random_trajectories]:
        worst = max(worst, float(np.abs(traj.values[:, :4].sum(axis=1) - 1.0).max()))
    ok = worst <= 1e-6
    report(3, "conservation", ok, f"max |s+i+rho+d-1| = {worst:.3g} over 22 runs")


def test_criterion_4_final_size_relation(epidemic, cost):
    scenario60 = Scenario(
        epidemic=epidemic,
        cost=cost,
        initial=SirdState(s=0.999, i=0.001, rho=0.0, d=0.0),
        T=60.0,
    )
    traj = integrate(scenario60, VaccinationPolicy(0.0, 0.0, 0.0, 0.0))
    s_inf = float(traj.s[-1])
    r0 = epidemic.transmission_rate
    residual = math.log(s_inf / 0.999) - r0 * (s_inf - 0.999 - 0.001)
    ok = abs(residual) <= 1e-3
    report(4, "final-size relation", ok, f"s_inf={s_inf:.6f}, residual={residual:.2e}")


def test_criterion_5_optimizer_dominates_the_grid(scenario, tmp_path):
    step = 15.0 / (GRID_POINTS - 1)
    details = []
    ok = True
    for name, resources in RESOURCES.items():
        started = time.perf_counter()
        out = tmp_path / name
        rc = main(
            ["sweep", "--config", name, "--param", "tau",
             "--values", f"0:{step!r}:15", "--out", str(out)]
        )
        grid_elapsed = time.perf_counter() - started
        assert rc == 0
        lines = (out / "sweep.csv").read_text("utf-8").splitlines()[1:]
        grid_costs = [float(line.split(",")[-1]) for line in lines]
        assert len(grid_costs) == GRID_POINTS
        result = minimize_tau(scenario, resources)
        margin = result.cost_star - min(grid_costs)
        ok = ok and margin <= 1e-6 and grid_elapsed < 300.0
        details.append(
            f"{name}: j*={result.cost_star:.7f}, grid min={min(grid_costs):.7f}, "
            f"margin={margin:.2e}, grid {grid_elapsed:.0f}s"
        )
    report(5, "optimizer vs 1500-point grid", ok, "; ".join(details))


def test_criterion_6_fixed_step_reference_agreement(scenario, variant1_traj, variant2_traj):
    details = []
    ok = True
    for name, traj in [("variant1", variant1_traj), ("variant2", variant2_traj)]:
        ref = rk4_reference(scenario, traj.policy, 1e-4, traj.times)
        err = float(np.abs(traj.values[:, :4] - ref[:, :4]).max())
        ok = ok and err <= 1e-4
        details.append(f"{name}: max-norm error {err:.2e}")
    report(6, "fixed-step 4th-order reference", ok, "; ".join(details))


def test_criterion_7_linearization_bound(epidemic):
    worst_excess = -math.inf
    for i in np.linspace(0.0, 1.0, 100):
        p_i = epidemic.transmission_rate * float(i)
        for dt in np.linspace(0.0, 0.1, 100):
            linear = p_i * float(dt)
            exact = exact_infection_probability(float(i), float(dt), epidemic)
            worst_excess = max(worst_excess, abs(exact - linear) - linear * linear)
    ok = worst_excess <= 0.0
    report(
        7,
        "linearization second-order bound",
        ok,
        f"max(|exact - linear| - linear^2) = {worst_excess:.3g} on the 100x100 grid",
    )


def test_criterion_8_control_shape(tmp_path):
    configs = {"variant1": "variant1"}
    for m in BINDING_STOCKS.values():
        path = tmp_path / f"variant2_m{m}.json"
        dump_config(dataclasses.replace(load_config("variant2"), m=m), path)
        configs[f"variant2_m{m}"] = str(path)
    ends = {}
    first_rate = None
    follows_willingness = None
    for name, config in configs.items():
        out = tmp_path / "out" / name
        assert main(["simulate", "--config", config, "--tau", "15", "--out", str(out)]) == 0
        rows = [
            line.split(",")
            for line in (out / "trajectory.csv").read_text("utf-8").splitlines()[1:]
        ]
        t = np.array([float(r[0]) for r in rows])
        s = np.array([float(r[1]) for r in rows])
        v = np.array([float(r[5]) for r in rows])
        if name == "variant1":
            first_rate = v[0]
            late = (t > 4.0) & (t < 15.0)  # beyond the kink, before the program end
            follows_willingness = float(np.abs(v[late] - 0.3 * s[late]).max())
        positive = np.flatnonzero(v > 0.0)
        ends[name] = float(t[positive[-1]]) if positive.size else 0.0
    starts_at_capacity = first_rate == pytest.approx(0.1, abs=1e-12)
    tracks_willingness = follows_willingness <= 1e-9
    stops_earlier = all(ends[name] < ends["variant1"] for name in configs if name != "variant1")
    ok = starts_at_capacity and tracks_willingness and stops_earlier
    report(
        8,
        "control shape",
        ok,
        f"v(0)={first_rate:.3f} (capacity branch), max|v - l*s| beyond the kink "
        f"{follows_willingness:.1e}, last vaccinating sample "
        + ", ".join(f"{name}={end:.4f}" for name, end in ends.items()),
    )


def test_criterion_9_monotonicity(variant1_traj, variant2_traj, random_trajectories):
    failures = []
    runs = [("variant1", variant1_traj), ("variant2", variant2_traj)] + [
        (f"random{i}", traj) for i, (_, _, traj) in enumerate(random_trajectories)
    ]
    for name, traj in runs:
        if np.diff(traj.s).max(initial=-math.inf) > 0.0:
            failures.append(f"{name}: s increased")
        for label, column in (("rho", traj.rho), ("d", traj.d), ("J", traj.J), ("V", traj.V)):
            if np.diff(column).min(initial=math.inf) < 0.0:
                failures.append(f"{name}: {label} decreased")
    ok = not failures
    report(9, "monotonicity", ok, "; ".join(failures) if failures else "22 runs clean")
