"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the command's
outputs are right.  The numbers are compared with the benchmark's own RK4
reference (``reference.py``) or against properties the method must have.
CSV values carry 9 significant digits, so comparisons that read them allow
for that rounding and no more.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference
import sirdvax
from workloads import Command

#: s + i + rho + d = 1 holds to the integration's accuracy (atol 1e-9 per step).
CONSERVATION_TOL = 1e-6
#: Usage limits hold up to the drift band the solver's clamp allows.
USAGE_TOL = 1e-6
#: Reference agreement.  The package's error against the reference is below
#: 2e-6 relative in J(T) and 1.1e-6 in V(T) at the default tolerances, so
#: these leave a margin of about 5x, while ``tolerances.rtol = 1e-3`` (J(T)
#: off by about 5e-4) fails them.
STATE_TOL = 1e-4
USAGE_REF_TOL = 1e-5
COST_REL_TOL = 1e-5
#: A value printed with 9 significant digits is within this share of the number.
CSV_REL = 1e-8
#: Distance of the neighbours at which the reference must cost no less than at the optimum.
NEIGHBOUR = 0.05
FINAL_KEYS = ("s", "i", "rho", "d", "J", "V")


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _table(path) -> tuple[dict, list[list[str]]]:
    """Numeric columns of a CSV file by name, and its rows as printed."""
    lines = path.read_text("utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    cols = {
        name: np.array([float(row[j]) for row in rows])
        for j, name in enumerate(header)
        if name != "param"
    }
    return cols, rows


def _stock(cfg: dict) -> float:
    m = cfg["resources"]["m"]
    return math.inf if m is None else m


def _trajectory_problems(cols: dict, cfg: dict, tau: float, events: list[dict] | None) -> list[str]:
    """Properties every trajectory CSV must have; ``events`` is None where the summary lists none."""
    bad = []
    res, s0 = cfg["resources"], cfg["initial"]["s"]
    k, l, m = res["k"], res["l"], _stock(cfg)
    total = cols["s"] + cols["i"] + cols["rho"] + cols["d"]
    if np.max(np.abs(total - 1.0)) > CONSERVATION_TOL:
        bad.append(f"s+i+rho+d deviates from 1 by {np.max(np.abs(total - 1.0)):.3g}")
    if np.any(np.diff(cols["s"]) > 0.0):
        bad.append("s increases")
    for name in ("rho", "d", "J", "V"):
        if np.any(np.diff(cols[name]) < 0.0):
            bad.append(f"{name} decreases")
    if np.max(cols["V"]) > m + USAGE_TOL:
        bad.append(f"V {np.max(cols['V'])} exceeds the stock {m}")
    if cols["V"][-1] > min(k * tau, s0) + USAGE_TOL:
        bad.append(f"V(T) {cols['V'][-1]} exceeds min(k*tau, s0) = {min(k * tau, s0)}")

    # the rate is min(k, l*s) until the program ends or the stock runs out, 0 from then on
    t = cols["t"]
    stops = [tau] + [e["time"] for e in events or () if e["kind"] == "supply_exhausted"]
    off = min(int(np.argmin(np.abs(t - stop))) for stop in stops)
    expected = np.minimum(k, l * cols["s"])
    expected[off:] = 0.0
    err = np.abs(cols["v"] - expected) - CSV_REL * np.maximum(cols["v"], expected)
    if np.max(err) > 1e-15:
        row = int(np.argmax(err))
        bad.append(f"v at t={t[row]} is {cols['v'][row]}, expected {expected[row]}")

    if events is None:
        return bad
    times = [e["time"] for e in events]
    if times != sorted(times):
        bad.append("events are not sorted by time")
    if tau > 0.0 and not any(e["kind"] == "program_end" and e["time"] == tau for e in events):
        bad.append(f"no program_end event at tau={tau}")
    return bad


def _reference_cost(cfg: dict, tau: float, m: float | None = None) -> tuple[float, float]:
    """(J(T), V(T)) of the reference at duration tau."""
    final, _ = reference.solve(cfg, tau, m=m)
    return final[4], final[5]


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_simulate(cmd: Command) -> list[str]:
    summary = json.loads((cmd.out / "summary.json").read_text("utf-8"))
    cols, rows = _table(cmd.out / "trajectory.csv")
    bad = _trajectory_problems(cols, cmd.cfg, cmd.tau, summary["events"])
    final = summary["final_state"]
    if [_fmt(final[key]) for key in FINAL_KEYS] != rows[-1][1:5] + rows[-1][6:8]:
        bad.append("final_state differs from the last CSV row")
    population = cmd.cfg.get("population")
    if population is not None:
        for big, small in zip("SIRD", ("s", "i", "rho", "d")):
            if big not in cols or np.max(np.abs(cols[big] - population * cols[small]) - 2 * CSV_REL * cols[big]) > 0.0:
                bad.append(f"head-count column {big} is not population * {small}")
    elif "S" in cols:
        bad.append("head-count columns written without a population")
    if cmd.reference:
        ref, _ = reference.solve(cmd.cfg, cmd.tau)
        dev = max(abs(final[key] - ref[j]) for j, key in enumerate(FINAL_KEYS[:4]))
        if dev > STATE_TOL:
            bad.append(f"final compartments off the reference by {dev:.3g}")
        if abs(final["V"] - ref[5]) > USAGE_REF_TOL:
            bad.append(f"V(T) off the reference by {abs(final['V'] - ref[5]):.3g}")
        if _relative(final["J"], ref[4]) > COST_REL_TOL:
            bad.append(f"J(T) off the reference by {_relative(final['J'], ref[4]):.3g} relative")
    return bad


def _optimum_problems(cfg: dict, tau: float, cost: float, cap: float, m: float | None) -> list[str]:
    """The reference cost at tau matches ``cost`` and is no higher at tau +- NEIGHBOUR within [0, cap]."""
    bad = []
    j_star, _ = _reference_cost(cfg, tau, m)
    if _relative(cost, j_star) > COST_REL_TOL:
        bad.append(f"cost {cost} off the reference {j_star} by {_relative(cost, j_star):.3g} relative")
    for other in (tau - NEIGHBOUR, tau + NEIGHBOUR):
        if 0.0 <= other <= cap:
            j_other, _ = _reference_cost(cfg, other, m)
            if j_other < j_star:
                bad.append(f"reference cost at tau={other} ({j_other}) is below that at tau*={tau} ({j_star})")
    return bad


def check_optimize(cmd: Command) -> list[str]:
    summary = json.loads((cmd.out / "optimize.json").read_text("utf-8"))
    cols, rows = _table(cmd.out / "optimal_trajectory.csv")
    cfg, tau, cost = cmd.cfg, summary["tau_star"], summary["cost_star"]
    config = sirdvax.load_config(cmd.argv[2])
    cap = sirdvax.feasible_tau_max(config.scenario, config.resources, config.tolerances)
    bad = _trajectory_problems(cols, cfg, tau, summary["events"])
    if not 0.0 <= tau <= cap:
        bad.append(f"tau* {tau} outside [0, feasible_tau_max = {cap}]")
    if cap < cfg["T"]:
        # the always-on program stopped at the cap uses up the stock
        _, used = _reference_cost(cfg, cap, math.inf)
        if abs(used - _stock(cfg)) > USAGE_REF_TOL:
            bad.append(f"the reference uses {used} by feasible_tau_max = {cap}, not the stock {_stock(cfg)}")
    bad += _optimum_problems(cfg, tau, cost, cap, None)
    if rows[-1][6] != _fmt(cost) or summary["indicators"]["total_cost"] != cost:
        bad.append("the trajectory and indicators do not end at cost_star")
    if cmd.binding:
        if cap >= cfg["T"]:
            bad.append(f"binding stock: feasible_tau_max {cap} is not below T")
        if not any(e["kind"] == "supply_exhausted" for e in summary["events"]):
            bad.append("binding stock: no supply_exhausted event")
    return bad


def check_procure(cmd: Command) -> list[str]:
    summary = json.loads((cmd.out / "procure.json").read_text("utf-8"))
    cols, _ = _table(cmd.out / "procure_trajectory.csv")
    cfg, T = cmd.cfg, cmd.cfg["T"]
    tau, m_pp, cost = summary["tau_double_star"], summary["m_double_star"], summary["cost"]
    unlimited = dict(cfg, resources=dict(cfg["resources"], m=None))
    bad = _trajectory_problems(cols, unlimited, tau, None)
    if not 0.0 <= tau <= T:
        bad.append(f"tau** {tau} outside [0, T]")
    bad += _optimum_problems(cfg, tau, cost, T, math.inf)
    _, used = _reference_cost(cfg, tau, math.inf)
    if abs(m_pp - used) > USAGE_REF_TOL:
        bad.append(f"m** {m_pp} differs from the reference usage {used}")
    bound = min(cfg["resources"]["k"] * tau, cfg["initial"]["s"])
    if m_pp > bound + USAGE_TOL:
        bad.append(f"m** {m_pp} exceeds min(k*tau**, s0) = {bound}")
    return bad


def check_sweep(cmd: Command) -> list[str]:
    cols, rows = _table(cmd.out / "sweep.csv")
    bad = []
    if [row[1] for row in rows] != [_fmt(v) for v in cmd.values]:
        return [f"{len(rows)} rows for {len(cmd.values)} requested values, or values out of order"]
    cfg = cmd.cfg
    for j, value in enumerate(cmd.values):
        row_cfg, tau = _with_value(cfg, cmd.param, value)
        res = row_cfg["resources"]
        bound = min(res["k"] * tau, row_cfg["initial"]["s"], _stock(row_cfg))
        if cols["total_vaccinated"][j] > bound + USAGE_TOL:
            bad.append(f"row {j}: total_vaccinated {cols['total_vaccinated'][j]} exceeds {bound}")
        if j in cmd.ref_rows:
            j_ref, _ = _reference_cost(row_cfg, tau)
            if _relative(cols["total_cost"][j], j_ref) > COST_REL_TOL:
                bad.append(f"row {j}: total_cost {cols['total_cost'][j]} off the reference {j_ref}")
    if cmd.param == "tau" and np.any(np.diff(cols["total_vaccinated"]) < 0.0):
        bad.append("total_vaccinated decreases along the tau grid")
    return bad


def _with_value(cfg: dict, param: str, value: float) -> tuple[dict, float]:
    """(config, tau) of one sweep row."""
    if param == "tau":
        return cfg, value
    section = {"m": "resources", "eps": "epidemic"}[param]
    return dict(cfg, **{section: dict(cfg[section], **{param: value})}), cfg["T"]


CHECKS = {
    "simulate": check_simulate,
    "optimize": check_optimize,
    "procure": check_procure,
    "sweep": check_sweep,
}
