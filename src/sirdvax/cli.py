"""Command-line front end: simulate, optimize, procure, and sweep runs.

Outputs are plot-ready CSV (one row per sample time, 9 significant digits)
and JSON summaries.  Exit codes: 0 success, 1 validation error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import EpidemicIndicators, indicators
from .config import ScenarioConfig, config_to_dict, load_config
from .errors import IntegrationError, ValidationError
from .model import CostParams, EpidemicParams, Scenario, VaccinationPolicy
from .planner import minimize_tau, objective, procurement_plan
from .solver import Trajectory, integrate

SWEEPABLE = ("tau", "k", "l", "m", "a", "b", "c", "eps", "r")

TRAJECTORY_COLUMNS = ("t", "s", "i", "rho", "d", "v", "J", "V")
HEADCOUNT_COLUMNS = ("S", "I", "R", "D")
SWEEP_COLUMNS = (
    "param",
    "value",
    "peak_i",
    "peak_time",
    "duration",
    "total_deaths",
    "total_vaccinated",
    "total_cost",
)


def _write_csv(path: Path, header: tuple[str, ...], template: str, rows) -> None:
    """Write a header and one ``template % row`` line per row."""
    lines = [",".join(header)]
    lines.extend(template % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", "utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")


def _trajectory_rows(traj: Trajectory, population: float | None) -> np.ndarray:
    """The CSV table: one row per sample, columns as in the header."""
    columns = [traj.times, traj.values[:, :4], traj.rates, traj.values[:, 4:]]
    if population is not None:
        columns.append(population * traj.values[:, :4])
    return np.column_stack(columns)


def _write_trajectory(path: Path, traj: Trajectory, population: float | None) -> None:
    header = TRAJECTORY_COLUMNS + (HEADCOUNT_COLUMNS if population is not None else ())
    template = ",".join(["%.9g"] * len(header))
    _write_csv(path, header, template, _trajectory_rows(traj, population).tolist())


def _indicators_dict(ind: EpidemicIndicators) -> dict:
    return {
        "peak_i": ind.peak_i,
        "peak_time": ind.peak_time,
        "duration": ind.duration,
        "total_deaths": ind.total_deaths,
        "total_vaccinated": ind.total_vaccinated,
        "total_cost": ind.total_cost,
    }


def _events_list(traj: Trajectory) -> list[dict]:
    return [{"time": float(e.time), "kind": e.kind} for e in traj.events]


def _summary_base(command: str, config: ScenarioConfig) -> dict:
    return {"command": command, "config": config_to_dict(config)}


def _headcount(ind: EpidemicIndicators, population: float) -> dict:
    return {
        "peak_I": population * ind.peak_i,
        "total_deaths": population * ind.total_deaths,
        "total_vaccinated": population * ind.total_vaccinated,
    }


def _out_dir(args, config: ScenarioConfig) -> Path:
    out = args.out or config.output_dir or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _final_state(traj: Trajectory) -> dict:
    last = traj.values[-1]
    keys = ("s", "i", "rho", "d", "J", "V")
    return {key: float(value) for key, value in zip(keys, last)}


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    tau = float(args.tau)
    if tau < 0 or tau > config.scenario.T:
        raise ValidationError(f"tau must lie in [0, {config.scenario.T}], got {tau}")
    policy = VaccinationPolicy(k=config.k, l=config.l, m=config.m, tau=tau)
    traj = integrate(config.scenario, policy, config.tolerances)
    ind = indicators(traj)

    out = _out_dir(args, config)
    csv_name = args.prefix + "trajectory.csv"
    _write_trajectory(out / csv_name, traj, config.population)
    summary = _summary_base("simulate", config)
    summary.update(
        tau=tau,
        indicators=_indicators_dict(ind),
        events=_events_list(traj),
        final_state=_final_state(traj),
        files={"trajectory": csv_name},
    )
    if config.population is not None:
        summary["headcount"] = _headcount(ind, config.population)
    _write_json(out / (args.prefix + "summary.json"), summary)
    return 0


def cmd_optimize(args) -> int:
    config = load_config(args.config)
    result = minimize_tau(config.scenario, config.resources, config.tolerances)
    traj = result.trajectory

    out = _out_dir(args, config)
    csv_name = args.prefix + "optimal_trajectory.csv"
    _write_trajectory(out / csv_name, traj, config.population)
    summary = _summary_base("optimize", config)
    summary.update(
        tau_star=result.tau_star,
        cost_star=result.cost_star,
        evaluations=result.evaluations,
        indicators=_indicators_dict(result.indicators),
        events=_events_list(traj),
        files={"trajectory": csv_name},
    )
    if config.population is not None:
        summary["headcount"] = _headcount(result.indicators, config.population)
    _write_json(out / (args.prefix + "optimize.json"), summary)
    return 0


def cmd_procure(args) -> int:
    config = load_config(args.config)
    result = procurement_plan(config.scenario, (config.k, config.l), config.tolerances)

    out = _out_dir(args, config)
    csv_name = args.prefix + "procure_trajectory.csv"
    _write_trajectory(out / csv_name, result.trajectory, config.population)
    summary = _summary_base("procure", config)
    summary.update(
        tau_double_star=result.tau_star,
        m_double_star=result.indicators.total_vaccinated,
        cost=result.cost_star,
        evaluations=result.evaluations,
        indicators=_indicators_dict(result.indicators),
        files={"trajectory": csv_name},
    )
    if config.population is not None:
        summary["headcount"] = _headcount(result.indicators, config.population)
    _write_json(out / (args.prefix + "procure.json"), summary)
    return 0


def parse_values(spec: str) -> list[float]:
    """Parse a sweep value list: comma-separated or start:step:end."""
    spec = spec.strip()
    if not spec:
        return []
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValidationError(f"values: range spec must be start:step:end, got {spec!r}")
        try:
            start, step, end = (float(p) for p in parts)
        except ValueError as exc:
            raise ValidationError(f"values: {exc}") from exc
        if step <= 0:
            raise ValidationError(f"values: step must be positive, got {step}")
        if end < start:
            raise ValidationError(f"values: end {end} precedes start {start}")
        count = int(math.floor((end - start) / step + 1e-9)) + 1
        # start + idx*step can round past end on the last point
        return [min(start + idx * step, end) for idx in range(count)]
    try:
        return [float(p) for p in spec.split(",")]
    except ValueError as exc:
        raise ValidationError(f"values: {exc}") from exc


def _with_value(config: ScenarioConfig, param: str, value: float, tau: float):
    """Scenario, resources, and duration with one parameter replaced."""
    sc = config.scenario
    epidemic, cost = sc.epidemic, sc.cost
    resources = config.resources
    if param == "tau":
        tau = value
    elif param in ("k", "l", "m"):
        replaced = dict(zip(("k", "l", "m"), resources))
        replaced[param] = value
        resources = (replaced["k"], replaced["l"], replaced["m"])
    elif param in ("a", "b", "c"):
        kwargs = {"a": cost.a, "b": cost.b, "c": cost.c, param: value}
        cost = CostParams(**kwargs)
    elif param in ("eps", "r"):
        kwargs = {
            "alpha": epidemic.alpha,
            "beta": epidemic.beta,
            "r": epidemic.r,
            "eps": epidemic.eps,
            param: value,
        }
        epidemic = EpidemicParams(**kwargs)
    scenario = Scenario(epidemic=epidemic, cost=cost, initial=sc.initial, T=sc.T)
    return scenario, resources, tau


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    if args.param not in SWEEPABLE:
        raise ValidationError(
            f"param: unknown parameter {args.param!r}; choose one of {', '.join(SWEEPABLE)}"
        )
    values = parse_values(args.values)
    base_tau = float(args.tau) if args.tau is not None else config.scenario.T

    rows = []
    for value in values:
        scenario, resources, tau = _with_value(config, args.param, value, base_tau)
        evaluation = objective(tau, scenario, resources, config.tolerances)
        ind = indicators(evaluation.trajectory)
        rows.append(
            (
                args.param,
                value,
                ind.peak_i,
                ind.peak_time,
                ind.duration,
                ind.total_deaths,
                ind.total_vaccinated,
                ind.total_cost,
            )
        )

    out = _out_dir(args, config)
    template = ",".join(["%s"] + ["%.9g"] * (len(SWEEP_COLUMNS) - 1))
    _write_csv(out / (args.prefix + "sweep.csv"), SWEEP_COLUMNS, template, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sirdvax",
        description=(
            "Simulate a normalized SIRD epidemic under a rate- and supply-limited "
            "vaccination program, optimize the program duration, and plan procurement."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--config",
            required=True,
            help="path to a scenario JSON file, or a bundled name (variant1, variant2)",
        )
        p.add_argument("--out", default=None, help="output directory (default: config or '.')")
        p.add_argument("--prefix", default="", help="prefix for output file names")

    p_sim = sub.add_parser("simulate", help="integrate one program duration and emit the trajectory")
    common(p_sim)
    p_sim.add_argument("--tau", required=True, type=float, help="program duration")
    p_sim.set_defaults(func=cmd_simulate)

    p_opt = sub.add_parser("optimize", help="find the cost-optimal program duration")
    common(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_pro = sub.add_parser("procure", help="optimal duration without a supply limit and the stock it needs")
    common(p_pro)
    p_pro.set_defaults(func=cmd_procure)

    p_swp = sub.add_parser("sweep", help="indicators for a list of values of one parameter")
    common(p_swp)
    p_swp.add_argument("--param", required=True, help=f"one of: {', '.join(SWEEPABLE)}")
    p_swp.add_argument(
        "--values",
        required=True,
        help="comma-separated list (1,2,3) or range spec start:step:end",
    )
    p_swp.add_argument(
        "--tau",
        default=None,
        type=float,
        help="program duration used when sweeping a parameter other than tau (default: T)",
    )
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IntegrationError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
