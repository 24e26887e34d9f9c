"""Command-line front end: simulate, optimize, procure, and sweep runs.

Outputs are plot-ready CSV (one row per sample time, 9 significant digits)
and JSON summaries.  Exit codes: 0 success, 1 validation or usage error, 2
numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from .analysis import EpidemicIndicators, indicators, run_indicators, stopped_program_indicators
from .config import ScenarioConfig, config_to_dict, load_config, with_field
from .errors import IntegrationError, ValidationError
from .model import VaccinationPolicy
from .planner import minimize_tau, procurement_plan
from .solver import Trajectory, integrate

#: Each parameter a sweep may vary: the duration and the config fields below.
SWEEPABLE = ("tau", "k", "l", "m", "a", "b", "c", "eps", "r")

#: Most values one sweep may take; a range spec expanding to more is refused.
MAX_SWEEP_VALUES = 100_000

TRAJECTORY_COLUMNS = ("t", "s", "i", "rho", "d", "v", "J", "V")
HEADCOUNT_COLUMNS = ("S", "I", "R", "D")
SWEEP_COLUMNS = ("param", "value", *(f.name for f in fields(EpidemicIndicators)))


def _write_csv(path: Path, header: tuple[str, ...], template: str, rows) -> None:
    """Write a header and one ``template % row`` line per row."""
    lines = [",".join(header)]
    lines.extend(template % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", "utf-8")


def _out_dir(args) -> Path:
    path = Path(args.out or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_run(
    args,
    config: ScenarioConfig,
    traj: Trajectory,
    ind: EpidemicIndicators,
    names: tuple[str, str],
    **extra,
) -> None:
    """Write one run of a command: its trajectory CSV and its JSON summary.

    ``names`` is (summary file, trajectory file), both taking ``--prefix``.
    The CSV has a row per sample, with head-count columns appended when the
    config sets a population.  The summary holds the command, the resolved
    config, ``extra``, the indicators, the trajectory file's name and, with
    a population, head counts.
    """
    out = _out_dir(args)
    json_name, csv_name = (args.prefix + name for name in names)
    population = config.population
    columns = [traj.times, traj.values[:, :4], traj.rates, traj.values[:, 4:]]
    header = TRAJECTORY_COLUMNS
    if population is not None:
        columns.append(population * traj.values[:, :4])
        header += HEADCOUNT_COLUMNS
    template = ",".join(["%.9g"] * len(header))
    _write_csv(out / csv_name, header, template, np.column_stack(columns).tolist())

    summary = {
        "command": args.command,
        "config": config_to_dict(config),
        **extra,
        "indicators": asdict(ind),
        "files": {"trajectory": csv_name},
    }
    if population is not None:
        summary["headcount"] = {
            "peak_I": population * ind.peak_i,
            "total_deaths": population * ind.total_deaths,
            "total_vaccinated": population * ind.total_vaccinated,
        }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    (out / json_name).write_text(text, "utf-8")


def _events_list(traj: Trajectory) -> list[dict]:
    return [{"time": float(e.time), "kind": e.kind} for e in traj.events]


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    traj = integrate(*_with_value(config, "tau", args.tau, args.tau), config.tolerances)
    final = dict(zip(("s", "i", "rho", "d", "J", "V"), traj.values[-1].tolist()))
    _write_run(
        args,
        config,
        traj,
        indicators(traj),
        ("summary.json", "trajectory.csv"),
        tau=args.tau,
        events=_events_list(traj),
        final_state=final,
    )
    return 0


def cmd_optimize(args) -> int:
    config = load_config(args.config)
    result = minimize_tau(config.scenario, config.resources, config.tolerances)
    _write_run(
        args,
        config,
        result.trajectory,
        result.indicators,
        ("optimize.json", "optimal_trajectory.csv"),
        tau_star=result.tau_star,
        cost_star=result.cost_star,
        evaluations=result.evaluations,
        events=_events_list(result.trajectory),
    )
    return 0


def cmd_procure(args) -> int:
    config = load_config(args.config)
    result = procurement_plan(config.scenario, (config.k, config.l), config.tolerances)
    _write_run(
        args,
        config,
        result.trajectory,
        result.indicators,
        ("procure.json", "procure_trajectory.csv"),
        tau_double_star=result.tau_star,
        m_double_star=result.indicators.total_vaccinated,
        cost=result.cost_star,
        evaluations=result.evaluations,
    )
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
        if not all(map(math.isfinite, (start, step, end))):
            raise ValidationError(f"values: range spec must be finite, got {spec!r}")
        if step <= 0:
            raise ValidationError(f"values: step must be positive, got {step}")
        if end < start:
            raise ValidationError(f"values: end {end} precedes start {start}")
        # the count is known before the list is built; end - start may overflow
        steps = (end - start) / step + 1e-9
        count = math.floor(steps) + 1 if math.isfinite(steps) else math.inf
        if count > MAX_SWEEP_VALUES:
            raise ValidationError(
                f"values: {spec!r} expands to {count:.6g} values, more than {MAX_SWEEP_VALUES}"
            )
        # start + idx*step can round past end on the last point
        return [min(start + idx * step, end) for idx in range(count)]
    try:
        return [float(p) for p in spec.split(",")]
    except ValueError as exc:
        raise ValidationError(f"values: {exc}") from exc


def _with_value(config: ScenarioConfig, param: str, value: float, tau: float):
    """Scenario and policy with one parameter set to ``value``, checked.

    A duration is checked against the horizon; any other value is checked
    by ``with_field`` as the config's file would be, with the same
    messages.  ``tau``, the duration when ``param`` is not tau, has been
    checked already.
    """
    if param == "tau":
        tau = config.scenario.in_horizon("tau", value)
    else:
        config = with_field(config, param, value)
    return config.scenario, VaccinationPolicy(*config.resources, tau=tau)


def cmd_sweep(args) -> int:
    """Write one indicators row per value of ``--param``, in the order given.

    Every value is checked before anything is solved.  A tau sweep cuts one
    always-on run at each duration (``stopped_program_indicators``).  A
    sweep of any other parameter solves all its rows together in stacked
    solves (``run_indicators``) and calls ``integrate`` not at all; its rows
    agree with single runs within tolerance.
    """
    config = load_config(args.config)
    T = config.scenario.T
    # --tau is checked whatever the parameter, and however few values there are
    base_tau = T if args.tau is None else config.scenario.in_horizon("tau", args.tau)
    values = parse_values(args.values)

    # every value is checked before anything is solved
    points = [_with_value(config, args.param, value, base_tau) for value in values]
    if args.param == "tau" and values:
        # every program follows the always-on run until it ends
        policy = VaccinationPolicy(*config.resources, tau=T)
        always_on = integrate(config.scenario, policy, config.tolerances)
        found = stopped_program_indicators(always_on, values)
    else:
        found = run_indicators(points, config.tolerances)
    rows = [(args.param, value, *astuple(ind)) for value, ind in zip(values, found)]

    out = _out_dir(args)
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
        p.add_argument("--out", default=None, help="output directory (default: '.')")
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
    p_swp.add_argument("--param", required=True, choices=SWEEPABLE, help="parameter to sweep")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error (its code 2), or the help (code 0)
        return 1 if exc.code else 0
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
