"""Benchmark of the sirdvax CLI: one workload, one seed, one run.

    python3 bench/run.py --workload simulate-batch --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One closed-loop client, this process, calls ``sirdvax.cli.main``
with the arguments a user would type and issues each command after the
previous one has finished.  The workload's round of commands (see
``workloads.py``) repeats until ``--seconds`` have passed.  Every command's
outputs are checked outside the timed region; a command that exits non-zero
or fails a check counts as failed.  ``correct`` is false when a command
fails that is not marked as a known fault of the program.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced rounds of the main commands for ``--seconds``, with at
least two traced rounds, reports the per-layer metrics and the tracing
overhead, and writes the spans of the first traced round to
``bench/results/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for setup_s, after one that compiles the bytecode.
SETUP_RUNS = 9
SETUP_CODE = (
    "import time; t = time.perf_counter(); import sirdvax.cli; "
    "from sirdvax import load_config; load_config('variant1'); load_config('variant2'); "
    "print(time.perf_counter() - t)"
)

#: Time of ``calibrate()`` at the nominal machine speed that the end-to-end
#: times are scaled to; about its median on the 2-core machine the first
#: numbers were taken on.
CALIBRATION_NOMINAL_S = 0.012
#: Scenario of the calibration's RK4 run (the bundled variant 1).
CALIBRATION_CONFIG = {
    "epidemic": {"alpha": 0.95, "r": 10.0, "eps": 0.3},
    "cost": {"a": 5.0, "b": 50.0, "c": 500.0},
    "resources": {"k": 0.1, "l": 0.3, "m": None},
    "initial": {"s": 0.999, "i": 0.001, "rho": 0.0, "d": 0.0},
    "T": 15.0,
}

UNITS = {
    "setup_s": "s",
    "simulate_ms": "ms",
    "optimize_s": "s",
    "procure_s": "s",
    "tau_sweep_points_per_s": "1/s",
    "param_sweep_points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rtol",
        type=float,
        default=None,
        help="write this rtol into every config; 1e-3 shows that the output checks catch wrong answers",
    )
    return parser.parse_args(argv)


def calibrate() -> float:
    """Seconds taken by a fixed mix of work that uses no package code.

    The mix is interpreter arithmetic, small-array NumPy calls like those of
    an adaptive stepper, and a coarse run of the benchmark's own RK4.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(60000):
        total += i * 0.5
    y = np.ones(6)
    for _ in range(400):
        f = np.array([0.1 * y[0], -y[1], y[2], y[3], y[4], y[5]])
        y = y + 0.001 * f
        total += np.linalg.norm(f / (1e-9 + 1e-6 * np.abs(y))) / math.sqrt(6.0)
    reference.solve(CALIBRATION_CONFIG, 7.0, h=0.05)
    return time.perf_counter() - start


def _spawn_setup(env) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout)


def measure_setup(calibrations: list[float]) -> float:
    """Median wall time of a fresh interpreter's import of the CLI plus loading both bundled variants."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    _spawn_setup(env)
    times = []
    for _ in range(SETUP_RUNS):
        calibrations.append(calibrate())
        times.append(_spawn_setup(env))
    return statistics.median(times)


def _digest(out: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(out.iterdir()):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


class Client:
    """Issues commands one after another, times them and checks what they wrote."""

    def __init__(self, cli_main, checks):
        self.cli_main = cli_main
        self.checks = checks
        self.verdicts: dict[tuple[str, ...], tuple[str, list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.samples: dict[str, list[float]] = {}
        self.calibrations: list[float] = []

    def run(self, cmd, tracer=None) -> float:
        """Run one command, record its wall-time sample and check it; return its wall time."""
        self.attempted += 1
        self.calibrations.append(calibrate())
        start = time.perf_counter()
        if tracer is None:
            code = self.cli_main(cmd.argv)
        else:
            with tracer.installed():
                code = tracer.span("cli.main", self.cli_main, cmd.argv)
        elapsed = time.perf_counter() - start
        sample = len(cmd.values) / elapsed if cmd.kind == "sweep" else elapsed
        self.samples.setdefault(cmd.metric, []).append(sample)
        problems = [f"exit code {code}"] if code != 0 else self.verify(cmd)
        if problems:
            self.failed += 1
            self.unexpected += not cmd.known_fault
            label = "FAILED (known fault)" if cmd.known_fault else "FAILED"
            print(f"{label} {' '.join(cmd.argv)}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    def verify(self, cmd) -> list[str]:
        """Full checks the first time a command runs; byte-identical outputs every later time.

        A later run with the same outputs gets the first run's verdict, so a
        command fails in every round or in none.  Commands that differ only
        in their output directory count as the same.
        """
        digest = _digest(cmd.out)
        same = tuple(arg for arg in cmd.argv if arg != str(cmd.out))
        first = self.verdicts.get(same)
        if first is not None:
            return first[1] if first[0] == digest else ["outputs differ from an earlier run of the same command"]
        try:
            problems = self.checks[cmd.kind](cmd)
        except Exception as exc:  # a malformed output is a failed check, not a crash
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.verdicts[same] = (digest, problems)
        return problems


def end_to_end(client: Client, setup_s: float) -> tuple[dict, dict]:
    """(metrics at nominal machine speed, the same medians as wall-clock readings).

    A time is scaled by CALIBRATION_NOMINAL_S over the run's median
    calibration time, a rate by the inverse.
    """
    speed = CALIBRATION_NOMINAL_S / statistics.median(client.calibrations)
    wall = {name: statistics.median(samples) for name, samples in client.samples.items()}
    wall["simulate_ms"] *= 1000.0
    wall["setup_s"] = setup_s
    scaled = {name: value / speed if UNITS[name] == "1/s" else value * speed for name, value in wall.items()}
    scaled["peak_rss_mb"] = wall["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: {"value": scaled[name], "unit": unit} for name, unit in UNITS.items()}
    return metrics, wall


def per_layer(tracer, answers: int, answer_objective_calls: int, bytes_written: int) -> dict:
    calls, total, own = tracer.totals()
    counts = tracer.counts
    return {
        "config.load_config_calls": (calls["config.load_config"], "count"),
        "config.load_config_s": (total["config.load_config"], "s"),
        "solver.integrate_calls": (calls["solver.integrate"], "count"),
        "solver.integrate_s": (total["solver.integrate"], "s"),
        "solver.integrate_self_s": (own["solver.integrate"], "s"),
        "solver.solve_ivp_calls": (calls["solver.solve_ivp"], "count"),
        "solver.solve_ivp_s": (total["solver.solve_ivp"], "s"),
        "solver.rhs_calls": (counts["solver.rhs_calls"], "count"),
        "solver.steps": (counts["solver.steps"], "count"),
        "solver.state_at_calls": (calls["solver.state_at"], "count"),
        "solver.state_at_s": (total["solver.state_at"], "s"),
        "solver.rate_at_calls": (calls["solver.rate_at"], "count"),
        "solver.rate_at_s": (total["solver.rate_at"], "s"),
        "analysis.indicators_calls": (calls["analysis.indicators"], "count"),
        "analysis.indicators_self_s": (own["analysis.indicators"], "s"),
        "planner.minimize_tau_calls": (calls["planner.minimize_tau"], "count"),
        "planner.minimize_tau_s": (total["planner.minimize_tau"], "s"),
        "planner.objective_calls": (calls["planner.objective"], "count"),
        "planner.objective_calls_per_answer": (answer_objective_calls / answers if answers else 0.0, "ratio"),
        "planner.feasible_tau_max_calls": (calls["planner.feasible_tau_max"], "count"),
        "planner.feasible_tau_max_s": (total["planner.feasible_tau_max"], "s"),
        "cli.main_s": (total["cli.main"], "s"),
        "cli.self_s": (own["cli.main"], "s"),
        "cli.integrate_calls": (counts["cli.integrate_calls"], "count"),
        "cli.bytes_written": (bytes_written, "bytes"),
    }


def run_untraced(client: Client, round_, seconds: float) -> None:
    """Repeat the round until ``seconds`` have passed; each command is checked on its first run."""
    start = time.perf_counter()
    while True:
        for cmd in round_:
            client.run(cmd)
        if time.perf_counter() - start >= seconds:
            return


def run_traced(client: Client, round_, seconds: float, tracer_factory):
    """Alternate traced and untraced rounds of the main commands, probes left out.

    Runs at least two traced rounds and one untraced round, and ends on a
    traced one.  Returns the per-layer metrics, the tracer of the first
    traced round and a list of problems with the tracing: traced functions
    that no longer exist, counts that read 0 although every workload
    integrates, and counts that differ from one traced round to the next.
    """
    round_ = [cmd for cmd in round_ if not cmd.probe]
    untraced, traced, layers, tracers = [], [], [], []
    start = time.perf_counter()
    while True:
        if traced:
            untraced.append(sum(client.run(cmd) for cmd in round_))
        tracer = tracer_factory()
        tracers.append(tracer)
        wall = answers = answer_objective_calls = bytes_written = 0
        for cmd in round_:
            before = tracer.calls["planner.objective"]
            wall += client.run(cmd, tracer)
            bytes_written += sum(path.stat().st_size for path in cmd.out.iterdir())
            if cmd.kind in ("optimize", "procure"):
                answers += 1
                answer_objective_calls += tracer.calls["planner.objective"] - before
        traced.append(wall)
        layers.append(per_layer(tracer, answers, answer_objective_calls, bytes_written))
        if len(traced) >= 2 and time.perf_counter() - start >= seconds:
            break
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit == "s":
            value = statistics.median(layer[name][0] for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {"value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
    problems = [f"traced function {name} not found" for name in tracers[0].missing]
    problems += [f"{name} is 0" for name in ("solver.integrate_calls", "solver.rhs_calls") if not layers[0][name][0]]
    problems += [
        f"{name} differs between traced rounds"
        for name in ("solver.rhs_calls", "solver.steps", "solver.integrate_calls", "planner.objective_calls")
        if any(layer[name] != layers[0][name] for layer in layers)
    ]
    return metrics, tracers[0], problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sirdvax" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from the root of a sirdvax checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sirdvax.cli

    import checks
    import tracing
    import workloads

    if Path(sirdvax.__file__).resolve().parent != SRC / "sirdvax":
        print(f"error: imported sirdvax from {sirdvax.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose one of {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    scratch = BENCH / ".work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        round_ = workloads.build(args.workload, args.seed, Path(tmp), args.rtol)
        # lazy imports and first-call set-up inside the package happen here, untimed
        variant1 = str(Path(tmp) / "configs" / "variant1.json")
        sirdvax.cli.main(["simulate", "--config", variant1, "--tau", "1", "--out", str(Path(tmp) / "warm-up")])
        client = Client(sirdvax.cli.main, checks.CHECKS)
        tracing_problems, wall = [], {}
        if args.trace == 0:
            setup_s = measure_setup(client.calibrations)
            run_untraced(client, round_, args.seconds)
            metrics, wall = end_to_end(client, setup_s)
        else:
            metrics, tracer, tracing_problems = run_traced(client, round_, args.seconds, tracing.Tracer)
            results = BENCH / "results"
            results.mkdir(exist_ok=True)
            spans = {"workload": args.workload, "seed": args.seed, "spans": tracer.spans, "counts": dict(tracer.counts)}
            (results / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans), "utf-8")

    for problem in tracing_problems:
        print(f"error: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        line = f"{args.workload:>15}  {name:<36} {metric['value']:>14.6g} {metric['unit']:<6}"
        print(line + (f"  (wall clock {wall[name]:.6g})" if name in wall else ""))
    print(f"{args.workload:>15}  attempted {client.attempted}, failed {client.failed}")
    result = {
        "correct": client.unexpected == 0 and not tracing_problems,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
