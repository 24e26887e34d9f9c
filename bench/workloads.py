"""Seeded inputs of the three workloads: config files and CLI argument lists.

Every config, the bundled variants included, is written with
``sirdvax.dump_config`` into the run's work directory, and the CLI only ever
sees those files.  The same seed gives the same files and commands.

A workload is a *round* of commands, repeated until the run's time is up.
Besides its main commands a round holds *probes*: a few small commands of
the kinds the main commands lack, spread between them, so that every
end-to-end metric is measured on every workload.  Probes are never traced,
so the per-layer metrics describe the main commands alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import sirdvax

NAMES = ("simulate-batch", "plan", "sweep")

#: Generated simulate configs per round; with the four bundled commands and
#: the two slow epidemics a round holds 42 simulate commands.
SIMULATE_GENERATED = 36
#: Simulate commands whose final state is compared with the reference.
SIMULATE_REFERENCE = 8
#: Rows of each sweep whose total cost is compared with the reference.
SWEEP_REFERENCE_ROWS = 2
#: Bundled stocks that bind: 0.2 runs out on the capacity branch, 0.4 on the
#: willingness branch (acceptance criterion 2).
BINDING_STOCKS = (0.2, 0.4)
#: tau grids of the sweep workload: 15/n is a dyadic step for these n, so
#: every grid value start + idx*step is exact and the last one is T = 15.
TAU_GRID_POINTS = (16, 24, 32)
#: Contact intensity of the planner probes' config, variant 1 otherwise.
PROBE_R = 4.0
#: Values of the probes' m and eps sweeps.
PROBE_STOCKS = (0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6)
PROBE_EPS = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5)
#: A slow epidemic grown from i0 = 1.41e-4 on which ``integrate`` at the
#: default tolerances misses J(T) by 2.6e-5 relative, beyond the 1e-5
#: reference check: a fault of the solver's accuracy.  Its simulate command
#: is in every simulate-batch round with the same inputs for every seed, so
#: it fails in every round until the solver is mended.
SLOW_FAULT = {
    "epidemic": {"alpha": 0.8958, "beta": 0.1042, "r": 8.387, "eps": 0.2058},
    "cost": {"a": 6.625, "b": 43.99, "c": 109.5},
    "resources": {"k": 0.1682, "l": 0.4151, "m": 0.134904},
    "initial": {"s": 0.999859, "i": 1.41e-4, "rho": 0.0, "d": 0.0},
    "T": 9.28,
}
SLOW_FAULT_TAU = 1.973058
#: Variant 1 grown from i0 = 5e-4, at tau = 7.5: a slow epidemic on which
#: J(T) is off the reference by 2.9e-6 relative today, so a change that
#: loosens stepping fails its reference check.
SLOW_I0 = 5e-4
SLOW_TAU = 7.5


@dataclass
class Command:
    """One CLI invocation and what its output checks need to know."""

    kind: str  # simulate | optimize | procure | sweep
    argv: list[str]
    cfg: dict  # the config file's content, as the CLI reads it
    out: Path
    tau: float | None = None  # simulate: the duration
    param: str | None = None  # sweep: the parameter and its values
    values: list[float] = field(default_factory=list)
    reference: bool = False  # simulate: compare the final state with the reference
    ref_rows: list[int] = field(default_factory=list)  # sweep rows compared with the reference
    binding: bool = False  # plan: the stock must run out at the optimum
    probe: bool = False  # measured for its end-to-end metric only, never traced
    known_fault: bool = False  # fails its checks because of a known fault of the program

    @property
    def metric(self) -> str:
        """Name of the end-to-end metric this command's timing feeds."""
        if self.kind == "sweep":
            return "tau_sweep_points_per_s" if self.param == "tau" else "param_sweep_points_per_s"
        return {"simulate": "simulate_ms", "optimize": "optimize_s", "procure": "procure_s"}[self.kind]


class Inputs:
    """Writes configs into ``workdir`` and builds commands from them."""

    def __init__(self, workdir: Path, rtol: float | None):
        self.workdir = workdir
        self.rtol = rtol
        self.count = 0
        (workdir / "configs").mkdir(parents=True, exist_ok=True)

    def config(self, name: str, data: dict) -> tuple[str, dict]:
        """Validate ``data``, write it with dump_config and return (path, content)."""
        if self.rtol is not None:
            data = dict(data, tolerances=dict(data.get("tolerances") or {}, rtol=self.rtol))
        path = self.workdir / "configs" / f"{name}.json"
        sirdvax.dump_config(sirdvax.config_from_dict(data), path)
        return str(path), json.loads(path.read_text("utf-8"))

    def bundled(self, name: str, m: float | None = None) -> tuple[str, dict]:
        """A bundled variant, optionally with another stock."""
        data = sirdvax.config_to_dict(sirdvax.load_config(name))
        if m is None:
            return self.config(name, data)
        data["resources"] = dict(data["resources"], m=m)
        return self.config(f"{name}-m{m}", data)

    def command(self, kind: str, config: tuple[str, dict], *extra: str, **info) -> Command:
        self.count += 1
        out = self.workdir / "out" / f"{self.count:03d}"
        path, cfg = config
        argv = [kind, "--config", path, "--out", str(out), *extra]
        return Command(kind=kind, argv=argv, cfg=cfg, out=out, **info)

    def simulate(self, config, tau: float, reference_check: bool = False, **info) -> Command:
        return self.command("simulate", config, "--tau", repr(tau), tau=tau, reference=reference_check, **info)

    def sweep(self, config, param: str, values: list[float], spec: str, rng=None, probe: bool = False) -> Command:
        """A sweep; ``rng`` picks the rows compared with the reference, else the middle row is."""
        if rng is None:
            rows = [len(values) // 2]
        else:
            rows = sorted(rng.choice(len(values), size=SWEEP_REFERENCE_ROWS, replace=False).tolist())
        return self.command(
            "sweep", config, "--param", param, "--values", spec, param=param, values=values, ref_rows=rows, probe=probe
        )


def _strata(rng, n: int, lo: float, hi: float, digits: int) -> list[float]:
    """Latin-hypercube draw: one value in each of n equal strata, shuffled."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return [round(float(lo + (hi - lo) * x), digits) for x in u]


def _value_list(values: list[float]) -> str:
    return ",".join(repr(v) for v in values)


def _tau_grid(n: int, T: float) -> tuple[list[float], str]:
    step = T / n
    return [idx * step for idx in range(n + 1)], f"0:{step!r}:{T!r}"


def _generated_simulate_configs(rng, n: int) -> list[tuple[dict, float]]:
    """Configs that vary r, eps, alpha, the costs, i0, T, k and l, with a duration each.

    Stocks cycle through unlimited, non-binding, binding on the capacity
    branch and binding on the willingness branch; the binding stocks are
    placed with the benchmark's reference so that each runs out well inside
    its branch.  Every third config sets ``population``.

    i0 starts at 1e-3: below it, slow epidemics miss the reference check
    (``SLOW_FAULT``) on some draws and not on others, so the failed share of
    a run would depend on the seed.  The fixed commands on ``SLOW_FAULT`` and
    on variant 1 at ``SLOW_I0`` cover that range in every round instead.
    """
    draw = {
        "alpha": _strata(rng, n, 0.8, 0.99, 4),
        "r": _strata(rng, n, 3.0, 15.0, 3),
        "eps": _strata(rng, n, 0.1, 0.5, 4),
        "a": _strata(rng, n, 1.0, 10.0, 3),
        "b": _strata(rng, n, 10.0, 100.0, 2),
        "c": _strata(rng, n, 100.0, 1000.0, 1),
        "i0": _strata(rng, n, 1e-3, 1e-2, 6),
        "T": _strata(rng, n, 8.0, 20.0, 2),
        "k": _strata(rng, n, 0.02, 0.2, 4),
        "l": _strata(rng, n, 0.1, 0.9, 4),
        "u_tau": _strata(rng, n, 0.0, 1.0, 6),
        "u_m": _strata(rng, n, 0.2, 0.8, 4),
        "pop": _strata(rng, n, 1e5, 1e8, -3),
    }
    out = []
    for j in range(n):
        g = {key: values[j] for key, values in draw.items()}
        T = g["T"]
        data = {
            "epidemic": {"alpha": g["alpha"], "beta": round(1.0 - g["alpha"], 4), "r": g["r"], "eps": g["eps"]},
            "cost": {"a": g["a"], "b": g["b"], "c": g["c"]},
            "resources": {"k": g["k"], "l": g["l"], "m": None},
            "initial": {"s": round(1.0 - g["i0"], 6), "i": g["i0"], "rho": 0.0, "d": 0.0},
            "T": T,
            "population": g["pop"] if j % 3 == 0 else None,
        }
        tau = round(T * g["u_tau"], 6)
        data["resources"]["m"] = _stock(data, tau, j % 4, g["u_m"])
        out.append((data, tau))
    return out


def _stock(data: dict, tau: float, kind: int, u: float) -> float | None:
    """Stock of the given kind: 0 unlimited, 1 non-binding, 2 capacity branch, 3 willingness branch."""
    k, l, s0, T = data["resources"]["k"], data["resources"]["l"], data["initial"]["s"], data["T"]
    if kind == 0:
        return None
    if kind == 1 or tau < 0.5:
        # usage never exceeds min(k*tau, s0)
        return round(min(k * tau, s0) * (1.0 + u) + 0.01, 6)
    times = np.linspace(0.0, T, 401)
    _, states = reference.solve(data, T, times, h=0.01, m=math.inf)
    s, V = np.array(states)[:, 0], np.array(states)[:, 5]
    below = np.flatnonzero(l * s <= k)
    t_kink = float(times[below[0]]) if below.size else T
    if kind == 3 and tau >= t_kink + 0.5:
        v_kink, v_tau = np.interp([t_kink, tau], times, V)
        return round(v_kink + u * (v_tau - v_kink), 6)
    if t_kink > 0.0:
        return round(u * k * min(tau, t_kink), 6)
    return round(u * float(np.interp(tau, times, V)), 6)


def _interleave(main: list[Command], probes: list[Command]) -> list[Command]:
    """Spread the probes evenly between the main commands."""
    out = list(main)
    for j, cmd in enumerate(reversed(probes)):
        out.insert(len(main) * (len(probes) - j) // (len(probes) + 1), cmd)
    return out


def build(name: str, seed: int, workdir: Path, rtol: float | None = None) -> list[Command]:
    """The workload's round: its main commands with the probes spread between them."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    inputs = Inputs(workdir, rtol)
    v1, v2 = inputs.bundled("variant1"), inputs.bundled("variant2")
    T = v1[1]["T"]

    # Probes use the same inputs for every seed, so that they vary only with the machine.
    def simulate_probes(n: int) -> list[Command]:
        return [inputs.simulate((v1, v2)[j % 2], T * (j + 0.5) / n, probe=True) for j in range(n)]

    def planner_probes() -> list[Command]:
        """optimize and procure, twice each, on variant 1 with r = 4: a milder epidemic, a cheaper command."""
        data = sirdvax.config_to_dict(sirdvax.load_config("variant1"))
        data["epidemic"]["r"] = PROBE_R
        mild = inputs.config(f"variant1-r{PROBE_R}", data)
        return [inputs.command(kind, mild, probe=True) for kind in ("optimize", "procure") * 2]

    def sweep_probes(n: int) -> list[Command]:
        """n small sweeps, alternating tau on a 9-point grid with 8-point m or eps lists."""
        values, spec = _tau_grid(8, T)
        params = (("m", PROBE_STOCKS), ("eps", PROBE_EPS))
        probes = []
        for j in range(n):
            config = (v1, v2)[j // 2 % 2]
            if j % 2 == 0:
                probes.append(inputs.sweep(config, "tau", values, spec, probe=True))
            else:
                param, points = params[j // 2 % 2]
                probes.append(inputs.sweep(config, param, list(points), _value_list(points), probe=True))
        return probes

    if name == "simulate-batch":
        taus = _strata(rng, 2, 0.0, T, 6)
        slow = sirdvax.config_to_dict(sirdvax.load_config("variant1"))
        slow["initial"] = dict(slow["initial"], s=round(1.0 - SLOW_I0, 6), i=SLOW_I0)
        main = [
            inputs.simulate(v1, T, reference_check=True),
            inputs.simulate(v1, taus[0]),
            inputs.simulate(v2, 0.0),
            inputs.simulate(v2, taus[1]),
            inputs.simulate(inputs.config("slow-fault", SLOW_FAULT), SLOW_FAULT_TAU, True, known_fault=True),
            inputs.simulate(inputs.config("variant1-slow", slow), SLOW_TAU, reference_check=True),
        ]
        generated = _generated_simulate_configs(rng, SIMULATE_GENERATED)
        checked = set(rng.choice(len(generated), size=SIMULATE_REFERENCE - 1, replace=False).tolist())
        for j, (data, tau) in enumerate(generated):
            config = inputs.config(f"gen{j:02d}", data)
            main.append(inputs.simulate(config, tau, reference_check=j in checked))
        sweeps, planners = sweep_probes(8), planner_probes()
        return _interleave(main, _interleave(sweeps, planners))

    if name == "plan":
        g1, g2 = (inputs.config(f"plan-gen{j}", _plan_config(rng, j)) for j in range(2))
        main = [
            inputs.command("optimize", v1),
            inputs.command("procure", v2),
            inputs.command("optimize", inputs.bundled("variant2", m=BINDING_STOCKS[0]), binding=True),
            inputs.command("optimize", g1),
            inputs.command("optimize", inputs.bundled("variant2", m=BINDING_STOCKS[1]), binding=True),
            inputs.command("procure", g2),
        ]
        sims, sweeps = simulate_probes(16), sweep_probes(8)
        return _interleave(main, [cmd for j in range(8) for cmd in (*sims[2 * j : 2 * j + 2], sweeps[j])])

    if name == "sweep":
        main = []
        ranges = (("m", 0.05, 1.0),) * 2 + (("eps", 0.05, 0.6),) * 2
        for config, (param, lo, hi) in zip((v1, v2) * 2, ranges):
            values, spec = _tau_grid(int(rng.choice(TAU_GRID_POINTS)), T)
            points = sorted(_strata(rng, 12, lo, hi, 4))
            main += [
                inputs.sweep(config, "tau", values, spec, rng),
                inputs.sweep(config, param, points, _value_list(points), rng),
            ]
        sims, planners = simulate_probes(24), planner_probes()
        return _interleave(main, [cmd for j in range(4) for cmd in (*sims[6 * j : 6 * j + 6], planners[j])])

    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")


def _plan_config(rng, j: int) -> dict:
    """A config near the bundled scenario; the first has a stock that binds for long programs."""
    alpha = round(float(rng.uniform(0.85, 0.98)), 4)
    i0 = round(float(rng.uniform(1e-3, 5e-3)), 6)
    data = {
        "epidemic": {
            "alpha": alpha,
            "beta": round(1.0 - alpha, 4),
            "r": round(float(rng.uniform(6.0, 14.0)), 3),
            "eps": round(float(rng.uniform(0.2, 0.4)), 4),
        },
        "cost": {
            "a": round(float(rng.uniform(2.0, 8.0)), 3),
            "b": round(float(rng.uniform(30.0, 70.0)), 2),
            "c": round(float(rng.uniform(300.0, 700.0)), 1),
        },
        "resources": {
            "k": round(float(rng.uniform(0.05, 0.15)), 4),
            "l": round(float(rng.uniform(0.2, 0.5)), 4),
            "m": None,
        },
        "initial": {"s": round(1.0 - i0, 6), "i": i0, "rho": 0.0, "d": 0.0},
        "T": round(float(rng.uniform(12.0, 18.0)), 2),
    }
    if j == 0:
        final, _ = reference.solve(data, data["T"], h=0.01, m=math.inf)
        data["resources"]["m"] = round(float(rng.uniform(0.5, 0.9)) * final[5], 6)
    return data
