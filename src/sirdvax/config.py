"""Scenario configuration files (JSON) and the bundled example scenarios."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ValidationError
from .model import CostParams, EpidemicParams, Scenario, SirdState
from .solver import Tolerances

#: Names resolvable without a file on disk.
BUNDLED = ("variant1", "variant2")

_SECTIONS = {
    "epidemic": ("alpha", "beta", "r", "eps"),
    "cost": ("a", "b", "c"),
    "resources": ("k", "l", "m"),
    "initial": ("s", "i", "rho", "d"),
}
_OPTIONAL_TOP = ("tolerances", "population", "output_dir")
_TOLERANCE_KEYS = ("rtol", "atol", "max_step")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run needs: scenario, resource limits, tolerances, output."""

    scenario: Scenario
    k: float
    l: float
    m: float
    tolerances: Tolerances
    population: float | None = None
    output_dir: str | None = None

    @property
    def resources(self) -> tuple[float, float, float]:
        return (self.k, self.l, self.m)


def _as_number(section: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{section}.{key}: expected a number, got {value!r}")
    # json reads NaN, Infinity and integers beyond the float range as numbers;
    # no field takes them
    if not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{section}.{key}: expected a finite number, got {value!r}")
    return float(value)


def _section(data: dict, name: str) -> dict:
    if name not in data:
        raise ValidationError(f"{name}: missing required section")
    section = data[name]
    if not isinstance(section, dict):
        raise ValidationError(f"{name}: expected an object, got {section!r}")
    for key in section:
        if key not in _SECTIONS.get(name, _TOLERANCE_KEYS):
            raise ValidationError(f"{name}.{key}: unknown field")
    return section


def _required(section: dict, name: str, key: str) -> float:
    if key not in section:
        raise ValidationError(f"{name}.{key}: missing required field")
    return _as_number(name, key, section[key])


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a validated configuration from a parsed JSON object."""
    if not isinstance(data, dict):
        raise ValidationError(f"config root: expected an object, got {data!r}")
    for key in data:
        if key not in _SECTIONS and key not in _OPTIONAL_TOP and key != "T":
            raise ValidationError(f"{key}: unknown field")

    ep = _section(data, "epidemic")
    co = _section(data, "cost")
    re_ = _section(data, "resources")
    init = _section(data, "initial")
    if "T" not in data:
        raise ValidationError("T: missing required field")
    horizon = _as_number("config", "T", data["T"])

    def build(section: str, factory, kwargs):
        try:
            return factory(**kwargs)
        except ValidationError as exc:
            raise ValidationError(f"{section}: {exc}") from exc

    epidemic = build(
        "epidemic",
        EpidemicParams,
        {key: _required(ep, "epidemic", key) for key in _SECTIONS["epidemic"]},
    )
    cost = build(
        "cost",
        CostParams,
        {key: _required(co, "cost", key) for key in _SECTIONS["cost"]},
    )
    initial = build(
        "initial",
        SirdState,
        {key: _required(init, "initial", key) for key in _SECTIONS["initial"]},
    )
    scenario = build(
        "scenario", Scenario, {"epidemic": epidemic, "cost": cost, "initial": initial, "T": horizon}
    )

    k = _required(re_, "resources", "k")
    l = _required(re_, "resources", "l")
    if "m" not in re_:
        raise ValidationError("resources.m: missing required field")
    m_raw = re_["m"]
    if m_raw is None or m_raw == "inf":
        m = math.inf
    else:
        m = _as_number("resources", "m", m_raw)
    if k < 0 or not 0 <= l <= 1 or m < 0:
        raise ValidationError(
            f"resources: k must be >= 0, l in [0, 1], m >= 0; got k={k}, l={l}, m={m}"
        )

    tol_data = _section(data, "tolerances") if data.get("tolerances") else {}
    tol_kwargs = {}
    for key in _TOLERANCE_KEYS:
        if key in tol_data:
            value = tol_data[key]
            if key == "max_step" and (value is None or value == "inf"):
                tol_kwargs[key] = math.inf
            else:
                tol_kwargs[key] = _as_number("tolerances", key, value)
    tolerances = build("tolerances", Tolerances, tol_kwargs)

    population = None
    if data.get("population") is not None:
        population = _as_number("config", "population", data["population"])
        if population <= 0:
            raise ValidationError(f"population: must be positive, got {population}")

    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ValidationError(f"output_dir: expected a string, got {output_dir!r}")

    return ScenarioConfig(
        scenario=scenario,
        k=k,
        l=l,
        m=m,
        tolerances=tolerances,
        population=population,
        output_dir=output_dir,
    )


def config_to_dict(config: ScenarioConfig) -> dict:
    """Canonical JSON-ready form; inverse of config_from_dict."""
    sc = config.scenario
    return {
        "epidemic": {
            "alpha": sc.epidemic.alpha,
            "beta": sc.epidemic.beta,
            "r": sc.epidemic.r,
            "eps": sc.epidemic.eps,
        },
        "cost": {"a": sc.cost.a, "b": sc.cost.b, "c": sc.cost.c},
        "resources": {
            "k": config.k,
            "l": config.l,
            "m": None if math.isinf(config.m) else config.m,
        },
        "initial": {
            "s": sc.initial.s,
            "i": sc.initial.i,
            "rho": sc.initial.rho,
            "d": sc.initial.d,
        },
        "T": sc.T,
        "tolerances": {
            "rtol": config.tolerances.rtol,
            "atol": config.tolerances.atol,
            "max_step": None
            if math.isinf(config.tolerances.max_step)
            else config.tolerances.max_step,
        },
        "population": config.population,
        "output_dir": config.output_dir,
    }


def load_config(source: str | Path) -> ScenarioConfig:
    """Load a configuration from a JSON file or a bundled scenario name."""
    name = str(source)
    if name in BUNDLED:
        text = resources.files("sirdvax").joinpath(f"data/{name}.json").read_text("utf-8")
    else:
        path = Path(source)
        if not path.exists():
            raise ValidationError(
                f"config: no such file {name!r} (bundled names: {', '.join(BUNDLED)})"
            )
        text = path.read_text("utf-8")
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an integer too long for int() to read
        raise ValidationError(f"config: invalid JSON in {name!r}: {exc}") from exc
    return config_from_dict(data)


def dump_config(config: ScenarioConfig, path: str | Path) -> None:
    """Write a configuration as JSON; loading it back reproduces the runs."""
    Path(path).write_text(
        json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n", "utf-8"
    )
