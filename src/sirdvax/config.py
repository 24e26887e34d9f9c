"""Scenario configuration files (JSON) and the bundled example scenarios."""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources
from pathlib import Path

from .errors import ValidationError
from .model import CostParams, EpidemicParams, Scenario, SirdState, VaccinationPolicy
from .solver import Tolerances

#: Names resolvable without a file on disk.
BUNDLED = ("variant1", "variant2")

#: Sections that each hold the fields of one model dataclass.
_MODELS = {"epidemic": EpidemicParams, "cost": CostParams, "initial": SirdState}
_SECTIONS = {
    **{name: tuple(f.name for f in fields(model)) for name, model in _MODELS.items()},
    "resources": ("k", "l", "m"),
}
_OPTIONAL_TOP = ("tolerances", "population")
_TOLERANCE_KEYS = tuple(f.name for f in fields(Tolerances))


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run needs: scenario, resource limits, tolerances, population.

    ``population``, when set, scales the fractions to head counts in the outputs.
    """

    scenario: Scenario
    k: float
    l: float
    m: float
    tolerances: Tolerances
    population: float | None = None

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


def _field(section: str, key: str, value) -> float:
    """One field's value as a number; the stock m may also be unlimited (inf) as null or "inf"."""
    if (section, key) == ("resources", "m") and (value is None or value == "inf"):
        return math.inf
    return _as_number(section, key, value)


def _unlimited_as_null(value: float) -> float | None:
    return None if math.isinf(value) else value


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


def _build(section: str, factory, kwargs):
    """``factory(**kwargs)``, whose own rules check the values; an error names ``section``."""
    try:
        return factory(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{section}: {exc}") from exc


def _resources(k: float, l: float, m: float) -> tuple[float, float, float]:
    """The resource limits, checked by ``VaccinationPolicy``'s rules."""
    VaccinationPolicy(k, l, m, tau=0.0)
    return (k, l, m)


#: Each section's model; its rules check the section's fields.
_CHECKS = {**_MODELS, "resources": _resources}


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a validated configuration from a parsed JSON object."""
    if not isinstance(data, dict):
        raise ValidationError(f"config root: expected an object, got {data!r}")
    for key in data:
        if key not in _SECTIONS and key not in _OPTIONAL_TOP and key != "T":
            raise ValidationError(f"{key}: unknown field")

    sections = {name: _section(data, name) for name in _SECTIONS}
    if "T" not in data:
        raise ValidationError("T: missing required field")
    horizon = _as_number("config", "T", data["T"])

    def checked(name: str):
        values = {}
        for key in _SECTIONS[name]:
            if key not in sections[name]:
                raise ValidationError(f"{name}.{key}: missing required field")
            values[key] = _field(name, key, sections[name][key])
        return _build(name, _CHECKS[name], values)

    parts = {name: checked(name) for name in _MODELS}
    scenario = _build("scenario", Scenario, {**parts, "T": horizon})
    k, l, m = checked("resources")

    # only an absent or null section means the defaults
    tol_data = _section(data, "tolerances") if data.get("tolerances") is not None else {}
    tol_kwargs = {key: _as_number("tolerances", key, value) for key, value in tol_data.items()}
    tolerances = _build("tolerances", Tolerances, tol_kwargs)

    population = None
    if data.get("population") is not None:
        population = _as_number("config", "population", data["population"])
        if population <= 0:
            raise ValidationError(f"population: must be positive, got {population}")

    return ScenarioConfig(
        scenario=scenario,
        k=k,
        l=l,
        m=m,
        tolerances=tolerances,
        population=population,
    )


def with_field(config: ScenarioConfig, key: str, value: float) -> ScenarioConfig:
    """``config`` with the field ``key`` set to ``value``, checked as ``config_from_dict`` checks it.

    ``key`` is a field of the resources, the unit costs or the epidemic.
    The value passes the same number check and its section's rules, and
    fails with the same message, as it would written into the config's
    file, where an unlimited stock is "inf" and any other infinite value a
    number (JSON's Infinity); the other fields, already checked, are not
    checked again.
    """
    section = next(name for name, keys in _SECTIONS.items() if key in keys)
    number = _field(section, key, "inf" if key == "m" and value == math.inf else value)
    if section == "resources":
        k, l, m = _build(section, _resources, {**dict(zip("klm", config.resources)), key: number})
        return replace(config, k=k, l=l, m=m)
    part = _build(section, functools.partial(replace, getattr(config.scenario, section)), {key: number})
    return replace(config, scenario=replace(config.scenario, **{section: part}))


def config_to_dict(config: ScenarioConfig) -> dict:
    """Canonical JSON-ready form; inverse of config_from_dict."""
    sc = config.scenario
    return {
        **{name: asdict(getattr(sc, name)) for name in _MODELS},
        "resources": {"k": config.k, "l": config.l, "m": _unlimited_as_null(config.m)},
        "T": sc.T,
        "tolerances": asdict(config.tolerances),
        "population": config.population,
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
        try:
            text = path.read_text("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config: {name!r} is not UTF-8 text: {exc}") from exc
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
