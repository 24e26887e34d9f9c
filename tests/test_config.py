"""Configuration loading, validation messages, and round trips."""

from __future__ import annotations

import json
import math

import pytest

from sirdvax import (
    ValidationError,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
)
from sirdvax.config import with_field


def variant1_dict():
    return {
        "epidemic": {"alpha": 0.95, "beta": 0.05, "r": 10.0, "eps": 0.3},
        "cost": {"a": 5.0, "b": 50.0, "c": 500.0},
        "resources": {"k": 0.1, "l": 0.3, "m": 2.949},
        "initial": {"s": 0.999, "i": 0.001, "rho": 0.0, "d": 0.0},
        "T": 15.0,
    }


class TestBundledScenarios:
    def test_variant1(self):
        config = load_config("variant1")
        assert config.resources == (0.1, 0.3, 2.949)
        assert config.scenario.T == 15.0
        assert config.scenario.epidemic.r == 10.0
        assert config.scenario.initial.i == 0.001

    def test_variant2_differs_only_in_the_stock(self):
        one = load_config("variant1")
        two = load_config("variant2")
        assert two.m == 0.5
        assert one.scenario == two.scenario
        assert (one.k, one.l) == (two.k, two.l)

    def test_missing_file_mentions_bundled_names(self, tmp_path):
        with pytest.raises(ValidationError, match="variant1"):
            load_config(tmp_path / "nope.json")


class TestValidation:
    def test_missing_section(self):
        data = variant1_dict()
        del data["cost"]
        with pytest.raises(ValidationError, match="cost"):
            config_from_dict(data)

    def test_missing_field_names_the_path(self):
        data = variant1_dict()
        del data["epidemic"]["eps"]
        with pytest.raises(ValidationError, match="epidemic.eps"):
            config_from_dict(data)

    def test_wrong_type_names_the_path(self):
        data = variant1_dict()
        data["resources"]["k"] = "fast"
        with pytest.raises(ValidationError, match="resources.k"):
            config_from_dict(data)

    def test_unknown_field_rejected(self):
        data = variant1_dict()
        data["epidemic"]["gamma"] = 1.0
        with pytest.raises(ValidationError, match="epidemic.gamma"):
            config_from_dict(data)

    def test_root_must_be_an_object(self):
        with pytest.raises(ValidationError, match="^config root: expected an object"):
            config_from_dict([variant1_dict()])

    def test_unknown_top_level_field_rejected(self):
        data = variant1_dict()
        data["horizon"] = 15.0
        with pytest.raises(ValidationError, match="^horizon: unknown field"):
            config_from_dict(data)

    def test_missing_horizon(self):
        data = variant1_dict()
        del data["T"]
        with pytest.raises(ValidationError, match="^T: missing required field"):
            config_from_dict(data)

    def test_missing_stock(self):
        # m may be null (unlimited), but it may not be left out
        data = variant1_dict()
        del data["resources"]["m"]
        with pytest.raises(ValidationError, match="^resources.m: missing required field"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "section, key, value",
        [(None, "output_dir", "out"), (None, "output_dir", None),
         ("tolerances", "max_step", 0.1), ("tolerances", "max_step", None)],
        ids=["output_dir", "output_dir-null", "max_step", "max_step-null"],
    )
    def test_removed_settings_are_refused_by_name(self, section, key, value):
        # configs that older versions dumped carry both keys, set to null
        data = variant1_dict()
        if section is None:
            data[key] = value
        else:
            data[section] = {"rtol": 1e-8, "atol": 1e-11, key: value}
        name = key if section is None else f"{section}.{key}"
        with pytest.raises(ValidationError, match=f"^{name}: unknown field"):
            config_from_dict(data)

    @pytest.mark.parametrize("key", ["event_tol", "gamma"])
    def test_unknown_tolerance_rejected(self, key):
        data = variant1_dict()
        data["tolerances"] = {"rtol": 1e-7, key: 1e-9}
        with pytest.raises(ValidationError, match=f"tolerances.{key}"):
            config_from_dict(data)

    def test_domain_violation_names_the_section(self):
        data = variant1_dict()
        data["epidemic"]["eps"] = 1.5
        with pytest.raises(ValidationError, match="epidemic"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [("k", -0.1), ("l", -0.1), ("l", 1.5), ("m", -0.1)],
        ids=["k-negative", "l-negative", "l-above-1", "m-negative"],
    )
    def test_resources_out_of_range(self, key, value):
        data = variant1_dict()
        data["resources"][key] = value
        with pytest.raises(ValidationError, match="resources"):
            config_from_dict(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", "utf-8")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_config(path)

    def test_integer_too_long_to_read(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"T": 1' + "0" * 5000 + "}", "utf-8")
        with pytest.raises(ValidationError):
            load_config(path)

    @pytest.mark.parametrize("value", [[], 0, False, ""], ids=["list", "zero", "false", "empty-string"])
    def test_tolerances_must_be_an_object(self, value):
        data = variant1_dict()
        data["tolerances"] = value
        with pytest.raises(ValidationError, match="tolerances"):
            config_from_dict(data)

    @pytest.mark.parametrize("value", [{}, None], ids=["empty-object", "null"])
    def test_empty_or_null_tolerances_mean_the_defaults(self, value):
        data = variant1_dict()
        data["tolerances"] = value
        assert config_from_dict(data) == config_from_dict(variant1_dict())

    def test_rtol_below_the_solver_floor_names_the_field(self):
        data = variant1_dict()
        data["tolerances"] = {"rtol": 1e-20}
        with pytest.raises(ValidationError, match="tolerances: rtol"):
            config_from_dict(data)

    def test_population_must_be_positive(self):
        data = variant1_dict()
        data["population"] = -3.0
        with pytest.raises(ValidationError, match="population"):
            config_from_dict(data)


class TestSupplyEncoding:
    def test_null_means_unlimited(self):
        data = variant1_dict()
        data["resources"]["m"] = None
        assert math.isinf(config_from_dict(data).m)

    def test_inf_string_means_unlimited(self):
        data = variant1_dict()
        data["resources"]["m"] = "inf"
        assert math.isinf(config_from_dict(data).m)

    def test_unlimited_serializes_as_null(self):
        data = variant1_dict()
        data["resources"]["m"] = None
        out = config_to_dict(config_from_dict(data))
        assert out["resources"]["m"] is None


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        config = config_from_dict(variant1_dict())
        again = config_from_dict(config_to_dict(config))
        assert again == config

    def test_file_round_trip(self, tmp_path):
        config = load_config("variant2")
        path = tmp_path / "dumped.json"
        dump_config(config, path)
        assert config_from_dict(json.loads(path.read_text("utf-8"))) == config

    def test_tolerances_survive_the_round_trip(self):
        data = variant1_dict()
        data["tolerances"] = {"rtol": 1e-7, "atol": 1e-10}
        config = config_from_dict(data)
        assert config.tolerances.rtol == 1e-7
        assert config.tolerances.atol == 1e-10
        assert config_to_dict(config)["tolerances"] == {"rtol": 1e-7, "atol": 1e-10}
        assert config_from_dict(config_to_dict(config)) == config


class TestOneField:
    """``with_field`` checks one field as ``config_from_dict`` checks it in a file."""

    SECTIONS = {"k": "resources", "l": "resources", "m": "resources", "a": "cost",
                "b": "cost", "c": "cost", "eps": "epidemic", "r": "epidemic"}

    @pytest.mark.parametrize("key", sorted(SECTIONS))
    @pytest.mark.parametrize(
        "value", [0.0, 0.2, 0.999, 1.0, 1.5, 40.0, -0.1, math.inf, -math.inf, math.nan]
    )
    def test_same_config_or_same_message_as_the_file(self, key, value):
        data = variant1_dict()
        # a file holds an unlimited stock as "inf", and any other infinite value as Infinity
        data[self.SECTIONS[key]][key] = "inf" if key == "m" and value == math.inf else value
        try:
            expected = config_from_dict(data)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                with_field(config_from_dict(variant1_dict()), key, value)
            assert str(raised.value) == str(exc)
        else:
            assert with_field(config_from_dict(variant1_dict()), key, value) == expected
