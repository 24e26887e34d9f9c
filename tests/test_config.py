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
        data["tolerances"] = {"rtol": 1e-7, "atol": 1e-10, "max_step": None}
        config = config_from_dict(data)
        assert config.tolerances.rtol == 1e-7
        assert math.isinf(config.tolerances.max_step)
        assert config_from_dict(config_to_dict(config)) == config
