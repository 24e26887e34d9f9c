"""Command-line interface: files, schemas, exit codes, and round trips."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import pytest

import sirdvax
from sirdvax import (
    VaccinationPolicy,
    IntegrationError,
    dump_config,
    indicators,
    integrate,
    load_config,
    objective,
    procurement_plan,
    ValidationError,
)
from sirdvax.cli import MAX_SWEEP_VALUES, main, parse_values

TRAJECTORY_HEADER = "t,s,i,rho,d,v,J,V"
SWEEP_HEADER = "param,value,peak_i,peak_time,duration,total_deaths,total_vaccinated,total_cost"
INDICATOR_KEYS = {
    "peak_i", "peak_time", "duration", "total_deaths", "total_vaccinated", "total_cost"
}
INDICATOR_KEYS_IN_ORDER = SWEEP_HEADER.split(",")[2:]


def read_csv(path):
    lines = path.read_text("utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def direct_run(config, param, value, tau):
    """``integrate`` of one sweep row, its parameter set by ``dataclasses.replace``, not the CLI."""
    scenario, policy = config.scenario, VaccinationPolicy(*config.resources, tau=tau)
    if param in ("k", "l", "m"):
        policy = dataclasses.replace(policy, **{param: value})
    elif param in ("a", "b", "c"):
        cost = dataclasses.replace(scenario.cost, **{param: value})
        scenario = dataclasses.replace(scenario, cost=cost)
    else:
        epidemic = dataclasses.replace(scenario.epidemic, **{param: value})
        scenario = dataclasses.replace(scenario, epidemic=epidemic)
    return integrate(scenario, policy, config.tolerances)


def assert_row_agrees(tokens, expected, T):
    """A sweep row's indicators within 1e-7 relative of a direct run's.

    An epidemic that ends within the horizon has i near 1e-6 there, so atol
    leaves its end about 1e-5 relative uncertain in either run.
    """
    for name, token, want in zip(INDICATOR_KEYS_IN_ORDER, tokens, astuple(expected), strict=True):
        rel = 1e-5 if name == "duration" and want < T else 1e-7
        assert float(token) == pytest.approx(want, rel=rel), name


def write_config(tmp_path, name="config.json", **overrides):
    data = {
        "epidemic": {"alpha": 0.95, "beta": 0.05, "r": 10.0, "eps": 0.3},
        "cost": {"a": 5.0, "b": 50.0, "c": 500.0},
        "resources": {"k": 0.1, "l": 0.3, "m": 2.949},
        "initial": {"s": 0.999, "i": 0.001, "rho": 0.0, "d": 0.0},
        "T": 15.0,
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            data[key] = {**data.get(key, {}), **value}
        else:
            data[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data), "utf-8")
    return path


class TestSimulate:
    def test_bundled_variant1(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["simulate", "--config", "variant1", "--tau", "15", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert ",".join(header) == TRAJECTORY_HEADER
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 15.0
        assert float(rows[-1][7]) == pytest.approx(0.45820, abs=1e-4)
        summary = json.loads((out / "summary.json").read_text("utf-8"))
        assert summary["command"] == "simulate"
        assert summary["indicators"]["total_vaccinated"] == pytest.approx(0.45820, abs=1e-4)
        assert {e["kind"] for e in summary["events"]} == {"rate_kink", "peak", "program_end"}

    def test_numbers_use_nine_significant_digits(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--config", "variant1", "--tau", "15", "--out", str(out)])
        _, rows = read_csv(out / "trajectory.csv")
        for row in rows[::100]:
            for token in row:
                assert token == format(float(token), ".9g")

    def test_binding_stock_zeroes_the_rate_after_exhaustion(self, tmp_path):
        config = write_config(tmp_path, resources={"m": 0.2})
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(config), "--tau", "15", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text("utf-8"))
        (t_e,) = [e["time"] for e in summary["events"] if e["kind"] == "supply_exhausted"]
        assert t_e == pytest.approx(2.0, abs=1e-6)
        _, rows = read_csv(out / "trajectory.csv")
        for row in rows:
            if float(row[0]) >= t_e:
                assert float(row[5]) == 0.0
            v_max = 0.2 + 1e-6
            assert float(row[7]) <= v_max

    def test_disease_free_columns_are_constant(self, tmp_path):
        config = write_config(
            tmp_path, initial={"s": 0.999, "i": 0.0, "rho": 0.001, "d": 0.0}
        )
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(config), "--tau", "0", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert len({tuple(row[1:]) for row in rows}) == 1

    def test_headcount_columns_appended_with_population(self, tmp_path):
        config = write_config(tmp_path, population=1_000_000)
        out = tmp_path / "run"
        main(["simulate", "--config", str(config), "--tau", "15", "--out", str(out)])
        header, rows = read_csv(out / "trajectory.csv")
        assert header == TRAJECTORY_HEADER.split(",") + ["S", "I", "R", "D"]
        assert float(rows[0][8]) == pytest.approx(999000.0)

    @pytest.mark.parametrize(
        "tau, m",
        [
            pytest.param(0.0, 2.949, id="no-program"),
            pytest.param(15.0, 2.949, id="whole-horizon"),
            pytest.param(7.5, 2.949, id="past-the-kink"),
            pytest.param(15.0, 0.2, id="stock-out-on-capacity"),
            pytest.param(15.0, 0.4, id="stock-out-on-willingness"),
        ],
    )
    def test_rate_column_is_the_rate_in_effect_just_after_t(self, tmp_path, tau, m):
        config = write_config(tmp_path, resources={"m": m})
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(config), "--tau", str(tau), "--out", str(out)])
        assert rc == 0
        loaded = load_config(config)
        policy = VaccinationPolicy(k=loaded.k, l=loaded.l, m=loaded.m, tau=tau)
        traj = integrate(loaded.scenario, policy, loaded.tolerances)
        _, rows = read_csv(out / "trajectory.csv")
        assert len(rows) == len(traj.times)
        for t, row in zip(traj.times, rows):
            assert row[0] == format(float(t), ".9g")
            # nine significant digits; a zero rate is written as an exact 0
            assert float(row[5]) == pytest.approx(traj.rate_at(float(t)), rel=1e-8, abs=0.0)

    def test_tau_beyond_horizon_exits_1(self, tmp_path):
        rc = main(["simulate", "--config", "variant1", "--tau", "20", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("tau", ["-1", "nan", "inf", "16"])
    def test_tau_outside_the_horizon_gives_one_message(self, tmp_path, capsys, tau):
        out = tmp_path / "run"
        rc = main(["simulate", "--config", "variant1", "--tau", tau, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: tau must lie in [0, 15.0], got {float(tau)}\n"
        assert not out.exists()

    def test_broken_config_exits_1(self, tmp_path):
        config = write_config(tmp_path, epidemic={"eps": 2.0})
        rc = main(["simulate", "--config", str(config), "--tau", "1", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize(
        "value", [float("inf"), float("nan"), 10**400], ids=["Infinity", "NaN", "huge-integer"]
    )
    @pytest.mark.parametrize("field", ["T", "epidemic.r", "cost.c", "population"])
    def test_non_finite_config_number_exits_1(self, tmp_path, capsys, field, value):
        # json reads the bare words Infinity and NaN, and integers of any size,
        # as numbers
        section, _, key = field.rpartition(".")
        overrides = {section: {key: value}} if section else {key: value}
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(config), "--tau", "1", "--out", str(out)])
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_resources_out_of_range_exit_1_without_writing(self, tmp_path, capsys):
        config = write_config(tmp_path, resources={"l": 1.5})
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(config), "--tau", "1", "--out", str(out)])
        assert rc == 1
        assert "resources" in capsys.readouterr().err
        assert not out.exists()

    def test_config_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_bytes(b"\xff\xfe{}")
        rc = main(["simulate", "--config", str(config), "--tau", "1", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and "not UTF-8" in err

    def test_rtol_below_the_solver_floor_exits_1_without_writing(self, tmp_path, capsys):
        config = write_config(tmp_path, tolerances={"rtol": 1e-20})
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(config), "--tau", "7.5", "--out", str(out)])
        assert rc == 1
        assert "rtol" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_exits_2(self, tmp_path, monkeypatch):
        import sirdvax.cli as cli_module

        def explode(*args, **kwargs):
            raise IntegrationError("step size underflow")

        monkeypatch.setattr(cli_module, "integrate", explode)
        rc = main(["simulate", "--config", "variant1", "--tau", "15", "--out", str(tmp_path)])
        assert rc == 2



class TestSamplesLeavingTheUnitInterval:
    """Variant 1 at rtol 5e-2: i's dense output dips to -3.2e-5, outside the repair band of 1e-9."""

    def test_integrate_refuses_the_run(self, tmp_path):
        config = load_config(str(write_config(tmp_path, tolerances={"rtol": 5e-2})))
        policy = VaccinationPolicy(k=config.k, l=config.l, m=config.m, tau=15.0)
        with pytest.raises(IntegrationError, match=r"left \[0, 1\]"):
            integrate(config.scenario, policy, config.tolerances)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--tau", "15"],
            ["optimize"],
            ["sweep", "--param", "m", "--values", "0.4,2.949", "--tau", "15"],
            ["sweep", "--param", "tau", "--values", "0,7.5,15"],
        ],
        ids=["simulate", "optimize", "sweep-m", "sweep-tau"],
    )
    def test_commands_exit_2(self, tmp_path, capsys, argv):
        config = write_config(tmp_path, tolerances={"rtol": 5e-2})
        rc = main([argv[0], "--config", str(config), *argv[1:], "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "left [0, 1]" in capsys.readouterr().err

class TestOptimize:
    def test_variant1(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["optimize", "--config", "variant1", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "optimize.json").read_text("utf-8"))
        assert summary["tau_star"] == pytest.approx(6.9295, abs=0.05)
        assert summary["cost_star"] == pytest.approx(41.2811, abs=0.01)
        assert summary["evaluations"] >= 64
        header, rows = read_csv(out / "optimal_trajectory.csv")
        assert ",".join(header) == TRAJECTORY_HEADER
        assert all(float(row[7]) <= 2.949 + 1e-6 for row in rows)

    def test_variant2_respects_the_stock(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["optimize", "--config", "variant2", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "optimize.json").read_text("utf-8"))
        assert 0.0 <= summary["tau_star"] <= 15.0
        _, rows = read_csv(out / "optimal_trajectory.csv")
        assert all(float(row[7]) <= 0.5 + 1e-6 for row in rows)

    @pytest.mark.parametrize(
        "command, csv_name",
        [("optimize", "optimal_trajectory.csv"), ("procure", "procure_trajectory.csv")],
    )
    def test_writes_the_optimizers_trajectory_without_integrating_again(
        self, tmp_path, monkeypatch, command, csv_name
    ):
        import sirdvax.cli as cli_module

        def explode(*args, **kwargs):
            raise AssertionError("the command integrated again at the optimum")

        monkeypatch.setattr(cli_module, "integrate", explode)
        out = tmp_path / "run"
        assert main([command, "--config", "variant1", "--out", str(out)]) == 0
        _, rows = read_csv(out / csv_name)
        assert len(rows) >= 1001

    def test_disease_free_returns_zero(self, tmp_path):
        config = write_config(
            tmp_path, initial={"s": 0.999, "i": 0.0, "rho": 0.001, "d": 0.0}
        )
        out = tmp_path / "run"
        rc = main(["optimize", "--config", str(config), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "optimize.json").read_text("utf-8"))
        assert summary["tau_star"] == 0.0
        assert summary["cost_star"] == 0.0


class TestProcure:
    def test_variant1_plan(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["procure", "--config", "variant1", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "procure.json").read_text("utf-8"))
        assert summary["tau_double_star"] == pytest.approx(6.9295, abs=0.05)
        assert summary["m_double_star"] == pytest.approx(0.43093, abs=2e-3)
        assert (out / "procure_trajectory.csv").exists()

    def test_writes_the_library_plan(self, tmp_path):
        config = load_config("variant1")
        plan = procurement_plan(config.scenario, (config.k, config.l), config.tolerances)
        out = tmp_path / "run"
        assert main(["procure", "--config", "variant1", "--out", str(out)]) == 0
        summary = json.loads((out / "procure.json").read_text("utf-8"))
        assert summary["tau_double_star"] == plan.tau_star
        assert summary["m_double_star"] == plan.indicators.total_vaccinated
        assert summary["cost"] == plan.cost_star
        assert summary["evaluations"] == plan.evaluations

    def test_stock_in_the_config_is_ignored(self, tmp_path):
        config = write_config(tmp_path, resources={"m": 0.01})
        out = tmp_path / "run"
        main(["procure", "--config", str(config), "--out", str(out)])
        summary = json.loads((out / "procure.json").read_text("utf-8"))
        assert summary["m_double_star"] == pytest.approx(0.43093, abs=2e-3)

    def test_no_capacity_needs_no_stock(self, tmp_path):
        config = write_config(tmp_path, resources={"k": 0.0})
        out = tmp_path / "run"
        rc = main(["procure", "--config", str(config), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "procure.json").read_text("utf-8"))
        assert summary["m_double_star"] == 0.0


class TestSweep:
    def test_rows_match_direct_objective_calls(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["sweep", "--config", "variant1", "--param", "tau", "--values", "2,6,10",
             "--out", str(out)]
        )
        assert rc == 0
        config = load_config("variant1")
        header, rows = read_csv(out / "sweep.csv")
        assert header[0] == "param" and header[-1] == "total_cost"
        assert [float(row[1]) for row in rows] == [2.0, 6.0, 10.0]
        for row in rows:
            expected = objective(
                float(row[1]), config.scenario, config.resources, config.tolerances
            )
            assert float(row[-1]) == pytest.approx(expected, rel=1e-8)

    def test_tau_sweep_integrates_once(self, tmp_path, monkeypatch):
        import sirdvax.cli as cli_module

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(cli_module, "integrate", counting)
        out = tmp_path / "run"
        rc = main(["sweep", "--config", "variant2", "--param", "tau", "--values", "0:0.5:15",
                   "--out", str(out)])
        assert rc == 0
        assert len(calls) == 1 and calls[0][1].tau == 15.0
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 31

    @pytest.mark.parametrize(
        "param, values", [("tau", "0:0.25:15"), ("m", "0,0.05,0.2,0.4,inf")], ids=["tau", "m"]
    )
    def test_sweep_csv_is_the_one_astuple_rows_write(self, tmp_path, monkeypatch, param, values):
        # the reference builds each row as dataclasses.astuple did, from the
        # indicators the command computed, and writes them with its template
        import sirdvax.cli as cli_module

        found = []
        for name in ("stopped_program_indicators", "run_indicators"):
            compute = getattr(cli_module, name)

            def recording(*args, compute=compute, **kwargs):
                found.append(compute(*args, **kwargs))
                return found[-1]

            monkeypatch.setattr(cli_module, name, recording)
        out = tmp_path / "run"
        rc = main(["sweep", "--config", "variant1", "--param", param, "--values", values,
                   "--tau", "15", "--out", str(out)])
        assert rc == 0
        (rows,) = found
        numbers = cli_module.parse_values(values)
        template = ",".join(["%s"] + ["%.9g"] * (len(cli_module.SWEEP_COLUMNS) - 1))
        expected = tmp_path / "expected.csv"
        cli_module._write_csv(
            expected,
            cli_module.SWEEP_COLUMNS,
            template,
            [(param, value, *astuple(ind)) for value, ind in zip(numbers, rows)],
        )
        assert (out / "sweep.csv").read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "param, values", [("m", "0,0.1,0.2,0.4,inf"), ("eps", "0.2,0.3"), ("c", "100")]
    )
    def test_other_sweeps_never_integrate(self, tmp_path, monkeypatch, param, values):
        # stacked solves of all the rows answer the sweep
        import sirdvax.cli as cli_module

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(cli_module, "integrate", counting)
        monkeypatch.setattr(sirdvax.solver, "integrate", counting)
        out = tmp_path / "run"
        rc = main(["sweep", "--config", "variant1", "--param", param, "--values", values,
                   "--tau", "10", "--out", str(out)])
        assert rc == 0
        assert calls == []
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == len(values.split(","))

    @pytest.mark.parametrize("tau", [None, "7.5"], ids=["default-tau", "tau-7.5"])
    @pytest.mark.parametrize(
        "param, values",
        [("k", "0,0.05,0.2"), ("l", "0,0.6,1"), ("m", "0,0.2,inf"), ("a", "0,20"),
         ("b", "0,100"), ("c", "0,1000"), ("eps", "0.1,0.5"), ("r", "4,25")],
    )
    def test_other_sweep_rows_are_the_indicators_of_a_direct_run(
        self, tmp_path, param, values, tau
    ):
        out = tmp_path / "run"
        argv = ["sweep", "--config", "variant1", "--param", param, "--values", values]
        rc = main([*argv, *(["--tau", tau] if tau else []), "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "sweep.csv")
        config = load_config("variant1")
        for row, value in zip(rows, values.split(","), strict=True):
            expected = indicators(direct_run(config, param, float(value), float(tau or 15.0)))
            assert row[:2] == [param, "%.9g" % float(value)]
            assert_row_agrees(row[2:], expected, config.scenario.T)

    @pytest.mark.parametrize("tau", ["15", "7.5", "0"])
    @pytest.mark.parametrize("m", [0.2, 0.4, None], ids=["m-0.2", "m-0.4", "m-inf"])
    @pytest.mark.parametrize("variant", ["variant1", "variant2"])
    def test_every_row_agrees_with_a_direct_run(self, tmp_path, variant, m, tau):
        # unsorted and repeated values, and rows that vaccinate nobody (k, l
        # or m 0) or whose infections never rise (eps 0.05 and r 0.5 put
        # beta_e*s0 below 1)
        sweeps = {
            "k": "0.2,0,0.05,0.2", "l": "0.6,0,1,0.3", "m": "0.4,0,0.2,inf,0.1",
            "eps": "0.5,0.05,0.1,0.3,0.1", "r": "25,0.5,4,10,1.5", "a": "20,0,5",
            "b": "100,0", "c": "1000,0,500",
        }
        data = sirdvax.config_to_dict(load_config(variant))
        data["resources"]["m"] = m
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data), "utf-8")
        config = load_config(str(path))
        for param, values in sweeps.items():
            out = tmp_path / param
            rc = main(["sweep", "--config", str(path), "--param", param, "--values", values,
                       "--tau", tau, "--out", str(out)])
            assert rc == 0
            _, rows = read_csv(out / "sweep.csv")
            for row, value in zip(rows, values.split(","), strict=True):
                assert row[:2] == [param, "%.9g" % float(value)]
                expected = indicators(direct_run(config, param, float(value), float(tau)))
                assert_row_agrees(row[2:], expected, config.scenario.T)

    def test_rows_across_a_chunk_boundary_agree_with_direct_runs(self, tmp_path):
        # more distinct values than one stacked solve takes
        from sirdvax.solver import TAIL_CHUNK

        values = [0.3 * j / (TAIL_CHUNK + 2) for j in range(TAIL_CHUNK + 3)]
        out = tmp_path / "run"
        rc = main(["sweep", "--config", "variant2", "--param", "m", "--values",
                   ",".join(map(repr, values)), "--tau", "7.5", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == len(values)
        config = load_config("variant2")
        for j in (0, 1, TAIL_CHUNK - 1, TAIL_CHUNK, len(values) - 1):
            expected = indicators(direct_run(config, "m", values[j], 7.5))
            assert_row_agrees(rows[j][2:], expected, config.scenario.T)

    def test_empty_value_list_of_another_parameter_writes_header_only(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["sweep", "--config", "variant1", "--param", "eps", "--values", "",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "sweep.csv")
        assert ",".join(header) == SWEEP_HEADER
        assert rows == []

    def test_one_value_agrees_with_a_direct_run(self, tmp_path):
        # 3.29 ends just before the peak, which then lies in the tail's first step
        config = load_config("variant1")
        expected = indicators(
            integrate(
                config.scenario, VaccinationPolicy(*config.resources, tau=3.29), config.tolerances
            )
        )
        for values in ("3.29", "3.29,5"):
            out = tmp_path / values
            rc = main(["sweep", "--config", "variant1", "--param", "tau", "--values", values,
                       "--out", str(out)])
            assert rc == 0
            _, rows = read_csv(out / "sweep.csv")
            for token, want in zip(rows[0][2:], astuple(expected)):
                assert float(token) == pytest.approx(want, rel=1e-7)

    def test_unsorted_values_with_a_duplicate_keep_their_order(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["sweep", "--config", "variant1", "--param", "tau", "--values", "10,2,6,2",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "sweep.csv")
        assert [row[1] for row in rows] == ["10", "2", "6", "2"]
        assert rows[1] == rows[3]
        config = load_config("variant1")
        for row in rows:
            expected = objective(
                float(row[1]), config.scenario, config.resources, config.tolerances
            )
            assert float(row[-1]) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize(
        "param, values",
        [("tau", "7.5,nan"), ("tau", "7.5,20"), ("tau", "7.5,-1"), ("m", "0.2,nan"),
         ("eps", "0.3,1.5"), ("r", "10,inf"), ("k", "0.1,inf"), ("l", "0.3,1.5"),
         ("a", "5,-1"), ("m", "0.2,-inf"), ("c", "100,nan")],
    )
    def test_every_value_is_validated_before_integrating(
        self, tmp_path, monkeypatch, param, values
    ):
        import sirdvax.cli as cli_module
        import sirdvax.planner as planner_module

        def explode(*args, **kwargs):
            raise AssertionError("integrated before validating every value")

        monkeypatch.setattr(cli_module, "integrate", explode)
        monkeypatch.setattr(planner_module, "integrate", explode)
        out = tmp_path / "run"
        rc = main(["sweep", "--config", "variant1", "--param", param, "--values", values,
                   "--out", str(out)])
        assert rc == 1
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("param, section", [("r", "epidemic"), ("k", "resources"), ("c", "cost")])
    def test_an_infinite_value_is_refused_as_the_number_typed(self, tmp_path, capsys, param, section):
        # only the stock takes inf, as unlimited; another field names the number, not the file's "inf"
        rc = main(["sweep", "--config", "variant1", "--param", param, "--values", "1,inf",
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {section}.{param}: expected a finite number, got inf\n"

    def test_range_spec_beyond_the_limit_is_refused_before_it_is_built(self):
        assert len(parse_values(f"0:1:{MAX_SWEEP_VALUES - 1}")) == MAX_SWEEP_VALUES
        with pytest.raises(ValidationError, match="1.5e\\+13 values"):
            parse_values("0:1e-12:15")
        # a list of this length takes megabytes; the refusal allocates next to nothing
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"{MAX_SWEEP_VALUES + 1} values"):
                parse_values(f"0:1:{MAX_SWEEP_VALUES}")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize(
        "spec", ["0:nan:15", "nan:1:15", "0:1:inf", "0:inf:15", "-1e308:1e-300:1e308"]
    )
    def test_non_finite_range_spec_is_refused(self, spec):
        with pytest.raises(ValidationError):
            parse_values(spec)

    @pytest.mark.parametrize(
        "spec, reason",
        [
            ("1:2", "start:step:end"),
            ("a:1:2", "could not convert"),
            ("0:0:1", "step must be positive"),
            ("0:-1:1", "step must be positive"),
            ("2:1:1", "end 1.0 precedes start 2.0"),
            ("1,x", "could not convert"),
        ],
    )
    def test_malformed_value_spec_is_refused(self, spec, reason):
        with pytest.raises(ValidationError, match=f"^values: .*{reason}"):
            parse_values(spec)

    def test_range_spec(self):
        assert parse_values("0:5:15") == [0.0, 5.0, 10.0, 15.0]
        assert parse_values("1,2.5") == [1.0, 2.5]
        assert parse_values("") == []

    def test_range_ending_at_the_horizon_stops_at_it(self, tmp_path):
        # 29 steps of 15/29 add up to 15.000000000000002 without the cap
        spec = "0:0.5172413793103449:15"
        values = parse_values(spec)
        assert len(values) == 30 and values[-1] == 15.0
        assert values[:-1] == [idx * 0.5172413793103449 for idx in range(29)]
        assert parse_values("0:0.1:15") == [idx * 0.1 for idx in range(151)]
        out = tmp_path / "run"
        rc = main(["sweep", "--config", "variant1", "--param", "tau", "--values", spec,
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 30 and float(rows[-1][1]) == 15.0

    def test_sweeping_the_stock(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["sweep", "--config", "variant1", "--param", "m", "--values", "0.2,0.5",
             "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv(out / "sweep.csv")
        assert float(rows[0][6]) == pytest.approx(0.2, abs=1e-6)   # binding stock
        assert float(rows[1][6]) == pytest.approx(0.45820, abs=1e-4)

    def test_empty_value_list_writes_header_only(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["sweep", "--config", "variant1", "--param", "tau", "--values", "",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header[0] == "param"
        assert rows == []

    def test_unknown_parameter_exits_1_before_writing(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["sweep", "--config", "variant1", "--param", "zeta", "--values", "1",
                   "--out", str(out)])
        assert rc == 1
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("param, values", [("m", ""), ("m", "0.2"), ("tau", "2,6")])
    @pytest.mark.parametrize("tau", ["nan", "inf", "-1", "99"])
    def test_tau_outside_the_horizon_is_refused_before_writing(
        self, tmp_path, capsys, param, values, tau
    ):
        # whatever the parameter and however many values, even none
        out = tmp_path / "run"
        rc = main(["sweep", "--config", "variant1", "--param", param, "--values", values,
                   "--tau", tau, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: tau must lie in [0, 15.0], got {float(tau)}\n"
        assert not out.exists()


class TestUsageErrors:
    """argparse's own exit code 2 would read as a numerical failure."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "variant1", "--tau", "abc"],
            ["simulate", "--tau", "1"],
            ["simulate", "--config", "variant1"],
            ["simulate", "--config", "variant1", "--tau", "1", "--unknown"],
            ["bisect", "--config", "variant1"],
            [],
        ],
        ids=["bad-number", "no-config", "no-tau", "unknown-option", "unknown-command", "empty"],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        assert main(argv) == 1
        assert "usage: sirdvax" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=["main", "sweep"])
    def test_help_exits_0(self, capsys, argv):
        assert main(argv) == 0
        assert "usage: sirdvax" in capsys.readouterr().out


class TestOutputFiles:
    """The files each command writes and the keys of its summary."""

    @pytest.mark.parametrize("population", [None, 1_000_000], ids=["fractions", "population"])
    @pytest.mark.parametrize(
        "argv, json_name, csv_name, keys",
        [
            pytest.param(
                ["simulate", "--tau", "7.5"],
                "summary.json",
                "trajectory.csv",
                {"command", "config", "tau", "indicators", "events", "final_state", "files"},
                id="simulate",
            ),
            pytest.param(
                ["optimize"],
                "optimize.json",
                "optimal_trajectory.csv",
                {"command", "config", "tau_star", "cost_star", "evaluations", "indicators",
                 "events", "files"},
                id="optimize",
            ),
            pytest.param(
                ["procure"],
                "procure.json",
                "procure_trajectory.csv",
                {"command", "config", "tau_double_star", "m_double_star", "cost",
                 "evaluations", "indicators", "files"},
                id="procure",
            ),
        ],
    )
    def test_files_and_summary_keys(self, tmp_path, population, argv, json_name, csv_name, keys):
        config = write_config(tmp_path, population=population)
        out = tmp_path / "run"
        rc = main([*argv, "--config", str(config), "--out", str(out), "--prefix", "p_"])
        assert rc == 0
        assert sorted(path.name for path in out.iterdir()) == sorted(
            ["p_" + json_name, "p_" + csv_name]
        )
        summary = json.loads((out / ("p_" + json_name)).read_text("utf-8"))
        assert set(summary) == keys | ({"headcount"} if population else set())
        assert summary["command"] == argv[0]
        assert summary["files"] == {"trajectory": "p_" + csv_name}
        assert set(summary["indicators"]) == INDICATOR_KEYS
        if population:
            assert set(summary["headcount"]) == {"peak_I", "total_deaths", "total_vaccinated"}
            ind = summary["indicators"]
            assert summary["headcount"]["peak_I"] == population * ind["peak_i"]
        header, _ = read_csv(out / ("p_" + csv_name))
        extra = ["S", "I", "R", "D"] if population else []
        assert header == TRAJECTORY_HEADER.split(",") + extra

    @pytest.mark.parametrize("param, values", [("tau", "2,6"), ("m", "0.2,inf")])
    def test_sweep_file_and_header(self, tmp_path, param, values):
        out = tmp_path / "run"
        rc = main(["sweep", "--config", "variant1", "--param", param, "--values", values,
                   "--out", str(out), "--prefix", "p_"])
        assert rc == 0
        assert [path.name for path in out.iterdir()] == ["p_sweep.csv"]
        header, rows = read_csv(out / "p_sweep.csv")
        assert ",".join(header) == SWEEP_HEADER
        assert [row[0] for row in rows] == [param, param]


class TestRoundTrip:
    def test_rewritten_config_reproduces_the_summary_bit_for_bit(self, tmp_path):
        config = load_config("variant1")
        rewritten = tmp_path / "rewritten.json"
        dump_config(config, rewritten)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", "variant1", "--tau", "15", "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(rewritten), "--tau", "15", "--out", str(out_b)]) == 0
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the child imports the same package as this process, installed or not
        package_root = str(Path(sirdvax.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, path]))}
        proc = subprocess.run(
            [sys.executable, "-m", "sirdvax.cli", "simulate", "--config", "variant2",
             "--tau", "3", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "summary.json").exists()


def blas_kernel_skip_reason():
    """Why the BLAS kernel cannot be switched here, or None where NumPy's BLAS is a DYNAMIC_ARCH OpenBLAS."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "this NumPy does not report its BLAS build"
    if "openblas" not in blas.get("name", "") or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"NumPy's BLAS is not a DYNAMIC_ARCH OpenBLAS: {blas.get('name')}"
    return None


class TestBlasKernel:
    @pytest.mark.skipif(blas_kernel_skip_reason() is not None, reason=str(blas_kernel_skip_reason()))
    @pytest.mark.parametrize("config, tau", [("variant1", "7.5"), ("variant2", "15")])
    def test_simulate_does_not_depend_on_the_kernel(self, tmp_path, config, tau):
        # OPENBLAS_CORETYPE picks the kernel of a DYNAMIC_ARCH OpenBLAS for one
        # process; a lone run calls no BLAS, so its outputs are the same bytes
        package_root = str(Path(sirdvax.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        outputs = []
        for kernel in (None, "Nehalem"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, path]))}
            env.pop("OPENBLAS_CORETYPE", None)
            if kernel:
                env["OPENBLAS_CORETYPE"] = kernel
            out = tmp_path / (kernel or "default")
            proc = subprocess.run(
                [sys.executable, "-m", "sirdvax.cli", "simulate", "--config", config, "--tau", tau, "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert set(outputs[0]) == {"summary.json", "trajectory.csv"}
        assert outputs[0] == outputs[1]

