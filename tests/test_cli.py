"""CLI behavior: files, exit codes, round trips, determinism."""

import json

import numpy as np
import pytest

from crosszone.cli import main, read_trajectory_csv, write_trajectory_csv
from crosszone.estimator import BoundaryMismatchWarning
from crosszone.lp import LpSolution
from crosszone.model import TimeGrid, Trajectory


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {"grid": {"dt_h": 0.25, "steps": 96}}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(*args) -> int:
    return main([str(a) for a in args])


class TestSimulate:
    def test_writes_baseline_with_constant_setpoints(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg, "--out-dir", out) == 0
        path = out / "baseline.csv"
        assert path.exists()
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 96 + 1  # header, steps, final samples
        data = read_trajectory_csv(str(path))
        assert np.all(data["temps"] == 21.0)
        assert "baseline total cost" in capsys.readouterr().out

    def test_missing_weather_file_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, weather={"csv": "nowhere.csv"})
        assert run_cli("simulate", "--config", cfg, "--out-dir", tmp_path) == 2
        assert "nowhere.csv" in capsys.readouterr().err

    def test_weather_csv_flows_into_outputs(self, tmp_path):
        import datetime as dt

        start = dt.datetime(2022, 12, 21)
        rows = ["timestamp,outdoor_temp_c,ghi_w_per_m2"]
        temps = []
        for i in range(24):
            t = -5.0 - (i % 7)
            temps.append(t)
            rows.append(f"{(start + dt.timedelta(hours=i)).isoformat()},{t},{50.0 * (i % 3)}")
        (tmp_path / "weather.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = write_config(
            tmp_path, grid={"dt_h": 0.25, "steps": 96}, weather={"csv": "weather.csv"}
        )
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg, "--out-dir", out) == 0
        data = read_trajectory_csv(str(out / "baseline.csv"))
        assert np.array_equal(data["outdoor"], np.repeat(temps, 4))

    @pytest.mark.parametrize("start_hour, code", [(0.0, 2), (6.0, 0)])
    def test_weather_clock_hour_must_match_start_hour(self, tmp_path, capsys, start_hour, code):
        rows = ["timestamp,outdoor_temp_c,ghi_w_per_m2"]
        rows += [f"2022-12-21T{h:02d}:00:00,-5,0" for h in range(6, 24)]
        rows += [f"2022-12-22T{h:02d}:00:00,-5,0" for h in range(6)]
        (tmp_path / "weather.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = write_config(
            tmp_path, grid={"dt_h": 0.25, "steps": 96, "start_hour": start_hour}, weather={"csv": "weather.csv"}
        )
        assert run_cli("simulate", "--config", cfg, "--out-dir", tmp_path / "out") == code
        if code:
            assert "grid.start_hour" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "optimize", "reproduce-example"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    def test_non_finite_weather_value_exits_two(self, tmp_path, capsys, command, value):
        rows = ["timestamp,outdoor_temp_c,ghi_w_per_m2"]
        rows += [f"2022-12-21T{h:02d}:00:00,-5,0" for h in range(24)]
        rows[6] = f"2022-12-21T05:00:00,{value},0"
        (tmp_path / "weather.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, weather={"csv": "weather.csv"})
        assert run_cli(command, "--config", cfg, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == f"config error: {tmp_path / 'weather.csv'}: line 7: non-finite value\n"

    def test_weather_mixing_utc_offsets_exits_two(self, tmp_path, capsys):
        rows = ["timestamp,outdoor_temp_c,ghi_w_per_m2"]
        rows += [f"2022-12-21T{h:02d}:00:00,-5,0" for h in range(24)]
        rows[3] = "2022-12-21T02:00:00+00:00,-5,0"
        (tmp_path / "weather.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, weather={"csv": "weather.csv"})
        assert run_cli("simulate", "--config", cfg, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {tmp_path / 'weather.csv'}: line 4: ")
        assert "offset" in err

    def test_invalid_network_exits_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            network={
                "capacitances_kwh_per_c": [0.27, 0.81],
                "conductances_w_per_c": [[0, 45, 135], [45, 0, 90], [135, 50, 0]],
            },
        )
        assert run_cli("simulate", "--config", cfg, "--out-dir", tmp_path) == 2
        assert "network" in capsys.readouterr().err

    def test_bad_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json", encoding="utf-8")
        assert run_cli("simulate", "--config", path, "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_non_boolean_constant_price_exits_two(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, constant_price=value)
        assert run_cli("simulate", "--config", cfg, "--out-dir", tmp_path) == 2
        assert "constant_price" in capsys.readouterr().err

    def test_unknown_synthetic_weather_key_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, weather={"synthetic": {"typo_mean": -10}})
        assert run_cli("simulate", "--config", cfg, "--out-dir", tmp_path) == 2
        assert "weather.synthetic" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "overrides, unknown",
        [
            ({"grd": {"steps": 10}}, "grd"),
            ({"comfort": {"tight_band": 0.5}}, "comfort.tight_band"),
            ({"weather": {"csv": "weather.csv"}}, None),
            ({"tariff": [{"start_hour": 0, "end_hour": 24, "price_usd_per_kwh": 0.1, "pricee": 0.2}]}, "tariff[0].pricee"),
        ],
    )
    def test_unknown_config_field_exits_two(self, tmp_path, capsys, overrides, unknown):
        rows = [f"2022-12-21T{h:02d}:00:00,-5,0\n" for h in range(24)]
        (tmp_path / "weather.csv").write_text("timestamp,outdoor_temp_c,ghi_w_per_m2\n" + "".join(rows), encoding="utf-8")
        cfg = write_config(tmp_path, **overrides)
        code = run_cli("simulate", "--config", cfg, "--out-dir", tmp_path / "out")
        if unknown is None:
            assert code == 0
        else:
            assert code == 2
            assert f"config error: {unknown}: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "optimize", "reproduce-example"])
    def test_empty_comfort_window_exits_two(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, comfort={"tight_hours": [[6, 9], [6, 6]]})
        assert run_cli(command, "--config", cfg, "--out-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err == "config error: comfort.tight_hours: clock window [6, 6) is empty\n"

    def test_svg_inputs_match_reproduce_example(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli("simulate", "--config", cfg, "--out-dir", tmp_path / "sim", "--seed", 3, "--svg") == 0
        assert run_cli("reproduce-example", "--config", cfg, "--out-dir", tmp_path / "rep", "--seed", 3, "--svg") == 0
        assert (tmp_path / "sim" / "inputs.svg").read_bytes() == (tmp_path / "rep" / "inputs.svg").read_bytes()


class TestOptimize:
    def test_zero_band_reproduces_baseline_temperatures(self, tmp_path):
        cfg = write_config(tmp_path, comfort={"tight_band_c": 0.0, "wide_band_c": 0.0})
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg, "--out-dir", out) == 0
        assert run_cli("optimize", "--config", cfg, "--out-dir", out) == 0
        base = read_trajectory_csv(str(out / "baseline.csv"))
        exp = read_trajectory_csv(str(out / "experiment.csv"))
        assert np.abs(base["temps"] - exp["temps"]).max() < 1e-9

    def test_printed_objective_matches_file_recompute(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("optimize", "--config", cfg, "--out-dir", out) == 0
        printed = None
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("optimal controlled-zone cost"):
                printed = float(line.split("$")[1])
        data = read_trajectory_csv(str(out / "experiment.csv"))
        recomputed = float(data["price"] @ data["powers"][:, 0]) * data["dt_h"]
        assert printed == pytest.approx(recomputed, abs=1e-6)

    def test_infeasible_power_limit_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, power_limits={"min_kw": 0.0, "max_kw": 0.0})
        assert run_cli("optimize", "--config", cfg, "--out-dir", tmp_path) == 3
        err = capsys.readouterr().err
        assert "infeasible" in err

    def test_solver_status_named_on_exit_three(self, tmp_path, capsys, monkeypatch):
        stopped = LpSolution("iteration-limit", None, None, None, None, 7)
        monkeypatch.setattr("crosszone.lp.solve_lp", lambda prob: stopped)
        cfg = write_config(tmp_path)
        assert run_cli("optimize", "--config", cfg, "--out-dir", tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("optimization iteration-limit: ")
        assert not err.splitlines()[0].rstrip().endswith(":")


class TestEstimate:
    def _produce(self, tmp_path, **overrides):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg, "--out-dir", out) == 0
        assert run_cli("optimize", "--config", cfg, "--out-dir", out) == 0
        return cfg, out

    def test_identical_files_give_zero_report(self, tmp_path):
        cfg, out = self._produce(tmp_path)
        code = run_cli(
            "estimate", "--config", cfg, "--out-dir", out,
            "--baseline", out / "baseline.csv", "--experiment", out / "baseline.csv",
        )
        assert code == 0
        report = json.loads((out / "savings_report.json").read_text())
        assert report["naive_controlled_usd"] == 0.0
        assert report["oracle_true_usd"] == 0.0
        # Temperature-integral fields are recomputed from 12-digit CSV
        # values, so "zero" means rounding-level here.
        assert abs(report["overestimation_error_usd"]) < 1e-12
        assert abs(report["corrected_form_a_usd"]) < 1e-12
        assert abs(report["corrected_form_b_usd"]) < 1e-12
        assert report["relative_error"] is None
        assert all(z["savings_usd"] == 0.0 for z in report["per_zone"])

    def test_report_identity_and_keys(self, tmp_path):
        cfg, out = self._produce(tmp_path)
        assert run_cli("estimate", "--config", cfg, "--out-dir", out) == 0
        report = json.loads((out / "savings_report.json").read_text())
        assert set(report) == {
            "naive_controlled_usd",
            "overestimation_error_usd",
            "corrected_form_a_usd",
            "corrected_form_b_usd",
            "oracle_true_usd",
            "relative_error",
            "per_zone",
        }
        naive = report["naive_controlled_usd"]
        assert naive - report["overestimation_error_usd"] == pytest.approx(
            report["oracle_true_usd"], abs=1e-6
        )
        assert report["corrected_form_a_usd"] == pytest.approx(report["oracle_true_usd"], abs=1e-6)
        assert [z["zone"] for z in report["per_zone"]] == [1, 2]

    def test_round_trip_matches_in_memory_pipeline(self, tmp_path):
        # CSV serialization at 12 significant digits must not disturb the
        # report beyond 1e-9 relative.
        import dataclasses

        from crosszone.cli import _prepare_inputs
        from crosszone.config import default_config
        from crosszone.estimator import savings_report
        from crosszone.lp import optimize_controlled_zones
        from crosszone.model import CostModel, TimeGrid
        from crosszone.scenario import run_baseline, run_experiment

        cfg_path, out = self._produce(tmp_path)
        assert run_cli("estimate", "--config", cfg_path, "--out-dir", out) == 0
        report = json.loads((out / "savings_report.json").read_text())

        cfg = dataclasses.replace(default_config(), grid=TimeGrid(0.25, 96))
        weather, gains, price = _prepare_inputs(cfg)
        base = run_baseline(cfg.network, cfg.plan, weather, gains, cfg.grid)
        opt = optimize_controlled_zones(
            cfg.network, cfg.plan, cfg.grid, price, cfg.comfort(), gains, weather.outdoor
        )
        exp = run_experiment(cfg.network, cfg.plan, weather, gains, cfg.grid, opt.q_kw)
        memory = savings_report(base, exp, cfg.network, CostModel.uniform(price, 2), cfg.plan)
        for key, value in (
            ("naive_controlled_usd", memory.naive_controlled_usd),
            ("overestimation_error_usd", memory.overestimation_error_usd),
            ("corrected_form_a_usd", memory.corrected_form_a_usd),
            ("corrected_form_b_usd", memory.corrected_form_b_usd),
            ("oracle_true_usd", memory.oracle_true_usd),
        ):
            assert report[key] == pytest.approx(value, rel=1e-9, abs=1e-9)

    def test_grid_mismatch_exits_four(self, tmp_path, capsys):
        cfg, out = self._produce(tmp_path)
        other_cfg = write_config(tmp_path, name="short.json", grid={"dt_h": 0.25, "steps": 48})
        out2 = tmp_path / "out2"
        assert run_cli("simulate", "--config", other_cfg, "--out-dir", out2) == 0
        code = run_cli(
            "estimate", "--config", cfg, "--out-dir", out,
            "--baseline", out / "baseline.csv", "--experiment", out2 / "baseline.csv",
        )
        assert code == 4
        assert "grids differ" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid", [{"dt_h": 0.5, "steps": 48}, {"dt_h": 0.25, "steps": 48}, {"dt_h": 0.5, "steps": 96}]
    )
    def test_files_off_the_config_grid_exit_four(self, tmp_path, capsys, grid):
        _, out = self._produce(tmp_path)
        other = write_config(tmp_path, name="other.json", grid=grid)
        assert run_cli("estimate", "--config", other, "--out-dir", out) == 4
        err = capsys.readouterr().err
        assert err.startswith("data mismatch: grids differ:")
        assert f"{out / 'baseline.csv'} has 96 steps of 0.25 h" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = run_cli("estimate", "--config", cfg, "--out-dir", tmp_path)
        assert code == 2

    def test_controlled_set_differing_from_files_exits_zero(self, tmp_path):
        # Zone 1 moved in the files; the config names zone 2. The report is
        # still the truth: only the split into naive savings and error moves.
        _, out = self._produce(tmp_path)
        other = write_config(tmp_path, name="zone2.json", zones={"setpoints_c": [21, 21], "controlled": [2]})
        assert run_cli("estimate", "--config", other, "--out-dir", out) == 0
        report = json.loads((out / "savings_report.json").read_text())
        true = report["oracle_true_usd"]
        assert report["naive_controlled_usd"] - report["overestimation_error_usd"] == pytest.approx(true, rel=1e-8)
        assert report["corrected_form_a_usd"] == pytest.approx(true, rel=1e-8)

    def test_floating_neighbour_against_oracle(self, tmp_path):
        # A neighbour that nobody controls floats on its baseline power next
        # to a controlled zone, and the config lists only the smaller set.
        from conftest import random_network

        from crosszone.model import Signal, ThermalNetwork, TimeGrid
        from crosszone.scenario import SetpointPlan, WeatherSeries, run_baseline, run_experiment

        rng = np.random.default_rng(47)
        for trial in range(12):
            n = int(rng.integers(4, 7))
            net = random_network(rng, n)
            zones = [int(z) for z in rng.permutation(np.arange(1, n + 1))]
            m = int(rng.integers(1, n - 1))
            controlled, floating = tuple(sorted(zones[:m])), zones[m]
            alpha = net.conductances_kw_per_c.copy()
            alpha[controlled[0], floating] = alpha[floating, controlled[0]] = 0.03
            net = ThermalNetwork(net.capacitances_kwh_per_c, alpha)
            k = int(rng.integers(16, 49))
            grid = TimeGrid(0.25, k)
            setpoints = rng.uniform(19.0, 22.0, n)
            plan = SetpointPlan(setpoints, controlled)
            moved = SetpointPlan(setpoints, tuple(sorted(controlled + (floating,))))
            weather = WeatherSeries(grid, Signal(rng.uniform(-15.0, 5.0, k)), Signal(np.zeros(k)))
            gains = rng.uniform(0.0, 0.5, (k, n))
            base = run_baseline(net, plan, weather, gains, grid)
            q = base.powers_kw[:, np.asarray(moved.controlled) - 1].copy()
            for col, zone in enumerate(moved.controlled):
                if zone != floating:
                    q[:, col] += rng.uniform(-0.3, 0.1, k)
            exp = run_experiment(net, moved, weather, gains, grid, q)
            price = rng.uniform(0.02, 0.12, k)
            d = tmp_path / f"case{trial}"
            d.mkdir()
            write_trajectory_csv(str(d / "baseline.csv"), base, price)
            write_trajectory_csv(str(d / "experiment.csv"), exp, price)
            cfg = write_config(
                d,
                network={
                    "capacitances_kwh_per_c": net.capacitances_kwh_per_c.tolist(),
                    "conductances_w_per_c": (alpha * 1000.0).tolist(),
                },
                zones={"setpoints_c": setpoints.tolist(), "controlled": list(controlled)},
                grid={"dt_h": 0.25, "steps": k},
                areas={"exterior_wall_m2": [10.0] * n, "floor_m2": [10.0] * n},
            )
            with pytest.warns(BoundaryMismatchWarning, match=f"zone {floating} does not start and end"):
                assert run_cli("estimate", "--config", cfg, "--out-dir", d) == 0
            report = json.loads((d / "savings_report.json").read_text())
            files = [read_trajectory_csv(str(d / name)) for name in ("baseline.csv", "experiment.csv")]
            oracle = float(price @ (files[0]["powers"] - files[1]["powers"]).sum(axis=1)) * 0.25
            naive = report["naive_controlled_usd"]
            scale = max(abs(naive), abs(oracle), 1e-3)
            assert abs(report["corrected_form_a_usd"] - oracle) / scale < 1e-8
            assert abs(naive - report["overestimation_error_usd"] - oracle) / scale < 1e-8

    @pytest.mark.parametrize(
        "overrides, column",
        [
            ({"gains": {"seed": 2}}, "w_1_kw"),
            ({"weather": {"synthetic": {"mean_c": -8.0}}}, "t0_c"),
        ],
    )
    def test_input_columns_differing_between_files_exit_four(self, tmp_path, capsys, overrides, column):
        cfg, out = self._produce(tmp_path)
        other = write_config(tmp_path, name="other.json", **overrides)
        assert run_cli("optimize", "--config", other, "--out-dir", out) == 0
        capsys.readouterr()
        assert run_cli("estimate", "--config", cfg, "--out-dir", out) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"data mismatch: column {column} differs between {out / 'baseline.csv'}")

    @pytest.mark.parametrize(
        "final_row, cell, message",
        [
            ("96,24,21", None, "row 98: expected 10 fields, got 3"),
            ("96,24,21,21,5,,,,,", None, "row 98: the final row carries only"),
            (None, "nan", "row 5: non-finite value"),
            (None, "inf", "row 5: non-finite value"),
            (None, "x", "row 5: could not convert string to float: 'x'"),
        ],
    )
    def test_malformed_rows_exit_four(self, tmp_path, capsys, final_row, cell, message):
        cfg, out = self._produce(tmp_path)
        path = out / "experiment.csv"
        lines = path.read_text().splitlines()
        if final_row is not None:
            lines[-1] = final_row
        else:
            fields = lines[4].split(",")
            fields[2] = cell
            lines[4] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("estimate", "--config", cfg, "--out-dir", out) == 4
        err = capsys.readouterr().err
        assert str(path) in err and message in err

    def test_rows_are_named_by_line_number_past_blank_lines(self, tmp_path, capsys):
        cfg, out = self._produce(tmp_path)
        path = out / "experiment.csv"
        lines = path.read_text().splitlines()
        fields = lines[4].split(",")
        fields[2] = "x"
        lines[4] = ",".join(fields)
        lines[2:2] = [""]  # now the bad cell is on line 6
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("estimate", "--config", cfg, "--out-dir", out) == 4
        assert f"{path}: row 6: could not convert string to float: 'x'" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, tmp_path):
        cfg, out = self._produce(tmp_path)
        path = out / "experiment.csv"
        before = read_trajectory_csv(str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + ["", ""] + lines[3:] + [""]) + "\n")
        after = read_trajectory_csv(str(path))
        for key in ("temps", "powers", "gains", "outdoor", "price"):
            assert np.array_equal(before[key], after[key]), key
        assert run_cli("estimate", "--config", cfg, "--out-dir", out) == 0

    @pytest.mark.parametrize("step, message", [("77", "step 77 where 3 was expected"), ("3.5", "step 3.5 where")])
    def test_step_column_must_count_rows_exit_four(self, tmp_path, capsys, step, message):
        cfg, out = self._produce(tmp_path)
        path = out / "baseline.csv"
        lines = path.read_text().splitlines()
        lines[4] = step + lines[4][lines[4].index(",") :]
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("estimate", "--config", cfg, "--out-dir", out) == 4
        assert f"data mismatch: {path}: row 5: {message}" in capsys.readouterr().err

    def test_swapped_power_and_gain_columns_exit_four(self, tmp_path, capsys):
        cfg, out = self._produce(tmp_path)
        path = out / "experiment.csv"
        lines = []
        for line in path.read_text().splitlines():
            f = line.split(",")  # two zones: q at columns 4-5, w at 6-7
            lines.append(",".join(f[:4] + f[6:8] + f[4:6] + f[8:]))
        assert lines[0].startswith("step,time_h,T_1_c,T_2_c,w_1_kw,w_2_kw,q_1_kw,q_2_kw,")
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("estimate", "--config", cfg, "--out-dir", out) == 4
        err = capsys.readouterr().err
        assert err.startswith("data mismatch:") and str(path) in err

    def test_reconstruct_matches_experiment_with_two_controlled_zones(self):
        import dataclasses

        from conftest import random_network

        from crosszone.cli import _reconstruct
        from crosszone.config import default_config
        from crosszone.model import Signal, TimeGrid
        from crosszone.scenario import SetpointPlan, WeatherSeries, run_experiment

        rng = np.random.default_rng(11)
        net = random_network(rng, 4)
        grid = TimeGrid(0.25, 48)
        plan = SetpointPlan([21.0, 19.5, 22.0, 20.5], (1, 3))
        cfg = dataclasses.replace(default_config(), network=net, plan=plan, grid=grid)
        weather = WeatherSeries(grid, Signal(rng.uniform(-10.0, 5.0, 48)), Signal(np.zeros(48)))
        gains = rng.uniform(0.0, 0.4, (48, 4))
        exp = run_experiment(net, plan, weather, gains, grid, rng.uniform(0.0, 1.5, (48, 2)))
        data = {
            "temps": exp.temps_c,
            "powers": exp.powers_kw,
            "gains": exp.gains_kw,
            "outdoor": exp.outdoor_c,
            "dt_h": grid.dt_h,
            "steps": grid.steps,
        }
        rebuilt = _reconstruct(cfg, data)
        assert np.array_equal(rebuilt.temp_integrals_c_h, exp.temp_integrals_c_h)


@pytest.mark.parametrize(
    "command, target, kind, code",
    [
        ("estimate", "--baseline", "dir", 2),
        ("estimate", "--experiment", "dir", 2),
        ("simulate", "--config", "dir", 2),
        ("simulate", "weather.csv", "dir", 2),
        ("simulate", "--config", "bytes", 2),
        ("estimate", "--baseline", "bytes", 4),
        ("simulate", "weather.csv", "bytes", 2),
        ("simulate", "--out-dir", "bytes", 2),
    ],
)
def test_unreadable_path_exits_naming_it(tmp_path, capsys, command, target, kind, code):
    # A directory where a file belongs, a file that is not UTF-8 text, or an
    # output directory that is a file.
    bad = tmp_path / "bad"
    if kind == "dir":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe\x00 not UTF-8\n")
    cfg = write_config(tmp_path, weather={"csv": "bad"}) if target == "weather.csv" else write_config(tmp_path)
    other = tmp_path / "other.csv"
    other.write_text("step\n", encoding="utf-8")
    args = {"--config": cfg, "--out-dir": tmp_path / "out"}
    if command == "estimate":
        args.update({"--baseline": other, "--experiment": other})
    if target.startswith("--"):
        args[target] = bad
    assert run_cli(command, *[x for pair in args.items() for x in pair]) == code
    assert str(bad) in capsys.readouterr().err


def test_trajectory_csv_bytes(tmp_path):
    traj = Trajectory(
        grid=TimeGrid(0.25, 2),
        temps_c=[[21.0, 20.5], [1.0 / 3.0, -0.0], [21.0, 1e-20]],
        powers_kw=[[0.1 + 0.2, 2.0], [123456789012.5, 0.0]],
        gains_kw=[[0.0, 0.25], [1.5, -2.0]],
        outdoor_c=[-5.0, -4.75],
        temp_integrals_c_h=np.zeros((2, 2)),
    )
    path = tmp_path / "traj.csv"
    write_trajectory_csv(str(path), traj, np.array([0.05, 2.0 / 3.0]))
    assert path.read_bytes() == (
        b"step,time_h,T_1_c,T_2_c,q_1_kw,q_2_kw,w_1_kw,w_2_kw,t0_c,price_usd_per_kwh_thermal\n"
        b"0,0,21,20.5,0.3,2,0,0.25,-5,0.05\n"
        b"1,0.25,0.333333333333,-0,123456789012,0,1.5,-2,-4.75,0.666666666667\n"
        b"2,0.5,21,1e-20,,,,,,\n"
    )


class TestReproduceExample:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert run_cli("reproduce-example", "--config", cfg, "--out-dir", out, "--svg") == 0
        for name in (
            "baseline.csv",
            "experiment.csv",
            "savings_report.json",
            "geometry_grid.csv",
            "inputs.svg",
            "results.svg",
            "geometry.svg",
        ):
            assert (out / name).exists(), name
        text = capsys.readouterr().out
        assert "relative error" in text
        assert "Baseline cost" in text

    def test_every_output_is_replaced_atomically(self, tmp_path, monkeypatch):
        import os

        replaced, replace = [], os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: (replaced.append(os.path.basename(dst)), replace(src, dst)))
        out = tmp_path / "run"
        assert run_cli("reproduce-example", "--config", write_config(tmp_path), "--out-dir", out, "--svg") == 0
        files = ["baseline.csv", "experiment.csv", "savings_report.json", "geometry_grid.csv"]
        assert sorted(replaced) == sorted(files + ["inputs.svg", "results.svg", "geometry.svg"])
        assert sorted(p.name for p in out.iterdir()) == sorted(replaced)

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("reproduce-example", "--config", cfg, "--out-dir", out1, "--seed", 7) == 0
        assert run_cli("reproduce-example", "--config", cfg, "--out-dir", out2, "--seed", 7) == 0
        for name in ("baseline.csv", "experiment.csv", "savings_report.json", "geometry_grid.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_different_seed_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("reproduce-example", "--config", cfg, "--out-dir", out1, "--seed", 7) == 0
        assert run_cli("reproduce-example", "--config", cfg, "--out-dir", out2, "--seed", 8) == 0
        assert (out1 / "baseline.csv").read_bytes() != (out2 / "baseline.csv").read_bytes()

    def test_constant_price_recovers_conductance_ratio(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert run_cli(
            "reproduce-example", "--config", cfg, "--out-dir", out, "--constant-price"
        ) == 0
        report = json.loads((out / "savings_report.json").read_text())
        assert report["relative_error"] == pytest.approx(2.0, abs=1e-6)

    def test_geometry_grid_levels(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert run_cli("reproduce-example", "--config", cfg, "--out-dir", out) == 0
        rows = (out / "geometry_grid.csv").read_text().splitlines()
        assert rows[0] == "exterior_walls,insulation_ratio,relative_error"
        table = {}
        for line in rows[1:]:
            walls, beta, err = line.split(",")
            table[(int(walls), float(beta))] = err
        assert float(table[(2, 2.0)]) == pytest.approx(2.0)
        assert float(table[(4, 2.0)]) == 0.0
        assert table[(0, 1.0)] == "inf"


class TestThreeZonePipeline:
    """Full CLI chain on a three-zone network with two controlled zones."""

    CONFIG = {
        "network": {
            "capacitances_kwh_per_c": [0.3, 0.6, 0.9],
            "conductances_w_per_c": [
                [0, 40, 60, 80],
                [40, 0, 35, 20],
                [60, 35, 0, 30],
                [80, 20, 30, 0],
            ],
        },
        "zones": {"setpoints_c": [21.0, 20.0, 22.0], "controlled": [1, 3]},
        "grid": {"dt_h": 0.25, "steps": 96},
        "areas": {"exterior_wall_m2": [20, 30, 40], "floor_m2": [20, 30, 40]},
    }

    def test_simulate_optimize_estimate(self, tmp_path):
        cfg = write_config(tmp_path, **self.CONFIG)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg, "--out-dir", out) == 0
        assert run_cli("optimize", "--config", cfg, "--out-dir", out) == 0
        assert run_cli("estimate", "--config", cfg, "--out-dir", out) == 0

        base = read_trajectory_csv(str(out / "baseline.csv"))
        exp = read_trajectory_csv(str(out / "experiment.csv"))
        assert np.all(base["temps"] == [21.0, 20.0, 22.0])
        assert np.all(exp["temps"][:, 1] == 20.0)  # uncontrolled zone pinned
        assert np.any(exp["temps"][:, 0] != 21.0)

        report = json.loads((out / "savings_report.json").read_text())
        assert [z["zone"] for z in report["per_zone"]] == [1, 2, 3]
        assert report["naive_controlled_usd"] - report["overestimation_error_usd"] == pytest.approx(
            report["oracle_true_usd"], abs=1e-6
        )
        assert report["corrected_form_a_usd"] == pytest.approx(report["oracle_true_usd"], abs=1e-6)
        assert report["corrected_form_b_usd"] == pytest.approx(report["oracle_true_usd"], abs=1e-6)


class TestGeometryCommand:
    def test_square_cases(self, capsys):
        assert run_cli("geometry", "--square", 2, 2.0) == 0
        assert "2" in capsys.readouterr().out
        assert run_cli("geometry", "--square", 4, 2.0) == 0
        assert "0" in capsys.readouterr().out
        assert run_cli("geometry", "--square", 0, 2.0) == 0
        assert "infinite (interior zone" in capsys.readouterr().out

    def test_explicit_coefficients(self, capsys):
        assert run_cli(
            "geometry", "--u-int", 0.003, "--u-ext", 0.0015, "--a-int", 30, "--a-ext", 30
        ) == 0
        assert "2" in capsys.readouterr().out

    def test_bad_wall_count_exits_two(self, capsys):
        assert run_cli("geometry", "--square", 5, 1.0) == 2
        assert "0..4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ("--square", 2.7, 1),
            ("--square", "1e400", 1),
            ("--square", 2, "nan"),
            ("--square", 2, "inf"),
            ("--u-int", "nan", "--u-ext", 1, "--a-int", 1, "--a-ext", 1),
            ("--u-int", 1, "--u-ext", 1, "--a-int", "inf", "--a-ext", 1),
        ],
    )
    def test_non_integer_wall_count_or_non_finite_value_exits_two(self, capsys, args):
        assert run_cli("geometry", *args) == 2
        assert "config error: geometry" in capsys.readouterr().err

    def test_missing_arguments_exit_two(self, capsys):
        assert run_cli("geometry", "--u-int", 0.003) == 2
