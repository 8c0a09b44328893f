"""Controllers, tariffs, COP, gains, weather ingestion, and scenario runs."""

import numpy as np
import pytest

from conftest import random_network

from crosszone.model import Signal, ThermalNetwork, TimeGrid
from crosszone.scenario import (
    CopCurve,
    GainSpec,
    SetpointPlan,
    Tariff,
    TariffPeriod,
    WeatherFormatError,
    WeatherSeries,
    clock_segments,
    cop,
    load_weather,
    run_baseline,
    run_experiment,
    synthesize_gains,
    synthetic_weather,
    thermal_price,
    tracking_power,
)

TOU_TARIFF = Tariff(
    (
        TariffPeriod(22.0, 6.0, 0.12),
        TariffPeriod(6.0, 14.0, 0.14),
        TariffPeriod(14.0, 19.0, 0.16),
        TariffPeriod(19.0, 22.0, 0.14),
    )
)
HEAT_PUMP_COP = CopCurve(-15.0, 1.8, 8.3, 3.3, 1.0)


def flat_weather(grid: TimeGrid, t0_c: float) -> WeatherSeries:
    return WeatherSeries(grid, Signal(np.full(grid.steps, t0_c)), Signal(np.zeros(grid.steps)))


class TestSetpointPlan:
    def test_sorts_and_validates(self):
        plan = SetpointPlan([21.0, 20.0, 22.0], (3, 1))
        assert plan.controlled == (1, 3)
        assert plan.uncontrolled == (2,)
        assert plan.m == 2

    @pytest.mark.parametrize("controlled", [(), (0,), (4,), (1, 1)])
    def test_rejects_bad_zone_lists(self, controlled):
        with pytest.raises(ValueError):
            SetpointPlan([21.0, 21.0, 21.0], controlled)


class TestTariff:
    def test_wrapping_coverage_accepted(self):
        hours = np.arange(24)
        prices = TOU_TARIFF.price_at(hours)
        assert prices[23] == 0.12 and prices[5] == 0.12
        assert prices[6] == 0.14 and prices[13] == 0.14
        assert prices[14] == 0.16 and prices[18] == 0.16
        assert prices[19] == 0.14 and prices[21] == 0.14

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="gap|cover"):
            Tariff((TariffPeriod(0.0, 12.0, 0.1),))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="cover|overlap"):
            Tariff((TariffPeriod(0.0, 13.0, 0.1), TariffPeriod(12.0, 24.0, 0.1)))

    def test_gap_inside_the_day_rejected(self):
        with pytest.raises(ValueError, match="gap or overlap at hour 6"):
            Tariff((TariffPeriod(0.0, 6.0, 0.1), TariffPeriod(8.0, 24.0, 0.1)))

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError, match=r"clock window \[6, 6\) is empty"):
            Tariff((TariffPeriod(6.0, 6.0, 0.1), TariffPeriod(0.0, 24.0, 0.1)))

    @pytest.mark.parametrize(
        "start, end, segments",
        [
            (6, 9, [(6, 9)]),
            (22, 6, [(22, 24), (0, 6)]),
            (18, 24, [(18, 24)]),
            (-2, 3, [(22, 24), (0, 3)]),
            (0, 24, [(0, 24)]),
            (6, 30, [(6, 24), (0, 6)]),
        ],
    )
    def test_clock_segments(self, start, end, segments):
        assert clock_segments(start, end) == segments

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Tariff((TariffPeriod(0.0, 24.0, 0.0),))


class TestCop:
    def test_anchor_points(self):
        assert cop(HEAT_PUMP_COP, 8.3) == pytest.approx(3.3, abs=1e-12)
        assert cop(HEAT_PUMP_COP, -15.0) == pytest.approx(1.8, abs=1e-12)

    def test_midpoint_interpolation(self):
        assert cop(HEAT_PUMP_COP, (8.3 - 15.0) / 2.0) == pytest.approx(2.55, abs=1e-12)

    def test_clamps(self):
        assert cop(HEAT_PUMP_COP, 30.0) == 3.3  # never above the warm anchor
        assert cop(HEAT_PUMP_COP, -60.0) == 1.0  # resistance-backup floor

    def test_validation(self):
        with pytest.raises(ValueError):
            CopCurve(8.3, 1.8, -15.0, 3.3)
        with pytest.raises(ValueError):
            CopCurve(-15.0, 3.3, 8.3, 1.8)


class TestThermalPrice:
    def test_peak_hour_warm_cop(self):
        grid = TimeGrid(dt_h=1.0, steps=24)
        outdoor = np.full(24, 8.3)
        price = thermal_price(TOU_TARIFF, HEAT_PUMP_COP, outdoor, grid)
        assert price.values[15] == pytest.approx(0.16 / 3.3, rel=1e-12)  # 3 PM

    def test_night_hour_cold_cop(self):
        grid = TimeGrid(dt_h=1.0, steps=24)
        outdoor = np.full(24, -15.0)
        price = thermal_price(TOU_TARIFF, HEAT_PUMP_COP, outdoor, grid)
        assert price.values[23] == pytest.approx(0.12 / 1.8, rel=1e-12)  # 11 PM

    def test_constant_inputs_give_constant_ratio(self):
        grid = TimeGrid(dt_h=0.5, steps=48)
        tariff = Tariff((TariffPeriod(0.0, 24.0, 0.10),))
        price = thermal_price(tariff, HEAT_PUMP_COP, np.full(48, 8.3), grid)
        assert np.allclose(price.values, 0.10 / 3.3, rtol=1e-12)

    def test_monotone_in_outdoor_temperature(self):
        grid = TimeGrid(dt_h=1.0, steps=24)
        cold = thermal_price(TOU_TARIFF, HEAT_PUMP_COP, np.full(24, -10.0), grid)
        warm = thermal_price(TOU_TARIFF, HEAT_PUMP_COP, np.full(24, 0.0), grid)
        assert np.all(warm.values <= cold.values)


class TestSynthesizeGains:
    def _weather(self, grid):
        return synthetic_weather(grid)

    def test_zero_inputs_give_zero_gains(self):
        grid = TimeGrid(0.25, 96)
        spec = GainSpec(0.25, 0.0, 0.0, 0.1, seed=3)
        w = synthesize_gains(spec, self._weather(grid), np.array([30.0]), np.array([25.0]))
        assert np.all(w == 0.0)

    def test_zone_one_magnitudes(self):
        # 30 m2 exterior wall at 25% glazing and 25 m2 floor at 10 W/m2:
        # mean internal gain 0.25 kW and mean solar 0.075 kW. The solar
        # peak follows the irradiance peak-to-mean ratio; a two-level GHI
        # lit for 77 of 480 steps has ratio 480/77, peaking near 0.47 kW.
        grid = TimeGrid(0.25, 480)
        ghi = np.zeros(480)
        ghi[:77] = 800.0
        weather = WeatherSeries(grid, self._weather(grid).outdoor, Signal(ghi))
        spec = GainSpec(0.25, 0.01, 0.01, 0.0, seed=3)
        w = synthesize_gains(spec, weather, np.array([30.0]), np.array([25.0]))
        solar = w[:, 0] - 0.25
        assert solar.mean() == pytest.approx(0.075, rel=1e-9)
        assert solar.max() == pytest.approx(0.01 * (480 / 77) * 7.5, rel=1e-9)
        assert solar.max() == pytest.approx(0.47, rel=0.01)

    def test_same_seed_reproduces_noise(self):
        grid = TimeGrid(0.25, 96)
        spec = GainSpec(0.25, 0.01, 0.01, 0.1, seed=11)
        weather = self._weather(grid)
        ext, floor = np.array([30.0, 90.0]), np.array([25.0, 75.0])
        w1 = synthesize_gains(spec, weather, ext, floor)
        w2 = synthesize_gains(spec, weather, ext, floor)
        assert np.array_equal(w1, w2)

    def test_different_seeds_same_mean(self):
        grid = TimeGrid(0.25, 960)
        weather = self._weather(grid)
        ext, floor = np.array([30.0]), np.array([25.0])
        means = []
        for seed in range(5):
            spec = GainSpec(0.0, 0.0, 0.01, 0.1, seed=seed)
            means.append(synthesize_gains(spec, weather, ext, floor).mean())
        sigma = 0.1 * 0.25 / np.sqrt(960)
        assert np.abs(np.asarray(means) - 0.25).max() < 3.5 * sigma

    def test_never_negative(self):
        grid = TimeGrid(0.25, 96)
        spec = GainSpec(0.25, 0.01, 0.001, 1.0, seed=2)
        w = synthesize_gains(spec, self._weather(grid), np.array([30.0]), np.array([25.0]))
        assert w.min() >= 0.0


class TestTrackingPower:
    def test_steady_state_formulas(self, two_zone_network):
        # Both zones at 20 degC, outdoors at 0, no gains.
        k = 4
        temps = np.full((k + 1, 2), 20.0)
        integrals = np.full((k, 2), 20.0 * 0.25)
        q = tracking_power(two_zone_network, temps, integrals, np.zeros((k, 2)), np.zeros(k), 0.25)
        assert np.allclose(q[:, 0], 0.045 * 20.0, atol=1e-12)  # 0.90 kW
        assert np.allclose(q[:, 1], 0.135 * 20.0, atol=1e-12)  # 2.70 kW

    def test_gains_offsetting_losses_zero_power(self, two_zone_network):
        k = 6
        t_set, t_out = 21.0, 3.0
        temps = np.full((k + 1, 2), t_set)
        integrals = np.full((k, 2), t_set * 0.25)
        gains = np.tile(two_zone_network.conductances_kw_per_c[1:, 0] * (t_set - t_out), (k, 1))
        q = tracking_power(two_zone_network, temps, integrals, gains, np.full(k, t_out), 0.25)
        assert np.abs(q).max() < 1e-12


class TestRunBaseline:
    def test_temps_pinned_at_setpoints(self, two_zone_network):
        grid = TimeGrid(0.25, 96)
        plan = SetpointPlan([21.0, 21.0], (1,))
        weather = synthetic_weather(grid)
        gains = np.full((96, 2), 0.2)
        base = run_baseline(two_zone_network, plan, weather, gains, grid)
        assert np.all(base.temps_c == 21.0)

    def test_gain_increase_lowers_power_pointwise(self, two_zone_network):
        grid = TimeGrid(0.25, 48)
        plan = SetpointPlan([21.0, 21.0], (1,))
        weather = flat_weather(grid, -5.0)
        gains = np.full((48, 2), 0.2)
        b1 = run_baseline(two_zone_network, plan, weather, gains, grid)
        b2 = run_baseline(two_zone_network, plan, weather, 2.0 * gains, grid)
        assert np.allclose(b1.powers_kw - b2.powers_kw, gains, atol=1e-12)

    def test_cold_day_zone_cost(self, two_zone_network):
        # Constant -10 degC day at 21 degC setpoints with w1 = 0.25 kW and
        # a flat 0.05 $/kWh thermal price: zone 1 costs
        # 0.05 * 24 * (0.045 * 31 - 0.25) = $1.374.
        grid = TimeGrid(0.25, 96)
        plan = SetpointPlan([21.0, 21.0], (1,))
        weather = flat_weather(grid, -10.0)
        gains = np.zeros((96, 2))
        gains[:, 0] = 0.25
        base = run_baseline(two_zone_network, plan, weather, gains, grid)
        cost = 0.05 * base.zone_power(1).sum() * grid.dt_h
        assert cost == pytest.approx(1.374, abs=1e-12)


class TestRunExperiment:
    def _setup(self, net, k=48):
        grid = TimeGrid(0.25, k)
        plan = SetpointPlan([21.0, 21.0], (1,))
        weather = flat_weather(grid, -8.0)
        rng = np.random.default_rng(4)
        gains = rng.uniform(0.0, 0.4, (k, 2))
        return grid, plan, weather, gains

    def test_baseline_powers_reproduce_baseline(self, two_zone_network):
        grid, plan, weather, gains = self._setup(two_zone_network)
        base = run_baseline(two_zone_network, plan, weather, gains, grid)
        exp = run_experiment(
            two_zone_network, plan, weather, gains, grid, base.powers_kw[:, [0]]
        )
        # Same arithmetic cannot be bit-identical across the two code
        # paths, but agreement is at rounding level.
        assert np.abs(exp.temps_c - base.temps_c).max() < 1e-12
        assert np.abs(exp.powers_kw - base.powers_kw).max() < 1e-11

    def test_cooling_controlled_zone_raises_neighbour_power(self, two_zone_network):
        grid, plan, weather, gains = self._setup(two_zone_network)
        base = run_baseline(two_zone_network, plan, weather, gains, grid)
        q_low = base.powers_kw[:, [0]] - 0.3
        exp = run_experiment(two_zone_network, plan, weather, gains, grid, q_low)
        assert np.all(exp.temps_c[1:, 0] < 21.0)
        assert np.all(exp.powers_kw[:, 1] > base.powers_kw[:, 1])

    def test_uncontrolled_zone_stays_at_setpoint(self, two_zone_network):
        grid, plan, weather, gains = self._setup(two_zone_network)
        base = run_baseline(two_zone_network, plan, weather, gains, grid)
        exp = run_experiment(two_zone_network, plan, weather, gains, grid, base.powers_kw[:, [0]] - 0.2)
        assert np.all(exp.temps_c[:, 1] == 21.0)

    def test_decoupled_zones_do_not_interact(self):
        net = ThermalNetwork(
            [0.27, 0.81],
            [[0.0, 0.045, 0.135], [0.045, 0.0, 0.0], [0.135, 0.0, 0.0]],
        )
        grid, plan, weather, gains = self._setup(net)
        base = run_baseline(net, plan, weather, gains, grid)
        exp = run_experiment(net, plan, weather, gains, grid, base.powers_kw[:, [0]] - 0.5)
        assert np.array_equal(exp.powers_kw[:, 1], base.powers_kw[:, 1])

    def test_tracked_neighbour_power_matches_fine_oracle(self, two_zone_network):
        # Zone 2's reported per-step powers must integrate the continuous
        # alpha20 (T2 - T0) + alpha12 (T2 - T1(t)) - w2 exactly; check
        # against substep quadrature of an independently propagated T1.
        from scipy.linalg import expm

        grid, plan, weather, gains = self._setup(two_zone_network, k=16)
        base = run_baseline(two_zone_network, plan, weather, gains, grid)
        rng = np.random.default_rng(8)
        q1 = base.powers_kw[:, [0]] + rng.uniform(-0.4, 0.4, (16, 1))
        exp = run_experiment(two_zone_network, plan, weather, gains, grid, q1)

        c1, a10, a12, a20 = 0.27, 0.045, 0.090, 0.135
        rate = (a10 + a12) / c1
        per_step, dt = 4000, grid.dt_h
        h = dt / per_step
        lam_h = float(expm(np.array([[-rate * h]]))[0, 0])
        t1 = 21.0
        for step in range(16):
            drive = (q1[step, 0] + gains[step, 0] + a10 * weather.outdoor.values[step] + a12 * 21.0) / (a10 + a12)
            q2_int = 0.0
            for _ in range(per_step):
                t1_next = lam_h * t1 + (1.0 - lam_h) * drive
                t1_mid = 0.5 * (t1 + t1_next)
                q2_int += (a20 * (21.0 - weather.outdoor.values[step]) + a12 * (21.0 - t1_mid) - gains[step, 1]) * h
                t1 = t1_next
            assert exp.powers_kw[step, 1] * dt == pytest.approx(q2_int, rel=1e-6)


class TestRunInputsMustFitTheRun:
    """Weather, gains and powers off the run's grid or shape are refused, never resampled or reshaped."""

    @pytest.mark.parametrize(
        "experiment, wrong, message",
        [
            (False, "weather", "weather is on"),
            (True, "weather", "weather is on"),
            (False, "gains", "gains shape"),
            (True, "gains", "gains shape"),
            (True, "powers", "powers shape"),
        ],
    )
    def test_mismatched_input_raises(self, two_zone_network, experiment, wrong, message):
        k = 48
        grid = TimeGrid(0.25, k)
        plan = SetpointPlan([21.0, 21.0], (1, 2))
        weather = synthetic_weather(TimeGrid(0.5, k) if wrong == "weather" else grid)
        gains = np.full((2, k) if wrong == "gains" else (k, 2), 0.2)
        q = np.full((2, k) if wrong == "powers" else (k, 2), 0.5)
        args = (two_zone_network, plan, weather, gains, grid)
        with pytest.raises(ValueError, match=message):
            run_experiment(*args, q) if experiment else run_baseline(*args)


class TestEnergyBalance:
    def test_baseline_and_experiment_balance(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            n = int(rng.integers(2, 6))
            net = random_network(rng, n)
            k = 24
            grid = TimeGrid(0.25, k)
            plan = SetpointPlan(rng.uniform(18, 23, n), tuple(range(1, max(2, n // 2 + 1))))
            weather = WeatherSeries(grid, Signal(rng.uniform(-15, 5, k)), Signal(np.zeros(k)))
            gains = rng.uniform(0, 0.5, (k, n))
            base = run_baseline(net, plan, weather, gains, grid)
            q_ctrl = base.powers_kw[:, np.asarray(plan.controlled) - 1]
            exp = run_experiment(net, plan, weather, gains, grid, q_ctrl + rng.uniform(-0.2, 0.2, q_ctrl.shape))
            for traj in (base, exp):
                supplied = (traj.powers_kw + traj.gains_kw).sum() * grid.dt_h
                lost = float(
                    (net.conductances_kw_per_c[1:, 0] * (traj.temp_integrals_c_h - np.outer(traj.outdoor_c * grid.dt_h, np.ones(n)))).sum()
                )
                stored = float((net.capacitances_kwh_per_c * (traj.temps_c[-1] - traj.temps_c[0])).sum())
                assert supplied - lost == pytest.approx(stored, abs=1e-8)


class TestWeatherIngestion:
    HEADER = "timestamp,outdoor_temp_c,ghi_w_per_m2\n"

    def _write(self, tmp_path, rows):
        path = tmp_path / "weather.csv"
        path.write_text(self.HEADER + "".join(rows), encoding="utf-8")
        return str(path)

    def test_quarter_hour_file_five_days(self, tmp_path):
        import datetime as dt

        start = dt.datetime(2022, 12, 21)
        rows = [
            f"{(start + dt.timedelta(minutes=15 * i)).isoformat()},-{10 + i % 5},{max(0, 100 - i)}\n"
            for i in range(480)
        ]
        grid = TimeGrid(0.25, 480)
        weather = load_weather(self._write(tmp_path, rows), grid)
        assert len(weather.outdoor) == 480
        assert weather.outdoor.values[0] == -10.0

    def test_hourly_source_repeats_four_times(self, tmp_path):
        import datetime as dt

        start = dt.datetime(2022, 12, 21)
        rows = [
            f"{(start + dt.timedelta(hours=i)).isoformat()},{-float(i)},{10.0 * i}\n" for i in range(24)
        ]
        grid = TimeGrid(0.25, 96)
        weather = load_weather(self._write(tmp_path, rows), grid)
        assert np.array_equal(weather.outdoor.values[:8], [0, 0, 0, 0, -1, -1, -1, -1])

    def test_missing_cell_names_line(self, tmp_path):
        rows = ["2022-12-21T00:00:00,-10,50\n", "2022-12-21T00:15:00,-10\n"]
        with pytest.raises(WeatherFormatError, match="line 3"):
            load_weather(self._write(tmp_path, rows), TimeGrid(0.25, 2))

    def test_non_monotonic_rejected(self, tmp_path):
        rows = ["2022-12-21T01:00:00,-10,50\n", "2022-12-21T00:00:00,-10,50\n"]
        with pytest.raises(WeatherFormatError, match="increasing"):
            load_weather(self._write(tmp_path, rows), TimeGrid(0.25, 2))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "weather.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(WeatherFormatError, match="empty"):
            load_weather(str(path), TimeGrid(0.25, 2))

    def test_insufficient_coverage_rejected(self, tmp_path):
        rows = ["2022-12-21T00:00:00,-10,50\n", "2022-12-21T01:00:00,-11,60\n"]
        with pytest.raises(WeatherFormatError, match="covers"):
            load_weather(self._write(tmp_path, rows), TimeGrid(1.0, 24))


class TestSyntheticWeather:
    def test_respects_floor_and_reaches_it(self):
        grid = TimeGrid(0.25, 480)
        weather = synthetic_weather(grid)
        assert weather.outdoor.values.min() == -23.0

    def test_night_has_no_sun(self):
        grid = TimeGrid(1.0, 24)
        weather = synthetic_weather(grid)
        hod = grid.step_hours_of_day()
        assert np.all(weather.ghi.values[(hod < 8) | (hod >= 17)] == 0.0)
        assert weather.ghi.values.max() > 0.0

    def test_deterministic(self):
        grid = TimeGrid(0.25, 96)
        w1, w2 = synthetic_weather(grid), synthetic_weather(grid)
        assert np.array_equal(w1.outdoor.values, w2.outdoor.values)
        assert np.array_equal(w1.ghi.values, w2.ghi.values)
