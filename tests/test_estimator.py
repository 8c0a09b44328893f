"""Savings accounting: estimates, identities, and closed forms."""

import json
import math
import re

import numpy as np
import pytest

from conftest import perturbed_pair, piecewise_constant_price, random_cost, random_network

from crosszone.cli import main
from crosszone.estimator import (
    BoundaryMismatchWarning,
    GeometryCase,
    conductance_ratios,
    geometry_relative_error,
    savings_report,
)
from crosszone.lp import ComfortSchedule, optimize_controlled_zones
from crosszone.model import CostModel, Signal, ThermalNetwork, TimeGrid
from crosszone.scenario import SetpointPlan, WeatherSeries, run_baseline, run_experiment


def cold_snap_pair(net, k=48, dq=-0.3, seed=2):
    """Baseline vs experiment that under-heats the controlled zone."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.25, k)
    plan = SetpointPlan([21.0] * net.n, (1,))
    weather = WeatherSeries(grid, Signal(np.full(k, -10.0)), Signal(np.zeros(k)))
    gains = rng.uniform(0.0, 0.3, (k, net.n))
    base = run_baseline(net, plan, weather, gains, grid)
    q1 = base.powers_kw[:, [0]] + dq
    exp = run_experiment(net, plan, weather, gains, grid, q1)
    return grid, plan, base, exp


def off_baseline_report(base, exp, net, cost, plan):
    """savings_report of runs that end off baseline, which warns that form b falls short."""
    with pytest.warns(BoundaryMismatchWarning):
        return savings_report(base, exp, net, cost, plan)


class TestPerZoneSavings:
    def test_identical_trajectories_zero(self, two_zone_network):
        grid, plan, base, _ = cold_snap_pair(two_zone_network)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        assert savings_report(base, base, two_zone_network, cost, plan).per_zone[0].savings_usd == 0.0

    def test_rectangle_integral(self, two_zone_network):
        # A flat 0.1 kW reduction over 24 h at 0.05 $/kWh is $0.12.
        grid, plan, base, exp = cold_snap_pair(two_zone_network, k=96, dq=-0.1)
        cost = CostModel.uniform(np.full(96, 0.05), 2)
        report = off_baseline_report(base, exp, two_zone_network, cost, plan)
        assert report.per_zone[0].savings_usd == pytest.approx(0.12, rel=1e-12)

    def test_controlled_saves_neighbour_pays(self, two_zone_network):
        grid, plan, base, exp = cold_snap_pair(two_zone_network)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        zone1, zone2 = off_baseline_report(base, exp, two_zone_network, cost, plan).per_zone
        assert zone1.savings_usd > 0.0
        assert zone2.savings_usd < 0.0

    def test_grid_mismatch_rejected(self, two_zone_network):
        _, plan, base, _ = cold_snap_pair(two_zone_network, k=48)
        _, _, other, _ = cold_snap_pair(two_zone_network, k=24)
        cost = CostModel.uniform(np.full(48, 0.05), 2)
        with pytest.raises(ValueError, match="grid"):
            savings_report(base, other, two_zone_network, cost, plan)


class TestNaiveAndOracle:
    def test_identical_zero(self, two_zone_network):
        grid, plan, base, _ = cold_snap_pair(two_zone_network)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        report = savings_report(base, base, two_zone_network, cost, plan)
        assert report.naive_controlled_usd == 0.0
        assert report.oracle_true_usd == 0.0

    def test_all_zones_controlled_naive_equals_oracle(self):
        rng = np.random.default_rng(6)
        net = random_network(rng, 3)
        grid = TimeGrid(0.25, 24)
        plan = SetpointPlan([21.0, 20.0, 22.0], (1, 2, 3))
        base, exp = perturbed_pair(rng, net, plan, grid)
        cost = random_cost(rng, 3, 24)
        report = savings_report(base, exp, net, cost, plan)
        assert report.naive_controlled_usd == pytest.approx(report.oracle_true_usd, rel=1e-12)


class TestOverestimationError:
    def test_all_controlled_gives_zero(self):
        rng = np.random.default_rng(7)
        net = random_network(rng, 3)
        grid = TimeGrid(0.25, 16)
        plan = SetpointPlan([21.0] * 3, (1, 2, 3))
        base, exp = perturbed_pair(rng, net, plan, grid)
        cost = random_cost(rng, 3, 16)
        error = savings_report(base, exp, net, cost, plan).overestimation_error_usd
        assert error == 0.0
        # +0.0, so that savings_report.json writes 0.0 and not -0.0.
        assert math.copysign(1.0, error) == 1.0

    def test_decoupled_pairs_give_zero(self):
        net = ThermalNetwork(
            [0.27, 0.81],
            [[0.0, 0.045, 0.135], [0.045, 0.0, 0.0], [0.135, 0.0, 0.0]],
        )
        grid, plan, base, exp = cold_snap_pair(net)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        assert off_baseline_report(base, exp, net, cost, plan).overestimation_error_usd == 0.0

    def test_floating_neighbour_against_oracle(self):
        # A neighbour that nobody controls but that floats on its baseline
        # power: the heat balance over every zone still gives the truth.
        rng = np.random.default_rng(31)
        for trial in range(24):
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
            cost = random_cost(rng, n, k)
            with pytest.warns(BoundaryMismatchWarning, match=f"zone {floating} does not start and end"):
                report = savings_report(base, exp, net, cost, plan)
            oracle, naive = report.oracle_true_usd, report.naive_controlled_usd
            scale = max(abs(naive), abs(oracle), 1e-3)
            assert abs(report.corrected_form_a_usd - oracle) / scale < 1e-8
            assert abs(naive - report.overestimation_error_usd - oracle) / scale < 1e-8


class TestCorrectedSavings:
    def test_identical_zero_both_forms(self, two_zone_network):
        grid, plan, base, _ = cold_snap_pair(two_zone_network)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        report = savings_report(base, base, two_zone_network, cost, plan)
        assert report.corrected_form_a_usd == 0.0
        assert report.corrected_form_b_usd == 0.0

    def test_uniform_price_reduction_two_zone(self, two_zone_network):
        # With one uniform price the inter-zone price-difference terms drop
        # out; form b reduces to conduction through the exterior wall plus
        # the price-jump storage term of zone 1 (zone 2 stays pinned).
        rng = np.random.default_rng(3)
        grid = TimeGrid(0.25, 48)
        plan = SetpointPlan([21.0, 21.0], (1,))
        base, exp = perturbed_pair(rng, two_zone_network, plan, grid)
        price = piecewise_constant_price(np.random.default_rng(3), grid.steps)
        cost = CostModel.uniform(price, 2)
        full = savings_report(base, exp, two_zone_network, cost, plan).corrected_form_b_usd
        x1 = base.temps_c[:, 0] - exp.temps_c[:, 0]
        conduction = price @ (base.temp_integrals_c_h[:, 0] - exp.temp_integrals_c_h[:, 0])
        reduced = 0.045 * conduction - 0.27 * (np.diff(price) @ x1[1:-1])
        assert full == pytest.approx(reduced, rel=1e-12)

    def test_four_zone_identity_against_oracle(self):
        rng = np.random.default_rng(40)
        net = random_network(rng, 4)
        grid = TimeGrid(0.25, 32)
        plan = SetpointPlan(rng.uniform(19, 22, 4), (1, 2))
        base, exp = perturbed_pair(rng, net, plan, grid)
        cost = random_cost(rng, 4, 32)
        report = savings_report(base, exp, net, cost, plan)
        oracle = report.oracle_true_usd
        scale = max(abs(oracle), 1e-3)
        for value in (report.corrected_form_a_usd, report.corrected_form_b_usd):
            assert abs(value - oracle) / scale < 1e-8

    def test_boundary_mismatch_warns(self, two_zone_network):
        rng = np.random.default_rng(12)
        grid = TimeGrid(0.25, 16)
        plan = SetpointPlan([21.0, 21.0], (1,))
        base, exp = perturbed_pair(rng, two_zone_network, plan, grid, pin_terminal=False)
        cost = CostModel.uniform(np.full(16, 0.05), 2)
        with pytest.warns(BoundaryMismatchWarning) as record:
            report = savings_report(base, exp, two_zone_network, cost, plan)
        assert len(record) == 1
        assert record[0].filename == __file__
        form_a, form_b = report.corrected_form_a_usd, report.corrected_form_b_usd
        amount = float(re.search(r"boundary term (\S+) \$", str(record[0].message)).group(1))
        assert amount == pytest.approx(form_a - form_b, rel=1e-5)
        assert form_a != pytest.approx(form_b, rel=1e-3)

    def test_price_shape_checked(self, two_zone_network):
        grid, plan, base, exp = cold_snap_pair(two_zone_network)
        one_zone = CostModel(np.full((1, grid.steps), 0.05))
        with pytest.raises(ValueError, match="prices have shape"):
            savings_report(base, exp, two_zone_network, one_zone, plan)


class TestAccountingIdentity:
    def test_randomized_networks_and_prices(self):
        # naive - error = corrected(a) = corrected(b) = oracle across
        # random networks, partitions, and piecewise-constant prices.
        rng = np.random.default_rng(99)
        for trial in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            net = random_network(rng, n)
            grid = TimeGrid(dt_h=float(rng.uniform(0.1, 0.5)), steps=int(rng.integers(8, 40)))
            controlled = tuple(sorted(rng.choice(np.arange(1, n + 1), size=m, replace=False)))
            plan = SetpointPlan(rng.uniform(18, 23, n), controlled)
            base, exp = perturbed_pair(rng, net, plan, grid)
            cost = random_cost(rng, n, grid.steps)
            report = savings_report(base, exp, net, cost, plan)
            naive, error, oracle = report.naive_controlled_usd, report.overestimation_error_usd, report.oracle_true_usd
            ca, cb = report.corrected_form_a_usd, report.corrected_form_b_usd
            scale = max(abs(naive), abs(oracle), 1e-3)
            assert abs(naive - error - oracle) / scale < 1e-8
            assert abs(ca - oracle) / scale < 1e-8
            assert abs(cb - oracle) / scale < 1e-8

    def test_interior_zone_savings_are_fictitious(self):
        # No outdoor coupling on the controlled zone plus uniform constant
        # prices: whatever the controlled zone appears to save, the
        # building as a whole saves nothing.
        rng = np.random.default_rng(55)
        for trial in range(5):
            n = int(rng.integers(2, 5))
            net = random_network(rng, n)
            alpha = net.conductances_kw_per_c.copy()
            alpha[1, 0] = alpha[0, 1] = 0.0
            alpha[1, 2] = alpha[2, 1] = max(alpha[1, 2], 0.02)  # keep zone 1 connected
            net = ThermalNetwork(net.capacitances_kwh_per_c, alpha)
            grid = TimeGrid(0.25, 24)
            plan = SetpointPlan(rng.uniform(19, 22, n), (1,))
            base, exp = perturbed_pair(rng, net, plan, grid)
            cost = CostModel.uniform(np.full(24, 0.06), n)
            report = savings_report(base, exp, net, cost, plan)
            naive, oracle = report.naive_controlled_usd, report.oracle_true_usd
            assert abs(naive) > 0.0
            assert abs(oracle) <= 1e-8 * abs(naive)

    def test_constant_price_two_zone_ratio(self, two_zone_network):
        rng = np.random.default_rng(77)
        grid = TimeGrid(0.25, 48)
        plan = SetpointPlan([21.0, 21.0], (1,))
        cost = CostModel.uniform(np.full(48, 0.05), 2)
        for trial in range(5):
            base, exp = perturbed_pair(rng, two_zone_network, plan, grid)
            report = savings_report(base, exp, two_zone_network, cost, plan)
            error, oracle = report.overestimation_error_usd, report.oracle_true_usd
            if abs(oracle) < 1e-9:
                continue
            assert error / oracle == pytest.approx(2.0, rel=1e-10)

    def test_price_scaling_equivariance(self, two_zone_network):
        rng = np.random.default_rng(9)
        grid = TimeGrid(0.25, 48)
        plan = SetpointPlan([21.0, 21.0], (1,))
        base, exp = perturbed_pair(rng, two_zone_network, plan, grid)
        price = np.vstack([piecewise_constant_price(rng, grid.steps) for _ in range(2)])
        s = 3.7
        r1 = savings_report(base, exp, two_zone_network, CostModel(price), plan)
        r2 = savings_report(base, exp, two_zone_network, CostModel(s * price), plan)
        assert r2.naive_controlled_usd == pytest.approx(s * r1.naive_controlled_usd, rel=1e-12)
        assert r2.overestimation_error_usd == pytest.approx(s * r1.overestimation_error_usd, rel=1e-12)
        assert r2.corrected_form_a_usd == pytest.approx(s * r1.corrected_form_a_usd, rel=1e-12)
        assert r2.corrected_form_b_usd == pytest.approx(s * r1.corrected_form_b_usd, rel=1e-12)
        assert r2.oracle_true_usd == pytest.approx(s * r1.oracle_true_usd, rel=1e-12)


class TestBuildingMismatch:
    """Accounting refuses a plan or network whose zone count differs from the runs'."""

    @staticmethod
    def three_zone_runs():
        net = random_network(np.random.default_rng(5), 3)
        grid, plan, base, exp = cold_snap_pair(net)
        return net, plan, base, exp, CostModel.uniform(np.full(grid.steps, 0.05), 3)

    @pytest.mark.parametrize(
        "plan, match",
        [
            (SetpointPlan([21.0] * 2, (1,)), "plan covers 2 zones, trajectories have 3"),
            (SetpointPlan([21.0] * 4, (1, 4)), "plan covers 4 zones, trajectories have 3"),
        ],
        ids=["fewer-zones", "names-zone-4"],
    )
    def test_plan_for_another_building(self, plan, match):
        net, _, base, exp, cost = self.three_zone_runs()
        with pytest.raises(ValueError, match=match):
            savings_report(base, exp, net, cost, plan)

    @pytest.mark.parametrize("zones, steps", [(2, 48), (4, 48), (3, 47)], ids=["2-zone", "4-zone", "wrong-steps"])
    def test_cost_for_another_building(self, zones, steps):
        # A 4-zone cost once read its first three rows; a 2-zone one raised IndexError.
        net, plan, base, exp, _ = self.three_zone_runs()
        cost = CostModel.uniform(np.full(steps, 0.05), zones)
        match = re.escape(f"prices have shape ({zones}, {steps}), expected (3, 48) (zones, steps)")
        with pytest.raises(ValueError, match=match):
            savings_report(base, exp, net, cost, plan)

    def test_network_for_another_building(self, two_zone_network):
        _, plan, base, exp, cost = self.three_zone_runs()
        with pytest.raises(ValueError, match="network has 2 zones, trajectories have 3"):
            savings_report(base, exp, two_zone_network, cost, plan)


class TestSavingsReport:
    def test_report_satisfies_internal_identity(self, two_zone_network):
        rng = np.random.default_rng(14)
        grid = TimeGrid(0.25, 48)
        plan = SetpointPlan([21.0, 21.0], (1,))
        base, exp = perturbed_pair(rng, two_zone_network, plan, grid)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        report = savings_report(base, exp, two_zone_network, cost, plan)
        assert report.naive_controlled_usd - report.overestimation_error_usd == pytest.approx(
            report.corrected_form_a_usd, abs=1e-10
        )
        assert report.corrected_form_a_usd == pytest.approx(report.corrected_form_b_usd, abs=1e-10)
        assert len(report.per_zone) == 2
        zone1 = report.per_zone[0]
        assert zone1.savings_usd == pytest.approx(
            zone1.baseline_cost_usd - zone1.experiment_cost_usd, abs=1e-12
        )

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_per_zone_savings_sum_to_the_report_bit_for_bit(self, tmp_path, seed):
        assert main(["reproduce-example", "--seed", str(seed), "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "savings_report.json").read_text())
        saved = [zone["savings_usd"] for zone in report["per_zone"]]
        assert sum(saved) == report["oracle_true_usd"]
        assert saved[0] == report["naive_controlled_usd"]  # zone 1 is the controlled zone

    def test_relative_error_undefined_near_zero_truth(self, two_zone_network):
        grid, plan, base, _ = cold_snap_pair(two_zone_network)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        report = savings_report(base, base, two_zone_network, cost, plan)
        assert report.relative_error is None
        assert report.naive_controlled_usd == 0.0


class TestClosedForms:
    def test_two_zone_conductance_ratio(self, two_zone_network):
        assert conductance_ratios(two_zone_network, (1,)) == (2.0,)

    def test_detached_zones_have_no_error(self):
        net = ThermalNetwork(
            [0.27, 0.81], [[0.0, 0.045, 0.135], [0.045, 0.0, 0.0], [0.135, 0.0, 0.0]]
        )
        assert conductance_ratios(net, (1,)) == (0.0,)

    def test_uncoupled_zone_has_no_error(self):
        # Zone 1 exchanges no heat with anything: none of its savings are fictitious.
        net = ThermalNetwork([0.27, 0.81], [[0.0, 0.0, 0.135], [0.0, 0.0, 0.0], [0.135, 0.0, 0.0]])
        assert conductance_ratios(net, (1,)) == (0.0,)
        grid, plan, base, exp = cold_snap_pair(net)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        report = off_baseline_report(base, exp, net, cost, plan)
        assert report.overestimation_error_usd == 0.0
        assert report.oracle_true_usd > 0.0

    def test_interior_zone_is_infinite(self):
        net = ThermalNetwork(
            [0.27, 0.81], [[0.0, 0.0, 0.135], [0.0, 0.0, 0.090], [0.135, 0.090, 0.0]]
        )
        assert conductance_ratios(net, (1,)) == (math.inf,)

    @pytest.mark.parametrize("controlled", [(0,), (1, 3)])
    def test_zone_outside_network_rejected(self, two_zone_network, controlled):
        with pytest.raises(ValueError, match=re.escape(f"controlled zones {controlled} out of range 1..2")):
            conductance_ratios(two_zone_network, controlled)

    def test_square_two_exterior_walls_double_insulation(self):
        case = GeometryCase.square_footprint(2, insulation_ratio=2.0)
        assert geometry_relative_error(case) == 2.0

    def test_square_detached(self):
        assert geometry_relative_error(GeometryCase.square_footprint(4, 2.0)) == 0.0

    def test_square_interior(self):
        assert geometry_relative_error(GeometryCase.square_footprint(0, 2.0)) == math.inf

    def test_bad_wall_count_rejected(self):
        with pytest.raises(ValueError, match="0..4"):
            GeometryCase.square_footprint(5, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            GeometryCase(u_int=value, u_ext=1.0, a_int=1.0, a_ext=1.0)
        with pytest.raises(ValueError, match="finite"):
            GeometryCase.square_footprint(2, value)

    def test_explicit_areas(self):
        case = GeometryCase(u_int=0.003, u_ext=0.0015, a_int=30.0, a_ext=30.0)
        assert geometry_relative_error(case) == pytest.approx(2.0, rel=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            GeometryCase(u_int=-1.0, u_ext=1.0, a_int=1.0, a_ext=1.0)


def outdoor_floor_network(rng, n, floor=0.01):
    """Random network in which every zone has an outdoor conductance of at least ``floor``."""
    alpha = random_network(rng, n).conductances_kw_per_c.copy()
    alpha[0, 1:] = alpha[1:, 0] = np.maximum(alpha[0, 1:], floor)
    return ThermalNetwork(rng.uniform(0.3, 1.2, n), alpha)


def planned_report(net, plan, price=0.05, k=48):
    """Constant-price study with no gains: the LP plans the controlled zones, the rest track."""
    grid = TimeGrid(0.5, k)
    weather = WeatherSeries(grid, Signal(np.full(k, -5.0)), Signal(np.zeros(k)))
    gains = np.zeros((k, net.n))
    prices = np.full(k, price)
    base = run_baseline(net, plan, weather, gains, grid)
    opt = optimize_controlled_zones(net, plan, grid, prices, ComfortSchedule(np.full(k, 1.0)), gains, weather.outdoor)
    exp = run_experiment(net, plan, weather, gains, grid, opt.q_kw)
    return base, exp, savings_report(base, exp, net, CostModel.uniform(prices, net.n), plan)


def weighted_ratio(net, plan, base, exp):
    """sum_i alpha_i0 X_i r_i / sum_i alpha_i0 X_i over the controlled zones, X_i = drop in temperature integral."""
    zones = np.asarray(plan.controlled)
    drop = (base.temp_integrals_c_h - exp.temp_integrals_c_h).sum(axis=0)[zones - 1]
    weight = net.conductances_kw_per_c[0, zones] * drop
    ratios = np.array(conductance_ratios(net, plan.controlled))
    return float(weight @ ratios / weight.sum()), drop, ratios


class TestErrorRatioLaw:
    """Under a constant price the measured error ratio follows the conductance ratios."""

    @staticmethod
    def core_floor():
        # Four perimeter zones in a ring around a core that has no outdoor wall.
        alpha = np.zeros((6, 6))
        for i in range(1, 5):
            alpha[0, i] = alpha[i, 0] = 0.09
            alpha[i, 5] = alpha[5, i] = 0.03
            alpha[i, i % 4 + 1] = alpha[i % 4 + 1, i] = 0.02
        return ThermalNetwork([0.5, 0.5, 0.5, 0.5, 1.0], alpha), [21.0] * 4 + [22.0]

    def test_interior_core_saves_nothing(self):
        net, setpoints = self.core_floor()
        plan = SetpointPlan(setpoints, (5,))
        assert conductance_ratios(net, plan.controlled) == (math.inf,)
        _, _, report = planned_report(net, plan)
        assert report.naive_controlled_usd == pytest.approx(0.0954, abs=5e-4)
        assert abs(report.oracle_true_usd) < 1e-12
        assert report.relative_error is None

    def test_perimeter_zones_measure_their_ratio(self):
        net, setpoints = self.core_floor()
        plan = SetpointPlan(setpoints, (1, 2, 3, 4))
        assert conductance_ratios(net, plan.controlled) == pytest.approx([1 / 3] * 4, rel=1e-15)
        _, _, report = planned_report(net, plan)
        assert report.relative_error == pytest.approx(1 / 3, rel=1e-9)

    def test_one_controlled_zone_in_any_network(self):
        rng = np.random.default_rng(8)
        for trial in range(6):
            net = outdoor_floor_network(rng, 6)
            plan = SetpointPlan(rng.uniform(20.5, 21.5, 6), (int(rng.integers(1, 7)),))
            _, _, report = planned_report(net, plan)
            (ratio,) = conductance_ratios(net, plan.controlled)
            assert report.oracle_true_usd > 0.01
            assert report.relative_error == pytest.approx(ratio, rel=1e-9)

    @pytest.mark.parametrize("m", [2, 3])
    def test_several_controlled_zones(self, m):
        rng = np.random.default_rng(20 + m)
        for trial in range(3):
            net = outdoor_floor_network(rng, 6)
            controlled = tuple(int(z) for z in rng.choice(np.arange(1, 7), size=m, replace=False))
            plan = SetpointPlan(rng.uniform(20.5, 21.5, 6), controlled)
            base, exp, report = planned_report(net, plan)
            assert report.relative_error == pytest.approx(weighted_ratio(net, plan, base, exp)[0], rel=1e-9)

    def test_mixed_signs_leave_the_ratio_range(self):
        # Zone 2 ends warmer than baseline on the whole, so the weighted mean
        # of the ratios has a negative weight: 0.165 against r in [0.437, 6.19].
        rng = np.random.default_rng(2)
        net = outdoor_floor_network(rng, 5)
        plan = SetpointPlan(np.full(5, 21.0), (1, 2, 3))
        base, exp = perturbed_pair(rng, net, plan, TimeGrid(0.25, 24))
        report = savings_report(base, exp, net, CostModel.uniform(np.full(24, 0.1), 5), plan)
        law, drop, ratios = weighted_ratio(net, plan, base, exp)
        assert drop.min() < 0.0 < drop.max()
        assert not ratios.min() <= report.relative_error <= ratios.max()
        assert report.relative_error == pytest.approx(law, rel=1e-9)
