"""Savings accounting: estimates, identities, and closed forms."""

import math
import re
import warnings

import numpy as np
import pytest

from conftest import perturbed_pair, piecewise_constant_price, random_cost, random_network

from crosszone.estimator import (
    BoundaryMismatchWarning,
    GeometryCase,
    corrected_savings,
    geometry_relative_error,
    naive_savings,
    oracle_true_savings,
    overestimation_error,
    per_zone_savings,
    savings_report,
    two_zone_relative_error,
)
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


class TestPerZoneSavings:
    def test_identical_trajectories_zero(self, two_zone_network):
        grid, plan, base, _ = cold_snap_pair(two_zone_network)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        assert per_zone_savings(base, base, cost, 1) == 0.0

    def test_rectangle_integral(self, two_zone_network):
        # A flat 0.1 kW reduction over 24 h at 0.05 $/kWh is $0.12.
        grid, plan, base, exp = cold_snap_pair(two_zone_network, k=96, dq=-0.1)
        cost = CostModel.uniform(np.full(96, 0.05), 2)
        assert per_zone_savings(base, exp, cost, 1) == pytest.approx(0.12, rel=1e-12)

    def test_controlled_saves_neighbour_pays(self, two_zone_network):
        grid, plan, base, exp = cold_snap_pair(two_zone_network)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        assert per_zone_savings(base, exp, cost, 1) > 0.0
        assert per_zone_savings(base, exp, cost, 2) < 0.0

    def test_grid_mismatch_rejected(self, two_zone_network):
        _, _, base, _ = cold_snap_pair(two_zone_network, k=48)
        _, _, other, _ = cold_snap_pair(two_zone_network, k=24)
        cost = CostModel.uniform(np.full(48, 0.05), 2)
        with pytest.raises(ValueError, match="grid"):
            per_zone_savings(base, other, cost, 1)


class TestNaiveAndOracle:
    def test_identical_zero(self, two_zone_network):
        grid, plan, base, _ = cold_snap_pair(two_zone_network)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        assert naive_savings(base, base, cost, plan) == 0.0
        assert oracle_true_savings(base, base, cost) == 0.0

    def test_all_zones_controlled_naive_equals_oracle(self):
        rng = np.random.default_rng(6)
        net = random_network(rng, 3)
        grid = TimeGrid(0.25, 24)
        plan = SetpointPlan([21.0, 20.0, 22.0], (1, 2, 3))
        base, exp = perturbed_pair(rng, net, plan, grid)
        cost = random_cost(rng, 3, 24)
        assert naive_savings(base, exp, cost, plan) == pytest.approx(
            oracle_true_savings(base, exp, cost), rel=1e-12
        )


class TestOverestimationError:
    def test_all_controlled_gives_zero(self):
        rng = np.random.default_rng(7)
        net = random_network(rng, 3)
        grid = TimeGrid(0.25, 16)
        plan = SetpointPlan([21.0] * 3, (1, 2, 3))
        base, exp = perturbed_pair(rng, net, plan, grid)
        cost = random_cost(rng, 3, 16)
        assert overestimation_error(base, exp, net, cost, plan) == 0.0

    def test_decoupled_pairs_give_zero(self):
        net = ThermalNetwork(
            [0.27, 0.81],
            [[0.0, 0.045, 0.135], [0.045, 0.0, 0.0], [0.135, 0.0, 0.0]],
        )
        grid, plan, base, exp = cold_snap_pair(net)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        assert overestimation_error(base, exp, net, cost, plan) == 0.0

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
            oracle = oracle_true_savings(base, exp, cost)
            naive = naive_savings(base, exp, cost, plan)
            error = overestimation_error(base, exp, net, cost, plan)
            scale = max(abs(naive), abs(oracle), 1e-3)
            assert abs(corrected_savings(base, exp, net, cost, "a") - oracle) / scale < 1e-8
            assert abs(naive - error - oracle) / scale < 1e-8
            with pytest.warns(BoundaryMismatchWarning, match=f"zone {floating} does not start and end"):
                corrected_savings(base, exp, net, cost, "b")


class TestCorrectedSavings:
    def test_identical_zero_both_forms(self, two_zone_network):
        grid, plan, base, _ = cold_snap_pair(two_zone_network)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        assert corrected_savings(base, base, two_zone_network, cost, "a") == 0.0
        assert corrected_savings(base, base, two_zone_network, cost, "b") == 0.0

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
        full = corrected_savings(base, exp, two_zone_network, cost, "b")
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
        oracle = oracle_true_savings(base, exp, cost)
        scale = max(abs(oracle), 1e-3)
        for form in ("a", "b"):
            value = corrected_savings(base, exp, net, cost, form)
            assert abs(value - oracle) / scale < 1e-8

    def test_boundary_mismatch_warns(self, two_zone_network):
        rng = np.random.default_rng(12)
        grid = TimeGrid(0.25, 16)
        plan = SetpointPlan([21.0, 21.0], (1,))
        base, exp = perturbed_pair(rng, two_zone_network, plan, grid, pin_terminal=False)
        cost = CostModel.uniform(np.full(16, 0.05), 2)
        with pytest.warns(BoundaryMismatchWarning) as record:
            form_b = corrected_savings(base, exp, two_zone_network, cost, "b")
        assert record[0].filename == __file__
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            form_a = corrected_savings(base, exp, two_zone_network, cost, "a")
        amount = float(re.search(r"boundary term (\S+) \$", str(record[0].message)).group(1))
        assert amount == pytest.approx(form_a - form_b, rel=1e-5)
        assert form_a != pytest.approx(form_b, rel=1e-3)
        with pytest.warns(BoundaryMismatchWarning) as record:
            savings_report(base, exp, two_zone_network, cost, plan)
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_price_shape_checked(self, two_zone_network):
        grid, plan, base, exp = cold_snap_pair(two_zone_network)
        one_zone = CostModel(np.full((1, grid.steps), 0.05))
        for form in ("a", "b"):
            with pytest.raises(ValueError, match="prices have shape"):
                corrected_savings(base, exp, two_zone_network, one_zone, form)

    def test_unknown_form_rejected(self, two_zone_network):
        grid, plan, base, exp = cold_snap_pair(two_zone_network)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        with pytest.raises(ValueError, match="form"):
            corrected_savings(base, exp, two_zone_network, cost, "c")


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
            naive = naive_savings(base, exp, cost, plan)
            error = overestimation_error(base, exp, net, cost, plan)
            oracle = oracle_true_savings(base, exp, cost)
            ca = corrected_savings(base, exp, net, cost, "a")
            cb = corrected_savings(base, exp, net, cost, "b")
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
            naive = naive_savings(base, exp, cost, plan)
            oracle = oracle_true_savings(base, exp, cost)
            assert abs(naive) > 0.0
            assert abs(oracle) <= 1e-8 * abs(naive)

    def test_constant_price_two_zone_ratio(self, two_zone_network):
        rng = np.random.default_rng(77)
        grid = TimeGrid(0.25, 48)
        plan = SetpointPlan([21.0, 21.0], (1,))
        cost = CostModel.uniform(np.full(48, 0.05), 2)
        for trial in range(5):
            base, exp = perturbed_pair(rng, two_zone_network, plan, grid)
            error = overestimation_error(base, exp, two_zone_network, cost, plan)
            oracle = oracle_true_savings(base, exp, cost)
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

    def test_relative_error_undefined_near_zero_truth(self, two_zone_network):
        grid, plan, base, _ = cold_snap_pair(two_zone_network)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        report = savings_report(base, base, two_zone_network, cost, plan)
        assert report.relative_error is None
        assert report.naive_controlled_usd == 0.0


class TestClosedForms:
    def test_two_zone_conductance_ratio(self, two_zone_network):
        assert two_zone_relative_error(two_zone_network) == 2.0

    def test_detached_zones_have_no_error(self):
        net = ThermalNetwork(
            [0.27, 0.81], [[0.0, 0.045, 0.135], [0.045, 0.0, 0.0], [0.135, 0.0, 0.0]]
        )
        assert two_zone_relative_error(net) == 0.0

    def test_uncoupled_zone_has_no_error(self):
        # Zone 1 exchanges no heat with anything: none of its savings are fictitious.
        net = ThermalNetwork([0.27, 0.81], [[0.0, 0.0, 0.135], [0.0, 0.0, 0.0], [0.135, 0.0, 0.0]])
        assert two_zone_relative_error(net) == 0.0
        grid, plan, base, exp = cold_snap_pair(net)
        cost = CostModel.uniform(np.full(grid.steps, 0.05), 2)
        assert overestimation_error(base, exp, net, cost, plan) == 0.0
        assert oracle_true_savings(base, exp, cost) > 0.0

    def test_interior_zone_is_infinite(self):
        net = ThermalNetwork(
            [0.27, 0.81], [[0.0, 0.0, 0.135], [0.0, 0.0, 0.090], [0.135, 0.090, 0.0]]
        )
        assert two_zone_relative_error(net) == math.inf

    def test_requires_two_zones(self):
        net = ThermalNetwork([0.27], [[0.0, 0.045], [0.045, 0.0]])
        with pytest.raises(ValueError, match="2-zone"):
            two_zone_relative_error(net)

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
