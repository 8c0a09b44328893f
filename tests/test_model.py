"""Structural validation of the core data types."""

import numpy as np
import pytest

from crosszone.model import (
    CostModel,
    InvalidNetworkError,
    Signal,
    ThermalNetwork,
    TimeGrid,
    Trajectory,
    validate_network,
)


class TestNetworkValidation:
    def test_two_zone_study_network_is_valid(self, two_zone_network):
        assert validate_network(two_zone_network) is two_zone_network
        assert two_zone_network.n == 2
        assert two_zone_network.conductance(1, 2) == 0.090
        assert two_zone_network.capacitance(2) == 0.81

    def test_asymmetric_matrix_reports_indices(self):
        net = ThermalNetwork(
            [0.27, 0.81],
            [[0.0, 0.045, 0.135], [0.045, 0.0, 0.090], [0.135, 0.050, 0.0]],
        )
        with pytest.raises(InvalidNetworkError) as exc:
            validate_network(net)
        assert any("asymmetric" in v and "(1,2)" in v.replace(" ", "") for v in exc.value.violations)

    def test_nonpositive_capacitance(self):
        net = ThermalNetwork([0.0], [[0.0, 0.1], [0.1, 0.0]])
        with pytest.raises(InvalidNetworkError, match="nonpositive capacitance"):
            validate_network(net)

    def test_negative_conductance(self):
        net = ThermalNetwork([0.5], [[0.0, -0.1], [-0.1, 0.0]])
        assert any("negative conductance" in v for v in net.violations())

    def test_dimension_mismatch(self):
        net = ThermalNetwork([0.5, 0.5], [[0.0, 0.1], [0.1, 0.0]])
        assert any("inconsistent" in v for v in net.violations())

    def test_nonzero_diagonal(self):
        net = ThermalNetwork([0.5], [[0.0, 0.1], [0.1, 0.2]])
        assert any("self-conductance" in v for v in net.violations())

    def test_all_violations_collected(self):
        net = ThermalNetwork([-1.0], [[0.0, -0.1], [-0.2, 0.0]])
        assert len(net.violations()) >= 2

    def test_arrays_are_frozen(self, two_zone_network):
        with pytest.raises(ValueError):
            two_zone_network.capacitances_kwh_per_c[0] = 5.0


class TestTimeGrid:
    def test_horizon(self):
        grid = TimeGrid(dt_h=0.25, steps=480)
        assert grid.horizon_h == 120.0
        assert grid.sample_times_h().shape == (481,)

    def test_hours_of_day_wrap(self):
        grid = TimeGrid(dt_h=1.0, steps=30, origin_hour=22.0)
        hod = grid.step_hours_of_day()
        assert hod[0] == 22.0
        assert hod[2] == 0.0
        assert hod[26] == 0.0

    @pytest.mark.parametrize("dt,steps", [(0.0, 4), (-1.0, 4), (0.25, 0)])
    def test_rejects_degenerate_grid(self, dt, steps):
        with pytest.raises(ValueError):
            TimeGrid(dt_h=dt, steps=steps)


class TestSignal:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Signal([1.0, np.nan])

    def test_length(self):
        assert len(Signal([1.0, 2.0, 3.0])) == 3


class TestCostModel:
    def test_uniform_tiles_price(self):
        cm = CostModel.uniform(np.array([0.1, 0.2]), n=3)
        assert cm.prices_usd_per_kwh.shape == (3, 2)
        assert np.array_equal(cm.zone_price(3), [0.1, 0.2])


class TestTrajectory:
    def test_shape_contract(self):
        grid = TimeGrid(dt_h=0.5, steps=3)
        with pytest.raises(ValueError, match="temps_c"):
            Trajectory(
                grid=grid,
                temps_c=np.zeros((3, 2)),  # needs K+1 rows
                powers_kw=np.zeros((3, 2)),
                gains_kw=np.zeros((3, 2)),
                outdoor_c=np.zeros(3),
                temp_integrals_c_h=np.zeros((3, 2)),
            )

    def test_zone_accessors(self):
        grid = TimeGrid(dt_h=0.5, steps=2)
        traj = Trajectory(
            grid=grid,
            temps_c=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            powers_kw=np.array([[0.1, 0.2], [0.3, 0.4]]),
            gains_kw=np.zeros((2, 2)),
            outdoor_c=np.zeros(2),
            temp_integrals_c_h=np.zeros((2, 2)),
        )
        assert np.array_equal(traj.zone_temps(2), [2.0, 4.0, 6.0])
        assert np.array_equal(traj.zone_power(1), [0.1, 0.3])
