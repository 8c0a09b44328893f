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
)


def violations(capacitances, conductances) -> list[str]:
    """The invariants that constructing this network reports violated."""
    with pytest.raises(InvalidNetworkError) as exc:
        ThermalNetwork(capacitances, conductances)
    assert str(exc.value) == "; ".join(exc.value.violations)
    return exc.value.violations


class TestNetworkValidation:
    def test_two_zone_study_network_is_valid(self, two_zone_network):
        assert two_zone_network.n == 2
        assert two_zone_network.conductances_kw_per_c[1, 2] == 0.090
        assert two_zone_network.capacitances_kwh_per_c[1] == 0.81

    def test_asymmetric_matrix_reports_indices(self):
        found = violations([0.27, 0.81], [[0.0, 0.045, 0.135], [0.045, 0.0, 0.090], [0.135, 0.050, 0.0]])
        assert any("asymmetric" in v and "(1,2)" in v.replace(" ", "") for v in found)

    def test_nonpositive_capacitance(self):
        with pytest.raises(InvalidNetworkError, match="nonpositive capacitance"):
            ThermalNetwork([0.0], [[0.0, 0.1], [0.1, 0.0]])

    def test_negative_conductance(self):
        assert any("negative conductance" in v for v in violations([0.5], [[0.0, -0.1], [-0.1, 0.0]]))

    def test_dimension_mismatch(self):
        assert any("inconsistent" in v for v in violations([0.5, 0.5], [[0.0, 0.1], [0.1, 0.0]]))

    def test_nonzero_diagonal(self):
        assert any("self-conductance" in v for v in violations([0.5], [[0.0, 0.1], [0.1, 0.2]]))

    def test_all_violations_collected(self):
        found = violations([-1.0], [[0.0, -0.1], [-0.2, 0.0]])
        assert len(found) >= 2
        assert any("nonpositive capacitance" in v for v in found)
        assert any("asymmetric conductance" in v for v in found)

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
        assert np.array_equal(cm.prices_usd_per_kwh[2], [0.1, 0.2])


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
