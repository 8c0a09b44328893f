"""Discretization, simulation, and exact-integral tests against oracles."""

import numpy as np
import pytest

from conftest import euler_simulate, random_network

from crosszone.dynamics import discretize, simulate
from crosszone.estimator import BoundaryMismatchWarning, corrected_savings
from crosszone.model import CostModel, ThermalNetwork, TimeGrid, Trajectory


def single_zone_network(loss_kw_per_c: float = 0.135, cap_kwh_per_c: float = 0.27) -> ThermalNetwork:
    return ThermalNetwork([cap_kwh_per_c], [[0.0, loss_kw_per_c], [loss_kw_per_c, 0.0]])


class TestDiscretize:
    def test_single_zone_decay_factor(self):
        # Total loss 0.135 kW/degC on 0.27 kWh/degC at a quarter-hour step.
        grid = TimeGrid(dt_h=0.25, steps=1)
        model = discretize(single_zone_network(), grid)
        assert model.phi[0, 0] == pytest.approx(np.exp(-0.125), abs=1e-12)

    def test_reduced_zone_one_matches_scalar_decay(self, two_zone_network):
        # Zone 1 alone, zone 2 pinned: same 0.135 kW/degC total loss.
        grid = TimeGrid(dt_h=0.25, steps=1)
        model = discretize(two_zone_network, grid, zones=(1,))
        assert model.phi.shape == (1, 1)
        assert model.phi[0, 0] == pytest.approx(np.exp(-0.125), abs=1e-12)

    def test_short_step_approaches_identity(self, two_zone_network):
        dt = 1e-6
        model = discretize(two_zone_network, TimeGrid(dt_h=dt, steps=1))
        assert np.abs(model.phi - np.eye(2)).max() < 1e-5

    def test_one_step_matches_fine_euler(self, two_zone_network):
        # Start a fraction of a degC off equilibrium: the 1e4-substep Euler
        # reference carries O(h) error proportional to the transient, so a
        # small transient keeps the reference itself below 1e-6 degC.
        grid = TimeGrid(dt_h=0.25, steps=1)
        model = discretize(two_zone_network, grid)
        t0 = np.array([0.0])
        w = np.zeros((1, 2))
        q_hold = np.array([[0.045 * 20.0 + 0.090 * 0.0, 0.135 * 20.0]])  # equilibrium at 20
        t_init = np.array([20.4, 19.8])
        traj = simulate(model, t_init, q_hold, w, t0)
        ref = euler_simulate(two_zone_network, grid.dt_h, 10_000, t_init, q_hold, w, t0)
        assert np.abs(traj.temps_c[1] - ref[1]).max() < 1e-6

    def test_equilibrium_row_sum_identity(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            net = random_network(rng, int(rng.integers(1, 6)))
            model = discretize(net, TimeGrid(dt_h=0.25, steps=1))
            ones = np.ones(net.n)
            assert np.abs(model.phi @ ones + model.gamma_0 - ones).max() < 1e-12

    def test_transition_matrix_never_negative(self):
        # Off-diagonal-nonnegative generators exponentiate to nonnegative maps.
        rng = np.random.default_rng(5)
        for trial in range(20):
            net = random_network(rng, int(rng.integers(1, 7)), max_rate_per_h=3.0)
            model = discretize(net, TimeGrid(dt_h=0.5, steps=1))
            assert model.phi.min() >= -1e-15

    def test_rejects_bad_zone_subset(self, two_zone_network):
        with pytest.raises(ValueError):
            discretize(two_zone_network, TimeGrid(0.25, 1), zones=(1, 3))


class TestSimulate:
    def test_uniform_equilibrium_is_fixed_point(self, two_zone_network):
        grid = TimeGrid(dt_h=0.25, steps=12)
        model = discretize(two_zone_network, grid)
        traj = simulate(model, [5.0, 5.0], np.zeros((12, 2)), np.zeros((12, 2)), np.full(12, 5.0))
        assert np.abs(traj.temps_c - 5.0).max() < 1e-12

    def test_scalar_free_decay(self):
        grid = TimeGrid(dt_h=0.25, steps=16)
        model = discretize(single_zone_network(), grid)
        traj = simulate(model, [10.0], np.zeros((16, 1)), np.zeros((16, 1)), np.zeros(16))
        lam = np.exp(-0.125)
        expected = 10.0 * lam ** np.arange(17)
        assert np.abs(traj.temps_c[:, 0] - expected).max() < 1e-12

    def test_matches_fine_euler_on_random_networks(self):
        rng = np.random.default_rng(21)
        grid = TimeGrid(dt_h=0.25, steps=8)
        for trial in range(3):
            n = int(rng.integers(2, 7))
            net = random_network(rng, n, max_rate_per_h=0.5)
            t_init = rng.uniform(15.0, 25.0, n)
            q = rng.uniform(0.0, 1.0, (8, n))
            w = rng.uniform(0.0, 0.5, (8, n))
            t0 = rng.uniform(-10.0, 5.0, 8)
            model = discretize(net, grid)
            traj = simulate(model, t_init, q, w, t0)
            ref = euler_simulate(net, grid.dt_h, 10_000, t_init, q, w, t0)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(traj.temps_c - ref).max() / scale < 1e-5

    def test_steady_tracking_power_holds_setpoints(self, two_zone_network):
        # Feeding the steady-state tracking powers back through the full
        # model keeps every zone pinned at its setpoint.
        from crosszone.scenario import tracking_power

        grid = TimeGrid(dt_h=0.25, steps=12)
        setpoints = np.array([21.0, 19.0])
        t0 = np.full(12, -7.0)
        w = np.full((12, 2), 0.15)
        temps_hold = np.tile(setpoints, (13, 1))
        integrals_hold = np.tile(setpoints * grid.dt_h, (12, 1))
        q = tracking_power(two_zone_network, temps_hold, integrals_hold, w, t0, grid.dt_h)
        model = discretize(two_zone_network, grid)
        traj = simulate(model, setpoints, q, w, t0)
        assert np.abs(traj.temps_c - setpoints).max() < 1e-12

    def test_affine_superposition(self, two_zone_network):
        rng = np.random.default_rng(9)
        grid = TimeGrid(dt_h=0.5, steps=10)
        model = discretize(two_zone_network, grid)

        def draw():
            return (
                rng.uniform(10, 30, 2),
                rng.uniform(-1, 1, (10, 2)),
                rng.uniform(0, 1, (10, 2)),
                rng.uniform(-20, 10, 10),
            )

        a1, a2 = draw(), draw()
        lam = 0.3
        mixed = simulate(model, *(lam * u + (1 - lam) * v for u, v in zip(a1, a2)))
        t1 = simulate(model, *a1)
        t2 = simulate(model, *a2)
        combo = lam * t1.temps_c + (1 - lam) * t2.temps_c
        assert np.abs(mixed.temps_c - combo).max() < 1e-10

    def test_grid_mismatch_rejected(self, two_zone_network):
        model = discretize(two_zone_network, TimeGrid(0.25, 8))
        with pytest.raises(ValueError):
            simulate(model, [20.0, 20.0], np.zeros((8, 2)), np.zeros((8, 2)), np.zeros(7))

    def test_zones_by_steps_inputs_rejected(self, two_zone_network):
        model = discretize(two_zone_network, TimeGrid(0.25, 8))
        q = np.zeros((2, 8))
        q[0] = 1.0
        for args in ((q, np.zeros((8, 2))), (np.zeros((8, 2)), q)):
            with pytest.raises(ValueError, match=r"expected \(8, 2\)"):
                simulate(model, [20.0, 20.0], *args, np.zeros(8))


def _fine_quadrature(net, grid, t_init_a, t_init_b, q_a, q_b, price, zone, substeps=10_000):
    """Independent oracle: substep propagation with scipy's expm plus a
    trapezoid sum of price * (T_a - T_b) on the fine grid."""
    from scipy.linalg import expm

    n = net.n
    alpha = net.conductances_kw_per_c
    caps = net.capacitances_kwh_per_c
    a_mat = alpha[1:, 1:] / caps[:, None]
    np.fill_diagonal(a_mat, -alpha[1:, :].sum(axis=1) / caps)
    per_step = max(substeps // grid.steps, 200)
    h = grid.dt_h / per_step
    phi_h = expm(a_mat * h)
    j1_h = np.linalg.solve(a_mat, phi_h - np.eye(n))  # int_0^h expm(A s) ds
    total = 0.0
    ta, tb = np.array(t_init_a, float), np.array(t_init_b, float)
    for step in range(grid.steps):
        drive_a = j1_h @ (q_a[step] / caps)
        drive_b = j1_h @ (q_b[step] / caps)
        for _ in range(per_step):
            na, nb = phi_h @ ta + drive_a, phi_h @ tb + drive_b
            x_mid = 0.5 * ((ta - tb) + (na - nb))
            total += price[step] * x_mid[zone - 1] * h
            ta, tb = na, nb
    return total


def _weighted_integral(traj_a: Trajectory, traj_b: Trajectory, price: np.ndarray, zone: int) -> float:
    """Exact integral of price(t) * (T_zone^a(t) - T_zone^b(t)) dt from the step integrals."""
    return price @ (traj_a.temp_integrals_c_h[:, zone - 1] - traj_b.temp_integrals_c_h[:, zone - 1])


class TestWeightedIntegral:
    def test_identical_trajectories_give_zero(self, two_zone_network):
        grid = TimeGrid(0.25, 8)
        model = discretize(two_zone_network, grid)
        traj = simulate(model, [20.0, 20.0], np.ones((8, 2)), np.zeros((8, 2)), np.zeros(8))
        for zone in (1, 2):
            assert _weighted_integral(traj, traj, np.full(8, 0.07), zone) == 0.0

    def test_exponential_decay_analytic_value(self):
        # x(t) = x0 exp(-t / theta) with theta = C / alpha = 2 h.
        net = single_zone_network()
        grid = TimeGrid(dt_h=0.5, steps=16)
        model = discretize(net, grid)
        x0, theta, tau = 3.0, 0.27 / 0.135, 8.0
        traj_a = simulate(model, [x0], np.zeros((16, 1)), np.zeros((16, 1)), np.zeros(16))
        traj_b = simulate(model, [0.0], np.zeros((16, 1)), np.zeros((16, 1)), np.zeros(16))
        value = _weighted_integral(traj_a, traj_b, np.ones(16), 1)
        expected = x0 * theta * (1.0 - np.exp(-tau / theta))
        assert value == pytest.approx(expected, abs=1e-10)

    def test_matches_fine_grid_quadrature(self, two_zone_network):
        rng = np.random.default_rng(13)
        grid = TimeGrid(dt_h=0.25, steps=8)
        model = discretize(two_zone_network, grid)
        q_a = rng.uniform(0.0, 2.0, (8, 2))
        q_b = rng.uniform(0.0, 2.0, (8, 2))
        price = np.where(np.arange(8) < 4, 0.048, 0.089)
        ta0, tb0 = [21.0, 20.0], [20.0, 20.5]
        zeros = np.zeros((8, 2))
        traj_a = simulate(model, ta0, q_a, zeros, np.zeros(8))
        traj_b = simulate(model, tb0, q_b, zeros, np.zeros(8))
        for zone in (1, 2):
            value = _weighted_integral(traj_a, traj_b, price, zone)
            oracle = _fine_quadrature(two_zone_network, grid, ta0, tb0, q_a, q_b, price, zone)
            assert value == pytest.approx(oracle, rel=1e-6)

    def test_bilinear_in_price_and_difference(self, two_zone_network):
        rng = np.random.default_rng(17)
        grid = TimeGrid(0.25, 10)
        model = discretize(two_zone_network, grid)
        zeros = np.zeros((10, 2))
        base = simulate(model, [20.0, 20.0], rng.uniform(0, 1, (10, 2)), zeros, np.zeros(10))
        other = simulate(model, [22.0, 19.0], rng.uniform(0, 1, (10, 2)), zeros, np.zeros(10))
        p1 = rng.uniform(0.01, 0.1, (2, 10))
        p2 = rng.uniform(0.01, 0.1, (2, 10))

        def savings(a, b, prices):
            return corrected_savings(a, b, two_zone_network, CostModel(prices))

        v1 = savings(base, other, p1)
        v2 = savings(base, other, p2)
        combo = savings(base, other, 2.0 * p1 + 0.5 * p2)
        assert combo == pytest.approx(2.0 * v1 + 0.5 * v2, rel=1e-12)
        # Antisymmetry in the trajectory pair doubles as difference-linearity.
        assert savings(other, base, p1) == pytest.approx(-v1, rel=1e-12)


def _x_profile_trajectory(grid: TimeGrid, x: np.ndarray) -> Trajectory:
    k = grid.steps
    return Trajectory(
        grid=grid,
        temps_c=x.reshape(-1, 1),
        powers_kw=np.zeros((k, 1)),
        gains_kw=np.zeros((k, 1)),
        outdoor_c=np.zeros(k),
        temp_integrals_c_h=np.zeros((k, 1)),
    )


# One zone with no conductances: corrected savings reduce to the storage
# term, C times sum_k a(k) (x(k+1) - x(k)) (form a) or -sum_k (a(k) - a(k-1))
# x(k) (form b), which agree by summation by parts whenever x(0) = x(K) = 0.
STORAGE_C = 0.27
STORAGE_ONLY = ThermalNetwork([STORAGE_C], [[0.0, 0.0], [0.0, 0.0]])


def _storage_savings(grid: TimeGrid, x: np.ndarray, price: np.ndarray, form: str) -> float:
    base = _x_profile_trajectory(grid, x)
    exp = _x_profile_trajectory(grid, np.zeros(grid.steps + 1))
    return corrected_savings(base, exp, STORAGE_ONLY, CostModel(price[None, :]), form)


class TestStieltjesIntegral:
    def test_constant_price_telescopes(self):
        grid = TimeGrid(dt_h=4.0, steps=6)
        x = np.array([1.0, 2.0, 0.5, 3.0, 2.0, 1.5, 1.0])
        price = np.full(6, 0.1)
        assert _storage_savings(grid, x, price, "a") == pytest.approx(
            STORAGE_C * 0.1 * (x[-1] - x[0]), abs=1e-15
        )
        with pytest.warns(BoundaryMismatchWarning, match="zone 1 does not start and end"):
            assert _storage_savings(grid, x, price, "b") == 0.0

    def test_modes_agree_with_pinned_endpoints(self):
        rng = np.random.default_rng(23)
        grid = TimeGrid(dt_h=1.0, steps=24)
        for trial in range(10):
            x = rng.uniform(-2, 2, 25)
            x[0] = x[-1] = 0.0
            price = rng.choice([0.12, 0.14, 0.16], size=24)
            a_dx = _storage_savings(grid, x, price, "a")
            x_da = _storage_savings(grid, x, price, "b")
            assert a_dx == pytest.approx(x_da, abs=1e-12)

    def test_hand_computed_six_step_values(self):
        # Three-level time-of-use price sampled on 4-hour steps with a
        # synthetic pinned-endpoint deviation profile; both sums were
        # enumerated by hand: -0.12 each.
        grid = TimeGrid(dt_h=4.0, steps=6)
        price = np.array([0.12, 0.12, 0.14, 0.14, 0.16, 0.14])
        x = np.array([0.0, 1.0, 3.0, 2.0, 4.0, 1.0, 0.0])
        assert _storage_savings(grid, x, price, "a") == pytest.approx(-0.12 * STORAGE_C, abs=1e-12)
        assert _storage_savings(grid, x, price, "b") == pytest.approx(-0.12 * STORAGE_C, abs=1e-12)

    def test_unknown_mode_rejected(self):
        grid = TimeGrid(dt_h=1.0, steps=2)
        with pytest.raises(ValueError, match="form"):
            _storage_savings(grid, np.zeros(3), np.zeros(2), "dx_a")
