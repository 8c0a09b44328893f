"""LP solver, control-problem assembly, and optimizer properties."""

import dataclasses
import itertools

import numpy as np
import pytest

from crosszone import lp as lp_module
from crosszone.cli import _prepare_inputs
from crosszone.config import default_config
from crosszone.lp import (
    ComfortSchedule,
    InfeasibleControlError,
    KktResiduals,
    LpProblem,
    build_control_lp,
    kkt_residuals,
    optimize_controlled_zones,
    solve_lp,
)
from crosszone.model import Signal, ThermalNetwork, TimeGrid
from conftest import piecewise_constant_price, random_network
from crosszone.scenario import SetpointPlan, WeatherSeries, run_baseline, run_experiment


def small_cfg(steps=96):
    return dataclasses.replace(default_config(), grid=TimeGrid(0.25, steps))


class TestComfortSchedule:
    def test_default_study_windows(self):
        grid = TimeGrid(0.25, 96)
        sched = ComfortSchedule.from_bands(grid, 1.0, 2.0, [(6, 9), (18, 22)])
        hod = grid.step_hours_of_day()
        assert np.all(sched.delta_c[(hod >= 6) & (hod < 9)] == 1.0)
        assert np.all(sched.delta_c[(hod >= 18) & (hod < 22)] == 1.0)
        assert np.all(sched.delta_c[(hod < 6) | ((hod >= 9) & (hod < 18)) | (hod >= 22)] == 2.0)

    def test_wrapping_window(self):
        grid = TimeGrid(1.0, 24)
        sched = ComfortSchedule.from_bands(grid, 0.5, 2.0, [(22, 6)])
        assert sched.delta_c[23] == 0.5 and sched.delta_c[3] == 0.5 and sched.delta_c[12] == 2.0

    def test_whole_day_and_empty_windows(self):
        grid = TimeGrid(0.25, 96)
        assert np.all(ComfortSchedule.from_bands(grid, 1.0, 2.0, [(6, 30)]).delta_c == 1.0)
        with pytest.raises(ValueError, match="empty"):
            ComfortSchedule.from_bands(grid, 1.0, 2.0, [(6, 6)])

    def test_rejects_negative_band(self):
        with pytest.raises(ValueError):
            ComfortSchedule(np.array([1.0, -0.5]))


def facet_lp():
    # minimize -x - y subject to x + y + s = 1, x,y in [0,1], s >= 0
    return LpProblem(
        c=[-1.0, -1.0, 0.0],
        a_eq=[[1.0, 1.0, 1.0]],
        b_eq=[1.0],
        lower=[0.0, 0.0, 0.0],
        upper=[1.0, 1.0, np.inf],
    )


def vertex_enumeration_minimum(c, lines, box):
    """Brute-force 2-variable oracle: evaluate every intersection of the
    active-constraint candidates, keep feasible points, take the best."""
    candidates = []
    constraints = list(lines)
    for lo, hi, axis in box:
        e = [0.0, 0.0]
        e[axis] = 1.0
        constraints.append((e, lo))
        constraints.append((e, hi))
    for (a1, b1), (a2, b2) in itertools.combinations(constraints, 2):
        mat = np.array([a1, a2])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        pt = np.linalg.solve(mat, [b1, b2])
        ok = all(
            np.dot(a, pt) <= b + 1e-9 for a, b in lines
        ) and all(box[axis][0] - 1e-9 <= pt[axis] <= box[axis][1] + 1e-9 for axis in (0, 1))
        if ok:
            candidates.append(float(np.dot(c, pt)))
    return min(candidates)


class TestSolveLp:
    def test_single_bound(self):
        prob = LpProblem(c=[1.0], a_eq=np.zeros((0, 1)), b_eq=[], lower=[1.0], upper=[np.inf])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.objective == pytest.approx(1.0, abs=1e-12)

    def test_facet_optimum_matches_vertex_enumeration(self):
        sol = solve_lp(facet_lp())
        assert sol.status == "optimal"
        oracle = vertex_enumeration_minimum(
            [-1.0, -1.0], [([1.0, 1.0], 1.0)], [(0.0, 1.0, 0), (0.0, 1.0, 1)]
        )
        assert sol.objective == pytest.approx(oracle, abs=1e-10)
        assert sol.x[0] + sol.x[1] == pytest.approx(1.0, abs=1e-10)

    def test_contradictory_bounds_certificate(self):
        prob = LpProblem(c=[1.0], a_eq=np.zeros((0, 1)), b_eq=[], lower=[2.0], upper=[1.0])
        sol = solve_lp(prob)
        assert sol.status == "infeasible"
        assert sol.certificate.kind == "bounds"
        assert sol.certificate.gap == pytest.approx(1.0)

    def test_row_infeasibility_yields_farkas_gap(self):
        prob = LpProblem(c=[0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[2.0], lower=[0.0, 0.0], upper=[0.5, 0.5])
        sol = solve_lp(prob)
        assert sol.status == "infeasible"
        cert = sol.certificate
        assert cert.kind == "rows"
        # Certificate check: y.b must exceed max over the box of y.Ax.
        aty = prob.a_eq.T @ cert.y
        sup = float(np.where(aty > 0, aty * prob.upper, aty * prob.lower).sum())
        assert float(prob.b_eq @ cert.y) - sup == pytest.approx(cert.gap)
        assert cert.gap > 1e-9

    def test_all_zero_row_consistent_is_optimal(self):
        prob = LpProblem(c=[1.0, -1.0], a_eq=[[0.0, 0.0]], b_eq=[0.0], lower=[0.0, 0.0], upper=[1.0, 2.0])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        np.testing.assert_array_equal(sol.x, [0.0, 2.0])
        assert sol.objective == -2.0

    @pytest.mark.parametrize("b", [1.0, -1.0])
    def test_all_zero_row_inconsistent_is_infeasible(self, b):
        prob = LpProblem(c=[1.0, -1.0], a_eq=[[0.0, 0.0]], b_eq=[b], lower=[0.0, 0.0], upper=[1.0, 2.0])
        sol = solve_lp(prob)
        assert sol.status == "infeasible"
        assert sol.certificate.kind == "rows"
        assert sol.certificate.gap == 1.0
        np.testing.assert_array_equal(sol.certificate.y, [b])

    def test_unbounded(self):
        prob = LpProblem(c=[-1.0], a_eq=np.zeros((0, 1)), b_eq=[], lower=[0.0], upper=[np.inf])
        assert solve_lp(prob).status == "unbounded"

    @pytest.mark.parametrize("retry_status", ["iteration-limit", "unbounded"])
    def test_kkt_retry_reports_its_own_status(self, monkeypatch, retry_status):
        # The first KKT check fails, forcing a re-run of the optimality
        # phase; a re-run that stops early must not come back "optimal".
        real_run_phase = lp_module._Simplex.run_phase
        real_kkt = lp_module.kkt_residuals
        phases = []
        checks = []

        def run_phase(self, *args, **kwargs):
            phases.append(None)
            if len(phases) == 3:
                return retry_status
            return real_run_phase(self, *args, **kwargs)

        def kkt(*args):
            checks.append(None)
            if len(checks) == 1:
                return KktResiduals(primal=1.0, dual=0.0, complementarity=0.0)
            return real_kkt(*args)

        monkeypatch.setattr(lp_module._Simplex, "run_phase", run_phase)
        monkeypatch.setattr(lp_module, "kkt_residuals", kkt)
        sol = solve_lp(facet_lp())
        assert len(phases) == 3
        assert sol.status == retry_status
        assert sol.x is None

    def test_iteration_limit_reported(self):
        sol = solve_lp(facet_lp(), max_iter=0)
        assert sol.status == "iteration-limit"

    def test_fixed_variables_handled(self):
        prob = LpProblem(
            c=[1.0, 1.0],
            a_eq=[[1.0, 1.0]],
            b_eq=[3.0],
            lower=[2.0, 0.0],
            upper=[2.0, 10.0],
        )
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [2.0, 1.0], atol=1e-10)

    def test_kkt_checker_detects_bad_points(self):
        prob = facet_lp()
        sol = solve_lp(prob)
        good = kkt_residuals(prob, sol.x, sol.y)
        assert good.max() <= 1e-8
        bad = kkt_residuals(prob, sol.x + 0.1, sol.y)
        assert bad.max() > 1e-3

    def test_random_problems_match_scipy(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(42)
        for trial in range(25):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(m + 1, 20))
            a = rng.uniform(-2, 2, (m, n))
            lo = rng.uniform(-3, 0, n)
            hi = lo + rng.uniform(0.5, 4, n)
            x0 = rng.uniform(lo, hi)
            b = a @ x0
            c = rng.uniform(-1, 1, n)
            prob = LpProblem(c=c, a_eq=a, b_eq=b, lower=lo, upper=hi)
            sol = solve_lp(prob)
            ref = scipy_opt.linprog(
                c, A_eq=a, b_eq=b, bounds=list(zip(lo, hi)), method="highs"
            )
            assert sol.status == "optimal"
            assert ref.status == 0
            assert sol.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-8)
            assert sol.residuals.max() <= 1e-8

    def test_free_variable_follows_bounded_partner(self):
        # x free, tied to y in [2, 5] by an equality row.
        prob = LpProblem(
            c=[1.0, 0.0],
            a_eq=[[1.0, -1.0]],
            b_eq=[0.0],
            lower=[-np.inf, 2.0],
            upper=[np.inf, 5.0],
        )
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [2.0, 2.0], atol=1e-10)

    def test_redundant_rows_still_solved(self):
        # A duplicated equality row leaves an artificial basic at zero
        # after the feasibility phase; the optimality phase must cope.
        rng = np.random.default_rng(19)
        a_row = rng.uniform(-1, 1, 6)
        a = np.vstack([a_row, 2.0 * a_row, rng.uniform(-1, 1, 6)])
        lo = np.zeros(6)
        hi = np.full(6, 2.0)
        x0 = rng.uniform(0, 2, 6)
        prob = LpProblem(c=rng.uniform(-1, 1, 6), a_eq=a, b_eq=a @ x0, lower=lo, upper=hi)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.residuals.max() <= 1e-8

    def test_degenerate_problem_terminates(self):
        # Many coinciding basic feasible points; Bland fallback must exit.
        n = 12
        a = np.ones((1, n))
        prob = LpProblem(
            c=np.linspace(-1.0, -0.1, n),
            a_eq=a,
            b_eq=[0.0],
            lower=np.zeros(n),
            upper=np.full(n, 1.0),
        )
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-10)


class TestSparseStorage:
    """The simplex's triplet helpers against dense products with [A | diag(sign)]."""

    @staticmethod
    def random_simplex(rng, m):
        n = int(rng.integers(1, 12))
        a = rng.uniform(-2, 2, (m, n))
        a[rng.random((m, n)) < 0.5] = 0.0
        a[rng.random((m, n)) < 0.2] = -0.0
        lo = rng.uniform(-3, 0, n)
        prob = LpProblem(c=rng.uniform(-1, 1, n), a_eq=a, b_eq=rng.normal(size=m), lower=lo, upper=lo + 2.0)
        sim = lp_module._Simplex(prob)
        full = np.hstack([prob.a_eq, np.diag(sim.sign)])
        # Swap random structural columns into the basis while it stays nonsingular.
        for j in rng.permutation(n)[:m]:
            trial = sim.basis.copy()
            trial[rng.integers(m)] = j
            if j not in sim.basis and np.linalg.matrix_rank(full[:, trial]) == m:
                sim.basis = trial
        sim.refactor()
        return sim, full

    @pytest.mark.parametrize("m", range(9))
    def test_helpers_match_dense_products(self, m):
        rng = np.random.default_rng(m)
        for _ in range(20):
            sim, full = self.random_simplex(rng, m)
            np.testing.assert_array_equal(sim._basis_matrix(), full[:, sim.basis])
            y = rng.normal(size=m)
            np.testing.assert_allclose(sim._price(y), full.T @ y, rtol=0, atol=1e-13)
            v = rng.normal(size=full.shape[1])
            np.testing.assert_allclose(sim._times(v), full @ v, rtol=0, atol=1e-13)
            for j in range(full.shape[1]):
                np.testing.assert_allclose(sim._column(j), sim.b_inv @ full[:, j], rtol=0, atol=1e-13)


def random_control_lp(rng, m, k, dt_h=0.25, zero_band=False):
    """Control LP on a random 3-6-zone network with equal setpoints.

    The outdoors stays below the setpoint and each zone's gains stay under
    its outdoor loss, so holding every zone at its setpoint is feasible
    with nonnegative power.
    """
    n = int(rng.integers(max(3, m), 7))
    net = random_network(rng, n)
    ctrl = tuple(int(z) for z in rng.choice(np.arange(1, n + 1), size=m, replace=False))
    plan = SetpointPlan(np.full(n, 21.0), ctrl)
    outdoor = rng.uniform(-15.0, 0.0, k)
    gains = rng.uniform(0.0, 0.5, (k, n)) * net.conductances_kw_per_c[1:, 0] * 21.0
    band = np.zeros(k) if zero_band else rng.uniform(0.5, 2.0, k)
    price = piecewise_constant_price(rng, k)
    return build_control_lp(net, plan, TimeGrid(dt_h, k), price, ComfortSchedule(band), gains, outdoor)


class TestControlLpAgainstHighs:
    CASES = [(m, k, 0.25, False) for m in (1, 2, 3) for k in (24, 48, 96)] + [
        (2, 48, 0.25, True),  # zero band: every temperature fixed, degenerate pivots
        (2, 24, 4.0, False),  # stiff: 4 h steps
    ]

    @pytest.mark.parametrize(
        "case", range(len(CASES)), ids=[f"m{m}-K{k}-dt{dt}" + ("-zero-band" if zb else "") for m, k, dt, zb in CASES]
    )
    def test_objective_matches_highs(self, case):
        scipy_opt = pytest.importorskip("scipy.optimize")
        prob = random_control_lp(np.random.default_rng([7, case]), *self.CASES[case])
        sol = solve_lp(prob)
        ref = scipy_opt.linprog(
            prob.c, A_eq=prob.a_eq, b_eq=prob.b_eq, bounds=list(zip(prob.lower, prob.upper)), method="highs"
        )
        assert sol.status == "optimal"
        assert ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-9 * abs(ref.fun)
        assert sol.residuals.max() <= 1e-8


class TestBuildControlLp:
    def test_single_step_dimension_count(self, two_zone_network):
        grid = TimeGrid(0.25, 1)
        plan = SetpointPlan([21.0, 21.0], (1,))
        prob = build_control_lp(
            two_zone_network,
            plan,
            grid,
            Signal([0.05]),
            ComfortSchedule(np.array([1.0])),
            np.zeros((1, 2)),
            Signal([-5.0]),
        )
        assert prob.n_vars == 3  # T(0), T(1), q(0)
        assert prob.n_rows == 3  # one dynamics row, two boundary rows
        assert prob.lower[2] == 0.0 and prob.upper[2] == np.inf
        assert prob.names == ("T1[0]", "T1[1]", "q1[0]")

    def test_objective_prices_energy(self, two_zone_network):
        grid = TimeGrid(0.5, 2)
        plan = SetpointPlan([21.0, 21.0], (1,))
        prob = build_control_lp(
            two_zone_network,
            plan,
            grid,
            Signal([0.05, 0.08]),
            ComfortSchedule(np.array([1.0, 1.0])),
            np.zeros((2, 2)),
            Signal([-5.0, -5.0]),
        )
        np.testing.assert_allclose(prob.c, [0, 0, 0, 0.5 * 0.05, 0.5 * 0.08])

    def test_zero_band_pins_temperatures(self, two_zone_network):
        grid = TimeGrid(0.25, 4)
        plan = SetpointPlan([21.0, 21.0], (1,))
        prob = build_control_lp(
            two_zone_network,
            plan,
            grid,
            Signal(np.full(4, 0.05)),
            ComfortSchedule(np.zeros(4)),
            np.zeros((4, 2)),
            Signal(np.full(4, -5.0)),
        )
        assert np.all(prob.lower[:5] == 21.0)
        assert np.all(prob.upper[:5] == 21.0)


class TestOptimizeControlledZones:
    @pytest.mark.parametrize("zones", [1, 3])
    def test_plan_zone_count_must_match_network(self, zones):
        # Fewer or more plan zones than network zones is refused before any LP is built.
        cfg = small_cfg(steps=8)
        weather, gains, price = _prepare_inputs(cfg)
        plan = SetpointPlan([21.0] * zones, (1,))
        with pytest.raises(ValueError, match=f"plan covers {zones} zones, network has 2"):
            optimize_controlled_zones(
                cfg.network, plan, cfg.grid, price, cfg.comfort(), gains[:, [0] * zones], weather.outdoor
            )

    def test_zero_band_reproduces_baseline_cost(self):
        cfg = small_cfg()
        cfg = dataclasses.replace(cfg, tight_band_c=0.0, wide_band_c=0.0)
        weather, gains, price = _prepare_inputs(cfg)
        opt = optimize_controlled_zones(
            cfg.network, cfg.plan, cfg.grid, price, cfg.comfort(), gains, weather.outdoor
        )
        base = run_baseline(cfg.network, cfg.plan, weather, gains, cfg.grid)
        baseline_cost = float(price.values @ base.powers_kw[:, 0]) * cfg.grid.dt_h
        assert abs(opt.objective_usd - baseline_cost) < 1e-9
        assert np.abs(opt.temps_c - 21.0).max() < 1e-9

    def test_positive_band_saves_money_and_certifies(self):
        cfg = small_cfg()
        weather, gains, price = _prepare_inputs(cfg)
        opt = optimize_controlled_zones(
            cfg.network, cfg.plan, cfg.grid, price, cfg.comfort(), gains, weather.outdoor
        )
        base = run_baseline(cfg.network, cfg.plan, weather, gains, cfg.grid)
        baseline_cost = float(price.values @ base.powers_kw[:, 0]) * cfg.grid.dt_h
        assert opt.objective_usd <= baseline_cost + 1e-12
        assert opt.solution.residuals.max() <= 1e-8
        exp = run_experiment(cfg.network, cfg.plan, weather, gains, cfg.grid, opt.q_kw)
        assert np.abs(exp.temps_c[:, [0]] - opt.temps_c).max() <= 1e-8

    def test_boundary_samples_pinned(self):
        cfg = small_cfg()
        weather, gains, price = _prepare_inputs(cfg)
        opt = optimize_controlled_zones(
            cfg.network, cfg.plan, cfg.grid, price, cfg.comfort(), gains, weather.outdoor
        )
        assert abs(opt.temps_c[0, 0] - 21.0) <= 1e-9
        assert abs(opt.temps_c[-1, 0] - 21.0) <= 1e-9

    def test_widening_band_never_costs_more(self):
        cfg = small_cfg(steps=96)
        weather, gains, price = _prepare_inputs(cfg)
        objectives = []
        for width in (0.0, 0.5, 1.0, 1.5, 2.0):
            cfg_w = dataclasses.replace(cfg, tight_band_c=width, wide_band_c=width)
            opt = optimize_controlled_zones(
                cfg_w.network, cfg_w.plan, cfg_w.grid, price, cfg_w.comfort(), gains, weather.outdoor
            )
            assert opt.solution.residuals.max() <= 1e-8
            objectives.append(opt.objective_usd)
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_rides_lower_band_and_preheats(self):
        # The optimum hugs the cheap side of the band and warms up ahead of
        # thermal-price step increases.
        cfg = small_cfg()
        weather, gains, price = _prepare_inputs(cfg)
        opt = optimize_controlled_zones(
            cfg.network, cfg.plan, cfg.grid, price, cfg.comfort(), gains, weather.outdoor
        )
        temps = opt.temps_c[:, 0]
        lower = 21.0 - cfg.comfort().delta_c
        interior = np.abs(temps[1:-1] - lower[1 : cfg.grid.steps]) < 1e-6
        assert interior.mean() > 0.6
        jumps = np.nonzero(np.diff(price.values) > 0.005)[0]
        assert jumps.size > 0
        for k in jumps:
            assert temps[k + 1] - lower[k + 1] > 0.3

    def test_two_controlled_zones_self_consistent(self):
        net = ThermalNetwork(
            [0.3, 0.5, 0.8],
            [
                [0.0, 0.03, 0.05, 0.08],
                [0.03, 0.0, 0.04, 0.02],
                [0.05, 0.04, 0.0, 0.03],
                [0.08, 0.02, 0.03, 0.0],
            ],
        )
        grid = TimeGrid(0.25, 48)
        plan = SetpointPlan([21.0, 20.0, 22.0], (1, 2))
        rng = np.random.default_rng(3)
        price = Signal(rng.uniform(0.03, 0.09, 48))
        comfort = ComfortSchedule(np.full(48, 1.5))
        gains = rng.uniform(0.0, 0.3, (48, 3))
        outdoor = Signal(rng.uniform(-12, 0, 48))
        opt = optimize_controlled_zones(net, plan, grid, price, comfort, gains, outdoor)
        assert opt.q_kw.shape == (48, 2)
        assert opt.solution.residuals.max() <= 1e-8
        weather = WeatherSeries(grid, outdoor, Signal(np.zeros(48)))
        exp = run_experiment(net, plan, weather, gains, grid, opt.q_kw)
        assert np.abs(exp.temps_c[:, [0, 1]] - opt.temps_c).max() <= 1e-8
        assert np.abs(opt.temps_c[0] - [21.0, 20.0]).max() <= 1e-9
        assert np.abs(opt.temps_c[-1] - [21.0, 20.0]).max() <= 1e-9

    def test_finite_power_cap_respected(self):
        cfg = small_cfg(steps=96)
        weather, gains, price = _prepare_inputs(cfg)
        cap = 2.0
        opt = optimize_controlled_zones(
            cfg.network, cfg.plan, cfg.grid, price, cfg.comfort(), gains, weather.outdoor,
            q_min_kw=0.0, q_max_kw=cap,
        )
        assert opt.q_kw.max() <= cap + 1e-9
        assert opt.q_kw.min() >= -1e-9
        assert opt.solution.residuals.max() <= 1e-8

    def test_impossible_power_limit_is_infeasible(self):
        cfg = small_cfg(steps=48)
        weather, gains, price = _prepare_inputs(cfg)
        with pytest.raises(InfeasibleControlError) as exc:
            optimize_controlled_zones(
                cfg.network,
                cfg.plan,
                cfg.grid,
                price,
                cfg.comfort(),
                gains,
                weather.outdoor,
                q_min_kw=0.0,
                q_max_kw=0.0,
            )
        assert exc.value.window_h is not None
