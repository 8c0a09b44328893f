"""LP solver, control-problem assembly, and optimizer properties."""

import dataclasses
import importlib.util
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crosszone import lp as lp_module
from crosszone.cli import _prepare_inputs
from crosszone.config import default_config
from crosszone.dynamics import controlled_subsystem
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
from crosszone.scenario import (
    CopCurve,
    GainSpec,
    SetpointPlan,
    Tariff,
    TariffPeriod,
    WeatherSeries,
    run_baseline,
    run_experiment,
    synthesize_gains,
    synthetic_weather,
    thermal_price,
)


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


def triplets(a):
    """(row, col, val) of a dense matrix's nonzeros, the form ``LpProblem`` takes."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    row, col = np.nonzero(a)
    return row, col, a[row, col]


def facet_lp():
    # minimize -x - y subject to x + y + s = 1, x,y in [0,1], s >= 0
    return LpProblem(
        c=[-1.0, -1.0, 0.0],
        nonzeros=triplets([[1.0, 1.0, 1.0]]),
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
        prob = LpProblem(c=[1.0], nonzeros=triplets(np.zeros((0, 1))), b_eq=[], lower=[1.0], upper=[np.inf])
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
        prob = LpProblem(c=[1.0], nonzeros=triplets(np.zeros((0, 1))), b_eq=[], lower=[2.0], upper=[1.0])
        sol = solve_lp(prob)
        assert sol.status == "infeasible"
        assert sol.certificate.kind == "bounds"
        assert sol.certificate.gap == pytest.approx(1.0)

    def test_row_infeasibility_yields_farkas_gap(self):
        prob = LpProblem(
            c=[0.0, 0.0],
            nonzeros=triplets([[1.0, 1.0]]),
            b_eq=[2.0],
            lower=[0.0, 0.0],
            upper=[0.5, 0.5],
        )
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
        prob = LpProblem(
            c=[1.0, -1.0],
            nonzeros=triplets([[0.0, 0.0]]),
            b_eq=[0.0],
            lower=[0.0, 0.0],
            upper=[1.0, 2.0],
        )
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        np.testing.assert_array_equal(sol.x, [0.0, 2.0])
        assert sol.objective == -2.0

    @pytest.mark.parametrize("b", [1.0, -1.0])
    def test_all_zero_row_inconsistent_is_infeasible(self, b):
        prob = LpProblem(c=[1.0, -1.0], nonzeros=triplets([[0.0, 0.0]]), b_eq=[b], lower=[0.0, 0.0], upper=[1.0, 2.0])
        sol = solve_lp(prob)
        assert sol.status == "infeasible"
        assert sol.certificate.kind == "rows"
        assert sol.certificate.gap == 1.0
        np.testing.assert_array_equal(sol.certificate.y, [b])

    def test_unbounded(self):
        prob = LpProblem(c=[-1.0], nonzeros=triplets(np.zeros((0, 1))), b_eq=[], lower=[0.0], upper=[np.inf])
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

    def test_failed_certificate_twice_is_uncertified(self, monkeypatch):
        failing = KktResiduals(primal=1.0, dual=0.0, complementarity=0.0)
        monkeypatch.setattr(lp_module, "kkt_residuals", lambda *args: failing)
        sol = solve_lp(facet_lp())
        assert sol.status == "uncertified"
        assert sol.x is None and sol.objective is None
        assert sol.residuals == failing
        assert str(failing) in sol.message

    def test_iteration_limit_reported(self):
        sol = solve_lp(facet_lp(), max_iter=0)
        assert sol.status == "iteration-limit"

    def test_fixed_variables_handled(self):
        prob = LpProblem(
            c=[1.0, 1.0],
            nonzeros=triplets([[1.0, 1.0]]),
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
            prob = LpProblem(c=c, nonzeros=triplets(a), b_eq=b, lower=lo, upper=hi)
            sol = solve_lp(prob)
            ref = scipy_opt.linprog(
                c, A_eq=a, b_eq=b, bounds=list(zip(lo, hi)), method="highs"
            )
            assert sol.status == "optimal"
            assert ref.status == 0
            assert sol.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-8)
            assert sol.residuals.max() <= 1e-8

    @pytest.mark.parametrize("pricing", ["default", "bland"])
    def test_random_free_and_one_sided_match_scipy(self, monkeypatch, pricing):
        # Some columns free, some with one infinite bound. Costs are A^T y0,
        # for a random y0, plus a reduced cost of the sign each column's
        # bounds allow (zero when free), so every problem is bounded.
        scipy_opt = pytest.importorskip("scipy.optimize")
        if pricing == "bland":
            monkeypatch.setattr(lp_module, "_DEGENERATE_RUN_LIMIT", -1)
        rng = np.random.default_rng(43)
        kinds_met = set()
        for trial in range(25):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(m + 1, 20))
            a = rng.uniform(-2, 2, (m, n))
            kind = rng.choice(["box", "free", "lower", "upper"], size=n, p=[0.4, 0.2, 0.2, 0.2])
            kinds_met.update(kind.tolist())
            lo = rng.uniform(-3, 0, n)
            hi = lo + rng.uniform(0.5, 4, n)
            x0 = rng.uniform(lo, hi)
            lo[(kind == "free") | (kind == "upper")] = -np.inf
            hi[(kind == "free") | (kind == "lower")] = np.inf
            reduced = rng.uniform(-1, 1, n)
            reduced[kind == "free"] = 0.0
            reduced[kind == "lower"] = np.abs(reduced[kind == "lower"])
            reduced[kind == "upper"] = -np.abs(reduced[kind == "upper"])
            c = a.T @ rng.uniform(-1, 1, m) + reduced
            b = a @ x0
            prob = LpProblem(c=c, nonzeros=triplets(a), b_eq=b, lower=lo, upper=hi)
            sol = solve_lp(prob)
            bounds = [(None if np.isinf(l) else l, None if np.isinf(h) else h) for l, h in zip(lo, hi)]
            ref = scipy_opt.linprog(c, A_eq=a, b_eq=b, bounds=bounds, method="highs")
            assert sol.status == "optimal"
            assert ref.status == 0
            assert sol.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-8)
            assert sol.residuals.max() <= 1e-8
        assert kinds_met == {"box", "free", "lower", "upper"}

    def test_free_variable_follows_bounded_partner(self):
        # x free, tied to y in [2, 5] by an equality row.
        prob = LpProblem(
            c=[1.0, 0.0],
            nonzeros=triplets([[1.0, -1.0]]),
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
        prob = LpProblem(c=rng.uniform(-1, 1, 6), nonzeros=triplets(a), b_eq=a @ x0, lower=lo, upper=hi)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.residuals.max() <= 1e-8

    def test_degenerate_problem_terminates(self):
        # Many coinciding basic feasible points; Bland fallback must exit.
        n = 12
        a = np.ones((1, n))
        prob = LpProblem(
            c=np.linspace(-1.0, -0.1, n),
            nonzeros=triplets(a),
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
        prob = LpProblem(
            c=rng.uniform(-1, 1, n),
            nonzeros=triplets(a),
            b_eq=rng.normal(size=m),
            lower=lo,
            upper=lo + 2.0,
        )
        sim = lp_module._Simplex(prob)
        full = np.hstack([prob.a_eq, np.diag(np.where(prob.a_eq @ lo <= prob.b_eq, 1.0, -1.0))])
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
            rows, cols, vals = sim._basis_triplets()
            basis_mat = np.zeros((m, m))
            basis_mat[rows, cols] = vals
            assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
            np.testing.assert_array_equal(basis_mat, full[:, sim.basis])
            y = rng.normal(size=m)
            np.testing.assert_allclose(sim._price(y), full.T @ y, rtol=0, atol=1e-13)
            v = rng.normal(size=full.shape[1])
            np.testing.assert_allclose(sim._times(v), full @ v, rtol=0, atol=1e-13)
            for j in range(full.shape[1]):
                np.testing.assert_allclose(sim._column(j), sim.b_inv @ full[:, j], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("case", ["builtin-study", "mixed-bounds"])
    def test_start_is_the_signed_artificial_basis(self, case):
        # Every column at a bound (a free one at 0); refactor gives B^-1 = S
        # and x_B = |b - A x_N| to the bit.
        if case == "builtin-study":
            prob = builtin_study_lp()
        else:
            prob = LpProblem(
                c=[1.0, -1.0, 0.0],
                nonzeros=triplets([[1.0, 2.0, 0.0], [0.0, 1.0, -3.0]]),
                b_eq=[1.0, 7.0],
                lower=[-np.inf, -np.inf, 0.0],
                upper=[np.inf, 2.0, 1.0],
            )
        x0 = np.where(np.isfinite(prob.lower), prob.lower, np.where(np.isfinite(prob.upper), prob.upper, 0.0))
        resid = prob.b_eq - prob.matvec(x0)
        sim = lp_module._Simplex(prob)
        np.testing.assert_array_equal(sim.basis, np.arange(prob.n_vars, prob.n_vars + prob.n_rows))
        np.testing.assert_array_equal(sim.b_inv, np.diag(np.where(resid >= 0, 1.0, -1.0)))
        np.testing.assert_array_equal(sim.x, np.concatenate([x0, np.abs(resid)]))


def random_control_inputs(rng, m, k, dt_h=0.25, zero_band=False):
    """``build_control_lp`` arguments for a random 3-6-zone network with equal setpoints.

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
    return net, plan, TimeGrid(dt_h, k), price, ComfortSchedule(band), gains, outdoor


def random_control_lp(rng, m, k, dt_h=0.25, zero_band=False):
    """Control LP of ``random_control_inputs``."""
    return build_control_lp(*random_control_inputs(rng, m, k, dt_h, zero_band))


class TestControlLpAgainstHighs:
    CASES = [(m, k, 0.25, False) for m in (1, 2, 3) for k in (24, 48, 96)] + [
        (2, 48, 0.25, True),  # zero band: every temperature fixed, degenerate pivots
        (2, 24, 4.0, False),  # stiff: 4 h steps
        (2, 24, 8.0, False),  # stiffer: 8, 24 and 12 h steps
        (3, 24, 24.0, False),
        (3, 48, 12.0, False),
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


def builtin_study_lp():
    """The built-in study's control LP (``default_config()``, gain seed 1)."""
    cfg = default_config()
    weather, gains, price = _prepare_inputs(cfg)
    return build_control_lp(
        cfg.network, cfg.plan, cfg.grid, price, cfg.comfort(), gains, weather.outdoor, cfg.q_min_kw, cfg.q_max_kw
    )


def dense_basis(sim):
    rows, cols, vals = sim._basis_triplets()
    mat = np.zeros((sim.m, sim.m))
    mat[rows, cols] = vals
    return mat


class TestRefactor:
    """The peeled triangular inverse against ``np.linalg.inv`` of the dense basis."""

    CASES = TestControlLpAgainstHighs.CASES
    IDS = ["builtin-study"] + [f"decoupled-m{m}-K{k}-dt{dt}" + ("-zero-band" if zb else "") for m, k, dt, zb in CASES]

    @staticmethod
    def bases_met(monkeypatch, prob):
        met = []
        real_refactor = lp_module._Simplex.refactor

        def refactor(sim):
            real_refactor(sim)
            met.append((dense_basis(sim), sim.b_inv.copy()))

        monkeypatch.setattr(lp_module._Simplex, "refactor", refactor)
        assert solve_lp(prob).status == "optimal"
        return met

    @pytest.mark.parametrize("case", ["builtin-study", "6-zone-3-controlled", "6-zone-3-controlled-K96"])
    def test_bases_met_while_solving(self, monkeypatch, case):
        if case == "builtin-study":
            prob = builtin_study_lp()
        elif case == "6-zone-3-controlled":
            prob = random_control_lp(np.random.default_rng([11, 5]), 3, 48)
            assert prob.a_eq.shape == (150, 291)
        else:
            prob = random_control_lp(np.random.default_rng([11, 5]), 3, 96)
            assert prob.a_eq.shape == (294, 579)
        met = self.bases_met(monkeypatch, prob)
        assert len(met) >= 3
        for basis_mat, b_inv in met:
            np.testing.assert_allclose(b_inv, np.linalg.inv(basis_mat), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", [None, *range(len(CASES))], ids=IDS)
    def test_time_walk_start_bases(self, case):
        # These bases peel in 2 to 98 rounds: 472, 8, 1 and 1 rows on the built-in study.
        if case is None:
            prob = builtin_study_lp()
        else:
            net, plan, *rest = random_control_inputs(np.random.default_rng([7, case]), *self.CASES[case])
            prob = build_control_lp(decoupled(net, plan), plan, *rest)
        sim = lp_module._Simplex(prob, prob.start)
        np.testing.assert_allclose(sim.b_inv, np.linalg.inv(dense_basis(sim)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("time_walk", [False, True], ids=["artificial-start", "time-walk-start"])
    def test_holds_one_inverse(self, time_walk):
        prob = builtin_study_lp()
        m = prob.n_rows
        tracemalloc.start()
        try:
            lp_module._Simplex(prob, prob.start if time_walk else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * m * m * 8

    def test_random_sparse_bases(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(300):
            m = int(rng.integers(1, 25))
            n = int(rng.integers(1, 2 * m + 2))
            a = rng.uniform(-2, 2, (m, n)) * (rng.random((m, n)) < rng.uniform(0.05, 0.6))
            prob = LpProblem(
                c=np.zeros(n),
                nonzeros=triplets(a),
                b_eq=rng.normal(size=m),
                lower=np.zeros(n),
                upper=np.ones(n),
            )
            sim = lp_module._Simplex(prob)
            sim.basis = rng.choice(n + m, size=m, replace=False)
            basis_mat = dense_basis(sim)
            if np.linalg.cond(basis_mat) > 1e3:
                continue
            sim.refactor()
            ref = np.linalg.inv(basis_mat)
            np.testing.assert_allclose(sim.b_inv, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))
            checked += 1
        assert checked >= 100

    @pytest.mark.parametrize(
        "a_eq",
        [
            [[1.0, 2.0], [0.0, 0.0]],  # two column singletons on one row
            [[1.0, 2.0], [2.0, 4.0]],  # singular kernel
            [[0.0, 1.0], [0.0, 0.0]],  # empty column
        ],
        ids=["shared-pivot-row", "singular-kernel", "empty-column"],
    )
    def test_singular_basis_raises(self, a_eq):
        prob = LpProblem(c=[0.0, 0.0], nonzeros=triplets(a_eq), b_eq=[1.0, 1.0], lower=[0.0, 0.0], upper=[1.0, 1.0])
        sim = lp_module._Simplex(prob)
        sim.basis = np.array([0, 1])
        with pytest.raises(np.linalg.LinAlgError):
            sim.refactor()


def multizone_mpc_lps(seed):
    """The five control LPs of perfbench's multizone-mpc workload at this seed."""
    spec = importlib.util.spec_from_file_location("bench_inputs", Path(__file__).parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rng = np.random.default_rng([seed, 2])
    lps = []
    for _ in range(5):
        case = inputs.multizone_case(rng)
        grid = TimeGrid(inputs.DT_H, case["steps"])
        weather = synthetic_weather(grid)
        gains = synthesize_gains(
            GainSpec(0.25, 0.01, 0.01, 0.10, case["gain_seed"]), weather, case["exterior_wall_m2"], case["floor_m2"]
        )
        tariff = Tariff(tuple(TariffPeriod(*period) for period in case["tariff"]))
        price = thermal_price(tariff, CopCurve(-15.0, 1.8, 8.3, 3.3, 1.0), weather.outdoor, grid)
        comfort = ComfortSchedule.from_bands(grid, inputs.TIGHT_BAND_C, inputs.WIDE_BAND_C, list(inputs.TIGHT_WINDOWS))
        net = ThermalNetwork(case["caps"], case["alpha"])
        plan = SetpointPlan(case["setpoints"], case["controlled"])
        lps.append(build_control_lp(net, plan, grid, price, comfort, gains, weather.outdoor))
    return lps


class TestBlockTriangularInverse:
    """The kernel's inverse by blocks against ``np.linalg.inv`` of the dense matrix."""

    @staticmethod
    def lapack_shapes(monkeypatch):
        """Record the shape of every matrix given to ``np.linalg.inv`` or ``solve``."""
        shapes = []
        for name in ("inv", "solve"):

            def record(a, *rest, real=getattr(np.linalg, name)):
                shapes.append(a.shape)
                return real(a, *rest)

            monkeypatch.setattr(lp_module.np.linalg, name, record)
        return shapes

    def test_random_permuted_block_triangular(self, monkeypatch):
        rng = np.random.default_rng(29)
        real_inv = np.linalg.inv
        shapes = self.lapack_shapes(monkeypatch)
        for _ in range(30):
            sizes = rng.integers(1, 41, size=int(rng.integers(1, 9)))
            p = int(sizes.sum())
            mat = np.zeros((p, p))
            ends = np.cumsum(sizes)
            for s, end in zip(sizes, ends):
                start = end - s
                mat[start:end, start:end] = rng.uniform(-1, 1, (s, s)) * (rng.random((s, s)) < 0.3) + 4.0 * np.eye(s)
                mat[start:end, end:] = rng.uniform(-1, 1, (s, p - end)) * (rng.random((s, p - end)) < 0.05)
            mat = mat[rng.permutation(p)][:, rng.permutation(p)]
            rows, cols = np.nonzero(mat)
            shapes.clear()
            y, order = lp_module._block_triangular_inverse(rows, cols, mat[rows, cols], p)
            assert max((shape[-1] for shape in shapes), default=1) <= sizes.max()
            got = np.empty_like(y)
            got[order] = y
            ref = real_inv(mat)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_no_perfect_matching_raises(self):
        # Columns 0 and 1 have their only entries in row 0.
        rows, cols = np.array([0, 0, 1, 2]), np.array([0, 1, 2, 2])
        with pytest.raises(np.linalg.LinAlgError):
            lp_module._block_triangular_inverse(rows, cols, np.ones(4), 3)

    def test_singular_diagonal_block_raises(self):
        # A 1 x 1 block above the singular 2 x 2 block [[1, 2], [2, 4]].
        mat = np.array([[3.0, 1.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 4.0]])
        rows, cols = np.nonzero(mat)
        with pytest.raises(np.linalg.LinAlgError):
            lp_module._block_triangular_inverse(rows, cols, mat[rows, cols], 3)

    def test_multizone_lapack_calls_stay_within_blocks(self, monkeypatch):
        """No LAPACK call while planning sees more than the kernel's largest diagonal block.

        The blocks are found independently: a zero-cost assignment on the
        nonzeros is a perfect matching, and scipy's strongly connected
        components of the matched graph are the blocks.
        """
        scipy_opt = pytest.importorskip("scipy.optimize")
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        sparse = pytest.importorskip("scipy.sparse")

        def largest_block(rows, cols, p):
            cost = np.ones((p, p))
            cost[rows, cols] = 0.0
            row, col = scipy_opt.linear_sum_assignment(cost)
            assert cost[row, col].sum() == 0.0
            matched_row = np.empty(p, dtype=int)
            matched_row[col] = row
            mat = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(p, p))
            _, label = csgraph.connected_components(mat[matched_row], directed=True, connection="strong")
            return int(np.bincount(label).max())

        lps = multizone_mpc_lps(3)
        shapes = self.lapack_shapes(monkeypatch)
        kernels = []  # (rows, largest diagonal block, largest LAPACK matrix)
        real = lp_module._block_triangular_inverse

        def block_inverse(rows, cols, vals, p):
            assert not shapes  # nothing else in the solve calls LAPACK
            inverse = real(rows, cols, vals, p)
            kernels.append((p, largest_block(rows, cols, p), max((shape[-1] for shape in shapes), default=1)))
            shapes.clear()
            return inverse

        monkeypatch.setattr(lp_module, "_block_triangular_inverse", block_inverse)
        for prob in lps:
            assert solve_lp(prob).status == "optimal"
        assert not shapes
        assert max(p for p, _, _ in kernels) == 582
        for p, block, lapack in kernels:
            assert lapack <= block


class TestBuiltinStudyPivotPath:
    """The built-in study's LP keeps the pivot path of the dense-inverse simplex."""

    def test_pivot_count_and_objective_bits(self):
        sol = solve_lp(builtin_study_lp())
        assert sol.status == "optimal"
        assert sol.iterations == 1087
        assert sol.objective.hex() == "0x1.300fbc9e71383p+3"

    def test_each_phase_ends_on_exact_duals(self, monkeypatch):
        """Per-pivot dual updates drift; a phase stops only on y = B^-T c_B recomputed."""
        ends = []
        real_run_phase = lp_module._Simplex.run_phase

        def run_phase(sim, c_phase, *args, **kwargs):
            status = real_run_phase(sim, c_phase, *args, **kwargs)
            ends.append((sim.y.copy(), sim.b_inv.T @ c_phase[sim.basis]))
            return status

        monkeypatch.setattr(lp_module._Simplex, "run_phase", run_phase)
        sol = solve_lp(builtin_study_lp())
        assert sol.status == "optimal"
        assert len(ends) == 2
        for y, exact in ends:
            np.testing.assert_array_equal(y, exact)
        np.testing.assert_allclose(sol.y, ends[-1][1], rtol=0, atol=1e-12)

    def test_planning_walks_to_the_same_vertex(self):
        cfg = default_config()
        weather, gains, price = _prepare_inputs(cfg)
        opt = optimize_controlled_zones(
            cfg.network, cfg.plan, cfg.grid, price, cfg.comfort(), gains, weather.outdoor, cfg.q_min_kw, cfg.q_max_kw
        )
        assert opt.solution.iterations <= 50
        assert opt.objective_usd.hex() == "0x1.300fbc9e71383p+3"
        np.testing.assert_array_equal(opt.solution.x, solve_lp(builtin_study_lp()).x)

    def test_no_dense_inverse(self, monkeypatch):
        prob = builtin_study_lp()
        calls = []
        real_inv = np.linalg.inv
        monkeypatch.setattr(lp_module.np.linalg, "inv", lambda a: calls.append(a.shape) or real_inv(a))
        assert solve_lp(prob).status == "optimal"
        assert calls == []


class TestCoupledZonesPivotPath:
    """Pivot counts and objective bits of coupled-zone LPs, measured with numpy 2.4.6 on x86-64."""

    @pytest.mark.parametrize(
        "case, bland_only, pivots, objective",
        [
            (5, False, 282, "0x1.3f0bb0572c9d7p+0"),
            (8, False, 320, "0x1.65f394d3a7feap+0"),
            (9, False, 96, "0x1.56a15f7b5ed7bp-2"),
            (10, False, 58, "0x1.7bb1058d2a66ap+1"),
            (5, True, 481, "0x1.3f0bb0572c9d9p+0"),
            (8, True, 1182, "0x1.65f394d3a7fe8p+0"),
        ],
    )
    def test_pivot_count_and_objective_bits(self, monkeypatch, case, bland_only, pivots, objective):
        if bland_only:
            monkeypatch.setattr(lp_module, "_DEGENERATE_RUN_LIMIT", -1)
        prob = random_control_lp(np.random.default_rng([7, case]), *TestControlLpAgainstHighs.CASES[case])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert (sol.iterations, sol.objective.hex()) == (pivots, objective)


def highs_objective(prob):
    """HiGHS's optimal objective of ``prob``; skips without scipy."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    ref = scipy_opt.linprog(
        prob.c, A_eq=prob.a_eq, b_eq=prob.b_eq, bounds=list(zip(prob.lower, prob.upper)), method="highs"
    )
    assert ref.status == 0
    return ref.fun


def decoupled(net, plan):
    """``net`` with the conductances between the plan's controlled zones cut."""
    alpha = net.conductances_kw_per_c.copy()
    ctrl = np.asarray(plan.controlled)
    alpha[np.ix_(ctrl, ctrl)] = 0.0
    return ThermalNetwork(net.capacitances_kwh_per_c, alpha)


def assert_same_solution(got, want):
    assert (got.status, got.iterations, got.objective.hex()) == (want.status, want.iterations, want.objective.hex())
    np.testing.assert_array_equal(got.x, want.x)


class TestTimeWalkStart:
    """Planning solves from a start walked forward in time when no two controlled zones share a conductance."""

    CASES = TestControlLpAgainstHighs.CASES
    IDS = [f"m{m}-K{k}-dt{dt}" + ("-zero-band" if zb else "") for m, k, dt, zb in CASES]

    @pytest.mark.parametrize("case", range(len(CASES)), ids=IDS)
    def test_planning_matches_highs(self, case):
        inputs = random_control_inputs(np.random.default_rng([7, case]), *self.CASES[case])
        opt = optimize_controlled_zones(*inputs)
        ref = highs_objective(build_control_lp(*inputs))
        assert abs(opt.objective_usd - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("case", range(len(CASES)), ids=IDS)
    def test_decoupled_zones_certified_in_fewer_pivots(self, case):
        net, plan, *rest = random_control_inputs(np.random.default_rng([7, case]), *self.CASES[case])
        inputs = (decoupled(net, plan), plan, *rest)
        prob = build_control_lp(*inputs)
        opt = optimize_controlled_zones(*inputs)
        assert kkt_residuals(prob, opt.solution.x, opt.solution.y).max() <= 1e-8
        assert opt.solution.iterations <= solve_lp(prob).iterations
        ref = highs_objective(prob)
        assert abs(opt.objective_usd - ref) <= 1e-9 * abs(ref)

    def test_coupled_zones_keep_the_artificial_start(self, monkeypatch):
        starts = []
        real_solve = lp_module.solve_lp

        def solve(prob, **kwargs):
            starts.append(kwargs)
            return real_solve(prob, **kwargs)

        monkeypatch.setattr(lp_module, "solve_lp", solve)
        net, plan, *rest = random_control_inputs(np.random.default_rng([7, 8]), 3, 24)
        assert net.conductances_kw_per_c[np.ix_(plan.controlled, plan.controlled)].any()
        optimize_controlled_zones(net, plan, *rest)
        optimize_controlled_zones(decoupled(net, plan), plan, *rest)
        assert [kwargs["start"] is None for kwargs in starts] == [True, False]

    def test_singular_start_falls_back(self):
        prob = builtin_study_lp()
        basis, x = (v.copy() for v in prob.start)
        basis[1] = basis[0]  # two rows name one column
        with pytest.raises(np.linalg.LinAlgError):
            lp_module._Simplex(prob, (basis, x))
        assert_same_solution(solve_lp(prob, start=(basis, x)), solve_lp(prob))

    def test_start_outside_its_bounds_falls_back(self):
        prob = builtin_study_lp()
        k, n_temp = 480, 481
        basis, x = (v.copy() for v in prob.start)
        # A row whose T(s + 1) drifts well inside its band: q(s) basic in its
        # place, holding T(s + 1) at the lower band, must be negative.
        s = next(s for s in range(k) if basis[s] == s + 1 and x[s + 1] > prob.lower[s + 1] + 0.1)
        basis[s], x[s + 1] = n_temp + s, prob.lower[s + 1]
        with pytest.raises(ValueError, match="bounds"):
            lp_module._Simplex(prob, (basis, x))
        assert_same_solution(solve_lp(prob, start=(basis, x)), solve_lp(prob))


def dense_control_matrix(net, plan, grid, gains):
    """The control LP's equality matrix, assembled entry by entry."""
    k, mz = grid.steps, plan.m
    sub, _ = controlled_subsystem(net, grid, plan.controlled, plan.setpoints_c, gains)
    n_temp = mz * (k + 1)
    a = np.zeros((mz * k + 2 * mz, n_temp + mz * k))
    for step in range(k):
        for pos in range(mz):
            row = step * mz + pos
            a[row, pos * (k + 1) + step + 1] = 1.0
            for pos2 in range(mz):
                a[row, pos2 * (k + 1) + step] -= sub.phi[pos, pos2]
                a[row, n_temp + pos2 * k + step] -= sub.gamma_q[pos, pos2]
    for pos in range(mz):
        a[mz * k + 2 * pos, pos * (k + 1)] = 1.0
        a[mz * k + 2 * pos + 1, pos * (k + 1) + k] = 1.0
    return a


class TestLpProblemNonzeros:
    """The equality matrix kept as its nonzeros."""

    def test_nonzeros_sorted_by_column_with_zeros_dropped(self):
        prob = LpProblem(
            c=[0.0, 0.0, 0.0],
            b_eq=[1.0, 2.0],
            lower=np.zeros(3),
            upper=np.ones(3),
            nonzeros=([1, 0, 1, 0], [2, 2, 0, 1], [5.0, 0.0, -1.0, 3.0]),
        )
        assert (prob.row.tolist(), prob.col.tolist(), prob.val.tolist()) == ([1, 0, 1], [0, 1, 2], [-1.0, 3.0, 5.0])
        np.testing.assert_array_equal(prob.a_eq, [[0.0, 3.0, 0.0], [-1.0, 0.0, 5.0]])

    @pytest.mark.parametrize(
        "nonzeros, match",
        [
            (([0, 0], [1, 1], [1.0, 2.0]), "repeat"),
            (([2], [0], [1.0]), "outside"),
            (([-1], [0], [1.0]), "outside"),
            (([0], [3], [1.0]), "outside"),
            (([0], [0], [np.inf]), "finite"),
        ],
        ids=["repeated-pair", "row-past-end", "negative-row", "col-past-end", "infinite"],
    )
    def test_bad_nonzeros_rejected(self, nonzeros, match):
        with pytest.raises(ValueError, match=match):
            LpProblem(c=np.zeros(3), b_eq=np.zeros(2), lower=np.zeros(3), upper=np.ones(3), nonzeros=nonzeros)

    @pytest.mark.parametrize("m, k", [(1, 4), (3, 24)])
    def test_control_matrix_matches_dense_assembly(self, m, k):
        net, plan, grid, price, comfort, gains, outdoor = random_control_inputs(np.random.default_rng([13, m]), m, k)
        prob = build_control_lp(net, plan, grid, price, comfort, gains, outdoor)
        assert np.all(prob.val != 0.0)
        np.testing.assert_array_equal(prob.a_eq, dense_control_matrix(net, plan, grid, gains))

    @staticmethod
    def dense_products(monkeypatch):
        monkeypatch.setattr(LpProblem, "matvec", lambda prob, x: prob.a_eq @ x)
        monkeypatch.setattr(LpProblem, "rmatvec", lambda prob, y: prob.a_eq.T @ y)

    @pytest.mark.parametrize("case", [5, 8, 10])
    def test_kkt_residuals_match_dense_products(self, monkeypatch, case):
        prob = random_control_lp(np.random.default_rng([7, case]), *TestControlLpAgainstHighs.CASES[case])
        sol = solve_lp(prob)
        rng = np.random.default_rng(case)
        points = [(sol.x, sol.y), (sol.x + rng.normal(0, 0.1, prob.n_vars), sol.y + rng.normal(0, 1, prob.n_rows))]
        ours = [kkt_residuals(prob, x, y) for x, y in points]
        self.dense_products(monkeypatch)
        for res, (x, y) in zip(ours, points):
            ref = kkt_residuals(prob, x, y)
            for name in ("primal", "dual", "complementarity"):
                assert abs(getattr(res, name) - getattr(ref, name)) <= 1e-15 * max(1.0, getattr(ref, name))

    def test_farkas_matches_dense_products(self, monkeypatch):
        net, plan, grid, price, comfort, gains, outdoor = random_control_inputs(np.random.default_rng([7, 5]), 2, 48)
        prob = build_control_lp(net, plan, grid, price, comfort, gains, outdoor, q_min_kw=0.0, q_max_kw=0.0)
        met = []
        real = lp_module._farkas
        monkeypatch.setattr(lp_module, "_farkas", lambda sim, p: met.append(sim) or real(sim, p))
        sol = solve_lp(prob)
        assert sol.status == "infeasible" and len(met) == 1
        self.dense_products(monkeypatch)
        ref = real(met[0], prob)
        np.testing.assert_array_equal(sol.certificate.y, ref.y)
        assert sol.certificate.gap > 0
        assert abs(sol.certificate.gap - ref.gap) <= 1e-15 * ref.gap


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

    def test_planning_never_reads_the_dense_matrix(self, monkeypatch):
        reads = []
        dense = LpProblem.a_eq
        monkeypatch.setattr(LpProblem, "a_eq", property(lambda prob: reads.append(prob) or dense.fget(prob)))
        opt = optimize_controlled_zones(*random_control_inputs(np.random.default_rng([7, 8]), 3, 96))
        assert opt.solution.status == "optimal"
        assert reads == []
        facet_lp().a_eq
        assert len(reads) == 1

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
