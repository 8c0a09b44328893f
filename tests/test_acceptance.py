"""Acceptance suite: one test per release criterion, each printing a
PASS line (visible with -s / in captured output).

Criteria:
 1. randomized savings-identity suite (>=200 cases, < 30 s)
 2. interior-zone nullity under uniform constant prices
 3. constant-price two-zone error ratio = 2 exactly
 4. built-in example: signs, identity, relative error in [1.7, 2.2]
 5. geometry closed forms
 6. exact discretization vs scalar formula and fine-Euler oracle
 7. optimizer: KKT certificates, zero-band equality, band monotonicity
 8. byte-identical reruns with a fixed seed
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from conftest import euler_simulate, perturbed_pair, piecewise_constant_price, random_network

from crosszone.cli import _prepare_inputs, main
from crosszone.config import default_config
from crosszone.dynamics import discretize, simulate
from crosszone.estimator import GeometryCase, geometry_relative_error, savings_report
from crosszone.lp import optimize_controlled_zones
from crosszone.model import CostModel, ThermalNetwork, TimeGrid
from crosszone.scenario import SetpointPlan, run_baseline, run_experiment


@pytest.fixture(scope="module")
def example_runs(tmp_path_factory):
    """Two full-scale (five-day, quarter-hour) CLI runs with one seed."""
    root = tmp_path_factory.mktemp("example")
    dirs = (root / "a", root / "b")
    for d in dirs:
        started = time.monotonic()
        code = main(["reproduce-example", "--out-dir", str(d), "--seed", "1"])
        assert code == 0
        assert time.monotonic() - started < 60.0
    return dirs


def fully_coupled_network(rng: np.random.Generator, n: int) -> ThermalNetwork:
    """Strictly positive conductances and capacitances, bounded loss rates."""
    alpha = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            alpha[i, j] = alpha[j, i] = rng.uniform(0.005, 0.05)
    caps = rng.uniform(0.3, 1.2, n)
    rates = alpha[1:, :].sum(axis=1) / caps
    worst = float(rates.max())
    if worst > 0.8:
        alpha *= 0.8 / worst
    return ThermalNetwork(caps, alpha)


def test_criterion_1_savings_identity_suite():
    """naive - error = corrected(a) = corrected(b) = oracle, 200+ cases."""
    rng = np.random.default_rng(2024)
    started = time.monotonic()
    cases = 0
    worst = 0.0
    while cases < 200:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        net = fully_coupled_network(rng, n)
        grid = TimeGrid(dt_h=float(rng.uniform(0.1, 0.5)), steps=int(rng.integers(8, 33)))
        controlled = tuple(sorted(rng.choice(np.arange(1, n + 1), size=m, replace=False)))
        plan = SetpointPlan(rng.uniform(18.0, 23.0, n), controlled)
        base, exp = perturbed_pair(rng, net, plan, grid)
        cost = CostModel(
            np.vstack([piecewise_constant_price(rng, grid.steps) for _ in range(n)])
        )
        report = savings_report(base, exp, net, cost, plan)
        naive, error, oracle = report.naive_controlled_usd, report.overestimation_error_usd, report.oracle_true_usd
        corr_a, corr_b = report.corrected_form_a_usd, report.corrected_form_b_usd
        scale = max(abs(naive), abs(oracle), 0.01)
        dev = max(
            abs(naive - error - oracle), abs(corr_a - oracle), abs(corr_b - oracle)
        ) / scale
        worst = max(worst, dev)
        assert dev < 1e-8, f"case {cases}: relative identity deviation {dev:g}"
        cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"identity suite took {elapsed:.1f} s"
    print(f"CRITERION 1 PASS: {cases} cases, worst relative deviation {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_interior_zone_nullity():
    """With no outdoor coupling on controlled zones and one flat price,
    perceived savings exist but true savings vanish."""
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(10):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n))
        net = fully_coupled_network(rng, n)
        alpha = net.conductances_kw_per_c.copy()
        controlled = tuple(sorted(rng.choice(np.arange(1, n + 1), size=m, replace=False)))
        for i in controlled:
            alpha[i, 0] = alpha[0, i] = 0.0
        net = ThermalNetwork(net.capacitances_kwh_per_c, alpha)
        grid = TimeGrid(0.25, 24)
        plan = SetpointPlan(rng.uniform(19.0, 22.0, n), controlled)
        base, exp = perturbed_pair(rng, net, plan, grid)
        cost = CostModel.uniform(np.full(24, 0.06), n)
        report = savings_report(base, exp, net, cost, plan)
        naive, oracle = report.naive_controlled_usd, report.oracle_true_usd
        assert abs(naive) > 0.0
        assert abs(oracle) <= 1e-8 * abs(naive), (
            f"trial {trial}: true {oracle:g} not negligible vs naive {naive:g}"
        )
        checked += 1
    print(f"CRITERION 2 PASS: {checked} interior-zone configurations, all fictitious")


def test_criterion_3_constant_price_two_zone_ratio():
    """End-to-end optimizer run at a flat thermal price: the error over
    the truth equals the interior/exterior conductance ratio exactly."""
    cfg = dataclasses.replace(
        default_config(), grid=TimeGrid(0.25, 192), constant_price=True
    )
    weather, gains, price = _prepare_inputs(cfg)
    assert float(np.ptp(price.values)) == 0.0
    base = run_baseline(cfg.network, cfg.plan, weather, gains, cfg.grid)
    opt = optimize_controlled_zones(
        cfg.network, cfg.plan, cfg.grid, price, cfg.comfort(), gains, weather.outdoor
    )
    exp = run_experiment(cfg.network, cfg.plan, weather, gains, cfg.grid, opt.q_kw)
    report = savings_report(base, exp, cfg.network, CostModel.uniform(price, 2), cfg.plan)
    ratio = report.overestimation_error_usd / report.oracle_true_usd
    assert ratio == pytest.approx(2.0, abs=1e-6)
    print(f"CRITERION 3 PASS: measured ratio {ratio:.9f} vs conductance ratio 2")


def test_criterion_4_example_band(example_runs):
    """Full-scale built-in study: controlled zone appears to save, the
    neighbour pays more, the error ratio lands near the constant-price
    prediction, and the reported numbers satisfy the exact identity."""
    report = json.loads((example_runs[0] / "savings_report.json").read_text())
    # Five days at a quarter-hour step: header, 480 step rows, final samples.
    assert len((example_runs[0] / "baseline.csv").read_text().splitlines()) == 482
    zone1, zone2 = report["per_zone"]
    assert zone1["savings_usd"] > 0.0
    assert zone2["experiment_cost_usd"] > zone2["baseline_cost_usd"]
    assert abs(
        report["naive_controlled_usd"]
        - report["overestimation_error_usd"]
        - report["oracle_true_usd"]
    ) <= 1e-6
    assert abs(report["corrected_form_a_usd"] - report["oracle_true_usd"]) <= 1e-6
    assert abs(report["corrected_form_b_usd"] - report["oracle_true_usd"]) <= 1e-6
    assert 1.7 <= report["relative_error"] <= 2.2
    for z in report["per_zone"]:
        assert set(z) == {"zone", "baseline_cost_usd", "experiment_cost_usd", "savings_usd"}
    print(
        "CRITERION 4 PASS: zone-1 savings "
        f"${zone1['savings_usd']:.2f}, zone-2 increase "
        f"${zone2['experiment_cost_usd'] - zone2['baseline_cost_usd']:.2f}, "
        f"relative error {report['relative_error']:.3f} in [1.7, 2.2]"
    )


def test_criterion_5_geometry_closed_forms():
    assert geometry_relative_error(GeometryCase.square_footprint(2, 2.0)) == 2.0
    assert geometry_relative_error(GeometryCase.square_footprint(4, 2.0)) == 0.0
    assert math.isinf(geometry_relative_error(GeometryCase.square_footprint(0, 2.0)))
    print("CRITERION 5 PASS: e(2 walls, ratio 2) = 2, e(4 walls) = 0, e(0 walls) = inf")


def test_criterion_6_discretization_exactness():
    net = ThermalNetwork([0.27], [[0.0, 0.135], [0.135, 0.0]])
    grid = TimeGrid(0.25, 8)
    lam = discretize(net, grid).phi[0, 0]
    assert abs(lam - math.exp(-0.125)) < 1e-12

    rng = np.random.default_rng(6)
    worst = 0.0
    for trial in range(3):
        rnet = random_network(rng, 4, max_rate_per_h=0.5)
        t_init = rng.uniform(15.0, 25.0, 4)
        q = rng.uniform(0.0, 1.0, (8, 4))
        w = rng.uniform(0.0, 0.5, (8, 4))
        t0 = rng.uniform(-10.0, 5.0, 8)
        traj = simulate(discretize(rnet, grid), t_init, q, w, t0)
        ref = euler_simulate(rnet, grid.dt_h, 10_000, t_init, q, w, t0)
        rel = float(np.abs(traj.temps_c - ref).max() / max(1.0, np.abs(ref).max()))
        worst = max(worst, rel)
        assert rel < 1e-5
    print(
        f"CRITERION 6 PASS: decay factor exp(-0.125) to 1e-12; "
        f"worst Euler-oracle deviation {worst:.2e} (< 1e-5)"
    )


def test_criterion_7_optimizer_certificates_and_monotonicity():
    """solve_lp refuses to report optimal without KKT residuals <= tol, so
    every run below is certificate-checked; additionally the zero-band
    problem must price out exactly at the baseline cost and widening the
    band can only help."""
    cfg = dataclasses.replace(default_config(), grid=TimeGrid(0.25, 96))
    weather, gains, price = _prepare_inputs(cfg)
    base = run_baseline(cfg.network, cfg.plan, weather, gains, cfg.grid)
    baseline_cost = float(price.values @ base.powers_kw[:, 0]) * cfg.grid.dt_h

    objectives = []
    residuals = []
    for width in (0.0, 0.5, 1.0, 1.5, 2.0):
        cfg_w = dataclasses.replace(cfg, tight_band_c=width, wide_band_c=width)
        opt = optimize_controlled_zones(
            cfg_w.network, cfg_w.plan, cfg_w.grid, price, cfg_w.comfort(), gains, weather.outdoor
        )
        residuals.append(opt.solution.residuals.max())
        objectives.append(opt.objective_usd)
    assert max(residuals) <= 1e-8
    assert abs(objectives[0] - baseline_cost) <= 1e-9
    assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))
    print(
        f"CRITERION 7 PASS: max KKT residual {max(residuals):.2e}, zero-band gap "
        f"{abs(objectives[0] - baseline_cost):.2e}, objectives {['%.4f' % o for o in objectives]}"
    )


def test_criterion_8_determinism(example_runs):
    run_a, run_b = example_runs
    for name in ("baseline.csv", "experiment.csv", "savings_report.json", "geometry_grid.csv"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
    print("CRITERION 8 PASS: same-seed reruns byte-identical across CSV and JSON outputs")
