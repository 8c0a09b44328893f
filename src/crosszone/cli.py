"""Command-line interface.

Subcommands:
    simulate            baseline run -> baseline.csv
    optimize            controlled-zone optimization -> experiment.csv
    estimate            savings report from the two CSVs -> savings_report.json
    reproduce-example   full built-in two-zone study with plots
    geometry            closed-form relative error from wall construction

Exit codes: 0 success, 2 configuration error, 3 infeasible optimization,
4 data mismatch between trajectory files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import estimator as est
from .config import ConfigError, RunConfig, default_config, load_config
from .dynamics import controlled_subsystem, step_integrals
from .lp import InfeasibleControlError, optimize_controlled_zones
from .model import CostModel, InvalidNetworkError, Signal, TimeGrid, Trajectory
from .scenario import (
    WeatherFormatError,
    cop,
    run_baseline,
    run_experiment,
    synthesize_gains,
    thermal_price,
)
from .svgplot import Panel, render_figure

__all__ = ["main"]

_FLOAT_FMT = "%.12g"


class DataMismatchError(ValueError):
    """Trajectory files disagree on grid, zones, or shared inputs."""


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _layout(n: int) -> tuple[list[str], dict[str, int | slice]]:
    """Header of an n-zone trajectory CSV, and where each of its blocks sits in a row."""
    header, where = [], {}
    for key, label in (
        ("step", "step"), ("time_h", "time_h"), ("temps", "T_{}_c"), ("powers", "q_{}_kw"),
        ("gains", "w_{}_kw"), ("outdoor", "t0_c"), ("price", "price_usd_per_kwh_thermal"),
    ):
        where[key] = slice(len(header), len(header) + n) if "{}" in label else len(header)
        header += [label.format(i) for i in range(1, n + 1)] if "{}" in label else [label]
    return header, where


def write_trajectory_csv(path: str, traj: Trajectory, price: np.ndarray) -> None:
    """Write a trajectory per the documented schema.

    One row per step with temperatures, powers, gains, outdoor temperature
    and thermal price, plus a final row carrying only the last temperature
    samples.
    """
    k = traj.grid.steps
    header, where = _layout(traj.n)
    steps = np.arange(k + 1)
    blocks = {
        "step": steps, "time_h": steps * traj.grid.dt_h, "temps": traj.temps_c, "powers": traj.powers_kw,
        "gains": traj.gains_kw, "outdoor": traj.outdoor_c, "price": price,
    }
    table = np.zeros((k + 1, len(header)))
    for key, values in blocks.items():
        table[: len(values), where[key]] = values
    last = where["temps"].stop
    row = ",".join([_FLOAT_FMT] * len(header))
    lines = [",".join(header), *(row % tuple(r.tolist()) for r in table[:k])]
    final = ",".join([_FLOAT_FMT] * last + [""] * (len(header) - last))
    lines.append(final % tuple(table[k, :last].tolist()))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path: str) -> dict:
    """Parse a trajectory CSV back into arrays.

    Returns a dict with temps (K+1, n), powers/gains (K, n), outdoor and
    price (K,), dt_h and steps. The header must be the documented one,
    every row must carry its field count, the final one only its time and
    temperatures, and every value must be finite; otherwise
    DataMismatchError names the file and row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataMismatchError(f"{path}: empty file")
        n = (len(header) - 4) // 3
        columns, where = _layout(n)
        if n < 1 or header != columns:
            raise DataMismatchError(f"{path}: unrecognized header {header}")
        rows = [row for row in reader if row]
    if len(rows) < 2:
        raise DataMismatchError(f"{path}: needs at least one step plus the final sample row")
    k = len(rows) - 1
    last = where["temps"].stop
    table = np.zeros((k + 1, len(columns)))
    try:
        for idx, row in enumerate(rows):
            if len(row) != len(columns):
                raise ValueError(f"expected {len(columns)} fields, got {len(row)}")
            if idx < k:
                table[idx] = row
            elif any(row[last:]):
                raise ValueError("the final row carries only the time and the last temperatures")
            else:
                table[idx, :last] = row[:last]
    except ValueError as exc:
        raise DataMismatchError(f"{path}: row {idx + 2}: {exc}") from None
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise DataMismatchError(f"{path}: row {int(np.argmin(finite)) + 2}: non-finite value")
    times = table[:, where["time_h"]]
    dt = float(np.diff(times).mean())
    if not np.allclose(np.diff(times), dt, rtol=0.0, atol=1e-9):
        raise DataMismatchError(f"{path}: time column is not uniform")
    data = {key: table[:k, where[key]] for key in ("powers", "gains", "outdoor", "price")}
    return {"temps": table[:, where["temps"]], **data, "dt_h": dt, "steps": k}


def _reconstruct(cfg: RunConfig, data: dict, experiment: bool) -> Trajectory:
    """Rebuild a Trajectory (with exact step integrals) from CSV arrays.

    Held zones are constant inside each step, so their integral is the
    sample value times dt. Controlled zones in the experiment follow the
    hold-input dynamics, so their integrals come from the sub-network's
    integral matrices.
    """
    grid = TimeGrid(dt_h=data["dt_h"], steps=data["steps"], origin_hour=cfg.grid.origin_hour)
    temps, powers, gains = data["temps"], data["powers"], data["gains"]
    outdoor = data["outdoor"]
    integrals = temps[:-1] * grid.dt_h
    if experiment:
        ctrl = cfg.plan.controlled
        cidx = np.asarray(ctrl, dtype=int) - 1
        sub, boundary_kw = controlled_subsystem(cfg.network, grid, ctrl, temps[0])
        integrals[:, cidx] = step_integrals(
            sub, temps[:, cidx], powers[:, cidx], gains[:, cidx] + boundary_kw, outdoor
        )
    return Trajectory(
        grid=grid,
        temps_c=temps,
        powers_kw=powers,
        gains_kw=gains,
        outdoor_c=outdoor,
        temp_integrals_c_h=integrals,
    )


def write_report_json(path: str, report: est.SavingsReport) -> None:
    doc = {
        "naive_controlled_usd": report.naive_controlled_usd,
        "overestimation_error_usd": report.overestimation_error_usd,
        "corrected_form_a_usd": report.corrected_form_a_usd,
        "corrected_form_b_usd": report.corrected_form_b_usd,
        "oracle_true_usd": report.oracle_true_usd,
        "relative_error": report.relative_error,
        "per_zone": [
            {
                "zone": z.zone,
                "baseline_cost_usd": z.baseline_cost_usd,
                "experiment_cost_usd": z.experiment_cost_usd,
                "savings_usd": z.savings_usd,
            }
            for z in report.per_zone
        ],
    }
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def format_report_table(report: est.SavingsReport) -> str:
    """Fixed-width text table of per-zone and whole-building results."""

    def money(v: float) -> str:
        return f"-${abs(v):.2f}" if v < 0 else f"${v:.2f}"

    zones = report.per_zone
    headers = [""] + [f"Zone {z.zone}" for z in zones] + ["Whole building"]
    base_total = sum(z.baseline_cost_usd for z in zones)
    exp_total = sum(z.experiment_cost_usd for z in zones)
    rows = [
        ["Baseline cost"] + [money(z.baseline_cost_usd) for z in zones] + [money(base_total)],
        ["Experiment cost"] + [money(z.experiment_cost_usd) for z in zones] + [money(exp_total)],
        ["Perceived zone-level savings"] + [money(z.savings_usd) for z in zones] + ["--"],
        ["True savings"] + ["--"] * len(zones) + [money(report.oracle_true_usd)],
    ]
    widths = [max(len(r[c]) for r in [headers] + rows) for c in range(len(headers))]
    out = []
    for r in [headers] + rows:
        out.append("  ".join(val.ljust(widths[c]) if c == 0 else val.rjust(widths[c]) for c, val in enumerate(r)))
    return "\n".join(out)


def _prepare_inputs(cfg: RunConfig):
    weather = cfg.weather()
    gains = synthesize_gains(cfg.gain_spec, weather, cfg.exterior_wall_m2, cfg.floor_m2)
    price = thermal_price(cfg.tariff, cfg.cop_curve, weather.outdoor, cfg.grid)
    if cfg.constant_price:
        price = Signal(np.full(cfg.grid.steps, float(price.values.mean())))
    return weather, gains, price


def _write_inputs_svg(cfg: RunConfig, weather, gains, price, path: str) -> None:
    t = cfg.grid.step_times_h()
    panels = [
        Panel("Outdoor temperature", "time [h]", "T0 [degC]").add(t, weather.outdoor.values),
        Panel("Exogenous gains", "time [h]", "w [kW]"),
        Panel("Heat pump COP", "time [h]", "COP").add(t, cop(cfg.cop_curve, weather.outdoor.values)),
        Panel("Prices", "time [h]", "[$/kWh]"),
    ]
    for i in range(cfg.network.n):
        panels[1].add(t, gains[:, i], label=f"zone {i + 1}")
    panels[3].add(t, cfg.tariff.price_at(cfg.grid.step_hours_of_day()), label="electric")
    panels[3].add(t, price.values, label="thermal", color="#c4279c")
    render_figure(panels, path, ncols=1)


def _write_results_svg(cfg: RunConfig, base, exp, price, path: str) -> None:
    t_samples = cfg.grid.sample_times_h()
    t_steps = cfg.grid.step_times_h()
    dt = cfg.grid.dt_h
    delta = cfg.comfort().delta_c
    panels = []
    for zone in range(1, cfg.network.n + 1):
        p = Panel(f"Zone {zone} temperature", "time [h]", "T [degC]")
        p.add(t_samples, base.zone_temps(zone), label="baseline")
        p.add(t_samples, exp.zone_temps(zone), label="experiment", color="#c4279c")
        if zone in cfg.plan.controlled:
            sp = cfg.plan.setpoints_c[zone - 1]
            p.add(t_steps, sp + delta, color="#d73027", dashed=True)
            p.add(t_steps, sp - delta, color="#d73027", dashed=True)
        panels.append(p)
    for zone in range(1, cfg.network.n + 1):
        p = Panel(f"Zone {zone} thermal power", "time [h]", "q [kW]")
        p.add(t_steps, base.zone_power(zone), label="baseline")
        p.add(t_steps, exp.zone_power(zone), label="experiment", color="#c4279c")
        panels.append(p)
    for zone in range(1, cfg.network.n + 1):
        p = Panel(f"Zone {zone} cumulative cost", "time [h]", "[$]")
        p.add(t_steps, np.cumsum(price.values * base.zone_power(zone) * dt), label="baseline")
        p.add(t_steps, np.cumsum(price.values * exp.zone_power(zone) * dt), label="experiment", color="#c4279c")
        panels.append(p)
    render_figure(panels, path, ncols=cfg.network.n)


def _write_geometry_grid(path: str) -> None:
    lines = ["exterior_walls,insulation_ratio,relative_error"]
    betas = [0.25 * i for i in range(1, 17)]
    for walls in range(5):
        for beta in betas:
            e = est.geometry_relative_error(est.GeometryCase.square_footprint(walls, beta))
            lines.append(f"{walls},{_FLOAT_FMT % beta},{'inf' if math.isinf(e) else _FLOAT_FMT % e}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_geometry_svg(path: str) -> None:
    betas = np.linspace(0.25, 4.0, 16)
    panel = Panel("Savings overestimation vs wall construction", "u_int/u_ext", "relative error")
    for walls in range(1, 5):
        errors = [
            est.geometry_relative_error(est.GeometryCase.square_footprint(walls, b)) for b in betas
        ]
        panel.add(betas, errors, label=f"{walls} exterior wall{'s' if walls > 1 else ''}")
    render_figure([panel], path)


def _cost_summary(traj: Trajectory, price: np.ndarray, dt: float) -> list[float]:
    return [float(price @ traj.powers_kw[:, i]) * dt for i in range(traj.n)]


def cmd_simulate(cfg: RunConfig, out_dir: str, svg: bool) -> int:
    weather, gains, price = _prepare_inputs(cfg)
    base = run_baseline(cfg.network, cfg.plan, weather, gains, cfg.grid)
    path = os.path.join(out_dir, "baseline.csv")
    write_trajectory_csv(path, base, price.values)
    costs = _cost_summary(base, price.values, cfg.grid.dt_h)
    for i, c in enumerate(costs, start=1):
        print(f"baseline zone {i} cost: ${c:.4f}")
    print(f"baseline total cost: ${sum(costs):.4f}")
    print(f"wrote {path}")
    if svg:
        _write_inputs_svg(cfg, weather, gains, price, os.path.join(out_dir, "inputs.svg"))
        print(f"wrote {os.path.join(out_dir, 'inputs.svg')}")
    return 0


def cmd_optimize(cfg: RunConfig, out_dir: str) -> int:
    weather, gains, price = _prepare_inputs(cfg)
    opt = optimize_controlled_zones(
        cfg.network, cfg.plan, cfg.grid, price, cfg.comfort(), gains, weather.outdoor,
        q_min_kw=cfg.q_min_kw, q_max_kw=cfg.q_max_kw,
    )
    exp = run_experiment(cfg.network, cfg.plan, weather, gains, cfg.grid, opt.q_kw)
    path = os.path.join(out_dir, "experiment.csv")
    write_trajectory_csv(path, exp, price.values)
    print(f"optimal controlled-zone cost: ${opt.objective_usd:.6f}")
    cidx = np.asarray(cfg.plan.controlled, dtype=int) - 1
    resim_dev = float(np.abs(exp.temps_c[:, cidx] - opt.temps_c).max())
    print(
        f"solver: {opt.solution.iterations} iterations, "
        f"max KKT residual {opt.solution.residuals.max():.2e}, "
        f"re-simulation deviation {resim_dev:.2e} degC"
    )
    print(f"wrote {path}")
    return 0


def cmd_estimate(cfg: RunConfig, out_dir: str, baseline_path: str, experiment_path: str) -> int:
    base_data = read_trajectory_csv(baseline_path)
    exp_data = read_trajectory_csv(experiment_path)
    if base_data["steps"] != exp_data["steps"] or abs(base_data["dt_h"] - exp_data["dt_h"]) > 1e-9:
        raise DataMismatchError(
            f"grids differ: {baseline_path} has {base_data['steps']} steps of {base_data['dt_h']} h, "
            f"{experiment_path} has {exp_data['steps']} steps of {exp_data['dt_h']} h"
        )
    if base_data["temps"].shape[1] != exp_data["temps"].shape[1]:
        raise DataMismatchError("zone counts differ between trajectory files")
    if not np.allclose(base_data["price"], exp_data["price"], rtol=0.0, atol=1e-9):
        raise DataMismatchError("thermal price columns differ between trajectory files")
    n = base_data["temps"].shape[1]
    if n != cfg.network.n:
        raise DataMismatchError(f"files have {n} zones, config network has {cfg.network.n}")
    base = _reconstruct(cfg, base_data, experiment=False)
    exp = _reconstruct(cfg, exp_data, experiment=True)
    cost = CostModel.uniform(base_data["price"], n)
    try:
        report = est.savings_report(base, exp, cfg.network, cost, cfg.plan)
    except est.UncontrolledZonePerturbedError as exc:
        raise DataMismatchError(
            f"{experiment_path} does not fit the config's controlled zones {cfg.plan.controlled}: {exc}"
        ) from None
    path = os.path.join(out_dir, "savings_report.json")
    write_report_json(path, report)
    print(format_report_table(report))
    print()
    naive = report.naive_controlled_usd
    print(f"naive controlled-zone savings: ${naive:.4f}")
    print(f"cross-zone overestimation:     ${report.overestimation_error_usd:.4f}")
    print(f"corrected (form a / form b):   ${report.corrected_form_a_usd:.4f} / ${report.corrected_form_b_usd:.4f}")
    print(f"true whole-building savings:   ${report.oracle_true_usd:.4f}")
    if report.relative_error is None:
        print("relative error: undefined (true savings are ~0)")
    else:
        print(f"relative error: {report.relative_error:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_reproduce_example(cfg: RunConfig, out_dir: str, svg: bool) -> int:
    weather, gains, price = _prepare_inputs(cfg)
    base = run_baseline(cfg.network, cfg.plan, weather, gains, cfg.grid)
    opt = optimize_controlled_zones(
        cfg.network, cfg.plan, cfg.grid, price, cfg.comfort(), gains, weather.outdoor,
        q_min_kw=cfg.q_min_kw, q_max_kw=cfg.q_max_kw,
    )
    exp = run_experiment(cfg.network, cfg.plan, weather, gains, cfg.grid, opt.q_kw)
    write_trajectory_csv(os.path.join(out_dir, "baseline.csv"), base, price.values)
    write_trajectory_csv(os.path.join(out_dir, "experiment.csv"), exp, price.values)
    cost = CostModel.uniform(price, cfg.network.n)
    report = est.savings_report(base, exp, cfg.network, cost, cfg.plan)
    write_report_json(os.path.join(out_dir, "savings_report.json"), report)
    _write_geometry_grid(os.path.join(out_dir, "geometry_grid.csv"))
    if svg:
        _write_inputs_svg(cfg, weather, gains, price, os.path.join(out_dir, "inputs.svg"))
        _write_results_svg(cfg, base, exp, price, os.path.join(out_dir, "results.svg"))
        _write_geometry_svg(os.path.join(out_dir, "geometry.svg"))

    print(format_report_table(report))
    print()
    if cfg.network.n == 2 and cfg.plan.controlled == (1,):
        predicted = est.two_zone_relative_error(cfg.network)
        measured = report.relative_error
        if measured is None:
            print(f"relative error: undefined (true savings ~0); constant-price prediction {predicted:.4f}")
        else:
            print(
                f"relative error: {measured:.4f} measured vs {predicted:.4f} "
                "predicted by the two-zone conductance ratio (exact for constant prices)"
            )
    files = ["baseline.csv", "experiment.csv", "savings_report.json", "geometry_grid.csv"]
    if svg:
        files += ["inputs.svg", "results.svg", "geometry.svg"]
    print("wrote: " + ", ".join(os.path.join(out_dir, f) for f in files))
    return 0


def cmd_geometry(args: argparse.Namespace) -> int:
    if args.square is not None:
        walls, ratio = args.square
        try:
            case = est.GeometryCase.square_footprint(float(walls), float(ratio))
        except ValueError as exc:
            raise ConfigError("geometry.square", str(exc)) from None
    else:
        missing = [
            name
            for name, val in (
                ("--u-int", args.u_int),
                ("--u-ext", args.u_ext),
                ("--a-int", args.a_int),
                ("--a-ext", args.a_ext),
            )
            if val is None
        ]
        if missing:
            raise ConfigError("geometry", f"missing {', '.join(missing)} (or use --square L BETA)")
        try:
            case = est.GeometryCase(args.u_int, args.u_ext, args.a_int, args.a_ext)
        except ValueError as exc:
            raise ConfigError("geometry", str(exc)) from None
    e = est.geometry_relative_error(case)
    if math.isinf(e):
        print("relative error: infinite (interior zone: no true savings)")
    else:
        print(f"relative error: {e:.6g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosszone",
        description="Multi-zone thermal simulation and cross-zone-corrected savings accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH", help="JSON run configuration")
    config.add_argument("--out-dir", metavar="PATH", default=".", help="output directory")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="override the gain-noise seed")
    svg = argparse.ArgumentParser(add_help=False)
    svg.add_argument("--svg", action="store_true", help="also write SVG charts")

    sub.add_parser("simulate", parents=[config, seed, svg], help="run the baseline scenario")
    sub.add_parser(
        "optimize", parents=[config, seed], help="optimize the controlled zones and run the experiment"
    )
    p = sub.add_parser("estimate", parents=[config], help="savings report from trajectory CSVs")
    p.add_argument("--baseline", metavar="PATH", default=None, help="baseline.csv path")
    p.add_argument("--experiment", metavar="PATH", default=None, help="experiment.csv path")
    p = sub.add_parser(
        "reproduce-example", parents=[config, seed, svg], help="run the built-in two-zone cold-snap study"
    )
    p.add_argument(
        "--constant-price",
        action="store_true",
        help="replace the thermal price with its time average",
    )
    p = sub.add_parser("geometry", help="closed-form relative error from wall construction")
    p.add_argument("--u-int", type=float, default=None, help="interior wall U [kW/(degC m2)]")
    p.add_argument("--u-ext", type=float, default=None, help="exterior wall U [kW/(degC m2)]")
    p.add_argument("--a-int", type=float, default=None, help="interior wall area [m2]")
    p.add_argument("--a-ext", type=float, default=None, help="exterior wall area [m2]")
    p.add_argument(
        "--square",
        nargs=2,
        metavar=("L", "BETA"),
        default=None,
        help="square footprint: L exterior walls, insulation ratio BETA",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "geometry":
            return cmd_geometry(args)
        cfg = load_config(args.config) if args.config else default_config()
        if getattr(args, "seed", None) is not None:
            if args.seed < 0:
                raise ConfigError("--seed", f"expected an integer >= 0, got {args.seed}")
            cfg = cfg.with_seed(args.seed)
        if getattr(args, "constant_price", False):
            cfg = dataclasses.replace(cfg, constant_price=True)
        out_dir = args.out_dir
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, args.svg)
        if args.command == "optimize":
            return cmd_optimize(cfg, out_dir)
        if args.command == "estimate":
            baseline = args.baseline or os.path.join(out_dir, "baseline.csv")
            experiment = args.experiment or os.path.join(out_dir, "experiment.csv")
            for path in (baseline, experiment):
                if not os.path.exists(path):
                    print(f"config error: trajectory file not found: {path}", file=sys.stderr)
                    return 2
            return cmd_estimate(cfg, out_dir, baseline, experiment)
        if args.command == "reproduce-example":
            return cmd_reproduce_example(cfg, out_dir, args.svg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, InvalidNetworkError, WeatherFormatError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleControlError as exc:
        print(f"optimization infeasible: {exc}", file=sys.stderr)
        if exc.window_h is not None:
            print(
                f"binding constraints concentrate in hours {exc.window_h[0]:.2f} to {exc.window_h[1]:.2f}",
                file=sys.stderr,
            )
        return 3
    except DataMismatchError as exc:
        print(f"data mismatch: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
