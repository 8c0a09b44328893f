"""Command-line interface.

Subcommands:
    simulate            baseline run -> baseline.csv
    optimize            controlled-zone optimization -> experiment.csv
    estimate            savings report from the two CSVs -> savings_report.json
    reproduce-example   full built-in two-zone study with plots
    geometry            closed-form relative error from wall construction

Exit codes: 0 success, 2 configuration error, 3 optimization ended without
an optimal plan (infeasible, unbounded or iteration limit), 4 data mismatch
between the trajectory files and the config.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import estimator as est
from .config import ConfigError, RunConfig, default_config, load_config
from .dynamics import controlled_subsystem, step_integrals
from .lp import InfeasibleControlError, optimize_controlled_zones
from .model import CostModel, Signal, Trajectory
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
    """A trajectory file disagrees with the config or with the other file."""


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
    every row must carry its field count, the final one only its step,
    time and temperatures, the steps must count 0..K, and every value must
    be finite; otherwise DataMismatchError names the file and the row (its
    line number in the file, blank lines included). Blank lines are skipped.

    All rows are converted by one ``np.loadtxt`` call: a cell is an ASCII
    decimal, ``inf`` or ``nan`` as ``float`` reads it, with optional
    surrounding whitespace.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataMismatchError(f"{path}: not UTF-8 text: {exc}") from None
    if lines == [""]:
        raise DataMismatchError(f"{path}: empty file")
    header = lines[0].split(",") if lines[0] else []
    n = (len(header) - 4) // 3
    columns, where = _layout(n)
    if n < 1 or header != columns:
        raise DataMismatchError(f"{path}: unrecognized header {header}")
    rows = [line for line in lines[1:] if line]
    if len(rows) < 2:
        raise DataMismatchError(f"{path}: needs at least one step plus the final sample row")

    def fault(idx: int, message: str) -> DataMismatchError:
        line = [i for i, text in enumerate(lines, start=1) if text][idx + 1]
        return DataMismatchError(f"{path}: row {line}: {message}")

    k = len(rows) - 1
    last = where["temps"].stop
    # Structural faults are found on the raw lines. The rows above the first
    # one are still converted, so the fault nearest the top is reported.
    found = None
    wrong = [i for i, row in enumerate(rows) if row.count(",") != len(columns) - 1]
    final = rows[k].split(",")
    if wrong:
        found = wrong[0], f"expected {len(columns)} fields, got {rows[wrong[0]].count(',') + 1}"
    elif any(final[last:]):
        found = k, "the final row carries only the time and the last temperatures"
    else:
        rows[k] = ",".join(final[:last] + ["0"] * (len(columns) - last))
    stop = len(rows) if found is None else found[0]
    try:
        table = np.loadtxt(rows[:stop], delimiter=",", comments=None, ndmin=2) if stop else None
    except ValueError as exc:
        # numpy names the rejected cell by its 0-based row among the lines
        # it was given and its 1-based column.
        at = re.search(r" at row (\d+), column (\d+)\.$", str(exc))
        if at is None:
            raise
        idx = int(at[1])
        found = idx, f"could not convert string to float: {rows[idx].split(',')[int(at[2]) - 1]!r}"
    if found is not None:
        raise fault(*found)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise fault(int(np.argmin(finite)), "non-finite value")
    off = table[:, where["step"]] != np.arange(k + 1)
    if off.any():
        idx = int(np.argmax(off))
        raise fault(idx, f"step {table[idx, where['step']]:g} where {idx} was expected")
    times = table[:, where["time_h"]]
    dt = float(np.diff(times).mean())
    if not np.allclose(np.diff(times), dt, rtol=0.0, atol=1e-9):
        raise DataMismatchError(f"{path}: time column is not uniform")
    data = {key: table[:k, where[key]] for key in ("powers", "gains", "outdoor", "price")}
    return {"temps": table[:, where["temps"]], **data, "dt_h": dt, "steps": k}


def _reconstruct(cfg: RunConfig, data: dict) -> Trajectory:
    """Rebuild a Trajectory (with exact step integrals) from CSV arrays.

    The arrays must fit the config's grid and zone count. A zone whose
    samples all equal its first one is taken to have held that temperature
    inside every step too, so its integral is the sample value times dt.
    The other zones ran on their per-step powers: they are integrated
    together as one sub-network, with the held zones as its boundaries.
    """
    grid = cfg.grid
    temps, powers, gains = data["temps"], data["powers"], data["gains"]
    outdoor = data["outdoor"]
    integrals = temps[:-1] * grid.dt_h
    moving = tuple(int(j) + 1 for j in np.flatnonzero((temps != temps[0]).any(axis=0)))
    if moving:
        idx = np.asarray(moving) - 1
        sub, w_sub = controlled_subsystem(cfg.network, grid, moving, temps[0], gains)
        integrals[:, idx] = step_integrals(sub, temps[:, idx], powers[:, idx], w_sub, outdoor)
    return Trajectory(
        grid=grid,
        temps_c=temps,
        powers_kw=powers,
        gains_kw=gains,
        outdoor_c=outdoor,
        temp_integrals_c_h=integrals,
    )


def write_report_json(path: str, report: est.SavingsReport) -> None:
    _atomic_write(path, json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n")


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
    _atomic_write(path, render_figure(panels, ncols=1))


def _write_results_svg(cfg: RunConfig, base, exp, price, path: str) -> None:
    t_steps = cfg.grid.step_times_h()
    delta = cfg.comfort().delta_c
    cost = [np.cumsum(price.values[:, None] * traj.powers_kw * cfg.grid.dt_h, axis=0) for traj in (base, exp)]
    panels = []
    for title, unit, t, b, e in (
        ("temperature", "T [degC]", cfg.grid.sample_times_h(), base.temps_c, exp.temps_c),
        ("thermal power", "q [kW]", t_steps, base.powers_kw, exp.powers_kw),
        ("cumulative cost", "[$]", t_steps, *cost),
    ):
        for zone in range(1, cfg.network.n + 1):
            p = Panel(f"Zone {zone} {title}", "time [h]", unit)
            p.add(t, b[:, zone - 1], label="baseline")
            p.add(t, e[:, zone - 1], label="experiment", color="#c4279c")
            if title == "temperature" and zone in cfg.plan.controlled:
                sp = cfg.plan.setpoints_c[zone - 1]
                p.add(t_steps, sp + delta, color="#d73027", dashed=True)
                p.add(t_steps, sp - delta, color="#d73027", dashed=True)
            panels.append(p)
    _atomic_write(path, render_figure(panels, ncols=cfg.network.n))


def _write_geometry(out_dir: str, svg: bool) -> None:
    """The closed-form error over 0-4 exterior walls x insulation ratio: the CSV table, and its chart."""
    betas = [0.25 * i for i in range(1, 17)]
    errors = [[est.geometry_relative_error(est.GeometryCase.square_footprint(w, b)) for b in betas] for w in range(5)]
    lines = ["exterior_walls,insulation_ratio,relative_error"]
    for walls, row in enumerate(errors):
        for beta, e in zip(betas, row):
            lines.append(f"{walls},{_FLOAT_FMT % beta},{'inf' if math.isinf(e) else _FLOAT_FMT % e}")
    _atomic_write(os.path.join(out_dir, "geometry_grid.csv"), "\n".join(lines) + "\n")
    if svg:
        panel = Panel("Savings overestimation vs wall construction", "u_int/u_ext", "relative error")
        for walls in range(1, 5):
            panel.add(betas, errors[walls], label=f"{walls} exterior wall{'s' if walls > 1 else ''}")
        _atomic_write(os.path.join(out_dir, "geometry.svg"), render_figure([panel]))


def _plan(cfg: RunConfig, weather, gains, price):
    """Optimize the controlled zones, then run the experiment on the optimal powers."""
    opt = optimize_controlled_zones(
        cfg.network, cfg.plan, cfg.grid, price, cfg.comfort(), gains, weather.outdoor,
        q_min_kw=cfg.q_min_kw, q_max_kw=cfg.q_max_kw,
    )
    return opt, run_experiment(cfg.network, cfg.plan, weather, gains, cfg.grid, opt.q_kw)


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
    opt, exp = _plan(cfg, weather, gains, price)
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
    grid, n = cfg.grid, cfg.network.n
    for path, data in ((baseline_path, base_data), (experiment_path, exp_data)):
        zones = data["temps"].shape[1]
        if data["steps"] != grid.steps or abs(data["dt_h"] - grid.dt_h) > 1e-9 or zones != n:
            raise DataMismatchError(
                f"grids differ: {path} has {data['steps']} steps of {data['dt_h']:g} h for {zones} zones, "
                f"the config has {grid.steps} steps of {grid.dt_h:g} h for {n} zones"
            )
    header, where = _layout(n)
    for key in ("gains", "outdoor", "price"):
        off = np.abs(base_data[key] - exp_data[key]).reshape(grid.steps, -1).max(axis=0) > 1e-9
        if off.any():
            column = np.atleast_1d(header[where[key]])[np.argmax(off)]
            raise DataMismatchError(f"column {column} differs between {baseline_path} and {experiment_path}")
    base = _reconstruct(cfg, base_data)
    exp = _reconstruct(cfg, exp_data)
    cost = CostModel.uniform(base_data["price"], n)
    report = est.savings_report(base, exp, cfg.network, cost, cfg.plan)
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
    _, exp = _plan(cfg, weather, gains, price)
    write_trajectory_csv(os.path.join(out_dir, "baseline.csv"), base, price.values)
    write_trajectory_csv(os.path.join(out_dir, "experiment.csv"), exp, price.values)
    cost = CostModel.uniform(price, cfg.network.n)
    report = est.savings_report(base, exp, cfg.network, cost, cfg.plan)
    write_report_json(os.path.join(out_dir, "savings_report.json"), report)
    _write_geometry(out_dir, svg)
    if svg:
        _write_inputs_svg(cfg, weather, gains, price, os.path.join(out_dir, "inputs.svg"))
        _write_results_svg(cfg, base, exp, price, os.path.join(out_dir, "results.svg"))

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
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("--out-dir", f"cannot create directory {out_dir}: {exc.strerror}") from None
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, args.svg)
        if args.command == "optimize":
            return cmd_optimize(cfg, out_dir)
        if args.command == "estimate":
            baseline = args.baseline or os.path.join(out_dir, "baseline.csv")
            experiment = args.experiment or os.path.join(out_dir, "experiment.csv")
            for path in (baseline, experiment):
                if not os.path.isfile(path):
                    print(f"config error: trajectory file not found: {path}", file=sys.stderr)
                    return 2
            return cmd_estimate(cfg, out_dir, baseline, experiment)
        if args.command == "reproduce-example":
            return cmd_reproduce_example(cfg, out_dir, args.svg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, WeatherFormatError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleControlError as exc:
        print(f"optimization {exc.solution.status}: {exc}", file=sys.stderr)
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
