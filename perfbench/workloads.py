"""The three benchmark workloads.

Each workload has ``setup(seed)`` (build the input pool; timed as set-up),
``run(case, op, workdir)`` (one operation; timed) and
``check(pool, records, workdir)`` (independent checks after the timed loop;
returns failure messages per operation). Program functions are always
called through their module attribute, so the tracer sees every call.
The checker module is imported only inside the checks, after the peak
memory is read, because it loads scipy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os

import numpy as np

import crosszone.cli as cli
import crosszone.estimator as estimator
import crosszone.lp as lp
import crosszone.scenario as scenario
import inputs
from crosszone.lp import ComfortSchedule
from crosszone.model import CostModel, Signal, ThermalNetwork, TimeGrid
from crosszone.scenario import CopCurve, GainSpec, SetpointPlan, Tariff, TariffPeriod, WeatherSeries

EXAMPLE_FILES = ("baseline.csv", "experiment.csv", "savings_report.json", "geometry_grid.csv")
SVG_FILES = ("inputs.svg", "results.svg", "geometry.svg")


def _cli_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _guarded(check, *args) -> list[str]:
    """One operation's checks; outputs that cannot be read or parsed fail it."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"outputs could not be checked: {exc!r}"]


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class ExampleStudy:
    """``crosszone reproduce-example --svg`` in-process, one gain seed per operation.

    The pool holds two gain-noise seeds, so consecutive operations differ
    and every round repeats the previous one: the repeats check that the
    same seed gives byte-identical outputs.
    """

    name = "example-study"
    pool_size = 2
    min_rounds = 2

    def setup(self, seed: int) -> list[int]:
        rng = np.random.default_rng([seed, 1])
        seeds: list[int] = []
        while len(seeds) < self.pool_size:
            s = int(rng.integers(1, 2**31 - 1))
            if s not in seeds:
                seeds.append(s)
        return seeds

    def run(self, gain_seed: int, op: int, workdir: str) -> dict:
        out = os.path.join(workdir, f"op-{op:05d}")
        rc = _cli_main(["reproduce-example", "--svg", "--seed", str(gain_seed), "--out-dir", out])
        if rc != 0:
            raise RuntimeError(f"reproduce-example exited {rc}")
        return {"dir": out}

    def check(self, pool: list[int], records: list, workdir: str) -> dict[int, list[str]]:
        first_digest: dict[int, list[str]] = {}
        failures = {rec.op: _guarded(self._check_op, rec, pool, first_digest) for rec in records if not rec.error}

        # Once per run, counted against the first operation: with a constant
        # price the error ratio is alpha_12 / alpha_10 = 2.
        failures.setdefault(records[0].op, []).extend(_guarded(self._check_constant_price, pool[0], workdir))
        return failures

    @staticmethod
    def _check_op(rec, pool: list[int], first_digest: dict) -> list[str]:
        import checks

        d = rec.output["dir"]
        fails = []
        for name in SVG_FILES:
            with open(os.path.join(d, name), encoding="utf-8") as fh:
                text = fh.read()
            if not (text.startswith("<?xml") and text.endswith("</svg>\n")):
                fails.append(f"{name} is not a complete SVG document")
        base = checks.read_trajectory(os.path.join(d, "baseline.csv"))
        exp = checks.read_trajectory(os.path.join(d, "experiment.csv"))
        report = checks.load_json(os.path.join(d, "savings_report.json"))
        ctrl_idx = np.asarray(inputs.EXAMPLE_CONTROLLED) - 1
        objective = float(exp["price"] @ exp["powers"][:, ctrl_idx].sum(axis=1)) * inputs.DT_H
        fails += checks.plan_failures(
            inputs.EXAMPLE_CAPS, inputs.EXAMPLE_ALPHA, inputs.EXAMPLE_SETPOINTS, inputs.EXAMPLE_CONTROLLED,
            exp, inputs.comfort_delta(inputs.EXAMPLE_STEPS), objective,
        )
        fails += checks.identity_failures(report, base, exp)
        digest = [_digest(os.path.join(d, f)) for f in EXAMPLE_FILES]
        if first_digest.setdefault(rec.case, digest) != digest:
            fails.append(f"outputs differ from the first run of gain seed {pool[rec.case]}")
        return fails

    @staticmethod
    def _check_constant_price(gain_seed: int, workdir: str) -> list[str]:
        import checks

        out = os.path.join(workdir, "constant-price")
        rc = _cli_main(["reproduce-example", "--constant-price", "--seed", str(gain_seed), "--out-dir", out])
        if rc != 0:
            return [f"reproduce-example --constant-price exited {rc}"]
        ratio = checks.load_json(os.path.join(out, "savings_report.json"))["relative_error"]
        want = inputs.EXAMPLE_ALPHA[1, 2] / inputs.EXAMPLE_ALPHA[1, 0]
        return [] if abs(ratio - want) <= 1e-6 * want else [f"constant-price relative error {ratio!r} != {want}"]


class MultizoneMpc:
    """Library pipeline on random 6-zone networks with 3 controlled zones, K=192.

    Each network's LP takes its own number of pivots (about 6 % apart),
    so the pool holds five networks and a run's median rests on all of
    them, each solved twice.
    """

    name = "multizone-mpc"
    pool_size = 5
    min_rounds = 1

    def setup(self, seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 2])
        pool = []
        for _ in range(self.pool_size):
            case = inputs.multizone_case(rng)
            grid = TimeGrid(dt_h=inputs.DT_H, steps=case["steps"])
            case["program"] = {
                "net": ThermalNetwork(case["caps"], case["alpha"]),
                "plan": SetpointPlan(case["setpoints"], case["controlled"]),
                "grid": grid,
                "tariff": Tariff(tuple(TariffPeriod(*p) for p in case["tariff"])),
                "cop": CopCurve(-15.0, 1.8, 8.3, 3.3, 1.0),
                "gain_spec": GainSpec(0.25, 0.01, 0.01, 0.10, case["gain_seed"]),
                "comfort": ComfortSchedule.from_bands(
                    grid, inputs.TIGHT_BAND_C, inputs.WIDE_BAND_C, list(inputs.TIGHT_WINDOWS)
                ),
            }
            pool.append(case)
        return pool

    def run(self, case: dict, op: int, workdir: str) -> dict:
        p = case["program"]
        grid = p["grid"]
        weather = scenario.synthetic_weather(grid)
        gains = scenario.synthesize_gains(p["gain_spec"], weather, case["exterior_wall_m2"], case["floor_m2"])
        price = scenario.thermal_price(p["tariff"], p["cop"], weather.outdoor, grid)
        base = scenario.run_baseline(p["net"], p["plan"], weather, gains, grid)
        opt = lp.optimize_controlled_zones(p["net"], p["plan"], grid, price, p["comfort"], gains, weather.outdoor)
        exp = scenario.run_experiment(p["net"], p["plan"], weather, gains, grid, opt.q_kw)
        report = estimator.savings_report(base, exp, p["net"], CostModel.uniform(price, p["net"].n), p["plan"])
        return {"objective": opt.objective_usd, "base": base, "exp": exp, "price": price.values, "report": report}

    def check(self, pool: list[dict], records: list, workdir: str) -> dict[int, list[str]]:
        return {rec.op: _guarded(self._check_op, pool[rec.case], rec.output) for rec in records if not rec.error}

    @staticmethod
    def _check_op(case: dict, out: dict) -> list[str]:
        import checks

        base, exp = _traj_dict(out["base"], out["price"]), _traj_dict(out["exp"], out["price"])
        fails = checks.plan_failures(
            case["caps"], case["alpha"], case["setpoints"], case["controlled"], exp,
            inputs.comfort_delta(case["steps"]), out["objective"],
        )
        return fails + checks.identity_failures(dataclasses.asdict(out["report"]), base, exp)


class FieldAccounting:
    """Post-hoc accounting of metered month-long experiments, no optimization.

    An operation simulates both scenarios of one case, writes the two
    trajectory CSVs and a config JSON, and runs ``crosszone estimate`` on
    them. Each case writes into its own directory; the report of every
    operation is kept under its operation number.
    """

    name = "field-accounting"
    pool_size = 8
    min_rounds = 1

    def setup(self, seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 3])
        pool = []
        for i in range(self.pool_size):
            case = inputs.field_case(rng)
            case["dir"] = f"case-{i}"
            grid = TimeGrid(dt_h=inputs.DT_H, steps=case["steps"])
            case["program"] = {
                "net": ThermalNetwork(case["caps"], case["alpha"]),
                "plan": SetpointPlan(case["setpoints"], case["controlled"]),
                "grid": grid,
                "weather": WeatherSeries(grid, Signal(case["outdoor"]), Signal(case["ghi"])),
            }
            case["config_json"] = json.dumps(inputs.field_config(case))
            pool.append(case)
        return pool

    def run(self, case: dict, op: int, workdir: str) -> dict:
        p = case["program"]
        d = os.path.join(workdir, case["dir"])
        os.makedirs(d, exist_ok=True)
        base = scenario.run_baseline(p["net"], p["plan"], p["weather"], case["gains"], p["grid"])
        q = base.powers_kw[:, np.asarray(case["controlled"]) - 1] + case["dq"]
        exp = scenario.run_experiment(p["net"], p["plan"], p["weather"], case["gains"], p["grid"], q)
        cli.write_trajectory_csv(os.path.join(d, "baseline.csv"), base, case["price"])
        cli.write_trajectory_csv(os.path.join(d, "experiment.csv"), exp, case["price"])
        config = os.path.join(d, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(case["config_json"])
        rc = _cli_main(["estimate", "--config", config, "--out-dir", d])
        if rc != 0:
            raise RuntimeError(f"estimate exited {rc}")
        report = os.path.join(d, f"report-{op:05d}.json")
        os.replace(os.path.join(d, "savings_report.json"), report)
        return {"dir": d, "report": report}

    def check(self, pool: list[dict], records: list, workdir: str) -> dict[int, list[str]]:
        by_case: dict[int, dict] = {}
        return {rec.op: _guarded(self._check_op, pool, rec, by_case) for rec in records if not rec.error}

    @staticmethod
    def _check_op(pool: list[dict], rec, by_case: dict) -> list[str]:
        """The report of one operation; the CSVs and in-memory report once per case."""
        import checks

        case = pool[rec.case]
        if rec.case not in by_case:
            p = case["program"]
            base = checks.read_trajectory(os.path.join(rec.output["dir"], "baseline.csv"))
            exp = checks.read_trajectory(os.path.join(rec.output["dir"], "experiment.csv"))
            mem_base = scenario.run_baseline(p["net"], p["plan"], p["weather"], case["gains"], p["grid"])
            q = mem_base.powers_kw[:, np.asarray(case["controlled"]) - 1] + case["dq"]
            mem_exp = scenario.run_experiment(p["net"], p["plan"], p["weather"], case["gains"], p["grid"], q)
            cost = CostModel.uniform(case["price"], p["net"].n)
            mem = dataclasses.asdict(estimator.savings_report(mem_base, mem_exp, p["net"], cost, p["plan"]))
            with open(rec.output["report"], "rb") as fh:
                first = fh.read()
            by_case[rec.case] = {
                "base": base, "exp": exp, "mem": mem, "first": first,
                "fails": checks.resim_failures(case["caps"], case["alpha"], case["setpoints"], case["controlled"], exp),
            }
        c = by_case[rec.case]
        with open(rec.output["report"], "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        fails = c["fails"] + checks.identity_failures(report, c["base"], c["exp"])
        fails += checks.report_failures(report, c["mem"])
        if raw != c["first"]:
            fails.append("report differs from the first operation on the same case")
        return fails


def _traj_dict(traj, price: np.ndarray) -> dict:
    return {
        "temps": np.asarray(traj.temps_c),
        "powers": np.asarray(traj.powers_kw),
        "gains": np.asarray(traj.gains_kw),
        "outdoor": np.asarray(traj.outdoor_c),
        "price": np.asarray(price),
    }


WORKLOADS = {w.name: w for w in (ExampleStudy(), MultizoneMpc(), FieldAccounting())}
