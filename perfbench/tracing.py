"""Span tracing around calls into the package's public functions.

The tracer replaces each traced function in every crosszone module that
holds a reference to it, so a call made from one module into another (for
example ``discretize`` called from ``lp``, ``cli`` and ``scenario``) is
recorded wherever the caller looks the name up. Spans stay in memory with
name, start, end, parent and operation id, and ``write`` dumps them when
the run ends. Nothing in the package itself is modified on disk.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import Counter

# module -> public functions wrapped under "<module>.<function>".
TRACED = {
    "config": ("load_config",),
    "scenario": ("synthetic_weather", "synthesize_gains", "thermal_price", "run_baseline", "run_experiment"),
    "dynamics": ("discretize", "simulate"),
    "linalg": ("matrix_exp",),
    "lp": ("build_control_lp", "solve_lp", "kkt_residuals", "optimize_controlled_zones"),
    "estimator": ("savings_report",),
    "cli": ("write_trajectory_csv", "read_trajectory_csv", "main"),
    "svgplot": ("render_figure",),
}

INPUTS = ("scenario.synthetic_weather", "scenario.synthesize_gains", "scenario.thermal_price")


class Tracer:
    """Records spans for calls made while an operation is open."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "crosszone" or name.startswith("crosszone.")]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"crosszone.{mod_name}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    if getattr(mod, func, None) is original:
                        self._patched.append((mod, func, original))
                        setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._patched):
            setattr(mod, func, original)
        self._patched.clear()

    def begin(self, op: int) -> None:
        self._op = op

    def end(self) -> None:
        self._op = None

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self._op is None:
                return func(*args, **kwargs)
            span = {"name": name, "op": self._op, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            cpu0 = time.process_time()
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu_s"] = time.process_time() - cpu0
                self._stack.pop()
            _annotate(span, name, args, kwargs, result)
            return result

        return traced

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per-layer values of every traced operation, keyed by op id."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_s[span["parent"]] += span["end"] - span["start"]
        ops: dict[int, _OpTotals] = {}
        for span, covered in zip(self.spans, child_s):
            ops.setdefault(span["op"], _OpTotals()).add(span, covered)
        return {op: totals.values() for op, totals in ops.items()}

    def summary(self, ops: list[int]) -> dict[str, float]:
        """Median over ``ops`` of each per-layer value (0 where a layer is not called)."""
        table = self.per_op()
        empty = _OpTotals().values()
        rows = [table.get(op, empty) for op in ops]
        return {name: statistics.median(r[name] for r in rows) for name in empty}

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": self.spans}, fh)


def _annotate(span: dict, name: str, args: tuple, kwargs: dict, result) -> None:
    """Counts taken at the boundary: inputs identity, pivots, bytes."""
    if name == "dynamics.discretize":
        net, grid = args[0], args[1]
        zones = kwargs.get("zones", args[2] if len(args) > 2 else None)
        zones = tuple(range(1, net.n + 1)) if zones is None else tuple(zones)
        span["key"] = hash(
            (net.capacitances_kwh_per_c.tobytes(), net.conductances_kw_per_c.tobytes(), zones, grid.dt_h)
        )
    elif name == "lp.solve_lp":
        span["pivots"] = result.iterations
    elif name == "lp.build_control_lp":
        span["a_eq_bytes"] = result.a_eq.nbytes
    elif name == "cli.write_trajectory_csv":
        span["bytes"] = os.path.getsize(args[0])


class _OpTotals:
    """Sums over the spans of one operation."""

    def __init__(self):
        self.s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.cpu_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.keys: set = set()

    def add(self, span: dict, covered_s: float) -> None:
        name, dur = span["name"], span["end"] - span["start"]
        self.s[name] += dur
        self.self_s[name] += dur - covered_s
        self.cpu_s[name] += span["cpu_s"]
        self.calls[name] += 1
        for count in ("pivots", "a_eq_bytes", "bytes"):
            self.counts[count] += span.get(count, 0)
        if "key" in span:
            self.keys.add(span["key"])

    def values(self) -> dict[str, float]:
        s, n_disc, pivots = self.s, self.calls["dynamics.discretize"], self.counts["pivots"]
        values = {
            "config.load_config.s": s["config.load_config"],
            "scenario.inputs.s": sum(s[n] for n in INPUTS),
            "scenario.run_baseline.s": s["scenario.run_baseline"],
            "scenario.run_experiment.self_s": self.self_s["scenario.run_experiment"],
            "dynamics.discretize.calls": float(n_disc),
            "dynamics.discretize.unique_ratio": len(self.keys) / n_disc if n_disc else 0.0,
            "dynamics.discretize.s": s["dynamics.discretize"],
            "linalg.matrix_exp.s": s["linalg.matrix_exp"],
            "dynamics.simulate.calls": float(self.calls["dynamics.simulate"]),
            "dynamics.simulate.s": s["dynamics.simulate"],
            "lp.build_control_lp.s": s["lp.build_control_lp"],
            "lp.a_eq.mb": self.counts["a_eq_bytes"] / 1e6,
            "lp.solve_lp.s": s["lp.solve_lp"],
            "lp.solve_lp.cpu_s": self.cpu_s["lp.solve_lp"],
            "lp.pivots": float(pivots),
            "lp.s_per_pivot": s["lp.solve_lp"] / pivots if pivots else 0.0,
            "lp.kkt_residuals.s": s["lp.kkt_residuals"],
            "lp.optimize_controlled_zones.self_s": self.self_s["lp.optimize_controlled_zones"],
            "estimator.savings_report.s": s["estimator.savings_report"],
            "cli.write_trajectory_csv.s": s["cli.write_trajectory_csv"],
            "cli.csv_write.mb": self.counts["bytes"] / 1e6,
            "cli.read_trajectory_csv.s": s["cli.read_trajectory_csv"],
            "cli.main.self_s": self.self_s["cli.main"],
            "svgplot.render_figure.s": s["svgplot.render_figure"],
        }
        return {name: float(v) for name, v in values.items()}
