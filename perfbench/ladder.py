#!/usr/bin/env python3
"""Reference ladder for the control LP: horizon K x controlled zones m.

Usage, from the root of a checkout:

    python3 perfbench/ladder.py            # regenerates perfbench/LADDER.md

Each point builds the control LP with the package, then times the
built-in ``solve_lp`` and HiGHS (``scipy.optimize.linprog``) on that same
LP and records pivots and the objective agreement. m = 1 is the built-in
two-zone study stretched to K steps; m = 2 and 3 are seeded random 6-zone
networks from the benchmark's own generator (seed 1). Every point runs in
its own process under a time limit. When the point at K/2 took longer
than an eighth of the limit, the point at K is not run: its LP has twice
the pivots, each on a basis four times the size, so it is named as out of
reach instead. This is reference data, not a benchmark metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "LADDER.md")
HORIZONS = (96, 192, 480, 960)
ZONES = (1, 2, 3)
LIMIT_S = 240.0


def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, read from the library itself."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return str(getattr(lib, symbol)())
    return "unknown"


def point(k: int, m: int) -> dict:
    sys.path[:0] = [SRC, HERE]
    import dataclasses

    import numpy as np
    import scipy.optimize
    import scipy.sparse

    import inputs
    from crosszone.config import default_config
    from crosszone.lp import ComfortSchedule, build_control_lp, solve_lp
    from crosszone.model import ThermalNetwork, TimeGrid
    from crosszone.scenario import CopCurve, GainSpec, SetpointPlan, Tariff, TariffPeriod
    from crosszone.scenario import synthesize_gains, synthetic_weather, thermal_price

    grid = TimeGrid(dt_h=inputs.DT_H, steps=k)
    if m == 1:
        cfg = dataclasses.replace(default_config(), grid=grid)
        net, plan, tariff, cop, spec = cfg.network, cfg.plan, cfg.tariff, cfg.cop_curve, cfg.gain_spec
        ext, floor, zones = cfg.exterior_wall_m2, cfg.floor_m2, 2
    else:
        case = inputs.multizone_case(np.random.default_rng([1, 2]), m=m, steps=k)
        net = ThermalNetwork(case["caps"], case["alpha"])
        plan = SetpointPlan(case["setpoints"], case["controlled"])
        tariff = Tariff(tuple(TariffPeriod(*p) for p in case["tariff"]))
        cop = CopCurve(-15.0, 1.8, 8.3, 3.3, 1.0)
        spec = GainSpec(0.25, 0.01, 0.01, 0.10, case["gain_seed"])
        ext, floor, zones = case["exterior_wall_m2"], case["floor_m2"], 6
    weather = synthetic_weather(grid)
    gains = synthesize_gains(spec, weather, ext, floor)
    price = thermal_price(tariff, cop, weather.outdoor, grid)
    comfort = ComfortSchedule.from_bands(grid, inputs.TIGHT_BAND_C, inputs.WIDE_BAND_C, list(inputs.TIGHT_WINDOWS))
    prob = build_control_lp(net, plan, grid, price, comfort, gains, weather.outdoor)

    t0 = time.perf_counter()
    sol = solve_lp(prob)
    solve_s = time.perf_counter() - t0
    a_sparse = scipy.sparse.csr_matrix(prob.a_eq)
    bounds = [(lo, None if np.isinf(hi) else hi) for lo, hi in zip(prob.lower, prob.upper)]
    t0 = time.perf_counter()
    ref = scipy.optimize.linprog(prob.c, A_eq=a_sparse, b_eq=prob.b_eq, bounds=bounds, method="highs")
    highs_s = time.perf_counter() - t0
    return {
        "K": k, "m": m, "zones": zones, "rows": prob.n_rows, "cols": prob.n_vars,
        "solve_s": solve_s, "pivots": sol.iterations, "highs_s": highs_s,
        "rel_diff": abs(sol.objective - ref.fun) / abs(ref.fun),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--point", nargs=2, type=int, metavar=("K", "M"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point:
        print(json.dumps(point(*args.point)))
        return 0

    rows = []
    for m in ZONES:
        previous_s = 0.0
        for k in HORIZONS:
            if previous_s > LIMIT_S / 8.0:
                rows.append(f"| {k} | {m} | not run: the K={k // 2} point took {previous_s:.0f} s | | | | |")
                previous_s = float("inf")
                continue
            try:
                done = subprocess.run(
                    [sys.executable, __file__, "--point", str(k), str(m)],
                    capture_output=True, text=True, timeout=LIMIT_S, check=True,
                )
            except subprocess.TimeoutExpired:
                rows.append(f"| {k} | {m} | over {LIMIT_S:.0f} s | | | | |")
                previous_s = float("inf")
                continue
            p = json.loads(done.stdout.strip().splitlines()[-1])
            previous_s = p["solve_s"]
            rows.append(
                f"| {k} | {m} | {p['solve_s']:.3f} s | {p['pivots']} | {p['highs_s']:.4f} s | "
                f"{p['rel_diff']:.1e} | {p['rows']} x {p['cols']} |"
            )
            print(rows[-1], flush=True)

    import numpy
    import scipy

    lines = [
        "# Control-LP reference ladder",
        "",
        "Regenerate with `python3 perfbench/ladder.py` from the root of a checkout.",
        f"Limit per point: {LIMIT_S:.0f} s. m = 1 is the built-in two-zone study at horizon K;",
        "m = 2, 3 are seeded random 6-zone networks. HiGHS solves the same LP (sparse);",
        "'rel. diff.' is |built-in - HiGHS| / |HiGHS| of the objective.",
        "",
        f"Machine: {os.cpu_count()} CPUs, Python {platform.python_version()}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, OpenBLAS threads {blas_threads()}.",
        "",
        "| K | m | built-in solve | pivots | HiGHS | rel. diff. | LP rows x cols |",
        "|---|---|---|---|---|---|---|",
        *rows,
        "",
    ]
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
