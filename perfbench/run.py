#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of crosszone.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload example-study --seed 1 --seconds 30 --trace 0

Each workload runs as a closed loop in one process: an operation starts
only after the previous one ends. The loop runs whole rounds over the
workload's input pool until ``--seconds`` have passed and at least
``min_rounds`` rounds are done. After the loop, every operation's outputs
are checked against computations made apart from the program; an
operation that raised, failed a check or was left unchecked counts as
failed. ``correct`` is true only if at least one operation ran to its end
and every operation that ran to its end passed all its checks. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run also writes its spans to
``.perfbench_runs/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
SETUP_REPEATS = 9
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import crosszone.cli; print(time.perf_counter() - t)"


@dataclass
class Record:
    op: int
    case: int
    seconds: float
    end: float
    output: dict | None
    error: str | None


def time_import() -> float:
    """Seconds to import crosszone and its CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_loop(workload, pool, seconds: float, workdir: str, tracer) -> tuple[list[Record], float]:
    """Whole rounds over the pool until ``seconds`` pass; returns records and loop start."""
    records: list[Record] = []
    start = time.perf_counter()
    rounds = 0
    while rounds < workload.min_rounds or time.perf_counter() - start < seconds:
        for index, case in enumerate(pool):
            op = len(records)
            if tracer:
                tracer.begin(op)
            t0 = time.perf_counter()
            try:
                output, error = workload.run(case, op, workdir), None
            except Exception:  # a failing operation is counted, and the loop goes on
                output, error = None, traceback.format_exc()
            t1 = time.perf_counter()
            if tracer:
                tracer.end()
            if error:
                print(f"operation {op} failed:\n{error}", file=sys.stderr)
            records.append(Record(op, index, t1 - t0, t1, output, error))
        rounds += 1
    return records, start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crosszone", "cli.py")):
        print(f"no crosszone sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import crosszone.cli  # noqa: F401  (timed separately in fresh interpreters)

    if not os.path.abspath(crosszone.cli.__file__).startswith(SRC + os.sep):
        print(f"crosszone imported from {crosszone.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        imported = time_import()
        t0 = time.perf_counter()
        pool = workload.setup(args.seed)
        setups.append(imported + time.perf_counter() - t0)

    os.makedirs(RUNS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS)
    try:
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            records, start = run_loop(workload, pool, args.seconds, workdir, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
        failures = workload.check(pool, records, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = 0
    wrong = 0
    for rec in records:
        problems = [rec.error] if rec.error else failures.get(rec.op, ["no check ran on its outputs"])
        if problems:
            failed += 1
            if not rec.error:
                wrong += 1
                print(f"operation {rec.op} (case {rec.case}) failed its checks: {problems}", file=sys.stderr)
    ok_times = [r.seconds for r in records if not r.error]
    op_s_p50 = statistics.median(ok_times) if ok_times else float("nan")
    print(
        f"{args.workload} seed {args.seed}: {len(records)} operations, {len(records) // len(pool)} rounds, "
        f"op_s_p50 over {len(ok_times)} samples = {op_s_p50:.4f} s, {failed} failed",
        file=sys.stderr,
    )

    if tracer:
        values = tracer.summary([r.op for r in records])
        tracer.write(
            os.path.join(RUNS, f"trace-{args.workload}-{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "op_s_p50_traced": op_s_p50, "operations": len(records)},
        )
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_s_p50": op_s_p50,
            "ops_per_s": len(records) / (records[-1].end - start),
            "peak_rss_mb": peak_rss_mb,
        }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if tracer else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    correct = wrong == 0 and len(ok_times) > 0
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
