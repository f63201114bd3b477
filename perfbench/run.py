#!/usr/bin/env python3
"""The discmorse benchmark. Run from the repository root:

    python3 perfbench/run.py --workload homology-ladder --seed 1 --seconds 10 --trace 0

Each invocation runs one workload in its own single-threaded process: it
repeats whole passes over the workload's fixed operations until --seconds
have passed, checks every output, and sets the workload up (import plus
inputs plus expected answers) fifteen times spread over the run. Between
operations it times a fixed reference computation, and every time it
reports is scaled by the host's speed at that moment, read from those
reference times (see ``Speedometer``). The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1. ``--workload all`` runs every workload in turn, each in a
fresh process, and prints one line per workload before the combined
result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import ModuleType
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
# compile the program from source on every import: cached bytecode is
# neither read nor written, so set-up costs the same in every checkout
sys.dont_write_bytecode = True
sys.pycache_prefix = str(HERE / "_work" / "no-bytecode")

from tracing import LAYER_FUNCTIONS, Tracer  # noqa: E402
from workloads import WORKLOADS, Plan  # noqa: E402

SETUP_REPS = 15
# seconds the reference computation is taken to last; every reported time
# is in seconds of a host on which it lasts this long
REF_S = 0.004
SPEED_SHARE = 0.1    # share of a pass's time spent on reference samples
SPEED_WINDOW = 1.0   # reference samples this close to an interval set its speed

END_TO_END = {"run_s": "s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}
COUNT_METRICS = [
    "complexes.cells", "chains.boundary_nnz", "chains.boundary_entries",
    "matchings.critical_cells", "matchings.morse_excess", "matchings.morse_bound",
    "elimination.steps", "homology.snf_entries", "homology.transform_entries",
]
CLI_SPANS = [f"cli.{c}_s" for c in ("homology", "morse", "reduce", "euler", "subdivide", "product")]
PER_LAYER = {
    **{m: "s" for m in LAYER_FUNCTIONS},
    **{m: "s" for m in CLI_SPANS},
    **{m: "count" for m in COUNT_METRICS},
    "trace.run_s": "s",
    "trace.spans": "count",
}


def import_program():
    """Import discmorse afresh: earlier copies are dropped first."""
    for name in [m for m in sys.modules if m == "discmorse" or m.startswith("discmorse.")]:
        del sys.modules[name]
    pkg = importlib.import_module("discmorse")
    importlib.import_module("discmorse.cli")
    return pkg


class Speedometer:
    """Reads the host's speed while the workload runs.

    On a shared host the speed of one process drifts by up to 2x, in
    phases from well under a second to many minutes, in CPU time as much
    as in wall time. So a time taken alone says as much about the host as
    about the program. Between operations the benchmark times a fixed
    ``reference`` computation: after each operation, until the samples have taken
    SPEED_SHARE of the pass so far. ``scaled`` divides a measured interval
    by the median reference time within SPEED_WINDOW of it and multiplies
    by REF_S. A change to the program moves the scaled time as it moves
    the wall time, while a slow phase of the host that lasts longer than
    the window slows the reference with it and cancels out; the faster
    drift is left to the median over passes. The reference runs with the
    garbage collector off, so the program's heap does not change its
    cost."""

    ROWS, COLS = 500, 800

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.took: list[float] = []
        self.origin = 0.0
        self.spent = 0.0
        self._table = {i: 7 * i for i in range(3000)}
        self._matrix = [[(7 * i + 3 * j) % 5 - 2 for j in range(self.COLS)] for i in range(self.ROWS)]
        self._row = 0

    def reference(self) -> int:
        """The same work every time, of the two kinds the program spends
        its time on: dict lookups with integer arithmetic, and row
        operations on a list-of-lists matrix (3 MB, larger than a core's
        cache) that walk through it from one call to the next."""
        table, total = self._table, 0
        for _ in range(4):
            for i in range(3000):
                total += table[(31 * i) % 3000] * (i & 7)
        m, p = self._matrix, self._row
        pivot = m[p % self.ROWS]
        for r in range(1, 19):
            t = (p + 41 * r) % self.ROWS
            m[t] = [(a - b) % 5 - 2 for a, b in zip(m[t], pivot)]
        self._row = p + 19
        return total

    def sample(self) -> None:
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.reference()
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        self.took.append(t1 - t0)
        self.spent += t1 - t0

    def start_pass(self) -> None:
        self.origin, self.spent = time.perf_counter(), 0.0
        self.sample()

    def keep_up(self) -> None:
        while self.spent < SPEED_SHARE * (time.perf_counter() - self.origin):
            self.sample()

    def scaled(self, start: float, end: float, seconds: float | None = None) -> float:
        """``seconds`` (by default end - start), measured over [start, end],
        at the host speed where the reference takes REF_S."""
        i = bisect.bisect_left(self.ends, start - SPEED_WINDOW)
        j = bisect.bisect_right(self.starts, end + SPEED_WINDOW)
        near = self.took[i:j] or self.took
        return (end - start if seconds is None else seconds) * REF_S / statistics.median(near)


def set_up(build: Callable[[ModuleType], Plan], speed: Speedometer, times: list[tuple[float, float]]) -> Plan:
    """One timed set-up: import, inputs, expected answers, followed by
    its share of reference samples."""
    gc.collect()
    t0 = time.perf_counter()
    plan = build(import_program())
    times.append((t0, time.perf_counter()))
    speed.keep_up()
    return plan


def measure(build: Callable[[ModuleType], Plan], seconds: float, tracer: Tracer | None) -> tuple[Plan, dict]:
    """Set-ups, then whole passes until the time is up; every output
    checked after its pass, outside the timed region. Each pass starts
    after a full garbage collection, so every pass starts from the same
    heap.

    Every time is scaled by the Speedometer. Every pass does the same work,
    so an operation's time is the median of its scaled times over the
    run's passes: run_s is their sum, and op_p50_ms their median over the
    operations. Untraced, the workload is set up SETUP_REPS times, at even
    intervals of the run between passes, and setup_s is the median scaled
    set-up. Each pass uses the latest set-up; the earlier plan and the
    last pass's outputs are dropped first, so that two copies of the
    inputs are never alive at once. Traced, it is set up once, before the
    tracer wraps the program's functions, and each per-layer time is the
    median over the passes of its sum in one pass, scaled by the speed
    over that pass."""
    reps = 1 if tracer else SETUP_REPS
    speed = Speedometer()
    setup_times: list[tuple[float, float]] = []
    speed.start_pass()
    plan = set_up(build, speed, setup_times)
    if tracer:
        tracer.install()
    correct, failed = True, 0
    op_spans: list[list[tuple[float, float]]] = []
    pass_spans: list[tuple[float, float]] = []
    layers: list[Counter] = []
    start = time.perf_counter()
    while not op_spans or time.perf_counter() < start + seconds:
        outputs = None
        while len(setup_times) < reps and time.perf_counter() - start >= len(setup_times) * seconds / reps:
            plan = None
            plan = set_up(build, speed, setup_times)
        gc.collect()
        speed.start_pass()
        outputs, spans = [], []
        first = len(tracer.spans) if tracer else 0
        for op in plan.ops:
            t = time.perf_counter()
            try:
                out = tracer.call(op.span, op.run) if tracer and op.span else op.run()
            except Exception as exc:  # a failed operation is counted; the pass goes on
                out = exc
            spans.append((t, time.perf_counter()))
            outputs.append(out)
            speed.keep_up()
        op_spans.append(spans)
        pass_spans.append((spans[0][0], spans[-1][1]))

        tally: Counter = Counter()
        for op, out in zip(plan.ops, outputs):
            if isinstance(out, Exception):
                failed += 1
                if len(op_spans) == 1 and not op.fault:
                    print(f"failed: {op.name}: {out!r}", file=sys.stderr)
                continue
            if not _checked(op, out):
                correct = False
            elif tracer:
                tally["complexes.cells"] += op.cells
                if op.counts:
                    tally.update(op.counts(out))
        if tracer:
            tally.update(tracer.tally)
            tracer.tally.clear()
            tally.update(tracer.self_times(first, len(tracer.spans)))
            tally["trace.spans"] = len(tracer.spans) - first
            layers.append(tally)
    outputs = None
    while len(setup_times) < reps:
        plan = None
        plan = set_up(build, speed, setup_times)
    speed.sample()
    op_s = [statistics.median(speed.scaled(*iv) for iv in ivs) for ivs in zip(*op_spans)]
    return plan, {
        "correct": correct, "failed": failed, "passes": len(op_spans),
        "run_s": sum(op_s), "op_p50_ms": 1000 * statistics.median(op_s),
        "setup_s": statistics.median(speed.scaled(*iv) for iv in setup_times),
        "layers": {
            m: statistics.median(speed.scaled(*iv, t[m]) for iv, t in zip(pass_spans, layers))
            if unit == "s" else statistics.median_low(t[m] for t in layers)
            for m, unit in PER_LAYER.items()
        } if tracer else {},
    }


def _checked(op, out) -> bool:
    try:
        ok = op.check(out)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        print(f"wrong: {op.name}: {exc!r}", file=sys.stderr)
        return False
    if not ok:
        print(f"wrong: {op.name}", file=sys.stderr)
    return bool(ok)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / "_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        try:
            plan, res = measure(lambda dm: WORKLOADS[name](dm, seed, work), seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
                tracer.write(HERE / "traces" / f"{name}-seed{seed}.json")
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        correct = res["correct"] and plan.final_check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        values = {**res["layers"], "trace.run_s": res["run_s"]}
        metrics = {m: {"value": values[m], "unit": u} for m, u in PER_LAYER.items()}
    else:
        values = {
            "run_s": res["run_s"], "op_p50_ms": res["op_p50_ms"],
            "setup_s": res["setup_s"], "peak_rss_mib": peak_mib,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    return {
        "correct": correct,
        "attempted": res["passes"] * len(plan.ops),
        "failed": res["failed"],
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: {json.dumps(res)}")
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{m}": v for m, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
