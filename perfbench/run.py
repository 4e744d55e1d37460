"""Closed-loop benchmark of lml's four questions, one workload per run.

    python3 perfbench/run.py --workload verify-lattice --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  One client in one thread calls the
public API, each operation starting after the previous one returned and
was checked against its oracle.  Operations run in whole blocks (see
workloads.py) until --seconds have passed.

--trace 0 prints the end-to-end metrics: set-up time (median of several
set-ups), operations per second, median operation time, the share of
operations that succeeded, and peak resident memory.
--trace 1 runs a fixed, seed-determined list of operations twice, plain
and with span wrappers around every layer (tracing.py), and prints
per-operation call counts, self times and work counts per layer, plus the
tracing overhead; the spans are written under .perfbench/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  correct is false when any
operation returned a wrong verdict; an operation that raises or times out
counts as failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import types

from tracing import Tracer
from workloads import WORKLOADS

LAYER_MODULES = ("words", "balls", "iso", "localmodel", "reconstruct", "cosets", "fixtures")
SETUP_REPEATS = 7
OP_TIMEOUT_S = 60.0
# Stop starting operations past this many seconds of process time, so a
# badly slowed program still ends the run within three minutes.
PROCESS_BUDGET_S = 150.0
SPAN_DIR = ".perfbench"


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its timeout.

    A BaseException, so an `except Exception` inside the program cannot
    swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout("no result within the operation's timeout")


def lml_layers():
    """The loaded lml modules by layer name, importing any not yet loaded."""
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"lml.{name}") for name in LAYER_MODULES}
    )


def import_lml(src):
    """Fresh import of every lml module from src; returns them by layer."""
    for name in [n for n in sys.modules if n == "lml" or n.startswith("lml.")]:
        del sys.modules[name]
    pkg = importlib.import_module("lml")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(src, "lml"):
        raise ImportError(f"lml was imported from {pkg.__file__}, not from {src}")
    return lml_layers()


def set_up(workload, src, seed):
    """Import lml, build engines and the seeded input pool; timed.

    Garbage left by an earlier set-up is collected first, outside the
    timed region, so every set-up starts from the same heap.
    """
    gc.collect()
    start = time.perf_counter()
    lml = import_lml(src)
    workload.setup(lml, seed)
    pool = workload.pool()
    return time.perf_counter() - start, pool


class Runner:
    """Runs operations one at a time, each under its own timeout."""

    def __init__(self, workload, started):
        self.workload = workload
        self.started = started
        self.durations = []
        self.wrong = 0
        self.errors = 0

    def out_of_budget(self):
        return time.perf_counter() - self.started > PROCESS_BUDGET_S

    def run(self, op, tracer=None, op_id=0):
        """One operation: call, then check; returns the result or None."""
        budget = PROCESS_BUDGET_S + 20.0 - (time.perf_counter() - self.started)
        timeout = max(1.0, min(OP_TIMEOUT_S, budget))
        result = None
        ok = False
        if tracer is not None:
            tracer.begin_op(op_id)
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                result = self.workload.call(op)
                ok = self.workload.check(op, result)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (Exception, OpTimeout) as err:
            self.errors += 1
            print(f"operation {op.spec!r} failed: {type(err).__name__}: {err}", file=sys.stderr)
        else:
            if not ok:
                self.wrong += 1
                print(f"operation {op.spec!r}: wrong verdict", file=sys.stderr)
        self.durations.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end_op()
        return result

    @property
    def attempted(self):
        return len(self.durations)

    @property
    def failed(self):
        return self.wrong + self.errors


def _fresh(workload, op):
    return type(op)(op.spec, workload.build(op.spec))


def measure(workload, pool, seconds, started):
    """Whole blocks, cycling through the pool, until `seconds` have passed."""
    runner = Runner(workload, started)
    start = time.perf_counter()
    b = 0
    while runner.attempted == 0 or time.perf_counter() - start < seconds:
        for op in _pool_block(workload, pool, b):
            if runner.out_of_budget():
                break
            runner.run(op)
        if runner.out_of_budget():
            break
        b += 1
    elapsed = time.perf_counter() - start
    return runner, elapsed


def end_to_end(workload, src, seed, seconds, started):
    setups = []
    for _ in range(SETUP_REPEATS):
        pool = None
        dt, pool = set_up(workload, src, seed)
        setups.append(dt)
    gc.collect()
    runner, elapsed = measure(workload, pool, seconds, started)
    done = runner.attempted - runner.failed
    durations = sorted(runner.durations)
    p50 = statistics.median(durations)
    line = (
        f"{workload.name}: {runner.attempted} operations in {elapsed:.2f} s, "
        f"median {p50:.4f} s over {len(durations)} samples"
    )
    if len(durations) >= 100:
        p90 = statistics.quantiles(durations, n=10)[-1]
        line += f", p90 {p90:.4f} s"
    print(line)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (done / elapsed, "1/s"),
        "verdict_p50_s": (p50, "s"),
        "ok_share": (done / runner.attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return runner, metrics


def trace_ops(workload, ops, started):
    """Each op run plain and traced; returns both runners and the tracer.

    The plain and traced copies of an operation run back to back, in
    alternating order, so drift in machine load cancels out of the
    overhead ratio.  Both copies get inputs built just before, and before
    the wrappers go in, so set-up work records no spans and neither copy
    finds its inputs warmer in the caches.
    """
    plain = Runner(workload, started)
    runner = Runner(workload, started)
    tracer = Tracer()
    for i, op in enumerate(ops):
        if runner.out_of_budget():
            break
        first, second = _fresh(workload, op), _fresh(workload, op)
        if i % 2:
            _run_traced(runner, tracer, first, i)
            plain.run(second)
        else:
            plain.run(first)
            _run_traced(runner, tracer, second, i)
    return plain, runner, tracer


def traced(workload, src, seed, seconds, started):
    """A fixed, seed-determined op list, plain and traced; per-layer metrics."""
    _, pool = set_up(workload, src, seed)
    blocks = max(1, round(seconds / workload.block_s))
    ops = [op for b in range(blocks) for op in _pool_block(workload, pool, b)]
    plain, runner, tracer = trace_ops(workload, ops, started)
    n = runner.attempted
    overhead = sum(runner.durations) / sum(plain.durations) - 1.0
    os.makedirs(SPAN_DIR, exist_ok=True)
    tracer.write(
        os.path.join(SPAN_DIR, f"spans-{workload.name}-{seed}.json"),
        {"workload": workload.name, "seed": seed, "operations": n},
    )
    metrics = {
        name: (v["value"], v["unit"])
        for name, v in tracer.per_layer_metrics(n, overhead).items()
    }
    print(f"{workload.name}: traced {n} operations, overhead {overhead:.3f}")
    runner.wrong += plain.wrong
    runner.errors += plain.errors
    runner.durations += plain.durations
    return runner, metrics


def _run_traced(runner, tracer, op, op_id):
    tracer.install()
    try:
        runner.run(op, tracer, op_id)
    finally:
        tracer.uninstall()


def _pool_block(workload, pool, b):
    """Block b of the pool; reused specs get new input objects, so no
    state cached on an input carries over from an earlier operation."""
    block = pool[b % len(pool)]
    return block if b < len(pool) else [_fresh(workload, op) for op in block]


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "lml", "__init__.py")):
        print(f"error: no lml package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    signal.signal(signal.SIGALRM, _on_alarm)

    workload = WORKLOADS[args.workload]()
    run = traced if args.trace else end_to_end
    runner, metrics = run(workload, src, args.seed, args.seconds, started)
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
