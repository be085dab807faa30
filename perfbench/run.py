"""Run one benchmark workload; print its result as the last stdout line.

    python3 perfbench/run.py --workload serving --seed 3 --seconds 30 --trace 0

Run from the root of a checkout: the simulator is imported from
``src/``.  One process, one thread, no run-farm workers.

``--trace 0`` cycles through the workload's operations for
``--seconds`` (at least one full pass; an operation starts only if its
last duration still fits).  Each operation starts from a collected
heap, so none pays for another's garbage and peak memory does not
depend on the collector's schedule.  It reports the end-to-end metrics:

* ``wall_s``: the sum over operations of each one's median host time
  scaled to the reference host's speed (:func:`calibration_s`), i.e.
  the time of one full pass there; the unscaled sum goes to stderr;
* ``setup_s``: the median of several fresh-interpreter imports of the
  workload's modules, plus for serving the median of several warm
  builds and checkpoints, each scaled to the reference host's speed;
* ``peak_rss_mib``: this process's peak resident memory.

``--trace 1`` ignores ``--seconds``: it runs one untraced pass,
installs :class:`HostTracer`, repeats set-up and runs one traced pass,
and reports the per-layer metrics plus ``trace_overhead`` (traced pass
over untraced pass).  The traced pass's digests must equal the
untraced pass's.

Every operation's simulated output is digested and compared with
``pins.json`` and with its earlier repetitions; a mismatch, a bad
memcached reply or a GSan finding counts the operation as failed.
Seeds without serving pins additionally run one pass at ``CANARY_SEED``
after the measurement, so every run is checked against a pin.  A
summary with the run environment and per-operation sample counts goes
to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5
#: Pinned seed that unpinned serving runs are also checked at.
CANARY_SEED = 1
#: The calibration loop's length, and its typical host seconds on the
#: reference host (2-vCPU VM, Python 3.11.7).  ``wall_s`` and
#: ``setup_s`` scale each host time by this over the loop's time
#: measured around it, i.e. to seconds at the reference host's speed.
CALIBRATION_ITERATIONS = 300_000
CALIBRATION_REFERENCE_S = 0.025

_IMPORT_TIMER = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - start)\n"
)


class Checker:
    """Counts operations and the ones whose outputs are wrong."""

    def __init__(self, pinned: Optional[Dict[str, str]]) -> None:
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.first: Dict[str, str] = {}
        self.problems: List[str] = []

    def check(self, op: Any, digest: str, failures: int) -> None:
        key = str(op)
        self.attempted += 1
        problems = []
        if failures:
            problems.append(f"{failures} failed checks")
        if self.pinned is not None and digest != self.pinned.get(key):
            problems.append("digest differs from pin")
        if self.first.setdefault(key, digest) != digest:
            problems.append("digest differs from an earlier repetition")
        if problems:
            self.failed += 1
            self.problems.append(f"{key}: {', '.join(problems)}")


def import_seconds(modules) -> float:
    """Time to import ``modules`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, SRC, *modules],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(workload, checker: Checker) -> float:
    """Every operation once; returns the host seconds taken."""
    elapsed = 0.0
    for op in workload.ops():
        gc.collect()
        start = time.perf_counter()
        result = workload.run_op(op)
        elapsed += time.perf_counter() - start
        checker.check(op, *result)
    return elapsed


def calibration_s() -> float:
    """Host seconds for a fixed pure-Python loop: the host's current speed.

    The host's speed drifts by 15-30% over seconds to minutes (shared
    cores); the simulator and this loop are both interpreter-bound and
    slow down together, so their ratio holds where either alone does not.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def calibrated(fn: Any, *args: Any) -> tuple:
    """Run ``fn(*args)`` between two calibration loops.

    Returns its host seconds, the host's slowdown against the reference
    host (the loops' mean time over ``CALIBRATION_REFERENCE_S``; dividing
    a host time by it gives seconds at the reference speed) and its result.
    """
    before = calibration_s()
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    slowdown = (before + calibration_s()) / 2 / CALIBRATION_REFERENCE_S
    return elapsed, slowdown, result


def measure(workload, seconds: float, checker: Checker) -> tuple:
    """Cycle through the operations until ``seconds`` are used.

    Returns each operation's host seconds and its seconds at the
    reference host's speed.
    """
    ops = workload.ops()
    samples: Dict[Any, List[float]] = {op: [] for op in ops}
    scaled: Dict[Any, List[float]] = {op: [] for op in ops}
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        op = ops[index % len(ops)]
        if index >= len(ops) and time.perf_counter() + samples[op][-1] > deadline:
            break
        gc.collect()
        elapsed, slowdown, (digest, failures) = calibrated(workload.run_op, op)
        samples[op].append(elapsed)
        scaled[op].append(elapsed / slowdown)
        checker.check(op, digest, failures)
        index += 1
    return samples, scaled


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "note": "benchmarks/perf walls (seed_reference.json) were recorded "
        "on a different machine and are not comparable to these",
    }


def check_canary(workload, pins: dict, checker: Checker) -> None:
    """For an unpinned seed, one untimed pass at ``CANARY_SEED``."""
    if checker.pinned is not None:
        return
    canary = type(workload)(CANARY_SEED)
    canary.setup()
    canary_checker = Checker(canary.pinned(pins))
    run_pass(canary, canary_checker)
    checker.attempted += canary_checker.attempted
    checker.failed += canary_checker.failed
    checker.problems += [f"canary {p}" for p in canary_checker.problems]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload, seconds: float, pins: dict, report: dict) -> tuple:
    setup_imports = []
    setup_builds = []
    for _ in range(SETUP_REPEATS):
        _elapsed, slowdown, seconds = calibrated(import_seconds, workload.modules)
        setup_imports.append(seconds / slowdown)
        elapsed, slowdown, _ = calibrated(workload.setup)
        setup_builds.append(elapsed / slowdown)
    checker = Checker(workload.pinned(pins))
    samples, scaled = measure(workload, seconds, checker)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_canary(workload, pins, checker)
    report["samples"] = {
        str(op): {
            "n": len(times),
            "median_s": statistics.median(times),
            "min_s": min(times),
            "median_scaled_s": statistics.median(scaled[op]),
        }
        for op, times in samples.items()
    }
    report["host_wall_s"] = sum(statistics.median(t) for t in samples.values())
    metrics = {
        "wall_s": metric(sum(statistics.median(t) for t in scaled.values()), "s"),
        "setup_s": metric(
            statistics.median(setup_imports) + statistics.median(setup_builds), "s"
        ),
        "peak_rss_mib": metric(peak_rss_mib, "MiB"),
    }
    return checker, metrics


def traced(workload, pins: dict, report: dict) -> tuple:
    import hosttrace

    checker = Checker(workload.pinned(pins))
    workload.setup()
    untraced_s = run_pass(workload, checker)
    tracer = hosttrace.HostTracer()
    tracer.install()
    try:
        # Fresh machines built with the wrappers in place.
        traced_workload = type(workload)(workload.seed)
        traced_workload.setup()
        checkpoint_s = tracer.inclusive_ns["snapshot.checkpoint"] / 1e9
        tracer.reset()
        traced_s = run_pass(traced_workload, checker)
    finally:
        tracer.uninstall()
    check_canary(workload, pins, checker)
    blob = getattr(traced_workload, "blob", None)
    counts = tracer.counts
    self_ns = tracer.self_ns

    def per(layer: str, counter: str, scale: float) -> float:
        return self_ns[layer] / scale / counts[counter] if counts[counter] else 0.0

    metrics = {
        "sim.events": metric(counts["sim.events"], "count"),
        "sim.host_ns_per_event": metric(per("sim", "sim.events", 1.0), "ns"),
        "gpu.lane_ops": metric(counts["gpu.lane_ops"], "count"),
        "gpu.host_ns_per_lane_op": metric(per("gpu", "gpu.lane_ops", 1.0), "ns"),
        "memory.gpu_accesses": metric(counts["memory.gpu_accesses"], "count"),
        "memory.cache_lookups": metric(counts["memory.cache_lookups"], "count"),
        "core.invocations": metric(counts["core.invocations"], "count"),
        "core.host_us_per_syscall": metric(per("core", "core.invocations", 1e3), "us"),
        "oskernel.syscalls": metric(counts["oskernel.syscalls"], "count"),
        "probes.fires": metric(counts["probes.fires"], "count"),
        "snapshot.restore_s": metric(tracer.inclusive_ns["snapshot.restore"] / 1e9, "s"),
        "snapshot.checkpoint_s": metric(checkpoint_s, "s"),
        "snapshot.blob_mib": metric(len(blob) / 2**20 if blob else 0.0, "MiB"),
        "trace_overhead": metric(traced_s / untraced_s, "ratio"),
    }
    for layer in hosttrace.LAYERS:
        metrics[f"{layer}.self_s"] = metric(tracer.self_s(layer), "s")
    report["untraced_pass_s"] = untraced_s
    report["traced_pass_s"] = traced_s
    return checker, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no simulator sources under {SRC}; run from the root "
            "of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import suite

    if args.workload not in suite.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(suite.WORKLOADS)}")
    workload = suite.WORKLOADS[args.workload](args.seed)
    for module in workload.modules:
        importlib.import_module(module)
    pins = suite.load_pins()
    report: dict = {"workload": args.workload, "seed": args.seed, "env": environment()}
    if args.trace:
        checker, metrics = traced(workload, pins, report)
    else:
        checker, metrics = untraced(workload, args.seconds, pins, report)
    report["problems"] = checker.problems
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
