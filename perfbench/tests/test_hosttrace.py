"""Tests for the benchmark's host-time tracer and output checks.

Run with:  python3 -m pytest perfbench/tests -q
"""

import importlib
import os
import shutil
import subprocess
import sys

import pytest

import run
import suite
from hosttrace import LAYERS, HostTracer, TimedGenerator

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    """Integer-nanosecond clock that moves only when a test moves it."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def tracer():
    installed = HostTracer().install()
    try:
        yield installed
    finally:
        installed.uninstall()


def test_proxy_forwards_send_throw_and_return_value():
    tracer = HostTracer()

    def inner():
        got = yield "first"
        try:
            yield got
        except ValueError as exc:
            return ("caught", str(exc))
        return "not reached"

    proxy = TimedGenerator(tracer, inner(), "core")
    assert next(proxy) == "first"
    assert proxy.send("echo") == "echo"
    with pytest.raises(StopIteration) as stop:
        proxy.throw(ValueError("boom"))
    assert stop.value.value == ("caught", "boom")

    def outer():
        result = yield from TimedGenerator(tracer, inner(), "core")
        return result

    gen = outer()
    assert next(gen) == "first"
    assert gen.send("x") == "x"
    with pytest.raises(StopIteration) as stop:
        gen.throw(ValueError("via yield from"))
    assert stop.value.value == ("caught", "via yield from")


def test_proxy_close_runs_finally():
    closed = []

    def body():
        try:
            yield 1
        finally:
            closed.append(True)

    proxy = TimedGenerator(HostTracer(), body(), "gpu")
    next(proxy)
    proxy.close()
    assert closed == [True]


def test_interrupt_reaches_a_proxied_process():
    from repro.sim.engine import Interrupted, Simulator

    tracer = HostTracer()
    sim = Simulator()
    causes = []

    def body():
        try:
            yield 1000.0
        except Interrupted as exc:
            causes.append(exc.cause)
            yield 5.0
            return "stopped"
        return "slept"

    proc = sim.process(TimedGenerator(tracer, body(), "core"))

    def interrupter():
        yield 10.0
        proc.interrupt("why")

    sim.process(interrupter())
    sim.run()
    assert proc.result == "stopped"
    assert causes == ["why"]
    assert sim.now == 15.0
    assert tracer.self_ns["core"] > 0


def test_traced_counts_match_the_models_own_counters(tracer):
    from repro import System

    system = System()
    system.kernel.fs.create_file("/tmp/in", b"x" * 256)
    fires = []
    system.probes.attach("syscall.submit", lambda *args: fires.append(args))

    def kern(ctx):
        fd = yield from ctx.sys.open("/tmp/in", 0)
        yield from ctx.sys.close(fd)

    seq_before = system.sim._seq
    system.run_kernel(kern, global_size=32, workgroup_size=16)
    stats = system.genesys.stats()
    counts = tracer.counts
    assert counts["gpu.lane_ops"] == system.gpu.wavefront_stats["lane_ops"] > 0
    assert counts["core.invocations"] == sum(stats["invocations"].values()) == 64
    assert counts["oskernel.syscalls"] == sum(stats["syscall_counts"].values()) == 64
    hits = sum(tp.hits for tp in system.probes.tracepoints.values())
    assert counts["probes.fires"] == hits == len(fires) == 64
    assert 0 < counts["sim.events"] <= system.sim._seq - seq_before
    for layer in ("sim", "gpu", "memory", "core", "oskernel", "system"):
        assert tracer.self_ns[layer] > 0, layer


def test_planted_delay_lands_in_its_own_layer_only(monkeypatch):
    from repro import experiments
    from repro.memory.cache import Cache

    clock = FakeClock()
    original = Cache.access

    def slow_access(cache, line):
        clock.now += 1000
        return original(cache, line)

    monkeypatch.setattr(Cache, "access", slow_access)
    tracer = HostTracer(clock=clock).install()
    try:
        experiments.run("fig2")
    finally:
        tracer.uninstall()
    lookups = tracer.counts["memory.cache_lookups"]
    assert lookups > 0
    assert tracer.self_ns["memory"] == 1000 * lookups
    assert {layer for layer in LAYERS if tracer.self_ns[layer]} == {"memory"}


def test_detach_finds_a_wrapped_observer(tracer):
    from repro.probes.tracepoints import ProbeRegistry, StreamRecorder

    registry = ProbeRegistry()
    tp = registry.tracepoint("demo", ("value",))
    recorder = StreamRecorder(registry).attach("demo")
    tp.fire(7)
    assert [args for _t, _name, args in recorder.events] == [(7,)]
    assert tracer.self_ns["probes"] > 0
    (tap,) = [obs.fn for obs in tp._observers]
    tp.detach(tap)
    assert not tp.enabled


def test_uninstall_restores_every_entry_point():
    from repro import experiments
    from repro.memory.cache import Cache
    from repro.sanitizers.gsan import GSanPlan
    from repro.sim import snapshot
    from repro.sim.engine import Simulator

    sweep = importlib.import_module("repro.serving.sweep")
    owners = (Simulator, Cache, snapshot, experiments, sweep, GSanPlan)
    before = [dict(vars(owner)) for owner in owners]
    HostTracer().install().uninstall()
    assert [dict(vars(owner)) for owner in owners] == before


def test_traced_figure_matches_its_pin():
    pins = suite.load_pins()
    tracer = HostTracer().install()
    try:
        digest, failures = suite.Figures(0).run_op("fig2")
    finally:
        tracer.uninstall()
    assert failures == 0
    assert digest == pins["figures"]["fig2"]
    assert tracer.self_ns["experiments"] > 0


def test_observed_serving_point_matches_the_bare_pin():
    pins = suite.load_pins()
    tracer = HostTracer().install()
    try:
        workload = suite.ServingObserved(1)
        workload.setup()
        tracer.reset()
        digest, failures = workload.run_op(55_000)
    finally:
        tracer.uninstall()
    assert failures == 0  # no bad replies, no GSan findings
    assert digest == pins["serving"]["1"]["55000"]
    for layer in ("sanitizers", "metrics", "tracing", "serving", "snapshot"):
        assert tracer.self_ns[layer] > 0, layer
    assert tracer.inclusive_ns["snapshot.restore"] > 0


def test_canonical_data_ignores_order_and_addresses():
    from repro.workloads.base import WorkloadResult

    first = {"b": {3, 1, 2}, "a": [WorkloadResult("w", "v", 1.5, {2: b"x", 1: 0.1})]}
    second = {"a": [WorkloadResult("w", "v", 1.5, {1: 0.1, 2: b"x"})], "b": {2, 3, 1}}
    assert suite.canonical(first) == suite.canonical(second)
    assert suite.canonical({"system": object()}) == suite.canonical({"system": object()})
    moved = {"a": [WorkloadResult("w", "v", 1.5 + 1e-9, {1: 0.1, 2: b"x"})], "b": {1, 2, 3}}
    assert suite.canonical(moved) != suite.canonical(first)


def test_checker_counts_each_wrong_operation_once():
    checker = run.Checker({"a": "pin-a", "b": "pin-b"})
    checker.check("a", "pin-a", 0)
    checker.check("b", "other", 0)
    checker.check("a", "pin-a", 2)
    assert (checker.attempted, checker.failed) == (3, 2)
    unpinned = run.Checker(None)
    unpinned.check(1, "d1", 0)
    unpinned.check(1, "d2", 0)
    assert (unpinned.attempted, unpinned.failed) == (2, 1)


def test_measure_scales_host_time_to_the_reference_speed(monkeypatch):
    class OneOp:
        def ops(self):
            return ["op"]

        def run_op(self, op):
            return "digest", 0

    # A host running at half the reference speed.
    monkeypatch.setattr(run, "calibration_s", lambda: 2 * run.CALIBRATION_REFERENCE_S)
    samples, scaled = run.measure(OneOp(), 0.0, run.Checker(None))
    assert len(samples["op"]) == 1
    assert scaled["op"] == [t / 2 for t in samples["op"]]


def test_run_refuses_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serving",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
