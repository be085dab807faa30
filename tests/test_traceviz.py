"""Tests for the Chrome-trace exporter."""

import hashlib
import json

import pytest

from repro import experiments
from repro.experiments import fig2_walkthrough
from repro.machine import small_machine
from repro.metrics.hub import MetricsHubPlan
from repro.probes import attached
from repro.probes.programs import RateMeter
from repro.system import System
from repro.tracing import cli as tracing_cli
from repro.tracing.spans import install_tracer
from repro.traceviz import PID_PROBES, export_chrome_trace, write_chrome_trace


@pytest.fixture
def ran_system():
    system = System(config=small_machine())
    system.kernel.fs.create_file("/data/f", b"t" * 8192, on_disk=True)
    system.kernel.fs.resolve("/data/f").cached_pages.clear()
    buf = system.memsystem.alloc_buffer(64)

    def kern(ctx):
        fd = yield from ctx.sys.open("/data/f")
        yield from ctx.sys.pread(fd, buf, 64, 0)
        yield from ctx.sys.close(fd)

    def body():
        yield system.launch(kern, 2, 2)

    system.run_to_completion(body())
    return system


class TestExport:
    def test_syscall_events_present(self, ran_system):
        trace = export_chrome_trace(ran_system)
        syscall_events = [
            e for e in trace["traceEvents"] if e.get("cat") == "syscall"
        ]
        names = {e["name"] for e in syscall_events}
        assert {"open", "pread", "close"} <= names
        assert len(syscall_events) == ran_system.genesys.syscalls_completed

    def test_events_have_positive_durations(self, ran_system):
        trace = export_chrome_trace(ran_system)
        for event in trace["traceEvents"]:
            if event.get("ph") == "X":
                assert event["dur"] > 0
                assert event["ts"] >= 0

    def test_counter_tracks_present(self, ran_system):
        trace = export_chrome_trace(ran_system)
        counters = {e["name"] for e in trace["traceEvents"] if e.get("ph") == "C"}
        assert "cpu_utilization" in counters
        assert "gpu_slot_utilization" in counters
        assert "disk_throughput_MBps" in counters

    def test_timestamps_within_run(self, ran_system):
        trace = export_chrome_trace(ran_system)
        end_us = ran_system.now / 1000.0
        for event in trace["traceEvents"]:
            if "ts" in event and event.get("ph") != "M":
                assert 0 <= event["ts"] <= end_us + 1

    def test_metadata(self, ran_system):
        trace = export_chrome_trace(ran_system)
        assert trace["otherData"]["syscalls"] == ran_system.genesys.syscalls_completed
        assert trace["otherData"]["simulated_ns"] == ran_system.now

    def test_write_roundtrip(self, ran_system, tmp_path):
        path = tmp_path / "run.trace.json"
        written = write_chrome_trace(ran_system, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["otherData"] == written["otherData"]
        assert len(loaded["traceEvents"]) == len(written["traceEvents"])

    def test_empty_run_exports_cleanly(self):
        system = System(config=small_machine())
        trace = export_chrome_trace(system)
        assert isinstance(trace["traceEvents"], list)


class TestTraceEventFormat:
    """Validity of the emitted Trace Event Format records."""

    def test_complete_events_carry_required_keys(self, ran_system):
        trace = export_chrome_trace(ran_system)
        complete = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert complete
        for event in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert isinstance(event["name"], str)
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))

    def test_counter_events_carry_required_keys(self, ran_system):
        trace = export_chrome_trace(ran_system)
        counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
        assert counters
        for event in counters:
            assert {"name", "ph", "ts", "pid", "args"} <= set(event)
            assert isinstance(event["args"], dict)
            for value in event["args"].values():
                assert isinstance(value, (int, float))

    def test_every_pid_has_a_process_name(self, ran_system):
        trace = export_chrome_trace(ran_system)
        named = {
            e["pid"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        used = {e["pid"] for e in trace["traceEvents"] if e.get("ph") != "M"}
        assert used <= named

    def test_trace_is_json_serialisable(self, ran_system):
        json.dumps(export_chrome_trace(ran_system))


class TestProbeCounterTracks:
    def test_rate_meter_appears_as_probe_track(self):
        system = System(config=small_machine())
        system.probes.attach(
            "syscall.complete", RateMeter(system.probes, bin_ns=5000.0)
        )
        system.kernel.fs.create_file("/data/f", b"t" * 4096, on_disk=True)
        buf = system.memsystem.alloc_buffer(64)

        def kern(ctx):
            fd = yield from ctx.sys.open("/data/f")
            yield from ctx.sys.pread(fd, buf, 64, 0)
            yield from ctx.sys.close(fd)

        def body():
            yield system.launch(kern, 2, 2)

        system.run_to_completion(body())
        trace = export_chrome_trace(system)
        probe_events = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "C" and e["name"].startswith("probe:")
        ]
        assert probe_events
        for event in probe_events:
            assert event["name"] == "probe:syscall.complete"
            assert event["pid"] == PID_PROBES
            assert event["args"]["value"] > 0

    def test_no_probes_no_probe_tracks(self, ran_system):
        trace = export_chrome_trace(ran_system)
        assert not any(
            e["name"].startswith("probe:")
            for e in trace["traceEvents"]
            if e.get("ph") == "C"
        )


class TestGoldenBytes:
    """The export bytes are pinned: any change to an event, its order,
    its dict key order, its rounding or ``otherData`` moves a digest."""

    #: sha256 of each document's JSON for fig2 with a RateMeter, a
    #: SpanTracer and a metrics hub attached.
    CHROME_TRACE_SHA256 = (
        "a0c669b458c8bab4cea2987d93b68cb78dbd5e625ac21f670d79b03489758a7d"
    )
    SPAN_TEF_SHA256 = (
        "1a702167fbf510765e3278534d07385f727072ee3cdeac5473e9f63fecc779a1"
    )

    @staticmethod
    def attach_rate_meter(registry):
        registry.attach("syscall.complete", RateMeter(registry, bin_ns=1000.0))

    def test_chrome_trace_bytes(self, monkeypatch):
        systems = []

        class RecordingSystem(System):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                systems.append(self)

        monkeypatch.setattr(fig2_walkthrough, "System", RecordingSystem)
        with attached(self.attach_rate_meter, install_tracer, MetricsHubPlan()):
            experiments.run("fig2")
        (system,) = systems
        trace = export_chrome_trace(system)
        assert sorted({e["pid"] for e in trace["traceEvents"]}) == [1, 2, 3, 4, 5]
        digest = hashlib.sha256(json.dumps(trace).encode()).hexdigest()
        assert digest == self.CHROME_TRACE_SHA256

    def test_span_tef_bytes(self, tmp_path, capsys):
        path = tmp_path / "spans.trace.json"
        # The CLI attaches its own SpanTracer inside these outer scopes.
        with attached(self.attach_rate_meter, MetricsHubPlan()):
            assert tracing_cli.main(["report", "fig2", "--quiet", "--tef", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SPAN_TEF_SHA256
