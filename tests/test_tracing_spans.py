"""Tests for per-invocation span tracing (`repro.tracing`).

Covers the tracer's stage reconstruction and telescoping-reconciliation
guarantee, the halt/resume accounting agreement with the wavefront
scheduler's own tracepoints, the analysis statistics, the Perfetto span
export (pid 4, flow arrows, metadata), the latency-regression gate, the
completion-log ring buffer + sysfs knob, and the
``python -m repro.tracing`` CLI.
"""

import json

import pytest

from repro.core.invocation import WaitMode
from repro.machine import small_machine
from repro.oskernel.errors import Errno, OsError
from repro.oskernel.fs import O_RDWR
from repro.system import System
from repro.tracing import STAGE_ORDER, InvocationTrace, SpanTracer, span_tracers
from repro.tracing import analysis, gate
from repro.traceviz import PID_SPANS, span_tracks

#: Stage -> tid as the span tracks number them, in pipeline order.
STAGE_TIDS = {stage: tid for tid, stage in enumerate(STAGE_ORDER, start=1)}


def traced_system():
    system = System(config=small_machine())
    tracer = SpanTracer(system.probes).install()
    system.kernel.fs.create_file("/data/f", b"t" * 8192, on_disk=True)
    system.kernel.fs.resolve("/data/f").cached_pages.clear()
    return system, tracer


def run_rw_workload(system, wavefronts=2, lanes=2, **opts):
    buf = system.memsystem.alloc_buffer(64)

    def kern(ctx):
        fd = yield from ctx.sys.open("/data/f", **opts)
        yield from ctx.sys.pread(fd, buf, 64, 0, **opts)
        yield from ctx.sys.close(fd, **opts)

    def body():
        yield system.launch(kern, wavefronts, lanes)

    system.run_to_completion(body())


class TestSpanReconstruction:
    def test_every_invocation_traced_and_complete(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        assert len(tracer.completed) == system.genesys.syscalls_completed
        assert not tracer.active
        for trace in tracer.completed:
            assert trace.complete

    def test_unique_monotonic_invocation_ids(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        ids = [t.invocation_id for t in tracer.completed]
        assert len(ids) == len(set(ids))

    def test_stage_marks_in_chronological_order(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        for trace in tracer.completed:
            times = [t for _, t in trace.marks]
            assert times == sorted(times)

    def test_spans_telescope_to_end_to_end(self):
        """The tentpole reconciliation bound: per-invocation stage sums
        equal end-to-end latency within 1 ns (exactly, in fact)."""
        system, tracer = traced_system()
        run_rw_workload(system)
        assert tracer.completed
        for trace in tracer.completed:
            assert analysis.reconciliation_error(trace) < 1.0

    def test_fig7_reconciles_every_invocation(self):
        """ISSUE acceptance: on fig7, per-invocation stage sums match
        end-to-end latency within 1 ns, and the per-stage stats carry
        p50/p95/p99."""
        from repro.tracing.cli import collect_traces, run_traced

        _, tracers = run_traced("fig7")
        traces = collect_traces(tracers)
        assert traces
        for trace in traces:
            assert analysis.reconciliation_error(trace) < 1.0
        stats = analysis.stage_stats(traces)
        assert stats
        for stage_summary in stats.values():
            assert {"p50", "p95", "p99"} <= set(stage_summary)

    def test_stage_names_are_canonical(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        for trace in tracer.completed:
            stages = [stage for stage, _ in trace.marks[1:]]
            order = [STAGE_ORDER.index(s) for s in stages]
            assert order == sorted(order)

    def test_blocking_trace_ends_in_resume(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        for trace in tracer.completed:
            assert trace.marks[-1][0] == "resume"

    def test_nonblocking_trace_ends_at_service(self):
        system, tracer = traced_system()
        buf = system.memsystem.alloc_buffer(64)

        def kern(ctx):
            yield from ctx.sys.pwrite(1, buf, 16, 0, blocking=False)

        def body():
            yield system.launch(kern, 1, 2)

        system.run_to_completion(body())
        done = [t for t in tracer.completed if t.name == "pwrite"]
        assert done
        for trace in done:
            assert not trace.blocking
            assert trace.marks[-1][0] == "service"
            assert "resume" not in dict(trace.marks)

    def test_mark_is_idempotent(self):
        trace = InvocationTrace(1, "open", 0, 0, "work-item", True, "poll")
        trace.mark("claim", 10.0)
        trace.mark("submit", 20.0)
        trace.mark("submit", 30.0)
        assert trace.marks == [("claim", 10.0), ("submit", 20.0)]

    def test_detached_run_mints_no_traces_but_still_counts(self):
        system = System(config=small_machine())
        system.kernel.fs.create_file("/data/f", b"t" * 8192, on_disk=True)
        run_rw_workload(system)
        assert span_tracers(system.probes) == []
        assert system.genesys._next_invocation_id == system.genesys.syscalls_completed


class TestHaltResumeAccounting:
    """The tracer's resume stage must agree with the wavefront
    scheduler's own halt/resume bookkeeping."""

    def run_with_wait(self, wait):
        system, tracer = traced_system()
        wakes = []  # (t_ns, hw_id, halted_ns) per wavefront.resume fire
        registry = system.probes
        registry.attach(
            "wavefront.resume",
            lambda hw_id, halted_ns: wakes.append((registry.now(), hw_id, halted_ns)),
        )
        run_rw_workload(system, wait=wait)
        return system, tracer, wakes

    def test_halt_resume_marks_equal_scheduler_wake_times(self):
        system, tracer, wakes = self.run_with_wait(WaitMode.HALT_RESUME)
        assert wakes
        wake_times = {(hw, t) for t, hw, _ in wakes}
        resumed = [t for t in tracer.completed if t.wait == "halt-resume"]
        assert resumed
        for trace in resumed:
            resume_t = dict(trace.marks)["resume"]
            assert (trace.hw_id, resume_t) in wake_times

    def test_halt_resume_span_covers_the_resume_charge(self):
        system, tracer, wakes = self.run_with_wait(WaitMode.HALT_RESUME)
        charge = system.gpu.config.halt_resume_ns
        for trace in tracer.completed:
            resume_span = dict(trace.spans())["resume"]
            assert resume_span >= charge

    def test_poll_never_halts(self):
        system, tracer, wakes = self.run_with_wait(WaitMode.POLL)
        assert wakes == []  # polling never halts the wavefront
        charge = system.gpu.config.halt_resume_ns
        for trace in tracer.completed:
            # No halt-resume charge in the resume span: it is only the
            # tail of the poll loop (bounded well below the wake charge).
            assert 0.0 <= dict(trace.spans())["resume"] < charge

    def test_nonblocking_never_halts(self):
        system, tracer = traced_system()
        wakes = []
        system.probes.attach(
            "wavefront.resume", lambda hw_id, halted_ns: wakes.append(hw_id)
        )
        buf = system.memsystem.alloc_buffer(64)

        def kern(ctx):
            yield from ctx.sys.pwrite(1, buf, 16, 0, blocking=False)

        def body():
            yield system.launch(kern, 1, 2)

        system.run_to_completion(body())
        assert wakes == []
        assert all("resume" not in dict(t.marks) for t in tracer.completed)


class TestAnalysis:
    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert analysis.percentile(values, 50) == 20.0
        assert analysis.percentile(values, 95) == 40.0
        assert analysis.percentile([], 50) == 0.0

    def test_summarize_empty(self):
        stats = analysis.summarize([])
        assert stats["count"] == 0 and stats["p99"] == 0.0

    def test_stage_stats_canonical_order(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        stages = list(analysis.stage_stats(tracer.completed))
        assert stages == [s for s in STAGE_ORDER if s in stages]
        assert "service" in stages and "resume" in stages

    def test_critical_path_shares_sum_to_one(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        attribution = analysis.critical_path(tracer.completed)
        assert sum(s["share"] for s in attribution.values()) == pytest.approx(1.0)
        assert sum(s["dominant"] for s in attribution.values()) == len(tracer.completed)

    def test_slowest_is_deterministic_and_sorted(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        worst = analysis.slowest(tracer.completed, 3)
        e2e = [t.end_to_end() for t in worst]
        assert e2e == sorted(e2e, reverse=True)

    def test_render_report_contains_all_sections(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        report = analysis.render_report(tracer.completed, title="unit")
        assert "stage latency" in report
        assert "end-to-end by syscall" in report
        assert "granularity x blocking" in report
        assert "slowest" in report

    def test_render_report_empty(self):
        assert "no completed invocations" in analysis.render_report([])

    def test_snapshot_is_schema_versioned(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        snap = tracer.snapshot()
        assert snap["kind"] == "spans"
        assert snap["schema"] == 2
        assert snap["invocations"] == len(tracer.completed)
        json.dumps(snap)


class TestSpanExport:
    def test_span_tracks_pid_and_tids(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        events = span_tracks([tracer])
        assert events
        assert {e["pid"] for e in events} == {PID_SPANS}
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == sum(len(t.spans()) for t in tracer.completed)
        for event in spans:
            assert event["tid"] == STAGE_TIDS[event["args"]["stage"]]

    def test_flow_arrows_pair_up(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        events = span_tracks([tracer])
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == len(tracer.completed)
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        for event in finishes:
            assert event["bp"] == "e"

    def test_metadata_names_every_stage_track(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        events = span_tracks([tracer])
        assert events[0]["ph"] == "M" and events[0]["name"] == "process_name"
        named = {
            e["tid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert named == set(STAGE_TIDS.values())

    def test_no_traces_no_events(self):
        system, tracer = traced_system()
        assert span_tracks([tracer]) == []

    def test_traceviz_merges_span_process(self):
        from repro.traceviz import export_chrome_trace

        system, tracer = traced_system()
        run_rw_workload(system)
        trace = export_chrome_trace(system)
        events = trace["traceEvents"]
        assert any(e["pid"] == PID_SPANS for e in events)
        named = {
            e["pid"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        used = {e["pid"] for e in events if e.get("ph") != "M"}
        assert used <= named
        json.dumps(trace)

    def test_traceviz_names_syscall_threads(self):
        from repro.traceviz import PID_SYSCALLS, export_chrome_trace

        system, tracer = traced_system()
        run_rw_workload(system)
        events = export_chrome_trace(system)["traceEvents"]
        hw_ids = {hw for _, hw, _, _ in system.genesys.completion_log}
        named = {
            e["tid"]
            for e in events
            if e.get("ph") == "M"
            and e["name"] == "thread_name"
            and e["pid"] == PID_SYSCALLS
        }
        assert hw_ids <= named


class TestGate:
    def make_traces(self):
        system, tracer = traced_system()
        run_rw_workload(system)
        return tracer.completed

    def test_record_and_gate_round_trip(self, tmp_path):
        traces = self.make_traces()
        baseline = gate.build_baseline("unit", traces)
        path = gate.write_baseline(str(tmp_path), baseline)
        assert json.load(open(path))["schema"] == gate.BASELINE_SCHEMA
        result = gate.gate_experiment("unit", traces, str(tmp_path))
        assert result.passed
        assert result.checks and not result.failures

    def test_regression_fails(self, tmp_path):
        traces = self.make_traces()
        gate.write_baseline(str(tmp_path), gate.build_baseline("unit", traces))
        current = gate.build_baseline("unit", traces)
        current["stages"]["service"]["p95"] *= 2.0
        result = gate.compare(gate.load_baseline(str(tmp_path), "unit"), current)
        assert not result.passed
        assert any(c.stage == "service" and c.metric == "p95" for c in result.failures)

    def test_within_band_passes(self, tmp_path):
        traces = self.make_traces()
        baseline = gate.build_baseline("unit", traces)
        current = gate.build_baseline("unit", traces)
        current["stages"]["service"]["p95"] *= 1.05  # inside the 10% band
        assert gate.compare(baseline, current).passed

    def test_invocation_count_change_is_structural(self):
        traces = self.make_traces()
        baseline = gate.build_baseline("unit", traces)
        current = gate.build_baseline("unit", traces[:-1])
        result = gate.compare(baseline, current)
        assert not result.passed
        assert result.errors

    def test_vanished_stage_is_structural(self):
        traces = self.make_traces()
        baseline = gate.build_baseline("unit", traces)
        current = gate.build_baseline("unit", traces)
        del current["stages"]["resume"]
        result = gate.compare(baseline, current)
        assert any("resume" in err for err in result.errors)

    def test_schema_mismatch_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({"schema": 99, "experiment": "bad"}))
        with pytest.raises(ValueError):
            gate.load_baseline(str(tmp_path), "bad")

    def test_recorded_experiments_listing(self, tmp_path):
        assert gate.recorded_experiments(str(tmp_path / "missing")) == []
        traces = self.make_traces()
        gate.write_baseline(str(tmp_path), gate.build_baseline("b", traces))
        gate.write_baseline(str(tmp_path), gate.build_baseline("a", traces))
        assert gate.recorded_experiments(str(tmp_path)) == ["a", "b"]

    def test_committed_baselines_gate_green(self):
        """The repo's committed baselines must match a fresh run."""
        import os

        directory = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "latency")
        recorded = gate.recorded_experiments(directory)
        assert recorded, "no committed baselines under benchmarks/latency"
        from repro.tracing.cli import collect_traces, run_traced

        name = recorded[0]
        _, tracers = run_traced(name)
        result = gate.compare(
            gate.load_baseline(directory, name),
            gate.build_baseline(name, collect_traces(tracers)),
        )
        assert result.passed, result.render()


class TestCompletionLogRing:
    def test_unbounded_by_default(self):
        system, _ = traced_system()
        run_rw_workload(system)
        genesys = system.genesys
        assert genesys.completion_log_limit == 0
        assert len(genesys.completion_log) == genesys.syscalls_completed
        assert genesys.completion_log_dropped == 0

    def test_limit_keeps_newest_and_counts_drops(self):
        system, _ = traced_system()
        system.genesys.set_completion_log_limit(3)
        run_rw_workload(system)
        genesys = system.genesys
        assert len(genesys.completion_log) == 3
        assert genesys.completion_log_dropped == genesys.syscalls_completed - 3
        # The survivors are the newest completions.
        ends = [end for _, _, _, end in genesys.completion_log]
        assert ends == sorted(ends)

    def test_shrinking_trims_immediately(self):
        system, _ = traced_system()
        run_rw_workload(system)
        genesys = system.genesys
        total = len(genesys.completion_log)
        genesys.set_completion_log_limit(2)
        assert len(genesys.completion_log) == 2
        assert genesys.completion_log_dropped == total - 2

    def test_negative_limit_rejected(self):
        system, _ = traced_system()
        with pytest.raises(ValueError):
            system.genesys.set_completion_log_limit(-1)

    def test_stats_reports_drops(self):
        system, _ = traced_system()
        system.genesys.set_completion_log_limit(1)
        run_rw_workload(system)
        assert system.genesys.stats()["completion_log_dropped"] > 0


def write_sysfs(system, path, payload: bytes):
    mem = system.memsystem
    proc = system.host

    def body():
        fd = yield from system.kernel.call(proc, "open", path, O_RDWR)
        buf = mem.alloc_buffer(max(len(payload), 1))
        buf.data[: len(payload)] = payload
        yield from system.kernel.call(proc, "write", fd, buf, len(payload))
        yield from system.kernel.call(proc, "close", fd)

    system.sim.run_process(body())


LOG_LIMIT = "/sys/genesys/completion_log_limit"


class TestCompletionLogSysfs:
    def test_knob_exists_and_reads_default(self):
        system = System(config=small_machine())
        assert system.kernel.fs.read_whole(LOG_LIMIT).strip() == b"0"

    def test_write_updates_limit(self):
        system = System(config=small_machine())
        write_sysfs(system, LOG_LIMIT, b"16\n")
        assert system.genesys.completion_log_limit == 16
        assert system.kernel.fs.read_whole(LOG_LIMIT).strip() == b"16"

    @pytest.mark.parametrize("payload", [b"not-a-number", b"-1", b"2.5"])
    def test_bad_writes_fail_einval(self, payload):
        system = System(config=small_machine())
        with pytest.raises(OsError) as exc:
            write_sysfs(system, LOG_LIMIT, payload)
        assert exc.value.errno == Errno.EINVAL
        assert system.genesys.completion_log_limit == 0


class TestTracingCli:
    def test_report_runs_fig2(self, capsys, tmp_path):
        from repro.tracing.cli import main

        tef = tmp_path / "spans.trace.json"
        code = main(["report", "fig2", "--quiet", "--tef", str(tef)])
        assert code == 0
        out = capsys.readouterr().out
        assert "stage latency" in out
        doc = json.loads(tef.read_text())
        assert any(e.get("pid") == PID_SPANS for e in doc["traceEvents"])

    def test_record_then_gate(self, capsys, tmp_path):
        from repro.tracing.cli import main

        assert main(["record", "fig2", "--dir", str(tmp_path)]) == 0
        assert (tmp_path / "fig2.json").exists()
        assert main(["gate", "--dir", str(tmp_path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gate_without_baselines_errors(self, tmp_path):
        from repro.tracing.cli import main

        assert main(["gate", "--dir", str(tmp_path / "none")]) == 2

    def test_probes_cli_spans_attach(self, capsys, tmp_path):
        from repro.probes.cli import main

        metrics = tmp_path / "m.json"
        code = main(
            ["run", "fig2", "--attach", "spans", "--quiet", "--metrics", str(metrics)]
        )
        assert code == 0
        snapshot = json.loads(metrics.read_text())
        sections = [
            prog
            for sysm in snapshot["systems"]
            for prog in sysm["programs"]
            if prog["kind"] == "spans"
        ]
        assert sections
        for section in sections:
            assert section["schema"] == 2
            assert set(section["stages"]) <= set(STAGE_ORDER)
