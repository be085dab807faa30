"""MetricsHub integration: installation, weak flush ticks, reads,
checkpoint/restore, and the exporters (Prometheus / CSV / TEF)."""

import json
import pickle

import pytest

from repro import experiments
from repro.metrics import MetricsHub, MetricsHubPlan, metrics_hubs
from repro.metrics.export import csv_text, prometheus_text, series_payload
from repro.probes.tracepoints import attached
from repro.system import System
from repro.traceviz import PID_METRICS, metric_tracks


def run_with_hub(name, window_ns=10_000.0):
    plan = MetricsHubPlan(window_ns=window_ns)
    with attached(plan):
        result = experiments.run(name)
    return result, plan


class TestInstallation:
    def test_plan_installs_one_hub_per_system(self):
        plan = MetricsHubPlan()
        with attached(plan):
            a = System()
            b = System()
        assert len(plan.hubs) == 2
        assert metrics_hubs(a.probes) == [plan.hubs[0]]
        assert metrics_hubs(b.probes) == [plan.hubs[1]]
        assert plan.hub is plan.hubs[-1]

    def test_hub_attaches_catalog_feeds(self):
        system = System()
        hub = MetricsHub().install(system.probes)
        # every catalog metric got an estimator…
        assert set(hub.metrics) == {s.name for s in hub.catalog}
        # …and the wired tracepoints are now enabled
        for tp_name in ("syscall.complete", "wq.depth", "net.drop"):
            assert system.probes.get(tp_name).enabled

    def test_install_on_partial_registry_skips_unknown(self):
        from repro.probes.tracepoints import ProbeRegistry

        registry = ProbeRegistry(None)
        registry.tracepoint("net.tx", ("nbytes",), "only this one exists")
        hub = MetricsHub().install(registry)
        assert "net.tx.rate" in hub.metrics  # wired
        assert "syscall.rate" in hub.metrics  # estimator exists, no feed

    def test_metrics_hubs_empty_cases(self):
        assert metrics_hubs(None) == []
        assert metrics_hubs(System().probes) == []


class TestTicksAndReads:
    def test_fig2_run_ticks_and_reads(self):
        _result, plan = run_with_hub("fig2")
        hub = plan.hub
        assert hub is not None
        assert hub.ticks > 0  # weak flush ticks ran at window boundaries
        assert hub.read("syscall.rate", window=1000, mode="count") > 0
        assert hub.read("syscall.latency", mode="count") > 0
        # reads never raise on idle metrics, they report zero
        assert hub.read("net.drop.rate") == 0.0

    def test_weak_ticks_never_advance_or_block_the_sim(self):
        registries = []

        def plan(registry):
            MetricsHub().install(registry)
            registries.append(registry)

        with attached(plan):
            experiments.run("fig2")
        sim = registries[0].sim
        assert sim.weak_scheduled > 0
        # drained: no parked metrics tick is keeping the heap alive
        assert not sim._live_work_pending()

    def test_tick_rearms_when_a_drained_run_resumes(self):
        # The parked tick is dropped once the heap drains; the next
        # fire on a later run must park a fresh one.
        from repro.core.invocation import Granularity
        from repro.machine import small_machine

        system = System(config=small_machine())
        hub = MetricsHub(window_ns=1_000.0).install(system.probes)

        def kern(ctx):
            yield from ctx.sys.getrusage(
                granularity=Granularity.WORK_ITEM, blocking=True
            )

        system.run_kernel(kern, 4, 4, name="first")
        first = hub.ticks
        assert first > 0 and hub._tick_handle.fn is None
        system.run_kernel(kern, 4, 4, name="second")
        assert hub.ticks > first

    def test_plan_read_convenience(self):
        _result, plan = run_with_hub("fig2")
        assert plan.read("syscall.rate", window=1000) >= 0.0
        assert MetricsHubPlan().read("syscall.rate") == 0.0


class TestCheckpointRestore:
    def test_checkpoint_with_hub_then_restore_and_serve(self):
        from repro.serving.sweep import (
            ServingConfig,
            build_target,
            run_point_on,
        )
        from repro.sim import snapshot

        config = ServingConfig(
            workload="udp-echo", num_clients=8,
            warmup_ns=50_000.0, measure_ns=100_000.0,
        )
        plan = MetricsHubPlan()
        with attached(plan):
            system, workload = build_target(config)
        # quiesced checkpoint succeeds with the hub (and any parked
        # weak tick) attached…
        blob = system.checkpoint(extra=workload)
        restored = snapshot.load(blob)
        # …and the restored hub rides the restored registry
        hubs = metrics_hubs(restored.system.probes)
        assert len(hubs) == 1
        point = run_point_on(
            restored.system, restored.extra, config, 20_000
        )
        assert point["lifecycle"]["sent"] > 0
        assert hubs[0].read("net.tx.rate", window=10_000, mode="count") > 0

    def test_hub_pickles_without_listeners_or_handle(self):
        _result, plan = run_with_hub("fig2")
        hub = plan.hub
        hub.add_listener(lambda h, t: None)  # unpicklable listener
        clone = pickle.loads(pickle.dumps(hub))
        assert clone._listeners == []
        assert clone._tick_handle is None
        assert clone.ticks == hub.ticks


class TestExporters:
    def test_prometheus_shape(self):
        _result, plan = run_with_hub("fig2")
        text = prometheus_text(plan.hub, "fig2")
        assert text.endswith("\n")
        lines = text.splitlines()
        assert any(line.startswith("# HELP repro_syscall_rate") for line in lines)
        assert any(line.startswith("# TYPE repro_syscall_rate_total counter")
                   for line in lines)
        for line in lines:
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample parses
            assert name_part.startswith("repro_")
            assert 'experiment="fig2"' in name_part

    def test_csv_shape(self):
        _result, plan = run_with_hub("fig2")
        text = csv_text(plan.hub)
        lines = text.strip().splitlines()
        assert lines[0] == "metric,t0_ns,value"
        assert len(lines) > 1
        for line in lines[1:]:
            metric, t0, value = line.split(",")
            float(t0)
            float(value)
            assert metric

    def test_series_payload_json_ready(self):
        _result, plan = run_with_hub("fig2")
        payload = series_payload(plan.hub)
        encoded = json.dumps(payload, sort_keys=True)
        assert payload["schema"] == 1
        assert payload["window_ns"] == 10_000.0
        assert "syscall.rate" in payload["series"]
        assert json.loads(encoded) == payload

    def test_metric_tracks_valid(self):
        _result, plan = run_with_hub("fig2")
        events = metric_tracks(plan.hub.registry)
        assert events, "fig2 with a hub must export counter tracks"
        assert events[0]["ph"] == "M"
        assert all(e["pid"] == PID_METRICS for e in events)
        for event in events:
            assert event["ph"] in ("M", "C")
            if event["ph"] == "C":
                assert event["name"].startswith("metric:")
                assert isinstance(event["ts"], float)
                assert isinstance(event["args"]["value"], (int, float))
        json.dumps(events)  # serializable as-is

    def test_metric_tracks_none_registry(self):
        assert metric_tracks(None) == []

    def test_traceviz_merges_metrics_process(self):
        from repro.serving.sweep import ServingConfig, build_target, run_point_on
        from repro.traceviz import export_chrome_trace

        config = ServingConfig(
            workload="udp-echo", num_clients=8,
            warmup_ns=50_000.0, measure_ns=100_000.0,
        )
        plan = MetricsHubPlan()
        with attached(plan):
            system, workload = build_target(config)
        run_point_on(system, workload, config, 20_000)
        trace = export_chrome_trace(system)
        pids = {e.get("pid") for e in trace["traceEvents"]}
        assert PID_METRICS in pids
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert "metrics" in names
        json.dumps(trace)


class TestGtopRendering:
    def test_render_frame_lists_catalog(self):
        from repro.metrics.cli import render_frame

        _result, plan = run_with_hub("fig2")
        hub = plan.hub
        frame = render_frame(hub, hub.now(), "fig2")
        for name in ("syscall.rate", "wq.depth", "dram.queue"):
            assert name in frame
        assert "TREND" in frame

    def test_cli_report_fig2(self, capsys):
        from repro.metrics.cli import main

        assert main(["report", "fig2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "gtop — fig2" in out
        assert "syscall.rate" in out

    def test_cli_gtop_serving_point(self, capsys):
        from repro.metrics.cli import main

        rc = main([
            "gtop", "serving", "--workload", "udp-echo",
            "--rps", "20000", "--clients", "8",
            "--warmup-us", "50", "--measure-us", "100",
            "--every", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gtop — serving udp-echo @20000rps" in out
        assert "net.tx.rate" in out
        assert "achieved" in out

    def test_cli_run_writes_exports(self, tmp_path, capsys):
        from repro.metrics.cli import main

        prom = tmp_path / "m.prom"
        csv = tmp_path / "m.csv"
        payload = tmp_path / "m.json"
        rc = main([
            "run", "fig2", "--quiet",
            "--prom", str(prom), "--csv", str(csv), "--json", str(payload),
        ])
        assert rc == 0
        assert prom.read_text().startswith("# HELP")
        assert csv.read_text().startswith("metric,t0_ns,value")
        doc = json.loads(payload.read_text())
        assert doc["experiment"] == "fig2"
