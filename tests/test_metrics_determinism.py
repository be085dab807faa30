"""The metrics plane's load-bearing guarantee: a fully attached
MetricsHub leaves every simulated output byte-identical, detached runs
schedule zero metrics events, and exports are seed-deterministic.
Every experiment is diffed bare vs. with a hub by
``tests/test_determinism_matrix.py``."""

import json

from repro import experiments
from repro.metrics import MetricsHubPlan
from repro.metrics.export import csv_text, prometheus_text, series_payload
from repro.probes.tracepoints import attached


def run_attached(name, **plan_kwargs):
    plan = MetricsHubPlan(**plan_kwargs)
    with attached(plan):
        return experiments.run(name).render(), plan


class TestAttachedVersusBare:
    def test_detached_runs_schedule_zero_metrics_ticks(self):
        registries = []
        with attached(registries.append):  # observe only, no hub
            experiments.run("fig2")
        assert registries[0].sim.weak_scheduled == 0

    def test_attached_run_uses_only_weak_ticks(self):
        _rendered, plan = run_attached("fig2")
        sim = plan.hub.registry.sim
        assert sim.weak_scheduled > 0
        assert plan.hub.ticks > 0

    def test_serving_point_byte_identical_with_hub(self):
        from repro.serving.sweep import ServingConfig, run_point

        config = ServingConfig(
            workload="udp-echo", num_clients=8,
            warmup_ns=50_000.0, measure_ns=100_000.0,
        )
        bare = json.dumps(run_point(config, 30_000), sort_keys=True)
        plan = MetricsHubPlan()
        with attached(plan):
            with_hub = json.dumps(run_point(config, 30_000), sort_keys=True)
        assert with_hub == bare
        assert plan.hubs


class TestExportDeterminism:
    def test_same_seed_exports_byte_identical(self):
        _r1, plan1 = run_attached("fig2")
        _r2, plan2 = run_attached("fig2")
        hub1, hub2 = plan1.hub, plan2.hub
        assert csv_text(hub1) == csv_text(hub2)
        assert prometheus_text(hub1, "fig2") == prometheus_text(hub2, "fig2")
        assert (
            json.dumps(series_payload(hub1), sort_keys=True)
            == json.dumps(series_payload(hub2), sort_keys=True)
        )


class TestGSanComposition:
    def test_gsan_green_with_hub_under_serving_chaos(self):
        from repro.faults.chaos import run_one
        from repro.sanitizers.gsan import GSanPlan

        gsan_plan = GSanPlan()
        metrics_plan = MetricsHubPlan()
        with attached(gsan_plan, metrics_plan):
            report = run_one("serving", seed=7)
        assert report.ok, report.violations
        violations = gsan_plan.finish()
        assert violations == [], "\n".join(v.render() for v in violations)
        assert metrics_plan.hubs, "metrics plan never saw a System"
        # the hub measured the chaos run, it didn't just ride along
        assert any(
            hub.read("net.tx.rate", window=100_000, mode="count") > 0
            for hub in metrics_plan.hubs
        )
