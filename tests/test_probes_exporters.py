"""Tests for the metrics-snapshot exporter, the probes' Perfetto counter
tracks, and the ``python -m repro.probes`` CLI."""

import json

import pytest

from repro.machine import small_machine
from repro.probes import cli
from repro.probes.cli import SpecError, apply_attach_spec, apply_policy_spec
from repro.probes.exporters import metrics_snapshot
from repro.probes.policy import fixed
from repro.probes.programs import CounterProbe, RateMeter
from repro.probes.tracepoints import ProbeRegistry
from repro.system import System
from repro.traceviz import PID_PROBES, probe_tracks


def ran_system():
    """A small run that exercises syscalls, irqs, and the page cache."""
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


class TestMetricsSnapshot:
    def test_shape_and_counts(self):
        system = System(config=small_machine())
        reg = system.probes
        reg.attach("irq.raised", CounterProbe(reg))
        reg.attach_policy("coalesce.window", fixed(1000.0))
        snap = metrics_snapshot(reg, experiment="unit")
        assert snap["schema"] == 1
        assert snap["experiment"] == "unit"
        assert snap["simulated_ns"] == 0.0
        assert snap["tracepoints"]["irq.raised"]["observers"] == 1
        assert snap["hooks"]["coalesce.window"]["programs"] == 1
        assert len(snap["programs"]) == 1

    def test_hits_recorded_after_run(self):
        system = ran_system()
        reg = system.probes
        snap = metrics_snapshot(reg)
        # Tracepoints fire (and count hits) only while observed; these
        # had no observers, so hits stay zero — the detached guarantee.
        assert all(tp["hits"] == 0 for tp in snap["tracepoints"].values())

    def test_snapshot_is_json_serialisable(self):
        system = ran_system()
        json.dumps(metrics_snapshot(system.probes))


class TestProbeTracks:
    def test_none_registry_is_empty(self):
        assert probe_tracks(None) == []

    def test_no_rate_meters_no_events(self):
        reg = ProbeRegistry()
        reg.tracepoint("t")
        reg.attach("t", CounterProbe(reg))
        assert probe_tracks(reg) == []

    def test_rate_meter_without_fires_no_events(self):
        reg = ProbeRegistry()
        reg.tracepoint("t")
        reg.attach("t", RateMeter(reg))
        assert probe_tracks(reg) == []

    def test_rate_meter_becomes_counter_track(self):
        class Clock:
            now = 0.0

        reg = ProbeRegistry(Clock())
        reg.tracepoint("irq.raised")
        meter = reg.attach("irq.raised", RateMeter(reg, bin_ns=1000.0))
        meter()
        meter()
        events = probe_tracks(reg)
        assert events[0]["ph"] == "M"
        assert events[0]["pid"] == PID_PROBES
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 1
        event = counters[0]
        assert event["name"] == "probe:irq.raised"
        assert event["pid"] == PID_PROBES
        assert event["args"]["value"] == 2e6  # 2 fires / 1000 ns
        assert event["ts"] == 0.0


class TestAttachSpecs:
    def make_registry(self):
        reg = ProbeRegistry()
        for name in ("irq.raised", "irq.serviced", "wq.enqueue"):
            reg.tracepoint(name)
        reg.hook("coalesce.window")
        return reg

    def test_counter_glob(self):
        reg = self.make_registry()
        assert apply_attach_spec(reg, "counter:irq.*") == 2
        assert reg.get("irq.raised").enabled
        assert reg.get("irq.serviced").enabled
        assert not reg.get("wq.enqueue").enabled

    def test_counter_with_key(self):
        reg = self.make_registry()
        apply_attach_spec(reg, "counter:wq.enqueue:key=0")
        assert reg.programs[0].key_arg == 0

    def test_hist_and_rate(self):
        reg = self.make_registry()
        assert apply_attach_spec(reg, "hist:irq.raised:value=1") == 1
        assert apply_attach_spec(reg, "rate:irq.raised:2500") == 1
        kinds = [p.kind for p in reg.programs]
        assert kinds == ["histogram", "rate"]
        assert reg.programs[1].bin_ns == 2500.0

    @pytest.mark.parametrize(
        "spec",
        [
            "counter",  # no target
            "bogus:irq.raised",  # unknown kind
            "counter:irq.raised:keys=0",  # bad option
            "hist:irq.raised:value=x",  # non-integer
            "rate:irq.raised:abc",  # non-integer bin
            "rate:irq.raised:0",  # empty bin
            "rate:irq.raised:-5",  # negative bin
        ],
    )
    def test_bad_attach_specs(self, spec):
        with pytest.raises(SpecError):
            apply_attach_spec(self.make_registry(), spec)

    def test_policy_spec(self):
        reg = self.make_registry()
        apply_policy_spec(reg, "coalesce.window=20000")
        hook = reg.get_hook("coalesce.window")
        assert hook.active
        assert hook.decide(0.0) == 20000

    @pytest.mark.parametrize("spec", ["coalesce.window", "coalesce.window=", "h=abc"])
    def test_bad_policy_specs(self, spec):
        with pytest.raises(SpecError):
            apply_policy_spec(self.make_registry(), spec)

    def test_unknown_tracepoint_is_keyerror(self):
        with pytest.raises(KeyError):
            apply_attach_spec(self.make_registry(), "hist:no.such.tp")


class TestCli:
    def test_list_prints_catalogue(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "syscall.complete" in out
        assert "coalesce.window" in out

    def test_run_writes_metrics(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        rc = cli.main(
            [
                "run",
                "fig2",
                "--attach",
                "counter:*",
                "--attach",
                "rate:irq.raised:5000",
                "--metrics",
                str(path),
                "--quiet",
            ]
        )
        assert rc == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["experiment"] == "fig2"
        assert snapshot["num_systems"] >= 1
        tracepoints = snapshot["systems"][0]["tracepoints"]
        assert tracepoints  # catalogue exported
        assert sum(tp["hits"] for tp in tracepoints.values()) > 0
        capsys.readouterr()  # swallow the "wrote ..." line

    def test_run_unknown_experiment(self, capsys):
        assert cli.main(["run", "no-such-experiment"]) == 2
        capsys.readouterr()

    def test_run_bad_spec_exits_with_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "fig2", "--attach", "bogus:thing"])
        capsys.readouterr()
