"""Tests for the attachable probe programs (counters, hists, rates)."""

import pytest

from repro.probes.programs import CounterProbe, LatencyHistogram, RateMeter
from repro.probes.tracepoints import ProbeRegistry


class FakeSim:
    """A clock the tests can move by hand."""

    def __init__(self):
        self.now = 0.0


@pytest.fixture
def registry():
    return ProbeRegistry(FakeSim())


class TestCounterProbe:
    def test_counts_fires(self, registry):
        probe = CounterProbe(registry)
        registry.tracepoint("t")
        registry.attach("t", probe)
        registry.get("t").fire()
        registry.get("t").fire()
        assert probe.count == 2
        assert probe.snapshot()["count"] == 2

    def test_key_arg_buckets_by_value(self, registry):
        probe = CounterProbe(registry, key_arg=0)
        probe("pread", 1)
        probe("pread", 2)
        probe("open", 3)
        assert probe.by_key == {"pread": 2, "open": 1}
        assert probe.snapshot()["by_key"] == {"open": 1, "pread": 2}

    def test_key_arg_beyond_fire_args_is_safe(self, registry):
        probe = CounterProbe(registry, key_arg=5)
        probe("only-one")
        assert probe.count == 1
        assert probe.by_key == {}

    def test_name_defaults_to_tracepoint(self, registry):
        registry.tracepoint("wq.enqueue")
        probe = registry.attach("wq.enqueue", CounterProbe(registry))
        assert probe.name == "wq.enqueue"


class TestLatencyHistogram:
    def test_log2_buckets(self, registry):
        hist = LatencyHistogram(registry)
        for value in (0.25, 1, 1.5, 2, 3, 1000):
            hist(value)
        # [0,2) -> bucket 0 for <1 and [1,2); [2,4) -> bucket 1; 1000 -> bucket 9.
        assert hist.buckets == {0: 3, 1: 2, 9: 1}

    def test_stats(self, registry):
        hist = LatencyHistogram(registry)
        hist(10)
        hist(30)
        assert hist.count == 2
        assert hist.mean == pytest.approx(20.0)
        assert hist.min == 10
        assert hist.max == 30

    def test_non_numeric_and_missing_args_skipped(self, registry):
        hist = LatencyHistogram(registry, value_arg=1)
        hist("name-only")  # no arg 1
        hist("name", "not-a-number")
        assert hist.count == 0
        assert hist.mean == 0.0

    def test_value_arg_selects_position(self, registry):
        hist = LatencyHistogram(registry, value_arg=2)
        hist("pread", 7, 4096.0)
        assert hist.count == 1
        assert hist.max == 4096.0

    def test_snapshot_bucket_labels(self, registry):
        hist = LatencyHistogram(registry)
        hist(5)
        snap = hist.snapshot()
        assert snap["buckets"] == {"[4, 8)": 1}
        assert snap["kind"] == "histogram"


class TestRateMeter:
    def test_rejects_nonpositive_bin(self, registry):
        with pytest.raises(ValueError):
            RateMeter(registry, bin_ns=0)

    def test_series_reports_rate_per_second(self, registry):
        meter = RateMeter(registry, bin_ns=1000.0)
        sim = registry.sim
        meter()
        meter()
        sim.now = 2500.0
        meter()
        # bin 0 holds 2 fires, bin 2 holds 1; rate = count * 1e9 / bin_ns.
        assert meter.series() == [(0.0, 2e6), (2000.0, 1e6)]
        assert meter.count == 3

    def test_snapshot(self, registry):
        meter = RateMeter(registry, bin_ns=500.0)
        meter()
        snap = meter.snapshot()
        assert snap["kind"] == "rate"
        assert snap["count"] == 1
        assert snap["bin_ns"] == 500.0
        assert snap["bins"] == 1
