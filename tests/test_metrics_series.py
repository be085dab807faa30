"""Unit tests for the windowed estimator primitives (repro.metrics.series)
and the probe-program edge-case APIs that ride along this PR."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.series import (
    EwmaRate,
    LevelSeries,
    WindowedCounter,
    WindowedGauge,
    WindowedLog2Histogram,
    WindowedRatio,
)
from repro.probes.programs import (
    LatencyHistogram,
    RateMeter,
    log2_bucket,
    percentile_from_log2_buckets,
)
from repro.probes.tracepoints import ProbeRegistry


class TestWindowedCounter:
    def test_counts_close_per_window(self):
        c = WindowedCounter(10.0)
        c.add(1.0)
        c.add(2.0)
        c.add(15.0)
        c.add(25.0)  # closes [0,10) and [10,20)
        assert c.windows == [(0.0, 2.0), (10.0, 1.0)]
        assert c.total == 4.0

    def test_empty_read_is_zero_not_raise(self):
        c = WindowedCounter(10.0)
        assert c.read() == 0.0
        assert c.read(5, mode="count") == 0.0
        assert c.read(0, mode="rate") == 0.0

    def test_rate_read(self):
        c = WindowedCounter(1000.0)
        for t in (0.0, 100.0, 200.0):
            c.add(t)
        c.flush(1)
        # 3 events in a 1000 ns window = 3e6 events/second
        assert c.read() == pytest.approx(3e6)
        assert c.read(mode="count") == 3.0

    def test_fraction_mode_for_duration_accumulators(self):
        c = WindowedCounter(100.0)
        c.add(5.0, n=25.0)  # 25 ns of stall inside a 100 ns window
        c.flush(1)
        assert c.read(mode="fraction") == pytest.approx(0.25)

    def test_gap_windows_close_to_zero(self):
        c = WindowedCounter(10.0)
        c.add(5.0)
        c.add(45.0)
        assert c.windows == [(0.0, 1.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]

    def test_history_is_bounded(self):
        c = WindowedCounter(1.0, max_windows=8)
        for t in range(100):
            c.add(float(t))
        assert len(c.windows) <= 8

    def test_by_key_lifetime_totals(self):
        c = WindowedCounter(10.0)
        c.add(1.0, key="backlog")
        c.add(2.0, key="backlog")
        c.add(3.0, key="loss-model")
        assert c.by_key == {"backlog": 2.0, "loss-model": 1.0}

    def test_ewma_tracks_window_rates(self):
        c = WindowedCounter(1000.0, ewma_alpha=0.5)
        c.add(0.0)
        c.flush(1)
        assert c.ewma.value == pytest.approx(1e6)
        c.flush(2)  # the idle window closes at rate 0 and decays the EWMA
        assert c.ewma.value == pytest.approx(5e5)


class TestEwmaRate:
    def test_primes_on_first_update(self):
        e = EwmaRate(0.3)
        assert e.update(100.0) == 100.0
        assert e.update(0.0) == pytest.approx(70.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            EwmaRate(0.0)
        with pytest.raises(ValueError):
            EwmaRate(1.5)


class TestWindowedGauge:
    def test_window_stats(self):
        g = WindowedGauge(10.0)
        g.set(1.0, 4.0)
        g.set(2.0, 8.0)
        g.set(11.0, 2.0)
        t0, (mean, mn, mx, last) = g.windows[0]
        assert (t0, mean, mn, mx, last) == (0.0, 6.0, 4.0, 8.0, 8.0)

    def test_empty_read_returns_last_or_zero(self):
        g = WindowedGauge(10.0)
        assert g.read() == 0.0
        g.set(1.0, 7.0)
        assert g.read() == 7.0  # no closed window yet -> standing level

    def test_carry_forward_across_idle_windows(self):
        g = WindowedGauge(10.0)
        g.set(1.0, 5.0)
        g.carry(4)  # tick at t=40: idle windows hold the level
        values = [v[0] for _, v in g.windows]
        assert values == [5.0, 5.0, 5.0, 5.0]

    def test_read_modes(self):
        g = WindowedGauge(10.0)
        g.set(1.0, 2.0)
        g.set(2.0, 10.0)
        g.flush(1)
        assert g.read(mode="max") == 10.0
        assert g.read(mode="min") == 2.0
        assert g.read(mode="last") == 10.0
        assert g.read(mode="mean") == 6.0


class TestWindowedLog2Histogram:
    def test_single_sample_percentiles_do_not_raise(self):
        h = WindowedLog2Histogram(10.0)
        h.observe(1.0, 3000.0)
        h.flush(1)
        # 3000 lands in bucket [2048, 4096): every percentile reports
        # the bucket's upper edge.
        for mode in ("p50", "p95", "p99"):
            assert h.read(mode=mode) == 4096.0
        assert h.percentile(99.0) == 4096.0

    def test_empty_reads_are_zero(self):
        h = WindowedLog2Histogram(10.0)
        assert h.read() == 0.0
        assert h.read(mode="count") == 0.0
        assert h.percentile(50.0) == 0.0

    def test_window_dict_shape(self):
        h = WindowedLog2Histogram(10.0)
        h.observe(1.0, 10.0)
        h.observe(2.0, 100.0)
        h.observe(11.0, 1.0)
        _t0, stats = h.windows[0]
        assert stats["count"] == 2
        assert stats["mean"] == 55.0
        assert stats["max"] == 100.0
        assert stats["p50"] == 16.0  # 10 -> bucket [8,16)
        assert h.lifetime_count == 3

    def test_lifetime_percentile_spans_windows(self):
        h = WindowedLog2Histogram(10.0)
        for t, v in ((1.0, 2.0), (11.0, 2.0), (21.0, 1000.0)):
            h.observe(t, v)
        assert h.percentile(50.0) == 4.0
        assert h.percentile(99.0) == 1024.0


class TestWindowedRatio:
    def test_hit_rate_shape(self):
        r = WindowedRatio(10.0)
        r.add(1.0, 3.0, 4.0)  # 3 hits of 4 pages
        r.add(2.0, 0.0, 4.0)  # 4-page miss
        r.flush(1)
        assert r.read() == pytest.approx(3.0 / 8.0)

    def test_zero_denominator_window_reads_zero(self):
        r = WindowedRatio(10.0)
        r.add(1.0, 0.0, 0.0)
        r.flush(1)
        assert r.read() == 0.0

    def test_empty_read(self):
        assert WindowedRatio(10.0).read(4) == 0.0


class TestLevelSeries:
    def test_time_weighted_mean(self):
        ls = LevelSeries(10.0)
        ls.set(0.0, 0.0)
        ls.set(2.0, 1.0)
        ls.set(7.0, 0.0)
        ls.flush(1)
        assert ls.windows == [(0.0, 0.5)]

    def test_dwell_spanning_boundaries(self):
        ls = LevelSeries(10.0)
        ls.set(5.0, 1.0)
        ls.set(25.0, 0.0)
        ls.flush(3)
        assert ls.windows == [(0.0, 0.5), (10.0, 1.0), (20.0, 0.5)]

    def test_empty_read_reports_standing_level(self):
        ls = LevelSeries(10.0)
        assert ls.read() == 0.0
        ls.set(3.0, 0.75)
        assert ls.read() == 0.75

    def test_long_idle_is_bounded(self):
        ls = LevelSeries(1.0, max_windows=16)
        ls.set(0.0, 1.0)
        ls.flush(10_000_000)
        assert len(ls.windows) <= 16
        assert all(v == 1.0 for _, v in ls.windows)


class TestValidationAndPickle:
    def test_zero_width_windows_rejected_at_construction(self):
        for cls in (WindowedCounter, WindowedGauge, LevelSeries):
            with pytest.raises(ValueError):
                cls(0.0)
            with pytest.raises(ValueError):
                cls(-5.0)

    def test_estimators_pickle_roundtrip(self):
        c = WindowedCounter(10.0)
        c.add(1.0)
        c.add(15.0)
        c2 = pickle.loads(pickle.dumps(c))
        assert c2.windows == c.windows
        assert c2.total == c.total


class TestPercentileFromBuckets:
    def test_empty(self):
        assert percentile_from_log2_buckets({}, 99.0) == 0.0

    def test_out_of_range_q_is_clamped(self):
        assert percentile_from_log2_buckets({3: 1}, 150.0) == 16.0
        assert percentile_from_log2_buckets({3: 1}, -5.0) == 16.0


class TestProbeProgramEdgeCases:
    """Satellite: rate-meter and log2-histogram edge cases in
    repro.probes.programs must not raise."""

    def test_histogram_percentile_empty(self):
        h = LatencyHistogram(ProbeRegistry(None))
        assert h.percentile(99.0) == 0.0

    def test_histogram_percentile_single_sample(self):
        h = LatencyHistogram(ProbeRegistry(None))
        h(500.0)
        assert h.percentile(50.0) == 512.0
        assert h.percentile(99.9) == 512.0

    def test_rate_meter_empty_reads(self):
        m = RateMeter(ProbeRegistry(None), bin_ns=100.0)
        assert m.series() == []
        assert m.rate_at(0.0) == 0.0
        assert m.rate_between(0.0, 1000.0) == 0.0

    def test_rate_meter_zero_duration_window_is_zero(self):
        m = RateMeter(ProbeRegistry(None), bin_ns=100.0)
        m()
        assert m.rate_between(50.0, 50.0) == 0.0
        assert m.rate_between(100.0, 50.0) == 0.0

    def test_rate_meter_rate_at_and_between(self):
        class FakeClock:
            def __init__(self):
                self.now = 0.0

        registry = ProbeRegistry(FakeClock())
        m = RateMeter(registry, bin_ns=100.0)
        for t in (10.0, 20.0, 150.0):
            registry.sim.now = t
            m()
        # bin [0,100): 2 fires -> 2e7/s; bin [100,200): 1 fire -> 1e7/s
        assert m.rate_at(50.0) == pytest.approx(2e7)
        assert m.rate_at(150.0) == pytest.approx(1e7)
        assert m.rate_at(950.0) == 0.0
        # full span: 3 fires over 200 ns
        assert m.rate_between(0.0, 200.0) == pytest.approx(1.5e7)
        # half-bin overlap pro-rates the counts
        assert m.rate_between(0.0, 50.0) == pytest.approx(2e7)


# -- differential oracle: skipping _note on same-window samples ---------
#
# Each sample method routes through ``_note`` (``_advance_to`` for
# levels) only when the sample's window index changed.  The references
# below are the sample methods as they were before, calling it on every
# sample; random monotone sample streams with interleaved flushes must
# leave both in identical states.


class AlwaysNoteCounter(WindowedCounter):
    def add(self, t_ns, n=1.0, key=None):
        self._note(self.index_of(t_ns))
        self._count += n
        self.total += n
        if key is not None:
            self.by_key[key] = self.by_key.get(key, 0.0) + n


class AlwaysNoteRatio(WindowedRatio):
    def add(self, t_ns, num, den):
        self._note(self.index_of(t_ns))
        self._num += num
        self._den += den
        self.total_num += num
        self.total_den += den


class AlwaysNoteGauge(WindowedGauge):
    def set(self, t_ns, value):
        self._note(self.index_of(t_ns))
        value = float(value)
        if self._n == 0:
            self._min = value
            self._max = value
        else:
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        self._sum += value
        self._n += 1
        self.last = value


class AlwaysNoteHistogram(WindowedLog2Histogram):
    def observe(self, t_ns, value):
        self._note(self.index_of(t_ns))
        value = float(value)
        bucket = log2_bucket(value)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self._sum += value
        self._count += 1
        if value > self._max:
            self._max = value
        self.lifetime_buckets[bucket] = self.lifetime_buckets.get(bucket, 0) + 1
        self.lifetime_count += 1


class AlwaysAdvanceLevel(LevelSeries):
    def set(self, t_ns, level):
        self._advance_to(t_ns)
        self._level = float(level)


def _sample(kind, estimator, t_ns, value, key):
    if kind == "counter":
        estimator.add(t_ns, value, key=key)
    elif kind == "ratio":
        estimator.add(t_ns, value / 2, value)
    elif kind == "histogram":
        estimator.observe(t_ns, value)
    else:
        estimator.set(t_ns, value)


ORACLE_KINDS = {
    "counter": (WindowedCounter, AlwaysNoteCounter, ("rate", "count", "fraction")),
    "ratio": (WindowedRatio, AlwaysNoteRatio, (None,)),
    "gauge": (WindowedGauge, AlwaysNoteGauge, ("mean", "min", "max", "last")),
    "histogram": (
        WindowedLog2Histogram,
        AlwaysNoteHistogram,
        ("p95", "p50", "count", "max", "mean"),
    ),
    "level": (LevelSeries, AlwaysAdvanceLevel, (None,)),
}

ORACLE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("sample"),
            st.sampled_from([0.0, 0.0, 0.1, 0.3, 1.0, 2.5, 7.0, 10.0, 23.7, 95.0]),
            st.floats(0.0, 1000.0, allow_nan=False),
            st.sampled_from([None, "a", "b"]),
        ),
        st.tuples(st.just("flush"), st.integers(-1, 3), st.none(), st.none()),
    ),
    max_size=80,
)


def _state(estimator):
    state = dict(vars(estimator))
    ewma = state.pop("ewma", None)
    if ewma is not None:
        state["ewma"] = (ewma.value, ewma.primed)
    return state


class TestSameWindowSamplesSkipNote:
    @pytest.mark.parametrize("kind", sorted(ORACLE_KINDS))
    @given(
        ops=ORACLE_OPS,
        window_ns=st.sampled_from([10.0, 0.1, 7.5]),
        max_windows=st.sampled_from([1, 3, 4096]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_always_note_reference(self, kind, ops, window_ns, max_windows):
        fast_cls, reference_cls, modes = ORACLE_KINDS[kind]
        fast = fast_cls(window_ns, max_windows=max_windows)
        reference = reference_cls(window_ns, max_windows=max_windows)
        t_ns = 0.0
        for op, arg, value, key in ops:
            for estimator in (fast, reference):
                if op == "sample":
                    _sample(kind, estimator, t_ns + arg, value, key)
                else:
                    estimator.flush(int(t_ns // window_ns) + arg)
            if op == "sample":
                t_ns += arg
        assert fast.windows == reference.windows
        assert fast.export_series() == reference.export_series()
        for last in (1, 3, 10_000):
            for mode in modes:
                args = (last,) if mode is None else (last, mode)
                assert fast.read(*args) == reference.read(*args)
        assert _state(fast) == _state(reference)
