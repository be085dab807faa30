"""Windowed estimator primitives for the metrics plane.

Every estimator here is *lazily self-windowing*: samples carry their own
sim timestamp and the estimator derives the window index as
``int(t_ns // window_ns)``.  A window closes automatically the moment a
sample lands in a later one — no timer callback is required for
correctness, which is what keeps exported series independent of whether
the hub's (weak, droppable) flush tick ever ran.  The tick exists only
to close windows promptly for live ``gtop`` output and to carry gauge
levels forward across idle windows.

All estimators are closure-free and hold no simulator handle, so a
System carrying them stays snapshot-safe, and all read paths tolerate
the awkward cases called out in the issue: empty-window reads,
single-sample percentiles, and zero-duration intervals return zeros
instead of raising.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.probes.programs import log2_bucket, percentile_from_log2_buckets

__all__ = [
    "EwmaRate",
    "LevelSeries",
    "WindowedCounter",
    "WindowedGauge",
    "WindowedLog2Histogram",
    "WindowedRatio",
]


class EwmaRate:
    """Exponentially-weighted moving average over per-window rates.

    Updated once per closed window with that window's events/second;
    ``value`` is 0.0 until the first window closes.
    """

    __slots__ = ("alpha", "value", "primed")

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value = 0.0
        self.primed = False

    def update(self, rate: float) -> float:
        if self.primed:
            self.value += self.alpha * (rate - self.value)
        else:
            self.value = rate
            self.primed = True
        return self.value


class WindowedSeries:
    """Base: fixed sim-time windows with bounded closed-window history.

    ``windows`` is a list of ``(t0_ns, value)`` pairs for closed windows
    in time order; the value type is subclass-specific.  Windows with no
    samples are only materialised when the flush tick walks over them
    (counters/ratios/levels close them as zeros; gauges carry the last
    level forward), so a run with the hub detached at the end simply has
    a sparse tail rather than wrong data.
    """

    kind = "series"

    def __init__(
        self, window_ns: float, name: str = "", max_windows: int = 4096
    ) -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        if max_windows < 1:
            raise ValueError(f"max_windows must be >= 1, got {max_windows}")
        self.window_ns = float(window_ns)
        self.name = name
        self.max_windows = max_windows
        self.windows: List[Tuple[float, object]] = []
        self._cur_index: Optional[int] = None

    # -- subclass protocol --------------------------------------------------

    def _close(self) -> object:
        """Return the closed value of the current window and reset the
        accumulator.  Subclasses override."""
        raise NotImplementedError

    def _empty_value(self) -> Optional[object]:
        """Value recorded for a flushed-over window that saw no samples,
        or None to leave the gap sparse."""
        return None

    # -- windowing machinery ------------------------------------------------

    def index_of(self, t_ns: float) -> int:
        return int(t_ns // self.window_ns)

    def _append(self, index: int, value: object) -> None:
        self.windows.append((index * self.window_ns, value))
        if len(self.windows) > self.max_windows:
            del self.windows[: len(self.windows) - self.max_windows]

    def _note(self, index: int) -> None:
        """Route a sample timestamped into window ``index``: close the
        current window first if the sample belongs to a later one.
        A no-op when ``index`` is the current window, so the sample
        methods call it only when the index changed."""
        cur = self._cur_index
        if cur is None:
            self._cur_index = index
        elif index > cur:
            self._append(cur, self._close())
            gap = self._empty_value()
            if gap is not None:
                # Windows beyond the history bound would be trimmed
                # straight away; skip materialising them.
                start = max(cur + 1, index - self.max_windows)
                for missed in range(start, index):
                    self._append(missed, gap)
            self._cur_index = index

    def flush(self, index: int) -> None:
        """Close the in-progress window if ``index`` is past it (tick
        path).  A fresh, empty window then begins at ``index``."""
        self._note(index)

    # -- reads --------------------------------------------------------------

    def closed(self, last: Optional[int] = None) -> List[Tuple[float, object]]:
        if last is None or last >= len(self.windows):
            return list(self.windows)
        if last <= 0:
            return []
        return self.windows[-last:]

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        """Flatten closed windows to scalar sub-series keyed by suffix
        ('' = the primary value).  Subclasses override."""
        raise NotImplementedError


class WindowedCounter(WindowedSeries):
    """Event counter: per-window counts plus an EWMA of the window rate.

    ``add`` defaults to counting one event; pass ``n`` to accumulate a
    quantity (bytes, pages, stall-ns).  ``read`` modes: ``"count"`` sums
    raw window values, ``"rate"`` converts to events/second, and
    ``"fraction"`` divides by window span (for duration accumulators
    like DRAM stall-ns, yielding a busy/stall fraction).
    """

    kind = "counter"

    def __init__(
        self,
        window_ns: float,
        name: str = "",
        max_windows: int = 4096,
        ewma_alpha: float = 0.3,
    ) -> None:
        super().__init__(window_ns, name=name, max_windows=max_windows)
        self._count = 0.0
        self.total = 0.0
        self.by_key: Dict[object, float] = {}
        self.ewma = EwmaRate(ewma_alpha)

    def add(self, t_ns: float, n: float = 1.0, key: object = None) -> None:
        index = int(t_ns // self.window_ns)
        if index != self._cur_index:
            self._note(index)
        self._count += n
        self.total += n
        if key is not None:
            self.by_key[key] = self.by_key.get(key, 0.0) + n

    def _close(self) -> object:
        count, self._count = self._count, 0.0
        self.ewma.update(count / self.window_ns * 1e9)
        return count

    def _empty_value(self) -> Optional[object]:
        return 0.0

    def rate_of(self, count: float) -> float:
        return count / self.window_ns * 1e9

    def read(self, last: int = 1, mode: str = "rate") -> float:
        values = [float(v) for _, v in self.closed(last)]  # type: ignore[arg-type]
        if not values:
            return 0.0
        if mode == "count":
            return sum(values)
        span_ns = len(values) * self.window_ns
        if span_ns <= 0:
            return 0.0
        if mode == "fraction":
            return sum(values) / span_ns
        return sum(values) / span_ns * 1e9

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        counts = [(t0, float(v)) for t0, v in self.windows]  # type: ignore[misc]
        return {
            "": counts,
            "rate": [(t0, self.rate_of(v)) for t0, v in counts],
        }


class WindowedRatio(WindowedSeries):
    """Paired numerator/denominator counter; window value = num/den.

    Used for hit rates and shares (page-cache hits/lookups, suppressed
    IRQs/completions).  Windows with a zero denominator close to 0.0.
    """

    kind = "ratio"

    def __init__(
        self, window_ns: float, name: str = "", max_windows: int = 4096
    ) -> None:
        super().__init__(window_ns, name=name, max_windows=max_windows)
        self._num = 0.0
        self._den = 0.0
        self.total_num = 0.0
        self.total_den = 0.0

    def add(self, t_ns: float, num: float, den: float) -> None:
        index = int(t_ns // self.window_ns)
        if index != self._cur_index:
            self._note(index)
        self._num += num
        self._den += den
        self.total_num += num
        self.total_den += den

    def _close(self) -> object:
        num, self._num = self._num, 0.0
        den, self._den = self._den, 0.0
        return num / den if den > 0 else 0.0

    def _empty_value(self) -> Optional[object]:
        return 0.0

    def read(self, last: int = 1) -> float:
        values = [float(v) for _, v in self.closed(last)]  # type: ignore[arg-type]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        return {"": [(t0, float(v)) for t0, v in self.windows]}  # type: ignore[misc]


class WindowedGauge(WindowedSeries):
    """Sampled level (queue depth, occupancy count, resident pages).

    Each window closes to ``(mean, min, max, last)`` over the samples it
    saw.  The flush tick calls :meth:`carry` so idle windows report the
    level as it stood (a queue that stays at depth 7 with no traffic is
    still at depth 7), which is the behaviour a top-like view needs.
    """

    kind = "gauge"

    def __init__(
        self, window_ns: float, name: str = "", max_windows: int = 4096
    ) -> None:
        super().__init__(window_ns, name=name, max_windows=max_windows)
        self._sum = 0.0
        self._n = 0
        self._min = 0.0
        self._max = 0.0
        self.last: Optional[float] = None

    def set(self, t_ns: float, value: float) -> None:
        index = int(t_ns // self.window_ns)
        if index != self._cur_index:
            self._note(index)
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

    def _close(self) -> object:
        if self._n == 0:
            level = self.last if self.last is not None else 0.0
            value = (level, level, level, level)
        else:
            value = (self._sum / self._n, self._min, self._max, self.last)
        self._sum = 0.0
        self._n = 0
        return value

    def _empty_value(self) -> Optional[object]:
        level = self.last if self.last is not None else 0.0
        return (level, level, level, level)

    def carry(self, index: int) -> None:
        """Tick path: close up to ``index``, carrying the level forward."""
        self._note(index)

    def flush(self, index: int) -> None:
        self.carry(index)

    def read(self, last: int = 1, mode: str = "mean") -> float:
        rows = self.closed(last)
        if not rows:
            return float(self.last) if self.last is not None else 0.0
        field = {"mean": 0, "min": 1, "max": 2, "last": 3}[mode]
        values = [float(v[field]) for _, v in rows]  # type: ignore[index]
        if mode == "min":
            return min(values)
        if mode == "max":
            return max(values)
        if mode == "last":
            return values[-1]
        return sum(values) / len(values)

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        rows = self.windows
        return {
            "": [(t0, float(v[0])) for t0, v in rows],  # type: ignore[index]
            "max": [(t0, float(v[2])) for t0, v in rows],  # type: ignore[index]
        }


class WindowedLog2Histogram(WindowedSeries):
    """Log2-bucketed value distribution with windowed percentiles.

    Window value is a compact dict ``{count, mean, p50, p95, p99, max}``
    computed from the window's buckets at close time (percentiles are
    bucket upper edges — see
    :func:`~repro.probes.programs.percentile_from_log2_buckets`).
    Whole-run buckets are kept too, so lifetime percentiles remain
    available.
    """

    kind = "histogram"

    FIELDS = ("count", "mean", "p50", "p95", "p99", "max")

    def __init__(
        self, window_ns: float, name: str = "", max_windows: int = 4096
    ) -> None:
        super().__init__(window_ns, name=name, max_windows=max_windows)
        self._buckets: Dict[int, int] = {}
        self._sum = 0.0
        self._count = 0
        self._max = 0.0
        self.lifetime_buckets: Dict[int, int] = {}
        self.lifetime_count = 0

    def observe(self, t_ns: float, value: float) -> None:
        index = int(t_ns // self.window_ns)
        if index != self._cur_index:
            self._note(index)
        value = float(value)
        bucket = log2_bucket(value)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self._sum += value
        self._count += 1
        if value > self._max:
            self._max = value
        self.lifetime_buckets[bucket] = self.lifetime_buckets.get(bucket, 0) + 1
        self.lifetime_count += 1

    def _close(self) -> object:
        if self._count == 0:
            value = {
                "count": 0, "mean": 0.0, "p50": 0.0,
                "p95": 0.0, "p99": 0.0, "max": 0.0,
            }
        else:
            value = {
                "count": self._count,
                "mean": self._sum / self._count,
                "p50": percentile_from_log2_buckets(self._buckets, 50.0),
                "p95": percentile_from_log2_buckets(self._buckets, 95.0),
                "p99": percentile_from_log2_buckets(self._buckets, 99.0),
                "max": self._max,
            }
        self._buckets = {}
        self._sum = 0.0
        self._count = 0
        self._max = 0.0
        return value

    def _empty_value(self) -> Optional[object]:
        return {
            "count": 0, "mean": 0.0, "p50": 0.0,
            "p95": 0.0, "p99": 0.0, "max": 0.0,
        }

    def percentile(self, q: float) -> float:
        """Lifetime nearest-rank percentile (0.0 when empty)."""
        return percentile_from_log2_buckets(self.lifetime_buckets, q)

    def read(self, last: int = 1, mode: str = "p95") -> float:
        rows = self.closed(last)
        if not rows:
            return 0.0
        stats = [v for _, v in rows]  # type: ignore[misc]
        if mode == "count":
            return float(sum(s["count"] for s in stats))  # type: ignore[index]
        if mode == "max":
            return max(float(s["max"]) for s in stats)  # type: ignore[index]
        if mode == "mean":
            total = sum(s["count"] for s in stats)  # type: ignore[index]
            if total == 0:
                return 0.0
            weighted = sum(
                float(s["mean"]) * s["count"] for s in stats  # type: ignore[index]
            )
            return weighted / total
        populated = [s for s in stats if s["count"]]  # type: ignore[index]
        if not populated:
            return 0.0
        return max(float(s[mode]) for s in populated)  # type: ignore[index]

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        out: Dict[str, List[Tuple[float, float]]] = {}
        for field in ("count", "mean", "p50", "p95", "p99", "max"):
            out[field] = [
                (t0, float(v[field]))  # type: ignore[index]
                for t0, v in self.windows
            ]
        return out


class LevelSeries(WindowedSeries):
    """Time-weighted level integrator — the honest utilization measure.

    ``set(t, level)`` records that the level changed at ``t``; each
    window closes to the time-weighted mean of the level across the
    window, splitting dwell time that spans a boundary across the
    windows it covers.  A worker that is busy for the first quarter of a
    window reads 0.25, however many tracepoint fires that took.
    """

    kind = "level"

    def __init__(
        self, window_ns: float, name: str = "", max_windows: int = 4096
    ) -> None:
        super().__init__(window_ns, name=name, max_windows=max_windows)
        self._level = 0.0
        self._last_t: Optional[float] = None
        self._area = 0.0  # level-ns accumulated in the current window

    def _advance_to(self, t_ns: float) -> None:
        """Integrate the current level from _last_t to t_ns, closing any
        windows the dwell spans."""
        if self._last_t is None:
            self._cur_index = self.index_of(t_ns)
            self._last_t = t_ns
            return
        if t_ns <= self._last_t:
            return
        assert self._cur_index is not None
        target = self.index_of(t_ns)
        if target - self._cur_index > self.max_windows:
            # Every window we could materialise before this point would
            # be trimmed by the history bound; fast-forward to the last
            # max_windows span (the standing level covers it entirely).
            skip_to = target - self.max_windows
            self._cur_index = skip_to
            self._last_t = skip_to * self.window_ns
            self._area = 0.0
        boundary = (self._cur_index + 1) * self.window_ns
        while t_ns >= boundary:
            self._area += self._level * (boundary - self._last_t)
            self._append(self._cur_index, self._area / self.window_ns)
            self._area = 0.0
            self._last_t = boundary
            self._cur_index += 1
            boundary += self.window_ns
        self._area += self._level * (t_ns - self._last_t)
        self._last_t = t_ns

    def set(self, t_ns: float, level: float) -> None:
        last_t, cur = self._last_t, self._cur_index
        if (
            last_t is not None
            and cur is not None
            and last_t < t_ns < (cur + 1) * self.window_ns
        ):
            # Later, but inside the open window: _advance_to's last step.
            self._area += self._level * (t_ns - last_t)
            self._last_t = t_ns
        else:
            self._advance_to(t_ns)
        self._level = float(level)

    def _close(self) -> object:  # pragma: no cover - flush path used instead
        area, self._area = self._area, 0.0
        return area / self.window_ns

    def flush(self, index: int) -> None:
        """Close every window before ``index`` by integrating the
        standing level up to that boundary."""
        self._advance_to(index * self.window_ns)

    @property
    def level(self) -> float:
        return self._level

    def read(self, last: int = 1) -> float:
        values = [float(v) for _, v in self.closed(last)]  # type: ignore[arg-type]
        if not values:
            return self._level
        return sum(values) / len(values)

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        return {"": [(t0, float(v)) for t0, v in self.windows]}  # type: ignore[misc]
