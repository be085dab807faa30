"""MetricsHub: per-System windowed telemetry over the tracepoint stream.

One hub owns one estimator per catalog entry and one feed per source
tracepoint.  Correctness never depends on timers: estimators are lazily
self-windowing, so a sample landing in a later window closes the earlier
one on the spot.  The hub's periodic *flush tick* exists only to close
windows promptly when traffic is idle (live ``gtop`` output, gauge
carry-forward) and is scheduled as a **weak** engine callback — it never
advances the simulated clock, never keeps the run alive, and is dropped
unrun once no live work remains.  A run with no hub attached therefore
schedules zero metrics events, and an attached run's simulated behaviour
is byte-identical to a detached one.

Fleet installation mirrors ``GSanPlan``: push a :class:`MetricsHubPlan`
with ``with repro.probes.attached(plan):`` and every System constructed
inside the scope gets its own hub, discoverable afterwards through
:func:`metrics_hubs`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.metrics.collectors import (
    CATALOG,
    FEED_KINDS,
    MetricSpec,
    build_estimator,
)
from repro.metrics.series import WindowedSeries
from repro.probes.tracepoints import ProbeRegistry

__all__ = ["DEFAULT_WINDOW_NS", "MetricsHub", "MetricsHubPlan", "metrics_hubs"]

#: Default aggregation window: 10 µs of simulated time, fine enough to
#: resolve the syscall-latency experiments yet coarse enough that a
#: serving measure interval spans tens of windows.
DEFAULT_WINDOW_NS = 10_000.0


class MetricsHub:
    """Windowed metric estimators for one System's probe registry."""

    def __init__(
        self,
        window_ns: float = DEFAULT_WINDOW_NS,
        max_windows: int = 4096,
        label: str = "",
        catalog: Tuple[MetricSpec, ...] = CATALOG,
    ) -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.window_ns = float(window_ns)
        self.max_windows = max_windows
        self.label = label
        self.catalog = catalog
        self.registry: Optional[ProbeRegistry] = None
        #: The registry's clock, which every feed stamps samples from.
        self.clock: Any = None
        self.metrics: Dict[str, WindowedSeries] = {}
        self.specs: Dict[str, MetricSpec] = {}
        self.ticks = 0
        self._tick_handle: Optional[object] = None
        self._next_boundary = 0.0
        #: Live-view listeners, called as ``listener(hub, boundary_ns)``
        #: after each flush tick.  Transient (not checkpointed).
        self._listeners: List[Callable[["MetricsHub", float], None]] = []

    # -- installation -------------------------------------------------------

    def install(self, registry: ProbeRegistry) -> "MetricsHub":
        """Attach one feed per catalog source whose tracepoint exists in
        ``registry``; unknown tracepoints are skipped so a hub works on
        partial rigs (unit-test registries) too."""
        self.registry = registry
        self.clock = registry.clock
        for spec in self.catalog:
            estimator = build_estimator(spec, self.window_ns, self.max_windows)
            self.metrics[spec.name] = estimator
            self.specs[spec.name] = spec
            for tp_name, feed_kind, feed_args in spec.sources:
                if tp_name not in registry.tracepoints:
                    continue
                feed = FEED_KINDS[feed_kind](self, estimator, **feed_args)
                registry.attach(tp_name, feed)
        registry.programs.append(self)
        return self

    # -- clock plumbing -----------------------------------------------------

    def now(self) -> float:
        return self.registry.now() if self.registry is not None else 0.0

    def _arm(self, now: float) -> None:
        if self.registry is None or self.registry.sim is None:
            return
        boundary = (int(now // self.window_ns) + 1) * self.window_ns
        self._next_boundary = boundary
        self._tick_handle = self.registry.sim.call_at(
            boundary, self._tick, weak=True
        )

    def _tick(self) -> None:
        """Weak flush tick.  Runs at a window boundary without advancing
        the clock; re-arms from its *own* tracked boundary (``sim.now``
        is stale inside a weak callback by design)."""
        boundary = self._next_boundary
        index = int(round(boundary / self.window_ns))
        for estimator in self.metrics.values():
            estimator.flush(index)
        self.ticks += 1
        for listener in self._listeners:
            listener(self, boundary)
        self._next_boundary = boundary + self.window_ns
        if self.registry is not None and self.registry.sim is not None:
            self._tick_handle = self.registry.sim.call_at(
                self._next_boundary, self._tick, weak=True
            )

    def add_listener(
        self, listener: Callable[["MetricsHub", float], None]
    ) -> None:
        self._listeners.append(listener)

    # -- reads --------------------------------------------------------------

    def finalize(self, t_ns: Optional[float] = None) -> None:
        """Close every window strictly before ``t_ns`` (default: now).
        Exporters call this so trailing windows don't depend on whether
        the final flush tick survived the run-down."""
        when = self.now() if t_ns is None else t_ns
        for estimator in self.metrics.values():
            estimator.flush(estimator.index_of(when))

    def read(
        self, name: str, window: int = 1, mode: Optional[str] = None
    ) -> float:
        """Scalar value of metric ``name`` over the last ``window``
        closed windows — the feedback-controller API (ROADMAP item 3).

        Counters read as rates (or window-span fractions for duration
        accumulators), gauges as means, levels as time-weighted means,
        histograms as windowed p95 unless ``mode`` overrides.
        """
        estimator = self.metrics[name]
        estimator.flush(estimator.index_of(self.now()))
        mode = mode or self.specs[name].read_mode
        if mode:
            return estimator.read(window, mode=mode)  # type: ignore[attr-defined]
        return estimator.read(window)  # type: ignore[attr-defined]

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        """Flatten all closed windows to ``name[.suffix] -> [(t0, v)]``."""
        out: Dict[str, List[Tuple[float, float]]] = {}
        for name, estimator in sorted(self.metrics.items()):
            for suffix, series in estimator.export_series().items():
                key = f"{name}.{suffix}" if suffix else name
                out[key] = series
        return out

    def snapshot(self) -> dict:
        """Whole-run summary in the probe-program style."""
        self.finalize()
        last: Dict[str, float] = {}
        for name in self.metrics:
            try:
                last[name] = self.read(name)
            except (KeyError, ZeroDivisionError):  # pragma: no cover
                last[name] = 0.0
        return {
            "window_ns": self.window_ns,
            "ticks": self.ticks,
            "label": self.label,
            "last_window": last,
        }

    # -- pickling -----------------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Listeners are live-view callbacks (stdout writers); the tick
        # handle belongs to the old simulator's heap.  Both are
        # transient: a restored hub re-arms on its next fire.
        state["_listeners"] = []
        state["_tick_handle"] = None
        return state


class MetricsHubPlan:
    """Attach plan: one MetricsHub per System (cf. ``GSanPlan``).

    Build systems inside ``with probes.attached(plan):``; every registry
    constructed in that scope gets a freshly installed hub, collected on
    the plan for later reads/export.  Scopes compose, so a hub runs
    alongside GSan as ``attached(gsan_plan, hub_plan)``.
    """

    def __init__(
        self,
        window_ns: float = DEFAULT_WINDOW_NS,
        max_windows: int = 4096,
        catalog: Tuple[MetricSpec, ...] = CATALOG,
        listener: Optional[Callable[["MetricsHub", float], None]] = None,
    ) -> None:
        self.window_ns = window_ns
        self.max_windows = max_windows
        self.catalog = catalog
        self.listener = listener
        self.hubs: List[MetricsHub] = []

    def __call__(self, registry: ProbeRegistry) -> None:
        hub = MetricsHub(
            window_ns=self.window_ns,
            max_windows=self.max_windows,
            label=f"sys{len(self.hubs)}",
            catalog=self.catalog,
        )
        if self.listener is not None:
            hub.add_listener(self.listener)
        self.hubs.append(hub.install(registry))

    @property
    def hub(self) -> Optional[MetricsHub]:
        """The most recently installed hub (single-System runs)."""
        return self.hubs[-1] if self.hubs else None

    def read(self, name: str, window: int = 1) -> float:
        """Convenience read from the most recent hub (0.0 when none)."""
        hub = self.hub
        return hub.read(name, window) if hub is not None else 0.0


def metrics_hubs(registry: Optional[ProbeRegistry]) -> List[MetricsHub]:
    """All hubs installed on ``registry`` (discovery via the program
    list, like ``span_tracers``)."""
    if registry is None:
        return []
    return [p for p in registry.programs if isinstance(p, MetricsHub)]
