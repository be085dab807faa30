"""repro.metrics — sim-time-windowed telemetry riding the tracepoint stream.

The observability stack's whole-run aggregates (probe snapshots, span
percentiles) answer *how much*; this package answers *when*.  A
:class:`~repro.metrics.hub.MetricsHub` attaches pure observers to the
machine's tracepoints and folds every fire into fixed-window series —
rates, EWMA, log2 histograms with windowed percentiles, gauges, and
time-weighted utilization levels — indexed by simulated time.

Everything here honours the probes determinism contract: observers are
synchronous, get no simulator handle, and never mutate simulated state;
the hub's periodic tick is a *weak* engine callback that neither
advances the clock nor keeps the run alive, so attached and detached
runs stay byte-identical and detached runs schedule zero metrics events.

``hub.read(name, window)`` is the API ROADMAP item 3's feedback
controllers will consume; :mod:`repro.metrics.export` feeds Prometheus
text, CSV, and the serving report's per-window time-series, and
:func:`repro.traceviz.metric_tracks` draws the same series as Perfetto
counter tracks.
"""

from repro.metrics.hub import MetricsHub, MetricsHubPlan, metrics_hubs
from repro.metrics.series import (
    EwmaRate,
    LevelSeries,
    WindowedCounter,
    WindowedGauge,
    WindowedLog2Histogram,
    WindowedRatio,
)

__all__ = [
    "EwmaRate",
    "LevelSeries",
    "MetricsHub",
    "MetricsHubPlan",
    "WindowedCounter",
    "WindowedGauge",
    "WindowedLog2Histogram",
    "WindowedRatio",
    "metrics_hubs",
]
