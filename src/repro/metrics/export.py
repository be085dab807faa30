"""Exporters for the windowed metrics plane.

Three sinks, all fed from ``MetricsHub.export_series()``:

* :func:`prometheus_text` — Prometheus exposition format (one gauge per
  windowed reading plus lifetime ``_total`` counters), for scraping a
  run's final state or diffing in CI.
* :func:`csv_text` — long-form ``metric,t0_ns,value`` rows, the archival
  format the CI smoke step schema-checks.
* :func:`series_payload` — a JSON-ready dict embedded in reports
  (``BENCH_serving.json`` carries its serving-specific sibling).

The same series become Perfetto counter tracks through
:func:`repro.traceviz.metric_tracks`.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional

from repro.metrics.hub import MetricsHub, metrics_hubs

__all__ = [
    "METRICS_SCHEMA",
    "csv_text",
    "prometheus_text",
    "series_payload",
]

METRICS_SCHEMA = 1

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def prometheus_text(hub: MetricsHub, experiment: str = "") -> str:
    """Prometheus exposition text for ``hub``'s current state.

    Counters surface their lifetime total (TYPE counter) and the last
    closed window's rate (TYPE gauge); gauges/levels/ratios surface the
    last window's primary reading; histograms surface windowed
    p50/p95/p99 plus a lifetime observation counter.  Output is sorted
    and deterministic for a given run.
    """
    hub.finalize()
    labels = f'{{experiment="{experiment}"}}' if experiment else ""
    lines: List[str] = []

    def emit(name: str, kind: str, help_text: str, value: float) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{labels} {value:.6g}")

    for name in sorted(hub.metrics):
        estimator = hub.metrics[name]
        spec = hub.specs[name]
        base = _prom_name(name)
        help_text = spec.help or name
        kind = estimator.kind
        if kind == "counter":
            emit(base + "_total", "counter", help_text + " (lifetime)",
                 estimator.total)  # type: ignore[attr-defined]
            emit(base, "gauge", help_text + " (last window)",
                 hub.read(name))
        elif kind == "histogram":
            emit(base + "_count_total", "counter",
                 help_text + " (lifetime observations)",
                 float(estimator.lifetime_count))  # type: ignore[attr-defined]
            for q in ("p50", "p95", "p99"):
                emit(f"{base}_{q}", "gauge",
                     help_text + f" (windowed {q})",
                     hub.read(name, mode=q))
        elif kind == "gauge":
            emit(base, "gauge", help_text + " (window mean)",
                 hub.read(name))
            emit(base + "_max", "gauge", help_text + " (window max)",
                 hub.read(name, mode="max"))
        else:  # level / ratio
            emit(base, "gauge", help_text, hub.read(name))
    return "\n".join(lines) + "\n"


def csv_text(hub: MetricsHub) -> str:
    """Long-form CSV of every closed window: ``metric,t0_ns,value``."""
    hub.finalize()
    rows = ["metric,t0_ns,value"]
    for key, series in sorted(hub.export_series().items()):
        for t0, value in series:
            rows.append(f"{key},{t0:.0f},{value:.6g}")
    return "\n".join(rows) + "\n"


def series_payload(hub: MetricsHub) -> Dict[str, Any]:
    """JSON-ready windowed series for embedding in reports."""
    hub.finalize()
    return {
        "schema": METRICS_SCHEMA,
        "window_ns": hub.window_ns,
        "ticks": hub.ticks,
        "label": hub.label,
        "series": {
            key: [[t0, value] for t0, value in series]
            for key, series in sorted(hub.export_series().items())
        },
    }


def write_prometheus(
    hub: MetricsHub, path: str, experiment: str = ""
) -> None:
    with open(path, "w") as fh:
        fh.write(prometheus_text(hub, experiment))


def write_csv(hub: MetricsHub, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(csv_text(hub))


def merged_hub_payloads(registry: Optional[Any]) -> List[Dict[str, Any]]:
    """Per-hub series payloads for multi-System reports."""
    return [series_payload(hub) for hub in metrics_hubs(registry)]
