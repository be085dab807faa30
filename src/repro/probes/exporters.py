"""Exporter: JSON metrics snapshots of attached probe state.

:func:`metrics_snapshot` is a JSON-ready dict of every tracepoint's hit
count, every hook's decision/override counts, and every attached
program's snapshot.  The CLI writes one per System; CI asserts on it.
Rate meters' time series become Perfetto counter tracks through
:func:`repro.traceviz.probe_tracks`.
"""

from __future__ import annotations

from typing import Optional

from repro.probes.tracepoints import ProbeRegistry

SNAPSHOT_SCHEMA = 1


def metrics_snapshot(registry: ProbeRegistry, experiment: Optional[str] = None) -> dict:
    """Everything the attached probes know, as one JSON-ready dict."""
    tracepoints = {}
    for name in sorted(registry.tracepoints):
        tp = registry.tracepoints[name]
        tracepoints[name] = {
            "hits": tp.hits,
            "observers": tp.observers,
            "args": list(tp.args),
        }
    hooks = {}
    for name in sorted(registry.hooks):
        hook = registry.hooks[name]
        hooks[name] = {
            "programs": hook.programs,
            "decisions": hook.decisions,
            "overrides": hook.overrides,
        }
    return {
        "schema": SNAPSHOT_SCHEMA,
        "experiment": experiment,
        "simulated_ns": registry.now(),
        "tracepoints": tracepoints,
        "hooks": hooks,
        "programs": [program.snapshot() for program in registry.programs],
    }

