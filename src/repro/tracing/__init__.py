"""Per-invocation span tracing with critical-path latency attribution.

Built on the :mod:`repro.probes` tracepoints: a :class:`SpanTracer`
attaches pure observers that join each syscall's ``invocation_id``
across every pipeline stage (submit, signal, interrupt, coalesce,
workqueue, dispatch, service, resume), :mod:`repro.tracing.analysis`
turns the collected traces into the paper's latency-composition views,
:func:`repro.traceviz.span_tracks` renders them as Perfetto span
tracks, and :mod:`repro.tracing.gate` compares fresh runs against committed
baselines (``python -m repro.tracing report|record|gate``).
"""

from repro.tracing.spans import (
    SPAN_SNAPSHOT_SCHEMA,
    STAGE_ORDER,
    InvocationTrace,
    SpanTracer,
    install_tracer,
    span_tracers,
)

__all__ = [
    "SPAN_SNAPSHOT_SCHEMA",
    "STAGE_ORDER",
    "InvocationTrace",
    "SpanTracer",
    "install_tracer",
    "span_tracers",
]
