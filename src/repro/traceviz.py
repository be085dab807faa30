"""Chrome-trace export of a simulation run.

The one writer of the Trace Event Format read by chrome://tracing and
Perfetto (https://ui.perfetto.dev), and the owner of its process table:
syscall servicing ("X" events per hardware wavefront), machine
counters, probe rate meters, invocation spans, and windowed metrics.
``export_chrome_trace(system)`` merges all five, each with "M" metadata
naming its tracks; a plane's track builder returns ``[]`` when the
plane is not attached.  The planes are imported lazily; none of them
imports this module.

Usage::

    system = System()
    ... run workloads ...
    from repro.traceviz import export_chrome_trace, write_chrome_trace
    write_chrome_trace(system, "run.trace.json")
"""

from __future__ import annotations

import json
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.system import System

# Trace Event Format pids/tids are arbitrary labels; group by plane.
PID_SYSCALLS, PID_COUNTERS, PID_PROBES, PID_SPANS, PID_METRICS = range(1, 6)


# -- event helpers ----------------------------------------------------------


def process(pid: int, name: str) -> dict:
    """The "M" event naming process ``pid``."""
    return {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}


def thread(pid: int, tid: int, name: str) -> dict:
    """The "M" event naming thread ``tid`` of process ``pid``."""
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def counter(name: str, cat: str, pid: int, t_ns: float, args: dict) -> dict:
    """One counter ("C") sample at simulated time ``t_ns``."""
    return {
        "name": name,
        "cat": cat,
        "ph": "C",
        "ts": t_ns / 1000.0,  # trace format wants microseconds
        "pid": pid,
        "args": args,
    }


def complete(
    name: str, cat: str, pid: int, tid: int, t_ns: float, dur_ns: float, args: dict
) -> dict:
    """One complete ("X") event, drawn at least 1 ns long."""
    return {
        "name": name,
        "cat": cat,
        "ph": "X",
        "ts": t_ns / 1000.0,
        "dur": max(dur_ns, 1) / 1000.0,
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def document(events: List[dict], generator: str, **other: Any) -> dict:
    """A standalone trace of ``events``; ``other`` extends ``otherData``."""
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"generator": generator, **other},
    }


# -- track builders -----------------------------------------------------------


Series = Sequence[Tuple[float, float]]


def value_tracks(
    pid: int, process_name: str, thread_name: str, cat: str,
    tracks: Iterable[Tuple[str, Series]],
) -> List[dict]:
    """Counter tracks from ``(track name, [(t_ns, value), ...])`` pairs;
    empty series are skipped, and a plane with no samples at all
    contributes ``[]``, metadata included."""
    events: List[dict] = []
    for name, series in tracks:
        if not series:
            continue
        if not events:
            events.append(process(pid, process_name))
            events.append(thread(pid, 0, thread_name))
        for t_ns, value in series:
            events.append(counter(name, cat, pid, t_ns, {"value": round(value, 4)}))
    return events


def probe_tracks(registry: Optional[Any]) -> List[dict]:
    """One counter track per ``RateMeter`` attached to ``registry``
    (``None``-safe)."""
    from repro.probes.programs import RateMeter

    programs = registry.programs if registry is not None else []
    tracks = (
        (f"probe:{program.name}", program.series())
        for program in programs
        if isinstance(program, RateMeter)
    )
    return value_tracks(PID_PROBES, "probes", "probe counters", "probe", tracks)


def metric_tracks(registry: Optional[Any]) -> List[dict]:
    """One counter track per windowed series of every hub on
    ``registry`` (``None``-safe); hub labels prefix the track names
    when a registry carries several hubs."""
    from repro.metrics.hub import metrics_hubs

    hubs = metrics_hubs(registry)
    multi = len(hubs) > 1

    def tracks() -> Iterable[Tuple[str, Series]]:
        for hub in hubs:
            hub.finalize()
            exported = hub.export_series()
            prefix = f"{hub.label}:" if multi and hub.label else ""
            for key in sorted(exported):
                yield f"metric:{prefix}{key}", exported[key]

    return value_tracks(PID_METRICS, "metrics", "windowed metrics", "metric", tracks())


def span_tracks(tracers: Iterable[Any]) -> List[dict]:
    """Stage tracks and GPU->CPU flow arrows for the completed traces
    of ``tracers`` (``SpanTracer``s); ``[]`` when none completed one.
    Stage tids follow pipeline order, so Perfetto sorts the tracks
    top-to-bottom in execution order."""
    from repro.tracing.spans import STAGE_ORDER

    traces = [trace for tracer in tracers for trace in tracer.completed]
    if not traces:
        return []
    stage_tids = {stage: tid for tid, stage in enumerate(STAGE_ORDER, start=1)}
    events = [process(PID_SPANS, "syscall spans")]
    for stage, tid in stage_tids.items():
        events.append(thread(PID_SPANS, tid, f"stage: {stage}"))
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": PID_SPANS,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    for trace in traces:
        t_prev = trace.t0
        for stage, duration in trace.spans():
            args = {
                "invocation_id": trace.invocation_id,
                "syscall": trace.name,
                "stage": stage,
                "hw_wavefront": trace.hw_id,
                "granularity": trace.granularity,
                "blocking": trace.blocking,
                "wait": trace.wait,
            }
            tid = stage_tids.get(stage, 0)
            name = f"{trace.name}:{stage}"
            events.append(complete(name, "span", PID_SPANS, tid, t_prev, duration, args))
            t_prev += duration
        # Flow arrow: GPU-side submit (slot READY) -> CPU-side service.
        marks = dict(trace.marks)
        if "submit" in marks and "service" in marks:
            flow_common = {
                "name": "gpu-to-cpu",
                "cat": "flow",
                "id": trace.invocation_id,
                "pid": PID_SPANS,
            }
            events.append(
                {
                    **flow_common,
                    "ph": "s",
                    "ts": marks["submit"] / 1000.0,
                    "tid": stage_tids["submit"],
                }
            )
            service_start = marks.get("dispatch", marks["service"])
            events.append(
                {
                    **flow_common,
                    "ph": "f",
                    "bp": "e",
                    "ts": service_start / 1000.0,
                    "tid": stage_tids["service"],
                }
            )
    return events


# -- the machine itself -------------------------------------------------------


def _syscall_events(system: System) -> List[dict]:
    return [
        complete(name, "syscall", PID_SYSCALLS, hw_id, start_ns,
                 end_ns - start_ns, {"hw_wavefront": hw_id})
        for name, hw_id, start_ns, end_ns in system.genesys.completion_log
    ]


def _counter_events(system: System) -> List[dict]:
    events = []
    for label, tracker in (
        ("cpu_utilization", system.cpu.utilization),
        ("gpu_slot_utilization", system.gpu.utilization),
    ):
        for start, _end, fraction in tracker.segments():
            events.append(
                counter(label, "utilization", PID_COUNTERS, start,
                        {"busy": round(fraction, 4)})
            )
    disk = system.kernel.disk
    if disk is not None and system.now > 0:
        bin_ns = max(1.0, system.now / 64)
        for when, rate in disk.throughput_series(bin_ns):
            events.append(
                counter("disk_throughput_MBps", "io", PID_COUNTERS, when,
                        {"MBps": round(rate * 1000.0, 2)})
            )
    return events


def _metadata_events(system: System) -> List[dict]:
    hw_ids = sorted({hw_id for _, hw_id, _, _ in system.genesys.completion_log})
    return [
        process(PID_SYSCALLS, "GENESYS syscall servicing"),
        process(PID_COUNTERS, "machine counters"),
        thread(PID_COUNTERS, 0, "utilization + io"),
    ] + [thread(PID_SYSCALLS, hw_id, f"hw wavefront {hw_id}") for hw_id in hw_ids]


def export_chrome_trace(system: System) -> dict:
    """Build the Trace Event Format dict for a finished run."""
    from repro.tracing.spans import span_tracers

    registry = getattr(system, "probes", None)
    events = (
        _metadata_events(system)
        + _syscall_events(system)
        + _counter_events(system)
        + probe_tracks(registry)
        + span_tracks(span_tracers(registry))
        + metric_tracks(registry)
    )
    return document(
        events,
        "repro (GENESYS reproduction)",
        simulated_ns=system.now,
        syscalls=system.genesys.syscalls_completed,
    )


def write_chrome_trace(system: System, path: str) -> dict:
    """Export and write the trace JSON to ``path``; returns the dict."""
    trace = export_chrome_trace(system)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return trace
