"""`repro.probes`: eBPF-style tracepoints + policy hooks for the stack.

The subsystem in one breath: the simulated stack declares static
**tracepoints** (observe) and **policy hooks** (decide) in a per-System
:class:`ProbeRegistry`; user **programs** — counters, latency
histograms, rate meters, fixed/choice policies — attach at runtime,
directly or to every System built inside ``with attached(*plans):``;
the **exporter** turns attached state into JSON snapshots, and
:func:`repro.traceviz.probe_tracks` turns rate meters into Perfetto
counter tracks; and ``python -m repro.probes run <experiment>
--attach ...`` does all of it from the command line.

Guarantees (tested):

* observer probes never perturb simulated results — experiment outputs
  are byte-identical attached vs. detached;
* a detached tracepoint costs one attribute check and never builds its
  argument tuple.

See the "Probes & policy hooks" section of ``docs/architecture.md``.
"""

from repro.probes.exporters import metrics_snapshot
from repro.probes.policy import PolicyHook, choose, fixed
from repro.probes.programs import (
    CounterProbe,
    LatencyHistogram,
    ProbeProgram,
    RateMeter,
    percentile_from_log2_buckets,
)
from repro.probes.tracepoints import (
    NULL_TRACEPOINT,
    ProbeRegistry,
    Tracepoint,
    attached,
)

__all__ = [
    "NULL_TRACEPOINT",
    "CounterProbe",
    "LatencyHistogram",
    "PolicyHook",
    "ProbeProgram",
    "ProbeRegistry",
    "RateMeter",
    "Tracepoint",
    "attached",
    "choose",
    "fixed",
    "metrics_snapshot",
    "percentile_from_log2_buckets",
]
