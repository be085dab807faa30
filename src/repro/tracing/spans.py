"""Per-invocation span tracing over the ``repro.probes`` tracepoints.

Every GPU system call gets a unique ``invocation_id`` minted by
:meth:`repro.core.genesys.Genesys.begin_invocation` at submit time; the
span-grade tracepoints (``syscall.claim``, ``syscall.submit``,
``syscall.irq``, ``coalesce.add``, ``scan.enqueue``, ``scan.start``,
``syscall.dispatch``, ``syscall.complete``, ``syscall.resume``) carry it
through every stage of the paper's Figure-2 pipeline.  A
:class:`SpanTracer` attaches pure observers to those tracepoints and
reconstructs, per invocation, an ordered timeline of *marks*; the span
between two consecutive marks is named after the stage the later mark
terminates:

==========  ====================================================
stage       interval it measures
==========  ====================================================
submit      slot claim + populate + publish (claim -> READY)
signal      the s_sendmsg raising the CPU interrupt
interrupt   interrupt-controller queue + top-half handler
coalesce    waiting in the coalescer's bundle window
workqueue   workqueue queue time + worker dispatch delay
dispatch    worker context switch + in-bundle serialisation
service     CPU-side servicing (PROCESSING -> FINISHED/FREE)
resume      completion -> the blocked caller proceeds
==========  ====================================================

Spans telescope: the sum of an invocation's stage durations equals its
end-to-end latency *exactly* (each boundary timestamp is shared by the
adjacent stages), which is what lets the regression gate reason about
stage budgets.  Invocations that ride a scan task enqueued before their
interrupt fired (suppressed-IRQ stragglers) legitimately skip the
interrupt/coalesce/workqueue marks; their ``dispatch`` span absorbs
that wait, and the telescoping property still holds.

Like every probes observer, the tracer is read-only: it sees plain
values and the registry clock, never the simulator — attaching it leaves
all simulated timestamps byte-identical (enforced alongside the other
probes by ``tests/test_determinism_matrix.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.probes.tracepoints import ProbeRegistry

#: Canonical stage order (also the order marks arrive in sim time).
STAGE_ORDER: Tuple[str, ...] = (
    "submit",
    "signal",
    "interrupt",
    "coalesce",
    "workqueue",
    "dispatch",
    "service",
    "resume",
    # Fault/recovery marks (only present when injection or the watchdog
    # actually fired; orthogonal to the happy-path pipeline above).
    "timeout",
    "retry",
)

#: Schema version of :meth:`SpanTracer.snapshot` (and of the span
#: sections the probes metrics exporter embeds).  2 added the fault/
#: recovery annotations: ``retries``, ``timeouts``, ``degraded_rescans``.
SPAN_SNAPSHOT_SCHEMA = 2


class InvocationTrace:
    """One invocation's journey: identity plus an ordered mark list."""

    __slots__ = (
        "invocation_id",
        "name",
        "hw_id",
        "lane",
        "granularity",
        "blocking",
        "wait",
        "suppressed_irq",
        "scan_id",
        "retries",
        "timed_out",
        "marks",
        "_seen",
    )

    def __init__(
        self,
        invocation_id: int,
        name: str,
        hw_id: int,
        lane: int,
        granularity: str,
        blocking: bool,
        wait: str,
    ):
        self.invocation_id = invocation_id
        self.name = name
        self.hw_id = hw_id
        self.lane = lane
        self.granularity = granularity
        self.blocking = blocking
        self.wait = wait
        self.suppressed_irq = False
        self.scan_id: Optional[int] = None
        #: Retry attempt this invocation's failure triggered (0 = none);
        #: the follow-up attempt is a fresh invocation id.
        self.retries = 0
        #: True when the watchdog reclaimed this invocation's slot with
        #: ``-ETIMEDOUT`` instead of a worker finishing it.
        self.timed_out = False
        #: [(stage, t_ns), ...] — first entry is the "claim" origin.
        self.marks: List[Tuple[str, float]] = []
        self._seen: set = set()

    def mark(self, stage: str, t_ns: float) -> None:
        """Record ``stage`` at ``t_ns`` (idempotent per stage)."""
        if stage in self._seen:
            return
        self._seen.add(stage)
        self.marks.append((stage, t_ns))

    @property
    def complete(self) -> bool:
        """Whether the invocation reached its terminal mark."""
        return ("resume" if self.blocking else "service") in self._seen

    def _ordered(self) -> List[Tuple[str, float]]:
        """Marks in chronological order.

        Appends are time-ordered in all but one pathological
        interleaving (a straggler assigned to a second scan that starts
        after the first scan already dispatched it), so the stable sort
        is a no-op almost always — but it guarantees non-negative spans.
        """
        return sorted(self.marks, key=lambda mark: mark[1])

    @property
    def t0(self) -> float:
        return self.marks[0][1]

    @property
    def t_end(self) -> float:
        return self._ordered()[-1][1]

    def end_to_end(self) -> float:
        """Claim start to the last recorded mark, in ns."""
        return self.t_end - self.t0

    def spans(self) -> List[Tuple[str, float]]:
        """``[(stage, duration_ns), ...]`` between consecutive marks.

        The durations telescope: ``sum(d for _, d in spans())`` equals
        :meth:`end_to_end` exactly.
        """
        ordered = self._ordered()
        out = []
        for i in range(1, len(ordered)):
            stage, t = ordered[i]
            out.append((stage, t - ordered[i - 1][1]))
        return out

    def timeline(self) -> str:
        """Human-readable one-line timeline for slowest-N listings."""
        parts = [f"t0={self.t0:.0f}ns"]
        for stage, dur in self.spans():
            parts.append(f"{stage}={dur:.0f}")
        return " ".join(parts)

    def __repr__(self) -> str:
        state = "complete" if self.complete else f"open@{self.marks[-1][0]}"
        notes = ""
        if self.retries:
            notes += f" retried(attempt={self.retries})"
        if self.timed_out:
            notes += " timed-out"
        return (
            f"InvocationTrace(#{self.invocation_id} {self.name} hw={self.hw_id} "
            f"{self.granularity} {'blocking' if self.blocking else 'non-blocking'} "
            f"{state}{notes})"
        )


class SpanTracer:
    """Reconstructs per-invocation timelines from span tracepoints.

    Duck-types the probe-program ``snapshot`` so the metrics exporter
    picks it up from ``registry.programs`` like any other attached
    program; :func:`repro.traceviz.span_tracks` renders its traces.
    """

    kind = "spans"
    name = "spans"
    tracepoint = None

    def __init__(self, registry: ProbeRegistry):
        self.registry = registry
        #: invocation_id -> open trace.
        self.active: Dict[int, InvocationTrace] = {}
        #: Finalised traces in completion order.
        self.completed: List[InvocationTrace] = []
        #: hw_id -> traces signalled but not yet assigned to a scan.
        self._awaiting: Dict[int, List[InvocationTrace]] = {}
        #: scan_id -> traces whose bundle became that scan task.
        self._scan_members: Dict[int, List[InvocationTrace]] = {}
        #: invocation_id -> finalized trace (``syscall.retry`` fires
        #: after the failed attempt already resumed, so annotation must
        #: reach completed traces too).
        self._by_id: Dict[int, InvocationTrace] = {}
        #: Fault/recovery annotation totals (schema 2).
        self.retries = 0
        self.timeouts = 0
        self.degraded_rescans = 0

    def install(self) -> "SpanTracer":
        """Attach all observers and register for snapshot export."""
        reg = self.registry
        reg.attach("syscall.claim", self._on_claim)
        reg.attach("syscall.submit", self._on_submit)
        reg.attach("syscall.irq", self._on_irq)
        reg.attach("coalesce.add", self._on_coalesce_add)
        reg.attach("scan.enqueue", self._on_scan_enqueue)
        reg.attach("scan.start", self._on_scan_start)
        reg.attach("syscall.dispatch", self._on_dispatch)
        reg.attach("syscall.complete", self._on_complete)
        reg.attach("syscall.resume", self._on_resume)
        reg.attach("syscall.retry", self._on_retry)
        reg.attach("recover.slot_reclaim", self._on_slot_reclaim)
        reg.attach("recover.degraded", self._on_degraded)
        reg.programs.append(self)
        return self

    # -- observers (pure: fire args + registry clock only) ----------------

    def _on_claim(self, invocation_id, name, hw_id, lane, granularity, blocking, wait):
        trace = InvocationTrace(
            invocation_id, name, hw_id, lane, granularity, blocking, wait
        )
        trace.mark("claim", self.registry.now())
        self.active[invocation_id] = trace

    def _on_submit(self, granularity, invocation_id, name, hw_id, blocking):
        trace = self.active.get(invocation_id)
        if trace is not None:
            trace.mark("submit", self.registry.now())

    def _on_irq(self, invocation_id, hw_id, suppressed):
        trace = self.active.get(invocation_id)
        if trace is None:
            return
        trace.mark("signal", self.registry.now())
        trace.suppressed_irq = bool(suppressed)
        self._awaiting.setdefault(hw_id, []).append(trace)

    def _on_coalesce_add(self, hw_id):
        now = self.registry.now()
        for trace in self._awaiting.get(hw_id, ()):
            trace.mark("interrupt", now)

    def _on_scan_enqueue(self, scan_id, hw_ids):
        now = self.registry.now()
        members = self._scan_members.setdefault(scan_id, [])
        for hw_id in hw_ids:
            for trace in self._awaiting.pop(hw_id, ()):
                trace.mark("coalesce", now)
                trace.scan_id = scan_id
                members.append(trace)

    def _on_scan_start(self, scan_id, hw_ids):
        now = self.registry.now()
        for trace in self._scan_members.pop(scan_id, ()):
            if "dispatch" not in trace._seen:  # already taken by another scan
                trace.mark("workqueue", now)

    def _on_dispatch(self, name, hw_id, invocation_id):
        trace = self.active.get(invocation_id)
        if trace is None:
            return
        trace.mark("dispatch", self.registry.now())
        # Stragglers serviced by a scan enqueued before their IRQ fired
        # never joined a bundle; drop them from the awaiting pool.
        waiting = self._awaiting.get(hw_id)
        if waiting and trace in waiting:
            waiting.remove(trace)

    def _on_complete(self, name, hw_id, service_ns, invocation_id, blocking):
        trace = self.active.get(invocation_id)
        if trace is None:
            return
        trace.mark("service", self.registry.now())
        if not blocking:
            self._finalize(trace)

    def _on_resume(self, invocation_id, name, hw_id):
        trace = self.active.get(invocation_id)
        if trace is None:
            return
        trace.mark("resume", self.registry.now())
        self._finalize(trace)

    def _on_retry(self, invocation_id, name, errno, attempt, backoff_ns):
        self.retries += 1
        trace = self.active.get(invocation_id) or self._by_id.get(invocation_id)
        if trace is not None:
            trace.mark("retry", self.registry.now())
            trace.retries = attempt

    def _on_slot_reclaim(self, invocation_id, name, slot_index, was_state):
        self.timeouts += 1
        trace = self.active.get(invocation_id)
        if trace is None:
            return
        trace.mark("timeout", self.registry.now())
        trace.timed_out = True
        # A reclaimed non-blocking invocation has no waiter to resume;
        # the -ETIMEDOUT status is its terminal mark.
        if not trace.blocking:
            self._finalize(trace)

    def _on_degraded(self, hw_ids):
        self.degraded_rescans += 1

    def _finalize(self, trace: InvocationTrace) -> None:
        del self.active[trace.invocation_id]
        self.completed.append(trace)
        self._by_id[trace.invocation_id] = trace

    # -- export protocol ---------------------------------------------------

    def snapshot(self) -> dict:
        """Schema-versioned span summary for the metrics exporter."""
        from repro.tracing.analysis import e2e_stats, stage_stats

        return {
            "kind": self.kind,
            "name": self.name,
            "tracepoint": None,
            "schema": SPAN_SNAPSHOT_SCHEMA,
            "invocations": len(self.completed),
            "open": len(self.active),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "degraded_rescans": self.degraded_rescans,
            "stages": stage_stats(self.completed),
            "end_to_end": e2e_stats(self.completed),
        }

    def __repr__(self) -> str:
        return (
            f"SpanTracer({len(self.completed)} completed, "
            f"{len(self.active)} open)"
        )


def install_tracer(registry: ProbeRegistry) -> SpanTracer:
    """Plan-compatible helper: build and install a tracer on ``registry``."""
    return SpanTracer(registry).install()


def span_tracers(registry) -> List[SpanTracer]:
    """All SpanTracers installed on ``registry`` (``None``-safe)."""
    if registry is None:
        return []
    return [p for p in registry.programs if isinstance(p, SpanTracer)]
