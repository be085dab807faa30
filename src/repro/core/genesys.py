"""The GENESYS runtime: GPU system-call request/response machinery.

Implements the five steps of the paper's Figure 2:

1. the GPU work-item places call arguments in its syscall-area slot,
2. it interrupts the CPU with its wavefront's hardware ID (s_sendmsg),
3. the interrupt handler (after optional coalescing) enqueues a
   workqueue task; an OS worker thread scans the wavefront's slots and
   flips READY requests to PROCESSING,
4. the worker executes each call against the Linux substrate in the
   invoking process's context and writes results back to the slot,
5. the slot flips to FINISHED (blocking) or FREE (non-blocking) and the
   waiting work-item is woken — by its poll loop observing the state or
   by a halt-resume message.

Construct one :class:`Genesys` per simulated machine; it installs the
device API onto every work-item the GPU starts.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, List, Optional, Set, Tuple

from repro.core.coalescing import CoalescingConfig, Coalescer
from repro.core.invocation import Granularity, WaitMode
from repro.core.syscall_area import Slot, SlotState, SyscallArea
from repro.gpu.device import Gpu
from repro.gpu.hierarchy import WorkItemCtx
from repro.gpu.wavefront import Wavefront
from repro.machine import MachineConfig
from repro.memory.system import MemorySystem
from repro.oskernel.errors import Errno, OsError
from repro.oskernel.linux import LinuxKernel
from repro.oskernel.process import OsProcess
from repro.oskernel.workqueue import DrainTimeout
from repro.probes.tracepoints import ProbeRegistry
from repro.sim.engine import Event, Simulator, _TimerHandle

#: Sanity ceilings for the sysfs coalescing knobs: a window beyond ten
#: simulated seconds or a batch beyond the whole syscall area is a typo,
#: not a tuning choice.
MAX_WINDOW_NS = 10_000_000_000.0
MAX_BATCH = 65536


class GenesysError(RuntimeError):
    """Misuse of the GENESYS interface."""


class OrderingError(GenesysError):
    """Strong ordering requested where it can deadlock the GPU.

    Kernels can hold more work-items than can be co-resident and GPU
    runtimes do not preempt, so strong ordering at kernel granularity
    risks deadlock (Section V-A); GENESYS rejects it outright.
    """


class Genesys:
    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        linux: LinuxKernel,
        gpu: Gpu,
        memsystem: MemorySystem,
        host_process: OsProcess,
        coalescing: Optional[CoalescingConfig] = None,
        slot_stride_bytes: int = 64,
        probes: Optional[ProbeRegistry] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.linux = linux
        self.gpu = gpu
        self.memsystem = memsystem
        self.host_process = host_process
        self.probes = probes if probes is not None else ProbeRegistry(sim)
        self.area = SyscallArea(
            sim, config, memsystem, slot_stride_bytes, probes=self.probes
        )
        self.coalescing = coalescing or CoalescingConfig()
        self.coalescer = Coalescer(
            sim, self.coalescing, flush_fn=self._enqueue_scan, probes=self.probes
        )
        self.tp_submit = self.probes.tracepoint(
            "syscall.submit",
            ("granularity", "invocation_id", "name", "hw_id", "blocking"),
            "a GPU work-item published a READY syscall request",
        )
        self.tp_inflight = self.probes.tracepoint(
            "syscall.inflight",
            ("outstanding",),
            "gauge: invocations in flight after an issue or completion",
        )
        self.tp_dispatch = self.probes.tracepoint(
            "syscall.dispatch",
            ("name", "hw_id", "invocation_id"),
            "a worker flipped a slot READY -> PROCESSING",
        )
        self.tp_complete = self.probes.tracepoint(
            "syscall.complete",
            ("name", "hw_id", "service_ns", "invocation_id", "blocking"),
            "a syscall finished servicing; service_ns = PROCESSING time",
        )
        # Span-grade fire sites (repro.tracing): each carries the
        # invocation_id minted by begin_invocation so one invocation's
        # journey can be joined across the GPU- and CPU-side halves.
        self.tp_claim = self.probes.tracepoint(
            "syscall.claim",
            ("invocation_id", "name", "hw_id", "lane", "granularity", "blocking", "wait"),
            "a work-item started claiming its syscall-area slot",
        )
        self.tp_irq = self.probes.tracepoint(
            "syscall.irq",
            ("invocation_id", "hw_id", "suppressed"),
            "an invocation signalled the CPU (suppressed: a scan for its "
            "wavefront was already queued, so no new interrupt was raised)",
        )
        self.tp_resume = self.probes.tracepoint(
            "syscall.resume",
            ("invocation_id", "name", "hw_id"),
            "a blocking caller observed completion and proceeded",
        )
        self.tp_scan_enqueue = self.probes.tracepoint(
            "scan.enqueue",
            ("scan_id", "hw_ids"),
            "a coalesced bundle was submitted to the workqueue as one scan task",
        )
        self.tp_scan_start = self.probes.tracepoint(
            "scan.start",
            ("scan_id", "hw_ids"),
            "a worker thread began executing a scan task",
        )
        # Fault-injection decision points (consulted only when a
        # FaultPlan or test attached a program) and the recovery
        # tracepoints the watchdog machinery fires.
        self.hook_fault_errno = self.probes.hook(
            "fault.errno",
            ("name", "invocation_id"),
            "return an Errno to fail this dispatch transiently (before "
            "the syscall body runs), or None to execute normally",
        )
        self.tp_fault_errno = self.probes.tracepoint(
            "fault.errno.injected",
            ("name", "errno", "invocation_id"),
            "a transient errno was injected at dispatch",
        )
        self.hook_fault_slot = self.probes.hook(
            "fault.slot",
            ("hw_id", "slot_index", "name"),
            "return 'wedge' to strand the slot in PROCESSING, 'corrupt' to "
            "replace the result with -EIO, or None for a clean completion",
        )
        self.tp_fault_slot = self.probes.tracepoint(
            "fault.slot.injected",
            ("action", "slot_index", "name"),
            "an injected slot fault was applied (wedge or corrupt)",
        )
        self.hook_watchdog = self.probes.hook(
            "genesys.watchdog",
            ("period_ns",),
            "override the watchdog period (ns; 0 disables) for the next arm",
        )
        self.hook_slot_timeout = self.probes.hook(
            "genesys.slot_timeout",
            ("timeout_ns",),
            "override the stuck-slot reclaim timeout (ns; 0 disables)",
        )
        self.hook_worker_timeout = self.probes.hook(
            "genesys.worker_timeout",
            ("timeout_ns",),
            "override the stalled-worker requeue timeout (ns; 0 disables)",
        )
        self.hook_retry = self.probes.hook(
            "genesys.retry",
            ("name", "result", "attempt"),
            "override the GPU-side retry decision for a failed blocking call",
        )
        self.tp_retry = self.probes.tracepoint(
            "syscall.retry",
            ("invocation_id", "name", "errno", "attempt", "backoff_ns"),
            "a blocking caller got a transient errno and will retry after "
            "capped exponential backoff",
        )
        self.tp_degraded = self.probes.tracepoint(
            "recover.degraded",
            ("hw_ids",),
            "watchdog fell back to polling-scan servicing (missed interrupt)",
        )
        self.tp_reclaim = self.probes.tracepoint(
            "recover.slot_reclaim",
            ("invocation_id", "name", "slot_index", "was_state"),
            "watchdog reclaimed a stuck slot with -ETIMEDOUT",
        )
        # QoS decision points (repro.qos).  All dormant by default: no
        # deadline is minted, nothing sheds, and the no-plan path stays
        # byte-identical.
        self.hook_qos_deadline = self.probes.hook(
            "qos.deadline",
            ("name",),
            "override the deadline delta (ns; 0 = none) minted for an "
            "invocation of this syscall",
        )
        self.hook_qos_invoke = self.probes.hook(
            "qos.invoke",
            ("name",),
            "return an Errno to fast-fail this blocking invocation on the "
            "GPU side before submission (circuit breaker), or None to admit",
        )
        self.tp_shed = self.probes.tracepoint(
            "qos.shed",
            ("stage", "reason", "invocation_id", "name", "slot_index"),
            "a request was shed at a stage boundary instead of serviced "
            "(reason: deadline or priority)",
        )
        self._scan_suppressed: Set[int] = set()
        self.outstanding = 0
        self._all_complete: Optional[Event] = None
        self.invocation_counts: Dict[Granularity, int] = {g: 0 for g in Granularity}
        self.interrupts_sent = 0
        self.syscalls_completed = 0
        #: Monotonic invocation-id mint (see begin_invocation) and the
        #: scan-task mint used to join workqueue waits to bundles.
        self._next_invocation_id = 0
        self._next_scan_id = 0
        #: (name, hw_wavefront_id, start_ns, end_ns) per serviced call —
        #: consumed by repro.traceviz for timeline export.  Optionally
        #: bounded: ``completion_log_limit`` > 0 keeps only the newest
        #: entries (knob: /sys/genesys/completion_log_limit) and counts
        #: everything discarded in ``completion_log_dropped``.
        self.completion_log: Deque[Tuple[str, int, float, float]] = deque()
        self.completion_log_limit = 0
        self.completion_log_dropped = 0
        # -- recovery knobs and state (watchdog off by default: the
        # happy path stays byte-identical to the watchdog-free design).
        #: Watchdog period in ns; 0 disables (knob:
        #: /sys/genesys/watchdog_period_ns, hook: genesys.watchdog).
        self.watchdog_period_ns = 0.0
        #: Age past which a READY/PROCESSING slot is reclaimed with
        #: -ETIMEDOUT; 0 disables reclaim (rescan still runs).
        self.slot_timeout_ns = 2_000_000.0
        #: Age past which a picked-but-unstarted workqueue task is
        #: requeued and its worker presumed stalled or dead.
        self.worker_timeout_ns = 500_000.0
        #: GPU-side retry/backoff for transient errnos (Section V
        #: blocking semantics): base doubles per attempt up to the cap.
        self.retry_base_ns = 2_000.0
        self.retry_cap_ns = 64_000.0
        self.max_syscall_retries = 6
        self.retryable_errnos = frozenset(
            {int(Errno.EINTR), int(Errno.EAGAIN)}
        )
        self.degraded = 0
        self.slots_reclaimed = 0
        self.watchdog_ticks = 0
        self.syscall_retries = 0
        # -- QoS state (repro.qos).  Defaults keep the stack policy-free:
        #: default deadline delta minted per invocation (ns; 0 = none,
        #: knob: /sys/genesys/qos/deadline_ns, hook: qos.deadline).
        self.qos_deadline_ns = 0.0
        #: requests with priority below this floor are shed at dispatch
        #: (brownout level 3 raises it; 0 sheds nothing).
        self.qos_priority_floor = 0
        #: gate for an attached brownout controller (knob:
        #: /sys/genesys/qos/brownout; 0 pins the controller at level 0).
        self.qos_brownout_enabled = 1
        self.syscalls_shed = 0
        self.qos_fast_fails = 0
        self.polled_scans = 0
        self.sheds_by_stage: Dict[str, int] = {}
        self._watchdog_handle: Optional[_TimerHandle] = None
        self._last_progress: Optional[Tuple[int, int, int, int, int]] = None
        gpu.workitem_binder = self._bind_workitem
        linux.interrupts.register_handler(self._bottom_half)
        self._register_sysfs()

    def _register_sysfs(self) -> None:
        """Expose the coalescing knobs through sysfs (Section VI:
        "GENESYS uses Linux's sysfs interface to communicate coalescing
        parameters") — readable and writable as ordinary files.

        The knobs are clients of the ``coalesce.window`` /
        ``coalesce.batch`` policy hooks: a validated write updates the
        default those decision points start from, and any attached
        policy program may still override it per bundle.  Malformed
        writes fail with EINVAL exactly as a real sysfs store would.
        """
        fs = self.linux.fs
        if not fs.exists("/sys/genesys"):
            fs.mkdir("/sys/genesys")
        coalescing = self.coalescing

        def set_window(raw: bytes) -> None:
            text = raw.strip()
            try:
                value = float(text)
            except (ValueError, UnicodeDecodeError):
                raise OsError(
                    Errno.EINVAL, f"coalescing_window_ns: not a number: {text!r}"
                ) from None
            if value != value or value < 0:  # NaN or negative
                raise OsError(
                    Errno.EINVAL, f"coalescing_window_ns: must be >= 0, got {value!r}"
                )
            if value > MAX_WINDOW_NS:
                raise OsError(
                    Errno.EINVAL,
                    f"coalescing_window_ns: {value!r} exceeds {MAX_WINDOW_NS:.0f}",
                )
            coalescing.window_ns = value

        def set_batch(raw: bytes) -> None:
            text = raw.strip()
            try:
                value = int(text)
            except (ValueError, UnicodeDecodeError):
                raise OsError(
                    Errno.EINVAL, f"coalescing_max_batch: not an integer: {text!r}"
                ) from None
            if value < 1:
                raise OsError(
                    Errno.EINVAL, f"coalescing_max_batch: must be >= 1, got {value}"
                )
            if value > MAX_BATCH:
                raise OsError(
                    Errno.EINVAL, f"coalescing_max_batch: {value} exceeds {MAX_BATCH}"
                )
            coalescing.max_batch = value

        fs.bind_dynamic_file(
            "/sys/genesys/coalescing_window_ns",
            lambda: b"%d\n" % int(coalescing.window_ns),
            write_fn=set_window,
        )
        fs.bind_dynamic_file(
            "/sys/genesys/coalescing_max_batch",
            lambda: b"%d\n" % coalescing.max_batch,
            write_fn=set_batch,
        )

        def set_log_limit(raw: bytes) -> None:
            text = raw.strip()
            try:
                value = int(text)
            except (ValueError, UnicodeDecodeError):
                raise OsError(
                    Errno.EINVAL, f"completion_log_limit: not an integer: {text!r}"
                ) from None
            if value < 0:
                raise OsError(
                    Errno.EINVAL, f"completion_log_limit: must be >= 0, got {value}"
                )
            self.set_completion_log_limit(value)

        fs.bind_dynamic_file(
            "/sys/genesys/completion_log_limit",
            lambda: b"%d\n" % self.completion_log_limit,
            write_fn=set_log_limit,
        )

        def _parse_period(knob: str, raw: bytes) -> float:
            text = raw.strip()
            try:
                value = float(text)
            except (ValueError, UnicodeDecodeError):
                raise OsError(Errno.EINVAL, f"{knob}: not a number: {text!r}") from None
            if value != value or value < 0:  # NaN or negative
                raise OsError(Errno.EINVAL, f"{knob}: must be >= 0, got {value!r}")
            if value > MAX_WINDOW_NS:
                raise OsError(
                    Errno.EINVAL, f"{knob}: {value!r} exceeds {MAX_WINDOW_NS:.0f}"
                )
            return value

        def set_watchdog(raw: bytes) -> None:
            self.watchdog_period_ns = _parse_period("watchdog_period_ns", raw)
            # Start supervising immediately if work is already in flight
            # (otherwise the next submission arms the timer).
            if self.outstanding > 0 or self.linux.workqueue.outstanding > 0:
                self._arm_watchdog()

        def set_slot_timeout(raw: bytes) -> None:
            self.slot_timeout_ns = _parse_period("slot_timeout_ns", raw)

        def set_worker_timeout(raw: bytes) -> None:
            self.worker_timeout_ns = _parse_period("worker_timeout_ns", raw)

        fs.bind_dynamic_file(
            "/sys/genesys/watchdog_period_ns",
            lambda: b"%d\n" % int(self.watchdog_period_ns),
            write_fn=set_watchdog,
        )
        fs.bind_dynamic_file(
            "/sys/genesys/slot_timeout_ns",
            lambda: b"%d\n" % int(self.slot_timeout_ns),
            write_fn=set_slot_timeout,
        )
        fs.bind_dynamic_file(
            "/sys/genesys/worker_timeout_ns",
            lambda: b"%d\n" % int(self.worker_timeout_ns),
            write_fn=set_worker_timeout,
        )

        # QoS knobs live in their own directory; same validation
        # discipline as the coalescing knobs above.
        if not fs.exists("/sys/genesys/qos"):
            fs.mkdir("/sys/genesys/qos")

        def set_qos_deadline(raw: bytes) -> None:
            self.qos_deadline_ns = _parse_period("qos/deadline_ns", raw)

        def set_qos_admission(raw: bytes) -> None:
            self.linux.net.sojourn_budget_ns = _parse_period("qos/admission", raw)

        def set_qos_brownout(raw: bytes) -> None:
            text = raw.strip()
            try:
                value = float(text)
            except (ValueError, UnicodeDecodeError):
                raise OsError(
                    Errno.EINVAL, f"qos/brownout: not a number: {text!r}"
                ) from None
            if value != value or value < 0:  # NaN or negative
                raise OsError(
                    Errno.EINVAL, f"qos/brownout: must be 0 or 1, got {value!r}"
                )
            if value > 1:
                raise OsError(Errno.EINVAL, f"qos/brownout: {value!r} exceeds 1")
            self.qos_brownout_enabled = int(value)

        fs.bind_dynamic_file(
            "/sys/genesys/qos/deadline_ns",
            lambda: b"%d\n" % int(self.qos_deadline_ns),
            write_fn=set_qos_deadline,
        )
        fs.bind_dynamic_file(
            "/sys/genesys/qos/admission",
            lambda: b"%d\n" % int(self.linux.net.sojourn_budget_ns),
            write_fn=set_qos_admission,
        )
        fs.bind_dynamic_file(
            "/sys/genesys/qos/brownout",
            lambda: b"%d\n" % self.qos_brownout_enabled,
            write_fn=set_qos_brownout,
        )

    # -- GPU-side hooks -----------------------------------------------------

    def _bind_workitem(self, ctx: WorkItemCtx, wavefront: Wavefront) -> None:
        from repro.core.device_api import DeviceApi

        ctx.sys = DeviceApi(self, ctx, wavefront)

    def begin_invocation(
        self,
        name: str,
        hw_id: int,
        lane: int,
        granularity: Granularity,
        blocking: bool,
        wait: WaitMode,
    ) -> int:
        """Mint the invocation id for one syscall submission.

        Called inline (between GPU ops, never as one) at the start of the
        slot-claim sequence, so minting adds no op to the lane's stream;
        the ``syscall.claim`` fire is the invocation's t0 when tracing is
        attached.
        """
        self._next_invocation_id += 1
        invocation_id = self._next_invocation_id
        if self.tp_claim.enabled:
            self.tp_claim.fire(
                invocation_id,
                name,
                hw_id,
                lane,
                granularity.value,
                blocking,
                wait.value,
            )
        return invocation_id

    def note_issued(self, granularity: Granularity, slot: Optional[Slot] = None) -> None:
        self.outstanding += 1
        self.invocation_counts[granularity] += 1
        if self.tp_inflight.enabled:
            self.tp_inflight.fire(self.outstanding)
        if self._watchdog_handle is None:
            self._arm_watchdog()
        if self.tp_submit.enabled:
            request = slot.request if slot is not None else None
            if request is not None:
                self.tp_submit.fire(
                    granularity.value,
                    request.invocation_id,
                    request.name,
                    slot.index // self.area.width,
                    request.blocking,
                )
            else:
                self.tp_submit.fire(granularity.value, None, None, None, None)

    def raise_interrupt(self, hw_wavefront_id: int, slot: Optional[Slot] = None) -> None:
        """Step 2: GPU interrupts the CPU (called at GPU time via a Do op).

        One scan task per wavefront is enough to service every READY slot
        of that wavefront, so interrupts are suppressed while a scan for
        the same hardware ID is already queued.
        """
        suppressed = hw_wavefront_id in self._scan_suppressed
        if self.tp_irq.enabled and slot is not None and slot.request is not None:
            self.tp_irq.fire(
                slot.request.invocation_id, hw_wavefront_id, suppressed
            )
        if suppressed:
            return
        self._scan_suppressed.add(hw_wavefront_id)
        self.interrupts_sent += 1
        self.linux.interrupts.raise_irq(hw_wavefront_id)

    # -- QoS: deadlines and shedding ----------------------------------------

    def mint_deadline(self, name: str) -> Optional[float]:
        """The absolute deadline for an invocation of ``name`` starting
        now, or None when no deadline policy is in force.

        The default delta is ``qos_deadline_ns`` (knob:
        /sys/genesys/qos/deadline_ns); a ``qos.deadline`` program may
        override it per syscall name (returning 0 exempts the call).
        """
        delta = self.qos_deadline_ns
        if self.hook_qos_deadline.active:
            delta = self.hook_qos_deadline.decide(delta, name)
        if not delta or delta <= 0:
            return None
        return self.sim.now + float(delta)

    def _shed_slot(self, slot: Slot, stage: str, reason: str) -> None:
        """Complete a READY slot with -ETIME instead of servicing it.

        Runs the ordinary slot protocol (READY -> PROCESSING -> done) so
        waiting work-items wake exactly as for a served call and GSan
        sees a legal, exactly-once completion — just with zero service
        time and a dead-on-arrival result.
        """
        request = slot.start_processing()
        hw_id = slot.index // self.area.width
        if self.tp_dispatch.enabled:
            self.tp_dispatch.fire(request.name, hw_id, request.invocation_id)
        if not slot.finish(-int(Errno.ETIME), expected=request):
            return
        self.syscalls_shed += 1
        self.sheds_by_stage[stage] = self.sheds_by_stage.get(stage, 0) + 1
        self._note_completion()
        if self.tp_shed.enabled:
            self.tp_shed.fire(
                stage, reason, request.invocation_id, request.name, slot.index
            )
        if self.tp_complete.enabled:
            self.tp_complete.fire(
                request.name, hw_id, 0.0, request.invocation_id, request.blocking
            )

    def _shed_expired(self, hw_wavefront_id: int, stage: str) -> Tuple[int, int]:
        """Shed every expired READY slot of one wavefront.

        Returns ``(shed, live)``: how many slots were shed and how many
        READY slots remain.  Cheap when no deadlines are minted — the
        per-slot check is a None test.
        """
        now = self.sim.now
        shed = 0
        live = 0
        for slot in self.area.slots_of(hw_wavefront_id):
            if slot.state is not SlotState.READY:
                continue
            request = slot.request
            if (
                request is not None
                and request.deadline_ns is not None
                and now > request.deadline_ns
            ):
                self._shed_slot(slot, stage, "deadline")
                shed += 1
                continue
            live += 1
        return shed, live

    # -- CPU-side path ------------------------------------------------------

    def _bottom_half(self, hw_wavefront_id: int) -> None:
        """Step 3a: the timed interrupt handler hands off to the coalescer.

        Coalesce-admit shed stage: requests already past deadline are
        completed with -ETIME here, before they cost a bundle slot; if
        that empties the wavefront's READY set, no scan is queued and
        the interrupt suppression lifts so the next request signals
        afresh.
        """
        shed, live = self._shed_expired(hw_wavefront_id, "coalesce")
        if shed and live == 0:
            self._scan_suppressed.discard(hw_wavefront_id)
            return
        self.coalescer.add(hw_wavefront_id)

    def _enqueue_scan(self, hw_ids: List[int]) -> None:
        """Step 3b: a coalesced bundle becomes one workqueue task."""
        self._next_scan_id += 1
        scan_id = self._next_scan_id
        if self.tp_scan_enqueue.enabled:
            self.tp_scan_enqueue.fire(scan_id, tuple(hw_ids))
        # Transient task record: the backlog must drain before a
        # checkpoint is legal, so this closure never reaches a pickle.
        self.linux.workqueue.submit(  # lint: allow(SLOT002)
            lambda: self._scan_task(scan_id, list(hw_ids))
        )

    def _scan_task(self, scan_id: int, hw_ids: List[int]) -> Generator[Any, Any, None]:
        """Steps 3c-5: worker thread scans slots and services the calls.

        All calls in the bundle run sequentially on this one worker —
        the implicit serialisation cost of coalescing.
        """
        if self.tp_scan_start.enabled:
            self.tp_scan_start.fire(scan_id, tuple(hw_ids))
        cpu = self.linux.cpu
        # Workqueue-pickup shed stage: anything that expired while the
        # bundle waited in the queue is dropped before we pay the
        # context switch for it.
        for hw_id in hw_ids:
            self._shed_expired(hw_id, "pickup")
        # Adopt the context of the process that launched the kernel
        # (Section VI: syscalls execute outside the invoking context).
        yield from cpu.run(self.config.context_switch_ns)
        for hw_id in hw_ids:
            self._scan_suppressed.discard(hw_id)
            for slot in self.area.slots_of(hw_id):
                if slot.state is not SlotState.READY:
                    continue
                # Dispatch shed stage: servicing earlier calls of the
                # bundle advanced the clock, and brownout may have
                # raised the priority floor since submission.
                pending = slot.request
                if pending is not None:
                    if (
                        pending.deadline_ns is not None
                        and self.sim.now > pending.deadline_ns
                    ):
                        self._shed_slot(slot, "dispatch", "deadline")
                        continue
                    if pending.priority < self.qos_priority_floor:
                        self._shed_slot(slot, "dispatch", "priority")
                        continue
                request = slot.start_processing()
                started_at = self.sim.now
                if self.tp_dispatch.enabled:
                    self.tp_dispatch.fire(request.name, hw_id, request.invocation_id)
                yield from cpu.run(self.config.syscall_base_ns)
                injected_errno: Any = None
                if self.hook_fault_errno.active:
                    injected_errno = self.hook_fault_errno.decide(
                        None, request.name, request.invocation_id
                    )
                if injected_errno:
                    # Transient failure injected at dispatch: the syscall
                    # body never runs, so a GPU-side retry of the whole
                    # invocation is side-effect free.
                    result = -int(injected_errno)
                    if self.tp_fault_errno.enabled:
                        self.tp_fault_errno.fire(
                            request.name, int(injected_errno), request.invocation_id
                        )
                else:
                    result = yield from self.linux.execute(
                        request.proc, request.name, request.args
                    )
                slot_action: Any = None
                if self.hook_fault_slot.active:
                    slot_action = self.hook_fault_slot.decide(
                        None, hw_id, slot.index, request.name
                    )
                if slot_action == "wedge":
                    # The completion write never lands: the slot stays
                    # PROCESSING until the watchdog reclaims it with
                    # -ETIMEDOUT and surfaces that to the wavefront.
                    if self.tp_fault_slot.enabled:
                        self.tp_fault_slot.fire("wedge", slot.index, request.name)
                    continue
                if slot_action == "corrupt":
                    if self.tp_fault_slot.enabled:
                        self.tp_fault_slot.fire("corrupt", slot.index, request.name)
                    result = -int(Errno.EIO)
                # Write the result back through the shared memory path.
                yield from self.memsystem.dram.cpu_access(self.config.cacheline_bytes)
                if self.area.shares_cacheline(slot):
                    # Packed layout ablation: the CPU's write ping-pongs the
                    # line away from the GPU L2, so every neighbouring
                    # poller misses to DRAM (the false-sharing cost the
                    # one-slot-per-line design avoids).
                    self.memsystem.l2.invalidate(
                        slot.addr // self.config.cacheline_bytes
                    )
                if not slot.finish(result, expected=request):
                    # The watchdog reclaimed (and possibly reused) the
                    # slot while we were servicing it; the reclaim did
                    # the completion bookkeeping, so a second completion
                    # here would double-count.
                    continue
                self._note_completion()
                self.syscalls_completed += 1
                if self.completion_log_limit and (
                    len(self.completion_log) >= self.completion_log_limit
                ):
                    self.completion_log.popleft()
                    self.completion_log_dropped += 1
                self.completion_log.append(
                    (request.name, hw_id, started_at, self.sim.now)
                )
                if self.tp_complete.enabled:
                    self.tp_complete.fire(
                        request.name,
                        hw_id,
                        self.sim.now - started_at,
                        request.invocation_id,
                        request.blocking,
                    )

    def _note_completion(self) -> None:
        """One invocation reached a definite status (serviced or reclaimed)."""
        self.outstanding -= 1
        if self.tp_inflight.enabled:
            self.tp_inflight.fire(self.outstanding)
        if self.outstanding == 0 and self._all_complete is not None:
            event, self._all_complete = self._all_complete, None
            event.succeed()

    # -- watchdog / recovery -------------------------------------------------

    def _effective_watchdog_period(self) -> float:
        period = self.watchdog_period_ns
        if self.hook_watchdog.active:
            period = self.hook_watchdog.decide(period)
        return period

    def _arm_watchdog(self) -> None:
        """Schedule the next watchdog tick (no-op while disabled).

        The watchdog is the CPU-side supervisor the recovery paths hang
        off: each tick requeues tasks wedged at stalled/dead workers,
        reclaims slots stuck past their deadline, and — when a whole
        tick passed with zero forward progress — falls back to the
        paper's polling-scan servicing mode for READY slots whose
        interrupt evidently never arrived.
        """
        if self._watchdog_handle is not None:
            return
        period = self._effective_watchdog_period()
        if not period or period <= 0:
            return
        self._watchdog_handle = self.sim.call_later(period, self._watchdog_tick)

    def _watchdog_tick(self) -> None:
        self._watchdog_handle = None
        workqueue = self.linux.workqueue
        if self.outstanding <= 0 and workqueue.outstanding <= 0:
            # Idle: stop ticking; the next submission re-arms.
            self._last_progress = None
            return
        self.watchdog_ticks += 1
        worker_timeout = self.worker_timeout_ns
        if self.hook_worker_timeout.active:
            worker_timeout = self.hook_worker_timeout.decide(worker_timeout)
        requeued = workqueue.check_stalled(worker_timeout)
        reclaimed = self._reclaim_stuck_slots()
        progress = (
            self.syscalls_completed,
            self.slots_reclaimed,
            workqueue.completed,
            workqueue.backlog,
            self.outstanding,
        )
        if progress == self._last_progress and not requeued and not reclaimed:
            # A whole period with no movement anywhere: assume a lost
            # interrupt and scan READY slots directly (degraded mode).
            self._degraded_rescan()
        self._last_progress = progress
        self._arm_watchdog()

    def _reclaim_stuck_slots(self) -> int:
        """Force slots stuck in READY/PROCESSING past their limit to a
        definite error status, waking their waiting work-items.

        Two independent limits apply: the age-based ``slot_timeout_ns``
        (-ETIMEDOUT, as before) and the invocation's own QoS deadline
        (-ETIME) — a wedged slot whose deadline passed is reclaimed even
        when the age timeout is disabled.  ``Slot.reclaim`` returning
        the abandoned request exactly once (and ``finish`` refusing a
        stale write-back) keeps the completion single even when a
        dawdling worker races the reclaim.
        """
        timeout = self.slot_timeout_ns
        if self.hook_slot_timeout.active:
            timeout = self.hook_slot_timeout.decide(timeout)
        aged_enabled = bool(timeout and timeout > 0)
        now = self.sim.now
        count = 0
        for slot in self.area.materialized():
            if slot.state not in (SlotState.READY, SlotState.PROCESSING):
                continue
            pending = slot.request
            expired = (
                pending is not None
                and pending.deadline_ns is not None
                and now > pending.deadline_ns
            )
            aged = aged_enabled and now - slot.last_transition_ns >= timeout
            if not expired and not aged:
                continue
            was_state = slot.state.value
            retval = -int(Errno.ETIME) if expired else -int(Errno.ETIMEDOUT)
            request = slot.reclaim(retval)
            if request is None:
                continue
            count += 1
            self.slots_reclaimed += 1
            # A reclaimed READY slot usually means its interrupt was
            # lost; drop the suppression so the wavefront's next call
            # raises a fresh one instead of waiting on a ghost scan.
            self._scan_suppressed.discard(slot.index // self.area.width)
            self._note_completion()
            if self.tp_reclaim.enabled:
                self.tp_reclaim.fire(
                    request.invocation_id, request.name, slot.index, was_state
                )
        return count

    def _degraded_rescan(self) -> int:
        """Missed-interrupt fallback: enqueue scans for every wavefront
        with READY slots, bypassing the interrupt path entirely."""
        hw_ids = sorted(
            {
                slot.index // self.area.width
                for slot in self.area.materialized()
                if slot.state is SlotState.READY
            }
        )
        if not hw_ids:
            return 0
        self.degraded += 1
        if self.tp_degraded.enabled:
            self.tp_degraded.fire(tuple(hw_ids))
        self._enqueue_scan(hw_ids)
        return len(hw_ids)

    def poll_scan(self) -> int:
        """Polling-mode servicing pass: enqueue one scan covering every
        wavefront with READY slots, bypassing the interrupt path.

        The brownout controller's interrupt->polling degradation (the
        paper's Fig 9/13 tradeoff made dynamic) calls this on its tick
        while the ``irq.mode`` hook suppresses top halves.
        """
        hw_ids = sorted(
            {
                slot.index // self.area.width
                for slot in self.area.materialized()
                if slot.state is SlotState.READY
            }
        )
        if not hw_ids:
            return 0
        self.polled_scans += 1
        self._enqueue_scan(hw_ids)
        return len(hw_ids)

    # -- GPU-side retry policy ----------------------------------------------

    def retry_decision(self, name: str, result: Any, attempt: int) -> bool:
        """Should a blocking call that returned ``result`` be retried?

        Default: yes for the transient errnos (EINTR/EAGAIN) while under
        the attempt cap.  The ``genesys.retry`` hook may override — e.g.
        a chaos plan injecting ENOMEM widens the retryable set.
        """
        default = (
            isinstance(result, int)
            and result < 0
            and -result in self.retryable_errnos
            and attempt < self.max_syscall_retries
        )
        if self.hook_retry.active:
            return bool(self.hook_retry.decide(default, name, result, attempt))
        return default

    def retry_backoff_ns(self, attempt: int) -> float:
        """Capped exponential backoff for retry ``attempt`` (1-based)."""
        return min(self.retry_cap_ns, self.retry_base_ns * (2 ** (attempt - 1)))

    # -- host-side services --------------------------------------------------

    def set_completion_log_limit(self, limit: int) -> None:
        """Bound ``completion_log`` to the newest ``limit`` entries.

        ``limit`` == 0 restores the unbounded default.  Shrinking below
        the current length discards the oldest entries immediately and
        counts them as dropped, exactly as the append path would have.
        """
        if limit < 0:
            raise ValueError(f"completion_log_limit must be >= 0, got {limit}")
        self.completion_log_limit = limit
        if limit:
            while len(self.completion_log) > limit:
                self.completion_log.popleft()
                self.completion_log_dropped += 1

    def _when_no_outstanding(self) -> Event:
        """An event that fires when ``outstanding`` next reaches zero."""
        if self.outstanding == 0:
            event = self.sim.event(name="genesys-drained")
            event.succeed()
            return event
        if self._all_complete is None:
            self._all_complete = self.sim.event(name="genesys-drained")
        return self._all_complete

    def drain(self, timeout: Optional[float] = None) -> Generator[Any, Any, None]:
        """Process body: wait until all issued GPU syscalls completed.

        The paper's Section IX: a host-side call that must run before
        process termination because non-blocking GPU syscalls can outlive
        the GPU thread (and even the kernel) that issued them.

        Event-driven: sleeps on completion events instead of ticking, but
        re-checks on the historical 1 µs polling grid (anchored at the
        call, advanced by repeated addition exactly as the busy-wait loop
        did) so observed completion times are bit-identical.

        With ``timeout`` (simulated ns) the wait is bounded: if
        invocations or workqueue tasks are still in flight at the
        deadline, a :class:`DrainTimeout` is raised listing the stuck
        slots and tasks instead of hanging the event loop forever.
        """
        from repro.sim.engine import AnyOf

        workqueue = self.linux.workqueue
        sim = self.sim
        deadline = None if timeout is None else sim.now + timeout
        next_tick = sim.now
        while self.outstanding > 0 or workqueue.outstanding > 0:
            if deadline is None:
                if self.outstanding > 0:
                    yield self._when_no_outstanding()
                else:
                    yield workqueue.when_idle()
            else:
                if sim.now >= deadline:
                    raise DrainTimeout(
                        f"drain: {self.outstanding} invocation(s) and "
                        f"{workqueue.outstanding} workqueue task(s) still in "
                        f"flight after {timeout:.0f}ns",
                        stuck=self.stuck_report(),
                    )
                pending = (
                    self._when_no_outstanding()
                    if self.outstanding > 0
                    else workqueue.when_idle()
                )
                yield AnyOf([pending, sim.wake_at(deadline, name="drain-deadline")])
            while next_tick < sim.now:
                next_tick += 1000.0
            if next_tick > sim.now:
                yield sim.wake_at(next_tick, name="drain-grid")

    def stuck_report(self) -> List[str]:
        """Descriptions of every non-FREE slot and unfinished workqueue
        task, for DrainTimeout diagnostics."""
        stuck: List[str] = []
        for slot in self.area.materialized():
            if slot.state is SlotState.FREE:
                continue
            request = slot.request
            name = request.name if request is not None else "?"
            invocation = request.invocation_id if request is not None else "?"
            stuck.append(
                f"slot#{slot.index} {slot.state.value} name={name} "
                f"invocation={invocation} since={slot.last_transition_ns:.0f}ns"
            )
        stuck.extend(self.linux.workqueue.stuck_report())
        return stuck

    def stats(self) -> Dict[str, Any]:
        return {
            "interrupts_sent": self.interrupts_sent,
            "syscalls_completed": self.syscalls_completed,
            "outstanding": self.outstanding,
            "bundles": self.coalescer.bundles_flushed,
            "mean_bundle_size": self.coalescer.mean_bundle_size,
            "invocations": {g.value: n for g, n in self.invocation_counts.items()},
            "syscall_counts": dict(self.linux.syscall_counts),
            "completion_log_dropped": self.completion_log_dropped,
            "degraded": self.degraded,
            "slots_reclaimed": self.slots_reclaimed,
            "watchdog_ticks": self.watchdog_ticks,
            "syscall_retries": self.syscall_retries,
            "syscalls_shed": self.syscalls_shed,
            "sheds_by_stage": {
                stage: self.sheds_by_stage[stage]
                for stage in sorted(self.sheds_by_stage)
            },
            "qos_fast_fails": self.qos_fast_fails,
            "polled_scans": self.polled_scans,
            "slot_protocol_errors": self.area.protocol_errors,
            "net": self.linux.net.stats(),
        }
