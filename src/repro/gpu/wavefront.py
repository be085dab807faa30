"""The wavefront executor: lockstep interpretation of work-item ops.

Each wavefront is one simulation process driving up to
``wavefront_width`` work-item generators.  Per step, every runnable lane
yields one op; the executor charges a combined cost so SIMD lockstep is
reflected in timing: the max for compute, and serialised memory traffic.
Memory is not coalesced: every lane's load or store runs through the
cache hierarchy line by line, in lane order, so lanes repeating a line
pay again — as an L1 hit for loads, an L2 hit for write-through stores.
Atomics serialise the same way.  Lanes block individually on barriers
and halt-waits; the wavefront as a whole only sleeps when no lane can
make progress — so a single blocked work-item stalls its wavefront, the
paper's motivation for non-blocking syscalls.

The step loop branches on each op's class-level ``opcode`` (most
frequent kinds first) rather than an ``isinstance`` chain.

When a wavefront's only runnable lane sleeps in a syscall's completion
poll (a :class:`~repro.gpu.ops.PollSleep`), the wavefront parks and a
:class:`_PollChain` runs the poll rounds as engine callbacks: each
round still charges its atomic-load, touches the L2 line and counts its
lockstep steps, and each callback is scheduled at the moment and in the
order the wavefront's own heap entry would have been.  The wavefront
resumes inline, in that heap position, once a read sees the slot done
or the atomic misses the L2.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, TYPE_CHECKING

from repro.gpu.hierarchy import WorkGroup, WorkItemCtx
from repro.gpu.ops import (
    OP_ATOMIC,
    OP_BARRIER,
    OP_COMPUTE,
    OP_DO,
    OP_L1_FLUSH,
    OP_LDS_READ,
    OP_LDS_WRITE,
    OP_MEM_READ,
    OP_MEM_WRITE,
    OP_NONE,
    OP_POLL_SLEEP,
    OP_SLEEP,
    OP_WAIT_ALL,
    Op,
    PollSleep,
)
from repro.sim.engine import Event, Process, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import Gpu


def all_events(sim: Simulator, events: Sequence[Event]) -> Event:
    """Combine events into one that fires when all have fired.

    Uses direct callback registration on the children — no watcher
    process, generator, or completion event per watched item.  A failing
    child fails the combined event.
    """
    pending = [e for e in events if not e.triggered]
    combined = sim.event(name="all-events")
    if not pending:
        combined.succeed()
        return combined
    state = {"remaining": len(pending)}

    def child_done(value, exc) -> None:
        if combined.triggered:
            return
        if exc is not None:
            combined.fail(exc)
            return
        state["remaining"] -= 1
        if state["remaining"] == 0:
            combined.succeed()

    for event in pending:
        event._add_callback(child_done)
    return combined


class _Lane:
    """One work-item being driven by the wavefront executor."""

    __slots__ = ("ctx", "gen", "inbox", "blocked_on", "needs_resume", "finished")

    def __init__(self, ctx: WorkItemCtx, gen: Generator):
        self.ctx = ctx
        self.gen = gen
        self.inbox: Any = None
        self.blocked_on: Optional[Event] = None
        self.needs_resume = False
        self.finished = False


#: How a :class:`_PollChain` hands its wavefront back: the last read
#: saw the slot done, or the last atomic-load missed the L2.
_POLL_DONE = "done"
_POLL_MISS = "miss"


class _PollChain:
    """A parked wavefront's completion-poll rounds, run as callbacks.

    One round of the reference step loop is three lockstep steps: the
    atomic-load (charged at the wake, its L2 access at the *touch*
    ``atomic_latency_ns["atomic-load"]`` later), the state read and the
    sleep of ``poll_interval_ns`` at that same instant.  The chain runs
    the same steps with no generator resume: each wait goes through
    :meth:`Simulator.try_advance` exactly where the step loop would
    yield, and when that declines, the one handle is (re-)armed at the
    same absolute time, its ``seq`` drawn at the same moment as the
    reference entry's.  A sleep continuing in place is exact too, since
    the wavefront's ``yield`` would be the next entry popped.

    One chain serves one park; it drops its handle at hand-back, so it
    holds no reference cycle and is freed as soon as the park ends.
    """

    __slots__ = (
        "sim", "process", "parked", "try_advance", "charge", "access", "slot",
        "line", "done", "interval", "handle", "at_touch", "steps",
    )

    def __init__(self, wavefront: "Wavefront", op: PollSleep) -> None:
        sim = wavefront.sim
        mem = wavefront.gpu.memsystem
        self.sim = sim
        self.process = wavefront.process
        #: Never triggered: the wavefront waits on it while parked and
        #: is resumed inline by :meth:`Simulator.resume`.
        self.parked = Event(sim, name="poll-park")
        # Bound once per park: a round calls each of them.
        self.try_advance = sim.try_advance
        self.charge = mem.atomics.charge
        self.access = mem.l2.access
        self.slot = op.slot
        self.line = op.line
        self.done = op.done
        self.interval = op.duration
        self.handle: Any = None
        self.at_touch = False
        #: Lockstep steps run after the sleep ``op`` (itself a step the
        #: step loop counted).
        self.steps = 0

    def start(self) -> Optional[str]:
        """Sleep, then run rounds until one hands the wavefront back.

        Returns how it is handed back, or ``None`` once a callback is
        armed and the wavefront must park on :attr:`parked`.
        """
        sim = self.sim
        interval = self.interval
        if interval and not self.try_advance(interval):
            self.handle = sim.call_at(sim.now + interval, self._rounds)
            return None
        return self._rounds()

    def _rounds(self) -> Optional[str]:
        """Run rounds from the wake (or the touch, if :attr:`at_touch`).

        Also the armed callback.  At a hand-back it returns the outcome
        when it runs inline from :meth:`start` (nothing armed yet), and
        otherwise resumes the parked wavefront itself.
        """
        sim = self.sim
        try_advance = self.try_advance
        steps = self.steps
        at_touch = self.at_touch
        while True:
            if not at_touch:
                # The wake: the atomic-load step.
                steps += 1
                latency = self.charge("atomic-load")
                if not try_advance(latency):
                    when = sim.now + latency
                    at_touch = True
                    break
            # The touch: the atomic's L2 access, then the state read.
            at_touch = False
            if not self.access(self.line):
                return self._hand_back(steps, _POLL_MISS)
            steps += 1
            if self.slot.state is self.done:
                return self._hand_back(steps, _POLL_DONE)
            steps += 1  # the sleep
            interval = self.interval
            if interval and not try_advance(interval):
                when = sim.now + interval
                break
        self.steps = steps
        self.at_touch = at_touch
        if self.handle is None:
            self.handle = sim.call_at(when, self._rounds)
        else:
            sim.rearm(self.handle, when)
        return None

    def _hand_back(self, steps: int, outcome: str) -> Optional[str]:
        """Return ``outcome`` to :meth:`start`, or resume the parked
        wavefront with it from the callback."""
        self.steps = steps
        if self.handle is None:
            return outcome
        self.handle = None  # no cycle back through the handle's callback
        self.sim.resume(self.process, outcome)
        return None


class Wavefront:
    """A hardware-scheduled lockstep group of work-items."""

    def __init__(
        self,
        sim: Simulator,
        gpu: "Gpu",
        group: WorkGroup,
        ctxs: List[WorkItemCtx],
        cu_id: int,
        slot_id: int,
    ):
        if not ctxs:
            raise ValueError("wavefront needs at least one work-item")
        self.sim = sim
        self.gpu = gpu
        self.group = group
        self.cu_id = cu_id
        self.slot_id = slot_id
        self.hw_id = cu_id * gpu.config.wavefront_slots_per_cu + slot_id
        self.lanes = [_Lane(ctx, gpu.start_work_item(ctx, self)) for ctx in ctxs]
        #: Lockstep-efficiency accounting: total steps executed and the
        #: number of lane-ops issued (full-width steps issue width ops).
        self.steps = 0
        self.lane_ops = 0
        self.divergent_steps = 0
        #: The process running :meth:`run` (set by the device at spawn);
        #: a parked poll chain resumes it.
        self.process: Optional[Process] = None

    @property
    def simd_efficiency(self) -> float:
        """Mean fraction of lanes active per step (1.0 = no divergence)."""
        if self.steps == 0:
            return 1.0
        return self.lane_ops / (self.steps * self.width)

    @property
    def width(self) -> int:
        return len(self.lanes)

    def run(self) -> Generator:
        """Process body: drive all lanes to completion."""
        cfg = self.gpu.config
        mem = self.gpu.memsystem
        group = self.group
        # Live/runnable lane lists are maintained incrementally (in lane
        # order) and only rebuilt when a lane finishes, blocks, or wakes —
        # the steady-state step loop allocates no per-step lane lists.
        live = [lane for lane in self.lanes if not lane.finished]
        runnable = [lane for lane in live if lane.blocked_on is None]
        try:
            while live:
                if not runnable:
                    yield from self._wait_for_wake(live)
                    runnable = [lane for lane in live if lane.blocked_on is None]
                    tp_runnable = self.gpu.tp_lanes_runnable
                    if tp_runnable.enabled:
                        tp_runnable.fire(self.hw_id, len(runnable), len(live))
                    continue

                self.steps += 1
                self.lane_ops += len(runnable)
                if len(runnable) < len(live):
                    self.divergent_steps += 1
                compute_ns = 0.0
                # Per-kind op lists exist only once a lane yields that kind.
                mem_ops: Optional[List[Op]] = None
                atomic_ops: Optional[List[Op]] = None
                flush_ops: Optional[List[Op]] = None
                lds_ops: Optional[List[Op]] = None
                poll: Optional[PollSleep] = None
                lanes_changed = False
                for lane in runnable:
                    try:
                        op = lane.gen.send(lane.inbox)
                    except StopIteration:
                        lane.finished = True
                        lane.inbox = None
                        group.work_item_finished()
                        lanes_changed = True
                        continue
                    lane.inbox = None
                    try:
                        code = op.opcode
                    except AttributeError:  # not an Op: the TypeError below
                        code = OP_NONE
                    # Branches in order of how often lanes yield each kind.
                    if code == OP_BARRIER:
                        lane.blocked_on = group.arrive_barrier()
                        lanes_changed = True
                    elif code == OP_ATOMIC:
                        if atomic_ops is None:
                            atomic_ops = [op]
                        else:
                            atomic_ops.append(op)
                    elif code == OP_DO:
                        lane.inbox = op.action()
                    elif code == OP_COMPUTE:
                        lane_ns = op.cycles * cfg.gpu_cycle_ns
                        if lane_ns > compute_ns:
                            compute_ns = lane_ns
                    elif code == OP_MEM_READ or code == OP_MEM_WRITE:
                        if mem_ops is None:
                            mem_ops = [op]
                        else:
                            mem_ops.append(op)
                    elif code == OP_SLEEP:
                        if op.duration > compute_ns:
                            compute_ns = op.duration
                    elif code == OP_POLL_SLEEP:
                        if len(runnable) == 1 and self.sim.tie_break is None:
                            poll = op
                        elif op.duration > compute_ns:
                            compute_ns = op.duration
                    elif code == OP_WAIT_ALL:
                        lane.blocked_on = all_events(self.sim, op.events)
                        lane.needs_resume = True
                        lanes_changed = True
                    elif code == OP_LDS_READ or code == OP_LDS_WRITE:
                        if lds_ops is None:
                            lds_ops = [op]
                        else:
                            lds_ops.append(op)
                    elif code == OP_L1_FLUSH:
                        if flush_ops is None:
                            flush_ops = [op]
                        else:
                            flush_ops.append(op)
                    else:
                        raise TypeError(f"work-item yielded non-op {op!r}")

                if poll is not None and not lanes_changed:
                    yield from self._poll(poll, runnable[0], len(live) > 1)
                    continue
                if compute_ns:
                    yield compute_ns
                if lds_ops is not None:
                    yield self._lds_time(lds_ops)
                if mem_ops is not None:
                    for op in mem_ops:
                        if op.opcode == OP_MEM_READ:
                            yield from mem.gpu_load(self.cu_id, op.addr, op.size)
                        else:
                            yield from mem.gpu_store(self.cu_id, op.addr, op.size)
                if atomic_ops is not None:
                    for op in atomic_ops:
                        yield from mem.gpu_atomic(op.kind, op.addr)
                if flush_ops is not None:
                    for op in flush_ops:
                        yield from mem.gpu_l1_flush_range(self.cu_id, op.addr, op.size)
                if lanes_changed:
                    live = [lane for lane in live if not lane.finished]
                    runnable = [lane for lane in live if lane.blocked_on is None]
                    tp_runnable = self.gpu.tp_lanes_runnable
                    if tp_runnable.enabled:
                        tp_runnable.fire(self.hw_id, len(runnable), len(live))
        finally:
            # Retired wavefronts outlive their process in reference
            # cycles (work-item context <-> device API); keep it from
            # pinning the finished process too.
            self.process = None
            self.gpu.wavefront_finished(self)

    # -- internals ---------------------------------------------------------

    def _poll(self, op: PollSleep, lane: _Lane, divergent: bool) -> Generator:
        """The lone runnable ``lane`` sleeps in its completion poll: run
        the rounds as a :class:`_PollChain`, parked if they must wait,
        then step the lane to where the step loop would have it.

        Other lanes stay blocked throughout: ``runnable`` is rebuilt only
        when lanes change or after :meth:`_wait_for_wake`.  Parking is
        not a halt, so the occupancy gauges do not move.
        """
        chain = _PollChain(self, op)
        outcome = chain.start()
        if outcome is None:
            outcome = yield chain.parked
        steps = chain.steps
        self.steps += steps
        self.lane_ops += steps
        if divergent:
            self.divergent_steps += steps
        lane.gen.send(None)  # the atomic-load
        if outcome is _POLL_MISS:
            yield from self.gpu.memsystem.gpu_atomic_fill()
        else:
            lane.inbox = lane.gen.send(None).action()  # the state read

    def _lds_time(self, lds_ops: List[Op]) -> float:
        """LDS access time for one lockstep step: the max per-bank
        serialisation degree.  Reads of one identical address broadcast
        (degree 1, as on GCN); any other same-bank collisions serialise.
        """
        cfg = self.gpu.config
        bank_words = {}
        for op in lds_ops:
            first_word = op.addr // cfg.lds_bank_bytes
            last_word = (op.addr + max(op.size, 1) - 1) // cfg.lds_bank_bytes
            for word in range(first_word, last_word + 1):
                bank = word % cfg.lds_banks
                is_read = op.opcode == OP_LDS_READ
                bank_words.setdefault(bank, []).append((word, is_read))
        degree = 1
        for accesses in bank_words.values():
            reads = {}
            writes = 0
            for word, is_read in accesses:
                if is_read:
                    reads[word] = reads.get(word, 0) + 1
                else:
                    writes += 1
            # Distinct read words conflict; identical reads broadcast.
            bank_degree = len(reads) + writes
            degree = max(degree, bank_degree)
        return degree * cfg.lds_access_ns

    def _wait_for_wake(self, live: List[_Lane]) -> Generator:
        """All lanes blocked: sleep until at least one can progress."""
        gpu = self.gpu
        tp_halt = gpu.tp_wf_halt
        tp_resume = gpu.tp_wf_resume
        observing = tp_halt.enabled or tp_resume.enabled
        if observing:
            halted_at = self.sim.now
            if tp_halt.enabled:
                tp_halt.fire(self.hw_id, len(live))
        gpu.halted_wavefronts += 1
        gpu._note_occupancy()
        distinct = {}
        for lane in live:
            distinct[id(lane.blocked_on)] = lane.blocked_on
        events = list(distinct.values())
        if len(events) == 1:
            yield events[0]
        else:
            # Wake on the first of them; re-check the rest next iteration.
            from repro.sim.engine import AnyOf

            yield AnyOf(events)
        resume = False
        for lane in live:
            if lane.blocked_on is not None and lane.blocked_on.triggered:
                if lane.needs_resume:
                    resume = True
                lane.blocked_on = None
                lane.needs_resume = False
        if resume:
            # One scalar wake message re-schedules the wavefront.
            yield self.gpu.config.halt_resume_ns
        gpu.halted_wavefronts -= 1
        gpu._note_occupancy()
        if observing and tp_resume.enabled:
            tp_resume.fire(self.hw_id, self.sim.now - halted_at)

    def __repr__(self) -> str:
        return f"Wavefront(hw={self.hw_id}, wg={self.group.group_id}, lanes={self.width})"
