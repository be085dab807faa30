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
    OP_SLEEP,
    OP_WAIT_ALL,
    Op,
)
from repro.sim.engine import Event, Simulator

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
            self.gpu.wavefront_finished(self)

    # -- internals ---------------------------------------------------------

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
