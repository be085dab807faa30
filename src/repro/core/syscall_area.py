"""The syscall area: per-work-item slots in shared memory.

Paper Section VI / Figures 5-6: a preallocated region of CPU-visible
memory holds one 64-byte slot per *active* work-item, indexed by the
hardware wavefront ID and lane.  Each slot walks the state machine

    FREE -> POPULATING -> READY -> PROCESSING -> FINISHED -> FREE
                                          \\-> FREE  (non-blocking)

with GPU-side transitions done via atomics (claim with cmp-swap, state
changes with swap) and CPU-side transitions from the worker thread.
Restricting one slot per cacheline lets atomics sidestep the
non-coherent L1s; :class:`SyscallArea` also supports a packed layout so
the false-sharing ablation can quantify why the paper did not do that.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Iterator, List, Optional

from repro.core.invocation import SyscallRequest
from repro.machine import MachineConfig
from repro.memory.system import MemorySystem
from repro.probes.tracepoints import NULL_TRACEPOINT, ProbeRegistry
from repro.sim.engine import Event, Simulator

SLOT_BYTES = 64


class SlotState(Enum):
    FREE = "free"
    POPULATING = "populating"
    READY = "ready"
    PROCESSING = "processing"
    FINISHED = "finished"


#: Legal transitions and which side drives them (Figure 6: green = GPU,
#: blue = CPU).
_TRANSITIONS = {
    (SlotState.FREE, SlotState.POPULATING): "gpu",
    (SlotState.POPULATING, SlotState.READY): "gpu",
    (SlotState.READY, SlotState.PROCESSING): "cpu",
    (SlotState.PROCESSING, SlotState.FINISHED): "cpu",
    (SlotState.PROCESSING, SlotState.FREE): "cpu",  # non-blocking completion
    (SlotState.FINISHED, SlotState.FREE): "gpu",  # result consumed
}


class SlotStateError(RuntimeError):
    """An illegal slot state transition was attempted."""


class Slot:
    """One 64-byte syscall slot."""

    __slots__ = (
        "index", "addr", "state", "request", "result", "completion", "sim",
        "on_transition", "on_occupancy", "on_protocol_error", "protocol_errors",
        "last_transition_ns", "tp_transition", "_done_name",
    )

    def __init__(self, sim: Simulator, index: int, addr: int) -> None:
        self.sim = sim
        self.index = index
        self.addr = addr
        # Built once: populate() runs per invocation and must not
        # allocate a fresh name string each time.
        self._done_name = f"slot{index}-done"
        self.state = SlotState.FREE
        self.request: Optional[SyscallRequest] = None
        self.result: Any = None
        self.completion: Optional[Event] = None
        #: Optional callback(time_ns, slot, old_state, new_state, actor)
        #: for tracing the Figure-6 walk.
        self.on_transition: Optional[
            Callable[[float, "Slot", SlotState, SlotState, str], None]
        ] = None
        #: Optional callback(became_occupied) fired whenever the slot
        #: crosses the FREE boundary in either direction — the area uses
        #: it to maintain its ``slot.occupancy`` gauge.
        self.on_occupancy: Optional[Callable[[bool], None]] = None
        #: Optional callback(slot, op, actor, detail) invoked on every
        #: rejected transition — the SyscallArea wires it to the counted
        #: ``slot.protocol_error`` tracepoint.  ``actor`` names who broke
        #: the protocol ("gpu", "cpu" or "watchdog").
        self.on_protocol_error: Optional[
            Callable[["Slot", str, str, str], None]
        ] = None
        self.protocol_errors = 0
        #: When the slot last changed state (watchdog staleness input).
        self.last_transition_ns = 0.0
        #: Shared ``slot.transition`` tracepoint (area-wide), wired by
        #: :meth:`SyscallArea._slot_at`; inert by default.
        self.tp_transition = NULL_TRACEPOINT

    def _protocol_error(self, op: str, detail: str, actor: str) -> None:
        """Count (and surface) one rejected transition attempt."""
        self.protocol_errors += 1
        if self.on_protocol_error is not None:
            self.on_protocol_error(self, op, actor, detail)

    def _transition(self, new_state: SlotState, actor: str, op: str = "transition") -> None:
        edge = (self.state, new_state)
        owner = _TRANSITIONS.get(edge)
        if owner is None:
            detail = (
                f"slot {self.index}: illegal transition {self.state.value} -> "
                f"{new_state.value} by {actor}"
            )
            self._protocol_error(op, detail, actor)
            raise SlotStateError(detail)
        if owner != actor:
            detail = (
                f"slot {self.index}: transition {self.state.value} -> "
                f"{new_state.value} belongs to the {owner.upper()}, not {actor.upper()}"
            )
            self._protocol_error(op, detail, actor)
            raise SlotStateError(detail)
        old_state = self.state
        self.state = new_state
        self.last_transition_ns = self.sim.now
        if self.tp_transition.enabled:
            self.tp_transition.fire(
                self.index, old_state.value, new_state.value, actor
            )
        if self.on_occupancy is not None and (
            (old_state is SlotState.FREE) != (new_state is SlotState.FREE)
        ):
            self.on_occupancy(old_state is SlotState.FREE)
        if self.on_transition is not None:
            self.on_transition(self.sim.now, self, old_state, new_state, actor)

    # -- GPU side --------------------------------------------------------

    def try_claim(self) -> bool:
        """The cmp-swap claim: FREE -> POPULATING, or False if busy."""
        if self.state is not SlotState.FREE:
            return False
        self._transition(SlotState.POPULATING, "gpu", op="claim")
        return True

    def populate(self, request: SyscallRequest) -> None:
        if self.state is not SlotState.POPULATING:
            detail = f"slot {self.index}: populate while {self.state.value}"
            self._protocol_error("populate", detail, "gpu")
            raise SlotStateError(detail)
        self.request = request
        self.result = None
        self.completion = self.sim.event(name=self._done_name)

    def set_ready(self) -> None:
        if self.request is None:
            detail = f"slot {self.index}: READY without a request"
            self._protocol_error("set_ready", detail, "gpu")
            raise SlotStateError(detail)
        self._transition(SlotState.READY, "gpu", op="set_ready")

    def consume(self) -> Any:
        """GPU reads the result of a blocking call: FINISHED -> FREE."""
        result = self.result
        self._transition(SlotState.FREE, "gpu", op="consume")
        self.request = None
        return result

    # -- CPU side --------------------------------------------------------

    def start_processing(self) -> SyscallRequest:
        self._transition(SlotState.PROCESSING, "cpu", op="start_processing")
        assert self.request is not None
        return self.request

    def finish(
        self, result: Any, expected: Optional[SyscallRequest] = None
    ) -> bool:
        """CPU completes the call: FINISHED (blocking) or FREE.

        With ``expected`` set (the request captured at
        :meth:`start_processing`), a finish that arrives after the
        watchdog reclaimed the slot — or after it was reclaimed *and*
        reused by a newer request — is rejected instead of corrupting
        the newer occupant: the stale write is counted as a
        ``slot.protocol_error`` and ``False`` is returned so the caller
        skips its completion bookkeeping (the reclaim already did it).
        """
        if expected is not None and (
            self.request is not expected or self.state is not SlotState.PROCESSING
        ):
            self._protocol_error(
                "finish",
                f"slot {self.index}: stale finish for {expected.name!r} "
                f"(slot now {self.state.value})",
                "cpu",
            )
            return False
        if self.request is None:
            detail = f"slot {self.index}: finish without a request"
            self._protocol_error("finish", detail, "cpu")
            raise SlotStateError(detail)
        blocking = self.request.blocking
        self.result = result
        completion = self.completion
        if blocking:
            self._transition(SlotState.FINISHED, "cpu", op="finish")
        else:
            self._transition(SlotState.FREE, "cpu", op="finish")
            self.request = None
        if completion is not None and not completion.triggered:
            completion.succeed(result)
        return True

    def reclaim(self, result: Any) -> Optional[SyscallRequest]:
        """Watchdog recovery edge: force a stuck READY/PROCESSING slot
        to completion with ``result`` (typically ``-ETIMEDOUT``).

        Blocking requests land in FINISHED so the waiting work-item
        observes a definite status and consumes it through the normal
        FINISHED -> FREE edge; non-blocking ones go straight to FREE.
        Returns the request that was abandoned (``None`` if the slot
        was not actually stuck).
        """
        if self.state not in (SlotState.READY, SlotState.PROCESSING):
            self._protocol_error(
                "reclaim",
                f"slot {self.index}: reclaim while {self.state.value}",
                "watchdog",
            )
            return None
        request = self.request
        blocking = request.blocking if request is not None else False
        old_state = self.state
        self.result = result
        self.state = SlotState.FINISHED if blocking else SlotState.FREE
        self.last_transition_ns = self.sim.now
        completion = self.completion
        if not blocking:
            self.request = None
        if self.tp_transition.enabled:
            self.tp_transition.fire(
                self.index, old_state.value, self.state.value, "watchdog"
            )
        if self.on_occupancy is not None and self.state is SlotState.FREE:
            # READY/PROCESSING -> FREE: the slot just emptied.
            self.on_occupancy(False)
        if self.on_transition is not None:
            self.on_transition(self.sim.now, self, old_state, self.state, "watchdog")
        if completion is not None and not completion.triggered:
            completion.succeed(result)
        return request

    def __repr__(self) -> str:
        return f"Slot({self.index}, {self.state.value}, 0x{self.addr:x})"


class SyscallArea:
    """All slots, indexed by (hardware wavefront ID, lane).

    ``slot_stride_bytes`` defaults to one slot per cacheline (the
    paper's design); smaller strides pack multiple slots per line for
    the false-sharing ablation.
    """

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        memsystem: MemorySystem,
        slot_stride_bytes: int = SLOT_BYTES,
        probes: Optional[ProbeRegistry] = None,
    ) -> None:
        if slot_stride_bytes < 1 or SLOT_BYTES % slot_stride_bytes:
            raise ValueError(f"stride {slot_stride_bytes} must divide {SLOT_BYTES}")
        self.sim = sim
        self.config = config
        self.stride = slot_stride_bytes
        self.num_wavefronts = config.max_active_wavefronts
        self.width = config.wavefront_width
        self.num_slots = self.num_wavefronts * self.width
        self.base_addr = memsystem.alloc(
            self.num_slots * self.stride, align=config.cacheline_bytes
        )
        registry = probes if probes is not None else ProbeRegistry(sim)
        self.tp_protocol_error = registry.tracepoint(
            "slot.protocol_error",
            ("slot_index", "op", "actor", "detail"),
            "a slot rejected a double-release / out-of-order transition; "
            "actor names who attempted it (gpu/cpu/watchdog)",
        )
        self.tp_transition = registry.tracepoint(
            "slot.transition",
            ("slot_index", "old", "new", "actor"),
            "a slot walked one legal Figure-6 state-machine edge",
        )
        self.tp_occupancy = registry.tracepoint(
            "slot.occupancy",
            ("occupied", "slots"),
            "gauge: non-FREE slots in this area after a FREE-boundary "
            "crossing, out of the area's total",
        )
        #: Gauge state behind ``slot.occupancy``.
        self.occupied = 0
        self.protocol_errors = 0
        # Slots are materialised on first use: a default machine reserves
        # 40960 of them but a typical run touches a handful, and every
        # untouched slot is indistinguishable from a FREE one.  Addresses
        # are a pure function of the index, so laziness is unobservable.
        self._slots: List[Optional[Slot]] = [None] * self.num_slots

    @property
    def slots(self) -> List[Slot]:
        """All slots, materialising any not yet touched.

        Intended for whole-area instrumentation and invariant checks;
        the simulation paths use :meth:`slot_for` / :meth:`slots_of`,
        which only materialise what they return.
        """
        return [self._slot_at(i) for i in range(self.num_slots)]

    def _slot_at(self, index: int) -> Slot:
        slot = self._slots[index]
        if slot is None:
            slot = self._slots[index] = Slot(
                self.sim, index, self.base_addr + index * self.stride
            )
            slot.on_protocol_error = self._note_protocol_error
            slot.on_occupancy = self._note_occupancy
            slot.tp_transition = self.tp_transition
        return slot

    def _note_protocol_error(self, slot: Slot, op: str, actor: str, detail: str) -> None:
        self.protocol_errors += 1
        if self.tp_protocol_error.enabled:
            self.tp_protocol_error.fire(slot.index, op, actor, detail)

    def _note_occupancy(self, became_occupied: bool) -> None:
        self.occupied += 1 if became_occupied else -1
        if self.tp_occupancy.enabled:
            self.tp_occupancy.fire(self.occupied, self.num_slots)

    def materialized(self) -> List[Slot]:
        """Slots that have ever been touched (never-materialised ones
        are indistinguishable from FREE, so watchdog sweeps and
        invariant checks need only these)."""
        return [slot for slot in self._slots if slot is not None]

    @property
    def total_bytes(self) -> int:
        """Reserved footprint (the paper reports 1.25 MB for its GPU)."""
        return self.num_slots * SLOT_BYTES

    def slot_for(self, hw_wavefront_id: int, lane: int) -> Slot:
        if not 0 <= hw_wavefront_id < self.num_wavefronts:
            raise IndexError(f"hardware wavefront id {hw_wavefront_id} out of range")
        if not 0 <= lane < self.width:
            raise IndexError(f"lane {lane} out of range")
        return self._slot_at(hw_wavefront_id * self.width + lane)

    def slots_of(self, hw_wavefront_id: int) -> Iterator[Slot]:
        """The touched slots of one wavefront, in lane order: what one
        CPU scan task examines.

        Lazy and non-materialising: each index is read when the scan
        reaches it, so a slot first claimed mid-scan at a higher lane is
        still visited, while untouched slots (all FREE) cost one None
        test.  A work-group call touches only its leader's slot.
        """
        slots = self._slots
        start = hw_wavefront_id * self.width
        for index in range(start, start + self.width):
            slot = slots[index]
            if slot is not None:
                yield slot

    def shares_cacheline(self, slot: Slot) -> bool:
        """Whether this slot's line holds other slots (packed layout)."""
        return self.stride < self.config.cacheline_bytes
