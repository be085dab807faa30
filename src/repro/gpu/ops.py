"""Operations a work-item body may yield.

Kernel code is a generator; each yielded op is interpreted by the
wavefront executor, which charges simulated time through the memory
system and coordinates barriers.  The GENESYS device API
(:mod:`repro.core.device_api`) is built entirely from these primitives,
so syscall invocation costs flow through the same caches and DRAM channel
as ordinary kernel traffic — that is what makes the polling-contention
and atomics effects of the paper emerge rather than being hard-coded.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.sim.engine import Event

#: Opcodes :meth:`Wavefront.run <repro.gpu.wavefront.Wavefront.run>`
#: dispatches on, one per concrete op class.  ``OP_NONE`` (the base
#: class's) is not executable.
(
    OP_NONE,
    OP_BARRIER,
    OP_ATOMIC,
    OP_DO,
    OP_COMPUTE,
    OP_MEM_READ,
    OP_MEM_WRITE,
    OP_SLEEP,
    OP_WAIT_ALL,
    OP_LDS_READ,
    OP_LDS_WRITE,
    OP_L1_FLUSH,
    OP_POLL_SLEEP,
) = range(13)


class Op:
    """Base class for all work-item operations."""

    __slots__ = ()

    opcode = OP_NONE


class Compute(Op):
    """ALU work of ``cycles`` GPU cycles (lockstep across the wavefront)."""

    __slots__ = ("cycles",)
    opcode = OP_COMPUTE

    def __init__(self, cycles: float):
        if cycles < 0:
            raise ValueError(f"negative cycles: {cycles}")
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"Compute({self.cycles})"


class MemRead(Op):
    """Read ``size`` bytes at ``addr`` through L1/L2/DRAM."""

    __slots__ = ("addr", "size")
    opcode = OP_MEM_READ

    def __init__(self, addr: int, size: int):
        if size < 0:
            raise ValueError(f"negative size: {size}")
        self.addr = addr
        self.size = size

    def __repr__(self) -> str:
        return f"MemRead(0x{self.addr:x}, {self.size})"


class MemWrite(Op):
    """Write ``size`` bytes at ``addr`` (write-through to L2)."""

    __slots__ = ("addr", "size")
    opcode = OP_MEM_WRITE

    def __init__(self, addr: int, size: int):
        if size < 0:
            raise ValueError(f"negative size: {size}")
        self.addr = addr
        self.size = size

    def __repr__(self) -> str:
        return f"MemWrite(0x{self.addr:x}, {self.size})"


class Atomic(Op):
    """One atomic memory operation (Table IV kinds), L1-bypassing."""

    __slots__ = ("kind", "addr")
    opcode = OP_ATOMIC

    def __init__(self, kind: str, addr: int):
        self.kind = kind
        self.addr = addr

    def __repr__(self) -> str:
        return f"Atomic({self.kind!r}, 0x{self.addr:x})"


class Barrier(Op):
    """Work-group scope barrier: every live work-item must arrive."""

    __slots__ = ()
    opcode = OP_BARRIER

    def __repr__(self) -> str:
        return "Barrier()"


class Sleep(Op):
    """Raw delay in nanoseconds (models fixed-latency instructions)."""

    __slots__ = ("duration",)
    opcode = OP_SLEEP

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError(f"negative sleep: {duration}")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Sleep({self.duration})"


class PollSleep(Sleep):
    """The sleep between two completion polls of one syscall slot.

    The device API's ``WaitMode.POLL`` loop yields it in a fixed cycle:
    an ``atomic-load`` of the slot's line, a read of ``slot.state``, and
    this sleep, until the state is ``done``.  A lane yielding it is
    promising that cycle, which lets a wavefront whose only runnable
    lane it is run the rounds as engine callbacks (see
    :class:`~repro.gpu.wavefront.Wavefront`) while charging each one.
    Anywhere else it sleeps like :class:`Sleep`.
    """

    __slots__ = ("slot", "line", "done")
    opcode = OP_POLL_SLEEP

    def __init__(self, duration: float, slot: Any, line: int, done: Any):
        super().__init__(duration)
        self.slot = slot
        self.line = line
        self.done = done

    def __repr__(self) -> str:
        return f"PollSleep({self.duration}, line={self.line})"


class Do(Op):
    """Run a zero-time functional action at this point in simulated time.

    Used by the device API for state transitions that must happen at the
    correct instant (e.g. raising the CPU interrupt after the slot has
    been populated).  The callable's return value becomes the value of
    the ``yield`` expression in the work-item body.
    """

    __slots__ = ("action",)
    opcode = OP_DO

    def __init__(self, action: Callable[[], Any]):
        self.action = action

    def __repr__(self) -> str:
        return f"Do({getattr(self.action, '__name__', 'fn')})"


class WaitAll(Op):
    """Halt the wavefront until every given event has triggered.

    Models the s_halt / wake path: the wavefront stops issuing (no memory
    traffic while waiting) and pays the halt-resume latency once woken.
    """

    __slots__ = ("events",)
    opcode = OP_WAIT_ALL

    def __init__(self, events: Sequence[Event]):
        self.events = list(events)

    def __repr__(self) -> str:
        return f"WaitAll({len(self.events)} events)"


class LdsRead(Op):
    """Read from the work-group's local data share (LDS/scratchpad).

    Addresses are work-group-local byte offsets.  Lanes that hit the
    same bank in one lockstep step serialise (bank conflicts); lanes
    reading the *same address* broadcast at no extra cost, as on GCN.
    """

    __slots__ = ("addr", "size")
    opcode = OP_LDS_READ

    def __init__(self, addr: int, size: int = 4):
        if addr < 0 or size < 0:
            raise ValueError("negative LDS access")
        self.addr = addr
        self.size = size

    def __repr__(self) -> str:
        return f"LdsRead(0x{self.addr:x}, {self.size})"


class LdsWrite(Op):
    """Write to the work-group's local data share (same conflict rules
    as :class:`LdsRead`, without the broadcast exemption)."""

    __slots__ = ("addr", "size")
    opcode = OP_LDS_WRITE

    def __init__(self, addr: int, size: int = 4):
        if addr < 0 or size < 0:
            raise ValueError("negative LDS access")
        self.addr = addr
        self.size = size

    def __repr__(self) -> str:
        return f"LdsWrite(0x{self.addr:x}, {self.size})"


class L1Flush(Op):
    """Software-coherence flush of a byte range from this CU's L1.

    GENESYS performs this before producer syscalls whose buffers the CPU
    will read (Section VI: "we preceded sys_write system calls with L1
    data cache flush").
    """

    __slots__ = ("addr", "size")
    opcode = OP_L1_FLUSH

    def __init__(self, addr: int, size: int):
        if size < 0:
            raise ValueError(f"negative size: {size}")
        self.addr = addr
        self.size = size

    def __repr__(self) -> str:
        return f"L1Flush(0x{self.addr:x}, {self.size})"
