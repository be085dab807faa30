"""Figure 10: implications of system-call coalescing."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.coalescing import CoalescingConfig
from repro.experiments import ExperimentResult
from repro.machine import MachineConfig
from repro.system import System

NAME = "fig10"
TITLE = "Figure 10: interrupt coalescing"

NUM_WORKITEMS = 64
READ_SIZES = (64, 1024, 16384, 65536)
COALESCE = CoalescingConfig(window_ns=10_000, max_batch=8)


def latency_per_byte(read_bytes: int, coalescing: Optional[CoalescingConfig]) -> float:
    """ns per requested byte for 64 concurrent preads, each from its own
    wavefront (so each is its own interrupt + task when uncoalesced)."""
    system = System(config=MachineConfig(), coalescing=coalescing)
    total = read_bytes * NUM_WORKITEMS
    system.kernel.fs.create_file("/tmp/data", b"\xcd" * total)
    bufs = [system.memsystem.alloc_buffer(read_bytes) for _ in range(NUM_WORKITEMS)]

    def host_open():
        fd = yield from system.kernel.call(system.host, "open", "/tmp/data")
        return fd

    fd = system.sim.run_process(host_open())

    def kern(ctx):
        yield from ctx.sys.pread(
            fd, bufs[ctx.group_id], read_bytes, read_bytes * ctx.group_id
        )

    elapsed = system.run_kernel(kern, NUM_WORKITEMS, 1, name="fig10")
    return elapsed / read_bytes


def run_sweep() -> Dict[int, Dict[str, float]]:
    out: Dict[int, Dict[str, float]] = {}
    for size in READ_SIZES:
        out[size] = {
            "none": latency_per_byte(size, None),
            "coalesce8": latency_per_byte(size, COALESCE),
        }
    return out


def run() -> ExperimentResult:
    results = run_sweep()
    experiment = ExperimentResult(NAME)
    experiment.add_table(
        "Figure 10: latency per requested byte (ns/B)",
        ["bytes/call", "no coalescing", "coalesce<=8", "benefit"],
        [
            (
                size,
                f"{results[size]['none']:.1f}",
                f"{results[size]['coalesce8']:.1f}",
                f"{100 * (results[size]['none'] / results[size]['coalesce8'] - 1):+.1f}%",
            )
            for size in READ_SIZES
        ],
    )
    experiment.data = results
    return experiment
