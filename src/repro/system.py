"""One-stop assembly of the simulated machine.

:class:`System` wires the simulator, memory hierarchy, CPU complex,
Linux substrate, GPU, and the GENESYS runtime together with a host
process, mirroring the paper's Table III platform.  Most examples,
tests, and benchmarks start with::

    system = System()
    ...define a kernel...
    result = system.run_to_completion(main())
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.coalescing import CoalescingConfig
from repro.core.genesys import Genesys
from repro.gpu.device import Gpu, KernelLaunch
from repro.machine import MachineConfig
from repro.memory.system import MemorySystem
from repro.oskernel.cpu import CpuComplex
from repro.oskernel.linux import LinuxKernel
from repro.probes.tracepoints import ProbeRegistry, apply_attached
from repro.sim.engine import Process, Simulator


class System:
    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        coalescing: Optional[CoalescingConfig] = None,
        with_disk: bool = True,
        slot_stride_bytes: int = 64,
    ):
        self.config = config or MachineConfig()
        self.sim = Simulator()
        #: The machine's probe registry: every layer declares its
        #: tracepoints and policy hooks here (see repro.probes).
        self.probes = ProbeRegistry(self.sim)
        self.memsystem = MemorySystem(self.sim, self.config, probes=self.probes)
        self.cpu = CpuComplex(self.sim, self.config)
        self.kernel = LinuxKernel(
            self.sim,
            self.config,
            self.memsystem,
            cpu=self.cpu,
            with_disk=with_disk,
            probes=self.probes,
        )
        self.gpu = Gpu(self.sim, self.config, self.memsystem, probes=self.probes)
        self.host = self.kernel.create_process("host")
        self.genesys = Genesys(
            self.sim,
            self.config,
            self.kernel,
            self.gpu,
            self.memsystem,
            self.host,
            coalescing=coalescing,
            slot_stride_bytes=slot_stride_bytes,
            probes=self.probes,
        )
        #: When set (simulated ns), :meth:`run_to_completion` bounds its
        #: final drain and raises ``DrainTimeout`` instead of hanging —
        #: chaos/fault runs set this so liveness violations are
        #: diagnosable failures, not wedged event loops.
        self.drain_timeout_ns: Optional[float] = None
        # Every hook point now exists: apply the plans of any enclosing
        # ``repro.probes.attached(...)`` scope.
        apply_attached(self.probes)

    # -- checkpoint/restore ---------------------------------------------------

    def checkpoint(self, path: Optional[str] = None, extra: Any = None) -> bytes:
        """Snapshot this (quiescent) machine; see :mod:`repro.sim.snapshot`.

        ``extra`` rides along in the same pickle (e.g. a warmed workload
        object that shares this system's graph) and comes back from
        ``snapshot.load(...).extra``.
        """
        from repro.sim import snapshot

        return snapshot.save(self, path=path, extra=extra)

    @staticmethod
    def restore(source) -> "System":
        """Rebuild a machine from :meth:`checkpoint` output (bytes or a
        path).  For the extras, use ``repro.sim.snapshot.load`` directly."""
        from repro.sim import snapshot

        return snapshot.load(source).system

    def _after_restore(self) -> None:
        """Unpickle fixups: re-park worker loops in their recorded order
        and rebind the dynamic-file closures the snapshot dropped."""
        self.kernel.workqueue.respawn_parked()
        self.kernel.rebind_dynamic_files()
        self.genesys._register_sysfs()

    # -- conveniences ---------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def launch(self, func, global_size: int, workgroup_size: int, args: tuple = (), name: str = "") -> Process:
        return self.gpu.launch(KernelLaunch(func, global_size, workgroup_size, args, name))

    def run_to_completion(self, main: Generator, name: str = "main") -> Any:
        """Run ``main`` as a process, then drain outstanding GPU syscalls."""
        result = self.sim.run_process(main, name=name)
        self.sim.run_process(
            self.genesys.drain(timeout=self.drain_timeout_ns), name="drain"
        )
        return result

    def run_kernel(
        self, func, global_size: int, workgroup_size: int, args: tuple = (), name: str = ""
    ) -> float:
        """Launch one kernel, wait for it and all its syscalls; returns
        the elapsed simulated time in nanoseconds."""
        start = self.sim.now

        def body() -> Generator:
            yield self.launch(func, global_size, workgroup_size, args, name)

        self.run_to_completion(body(), name=f"run:{name or func.__name__}")
        return self.sim.now - start
