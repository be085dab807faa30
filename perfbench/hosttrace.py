"""Per-layer host-time attribution, installed from outside the simulator.

:class:`HostTracer` replaces public entry points of each ``repro``
layer (class attributes and module functions) with timing wrappers and
puts the originals back on :meth:`HostTracer.uninstall`.  Nothing in
``src/`` knows it is being measured.

Every wrapped call or generator resume is a *span* of one layer.  A
span's self time is its duration minus the spans nested inside it, so
the self times of all layers add up to the host time spent under the
outermost spans, with no interval counted twice.

Generator entry points (``MemorySystem.gpu_load``, ``Wavefront.run``,
``DeviceApi.invoke``, ``LinuxKernel.execute``, ``Network.sendto`` ...)
return a :class:`TimedGenerator` proxy that times each resume and
forwards ``send``, ``throw`` and ``close``; timing only the call would
measure generator creation.  Processes spawned through
``Simulator.process``, work-item bodies and ``call_later`` callbacks are
attributed to the layer whose module defines them.

The runners (``experiments.run``, ``serving.sweep.run_point_on``) and
the observer planes' attach and audit calls (``GSanPlan``,
``MetricsHubPlan``, ``SpanTracer.install``) are wrapped as well, so the
benchmark's workloads call the public API unchanged; they must look
those names up at call time, not bind them at import.

Install the tracer before the traced run builds any ``System``: some
objects (``DeviceApi``'s cached slot ops) keep bound references taken
at construction time.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer; the first match wins, so sub-packages come
#: before their parents.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.snapshot", "snapshot"),
    ("repro.sim", "sim"),
    ("repro.memory", "memory"),
    ("repro.gpu", "gpu"),
    ("repro.core", "core"),
    ("repro.oskernel", "oskernel"),
    ("repro.workloads", "workloads"),
    ("repro.experiments", "experiments"),
    ("repro.serving", "serving"),
    ("repro.probes", "probes"),
    ("repro.sanitizers", "sanitizers"),
    ("repro.metrics", "metrics"),
    ("repro.tracing", "tracing"),
    ("repro.system", "system"),
)

LAYERS: Tuple[str, ...] = tuple(layer for _prefix, layer in LAYER_PREFIXES)

#: Work counters the wrappers keep, by metric name.
COUNTERS: Tuple[str, ...] = (
    "sim.events",
    "gpu.lane_ops",
    "memory.gpu_accesses",
    "memory.cache_lookups",
    "core.invocations",
    "oskernel.syscalls",
    "probes.fires",
)

#: Entry points whose inclusive (not self) time is reported.
INCLUSIVE: Tuple[str, ...] = ("snapshot.restore", "snapshot.checkpoint")


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer owning ``module``, or None for code outside ``repro``."""
    if not module:
        return None
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def layer_of_callable(fn: Any) -> Optional[str]:
    module = getattr(fn, "__module__", None)
    if module is None:
        module = type(fn).__module__
    return layer_of_module(module)


def layer_of_generator(gen: Any) -> Optional[str]:
    frame = getattr(gen, "gi_frame", None)
    if frame is None:
        return None
    return layer_of_module(frame.f_globals.get("__name__"))


class TimedGenerator:
    """Generator proxy timing each resume as a span of ``layer``.

    ``yield from`` and the simulator drive it exactly like the wrapped
    generator: ``send``/``throw``/``close`` are forwarded, and a return
    value leaves through the same ``StopIteration``.
    """

    def __init__(self, tracer: "HostTracer", gen: Any, layer: str) -> None:
        self._gen = gen
        self._layer = layer
        self._tracer = tracer
        #: ``Process`` names an unnamed process after its generator.
        self.__name__ = getattr(gen, "__name__", "process")

    def __iter__(self) -> "TimedGenerator":
        return self

    def __next__(self) -> Any:
        return self._tracer.span(self._layer, self._gen.send, None)

    def send(self, value: Any) -> Any:
        return self._tracer.span(self._layer, self._gen.send, value)

    def throw(self, *args: Any) -> Any:
        return self._tracer.span(self._layer, self._gen.throw, *args)

    def close(self) -> None:
        return self._tracer.span(self._layer, self._gen.close)


class TimedObserver:
    """Tracepoint observer wrapper timing each delivery.

    Compares equal to the observer it wraps, so ``Tracepoint.detach``
    with the original object still finds and removes it.
    """

    __slots__ = ("fn", "layer", "tracer")

    def __init__(self, tracer: "HostTracer", fn: Callable, layer: str) -> None:
        self.fn = fn
        self.layer = layer
        self.tracer = tracer

    def __call__(self, *values: Any) -> None:
        self.tracer.span(self.layer, self.fn, *values)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, TimedObserver):
            other = other.fn
        return self.fn == other

    def __hash__(self) -> int:
        return hash(self.fn)


class HostTracer:
    """Self time per layer plus work counters, for one traced run.

    ``clock`` returns integer nanoseconds; tests substitute a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.inclusive_ns: Dict[str, int] = dict.fromkeys(INCLUSIVE, 0)
        #: Child time accumulated by each open span, innermost last.
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._running_sims: set = set()

    # -- accounting ------------------------------------------------------

    def reset(self) -> None:
        """Zero every total (between set-up and the measured pass)."""
        for table in (self.self_ns, self.counts, self.inclusive_ns):
            for key in table:
                table[key] = 0

    def span(self, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` as one span of ``layer``."""
        stack = self._stack
        stack.append(0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            self.self_ns[layer] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed

    def self_s(self, layer: str) -> float:
        return self.self_ns[layer] / 1e9

    # -- wrapper factories ----------------------------------------------

    def timed_call(
        self,
        fn: Callable,
        layer: str,
        counter: Optional[str] = None,
        inclusive: Optional[str] = None,
    ) -> Callable:
        """``fn`` timed as a span; optionally counted and its inclusive
        time kept under ``inclusive``."""
        tracer = self
        counts = self.counts
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if counter is not None:
                counts[counter] += 1
            if inclusive is None:
                return tracer.span(layer, fn, *args, **kwargs)
            start = clock()
            try:
                return tracer.span(layer, fn, *args, **kwargs)
            finally:
                tracer.inclusive_ns[inclusive] += clock() - start

        return wrapper

    def timed_generator_fn(
        self, fn: Callable, layer: str, counter: Optional[str] = None
    ) -> Callable:
        """``fn`` returning a generator: count the call and return a
        :class:`TimedGenerator` over the result."""
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if counter is not None:
                counts[counter] += 1
            return TimedGenerator(tracer, fn(*args, **kwargs), layer)

        return wrapper

    def wrap_generator(self, gen: Any) -> Any:
        """Proxy ``gen`` under the layer of its defining module; leave
        simulator-internal and foreign generators (and proxies) alone."""
        if isinstance(gen, TimedGenerator):
            return gen
        layer = layer_of_generator(gen)
        if layer is None or layer == "sim":
            return gen
        return TimedGenerator(self, gen, layer)

    def wrap_callback(self, fn: Callable) -> Callable:
        layer = layer_of_callable(fn)
        if layer is None or layer == "sim":
            return fn
        tracer = self

        def callback() -> Any:
            return tracer.span(layer, fn)

        return callback

    # -- installation ----------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _wrap_method(self, owner: Any, name: str, layer: str, **kw: Any) -> None:
        self._patch(owner, name, self.timed_call(owner.__dict__[name], layer, **kw))

    def _wrap_generator_method(self, owner: Any, name: str, layer: str, **kw: Any) -> None:
        self._patch(
            owner, name, self.timed_generator_fn(owner.__dict__[name], layer, **kw)
        )

    def install(self) -> "HostTracer":
        """Wrap the entry points of every layer.  Returns self."""
        if self._patches:
            raise RuntimeError("HostTracer is already installed")
        from repro import experiments
        from repro.core.device_api import DeviceApi
        from repro.gpu.device import Gpu
        from repro.gpu.wavefront import Wavefront
        from repro.memory.cache import Cache
        from repro.memory.system import MemorySystem
        from repro.oskernel.linux import LinuxKernel
        from repro.oskernel.net import Network
        from repro.metrics.hub import MetricsHubPlan
        from repro.probes.tracepoints import Tracepoint
        from repro.sanitizers.gsan import GSanPlan
        from repro.sim import snapshot
        from repro.sim.engine import Simulator
        from repro.system import System
        from repro.tracing.spans import SpanTracer

        try:
            self._install_sim(Simulator)
            for name in ("gpu_load", "gpu_store", "gpu_atomic"):
                self._wrap_generator_method(
                    MemorySystem, name, "memory", counter="memory.gpu_accesses"
                )
            for name in ("gpu_load_uncached", "gpu_l1_flush_range", "cpu_stream_access"):
                self._wrap_generator_method(MemorySystem, name, "memory")
            self._wrap_method(Cache, "access", "memory", counter="memory.cache_lookups")
            self._install_gpu(Gpu)
            self._wrap_generator_method(Wavefront, "run", "gpu")
            self._wrap_generator_method(
                DeviceApi, "invoke", "core", counter="core.invocations"
            )
            self._wrap_generator_method(
                LinuxKernel, "execute", "oskernel", counter="oskernel.syscalls"
            )
            self._wrap_generator_method(LinuxKernel, "call", "oskernel")
            self._wrap_generator_method(Network, "sendto", "oskernel")
            self._wrap_generator_method(Network, "recvfrom", "oskernel")
            self._wrap_method(System, "__init__", "system")
            self._wrap_method(snapshot, "load", "snapshot", inclusive="snapshot.restore")
            self._wrap_method(snapshot, "save", "snapshot", inclusive="snapshot.checkpoint")
            self._install_probes(Tracepoint)
            # Runners and observer planes: the code that calls into the
            # layers above, and the observers' attach and audit cost.
            self._wrap_method(experiments, "run", "experiments")
            # ``repro.serving.sweep`` the module, which the package's
            # re-exported ``sweep`` function shadows.
            sweep_module = importlib.import_module("repro.serving.sweep")
            self._wrap_method(sweep_module, "run_point_on", "serving")
            self._wrap_method(GSanPlan, "__call__", "sanitizers")
            self._wrap_method(GSanPlan, "finish", "sanitizers")
            self._wrap_method(MetricsHubPlan, "__call__", "metrics")
            self._wrap_method(SpanTracer, "install", "tracing")
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_sim(self, simulator: Any) -> None:
        tracer = self
        running = self._running_sims
        counts = self.counts
        timed_run = self.timed_call(simulator.__dict__["run"], "sim")

        def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            # Heap entries scheduled while the outermost run() of this
            # simulator executes: the engine's own sequence counter.
            if id(sim) in running:
                return timed_run(sim, *args, **kwargs)
            running.add(id(sim))
            first = sim._seq
            try:
                return timed_run(sim, *args, **kwargs)
            finally:
                running.discard(id(sim))
                counts["sim.events"] += sim._seq - first

        original_process = simulator.__dict__["process"]

        def process(sim: Any, generator: Any, *args: Any, **kwargs: Any) -> Any:
            return original_process(sim, tracer.wrap_generator(generator), *args, **kwargs)

        def with_timed_callback(original: Callable) -> Callable:
            def schedule(sim: Any, when: float, fn: Callable, *args: Any, **kwargs: Any) -> Any:
                return original(sim, when, tracer.wrap_callback(fn), *args, **kwargs)

            return schedule

        self._patch(simulator, "run", run)
        self._patch(simulator, "process", process)
        for name in ("call_later", "call_at"):
            self._patch(simulator, name, with_timed_callback(simulator.__dict__[name]))

    def _install_gpu(self, gpu_cls: Any) -> None:
        tracer = self
        counts = self.counts
        original_start = gpu_cls.__dict__["start_work_item"]
        timed_start = self.timed_call(original_start, "gpu")

        def start_work_item(gpu: Any, ctx: Any, wavefront: Any) -> Any:
            # The work-item body belongs to whoever wrote the kernel
            # (workloads, experiments, serving).
            return tracer.wrap_generator(timed_start(gpu, ctx, wavefront))

        timed_finished = self.timed_call(gpu_cls.__dict__["wavefront_finished"], "gpu")

        def wavefront_finished(gpu: Any, wavefront: Any) -> None:
            counts["gpu.lane_ops"] += wavefront.lane_ops
            timed_finished(gpu, wavefront)

        self._patch(gpu_cls, "start_work_item", start_work_item)
        self._patch(gpu_cls, "wavefront_finished", wavefront_finished)

    def _install_probes(self, tracepoint_cls: Any) -> None:
        tracer = self
        self._wrap_method(tracepoint_cls, "fire", "probes", counter="probes.fires")
        original_attach = tracepoint_cls.__dict__["attach"]

        def attach(tp: Any, observer: Callable) -> Callable:
            layer = layer_of_callable(observer)
            if layer is not None and callable(observer):
                original_attach(tp, TimedObserver(tracer, observer, layer))
                return observer
            return original_attach(tp, observer)

        self._patch(tracepoint_cls, "attach", attach)

    def uninstall(self) -> None:
        """Put every original entry point back (idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
