"""Chaos harness: run workloads under seeded fault plans and check
that the recovery machinery holds the stack's liveness and safety
invariants.

Each experiment gets a *profile* — the fault classes it can survive by
construction.  grep and the Figure-2 walkthrough tolerate every class
(their kernels treat any non-positive syscall result as EOF), so their
profiles throw the whole taxonomy at them.  The memcached GET server's
closed-loop clients have no application-level retransmit, so its
profile sticks to faults the stack itself recovers (lost doorbells,
stalled workers, transient errnos, delayed datagrams); datagram loss
and duplication are exercised by the ``udp-echo`` scenario, whose
client implements the classic retransmit-with-dedup loop on top of the
faulty network.

Invariants checked after every run (:func:`check_invariants`):

* **definite status** — every issued invocation either completed or was
  reclaimed with ``-ETIMEDOUT``; nothing is left outstanding,
* **no slot leaks** — every materialized syscall-area slot is FREE,
* **no duplicate or lost completions** — ``issued ==
  syscalls_completed + slots_reclaimed`` exactly,
* **drained queues** — the workqueue has no backlog or in-flight tasks,
* **bounded drain** — once the scenario's kernel has returned, the
  drain of outstanding syscalls finishes within a simulated-time
  deadline (``System.drain_timeout_ns``, which bounds only
  ``Genesys.drain`` after the kernel, not the kernel itself; a wedge
  the watchdog cannot clear there surfaces as ``DrainTimeout``, not a
  hang).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.core.syscall_area import SlotState
from repro.gpu.hierarchy import WorkItemCtx
from repro.probes.tracepoints import ProbeRegistry
from repro.faults.plan import FaultInjector, FaultPlan, install_plan
from repro.oskernel.workqueue import DrainTimeout
from repro.system import System

#: Deadline for the post-kernel drain of chaos runs, in simulated ns
#: (``System.drain_timeout_ns``).  Generous: the faulted workloads
#: finish in a few hundred microseconds; a drain that needs two
#: simulated seconds is wedged.
DEFAULT_DRAIN_TIMEOUT_NS = 2_000_000_000.0

ECHO_PORT = 7777

PROFILES: Dict[str, FaultPlan] = {
    # Figure-2 style open/pread/close walkthrough: error-tolerant kernel,
    # every fault class enabled.
    "fig2": FaultPlan(
        irq_drop=0.15,
        irq_delay=0.15,
        worker_stall=0.15,
        worker_kill=0.05,
        slot_wedge=0.05,
        slot_corrupt=0.05,
        errno_rate=0.15,
        watchdog_period_ns=50_000.0,
        slot_timeout_ns=400_000.0,
        worker_timeout_ns=150_000.0,
    ),
    # grep (Section VIII-B): filesystem-heavy, kernels treat n<=0 as EOF.
    "grep": FaultPlan(
        irq_drop=0.10,
        irq_delay=0.15,
        worker_stall=0.10,
        worker_kill=0.03,
        slot_wedge=0.03,
        slot_corrupt=0.05,
        errno_rate=0.10,
        watchdog_period_ns=50_000.0,
        slot_timeout_ns=500_000.0,
        worker_timeout_ns=200_000.0,
    ),
    # memcached (Section VIII-D): closed-loop clients, so only faults the
    # stack itself absorbs.  slot_timeout is disabled because a blocking
    # recvfrom legitimately holds its slot in PROCESSING until a request
    # arrives — reclaiming it would invent a timeout the protocol never
    # had.
    "memcached": FaultPlan(
        irq_drop=0.08,
        irq_delay=0.15,
        worker_stall=0.10,
        errno_rate=0.08,
        net_delay=0.20,
        watchdog_period_ns=50_000.0,
        slot_timeout_ns=0.0,
        worker_timeout_ns=200_000.0,
    ),
    # Datagram loss/duplication with an application-level retransmit
    # loop: the fault classes memcached's profile must exclude.
    "udp-echo": FaultPlan(
        net_drop=0.20,
        net_dup=0.10,
        net_delay=0.20,
        watchdog_period_ns=0.0,
    ),
    # The serving harness (repro.serving) at moderate open-loop load:
    # lost doorbells and killed workqueue workers while a GPU memcached
    # kernel serves a timed request stream.  Open-loop clients already
    # classify late/lost replies, so the invariants here are liveness
    # (the run drains) and safety (no corrupted reply values) — not
    # completion.  slot_timeout is disabled for the same reason as the
    # memcached profile: a blocking recvfrom legitimately parks its
    # slot in PROCESSING while waiting for a request.
    "serving": FaultPlan(
        irq_drop=0.10,
        worker_kill=0.05,
        watchdog_period_ns=50_000.0,
        slot_timeout_ns=0.0,
        worker_timeout_ns=150_000.0,
    ),
    # Overload control under fire: the serving scenario pushed past its
    # knee (open-loop overload) with a QoS plan installed, while
    # doorbells drop and workqueue workers die.  Exercises sojourn
    # head-drop, fast-fail reject frames, and the brownout controller
    # alongside the watchdog recovery paths.  slot_timeout stays
    # disabled (parked blocking recvfrom), so invariants are liveness,
    # reply integrity, and the shed-aware completion accounting.
    "qos": FaultPlan(
        irq_drop=0.10,
        worker_kill=0.05,
        watchdog_period_ns=50_000.0,
        slot_timeout_ns=0.0,
        worker_timeout_ns=150_000.0,
    ),
}

EXPERIMENTS = tuple(PROFILES)


@dataclass
class ChaosReport:
    experiment: str
    seed: int
    ok: bool
    elapsed_ns: float
    violations: List[str]
    injected: int
    by_action: Dict[str, int]
    recovery: Dict[str, int]
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "ok": self.ok,
            "elapsed_ns": self.elapsed_ns,
            "violations": list(self.violations),
            "injected": self.injected,
            "by_action": dict(self.by_action),
            "recovery": dict(self.recovery),
            "detail": dict(self.detail),
        }


def check_invariants(system: System) -> List[str]:
    """Safety/liveness invariants that must hold once a run drains.
    Returns a list of human-readable violations (empty == clean)."""
    violations: List[str] = []
    genesys = system.genesys
    workqueue = system.kernel.workqueue
    if genesys.outstanding != 0:
        violations.append(
            f"{genesys.outstanding} invocation(s) still outstanding after drain"
        )
    if workqueue.outstanding != 0:
        violations.append(
            f"workqueue still has {workqueue.outstanding} in-flight task(s)"
        )
    if workqueue.backlog != 0:
        violations.append(f"workqueue backlog is {workqueue.backlog}, want 0")
    leaked = [
        slot.index
        for slot in genesys.area.materialized()
        if slot.state is not SlotState.FREE
    ]
    if leaked:
        violations.append(f"slot leak: slots {leaked} not FREE after drain")
    issued = sum(genesys.invocation_counts.values())
    settled = (
        genesys.syscalls_completed
        + genesys.slots_reclaimed
        + genesys.syscalls_shed
    )
    if issued != settled:
        violations.append(
            f"completion accounting broken: issued={issued} but "
            f"completed={genesys.syscalls_completed} + "
            f"reclaimed={genesys.slots_reclaimed} + "
            f"shed={genesys.syscalls_shed} = {settled} "
            "(duplicate or lost completion)"
        )
    return violations


def recovery_stats(system: System) -> Dict[str, int]:
    genesys = system.genesys
    workqueue = system.kernel.workqueue
    return {
        "syscall_retries": genesys.syscall_retries,
        "slots_reclaimed": genesys.slots_reclaimed,
        "syscalls_shed": genesys.syscalls_shed,
        "degraded_rescans": genesys.degraded,
        "watchdog_ticks": genesys.watchdog_ticks,
        "slot_protocol_errors": genesys.area.protocol_errors,
        "tasks_requeued": workqueue.tasks_requeued,
        "workers_respawned": workqueue.workers_respawned,
        "worker_forfeits": workqueue.forfeits,
    }


# -- scenarios ----------------------------------------------------------------


def _run_fig2(system: System) -> Dict[str, object]:
    """Figure-2 walkthrough widened to 16 work-items so the fault plan
    has a population to sample from: open -> pread -> close per item."""
    fs = system.kernel.fs
    if not fs.exists("/tmp/chaos"):
        fs.mkdir("/tmp/chaos")
    n_items = 16
    file_bytes = 4096
    for i in range(n_items):
        fs.create_file(f"/tmp/chaos/f{i:02d}", bytes([0x40 + i % 26]) * file_bytes)
    bufs = [system.memsystem.alloc_buffer(file_bytes) for _ in range(n_items)]
    reads: Dict[int, int] = {}

    def kern(ctx: WorkItemCtx) -> Generator:
        idx = ctx.global_id
        fd = yield from ctx.sys.open(f"/tmp/chaos/f{idx:02d}")
        if fd >= 0:
            n = yield from ctx.sys.pread(fd, bufs[idx], file_bytes, 0)
            reads[idx] = n
            yield from ctx.sys.close(fd)
        else:
            reads[idx] = fd

    system.run_kernel(kern, n_items, 8, name="fig2-chaos")
    good = sum(1 for n in reads.values() if n == file_bytes)
    return {"items": n_items, "full_reads": good}


def _run_grep(system: System) -> Dict[str, object]:
    from repro.workloads.grepwl import GrepWorkload

    workload = GrepWorkload(
        system, num_files=12, file_bytes=8192, num_words=8, chunk_bytes=4096
    )
    result = workload.run_genesys()
    found = result.metrics["files_matched"]
    expected = set(workload.expected_matches)
    false_hits = [path for path in found if path not in expected]
    detail: Dict[str, object] = {
        "files": 12,
        "matched": len(found),
        "expected": len(expected),
    }
    # Safety: faults may lose matches (a corrupted read looks like EOF)
    # but must never invent one.
    if false_hits:
        detail["false_matches"] = false_hits
    return detail


def _run_memcached(system: System) -> Dict[str, object]:
    from repro.workloads.memcachedwl import MemcachedWorkload

    workload = MemcachedWorkload(
        system, num_requests=24, concurrency=4, value_bytes=256
    )
    result = workload.run_genesys(num_workgroups=4, workgroup_size=16)
    return {
        "requests": 24,
        "replies": len(result.metrics["replies"]),
        "mean_latency_ns": round(result.metrics["mean_latency_ns"], 1),
    }


def _run_udp_echo(system: System) -> Dict[str, object]:
    """Lossy-network scenario: the client retransmits sequence-numbered
    pings until the matching pong arrives, deduplicating replies — the
    recovery pattern datagram drop/dup faults demand from applications."""
    net = system.kernel.net
    sim = system.sim
    server_sock = net.socket()
    net.bind(server_sock, ECHO_PORT)
    client_sock = net.socket()
    n_pings = 24
    retransmit_after_ns = 30_000.0
    stats = {"sends": 0, "dup_replies": 0}
    acked: set = set()

    def server() -> Generator:
        while True:
            datagram = yield server_sock.queue.get()
            yield from net.sendto(
                server_sock, datagram.payload, datagram.source
            )

    def client() -> Generator:
        from repro.sim.engine import AnyOf

        for seq in range(n_pings):
            payload = b"PING %04d" % seq
            while seq not in acked:
                yield from net.sendto(
                    client_sock, payload, ("localhost", ECHO_PORT)
                )
                stats["sends"] += 1
                deadline = sim.now + retransmit_after_ns
                while seq not in acked and sim.now < deadline:
                    if len(client_sock.queue) == 0:
                        yield AnyOf(
                            [
                                client_sock.queue.when_nonempty(),
                                sim.wake_at(deadline, name="echo-rto"),
                            ]
                        )
                    if len(client_sock.queue):
                        reply = yield client_sock.queue.get()
                        got = int(reply.payload.split()[1])
                        if got in acked:
                            stats["dup_replies"] += 1
                        acked.add(got)
        net.close(client_sock)

    sim.process(server(), name="echo-server")
    sim.run_process(client(), name="echo-client")
    net.close(server_sock)
    if len(acked) != n_pings:
        raise AssertionError(
            f"echo client finished with {len(acked)}/{n_pings} acks"
        )
    return {
        "pings": n_pings,
        "sends": stats["sends"],
        "retransmits": stats["sends"] - n_pings,
        "dup_replies": stats["dup_replies"],
    }


def _run_serving(system: System) -> Dict[str, object]:
    """The serving harness riding a faulty machine: one fixed-RPS
    open-loop point against the GPU memcached server.  Every completed
    reply's value bytes are checked against the table — a fault may
    delay or lose a reply (the lifecycle absorbs that) but must never
    corrupt one."""
    from repro.serving.sweep import (
        ServingConfig,
        build_target,
        memcached_reply_check,
        run_point_on,
    )

    config = ServingConfig(
        num_clients=32,
        warmup_ns=100_000.0,
        measure_ns=300_000.0,
        timeout_ns=400_000.0,
        elems_per_bucket=64,
        value_bytes=256,
        num_workgroups=4,
        workgroup_size=16,
    )
    _system, workload = build_target(config, system=system)
    point = run_point_on(
        system, workload, config, rps=100_000,
        check_reply=memcached_reply_check(workload),
    )
    lifecycle = point["lifecycle"]
    if lifecycle["bad_replies"]:
        raise AssertionError(
            f"{lifecycle['bad_replies']} corrupted reply value(s) reached a client"
        )
    return {
        "rps": 100_000,
        "sent": lifecycle["sent"],
        "completed": lifecycle["completed"],
        "late": lifecycle["late"],
        "timeout": lifecycle["timeout"],
        "served": point["served"],
    }


def _run_qos(system: System) -> Dict[str, object]:
    """Overload + faults + QoS: the serving scenario at ~2x its knee
    with the default overload-control plan installed.  The plan must
    keep the run live (sojourn policing sheds the stale backlog) and —
    as in every serving scenario — no completed reply may be corrupt."""
    from repro.serving.sweep import (
        ServingConfig,
        build_target,
        default_overload_plan,
        memcached_reply_check,
        run_point_on,
    )

    config = ServingConfig(
        num_clients=32,
        warmup_ns=100_000.0,
        measure_ns=300_000.0,
        timeout_ns=400_000.0,
        elems_per_bucket=64,
        value_bytes=256,
        num_workgroups=4,
        workgroup_size=16,
    )
    _system, workload = build_target(config, system=system)
    from repro.qos import install_qos_plan

    controller = install_qos_plan(default_overload_plan(config), system)
    point = run_point_on(
        system, workload, config, rps=220_000,
        check_reply=memcached_reply_check(workload),
    )
    lifecycle = point["lifecycle"]
    if lifecycle["bad_replies"]:
        raise AssertionError(
            f"{lifecycle['bad_replies']} corrupted reply value(s) reached a client"
        )
    return {
        "rps": 220_000,
        "sent": lifecycle["sent"],
        "completed": lifecycle["completed"],
        "late": lifecycle["late"],
        "timeout": lifecycle["timeout"],
        "rejected": lifecycle["rejected"],
        "served": point["served"],
        "qos": controller.summary(),
    }


_SCENARIOS = {
    "fig2": _run_fig2,
    "grep": _run_grep,
    "memcached": _run_memcached,
    "udp-echo": _run_udp_echo,
    "serving": _run_serving,
    "qos": _run_qos,
}

#: Tracepoints that make up the fault/recovery event stream (prefix
#: match plus the two named singles).
FAULT_STREAM_PREFIXES = ("fault.", "recover.")
FAULT_STREAM_NAMES = ("slot.protocol_error", "syscall.retry")


def record_fault_stream(registry: ProbeRegistry) -> List[tuple]:
    """Attach observers that append ``(t_ns, tracepoint, args)`` for
    every fault/recovery tracepoint; returns the (live) event list.
    Two runs with the same plan seed must produce equal streams — the
    determinism property ``tests/test_chaos.py`` asserts."""
    events: List[tuple] = []
    for name in registry.tracepoints:
        if name.startswith(FAULT_STREAM_PREFIXES) or name in FAULT_STREAM_NAMES:

            def observer(*args: object, _name: str = name) -> None:
                events.append((registry.now(), _name, args))

            registry.attach(name, observer)
    return events


def run_scenario(experiment: str, system: System) -> Dict[str, object]:
    """Run one chaos scenario body against an already-built ``system``
    (no plan installed, no invariant checks) — the building block for
    tests that need to hold the machine."""
    return _SCENARIOS[experiment](system)


def run_one(
    experiment: str,
    seed: int,
    intensity: float = 1.0,
    drain_timeout_ns: float = DEFAULT_DRAIN_TIMEOUT_NS,
    plan: Optional[FaultPlan] = None,
) -> ChaosReport:
    """Build a fresh machine, attach the experiment's (seeded) fault
    profile, run the scenario, and check every invariant."""
    if experiment not in _SCENARIOS:
        raise ValueError(
            f"unknown chaos experiment {experiment!r}; "
            f"choose from {sorted(_SCENARIOS)}"
        )
    if plan is None:
        plan = PROFILES[experiment].with_seed(seed)
        if intensity != 1.0:
            plan = plan.scaled(intensity)
    system = System()
    system.drain_timeout_ns = drain_timeout_ns
    injector: FaultInjector = install_plan(plan, system.probes)
    start = system.now
    violations: List[str] = []
    detail: Dict[str, object] = {}
    try:
        detail = _SCENARIOS[experiment](system)
    except DrainTimeout as exc:
        violations.append(f"liveness: {exc}")
    except AssertionError as exc:
        violations.append(f"safety: {exc}")
    violations.extend(check_invariants(system))
    if "false_matches" in detail:
        violations.append(f"safety: invented matches {detail['false_matches']}")
    summary = injector.summary()
    return ChaosReport(
        experiment=experiment,
        seed=seed,
        ok=not violations,
        elapsed_ns=system.now - start,
        violations=violations,
        injected=summary["injected"],
        by_action=summary["by_action"],
        recovery=recovery_stats(system),
        detail=detail,
    )

