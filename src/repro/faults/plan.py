"""Deterministic fault plans and the injector that applies them.

A :class:`FaultPlan` is a declarative description of *what can go
wrong* — per-decision probabilities for each fault class plus the
recovery knobs (watchdog period, slot/worker timeouts) that should be
active while the faults fly.  A :class:`FaultInjector` turns the plan
into policy programs attached to the ``fault.*`` hooks the stack
declares (see ``repro.probes``):

========================  ================================================
hook                      decision
========================  ================================================
``fault.irq``             drop or delay a GPU->CPU doorbell interrupt
``fault.worker``          kill or stall a workqueue worker at task pickup
``fault.slot``            wedge or corrupt a syscall-area slot
``fault.errno``           inject a transient errno instead of executing
``fault.net``             drop, duplicate, or delay a UDP datagram
========================  ================================================

All randomness comes from one :class:`DeterministicRandom` seeded from
``plan.seed`` and consumed in simulated-event order, so a given
(plan, workload) pair replays the exact same fault sequence every run —
the property the determinism tests in ``tests/test_chaos.py`` assert.

The injector also pins the recovery configuration through the
``genesys.watchdog`` / ``genesys.slot_timeout`` / ``genesys.worker_timeout``
policy hooks, so installing a plan both breaks the machine and arms the
machinery that is supposed to survive it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.oskernel.errors import Errno
from repro.probes import policy as policy_mod
from repro.probes.tracepoints import ProbeRegistry
from repro.workloads.base import DeterministicRandom

#: Hooks a FaultInjector may attach to, in the order they are wired.
FAULT_HOOKS = (
    "fault.irq",
    "fault.worker",
    "fault.slot",
    "fault.errno",
    "fault.net",
)

_RATE_FIELDS = (
    "irq_drop",
    "irq_delay",
    "worker_stall",
    "worker_kill",
    "slot_wedge",
    "slot_corrupt",
    "net_drop",
    "net_dup",
    "net_delay",
    "errno_rate",
)

_RANGE_FIELDS = ("irq_delay_ns", "worker_stall_ns", "net_delay_ns")


@dataclass(frozen=True)
class FaultPlan:
    """One seeded description of faults to inject plus recovery knobs.

    Rates are per-decision probabilities in ``[0, 1]``; within one hook
    the alternatives are tried in declaration order (e.g. a doorbell is
    first rolled against ``irq_drop``, then ``irq_delay``), so the sum
    of a hook's rates may not exceed 1.  ``*_ns`` ranges are inclusive
    ``(lo, hi)`` bounds sampled uniformly.
    """

    seed: int = 1
    # -- interrupt path ----------------------------------------------------
    irq_drop: float = 0.0
    irq_delay: float = 0.0
    irq_delay_ns: Tuple[float, float] = (2_000.0, 50_000.0)
    # -- workqueue workers -------------------------------------------------
    worker_stall: float = 0.0
    worker_stall_ns: Tuple[float, float] = (20_000.0, 400_000.0)
    worker_kill: float = 0.0
    # -- syscall-area slots ------------------------------------------------
    slot_wedge: float = 0.0
    slot_corrupt: float = 0.0
    # -- UDP datagrams -----------------------------------------------------
    net_drop: float = 0.0
    net_dup: float = 0.0
    net_delay: float = 0.0
    net_delay_ns: Tuple[float, float] = (1_000.0, 20_000.0)
    # -- transient errnos at dispatch --------------------------------------
    errno_rate: float = 0.0
    errnos: Tuple[int, ...] = (int(Errno.EINTR), int(Errno.EAGAIN))
    # -- global budget -----------------------------------------------------
    max_faults: Optional[int] = None
    # -- recovery knobs installed alongside the faults ---------------------
    watchdog_period_ns: float = 50_000.0
    slot_timeout_ns: float = 2_000_000.0
    worker_timeout_ns: float = 500_000.0
    max_retries: int = 6

    def __post_init__(self) -> None:
        for field in _RATE_FIELDS:
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{field}={rate!r} outside [0, 1]")
        for pair in (
            ("irq_drop", "irq_delay"),
            ("worker_kill", "worker_stall"),
            ("slot_wedge", "slot_corrupt"),
            ("net_drop", "net_dup", "net_delay"),
        ):
            total = sum(getattr(self, field) for field in pair)
            if total > 1.0:
                raise ValueError(f"rates {pair} sum to {total} > 1")
        for field in _RANGE_FIELDS:
            lo, hi = getattr(self, field)
            if lo < 0 or hi < lo:
                raise ValueError(f"{field}={(lo, hi)!r} is not a valid range")
        if not self.errnos and self.errno_rate:
            raise ValueError("errno_rate > 0 with an empty errnos tuple")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    # -- conveniences ------------------------------------------------------

    def with_seed(self, seed: int) -> "FaultPlan":
        return dataclasses.replace(self, seed=seed)

    def scaled(self, factor: float) -> "FaultPlan":
        """Same plan with every rate multiplied by ``factor`` (clamped
        to 1.0) — chaos intensity dial."""
        if factor < 0:
            raise ValueError("factor must be >= 0")
        changes = {
            field: min(1.0, getattr(self, field) * factor)
            for field in _RATE_FIELDS
        }
        return dataclasses.replace(self, **changes)

    def active_classes(self) -> List[str]:
        return [field for field in _RATE_FIELDS if getattr(self, field) > 0.0]

    def as_dict(self) -> dict:
        """A JSON-serialisable description of this plan.

        Round-trips through :meth:`from_dict`; used by
        ``repro.modelcheck`` schedule certificates so a counterexample
        found under a fault plan replays with the *exact* plan embedded
        in the certificate rather than a profile name that may drift.
        """
        doc = dataclasses.asdict(self)
        for field in _RANGE_FIELDS:
            doc[field] = list(doc[field])
        doc["errnos"] = list(doc["errnos"])
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`as_dict` output.

        Unknown keys are rejected so a certificate written by a newer
        schema fails loudly instead of silently dropping a fault class.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {', '.join(unknown)}")
        kwargs = dict(doc)
        for field in _RANGE_FIELDS:
            if field in kwargs:
                lo, hi = kwargs[field]
                kwargs[field] = (float(lo), float(hi))
        if "errnos" in kwargs:
            kwargs["errnos"] = tuple(int(e) for e in kwargs["errnos"])
        return cls(**kwargs)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        parts += [
            f"{field}={getattr(self, field):g}"
            for field in _RATE_FIELDS
            if getattr(self, field) > 0.0
        ]
        if self.max_faults is not None:
            parts.append(f"max_faults={self.max_faults}")
        parts.append(f"watchdog={self.watchdog_period_ns:g}ns")
        return " ".join(parts)


class _WidenRetry:
    """Picklable ``genesys.retry`` program treating the plan's injected
    errnos as transient (see FaultInjector._install)."""

    __slots__ = ("extra", "max_retries")

    def __init__(self, extra: frozenset, max_retries: int) -> None:
        self.extra = extra
        self.max_retries = max_retries

    def __call__(
        self, current: object, name: str, result: object, attempt: int
    ) -> Optional[bool]:
        if current:
            return None
        if (
            isinstance(result, int)
            and result < 0
            and -result in self.extra
            and attempt < self.max_retries
        ):
            return True
        return None


class FaultInjector:
    """Attaches a :class:`FaultPlan` to one machine's probe registry.

    The injector is purely a set of policy programs: the components keep
    their own ``fault.*.injected`` tracepoints and counters, so the
    injector only *decides*; the layer owning the hook *applies* and
    records.  ``injected`` counts decisions that returned a fault,
    ``decisions`` counts every consultation.
    """

    def __init__(self, plan: FaultPlan, registry: ProbeRegistry) -> None:
        self.plan = plan
        self.registry = registry
        self.rng = DeterministicRandom(plan.seed)
        self.decisions = 0
        self.injected = 0
        self.by_action: dict = {}
        self._attached: List[Tuple[str, object]] = []
        self._install()

    # -- bookkeeping -------------------------------------------------------

    def _budget_left(self) -> bool:
        return self.plan.max_faults is None or self.injected < self.plan.max_faults

    def _note(self, action: str) -> None:
        self.injected += 1
        self.by_action[action] = self.by_action.get(action, 0) + 1

    def _uniform_ns(self, bounds: Tuple[float, float]) -> float:
        lo, hi = bounds
        return lo + (hi - lo) * self.rng.random()

    # -- decision programs -------------------------------------------------

    def _irq(self, current: object, payload: object) -> object:
        self.decisions += 1
        if current is not None or not self._budget_left():
            return None
        roll = self.rng.random()
        plan = self.plan
        if roll < plan.irq_drop:
            self._note("irq.drop")
            return "drop"
        if roll < plan.irq_drop + plan.irq_delay:
            self._note("irq.delay")
            return ("delay", self._uniform_ns(plan.irq_delay_ns))
        return None

    def _worker(self, current: object, worker_id: int, task_index: int) -> object:
        self.decisions += 1
        if current is not None or not self._budget_left():
            return None
        roll = self.rng.random()
        plan = self.plan
        if roll < plan.worker_kill:
            self._note("worker.kill")
            return "kill"
        if roll < plan.worker_kill + plan.worker_stall:
            self._note("worker.stall")
            return ("stall", self._uniform_ns(plan.worker_stall_ns))
        return None

    def _slot(self, current: object, hw_id: int, slot_index: int, name: str) -> object:
        self.decisions += 1
        if current is not None or not self._budget_left():
            return None
        roll = self.rng.random()
        plan = self.plan
        if roll < plan.slot_wedge:
            self._note("slot.wedge")
            return "wedge"
        if roll < plan.slot_wedge + plan.slot_corrupt:
            self._note("slot.corrupt")
            return "corrupt"
        return None

    def _errno(self, current: object, name: str, invocation_id: object) -> Optional[int]:
        self.decisions += 1
        if current is not None or not self._budget_left():
            return None
        plan = self.plan
        if self.rng.random() < plan.errno_rate:
            errno = plan.errnos[self.rng.randint(0, len(plan.errnos) - 1)]
            self._note("errno")
            return int(errno)
        return None

    def _net(self, current: object, dest: object, nbytes: int) -> object:
        self.decisions += 1
        if current is not None or not self._budget_left():
            return None
        roll = self.rng.random()
        plan = self.plan
        if roll < plan.net_drop:
            self._note("net.drop")
            return "drop"
        if roll < plan.net_drop + plan.net_dup:
            self._note("net.dup")
            return "dup"
        if roll < plan.net_drop + plan.net_dup + plan.net_delay:
            self._note("net.delay")
            return ("delay", self._uniform_ns(plan.net_delay_ns))
        return None

    # -- wiring ------------------------------------------------------------

    def _attach(self, hook_name: str, program: Callable) -> None:
        self.registry.attach_policy(hook_name, program)
        self._attached.append((hook_name, program))

    def _install(self) -> None:
        plan = self.plan
        if plan.irq_drop or plan.irq_delay:
            self._attach("fault.irq", self._irq)
        if plan.worker_stall or plan.worker_kill:
            self._attach("fault.worker", self._worker)
        if plan.slot_wedge or plan.slot_corrupt:
            self._attach("fault.slot", self._slot)
        if plan.errno_rate:
            self._attach("fault.errno", self._errno)
        if plan.net_drop or plan.net_dup or plan.net_delay:
            self._attach("fault.net", self._net)
        # Recovery knobs ride the same hooks the sysfs files use.
        if plan.watchdog_period_ns:
            self._attach(
                "genesys.watchdog", policy_mod.fixed(float(plan.watchdog_period_ns))
            )
        self._attach(
            "genesys.slot_timeout", policy_mod.fixed(float(plan.slot_timeout_ns))
        )
        self._attach(
            "genesys.worker_timeout", policy_mod.fixed(float(plan.worker_timeout_ns))
        )
        # Injected errnos outside the default transient set (EINTR,
        # EAGAIN) must still be retried, or the fault would surface as a
        # permanent failure the workload never asked for.
        extra = {int(e) for e in plan.errnos} - {
            int(Errno.EINTR),
            int(Errno.EAGAIN),
        }
        if plan.errno_rate and extra:
            self._attach(
                "genesys.retry", _WidenRetry(frozenset(extra), plan.max_retries)
            )

    def remove(self) -> None:
        """Detach every program this injector installed."""
        for hook_name, program in self._attached:
            hook = self.registry.hooks.get(hook_name)
            if hook is not None:
                hook.detach(program)
        self._attached.clear()

    def summary(self) -> dict:
        return {
            "seed": self.plan.seed,
            "decisions": self.decisions,
            "injected": self.injected,
            "by_action": dict(sorted(self.by_action.items())),
        }


def install_plan(plan: FaultPlan, registry: ProbeRegistry) -> FaultInjector:
    """Attach ``plan`` to an already-built machine's registry."""
    return FaultInjector(plan, registry)
