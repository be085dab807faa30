"""Controllable scheduling: tie-break policies, step effects, sleep sets.

The engine's :attr:`~repro.sim.engine.Simulator.tie_break` hook hands a
policy every heap entry sharing the minimum timestamp.  This module
provides the two policies the model checker uses:

* :class:`FifoTieBreak` — always picks entry 0, reproducing the plain
  ``heappop`` order bit-exactly (the identity the byte-identity tests
  assert over the whole experiment suite);
* :class:`GuidedTieBreak` — replays a sparse ``{decision -> rank}``
  choice map and records a :class:`Decision` at every *contested* pop
  (more than one runnable entry tied), which is what the explorer
  branches on.

A *decision* is counted only when two or more tied entries are
actionable — an unfinished process resume or a live strong callback.
Tombstones, weak (pure-observer) wakeups, and resumes of finished
processes cannot change the simulation no matter where they pop, so
ties against them are not choice points; this keeps the branching
factor at the real concurrency, not the heap population.

Step effects and independence
-----------------------------
Dynamic partial-order reduction needs to know when two scheduler steps
*commute*.  The footprint of a step is the set of GSan protocol scopes
(``slot:N`` / ``inv:N`` / ``task:N`` / ``scan:N`` / ``wf:N``) of the
tracepoints it fired, collected by :class:`EffectCollector` between
consecutive pops — the same attribution GSan's happens-before clocks
use.  Effects are three-valued:

* :data:`PURE` (the empty frozenset) — tombstone and weak-observer
  steps, which the engine guarantees are non-perturbing;
* a non-empty frozenset — every fired event mapped to a scope;
* ``None`` — *unknown*: the step fired nothing (it may still have
  mutated shared Python state) or fired an event with no scope.
  Unknown is conservatively dependent with everything, so imprecision
  only costs pruning, never soundness.

Sleep sets ride on this: a sleeping entry (one whose schedule was
already covered by a sibling branch) is woken when a dependent step
executes; a run asked to *execute* a sleeping entry is redundant by
construction and aborts with :class:`SleepBlocked`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.probes.tracepoints import ProbeRegistry
from repro.sanitizers.gsan import SCOPE_NEUTRAL, event_scopes
from repro.sim.engine import HeapEntry, Simulator

__all__ = [
    "Candidate",
    "Decision",
    "EffectCollector",
    "Effects",
    "FifoSchedulePlan",
    "FifoTieBreak",
    "GuidedTieBreak",
    "PURE",
    "ScheduleError",
    "SleepBlocked",
    "effects_from_wire",
    "effects_to_wire",
    "independent",
]

#: A step footprint: ``None`` = unknown (dependent with everything),
#: otherwise the frozenset of protocol scopes the step touched.
Effects = Optional[FrozenSet[str]]

#: The footprint of a step that provably touches nothing.
PURE: FrozenSet[str] = frozenset()


def independent(a: Effects, b: Effects) -> bool:
    """Whether two steps with these footprints commute.

    Unknown (``None``) footprints never commute with anything; known
    footprints commute exactly when their scope sets are disjoint.
    """
    return a is not None and b is not None and not (a & b)


def effects_to_wire(effects: Effects) -> Optional[Tuple[str, ...]]:
    """Picklable/JSON-safe form: ``None`` stays ``None`` (unknown),
    a frozenset becomes a sorted tuple (empty tuple = :data:`PURE`)."""
    return None if effects is None else tuple(sorted(effects))

def effects_from_wire(wire: Optional[Tuple[str, ...]]) -> Effects:
    return None if wire is None else frozenset(wire)


class ScheduleError(RuntimeError):
    """A choice map does not fit the run it is guiding."""


class SleepBlocked(Exception):
    """The run was asked to execute a sleeping (already-covered) entry.

    Raised by :class:`GuidedTieBreak` mid-run; the explorer catches it,
    skips the oracle (the schedule is redundant, not buggy), and counts
    the run as pruned.
    """

    def __init__(self, decision: Optional[int], seq: int) -> None:
        where = f"decision {decision}" if decision is not None else "a forced pop"
        super().__init__(f"entry seq={seq} is asleep at {where}")
        self.decision = decision
        self.seq = seq


class Candidate(NamedTuple):
    """One actionable alternative at a contested pop."""

    rank: int  # position among the actionable entries, FIFO order
    seq: int  # the heap entry's global sequence number (its identity)
    label: str  # process name / callback kind, for humans


class Decision:
    """The record of one contested pop, as the explorer branches on it."""

    __slots__ = ("index", "candidates", "chosen", "sleep_at", "effect", "blocked")

    def __init__(
        self,
        index: int,
        candidates: Tuple[Candidate, ...],
        chosen: int,
        sleep_at: Dict[int, Effects],
    ) -> None:
        self.index = index
        self.candidates = candidates
        self.chosen = chosen
        #: Sleep set in force when this decision was taken: alternatives
        #: whose seq appears here need no child branch (already covered).
        self.sleep_at = sleep_at
        #: Footprint of the chosen step, filled in once it has executed.
        self.effect: Effects = None
        #: True when the chosen entry was itself asleep (run aborted).
        self.blocked = False


def _is_actionable(entry: HeapEntry) -> bool:
    """Whether popping ``entry`` can change the simulation.

    Process resumes of unfinished processes and live strong callbacks
    are actionable; tombstones, weak observers, and finished-process
    resumes are inert no matter where they pop.
    """
    _when, _seq, proc, value, _exc = entry
    if proc is not None:
        return not proc.finished
    return value.fn is not None and not value.weak


def _label(entry: HeapEntry) -> str:
    _when, _seq, proc, value, exc = entry
    if proc is not None:
        kind = "throw" if exc is not None else "resume"
        return f"{kind}:{proc.name}"
    return "callback"


class _EffectTap:
    """One tracepoint's feed into an :class:`EffectCollector` (a class,
    not a closure, mirroring GSan's observers)."""

    __slots__ = ("collector", "name")

    def __init__(self, collector: "EffectCollector", name: str) -> None:
        self.collector = collector
        self.name = name

    def __call__(self, *values: object) -> None:
        self.collector.note(self.name, values)


class EffectCollector:
    """Accumulates the protocol-scope footprint of the current step.

    Attach to every tracepoint of a registry; the tie-break policy
    drains it at each pop boundary to classify the step that just ran.
    Attaching is a pure observation — same guarantee as GSan.
    """

    def __init__(self) -> None:
        self.fired = 0
        self._scopes: set = set()
        self._unscoped = False
        self._step_fired = False

    def install(self, registry: ProbeRegistry) -> "EffectCollector":
        for name in registry.tracepoints:
            registry.attach(name, _EffectTap(self, name))
        return self

    def note(self, name: str, values: Tuple) -> None:
        self.fired += 1
        self._step_fired = True
        scopes = event_scopes(name, values)
        if scopes:
            self._scopes.update(scopes)
        elif name not in SCOPE_NEUTRAL:
            self._unscoped = True

    def take(self) -> Tuple[bool, bool, FrozenSet[str]]:
        """``(fired_anything, fired_unscoped, scopes)`` since last take."""
        out = (self._step_fired, self._unscoped, frozenset(self._scopes))
        self._step_fired = False
        self._unscoped = False
        self._scopes.clear()
        return out


class FifoTieBreak:
    """The identity policy: always pop the FIFO-first tied entry.

    Installing it must leave every run bit-identical to the default
    ``tie_break = None`` fast path — the neutrality contract the
    determinism tests assert across the whole experiment suite.
    Picklable, so it survives checkpoints and attach plans.
    """

    def __call__(self, sim: Simulator, ready: List[HeapEntry]) -> int:
        return 0


class FifoSchedulePlan:
    """Attach plan installing :class:`FifoTieBreak` on every System
    built inside ``with probes.attached(plan):``."""

    def __init__(self) -> None:
        self.installed = 0

    def __call__(self, registry: ProbeRegistry) -> None:
        if registry.sim is not None:
            registry.sim.tie_break = FifoTieBreak()
            self.installed += 1


class GuidedTieBreak:
    """Replay a sparse choice map; record decisions; enforce sleep sets.

    ``choices`` maps decision index (counting contested pops only) to
    the rank of the actionable entry to pop; absent indices default to
    rank 0, i.e. FIFO.  An empty map replays the exact FIFO schedule —
    which is why certificates need no sleep machinery to replay.

    ``sleep`` maps heap-entry seq to the footprint that entry had when
    a sibling branch executed it from the same prefix.  A sleeping
    entry wakes when a dependent (or unknown) step runs; executing a
    still-sleeping entry raises :class:`SleepBlocked`.

    ``sleep_from`` is the decision index at which the sleep set comes
    into force — the branch point.  Before it, the run replays the
    parent's prefix verbatim, where the sleeping entries had not yet
    been put to sleep; enforcing (or waking) them during the prefix
    would be wrong in both directions, so the set lies dormant until
    the branch decision has been taken.
    """

    def __init__(
        self,
        choices: Optional[Dict[int, int]] = None,
        sleep: Optional[Dict[int, Effects]] = None,
        sleep_from: Optional[int] = None,
        collector: Optional[EffectCollector] = None,
        record_limit: int = 256,
    ) -> None:
        self.choices: Dict[int, int] = dict(choices or {})
        self.sleep: Dict[int, Effects] = dict(sleep or {})
        self.decisions: List[Decision] = []
        self.record_limit = record_limit
        self.pops = 0
        self._collector = collector
        self._index = 0
        self._sleep_active = sleep_from is None
        self._sleep_from = sleep_from
        self._last_inert: Optional[bool] = None  # kind of the running step
        self._pending: Optional[Decision] = None  # decision awaiting effect

    # -- step accounting ------------------------------------------------

    def _close_step(self) -> None:
        """Classify the step that ran since the previous pop: assign its
        footprint to the decision that chose it and wake sleepers."""
        if self._collector is None:
            return
        fired, unscoped, scopes = self._collector.take()
        inert = self._last_inert
        self._last_inert = None
        if inert is None:
            return  # nothing ran yet (pre-run setup fires are discarded)
        if inert:
            effect: Effects = PURE
        elif unscoped or not fired:
            effect = None
        else:
            effect = scopes
        if self._pending is not None:
            self._pending.effect = effect
            self._pending = None
        if self.sleep and self._sleep_active:
            if effect is None:
                self.sleep.clear()
            else:
                for seq in [
                    seq
                    for seq, asleep in self.sleep.items()
                    if not independent(effect, asleep)
                ]:
                    del self.sleep[seq]

    def finalize(self) -> None:
        """Account for the final step once the run has drained."""
        self._close_step()

    # -- the policy ------------------------------------------------------

    def __call__(self, sim: Simulator, ready: List[HeapEntry]) -> int:
        self._close_step()
        self.pops += 1
        actionable = [
            index for index, entry in enumerate(ready) if _is_actionable(entry)
        ]
        if len(actionable) <= 1:
            choice = 0
            if actionable and actionable[0] == 0 and self._sleep_active:
                seq = ready[0][1]
                if seq in self.sleep:
                    # The sole runnable step is asleep: the entire
                    # continuation was covered by a sibling branch.
                    raise SleepBlocked(None, seq)
        else:
            index = self._index
            self._index += 1
            if self._sleep_from is not None and index == self._sleep_from:
                self._sleep_active = True
            rank = self.choices.get(index, 0)
            if not 0 <= rank < len(actionable):
                raise ScheduleError(
                    f"decision {index}: choice map wants rank {rank} but only "
                    f"{len(actionable)} entries are actionable"
                )
            choice = actionable[rank]
            record: Optional[Decision] = None
            if len(self.decisions) < self.record_limit:
                record = Decision(
                    index,
                    tuple(
                        Candidate(r, ready[i][1], _label(ready[i]))
                        for r, i in enumerate(actionable)
                    ),
                    rank,
                    dict(self.sleep),
                )
                self.decisions.append(record)
            seq = ready[choice][1]
            if self._sleep_active and seq in self.sleep:
                if record is not None:
                    record.blocked = True
                raise SleepBlocked(index, seq)
            self._pending = record
        self._last_inert = not _is_actionable(ready[choice])
        return choice
