"""Differential oracle for GSan's raw-timeline event pump.

GSan records each event's raw argument tuple and renders it only when a
violation reports it, keeping per scope a plain list trimmed to the last
``max_timeline`` entries.  :class:`EagerGSan` is the reference: it
renders every event's arguments when it arrives and keeps each scope in
a ``deque(maxlen=max_timeline)``.  Random protocol streams with injected
faults go through both -- by live tracepoint fires and by ``feed`` --
and every observable (report, snapshot, rules, violation timelines)
must match.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.probes.tracepoints import ProbeRegistry
from repro.sanitizers import gsan
from repro.sanitizers.gsan import GSan, Violation, event_scopes


def eager_render(values):
    parts = []
    for value in values:
        text = repr(value)
        if len(text) > 48:
            text = text[:45] + "..."
        parts.append(text)
    return ", ".join(parts)


class _EagerTap:
    def __init__(self, sanitizer, name):
        self.sanitizer = sanitizer
        self.name = name

    def __call__(self, *values):
        sanitizer = self.sanitizer
        sanitizer.feed(self.name, sanitizer.registry.now(), *values)


class EagerGSan(GSan):
    """Reference pump: arguments rendered on arrival, one bounded deque
    of finished timeline rows per scope, handlers looked up per event."""

    def install(self, registry):
        self.registry = registry
        for name in gsan._EVENT_AGENT:
            if name in registry.tracepoints:
                registry.attach(name, _EagerTap(self, name))
        registry.programs.append(self)
        return self

    def feed(self, name, t, *values):
        self.events += 1
        agent = gsan._EVENT_AGENT.get(name, "cpu")
        if agent is None:
            agent = values[3] if name == "slot.transition" else values[2]
            if agent not in self.clocks:
                agent = "cpu"
        self.clocks[agent] += 1
        entry = (t, name, eager_render(values), agent, False)
        for scope in event_scopes(name, values):
            self._timelines.setdefault(
                scope, deque(maxlen=self.max_timeline)
            ).append(entry)
        handler = gsan._HANDLERS.get(name)
        if handler is not None:
            getattr(self, handler)(t, agent, values)

    def _flag(self, rule, scope, t, message):
        timeline = list(self._timelines.get(scope, ()))
        if timeline:
            t_ev, name, args, agent, _ = timeline[-1]
            timeline[-1] = (t_ev, name, args, agent, True)
        self.violations.append(
            Violation(rule, scope, t, message, timeline, dict(self.clocks))
        )


FAULTS = (
    None,
    "skipped-edge",
    "wrong-actor",
    "duplicate-completion",
    "resume-before-complete",
    "double-enqueue",
    "stale-finish",
    "foreign-edge",
    "watchdog-reclaim",
)

LONG_NAME = "pread-with-a-name-long-enough-to-be-elided-in-timelines"


def episode(inv, slot, hw_id, name, wait, fault):
    """One invocation's walk through the slot protocol, with ``fault``
    applied.  ``wait`` is passed through ``syscall.claim``; a list there
    exercises values that change after the fire."""
    events = [
        ("slot.transition", [slot, "free", "populating", "gpu"]),
        ("syscall.claim", [inv, name, hw_id, 0, "work-item", True, wait]),
        ("slot.transition", [slot, "populating", "ready", "gpu"]),
        ("syscall.submit", ["work-item", inv, name, hw_id, True]),
        ("scan.enqueue", [inv, (hw_id, slot)]),
        ("wq.enqueue", [1, inv]),
        ("wq.dequeue", [0, inv]),
        ("scan.start", [inv, (hw_id, slot)]),
        ("slot.transition", [slot, "ready", "processing", "cpu"]),
        ("syscall.dispatch", [name, hw_id, inv]),
        ("wavefront.halt", [hw_id, 4]),
        ("slot.transition", [slot, "processing", "finished", "cpu"]),
        ("syscall.complete", [name, hw_id, 35.0, inv, True]),
        ("wq.complete", [0, 12.5, inv]),
        ("wavefront.resume", [hw_id, 40.0]),
        ("syscall.resume", [inv, name, hw_id]),
        ("slot.transition", [slot, "finished", "free", "gpu"]),
    ]
    transitions = [i for i, (n, _) in enumerate(events) if n == "slot.transition"]
    if fault == "skipped-edge":
        del events[transitions[2]]
    elif fault == "wrong-actor":
        events[transitions[2]][1][3] = "gpu"
    elif fault == "duplicate-completion":
        at = next(i for i, (n, _) in enumerate(events) if n == "syscall.complete")
        events.insert(at + 1, events[at])
    elif fault == "resume-before-complete":
        at = next(i for i, (n, _) in enumerate(events) if n == "syscall.resume")
        resume = events.pop(at)
        complete = next(i for i, (n, _) in enumerate(events) if n == "syscall.complete")
        events.insert(complete, resume)
    elif fault == "double-enqueue":
        at = next(i for i, (n, _) in enumerate(events) if n == "wq.enqueue")
        events.insert(at + 1, events[at])
    elif fault == "stale-finish":
        detail = f"stale finish: request {inv} was reclaimed"
        events.insert(
            transitions[3] + 1,
            ("slot.protocol_error", [slot, "finish", "cpu", detail]),
        )
    elif fault == "foreign-edge":
        detail = "edge ready -> processing belongs to cpu"
        events.insert(
            transitions[2],
            ("slot.protocol_error", [slot, "process", "watchdog", detail]),
        )
    elif fault == "watchdog-reclaim":
        events[transitions[3]][1][3] = "watchdog"
        at = next(i for i, (n, _) in enumerate(events) if n == "syscall.complete")
        events[at] = ("recover.slot_reclaim", [inv, name, slot, "processing"])
    return [(n, tuple(values)) for n, values in events]


@st.composite
def streams(draw):
    """Interleaved episodes on a few slots and wavefronts, so some
    scopes see many more events than any tested ``max_timeline``."""
    count = draw(st.integers(1, 12))
    episodes = []
    for inv in range(count):
        name = draw(st.sampled_from(["pread", "sendto", LONG_NAME]))
        wait = draw(st.sampled_from(["none", "poll", "list"]))
        episodes.append(
            episode(
                inv,
                slot=draw(st.integers(0, 1)),
                hw_id=draw(st.integers(0, 1)),
                name=name,
                wait=[inv] if wait == "list" else wait,
                fault=draw(st.sampled_from(FAULTS)),
            )
        )
    order = draw(st.lists(st.integers(0, count - 1), max_size=40 * count))
    stream = []
    for pick in order:
        if episodes[pick]:
            stream.append(episodes[pick].pop(0))
    for rest in episodes:
        stream.extend(rest)
    return stream


def mutate_lists(values):
    for value in values:
        if isinstance(value, list):
            value.append("mutated")


def observables(sanitizer):
    sanitizer.finish()
    return (
        sanitizer.report(),
        sanitizer.snapshot(),
        sanitizer.rules_hit(),
        [v.timeline for v in sanitizer.violations],
        [(v.rule, v.scope, v.t, v.message, v.clocks) for v in sanitizer.violations],
    )


class _Clock:
    now = 0.0


def run_live(stream, max_timeline):
    """Fire ``stream`` through a registry with both sanitizers attached."""
    clock = _Clock()
    registry = ProbeRegistry(clock)
    for name in gsan._EVENT_AGENT:
        registry.tracepoint(name)
    fast = GSan(max_timeline).install(registry)
    reference = EagerGSan(max_timeline).install(registry)
    for step, (name, values) in enumerate(stream):
        clock.now = float(step)
        registry.get(name).fire(*values)
        mutate_lists(values)
    return fast, reference


def run_fed(stream, max_timeline):
    fast = GSan(max_timeline)
    reference = EagerGSan(max_timeline)
    for step, (name, values) in enumerate(stream):
        fast.feed(name, step * 2.5, *values)
        reference.feed(name, step * 2.5, *values)
        mutate_lists(values)
    return fast, reference


def fresh(stream):
    """A copy whose list arguments are new objects (each run mutates
    its own)."""
    return [
        (name, tuple(list(v) if isinstance(v, list) else v for v in values))
        for name, values in stream
    ]


class TestRawTimelinesMatchEagerReference:
    @given(streams(), st.sampled_from([0, 1, 3, 64]))
    @settings(max_examples=150, deadline=None)
    def test_live_and_fed_streams(self, stream, max_timeline):
        for run in (run_live, run_fed):
            fast, reference = run(fresh(stream), max_timeline)
            assert observables(fast) == observables(reference)

    def test_one_scope_far_past_twice_max_timeline(self):
        # Every halt after the first is a double halt, so the flagged
        # timelines of wf:0 cover every length from 1 to 300 events.
        stream = [("wavefront.halt", (0, 8))] * 300
        for max_timeline in (0, 1, 3, 64):
            for run in (run_live, run_fed):
                fast, reference = run(stream, max_timeline)
                expected = observables(reference)
                assert observables(fast) == expected
                timelines = expected[3]
                assert len(timelines) == 300
                assert max(map(len, timelines)) == max_timeline
                # What is kept stays bounded, and nothing at all for 0.
                kept = fast._timelines.get("wf:0", [])
                assert len(kept) < 2 * max_timeline or kept == []
                if max_timeline == 0:
                    assert fast._timelines == {}

    def test_mutated_list_argument_keeps_its_fire_time_text(self):
        wait = ["before"]
        fast = GSan()
        fast.feed("syscall.claim", 1.0, 7, "pread", 0, 0, "work-item", True, wait)
        wait.append("after")
        fast.feed("syscall.resume", 2.0, 7, "pread", 0)
        (violation,) = fast.violations
        assert violation.timeline[0][2].endswith("['before']")

    def test_long_reprs_are_elided_on_report(self):
        fast = GSan()
        fast.feed("syscall.dispatch", 1.0, LONG_NAME, 0, 3)
        (violation,) = fast.violations
        assert violation.timeline[0][2] == eager_render((LONG_NAME, 0, 3))
        assert "..." in violation.timeline[0][2]

    def test_negative_max_timeline_is_rejected(self):
        with pytest.raises(ValueError, match="max_timeline"):
            GSan(max_timeline=-1)
