"""Regression tests for the event-driven engine hot paths.

Covers the refactor's edge cases: O(1)-amortised waiter discard under
wide ``AnyOf`` fan-out, ``Event.fail`` propagation through combinators,
re-yielding already-triggered events, cancellable timers interacting
with ``run(until=...)``, the absolute-time wakeup primitive, and the
in-place clock advance (``Simulator.try_advance``) against an engine
that always takes the heap."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupted,
    SimulationError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestWideFanoutInterrupt:
    def test_interrupt_inside_large_anyof(self, sim):
        """Interrupting a process parked in a 5000-wide AnyOf must cleanly
        detach it from every child event (the old list.remove path was
        O(n) per child and could resurrect the waiter)."""
        width = 5000
        events = [sim.event() for _ in range(width)]
        observed = []

        def victim():
            try:
                yield AnyOf(events)
            except Interrupted as intr:
                observed.append(("interrupted", intr.cause))
            # Life continues after the interrupt.
            yield 5
            observed.append(("resumed", sim.now))

        proc = sim.process(victim())

        def interrupter():
            yield 10
            proc.interrupt("wide-cancel")

        sim.process(interrupter())
        sim.run()
        assert observed == [("interrupted", "wide-cancel"), ("resumed", 15)]
        # Firing the abandoned events later must not resurrect the victim.
        for event in events:
            event.succeed("late")
        sim.run()
        assert observed == [("interrupted", "wide-cancel"), ("resumed", 15)]

    def test_repeated_interrupts_in_fanout_stay_consistent(self, sim):
        """Round after round of arm/interrupt against the same events:
        tombstone compaction must never drop or double-wake a waiter."""
        events = [sim.event() for _ in range(512)]
        interrupts_seen = [0]

        def victim():
            while True:
                try:
                    yield AnyOf(events)
                    return "woken"
                except Interrupted:
                    interrupts_seen[0] += 1

        proc = sim.process(victim())

        def driver():
            for _ in range(40):
                yield 1
                proc.interrupt()
            yield 1
            events[137].succeed("payload")

        sim.process(driver())
        sim.run()
        assert interrupts_seen[0] == 40
        assert proc.result == "woken"


class TestFailPropagation:
    def test_fail_propagates_through_allof(self, sim):
        good, bad = sim.event(), sim.event()

        def body():
            try:
                yield AllOf([good, bad])
            except RuntimeError as exc:
                return f"caught: {exc}"

        def driver():
            yield 5
            good.succeed(1)
            yield 5
            bad.fail(RuntimeError("child broke"))

        proc = sim.process(body())
        sim.process(driver())
        sim.run()
        assert proc.result == "caught: child broke"

    def test_fail_propagates_through_anyof(self, sim):
        slow, bad = sim.event(), sim.event()

        def body():
            try:
                yield AnyOf([slow, bad])
            except ValueError as exc:
                return f"caught: {exc}"

        def driver():
            yield 3
            bad.fail(ValueError("first failure wins"))

        proc = sim.process(body())
        sim.process(driver())
        sim.run()
        assert proc.result == "caught: first failure wins"

    def test_fail_through_nested_combinators(self, sim):
        inner_bad = sim.event()

        def body():
            try:
                yield AllOf([sim.event(), AnyOf([inner_bad, sim.event()])])
            except KeyError as exc:
                return "nested-caught"

        def driver():
            yield 2
            inner_bad.fail(KeyError("deep"))

        proc = sim.process(body())
        sim.process(driver())
        sim.run()
        assert proc.result == "nested-caught"


class TestTriggeredEventReyield:
    def test_yielding_triggered_event_resumes_immediately(self, sim):
        event = sim.event()
        event.succeed("already-done")
        times = []

        def body():
            value = yield event
            times.append(sim.now)
            value_again = yield event
            times.append(sim.now)
            return (value, value_again)

        proc = sim.process(body())
        sim.run()
        assert proc.result == ("already-done", "already-done")
        assert times == [0, 0]

    def test_triggered_event_inside_combinators(self, sim):
        done = sim.event()
        done.succeed("d")
        pending = sim.event()

        def body():
            values = yield AllOf([done])
            idx, value = yield AnyOf([pending, done])
            return values, (idx, value)

        def trigger():
            yield 100
            pending.succeed("p")  # must not be needed: done already won

        proc = sim.process(body())
        sim.process(trigger())
        sim.run()
        assert proc.result == (["d"], (1, "d"))
        assert proc.finished


class TestCancellableTimers:
    def test_cancelled_timer_never_fires(self, sim):
        timer = sim.timer(50, value="boom")
        timer.cancel()
        assert timer.cancelled
        end = sim.run()
        assert not timer.event.triggered
        # A cancelled timer's tombstone must not stretch the clock.
        assert end == 0

    def test_run_until_with_cancelled_timer_before_horizon(self, sim):
        fired = []
        keeper = sim.timer(30)
        victim = sim.timer(40)
        keeper.event._add_callback(lambda v, e: fired.append(("keeper", sim.now)))
        victim.event._add_callback(lambda v, e: fired.append(("victim", sim.now)))
        victim.cancel()
        end = sim.run(until=100)
        assert fired == [("keeper", 30)]
        assert end == 100

    def test_live_timer_extends_run_like_a_sleeper(self, sim):
        sim.timer(75)
        end = sim.run()
        assert end == 75

    def test_cancel_after_fire_is_noop(self, sim):
        timer = sim.timer(5, value=42)
        sim.run()
        assert timer.event.triggered
        timer.cancel()
        assert not timer.cancelled
        assert timer.event.value == 42

    def test_poller_pattern_event_beats_timer(self, sim):
        """The drain/quiesce idiom: wait on state-change OR next tick,
        cancel the loser so abandoned ticks don't accumulate."""
        state_change = sim.event()
        wakeups = []

        def poller():
            while not state_change.triggered:
                tick = sim.timer(1000)
                idx, _value = yield AnyOf([state_change, tick.event])
                tick.cancel()
                wakeups.append(sim.now)
            return sim.now

        def mutator():
            yield 2500
            state_change.succeed()

        proc = sim.process(poller())
        sim.process(mutator())
        end = sim.run()
        assert proc.result == 2500
        assert wakeups == [1000, 2000, 2500]
        # The abandoned 3000ns tick was cancelled: it must not stretch
        # the simulation end time.
        assert end == 2500

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timer(-1)


class TestAbsoluteWakeups:
    def test_wake_at_exact_instant(self, sim):
        def body():
            yield sim.wake_at(1234.5)
            return sim.now

        assert sim.run_process(body()) == 1234.5

    def test_wake_at_past_clamps_to_now(self, sim):
        def body():
            yield 10
            yield sim.wake_at(3)  # already in the past
            return sim.now

        assert sim.run_process(body()) == 10

    def test_call_at_matches_repeated_addition_grid(self, sim):
        """The poll-grid contract: wake_at(anchor + k*1000.0 iterated)
        lands bit-exactly on the instant a ticking loop would reach."""
        anchor = 1337.25
        grid = anchor
        for _ in range(3):
            grid += 1000.0
        seen = []

        def ticker():
            yield anchor
            for _ in range(3):
                yield 1000.0
            seen.append(("ticker", sim.now))

        def waiter():
            yield anchor
            yield sim.wake_at(grid)
            seen.append(("waiter", sim.now))

        sim.process(ticker())
        sim.process(waiter())
        sim.run()
        assert seen[0][1] == seen[1][1]


class AlwaysYieldSimulator(Simulator):
    """Reference engine: ``try_advance`` always declines, so every sleep
    is a heap entry popped by ``run()`` — the slow path it replaces."""

    __slots__ = ()

    def try_advance(self, delay):
        return False


#: Ties, zeros and inexact float sums all occur among these.
DELAYS = st.sampled_from([0, 0, 1, 2, 3, 5, 0.1, 0.2, 0.5, 1.25])
STEP_KINDS = ("advance", "advance", "yield", "timer", "cancelled", "weak", "strong")
PROGRAMS = st.lists(
    st.tuples(
        DELAYS,  # start offset
        st.lists(st.tuples(st.sampled_from(STEP_KINDS), DELAYS), max_size=10),
    ),
    min_size=1,
    max_size=4,
)


def _pending(sim):
    """Heap entries in pop order, labelled (``seq`` values differ between
    engines by design, so only their order is compared)."""
    labels = []
    for when, _seq, proc, value, _exc in sorted(sim._heap, key=lambda e: e[:2]):
        if proc is not None:
            labels.append((when, proc.name))
        elif value.fn is None:
            labels.append((when, "tombstone"))
        else:
            labels.append((when, "weak" if value.weak else "strong"))
    return labels


def simulate(sim_cls, programs, until):
    """Run ``programs`` on a fresh ``sim_cls``; returns the
    ``(now, process, step)`` trace, the ``run(until)`` stop state, the
    final clock and how many sleeps advanced in place."""
    sim = sim_cls()
    trace = []
    advanced = [0]

    def body(pid, steps):
        for index, (kind, delay) in enumerate(steps):
            trace.append((sim.now, pid, index))
            if kind == "advance":
                if sim.try_advance(delay):
                    advanced[0] += 1
                else:
                    yield delay
            elif kind == "yield":
                yield delay
            elif kind == "timer":
                yield sim.timer(delay).event
            elif kind == "cancelled":
                sim.timer(delay).cancel()  # a tombstone left in the heap
            else:
                sim.call_later(
                    delay,
                    lambda pid=pid, index=index, kind=kind: trace.append(
                        (sim.now, f"{kind}:{pid}", index)
                    ),
                    weak=kind == "weak",
                )
        trace.append((sim.now, pid, "end"))

    for pid, (start, steps) in enumerate(programs):
        sim.call_later(
            start, lambda pid=pid, steps=steps: sim.process(body(pid, steps), name=f"p{pid}")
        )
    stop = None
    if until is not None:
        stop = (sim.run(until=until), list(trace), _pending(sim))
    final = sim.run()
    return trace, stop, final, advanced[0]


class TestTryAdvanceOracle:
    @given(PROGRAMS, st.one_of(st.none(), st.sampled_from([0, 1, 2.5, 4, 7])))
    @settings(max_examples=300, deadline=None)
    def test_matches_always_yield_reference(self, programs, until):
        fast = simulate(Simulator, programs, until)
        reference = simulate(AlwaysYieldSimulator, programs, until)
        assert reference[3] == 0
        assert fast[:3] == reference[:3]

    def test_fast_path_taken_and_saves_heap_entries(self):
        programs = [(0, [("advance", 1), ("advance", 0.1), ("advance", 0.2)])]
        trace, _stop, final, advanced = simulate(Simulator, programs, None)
        assert advanced == 3
        assert final == 1 + 0.1 + 0.2
        assert trace == simulate(AlwaysYieldSimulator, programs, None)[0]

        def three_sleeps(sim):
            for _ in range(3):
                if not sim.try_advance(1):
                    yield 1

        for cls, entries in ((Simulator, 1), (AlwaysYieldSimulator, 4)):
            sim = cls()
            sim.process(three_sleeps(sim))
            sim.run()
            assert (sim.now, sim._seq) == (3, entries)


class TestTryAdvanceConditions:
    def test_false_outside_run(self, sim):
        assert not sim.try_advance(5)
        assert sim.now == 0
        sim.run()
        assert not sim.try_advance(5)

    def test_false_with_tie_break_set(self, sim):
        results = []

        def body():
            results.append(sim.try_advance(5))
            yield 0

        sim.tie_break = lambda _sim, ready: 0
        sim.process(body())
        sim.run()
        assert results == [False]

    def test_false_past_until(self, sim):
        results = []

        def body():
            yield 8
            results.append((sim.try_advance(5), sim.now))
            results.append((sim.try_advance(2), sim.now))  # lands on until
            yield 1

        sim.process(body())
        assert sim.run(until=10) == 10
        assert results == [(False, 8), (True, 10)]

    def test_false_when_entry_due_at_same_time(self, sim):
        results = []

        def other():
            yield 5

        def body():
            results.append(sim.try_advance(5))  # other's entry is due at 5
            results.append(sim.try_advance(4))
            yield 0

        sim.process(other())
        sim.run(until=0)  # start other: it now sleeps until t=5
        sim.process(body())
        sim.run()
        assert results == [False, True]

    def test_weak_entries_and_tombstones_block(self, sim):
        results = []

        def body():
            sim.call_later(2, lambda: None, weak=True)
            results.append(sim.try_advance(3))
            yield 3
            sim.timer(1).cancel()
            results.append(sim.try_advance(1))
            results.append(sim.try_advance(0.5))

        sim.process(body())
        sim.run()
        assert results == [False, False, True]

    def test_nested_run_restores_bound(self, sim):
        results = []

        def spawned():
            yield 0

        def body():
            sim.process(spawned())
            sim.run()  # nested, unbounded: drains the spawn entry
            results.append(sim.try_advance(20))  # past the outer until
            results.append(sim.try_advance(4))
            yield 1

        sim.process(body())
        assert sim.run(until=10) == 10
        assert results == [False, True]
        assert not sim.try_advance(1)
