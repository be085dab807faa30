"""Poll elision: a parked wavefront's completion-poll rounds, run as
engine callbacks, against the always-poll step loop they replace.

The reference swaps the device API's per-work-item op cache for one
whose ``WaitMode.POLL`` loop yields the plain ``poll_sleep``, so every
round goes through the wavefront step loop and ``gpu_atomic``.  Both
sides must agree on everything a run can observe: the clock, the L2's
statistics and per-set LRU order, the atomic counts, the lockstep
statistics, the completion log, each lane's op times, and what planted
callbacks, weak ticks and ``run(until)`` stops saw along the way.
"""

import dataclasses
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.core import device_api
from repro.core.invocation import Granularity, Ordering, WaitMode
from repro.gpu import wavefront as wavefront_mod
from repro.gpu.ops import Compute, MemRead
from repro.machine import MachineConfig
from repro.system import System


class AlwaysPollSlotOps(device_api._SlotOps):
    """Reference op cache: the completion poll sleeps with the plain
    ``Sleep``, so no round is ever elided."""

    __slots__ = ()

    def __init__(self, *args):
        super().__init__(*args)
        self.completion_sleep = self.poll_sleep


@contextmanager
def always_poll():
    original = device_api._SlotOps
    device_api._SlotOps = AlwaysPollSlotOps
    try:
        yield
    finally:
        device_api._SlotOps = original


@contextmanager
def counting_chains():
    """Count chain starts and hand-backs by outcome."""
    counts = {"start": 0, "done": 0, "miss": 0}
    chain_cls = wavefront_mod._PollChain
    start, hand_back = chain_cls.start, chain_cls._hand_back

    def counted_start(chain):
        counts["start"] += 1
        return start(chain)

    def counted_hand_back(chain, steps, outcome):
        counts[outcome] += 1
        return hand_back(chain, steps, outcome)

    chain_cls.start, chain_cls._hand_back = counted_start, counted_hand_back
    try:
        yield counts
    finally:
        chain_cls.start, chain_cls._hand_back = start, hand_back


GRANULARITIES = (
    (Granularity.WORK_ITEM, Ordering.STRONG),
    (Granularity.WORK_GROUP, Ordering.STRONG),
    (Granularity.WORK_GROUP, Ordering.RELAXED),
    (Granularity.KERNEL, Ordering.RELAXED),
)

SMALL = st.sampled_from([1, 2, 3, 5])

CASES = st.fixed_dictionaries(
    {
        "groups": st.integers(1, 3),
        "group_size": st.sampled_from([1, 2, 4, 5, 8]),
        "granularity": st.sampled_from(GRANULARITIES),
        "calls": st.integers(1, 3),
        "blocking": st.lists(st.booleans(), min_size=3, max_size=3),
        "halt": st.booleans(),
        "compute": st.lists(st.integers(0, 6), min_size=1, max_size=4),
        "cus": st.integers(1, 2),
        "cpu_cores": st.integers(1, 3),
        "workers": st.sampled_from([1, 2, 8]),
        "interval": st.sampled_from([0, 1, 2, 3, 4, 6]),
        "atomic_load": SMALL,
        "other_atomics": SMALL,
        "cpu_ns": st.lists(SMALL, min_size=4, max_size=4),
        "l2_lines": st.sampled_from([2, 4, 8, 64]),
        "stride": st.sampled_from([64, 16]),
        "streamers": st.integers(0, 2),
        "stream_lines": st.integers(1, 12),
        "planted": st.lists(
            st.tuples(st.integers(0, 400), st.integers(0, 20)), max_size=12
        ),
        "ticker": st.one_of(
            st.none(),
            st.tuples(st.integers(1, 3), st.integers(0, 6), st.integers(20, 400)),
        ),
        "weak_period": st.one_of(st.none(), st.sampled_from([1, 3, 7])),
        "stops": st.lists(st.integers(0, 500), max_size=4),
    }
)


def config_for(case):
    atomic = case["atomic_load"]
    other = case["other_atomics"]
    handler, dispatch, base, switch = case["cpu_ns"]
    return MachineConfig(
        num_cus=case["cus"],
        wavefront_width=4,
        wavefront_slots_per_cu=4,
        max_workitems_per_cu=64,
        cpu_cores=case["cpu_cores"],
        cpu_freq_ghz=1.0,
        gpu_freq_ghz=1.0,
        workqueue_workers=case["workers"],
        interrupt_handler_ns=handler,
        workqueue_dispatch_ns=dispatch,
        syscall_base_ns=base,
        context_switch_ns=switch,
        halt_resume_ns=3,
        sendmsg_ns=1,
        kernel_launch_ns=2,
        # A zero interval polls back to back; the atomic must then
        # take time or a round would never let the clock move.
        poll_interval_ns=case["interval"],
        atomic_latency_ns={
            "cmp-swap": atomic + other,
            "swap": atomic + other,
            "atomic-load": atomic,
            "load": 1,
        },
        gpu_l2_lines=case["l2_lines"],
        gpu_l2_hit_ns=1,
        gpu_l1_lines=4,
        gpu_l1_hit_ns=1,
        dram_latency_ns=2,
        dram_bw_bytes_per_ns=64,
    )


def l2_state(system):
    l2 = system.memsystem.l2
    return (
        dataclasses.astuple(l2.stats),
        sorted((index, list(lines)) for index, lines in l2._sets.items()),
    )


def run_case(case):
    """Everything observable about one run of ``case``."""
    system = System(config=config_for(case), slot_stride_bytes=case["stride"])
    sim = system.sim
    mem = system.memsystem
    atomics = mem.atomics.counts
    seen = []
    lanes = {}
    granularity, ordering = case["granularity"]
    wait = WaitMode.HALT_RESUME if case["halt"] else WaitMode.POLL
    stream_base = mem.alloc(64 * 64)

    def observe(tag):
        seen.append(
            (tag, sim.now, atomics["atomic-load"], dataclasses.astuple(mem.l2.stats))
        )

    def caller(ctx):
        log = lanes.setdefault(ctx.global_id, [])
        for call in range(case["calls"]):
            cycles = case["compute"][(ctx.global_id + call) % len(case["compute"])]
            yield Compute(cycles)
            log.append(("compute", sim.now))
            result = yield from ctx.sys.invoke(
                "getrusage",
                granularity=granularity,
                ordering=ordering,
                blocking=case["blocking"][call],
                # Polls stay the common case: a halt call alternates.
                wait=wait if call % 2 else WaitMode.POLL,
            )
            log.append(("call", sim.now, type(result).__name__))

    def streamer(ctx):
        # Streams lines through the L2 so polled lines get evicted.
        log = lanes.setdefault(("stream", ctx.global_id), [])
        for step in range(3 * case["stream_lines"]):
            line = (ctx.global_id * 7 + step) % case["stream_lines"]
            yield MemRead(stream_base + 64 * line, 8)
            log.append(sim.now)

    def main():
        launches = [
            system.launch(
                caller, case["groups"] * case["group_size"], case["group_size"]
            )
        ]
        if case["streamers"]:
            launches.append(system.launch(streamer, case["streamers"], 1))
        for launch in launches:
            yield launch

    def ticker(period, delay, horizon):
        # Pushes entries from inside the run, so some share an instant
        # with a wake or touch while being queued before or after it.
        lines = case["stream_lines"]
        count = 0
        while sim.now < horizon:
            yield period
            count += 1
            tag = ("tick", count)
            if count % 3 == 0:
                sim.call_at(
                    sim.now + delay,
                    lambda tag=tag: (mem.l2.access(count % lines), observe(tag)),
                )
            else:
                sim.call_at(sim.now + delay, lambda tag=tag: observe(tag))

    def weak_tick(when, period):
        # Weak entries never move the clock: keep the tick's own time.
        observe(("weak", when))
        sim.call_at(when + period, lambda: weak_tick(when + period, period), weak=True)

    for index, (when, line) in enumerate(case["planted"]):
        if line % 2:
            sim.call_at(when, lambda index=index, line=line: (
                mem.l2.access(line), observe(("planted", index))))
        else:
            sim.call_at(when, lambda index=index: observe(("planted", index)))
    if case["ticker"] is not None:
        sim.process(ticker(*case["ticker"]), name="ticker")
    if case["weak_period"] is not None:
        sim.call_at(0, lambda: weak_tick(0, case["weak_period"]), weak=True)
    proc = sim.process(main(), name="main")
    stops = []
    for until in sorted(case["stops"]):
        sim.run(until=until)
        stops.append((sim.now, dict(atomics), l2_state(system)))
    sim.run()
    assert proc.finished
    sim.run_process(system.genesys.drain(), name="drain")
    return {
        "now": sim.now,
        "l2": l2_state(system),
        "atomics": dict(atomics),
        "wavefront_stats": dict(system.gpu.wavefront_stats),
        "completions": list(system.genesys.completion_log),
        "lanes": lanes,
        "seen": seen,
        "stops": stops,
        "dram": mem.dram.gpu_accesses,
    }


def compare(case):
    with counting_chains() as counts:
        fast = run_case(case)
    with always_poll():
        reference = run_case(case)
    for key in reference:
        assert fast[key] == reference[key], key
    return counts


@given(CASES)
@settings(max_examples=120, deadline=None)
def test_poll_chain_matches_always_poll_reference(case):
    compare(case)


BASE_CASE = {
    "groups": 2,
    "group_size": 5,
    "granularity": (Granularity.WORK_GROUP, Ordering.STRONG),
    "calls": 3,
    "blocking": [True, True, True],
    "halt": False,
    "compute": [0, 3],
    "cus": 1,
    "cpu_cores": 1,
    "workers": 1,
    "interval": 2,
    "atomic_load": 3,
    "other_atomics": 1,
    "cpu_ns": [5, 5, 5, 3],
    "l2_lines": 64,
    "stride": 64,
    "streamers": 0,
    "stream_lines": 4,
    "planted": [],
    "ticker": None,
    "weak_period": None,
    "stops": [],
}


def test_lone_pollers_park_and_hand_back_done():
    counts = compare(BASE_CASE)
    assert counts["start"] > 0
    assert counts["done"] == counts["start"]
    assert counts["miss"] == 0


def test_evicted_polled_line_hands_back_on_the_miss():
    case = dict(BASE_CASE, l2_lines=2, streamers=2, stream_lines=6, ticker=(1, 2, 200))
    counts = compare(case)
    assert counts["miss"] > 0


def test_packed_slots_and_mid_chain_stops():
    case = dict(
        BASE_CASE,
        granularity=(Granularity.WORK_ITEM, Ordering.STRONG),
        group_size=1,
        groups=3,
        stride=16,
        stops=[7, 19, 40, 41],
        weak_period=3,
    )
    counts = compare(case)
    assert counts["start"] > 0


def test_model_checking_tie_break_declines_the_chain():
    from repro.modelcheck.schedule import FifoSchedulePlan
    from repro.probes import attached

    with attached(FifoSchedulePlan()):
        with counting_chains() as counts:
            fast = run_case(BASE_CASE)
        with always_poll():
            reference = run_case(BASE_CASE)
    assert counts["start"] == 0
    assert fast == reference
