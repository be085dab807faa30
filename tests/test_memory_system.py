"""Unit tests for atomics, DRAM, buffers, and the assembled memory system."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.device import Gpu, KernelLaunch
from repro.gpu.ops import Atomic, MemRead, MemWrite, Sleep
from repro.machine import MachineConfig, small_machine
from repro.memory.atomics import ATOMIC_OPS, AtomicCostModel
from repro.memory.buffers import AddressAllocator, Buffer
from repro.memory.cache import lines_covering
from repro.memory.system import MemorySystem
from repro.sim.engine import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def mem(sim):
    return MemorySystem(sim, small_machine())


class TestAtomicCostModel:
    def test_table4_ordering_holds(self):
        model = AtomicCostModel(MachineConfig())
        assert model.ordering_holds()

    def test_table4_rows_complete(self):
        table = AtomicCostModel(MachineConfig()).table()
        assert set(table) == set(ATOMIC_OPS)
        assert all(latency > 0 for latency in table.values())

    def test_plain_load_cheapest(self):
        table = AtomicCostModel(MachineConfig()).table()
        assert table["load"] == min(table.values())

    def test_cmp_swap_most_expensive(self):
        table = AtomicCostModel(MachineConfig()).table()
        assert table["cmp-swap"] == max(table.values())

    def test_unknown_op_raises(self):
        model = AtomicCostModel(MachineConfig())
        with pytest.raises(KeyError):
            model.latency("fetch-add")

    def test_charge_counts(self):
        model = AtomicCostModel(MachineConfig())
        model.charge("swap")
        model.charge("swap")
        assert model.counts["swap"] == 2

    def test_missing_latency_rejected(self):
        config = MachineConfig()
        config.atomic_latency_ns = {"load": 1.0}
        with pytest.raises(ValueError):
            AtomicCostModel(config)


class TestAllocator:
    def test_monotonic_non_overlapping(self):
        alloc = AddressAllocator()
        a = alloc.alloc(100)
        b = alloc.alloc(100)
        assert b >= a + 100

    def test_alignment(self):
        alloc = AddressAllocator(alignment=64)
        alloc.alloc(1)
        addr = alloc.alloc(10, align=256)
        assert addr % 256 == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            AddressAllocator().alloc(-1)


class TestBuffer:
    def test_backing_storage(self):
        buf = Buffer(0x1000, 64)
        assert buf.size == 64
        buf.data[0:3] = b"abc"
        assert bytes(buf.data[0:3]) == b"abc"

    def test_slice_shares_storage(self):
        buf = Buffer(0x1000, 64)
        view = buf.slice(16, 8)
        view.data[0:2] = b"hi"
        assert bytes(buf.data[16:18]) == b"hi"
        assert view.addr == 0x1000 + 16

    def test_slice_bounds_checked(self):
        buf = Buffer(0x1000, 64)
        with pytest.raises(ValueError):
            buf.slice(60, 8)


class TestMemorySystem:
    def test_alloc_buffer(self, mem):
        buf = mem.alloc_buffer(128)
        assert buf.size == 128
        assert buf.addr % 64 == 0

    def test_gpu_load_l1_hit_is_cheap(self, sim, mem):
        def body():
            yield from mem.gpu_load(0, 0x1000, 64)
            t_miss = sim.now
            yield from mem.gpu_load(0, 0x1000, 64)
            return t_miss, sim.now - t_miss

        t_miss, t_hit = sim.run_process(body())
        assert t_hit < t_miss

    def test_l1s_are_private_per_cu(self, sim, mem):
        def body():
            yield from mem.gpu_load(0, 0x1000, 64)

        sim.run_process(body())
        assert mem.l1s[0].contains(0x1000 // 64)
        assert not mem.l1s[1].contains(0x1000 // 64)

    def test_atomic_bypasses_l1(self, sim, mem):
        def body():
            yield from mem.gpu_atomic("cmp-swap", 0x2000)

        sim.run_process(body())
        line = 0x2000 // 64
        assert mem.l2.contains(line)
        assert not mem.l1s[0].contains(line)

    def test_atomic_latency_charged(self, sim, mem):
        def body():
            yield from mem.gpu_atomic("atomic-load", 0x40)  # l2 resident after
            start = sim.now
            yield from mem.gpu_atomic("atomic-load", 0x40)
            return sim.now - start

        elapsed = sim.run_process(body())
        assert elapsed == pytest.approx(mem.atomics.latency("atomic-load"))

    def test_atomic_l2_miss_moves_dram_traffic(self, sim, mem):
        cfg = mem.config

        def body():
            for i in range(cfg.gpu_l2_lines * 2):
                yield from mem.gpu_atomic("atomic-load", i * cfg.cacheline_bytes)

        sim.run_process(body())
        assert mem.dram.gpu_accesses > 0

    def test_polled_set_within_l2_no_dram_traffic(self, sim, mem):
        cfg = mem.config
        lines = cfg.gpu_l2_lines // 4

        def body():
            # Warm.
            for i in range(lines):
                yield from mem.gpu_atomic("atomic-load", i * cfg.cacheline_bytes)
            before = mem.dram.gpu_accesses
            for _ in range(3):
                for i in range(lines):
                    yield from mem.gpu_atomic("atomic-load", i * cfg.cacheline_bytes)
            return mem.dram.gpu_accesses - before

        assert sim.run_process(body()) == 0

    def test_l1_flush_range(self, sim, mem):
        def body():
            yield from mem.gpu_load(1, 0x4000, 256)
            yield from mem.gpu_l1_flush_range(1, 0x4000, 256)

        sim.run_process(body())
        assert not mem.l1s[1].contains(0x4000 // 64)

    def test_cpu_stream_contends_with_gpu(self, sim, mem):
        """CPU transfers queue behind GPU DRAM traffic (shared channel)."""

        def gpu_hog():
            for i in range(50):
                yield from mem.dram.gpu_access(4096)

        def cpu_probe():
            yield from mem.cpu_stream_access(64)
            return sim.now

        sim.process(gpu_hog())
        probe = sim.process(cpu_probe())
        sim.run()
        solo = MemorySystem(Simulator(), small_machine())
        solo_sim = solo.sim

        def solo_probe():
            yield from solo.cpu_stream_access(64)
            return solo_sim.now

        solo_time = solo_sim.run_process(solo_probe())
        assert probe.result > solo_time

    def test_bad_cu_id_raises(self, sim, mem):
        def body():
            yield from mem.gpu_load(99, 0, 64)

        with pytest.raises(IndexError):
            sim.run_process(body())


class AlwaysYieldMemorySystem(MemorySystem):
    """Reference memory system: every hit and atomic latency is a plain
    yield (a heap round trip), as before ``Simulator.try_advance``."""

    def gpu_load(self, cu_id, addr, size):
        cfg = self.config
        l1 = self._l1(cu_id)
        for line in lines_covering(addr, size, cfg.cacheline_bytes):
            if l1.access(line):
                yield cfg.gpu_l1_hit_ns
            elif self.l2.access(line):
                yield cfg.gpu_l2_hit_ns
            else:
                yield cfg.gpu_l2_hit_ns
                yield from self.dram.gpu_access(cfg.cacheline_bytes)

    def gpu_store(self, cu_id, addr, size):
        cfg = self.config
        l1 = self._l1(cu_id)
        for line in lines_covering(addr, size, cfg.cacheline_bytes):
            l1.access(line)
            if self.l2.access(line):
                yield cfg.gpu_l2_hit_ns
            else:
                yield cfg.gpu_l2_hit_ns
                yield from self.dram.gpu_access(cfg.cacheline_bytes)

    def gpu_atomic(self, op, addr):
        latency = self.atomics.charge(op)
        line = addr // self.config.cacheline_bytes
        yield latency
        if not self.l2.access(line):
            yield from self.dram.gpu_access(self.config.cacheline_bytes)


class CountingSimulator(Simulator):
    """Counts the sleeps ``try_advance`` took in place."""

    __slots__ = ("advanced",)

    def __init__(self):
        super().__init__()
        self.advanced = 0

    def try_advance(self, delay):
        if super().try_advance(delay):
            self.advanced += 1
            return True
        return False


#: Two CUs with two wavefront slots each and 4-wide wavefronts: a
#: 12-item kernel of 4-item groups puts two wavefronts on CU 0 and one on
#: CU 1.  Small caches so streams both hit and evict.
ORACLE_CONFIG = replace(
    small_machine(),
    wavefront_slots_per_cu=2,
    wavefront_width=4,
    gpu_l1_lines=8,
    gpu_l2_lines=16,
)
ORACLE_LANES = 12
LANE_OP = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 23), st.integers(1, 200)),
    st.tuples(st.just("write"), st.integers(0, 23), st.integers(1, 200)),
    st.tuples(st.just("atomic"), st.integers(0, 23), st.sampled_from(ATOMIC_OPS)),
    st.tuples(st.just("sleep"), st.sampled_from([0, 30, 45.5, 180]), st.just(None)),
)
LANE_STREAMS = st.lists(
    st.lists(LANE_OP, max_size=6), min_size=ORACLE_LANES, max_size=ORACLE_LANES
)


def run_streams(mem_cls, streams):
    """Run one lane stream per work-item; returns everything observable
    about the memory system plus the sleeps advanced in place."""
    sim = CountingSimulator()
    mem = mem_cls(sim, ORACLE_CONFIG)
    gpu = Gpu(sim, ORACLE_CONFIG, mem)
    base = mem.alloc(24 * ORACLE_CONFIG.cacheline_bytes + 256)
    l1_hits = []
    mem.probes.get("mem.l1.hit").attach(lambda line: l1_hits.append((sim.now, line)))
    lane_log = []

    def kern(ctx):
        lane_log.append((sim.now, ctx.global_id, "cu", ctx.group.cu_id))
        for index, (kind, where, arg) in enumerate(streams[ctx.global_id]):
            addr = base + where * 50
            if kind == "read":
                yield MemRead(addr, arg)
            elif kind == "write":
                yield MemWrite(addr, arg)
            elif kind == "atomic":
                yield Atomic(arg, addr)
            else:
                yield Sleep(where)
            lane_log.append((sim.now, ctx.global_id, index))

    def body():
        yield gpu.launch(KernelLaunch(kern, ORACLE_LANES, ORACLE_CONFIG.wavefront_width))

    sim.run_process(body())
    caches = [mem.l2] + mem.l1s
    observed = {
        "now": sim.now,
        "stats": [cache.stats for cache in caches],
        "lru": [
            [(index, list(lines)) for index, lines in sorted(cache._sets.items())]
            for cache in caches
        ],
        "dram": (mem.dram.bytes_moved, mem.dram.gpu_accesses),
        "atomics": dict(mem.atomics.counts),
        "l1_hits": l1_hits,
        "lanes": lane_log,
    }
    return observed, sim.advanced


class TestHitFastPathOracle:
    @given(LANE_STREAMS)
    @settings(max_examples=150, deadline=None)
    def test_matches_always_yield_reference(self, streams):
        fast, _ = run_streams(MemorySystem, streams)
        reference, advanced = run_streams(AlwaysYieldMemorySystem, streams)
        assert advanced == 0
        assert fast == reference

    def test_placement_and_fast_path_exercised(self):
        # Lane 0 of each wavefront rereads one line; the others idle.
        stream = [("read", 0, 64)] * 4 + [("atomic", 1, "atomic-load")] * 2
        streams = [
            stream if gid % ORACLE_CONFIG.wavefront_width == 0 else []
            for gid in range(ORACLE_LANES)
        ]
        fast, advanced = run_streams(MemorySystem, streams)
        reference, _ = run_streams(AlwaysYieldMemorySystem, streams)
        assert fast == reference
        cus = [entry[3] for entry in fast["lanes"] if entry[2] == "cu"]
        assert sorted(cus) == [0] * 8 + [1] * 4
        assert fast["l1_hits"] and advanced > 0
