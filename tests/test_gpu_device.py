"""Unit tests for kernel launch, dispatch, and the wavefront executor."""

import pytest

from repro.gpu.compute_unit import ComputeUnit
from repro.gpu.device import Gpu, KernelLaunch
from repro.gpu.ops import (
    Atomic,
    Barrier,
    Compute,
    Do,
    L1Flush,
    LdsRead,
    LdsWrite,
    MemRead,
    MemWrite,
    Op,
    PollSleep,
    Sleep,
    WaitAll,
)
from repro.machine import MachineConfig, small_machine
from repro.memory.system import MemorySystem
from repro.sim.engine import Simulator


def make_system(config=None):
    sim = Simulator()
    config = config or small_machine()
    mem = MemorySystem(sim, config)
    gpu = Gpu(sim, config, mem)
    return sim, config, mem, gpu


def launch_and_run(sim, gpu, func, global_size, wg, args=()):
    def body():
        kernel = yield gpu.launch(KernelLaunch(func, global_size, wg, args))
        return kernel

    return sim.run_process(body())


class TestComputeUnit:
    def test_alloc_and_release(self):
        cu = ComputeUnit(0, 4)
        slots = cu.alloc_slots(3)
        assert len(slots) == 3
        assert cu.free_slots == 1
        cu.release_slot(slots[0])
        assert cu.free_slots == 2

    def test_insufficient_returns_none(self):
        cu = ComputeUnit(0, 2)
        assert cu.alloc_slots(3) is None

    def test_double_release_raises(self):
        cu = ComputeUnit(0, 2)
        (slot,) = cu.alloc_slots(1)
        cu.release_slot(slot)
        with pytest.raises(RuntimeError):
            cu.release_slot(slot)

    def test_bad_slot_raises(self):
        with pytest.raises(ValueError):
            ComputeUnit(0, 2).release_slot(5)

    def test_zero_alloc_raises(self):
        with pytest.raises(ValueError):
            ComputeUnit(0, 2).alloc_slots(0)


class TestLaunch:
    def test_all_work_items_execute(self):
        sim, _, _, gpu = make_system()
        seen = []

        def kern(ctx):
            yield Compute(10)
            seen.append(ctx.global_id)

        launch_and_run(sim, gpu, kern, 40, 8)
        assert sorted(seen) == list(range(40))

    def test_launch_overhead_charged(self):
        sim, config, _, gpu = make_system()

        def kern(ctx):
            yield Compute(0)

        launch_and_run(sim, gpu, kern, 1, 1)
        assert sim.now >= config.kernel_launch_ns

    def test_args_passed(self):
        sim, _, _, gpu = make_system()
        got = []

        def kern(ctx):
            yield Compute(1)
            got.append(ctx.args)

        launch_and_run(sim, gpu, kern, 2, 2, args=("a", 7))
        assert got == [("a", 7)] * 2

    def test_kernel_times_recorded(self):
        sim, _, _, gpu = make_system()

        def kern(ctx):
            yield Compute(100)

        kernel = launch_and_run(sim, gpu, kern, 4, 4)
        assert kernel.start_time is not None
        assert kernel.end_time > kernel.start_time

    def test_oversized_workgroup_rejected(self):
        sim, config, _, gpu = make_system()
        too_big = config.wavefront_width * config.wavefront_slots_per_cu + 1

        def kern(ctx):
            yield Compute(1)

        with pytest.raises(ValueError):
            launch_and_run(sim, gpu, kern, too_big, too_big)

    def test_more_groups_than_capacity_eventually_run(self):
        config = MachineConfig(
            num_cus=1, wavefront_slots_per_cu=2, wavefront_width=4,
            gpu_l2_lines=64, gpu_l1_lines=16,
        )
        sim, _, _, gpu = make_system(config)
        done = []

        def kern(ctx):
            yield Compute(100)
            done.append(ctx.group_id)

        # 8 groups of one wavefront each, only 2 resident at a time.
        launch_and_run(sim, gpu, kern, 32, 4)
        assert sorted(set(done)) == list(range(8))

    def test_utilization_returns_to_zero(self):
        sim, _, _, gpu = make_system()

        def kern(ctx):
            yield Compute(50)

        launch_and_run(sim, gpu, kern, 16, 8)
        for cu in gpu.cus:
            assert cu.free_slots == cu.num_slots

    def test_two_kernels_interleave(self):
        sim, _, _, gpu = make_system()
        seen = []

        def kern(ctx):
            yield Compute(100)
            seen.append(ctx.kernel.name)

        def body():
            first = gpu.launch(KernelLaunch(kern, 8, 8, (), "k1"))
            second = gpu.launch(KernelLaunch(kern, 8, 8, (), "k2"))
            yield first
            yield second

        sim.run_process(body())
        assert seen.count("k1") == 8 and seen.count("k2") == 8


class TestWavefrontOps:
    def test_compute_is_lockstep_max(self):
        sim, config, _, gpu = make_system()

        def kern(ctx):
            yield Compute(1000 if ctx.local_id == 0 else 10)

        launch_and_run(sim, gpu, kern, 4, 4)
        elapsed = sim.now - config.kernel_launch_ns
        assert elapsed == pytest.approx(1000 * config.gpu_cycle_ns)

    def test_sleep_op(self):
        sim, config, _, gpu = make_system()

        def kern(ctx):
            yield Sleep(12345)

        launch_and_run(sim, gpu, kern, 2, 2)
        assert sim.now == pytest.approx(config.kernel_launch_ns + 12345)

    def test_do_returns_value_to_lane(self):
        sim, _, _, gpu = make_system()
        got = []

        def kern(ctx):
            value = yield Do(lambda: ctx.global_id * 2)
            got.append(value)

        launch_and_run(sim, gpu, kern, 4, 4)
        assert sorted(got) == [0, 2, 4, 6]

    def test_memread_populates_caches(self):
        sim, _, mem, gpu = make_system()

        def kern(ctx):
            yield MemRead(0x8000, 64)

        launch_and_run(sim, gpu, kern, 1, 1)
        assert mem.l2.contains(0x8000 // 64)

    def test_memwrite_and_flush(self):
        sim, _, mem, gpu = make_system()

        def kern(ctx):
            yield MemWrite(0x9000, 128)
            yield L1Flush(0x9000, 128)

        launch_and_run(sim, gpu, kern, 1, 1)
        group_cu = 0
        assert not mem.l1s[group_cu].contains(0x9000 // 64)

    def test_atomic_charged_per_lane(self):
        sim, config, mem, gpu = make_system()

        def kern(ctx):
            yield Atomic("swap", 0x100 + ctx.local_id * 64)

        launch_and_run(sim, gpu, kern, 4, 4)
        assert mem.atomics.counts["swap"] == 4

    def test_barrier_synchronises_group(self):
        sim, _, _, gpu = make_system()
        order = []

        def kern(ctx):
            yield Compute(100 * (ctx.local_id + 1))
            order.append(("pre", ctx.local_id))
            yield Barrier()
            order.append(("post", ctx.local_id))

        launch_and_run(sim, gpu, kern, 4, 4)
        pre = [i for i, (phase, _) in enumerate(order) if phase == "pre"]
        post = [i for i, (phase, _) in enumerate(order) if phase == "post"]
        assert max(pre) < min(post)

    def test_barrier_across_wavefronts(self):
        config = small_machine()  # wavefront width 8
        sim, _, _, gpu = make_system(config)
        order = []

        def kern(ctx):
            if ctx.local_id < config.wavefront_width:
                yield Compute(5000)
            order.append(("pre", ctx.local_id))
            yield Barrier()
            order.append(("post", ctx.local_id))

        # Work-group of 16 = two wavefronts on the small machine.
        launch_and_run(sim, gpu, kern, 16, 16)
        pre = [i for i, (phase, _) in enumerate(order) if phase == "pre"]
        post = [i for i, (phase, _) in enumerate(order) if phase == "post"]
        assert max(pre) < min(post)

    def test_waitall_halts_until_events(self):
        sim, config, _, gpu = make_system()
        event = sim.event()
        woke_at = []

        def kern(ctx):
            yield WaitAll([event])
            woke_at.append(sim.now)

        def trigger():
            yield 50_000
            event.succeed()

        sim.process(trigger())
        launch_and_run(sim, gpu, kern, 1, 1)
        assert woke_at[0] >= 50_000 + config.halt_resume_ns

    def test_bad_yield_type_raises(self):
        sim, _, _, gpu = make_system()

        def kern(ctx):
            yield 42  # raw numbers are not ops inside kernels

        with pytest.raises(TypeError):
            launch_and_run(sim, gpu, kern, 1, 1)

    def test_base_op_is_not_executable(self):
        sim, _, _, gpu = make_system()

        def kern(ctx):
            yield Op()

        with pytest.raises(TypeError, match="non-op"):
            launch_and_run(sim, gpu, kern, 1, 1)

    def test_early_exit_lanes_dont_block_others(self):
        sim, _, _, gpu = make_system()
        done = []

        def kern(ctx):
            if ctx.local_id % 2 == 0:
                return
            yield Compute(10)
            done.append(ctx.local_id)

        launch_and_run(sim, gpu, kern, 8, 8)
        assert sorted(done) == [1, 3, 5, 7]


#: One instance of every concrete op; a new ``Op`` subclass must be
#: added here, which puts it under the dispatch test below.
SAMPLE_OPS = {
    Compute: lambda sim: Compute(3),
    MemRead: lambda sim: MemRead(0x1000, 8),
    MemWrite: lambda sim: MemWrite(0x1000, 8),
    Atomic: lambda sim: Atomic("swap", 0x2000),
    Barrier: lambda sim: Barrier(),
    Sleep: lambda sim: Sleep(5),
    # Two lanes poll, so the wavefront sleeps it like a Sleep.
    PollSleep: lambda sim: PollSleep(5, object(), 0x30, "done"),
    Do: lambda sim: Do(lambda: "done"),
    WaitAll: lambda sim: WaitAll([sim.event().succeed()]),
    LdsRead: lambda sim: LdsRead(0),
    LdsWrite: lambda sim: LdsWrite(4),
    L1Flush: lambda sim: L1Flush(0x1000, 64),
}


def concrete_op_classes():
    found, todo = [], [Op]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


class TestOpcodeDispatch:
    def test_every_concrete_op_has_a_distinct_opcode(self):
        classes = concrete_op_classes()
        assert set(classes) == set(SAMPLE_OPS)
        codes = [cls.opcode for cls in classes]
        assert len(set(codes)) == len(codes)
        assert Op.opcode not in codes

    @pytest.mark.parametrize("cls", list(SAMPLE_OPS), ids=lambda cls: cls.__name__)
    def test_wavefront_run_handles_every_opcode(self, cls):
        sim, _, _, gpu = make_system()
        after = []

        def kern(ctx):
            value = yield SAMPLE_OPS[cls](sim)
            after.append((ctx.local_id, value))

        launch_and_run(sim, gpu, kern, 2, 2)
        expected = "done" if cls is Do else None
        assert after == [(0, expected), (1, expected)]
        assert gpu.wavefront_stats["lane_ops"] == 4
