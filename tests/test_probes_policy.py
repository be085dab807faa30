"""Tests for policy hooks: the chain contract, the sysfs knobs as hook
clients, and the three decision points (coalescing, workqueue, page
cache).  Includes the Figure 10 sensitivity-point reproduction through
the hook path."""

import pytest

from repro.core.coalescing import CoalescingConfig
from repro.experiments.fig10_coalescing import COALESCE, latency_per_byte
from repro.machine import MachineConfig, small_machine
from repro.oskernel.errors import Errno, OsError
from repro.oskernel.fs import O_RDWR
from repro.oskernel.workqueue import WorkQueue
from repro.probes.policy import PolicyHook, choose, fixed
from repro.probes.tracepoints import StreamRecorder, attached
from repro.sim.engine import Simulator
from repro.system import System


class TestPolicyHook:
    def test_inactive_by_default(self):
        hook = PolicyHook("h")
        assert hook.active is False

    def test_none_keeps_default(self):
        hook = PolicyHook("h")
        hook.attach(lambda current: None)
        assert hook.decide(42) == 42
        assert hook.decisions == 1
        assert hook.overrides == 0

    def test_fixed_overrides_and_counts(self):
        hook = PolicyHook("h")
        hook.attach(fixed(7))
        assert hook.decide(42) == 7
        assert hook.overrides == 1

    def test_chain_later_program_sees_earlier_choice(self):
        hook = PolicyHook("h")
        seen = []
        hook.attach(fixed(10))
        hook.attach(choose(lambda current: seen.append(current) or current * 2))
        assert hook.decide(1) == 20
        assert seen == [10]

    def test_override_to_same_value_not_counted(self):
        hook = PolicyHook("h")
        hook.attach(fixed(42))
        assert hook.decide(42) == 42
        assert hook.overrides == 0

    def test_detach_last_deactivates(self):
        hook = PolicyHook("h")
        program = hook.attach(fixed(1))
        hook.detach(program)
        assert hook.active is False

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            PolicyHook("h").attach(123)

    def test_fixed_is_introspectable(self):
        assert fixed(99).policy_value == 99


# -- sysfs knobs: validated clients of the coalescing hooks ---------------


def make_system():
    return System(
        config=small_machine(),
        coalescing=CoalescingConfig(window_ns=5000, max_batch=4),
    )


def write_sysfs(system, path, payload: bytes):
    mem = system.memsystem
    proc = system.host

    def body():
        fd = yield from system.kernel.call(proc, "open", path, O_RDWR)
        buf = mem.alloc_buffer(max(len(payload), 1))
        buf.data[: len(payload)] = payload
        yield from system.kernel.call(proc, "write", fd, buf, len(payload))
        yield from system.kernel.call(proc, "close", fd)

    system.sim.run_process(body())


WINDOW = "/sys/genesys/coalescing_window_ns"
BATCH = "/sys/genesys/coalescing_max_batch"


class TestSysfsValidation:
    @pytest.mark.parametrize(
        "path,payload",
        [
            (WINDOW, b"not-a-number"),
            (WINDOW, b"-1"),
            (WINDOW, b"nan"),
            (WINDOW, b"1e18"),  # beyond MAX_WINDOW_NS
            (BATCH, b"0"),
            (BATCH, b"-3"),
            (BATCH, b"2.5"),  # batch is an integer knob
            (BATCH, b"999999999"),  # beyond MAX_BATCH
        ],
    )
    def test_bad_writes_fail_einval(self, path, payload):
        system = make_system()
        with pytest.raises(OsError) as exc:
            write_sysfs(system, path, payload)
        assert exc.value.errno == Errno.EINVAL

    def test_bad_write_leaves_config_untouched(self):
        system = make_system()
        with pytest.raises(OsError):
            write_sysfs(system, WINDOW, b"-5")
        assert system.genesys.coalescing.window_ns == 5000

    def test_valid_writes_update_hook_defaults(self):
        system = make_system()
        write_sysfs(system, WINDOW, b"20000")
        write_sysfs(system, BATCH, b"16")
        assert system.genesys.coalescing.window_ns == 20000
        assert system.genesys.coalescing.max_batch == 16
        # The coalescer decides from the same config object.
        assert system.genesys.coalescer.config.max_batch == 16

    def test_whitespace_tolerated(self):
        system = make_system()
        write_sysfs(system, WINDOW, b" 7500\n")
        assert system.genesys.coalescing.window_ns == 7500


# -- wq.worker: pin tasks to one worker -----------------------------------


class TestWorkerSelectionHook:
    def test_pinning_serialises_tasks(self):
        sim = Simulator()
        config = MachineConfig(workqueue_workers=4)
        wq = WorkQueue(sim, config)
        wq.hook_worker.attach(fixed(0))
        running = {"now": 0, "max": 0}

        def task():
            running["now"] += 1
            running["max"] = max(running["max"], running["now"])
            yield 100
            running["now"] -= 1

        for _ in range(8):
            wq.submit(lambda: task())
        sim.run()
        assert wq.completed == 8
        assert running["max"] == 1  # all pinned to worker 0
        assert wq.hook_worker.decisions == 8

    def test_invalid_choice_falls_back_to_shared_queue(self):
        sim = Simulator()
        config = MachineConfig(workqueue_workers=2)
        wq = WorkQueue(sim, config)
        wq.hook_worker.attach(fixed(99))  # out of range -> shared FIFO
        done = []

        def task():
            yield 10
            done.append(sim.now)

        for _ in range(4):
            wq.submit(lambda: task())
        sim.run()
        assert len(done) == 4

    def test_round_robin_policy_spreads_load(self):
        sim = Simulator()
        config = MachineConfig(workqueue_workers=2)
        wq = WorkQueue(sim, config)
        wq.hook_worker.attach(choose(lambda current, index, n: index % n))
        workers = []
        wq.tp_complete.attach(
            lambda worker_id, service_ns, task_index: workers.append(worker_id)
        )

        def task():
            yield 50

        for _ in range(4):
            wq.submit(lambda: task())
        sim.run()
        assert sorted(workers) == [0, 0, 1, 1]

    def test_backlog_counts_shared_and_every_private_queue(self):
        # The backlog sums only queues a policy ever pinned to; that
        # must equal the shared queue plus all private queues at every
        # wq.enqueue / wq.depth fire, also once the policy is detached
        # while pinned tasks still wait.
        sim = Simulator()
        wq = WorkQueue(sim, MachineConfig(workqueue_workers=4))
        recorder = StreamRecorder(wq.probes).attach("wq.enqueue", "wq.depth")
        queues = []  # (shared, private, detached) at each fire
        phase = {"detached": False}

        def count_queues(*_args):
            private = sum(len(queue) for queue in wq._private)
            queues.append((len(wq._tasks), private, phase["detached"]))

        wq.tp_enqueue.attach(count_queues)
        wq.tp_depth.attach(count_queues)
        pin = choose(lambda current, index, n: None if index % 4 == 3 else index % 3)
        wq.hook_worker.attach(pin)

        def task():
            yield 500

        def driver():
            for _ in range(12):
                wq.submit(task)
            yield 100
            wq.hook_worker.detach(pin)
            phase["detached"] = True
            for _ in range(6):
                wq.submit(task)

        sim.process(driver())
        sim.run()
        assert wq.completed == 18
        backlogs = [args[0] for _t, _name, args in recorder.events]
        assert backlogs == [shared + private for shared, private, _ in queues]
        assert any(private and detached for _, private, detached in queues)
        assert wq.backlog == 0

    def test_shared_path_unchanged_when_inactive(self):
        sim = Simulator()
        wq = WorkQueue(sim, MachineConfig())
        stamps = []

        def task():
            stamps.append(sim.now)
            yield 0

        wq.submit(lambda: task())
        sim.run()
        assert stamps[0] >= wq.config.workqueue_dispatch_ns
        assert wq.hook_worker.decisions == 0


# -- fs.pagecache.victim: choose the eviction victim ----------------------


class TestPageCacheVictimHook:
    def make_fs_system(self, capacity=4):
        config = small_machine()
        config.page_cache_pages = capacity
        return System(config=config)

    def test_default_evicts_lru_head(self):
        system = self.make_fs_system(capacity=2)
        fs = system.kernel.fs
        fs.create_file("/data/f", b"x" * 100, on_disk=True)
        inode = fs.resolve("/data/f")
        inode.cached_pages.clear()
        fs._page_lru.clear()
        fs._cache_insert(inode, [0, 1, 2])
        assert 0 not in inode.cached_pages  # oldest page evicted
        assert inode.cached_pages == {1, 2}

    def test_hook_picks_mru_victim_instead(self):
        system = self.make_fs_system(capacity=2)
        fs = system.kernel.fs
        fs.hook_pc_victim.attach(choose(lambda current, candidates: candidates[-1]))
        fs.create_file("/data/f", b"x" * 100, on_disk=True)
        inode = fs.resolve("/data/f")
        inode.cached_pages.clear()
        fs._page_lru.clear()
        fs._cache_insert(inode, [0, 1, 2])
        assert 2 not in inode.cached_pages  # newest page evicted (MRU policy)
        assert inode.cached_pages == {0, 1}
        assert fs.hook_pc_victim.decisions == 1

    def test_invalid_victim_falls_back_to_lru(self):
        system = self.make_fs_system(capacity=2)
        fs = system.kernel.fs
        fs.hook_pc_victim.attach(fixed(("bogus", 42)))
        fs.create_file("/data/f", b"x" * 100, on_disk=True)
        inode = fs.resolve("/data/f")
        inode.cached_pages.clear()
        fs._page_lru.clear()
        fs._cache_insert(inode, [0, 1, 2])
        assert inode.cached_pages == {1, 2}


# -- Figure 10 sensitivity point through the hook path --------------------


def attach_coalesce_policies(registry):
    registry.attach_policy("coalesce.window", fixed(COALESCE.window_ns))
    registry.attach_policy("coalesce.batch", fixed(COALESCE.max_batch))


class TestCoalescingHookReproducesFig10:
    def test_hook_equals_config_at_sensitivity_point(self):
        """Attaching fixed(window)/fixed(batch) to the coalescing hooks
        reproduces the Fig. 10 coalesce<=8 point exactly: the hook path
        and the config/sysfs path meet at the same decision."""
        via_config = latency_per_byte(64, COALESCE)
        with attached(attach_coalesce_policies):
            via_hooks = latency_per_byte(64, None)
        assert via_hooks == via_config

    def test_hook_point_differs_from_uncoalesced(self):
        uncoalesced = latency_per_byte(64, None)
        with attached(attach_coalesce_policies):
            via_hooks = latency_per_byte(64, None)
        assert via_hooks != uncoalesced  # the hook really steered the run

    def test_hook_can_disable_coalescing(self):
        def disable(registry):
            registry.attach_policy("coalesce.window", fixed(0.0))

        plain = latency_per_byte(64, None)
        with attached(disable):
            disabled = latency_per_byte(64, COALESCE)
        assert disabled == plain
