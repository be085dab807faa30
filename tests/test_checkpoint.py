"""repro.sim.snapshot: checkpoint/restore determinism.

A restored machine must be indistinguishable from the machine that was
checkpointed: same outputs, same ``stats()``, same tracepoint streams,
same simulated clock — byte for byte.  The tests drive the fig2
walkthrough shape, grep, and memcached through checkpoints with and
without observers (StreamRecorder, SpanTracer, GSan) attached, and
nail down the failure modes: version mismatches, non-quiescent
machines, and unpicklable attachments are rejected loudly.
"""

import hashlib
import json

import pytest

from repro.sanitizers.gsan import GSan
from repro.sim import snapshot
from repro.sim.snapshot import CheckpointError
from repro.probes.tracepoints import StreamRecorder
from repro.system import System
from repro.tracing.spans import SpanTracer
from repro.workloads.grepwl import GrepWorkload
from repro.workloads.memcachedwl import MemcachedWorkload

# Small-but-real memcached shape: fast to fill, still exercises the
# whole GENESYS networking path when served.
SMALL_TABLE = dict(
    num_buckets=4, elems_per_bucket=64, value_bytes=64, num_requests=8
)


def warm_memcached(**overrides):
    """Build a System with a filled memcached table, quiesced."""
    system = System()
    workload = MemcachedWorkload(system, **{**SMALL_TABLE, **overrides})
    system.sim.run()
    return system, workload


def serve_outcome(system, workload):
    """Serve the workload's request batch; return the comparable tuple
    (replies, runtime_ns, genesys stats, clock)."""
    result = workload.run_genesys()
    return (
        sorted(result.metrics["replies"].items()),
        result.runtime_ns,
        system.genesys.stats(),
        system.sim.now,
    )


class TestMemcachedRoundTrip:
    def test_resumed_serve_is_byte_identical(self):
        system, workload = warm_memcached()
        blob = system.checkpoint(extra=workload)

        straight = serve_outcome(system, workload)

        restored = snapshot.load(blob)
        resumed = serve_outcome(restored.system, restored.extra)

        assert resumed == straight
        # The replies really carry data (not trivially equal-and-empty).
        assert len(straight[0]) > 0
        assert all(value for _, value in straight[0])

    def test_manifest_describes_the_snapshot(self):
        system, workload = warm_memcached()
        checkpoint_ns = system.sim.now
        blob = system.checkpoint(extra=workload)

        header = snapshot.manifest(blob)
        assert header["format"] == "repro-snapshot"
        assert header["version"] == snapshot.SNAPSHOT_VERSION
        assert header["sim_now_ns"] == checkpoint_ns
        assert header["has_extra"] is True
        assert header["payload_bytes"] > 0

    def test_default_warm_table_is_pinned(self):
        """The default memcached table, filled and checkpointed at t=0,
        restores to exactly this content."""
        system = System()
        workload = MemcachedWorkload(system)
        system.sim.run()
        blob = system.checkpoint(extra=workload)

        header = snapshot.manifest(blob)
        assert header["version"] == 1
        assert header["sim_now_ns"] == 0
        digest = hashlib.sha256()
        for bucket in snapshot.load(blob).extra.table.buckets:
            for key, value in bucket:
                digest.update(key)
                digest.update(value)
        assert digest.hexdigest() == (
            "b8d1bb683c2ee84271347670a21941170cef5cfccf1a0082c3537cb9ebff7ab5"
        )

    def test_checkpoint_to_path_round_trips(self, tmp_path):
        system, workload = warm_memcached()
        target = tmp_path / "warm.snap"
        blob = system.checkpoint(path=str(target), extra=workload)
        assert target.read_bytes() == blob

        from_file = snapshot.load(str(target))
        from_bytes = snapshot.load(blob)
        assert serve_outcome(
            from_file.system, from_file.extra
        ) == serve_outcome(from_bytes.system, from_bytes.extra)


class TestGrepRoundTrip:
    def test_resumed_grep_is_byte_identical(self):
        system = System()
        workload = GrepWorkload(system, num_files=6, file_bytes=4096)
        system.sim.run()
        blob = system.checkpoint(extra=workload)

        straight = workload.run_genesys()
        straight_stats = system.genesys.stats()

        restored = snapshot.load(blob)
        resumed = restored.extra.run_genesys()

        assert resumed.runtime_ns == straight.runtime_ns
        assert resumed.metrics == straight.metrics
        assert restored.system.genesys.stats() == straight_stats
        assert restored.system.sim.now == system.sim.now


class TestWalkthroughOnRestoredMachine:
    """The fig2 shape — one blocking pread, every slot transition
    recorded — replayed on a restored pristine machine."""

    @staticmethod
    def _pread_walkthrough(system):
        system.kernel.fs.create_file("/tmp/one", b"W" * 512)
        buf = system.memsystem.alloc_buffer(512)
        log = []
        got = {}

        def recorder(when, slot, old, new, actor):
            log.append((when, old.value, new.value, actor))

        for slot in system.genesys.area.slots:
            slot.on_transition = recorder

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/one")
            got["n"] = yield from ctx.sys.pread(fd, buf, 512, 0)

        def body():
            yield system.launch(kern, 1, 1)

        start = system.now
        system.run_to_completion(body())
        return log, system.now - start, got["n"]

    def test_transition_log_identical(self):
        fresh = System()
        fresh.sim.run()  # park the workqueue, mirroring the snapshot path

        donor = System()
        donor.sim.run()
        restored = snapshot.load(donor.checkpoint())

        fresh_run = self._pread_walkthrough(fresh)
        restored_run = self._pread_walkthrough(restored.system)
        assert restored_run == fresh_run
        log, total_ns, nbytes = restored_run
        assert nbytes == 512
        assert total_ns > 0
        assert len(log) > 0


class TestObserversRideTheCheckpoint:
    def test_stream_recorder_resumes_the_same_stream(self):
        system, workload = warm_memcached()
        recorder = StreamRecorder(system.probes).attach("syscall.*", "wq.*")
        blob = system.checkpoint(extra=(workload, recorder))
        prefix_len = len(recorder.events)

        workload.run_genesys()
        straight_events = list(recorder.events)

        restored = snapshot.load(blob)
        _, resumed_recorder = restored.extra
        assert resumed_recorder.events == straight_events[:prefix_len]
        restored.extra[0].run_genesys()
        assert resumed_recorder.events == straight_events
        assert len(straight_events) > prefix_len  # serving did fire events

    def test_span_tracer_resumes_identically(self):
        system, workload = warm_memcached()
        tracer = SpanTracer(system.probes).install()
        blob = system.checkpoint(extra=(workload, tracer))

        workload.run_genesys()
        straight = [
            (t.invocation_id, t.name, t.granularity, t.marks)
            for t in tracer.completed
        ]

        restored = snapshot.load(blob)
        _, resumed_tracer = restored.extra
        assert resumed_tracer in restored.system.probes.programs
        restored.extra[0].run_genesys()
        resumed = [
            (t.invocation_id, t.name, t.granularity, t.marks)
            for t in resumed_tracer.completed
        ]
        assert resumed == straight
        assert len(straight) > 0

    def test_gsan_resumes_identically_and_green(self):
        system, workload = warm_memcached()
        sanitizer = GSan().install(system.probes)
        blob = system.checkpoint(extra=(workload, sanitizer))

        workload.run_genesys()
        straight = (sanitizer.events, dict(sanitizer.clocks))
        assert sanitizer.violations == []

        restored = snapshot.load(blob)
        _, resumed_sanitizer = restored.extra
        restored.extra[0].run_genesys()
        assert (resumed_sanitizer.events, dict(resumed_sanitizer.clocks)) == straight
        assert resumed_sanitizer.violations == []
        assert resumed_sanitizer.events > 0

    def test_gsan_checkpointed_after_a_batch_resumes_identically(self):
        # After a served batch the taps are bound and every scope's
        # timeline holds raw events; all of it rides the checkpoint.
        system, workload = warm_memcached()
        sanitizer = GSan().install(system.probes)
        workload.run_genesys()
        checkpoint_ns = system.sim.now
        assert sanitizer.events > 0 and sanitizer.violations == []
        blob = system.checkpoint(extra=(workload, sanitizer))

        def serve_and_report(system, workload, sanitizer):
            workload.run_genesys()
            # An illegal edge on a slot both batches used makes the
            # report render a timeline spanning the checkpoint.
            sanitizer.feed(
                "slot.transition", system.sim.now, 0, "ready", "processing", "cpu"
            )
            sanitizer.finish()
            timelines = [v.timeline for v in sanitizer.violations]
            report = sanitizer.report()
            return sanitizer.events, dict(sanitizer.clocks), report, timelines

        straight = serve_and_report(system, workload, sanitizer)
        restored = snapshot.load(blob)
        resumed = serve_and_report(restored.system, *restored.extra)
        assert resumed == straight
        timeline = straight[3][0]  # the illegal edge; a slot leak follows
        assert timeline[-1][1:] == (
            "slot.transition", "0, 'ready', 'processing', 'cpu'", "cpu", True
        )
        assert any(t < checkpoint_ns for t, *_ in timeline)
        assert any(t > checkpoint_ns for t, *_ in timeline)


class TestRestoreFixups:
    def test_proc_and_sysfs_files_rebound(self):
        system, workload = warm_memcached()
        fs = system.kernel.fs
        paths = ["/proc/meminfo", "/sys/genesys/coalescing_window_ns"]
        paths += [
            f"/proc/{pid}/status" for pid in system.kernel.processes
        ]
        before = {path: fs.read_whole(path) for path in paths}

        restored = snapshot.load(system.checkpoint(extra=workload))
        restored_fs = restored.system.kernel.fs
        for path, content in before.items():
            assert restored_fs.read_whole(path) == content, path
        # Writable sysfs knobs got their write side back too.
        knob = restored_fs.resolve("/sys/genesys/coalescing_window_ns")
        assert knob.write_fn is not None

    def test_identity_counters_continue_not_restart(self):
        system, workload = warm_memcached()
        blob = system.checkpoint(extra=workload)
        counters = snapshot.manifest(blob)["counters"]

        restored = snapshot.load(blob)
        inode = restored.system.kernel.fs.create_file("/tmp/next", b"x")
        assert inode.ino == counters["inode_next_ino"]


class TestRejections:
    def test_version_mismatch_rejected(self):
        system, _ = warm_memcached()
        blob = system.checkpoint()
        newline = blob.find(b"\n")
        header = json.loads(blob[:newline])
        header["version"] = snapshot.SNAPSHOT_VERSION + 1
        tampered = json.dumps(header, sort_keys=True).encode() + blob[newline:]
        with pytest.raises(CheckpointError, match="version mismatch"):
            snapshot.load(tampered)

    def test_garbage_blob_rejected(self):
        with pytest.raises(CheckpointError, match="not a repro snapshot"):
            snapshot.load(b"definitely not a snapshot")

    def test_non_quiescent_machine_rejected(self):
        system, _ = warm_memcached()
        system.sim.wake_at(system.sim.now + 1000.0)
        with pytest.raises(CheckpointError, match="still scheduled"):
            system.checkpoint()

    def test_unpicklable_observer_rejected(self):
        system, _ = warm_memcached()
        system.probes.attach("syscall.claim", lambda *args: None)
        with pytest.raises(CheckpointError, match="unpicklable"):
            system.checkpoint()
