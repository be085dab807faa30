"""Tests for repro.probes: tracepoints, the registry, and attach plans."""

import pytest

from repro.machine import small_machine
from repro.probes.tracepoints import (
    NULL_TRACEPOINT,
    ProbeRegistry,
    Tracepoint,
    attached,
)
from repro.system import System


class TestTracepoint:
    def test_starts_detached(self):
        tp = Tracepoint("t", ("a", "b"))
        assert tp.enabled is False
        assert tp.observers == 0
        assert tp.hits == 0
        assert tp.args == ("a", "b")

    def test_attach_enables_and_fire_delivers(self):
        tp = Tracepoint("t")
        got = []
        tp.attach(lambda *vals: got.append(vals))
        assert tp.enabled is True
        tp.fire(1, "x")
        assert got == [(1, "x")]
        assert tp.hits == 1

    def test_observers_run_in_attach_order(self):
        tp = Tracepoint("t")
        order = []
        tp.attach(lambda: order.append("first"))
        tp.attach(lambda: order.append("second"))
        tp.fire()
        assert order == ["first", "second"]

    def test_detach_last_observer_disables(self):
        tp = Tracepoint("t")
        obs = tp.attach(lambda: None)
        tp.detach(obs)
        assert tp.enabled is False
        assert tp.observers == 0

    def test_detach_unknown_is_ignored(self):
        tp = Tracepoint("t")
        tp.attach(lambda: None)
        tp.detach(lambda: None)  # never attached
        assert tp.enabled is True

    def test_detach_all(self):
        tp = Tracepoint("t")
        tp.attach(lambda: None)
        tp.attach(lambda: None)
        tp.detach_all()
        assert tp.enabled is False
        assert tp.observers == 0

    def test_non_callable_observer_rejected(self):
        tp = Tracepoint("t")
        with pytest.raises(TypeError):
            tp.attach("not callable")

    def test_null_tracepoint_refuses_attach(self):
        assert NULL_TRACEPOINT.enabled is False
        with pytest.raises(RuntimeError):
            NULL_TRACEPOINT.attach(lambda: None)


class TestProbeRegistry:
    def test_declaration_is_idempotent(self):
        reg = ProbeRegistry()
        first = reg.tracepoint("a.b", ("x",), "doc")
        again = reg.tracepoint("a.b")
        assert first is again
        assert again.args == ("x",)  # first declaration wins

    def test_hook_declaration_is_idempotent(self):
        reg = ProbeRegistry()
        assert reg.hook("h") is reg.hook("h")

    def test_get_unknown_names_known_ones(self):
        reg = ProbeRegistry()
        reg.tracepoint("known.tp")
        with pytest.raises(KeyError, match="known.tp"):
            reg.get("nope")
        with pytest.raises(KeyError):
            reg.get_hook("nope")

    def test_match_star_prefix_and_exact(self):
        reg = ProbeRegistry()
        for name in ("irq.raised", "irq.serviced", "wq.enqueue"):
            reg.tracepoint(name)
        assert [t.name for t in reg.match("*")] == [
            "irq.raised",
            "irq.serviced",
            "wq.enqueue",
        ]
        assert [t.name for t in reg.match("irq.*")] == ["irq.raised", "irq.serviced"]
        assert [t.name for t in reg.match("wq.enqueue")] == ["wq.enqueue"]

    def test_attach_records_programs_with_bind(self):
        from repro.probes.programs import CounterProbe

        reg = ProbeRegistry()
        reg.tracepoint("t")
        probe = CounterProbe(reg)
        reg.attach("t", probe)
        assert reg.programs == [probe]
        assert probe.tracepoint is reg.tracepoints["t"]
        # A bare callable is an observer but not an exported program.
        reg.attach("t", lambda *vals: None)
        assert reg.programs == [probe]

    def test_detach_all_clears_everything(self):
        reg = ProbeRegistry()
        tp = reg.tracepoint("t")
        hook = reg.hook("h")
        reg.attach("t", lambda: None)
        reg.attach_policy("h", lambda current: None)
        reg.detach_all()
        assert tp.enabled is False
        assert hook.active is False
        assert reg.programs == []

    def test_now_without_simulator_is_zero(self):
        assert ProbeRegistry().now() == 0.0

    def test_catalogue_lists_kind_args_doc(self):
        reg = ProbeRegistry()
        reg.tracepoint("t", ("v",), "a tracepoint")
        reg.hook("h", ("w",), "a hook")
        cat = reg.catalogue()
        assert cat["t"] == {"kind": "tracepoint", "args": ["v"], "doc": "a tracepoint"}
        assert cat["h"] == {"kind": "hook", "args": ["w"], "doc": "a hook"}


class TestSystemCatalogue:
    """The issue asks for 15-20 tracepoints woven through the stack."""

    EXPECTED_TRACEPOINTS = {
        "syscall.submit",
        "syscall.dispatch",
        "syscall.complete",
        "coalesce.flush",
        "irq.raised",
        "irq.serviced",
        "irq.unhandled",
        "wq.enqueue",
        "wq.dequeue",
        "wq.complete",
        "fs.pagecache.hit",
        "fs.pagecache.miss",
        "fs.pagecache.evict",
        "net.tx",
        "net.rx",
        "net.drop",
        "wavefront.halt",
        "wavefront.resume",
        "gpu.slots.alloc",
        "gpu.slots.release",
        "mem.l1.hit",
        "mem.l1.miss",
        "mem.l2.hit",
        "mem.l2.miss",
        "dram.access",
        "dram.stall",
        # gauge-grade fire sites added for the repro.metrics plane
        "syscall.inflight",
        "gpu.wf.occupancy",
        "gpu.lanes.runnable",
        "wq.depth",
        "wq.busy",
        "slot.occupancy",
        "fs.pagecache.resident",
        "net.backlog",
        "dram.queue",
    }
    EXPECTED_HOOKS = {
        "coalesce.window",
        "coalesce.batch",
        "wq.worker",
        "fs.pagecache.victim",
    }

    def test_every_layer_declares_its_points(self):
        system = System(config=small_machine())
        assert self.EXPECTED_TRACEPOINTS <= set(system.probes.tracepoints)
        assert self.EXPECTED_HOOKS <= set(system.probes.hooks)
        assert len(system.probes.tracepoints) >= 15

    def test_all_start_detached(self):
        system = System(config=small_machine())
        assert not any(tp.enabled for tp in system.probes.tracepoints.values())
        assert not any(h.active for h in system.probes.hooks.values())


class TestAttached:
    def test_plans_apply_only_inside_scope(self):
        seen = []
        System(config=small_machine())
        with attached(seen.append):
            system = System(config=small_machine())
            assert seen == [system.probes]
        System(config=small_machine())
        assert seen == [system.probes]

    def test_plan_can_attach_by_name(self):
        from repro.probes.programs import CounterProbe

        def plan(registry):
            registry.attach("irq.raised", CounterProbe(registry))

        with attached(plan):
            system = System(config=small_machine())
        assert system.probes.get("irq.raised").enabled is True
        assert len(system.probes.programs) == 1

    def test_nested_scopes_apply_outer_then_inner(self):
        order = []
        with attached(lambda registry: order.append("outer")):
            with attached(
                lambda registry: order.append("inner-1"),
                lambda registry: order.append("inner-2"),
            ):
                System(config=small_machine())
        assert order == ["outer", "inner-1", "inner-2"]

    def test_leaving_inner_scope_keeps_outer_plan(self):
        outer, inner = [], []
        with attached(outer.append):
            with attached(inner.append):
                System(config=small_machine())
            last = System(config=small_machine())
        assert len(inner) == 1
        assert outer[-1] is last.probes and len(outer) == 2

    def test_exception_in_body_pops_plans(self):
        seen = []
        with pytest.raises(RuntimeError):
            with attached(seen.append):
                raise RuntimeError("body failed")
        System(config=small_machine())
        assert seen == []
