"""GSan: the vector-clock slot-protocol sanitizer.

Covers the three contracts separately: (1) attached to a live system
it is a pure observer — byte-identical output, zero violations on
healthy runs; (2) fed replayed streams it flags each protocol/ordering
bug class; (3) its reporting surface (timelines, snapshot, plan
aggregation) holds its shape.
"""

import pytest

from repro import experiments
from repro.core.invocation import Granularity
from repro.machine import small_machine
from repro.probes.tracepoints import attached
from repro.sanitizers import cli as sanitizers_cli
from repro.sanitizers.gsan import (
    AGENTS,
    GSAN_SNAPSHOT_SCHEMA,
    SLOT_EDGES,
    GSan,
    GSanPlan,
)
from repro.system import System

# A representative slice of the sweep; the full 20-experiment pass is
# the ``all`` row of ``tests/test_determinism_matrix.py`` — fig13a is in
# the slice because its submit-fire lag once produced false positives.
SAMPLE_EXPERIMENTS = ["fig2", "fig7", "fig13a"]


def run_with_gsan(name):
    plan = GSanPlan()
    with attached(plan):
        rendered = experiments.run(name).render()
    return rendered, plan


class TestLiveObserver:
    @pytest.mark.parametrize("name", SAMPLE_EXPERIMENTS)
    def test_experiment_byte_identical_and_clean(self, name, bare_render):
        sanitized, plan = run_with_gsan(name)
        assert sanitized == bare_render(name)
        assert plan.finish() == []
        assert plan.events > 0

    def test_check_command_passes(self, capsys):
        assert sanitizers_cli.main(["check", "--experiments", "fig2"]) == 0
        assert "ok   fig2: byte-identical" in capsys.readouterr().out

    def test_small_kernel_clean_with_events(self):
        system = System(config=small_machine())
        sanitizer = GSan().install(system.probes)

        def kern(ctx):
            yield from ctx.sys.getrusage(
                granularity=Granularity.WORK_ITEM, blocking=True
            )

        system.run_kernel(kern, 4, 4, name="gsan-clean")
        assert sanitizer.finish() == []
        assert sanitizer.events > 0
        # The full protocol walked: every agent's clock advanced.
        assert all(sanitizer.clocks[agent] > 0 for agent in ("gpu", "cpu"))

    def test_installed_as_probe_program(self):
        system = System(config=small_machine())
        sanitizer = GSan().install(system.probes)
        assert sanitizer in system.probes.programs
        snap = sanitizer.snapshot()
        assert snap["schema"] == GSAN_SNAPSHOT_SCHEMA
        assert snap["kind"] == "sanitizer"


class TestReplayedStreams:
    def test_legal_walk_is_clean(self):
        sanitizer = GSan()
        sanitizer.feed("slot.transition", 0.0, 0, "free", "populating", "gpu")
        sanitizer.feed("slot.transition", 5.0, 0, "populating", "ready", "gpu")
        sanitizer.feed("slot.transition", 10.0, 0, "ready", "processing", "cpu")
        sanitizer.feed("slot.transition", 20.0, 0, "processing", "finished", "cpu")
        sanitizer.feed("slot.transition", 30.0, 0, "finished", "free", "gpu")
        assert sanitizer.finish() == []

    def test_watchdog_reclaim_edges_are_legal(self):
        for old, new in (("ready", "finished"), ("processing", "free")):
            sanitizer = GSan()
            sanitizer.feed("slot.transition", 0.0, 0, "free", "populating", "gpu")
            sanitizer.feed("slot.transition", 1.0, 0, "populating", "ready", "gpu")
            if old == "processing":
                sanitizer.feed(
                    "slot.transition", 2.0, 0, "ready", "processing", "cpu"
                )
            sanitizer.feed("slot.transition", 9.0, 0, old, new, "watchdog")
            assert not [
                v for v in sanitizer.violations if v.rule == "wrong-agent"
            ]

    def test_skipped_state_flags_slot_state(self):
        sanitizer = GSan()
        sanitizer.feed("slot.transition", 0.0, 0, "free", "ready", "gpu")
        assert "slot-state" in sanitizer.rules_hit()

    def test_gpu_driving_cpu_edge_flags_wrong_agent(self):
        sanitizer = GSan()
        sanitizer.feed("slot.transition", 0.0, 0, "free", "populating", "gpu")
        sanitizer.feed("slot.transition", 1.0, 0, "populating", "ready", "gpu")
        sanitizer.feed("slot.transition", 2.0, 0, "ready", "processing", "gpu")
        assert "wrong-agent" in sanitizer.rules_hit()

    def test_stale_finish_is_defended_not_flagged(self):
        sanitizer = GSan()
        sanitizer.feed(
            "slot.protocol_error", 5.0, 0, "finish", "cpu",
            "stale finish refused: request generation moved on",
        )
        assert sanitizer.violations == []
        assert sanitizer.defended_races == 1

    def test_other_protocol_errors_are_flagged(self):
        sanitizer = GSan()
        sanitizer.feed(
            "slot.protocol_error", 5.0, 0, "finish", "cpu",
            "finish on slot in state FREE",
        )
        assert "protocol-error" in sanitizer.rules_hit()

    def test_dispatch_after_claim_without_submit_is_legal(self):
        # syscall.submit is an accounting fire scheduled after the real
        # READY swap; a claimed invocation may be dispatched before it.
        sanitizer = GSan()
        sanitizer.feed(
            "syscall.claim", 0.0, 7, "read", 0, 0, "work-item", True, "poll"
        )
        sanitizer.feed("syscall.dispatch", 5.0, "read", 0, 7)
        sanitizer.feed("syscall.submit", 9.0, "work-item", 7, "read", 0, True)
        sanitizer.feed("syscall.complete", 20.0, "read", 0, 15.0, 7, True)
        sanitizer.feed("syscall.resume", 25.0, 7, "read", 0)
        assert sanitizer.finish() == []

    def test_dispatch_of_unknown_invocation_flags(self):
        sanitizer = GSan()
        sanitizer.feed("syscall.dispatch", 5.0, "read", 0, 99)
        assert "acquire-before-release" in sanitizer.rules_hit()

    def test_resume_before_completion_flags(self):
        sanitizer = GSan()
        sanitizer.feed(
            "syscall.claim", 0.0, 1, "read", 0, 0, "work-item", True, "poll"
        )
        sanitizer.feed("syscall.resume", 5.0, 1, "read", 0)
        assert "acquire-before-release" in sanitizer.rules_hit()

    def test_double_halt_flags_lost_wakeup(self):
        sanitizer = GSan()
        sanitizer.feed("wavefront.halt", 0.0, 3, 8)
        sanitizer.feed("wavefront.halt", 5.0, 3, 8)
        assert "lost-wakeup" in sanitizer.rules_hit()

    def test_acquire_joins_the_publishers_clock(self):
        sanitizer = GSan()
        sanitizer.feed("slot.transition", 0.0, 0, "free", "populating", "gpu")
        sanitizer.feed("slot.transition", 1.0, 0, "populating", "ready", "gpu")
        gpu_at_publish = sanitizer.clocks["gpu"]
        sanitizer.feed("slot.transition", 2.0, 0, "ready", "processing", "cpu")
        # The CPU inherited the GPU's causal past at the acquire.
        assert sanitizer.clocks["gpu"] >= gpu_at_publish


class TestEndOfRunAudit:
    def test_leaked_slot_names_the_acting_agent(self):
        # A slot wedged mid-protocol is only actionable if the audit
        # says who left it there: the last agent and the edge it drove.
        sanitizer = GSan()
        sanitizer.feed("slot.transition", 0.0, 0, "free", "populating", "gpu")
        sanitizer.feed("slot.transition", 1.0, 0, "populating", "ready", "gpu")
        leaks = [v for v in sanitizer.finish() if v.rule == "slot-leak"]
        assert len(leaks) == 1
        assert "last driven by gpu (populating->ready)" in leaks[0].message

    def test_leak_after_watchdog_reclaim_marks_the_race(self):
        sanitizer = GSan()
        sanitizer.feed("slot.transition", 0.0, 0, "free", "populating", "gpu")
        sanitizer.feed("slot.transition", 1.0, 0, "populating", "ready", "gpu")
        sanitizer.feed("slot.transition", 2.0, 0, "ready", "processing", "cpu")
        sanitizer.feed("recover.slot_reclaim", 9.0, 7, "read", 0, "processing")
        leaks = [v for v in sanitizer.finish() if v.rule == "slot-leak"]
        assert len(leaks) == 1
        assert "last driven by watchdog (reclaim)" in leaks[0].message
        assert "a watchdog reclaim raced this slot" in leaks[0].message

    def test_clock_snapshot_is_an_independent_copy(self):
        sanitizer = GSan()
        base = sanitizer.clock_snapshot()
        assert set(base) == set(AGENTS)
        sanitizer.feed("slot.transition", 0.0, 0, "free", "populating", "gpu")
        snap = sanitizer.clock_snapshot()
        assert snap["gpu"] == base["gpu"] + 1
        snap["gpu"] = 999  # mutating the copy must not touch the clocks
        assert sanitizer.clock_snapshot()["gpu"] == base["gpu"] + 1

    def test_rearm_resets_shadow_state_for_the_next_branch(self):
        sanitizer = GSan()
        sanitizer.feed("slot.transition", 0.0, 0, "free", "ready", "gpu")
        assert sanitizer.finish()
        assert sanitizer.rearm() is sanitizer
        assert sanitizer.events == 0
        assert sanitizer.violations == []
        assert all(v == 0 for v in sanitizer.clock_snapshot().values())
        # A fresh legal walk on the re-armed sanitizer stays clean.
        sanitizer.feed("slot.transition", 0.0, 0, "free", "populating", "gpu")
        sanitizer.feed("slot.transition", 5.0, 0, "populating", "ready", "gpu")
        sanitizer.feed("slot.transition", 10.0, 0, "ready", "processing", "cpu")
        sanitizer.feed("slot.transition", 20.0, 0, "processing", "finished", "cpu")
        sanitizer.feed("slot.transition", 30.0, 0, "finished", "free", "gpu")
        assert sanitizer.finish() == []

    def test_rearm_keeps_the_attached_observers(self):
        system = System()
        sanitizer = GSan().install(system.probes)
        assert sanitizer in system.probes.programs
        sanitizer.rearm()
        assert sanitizer in system.probes.programs
        assert sanitizer.registry is system.probes


class TestReportingSurface:
    def test_violation_render_marks_the_offender(self):
        sanitizer = GSan()
        sanitizer.feed("slot.transition", 0.0, 0, "free", "populating", "gpu")
        sanitizer.feed("slot.transition", 4.0, 0, "populating", "ready", "gpu")
        sanitizer.feed("slot.transition", 9.0, 0, "ready", "processing", "gpu")
        assert sanitizer.violations
        text = sanitizer.violations[0].render()
        assert "<< VIOLATION" in text
        assert "timeline (slot:0)" in text
        assert "clocks:" in text

    def test_report_clean_and_dirty_forms(self):
        clean = GSan()
        assert "0 violations" in clean.report()
        dirty = GSan()
        dirty.feed("syscall.dispatch", 5.0, "read", 0, 42)
        assert "acquire-before-release" in dirty.report()

    def test_finish_is_idempotent(self):
        sanitizer = GSan()
        sanitizer.feed(
            "syscall.claim", 0.0, 1, "read", 0, 0, "work-item", True, "poll"
        )
        first = list(sanitizer.finish())
        second = list(sanitizer.finish())
        assert first == second  # the lost-completion audit ran once

    def test_agents_and_edges_shape(self):
        assert AGENTS == ("gpu", "cpu", "watchdog")
        # Figure 6's six edges plus the four recovery edges.
        assert len(SLOT_EDGES) == 8
        assert SLOT_EDGES[("ready", "processing")] == ("cpu",)

    def test_plan_aggregates_multiple_systems(self):
        plan = GSanPlan()
        with attached(plan):
            experiments.run("fig7")
        assert len(plan.sanitizers) >= 1
        assert plan.events == sum(s.events for s in plan.sanitizers)
        assert plan.finish() == []
