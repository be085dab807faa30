"""The load-bearing probes guarantee: attaching observer programs leaves
every simulated result byte-identical.

Observers are synchronous, get plain values, and have no simulator
handle; the only sanctioned way to change behaviour is a policy hook.
Every experiment is diffed bare vs. instrumented to the hilt by
``tests/test_determinism_matrix.py``; these tests cover a single
Figure 10 point and what the instrumented run observed."""

from repro import experiments
from repro.experiments.fig10_coalescing import COALESCE, latency_per_byte
from repro.probes.tracepoints import attached
from repro.sanitizers.gsan import GSanPlan

from tests.test_determinism_matrix import attach_everything


class TestObserverDeterminism:
    def test_fig10_point_byte_identical(self):
        bare = latency_per_byte(1024, COALESCE)
        with attached(attach_everything, GSanPlan()):
            probed = latency_per_byte(1024, COALESCE)
        assert probed == bare

    def test_probes_actually_observed_something(self):
        """Guard against vacuous determinism: the instrumented run must
        really have delivered events."""
        captured = []
        with attached(attach_everything, GSanPlan(), captured.append):
            experiments.run("fig2")
        assert captured
        registry = captured[0]
        total_hits = sum(tp.hits for tp in registry.tracepoints.values())
        assert total_hits > 0
        assert registry.get("syscall.complete").hits > 0
