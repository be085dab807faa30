"""Satellite: GSan rides along the existing fault corpora and stays quiet.

Two sweeps from earlier PRs re-run here with the sanitizer attached:
the errno-injection corpus (every blocking syscall class retried to a
fault-free result) and one chaos profile per workload.  Recovery that
works — retries, watchdog requeues, defended stale finishes — must
produce *zero* violations: GSan distinguishes a survived fault from a
broken protocol.
"""

import pytest

from repro.faults import FaultPlan
from repro.faults.chaos import EXPERIMENTS, run_one
from repro.oskernel.errors import Errno
from repro.probes.tracepoints import attached
from repro.sanitizers.gsan import GSan, GSanPlan

from tests.test_fuzz_syscalls import _corpus_kernels, _run_corpus_case


class TestErrnoCorpusUnderGSan:
    @pytest.mark.parametrize("syscall_class", sorted(_corpus_kernels()))
    def test_injected_errno_run_is_violation_free(self, syscall_class):
        plan = FaultPlan(
            seed=11,
            errno_rate=0.4,
            errnos=(int(Errno.EINTR),),
            watchdog_period_ns=0.0,
        )
        gsan_plan = GSanPlan()
        with attached(gsan_plan):
            _, _, system, injector = _run_corpus_case(
                _corpus_kernels()[syscall_class], plan
            )
        assert injector.injected > 0, "corpus case injected nothing"
        violations = gsan_plan.finish()
        assert violations == [], "\n".join(v.render() for v in violations)
        assert gsan_plan.events > 0


class TestChaosProfilesUnderGSan:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_one_profile_per_workload_is_violation_free(self, experiment):
        gsan_plan = GSanPlan()
        with attached(gsan_plan):
            report = run_one(experiment, seed=7)
        # The chaos run itself must have survived (prior PR's contract) …
        assert report.ok, report.violations
        assert report.injected > 0
        # … and the sanitizer found the survival protocol-clean.
        violations = gsan_plan.finish()
        assert violations == [], "\n".join(v.render() for v in violations)
        assert gsan_plan.sanitizers, "global plan never saw a System"
        if experiment != "udp-echo":
            # udp-echo is a pure network scenario: no GPU syscall path,
            # so the slot-protocol tracepoints legitimately stay silent.
            assert gsan_plan.events > 0

    def test_defended_races_are_counted_not_flagged(self):
        # Across the chaos profiles, stale-finish refusals may occur;
        # GSan books them as defended races.  Run the heaviest profile
        # and assert the counter is exposed without violations.
        gsan_plan = GSanPlan()
        with attached(gsan_plan):
            run_one("fig2", seed=3)
        assert gsan_plan.finish() == []
        total_defended = sum(
            s.defended_races for s in gsan_plan.sanitizers
        )
        assert total_defended >= 0  # counter present; races are seed-luck
        for sanitizer in gsan_plan.sanitizers:
            assert isinstance(sanitizer, GSan)
            assert sanitizer.snapshot()["defended_races"] == sanitizer.defended_races
