"""The model checker's two determinism contracts.

Neutrality: installing the FIFO tie-break policy (the hook the whole
subsystem rides on) leaves every experiment byte-identical to the bare
``tie_break = None`` fast path — checked over the complete experiment
suite by the ``all`` row of ``tests/test_determinism_matrix.py``.

Replayability: a schedule certificate is the *entire* schedule input.
Two guided runs of the same certificate — workload scenarios under
their fault profiles included — produce byte-identical tracepoint
streams, oracle verdicts, and decision records.
"""

import json

import pytest

from repro.modelcheck.explore import run_schedule
from repro.modelcheck.scenarios import build_scenario
from repro.modelcheck.schedule import GuidedTieBreak
from repro.probes.tracepoints import StreamRecorder

WORKLOADS = ("fig2", "grep", "memcached")


def guided_stream(name, choices, seed):
    """One guided run with a full tracepoint stream recorded; returns
    (stream, canonical result JSON)."""
    built = build_scenario(name, profile=name, seed=seed).build()
    recorder = StreamRecorder(built.registry).attach("*")
    built.sim.tie_break = GuidedTieBreak(choices=dict(choices))
    built.execute()
    violations = [v.render() for v in built.sanitizer.finish()]
    verdict = {
        "violations": violations,
        "rules": built.sanitizer.rules_hit(),
        "audit": built.audit(),
        "events": built.sanitizer.events,
    }
    return recorder.events, json.dumps(verdict, sort_keys=True)


class TestCertificateReplayDeterminism:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_same_certificate_same_bytes(self, name):
        # Derive a genuinely non-FIFO certificate from the run itself:
        # swap the first contested pop, keep everything else FIFO.
        probe = run_schedule(name, (), profile=name, seed=3)
        contested = [
            d for d in probe["decisions"] if len(d["candidates"]) > 1
        ]
        assert contested, f"{name}: no contested pops to certify"
        choices = ((contested[0]["index"], 1),)
        first_stream, first_verdict = guided_stream(name, choices, seed=3)
        second_stream, second_verdict = guided_stream(name, choices, seed=3)
        assert first_stream == second_stream
        assert first_verdict == second_verdict
        assert first_stream, f"{name}: recorder saw no events"

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_replay_results_identical_through_run_schedule(self, name):
        first = run_schedule(name, ((0, 1),), profile=name, seed=3)
        second = run_schedule(name, ((0, 1),), profile=name, seed=3)
        assert json.dumps(first, sort_keys=True, default=str) == json.dumps(
            second, sort_keys=True, default=str
        )

    def test_corpus_counterexample_replays_byte_identical(self):
        from repro.modelcheck.corpus import ORDERING_BUGS
        from repro.modelcheck.explore import Bounds, explore

        bug = ORDERING_BUGS[0]
        report = explore(bug.name, bounds=Bounds(max_schedules=64))
        choices = tuple(map(tuple, report.violating[0]["choices"]))
        runs = [run_schedule(bug.name, choices) for _ in range(2)]
        assert json.dumps(runs[0], sort_keys=True) == json.dumps(
            runs[1], sort_keys=True
        )
        assert not runs[0]["ok"]
