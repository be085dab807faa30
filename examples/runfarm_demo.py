#!/usr/bin/env python
"""Checkpoint/restore + run-farm demo: pay warmups once, farm the rest.

Three acts:

1. warm a memcached table once and ``System.checkpoint()`` the quiesced
   machine (workload riding along in the snapshot's ``extra`` slot),
2. ``snapshot.load()`` it and serve a request batch — byte-identical to
   serving on the machine that was never snapshotted, with the table
   fill paid exactly once,
3. shard a chaos matrix across worker processes with
   ``repro.runfarm`` and show the merge is identical to the serial run
   no matter how many workers did the work.

Run:  python examples/runfarm_demo.py
"""

import time

from repro.faults import chaos
from repro.runfarm import merge_reports, run_chaos_matrix
from repro.sim import snapshot
from repro.system import System
from repro.workloads.memcachedwl import MemcachedWorkload

TABLE = dict(num_buckets=4, elems_per_bucket=128, value_bytes=128,
             num_requests=16)
EXPERIMENTS = ["fig2", "udp-echo"]
SEEDS = [1, 2, 3]


def build_warm():
    """Fill the table (the expensive part) and quiesce."""
    system = System()
    workload = MemcachedWorkload(system, **TABLE)
    system.sim.run()
    return system, workload


def serve(workload):
    result = workload.run_genesys()
    return sorted(result.metrics["replies"].items()), result.runtime_ns


def main():
    # Act 1: warm once, snapshot the quiesced machine.
    t0 = time.perf_counter()
    system, workload = build_warm()
    fill_wall = time.perf_counter() - t0
    blob = system.checkpoint(extra=workload)
    header = snapshot.manifest(blob)
    print(f"warmed table in {fill_wall * 1e3:.0f} ms, snapshot "
          f"v{header['version']}: {len(blob) / 1024:.0f} KiB "
          f"at t={header['sim_now_ns']:.0f} ns")

    # Act 2: restore and serve; compare against the never-snapshotted
    # machine serving the same batch.
    straight_replies, straight_ns = serve(workload)

    t0 = time.perf_counter()
    restored = snapshot.load(blob)
    resumed_replies, resumed_ns = serve(restored.extra)
    warm_wall = time.perf_counter() - t0

    assert resumed_replies == straight_replies
    assert resumed_ns == straight_ns
    print(f"restored + served {len(resumed_replies)} replies in "
          f"{warm_wall * 1e3:.0f} ms (fill skipped), outputs and "
          f"simulated time byte-identical: {resumed_ns:.0f} ns")

    # Act 3: the chaos matrix, serial vs farmed — same merge.
    serial = {(experiment, seed): chaos.run_one(experiment, seed).as_dict()
              for experiment in EXPERIMENTS for seed in SEEDS}
    farmed = run_chaos_matrix(EXPERIMENTS, SEEDS, workers=2)
    assert {key: report for key, report in farmed} == serial
    summary = merge_reports(farmed)
    print(f"chaos matrix: {summary['cells']} cells on 2 workers, "
          f"{summary['ok']} ok, merge identical to the serial run")
    for experiment, rollup in sorted(summary["by_experiment"].items()):
        print(f"  {experiment}: {rollup['cells']} cells, "
              f"{rollup['injected']} faults injected, {rollup['ok']} ok")


if __name__ == "__main__":
    main()
