"""Process-level run farm: shard embarrassingly parallel simulation work.

The paper's evaluation is a matrix of independent simulated experiments
(figures x workloads x seeds x sweep points); our reproduction ran every
cell serially in one Python process.  MGSim makes multi-GPU simulation
practical by running independent simulation work in parallel — this
package is the reproduction's version of that: a driver that shards a
job list across OS worker processes and merges the results in a way
that is provably independent of worker count and completion order.

Determinism contract
--------------------
* Every job carries its own key and its own seed/arguments; nothing a
  job computes depends on which shard ran it.  Shard assignment is the
  fixed round-robin ``jobs[i::num_shards]`` — deterministic for a given
  (job list, worker count), but *irrelevant* to results.
* :func:`run_jobs` returns ``[(key, result), ...]`` sorted by key, so
  the merged output is a pure function of the job list: 1-way, 2-way
  and 4-way farms produce identical merges (asserted by
  ``tests/test_runfarm.py``).

Workers are forked (POSIX) so imported modules and warm state are
shared copy-on-write; each job still builds its own fresh ``System`` —
simulated machines are never shipped between processes, only job specs
in and picklable results out.

CLI: ``python -m repro.runfarm pytest`` shards the test suite; the
farmed chaos matrix is ``python -m repro.faults chaos --workers N``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Job",
    "chaos_matrix_jobs",
    "default_workers",
    "merge_reports",
    "run_chaos_matrix",
    "run_frontier",
    "run_jobs",
    "shard",
]


@dataclass(frozen=True)
class Job:
    """One unit of farm work: ``fn(**kwargs)`` on some worker process.

    ``key`` identifies the job in the merged output and must be unique
    and sortable; ``fn`` must be a module-level (picklable) callable.
    """

    key: tuple
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)


def default_workers() -> int:
    """Number of workers to use when unspecified: the CPU count."""
    return os.cpu_count() or 1


def shard(items: Sequence, num_shards: int) -> List[list]:
    """Deterministic round-robin split: shard ``i`` gets items
    ``i, i+n, i+2n, ...``.  Every item lands in exactly one shard."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return [list(items[i::num_shards]) for i in range(num_shards)]


def _run_shard(jobs: List[Job]) -> List[Tuple[tuple, Any]]:
    """Worker-process body: run one shard's jobs in order."""
    return [(job.key, job.fn(**job.kwargs)) for job in jobs]


def run_jobs(
    jobs: Sequence[Job], workers: int = 1, mp_context: str = "fork"
) -> List[Tuple[tuple, Any]]:
    """Run ``jobs`` across ``workers`` processes; merge sorted by key.

    The merge is worker-count- and completion-order-independent: the
    result is ``sorted((job.key, job.fn(**job.kwargs)))`` no matter how
    the work was split.  ``workers=1`` (or a single job) runs inline
    with no subprocesses — the reference the farmed runs must match.
    """
    jobs = list(jobs)
    keys = [job.key for job in jobs]
    if len(set(keys)) != len(keys):
        raise ValueError("job keys must be unique for an unambiguous merge")
    workers = max(1, min(int(workers), len(jobs) or 1))
    if workers == 1:
        merged = _run_shard(jobs)
    else:
        shards = [s for s in shard(jobs, workers) if s]
        ctx = multiprocessing.get_context(mp_context)
        # Freeze the parent heap before forking: a child garbage
        # collection writes into every inherited object's GC header,
        # copy-on-write-copying pages the child never meant to touch.
        # Freezing moves the parent's objects into the permanent
        # generation so forked workers leave them shared.
        gc.collect()
        gc.freeze()
        try:
            with ctx.Pool(processes=len(shards)) as pool:
                # imap_unordered: completion order is whatever the OS
                # makes it; the sort below makes the merge deterministic.
                merged = [
                    pair
                    for batch in pool.imap_unordered(_run_shard, shards)
                    for pair in batch
                ]
        finally:
            gc.unfreeze()
    return sorted(merged, key=lambda pair: pair[0])


# -- frontier exploration --------------------------------------------------


def run_frontier(
    seeds: Sequence,
    run_item: Callable[..., Any],
    expand: Callable[[Any, Any], Sequence],
    workers: int = 1,
    max_items: int = 0,
    key: Callable[[Any], tuple] = None,  # type: ignore[assignment]
    mp_context: str = "fork",
) -> Tuple[List[Tuple[Any, Any]], bool]:
    """Deterministic wave-parallel exploration of a growing frontier.

    Starts from ``seeds`` and repeatedly: sorts the pending items by
    ``key``, farms ``run_item(item=...)`` over them with
    :func:`run_jobs`, then calls ``expand(item, result)`` *in the
    parent* to produce new items.  An item whose key was already run
    (or is already pending) is dropped, so the set of items visited is
    a pure function of ``(seeds, run_item, expand, max_items)`` — the
    worker count only changes wall-clock time, never the frontier
    (asserted by ``tests/test_runfarm.py``).

    ``run_item`` must be a module-level (picklable) callable taking the
    item as its ``item`` keyword; ``expand`` runs in the parent and may
    close over driver state.  ``max_items > 0`` bounds the total number
    of items run; a wave is truncated *after sorting*, so the budgeted
    prefix is deterministic too.  Returns ``(results, truncated)`` with
    ``results`` sorted by key.
    """
    if key is None:
        key = lambda item: item  # noqa: E731 - identity default
    pending: List[Any] = list(seeds)
    seen = {key(item) for item in pending}
    if len(seen) != len(pending):
        raise ValueError("seed items must have unique keys")
    results: List[Tuple[tuple, Any, Any]] = []
    truncated = False
    while pending:
        pending.sort(key=key)
        if max_items > 0:
            budget = max_items - len(results)
            if budget <= 0:
                truncated = True
                break
            if len(pending) > budget:
                truncated = True
                pending = pending[:budget]
        wave = pending
        pending = []
        jobs = [
            Job(key=key(item), fn=run_item, kwargs={"item": item})
            for item in wave
        ]
        merged = run_jobs(jobs, workers=workers, mp_context=mp_context)
        by_key = dict(merged)
        for item in wave:
            result = by_key[key(item)]
            results.append((key(item), item, result))
            for child in expand(item, result):
                child_key = key(child)
                if child_key in seen:
                    continue
                seen.add(child_key)
                pending.append(child)
    results.sort(key=lambda row: row[0])
    return [(item, result) for _key, item, result in results], truncated


# -- chaos-matrix farming --------------------------------------------------


def _chaos_cell(
    experiment: str,
    seed: int,
    intensity: float,
    gsan: bool = False,
    drain_timeout_ns: Optional[float] = None,
) -> dict:
    """One chaos matrix cell, returned as a plain dict (JSON/pickle
    friendly across the process boundary).

    With ``gsan=True`` the cell runs under a fresh GSan per built
    System; the report grows a ``gsan`` section and any race the
    sanitizer finds fails the cell.  ``drain_timeout_ns`` (the deadline
    for the drain after the kernel, not for the whole run) defaults to
    the chaos runner's.
    """
    from repro.faults import chaos

    if drain_timeout_ns is None:
        drain_timeout_ns = chaos.DEFAULT_DRAIN_TIMEOUT_NS

    def run() -> dict:
        return chaos.run_one(
            experiment, seed, intensity=intensity,
            drain_timeout_ns=drain_timeout_ns,
        ).as_dict()

    if not gsan:
        return run()

    from repro.probes.tracepoints import attached
    from repro.sanitizers.gsan import GSanPlan

    plan = GSanPlan()
    with attached(plan):
        report = run()
    findings = [str(violation) for violation in plan.finish()]
    report["gsan"] = {"events": plan.events, "violations": findings}
    if findings:
        report["ok"] = False
        report["violations"] = list(report["violations"]) + [
            f"gsan: {finding}" for finding in findings
        ]
    return report


def chaos_matrix_jobs(
    experiments: Sequence[str],
    seeds: Sequence[int],
    intensity: float = 1.0,
    gsan: bool = False,
    drain_timeout_ns: Optional[float] = None,
) -> List[Job]:
    """The chaos matrix as farm jobs.

    Seed assignment is part of the job spec — ``(experiment, seed)`` is
    the key — so sharding can never change which seed a cell runs with.
    """
    return [
        Job(
            key=(experiment, seed),
            fn=_chaos_cell,
            kwargs={
                "experiment": experiment,
                "seed": seed,
                "intensity": intensity,
                "gsan": gsan,
                "drain_timeout_ns": drain_timeout_ns,
            },
        )
        for experiment in experiments
        for seed in seeds
    ]


def run_chaos_matrix(
    experiments: Sequence[str],
    seeds: Sequence[int],
    workers: int = 1,
    intensity: float = 1.0,
    gsan: bool = False,
    drain_timeout_ns: Optional[float] = None,
) -> List[Tuple[tuple, dict]]:
    """The chaos matrix: ``repro.faults.chaos.run_one`` for every
    (experiment, seed) cell, as report dicts sorted by that key.  The
    result does not depend on ``workers``; ``workers=1`` runs inline."""
    return run_jobs(
        chaos_matrix_jobs(
            experiments, seeds, intensity=intensity, gsan=gsan,
            drain_timeout_ns=drain_timeout_ns,
        ),
        workers=workers,
    )


def merge_reports(results: Sequence[Tuple[tuple, dict]]) -> dict:
    """Summarise merged chaos cells: totals plus per-experiment rollup."""
    summary: Dict[str, Any] = {
        "cells": len(results),
        "ok": sum(1 for _, report in results if report.get("ok")),
        "by_experiment": {},
    }
    for (experiment, _seed), report in results:
        rollup = summary["by_experiment"].setdefault(
            experiment, {"cells": 0, "ok": 0, "injected": 0}
        )
        rollup["cells"] += 1
        rollup["ok"] += 1 if report.get("ok") else 0
        rollup["injected"] += int(report.get("injected", 0))
    summary["failed"] = summary["cells"] - summary["ok"]
    return summary
