"""``python -m repro.faults`` — chaos runs and fault-plan inspection.

Subcommands:

``chaos``
    Run the chaos matrix: each named experiment under each seed's
    fault plan, asserting the liveness/safety invariants.  Cells are
    farmed over ``--workers`` processes (:mod:`repro.runfarm`); the
    results do not depend on the worker count.  Exits 1 if any run
    violates an invariant — this is the CI smoke entry point.

``list``
    Show the built-in chaos profiles and which fault classes each
    enables.

Examples::

    python -m repro.faults chaos --experiments fig2,grep --seeds 1,2,3
    python -m repro.faults chaos --seeds 1:6 --workers 4 --gsan --json cells.json
    python -m repro.faults list
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.faults.chaos import DEFAULT_DRAIN_TIMEOUT_NS, EXPERIMENTS, PROFILES
from repro.runfarm import default_workers, merge_reports, run_chaos_matrix

DEFAULT_SEEDS = (1, 2, 3)


def _parse_csv(raw: str) -> List[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _parse_seeds(text: str) -> List[int]:
    """``1,2,5`` or ``1:6`` (half-open range) or a mix of both."""
    seeds: List[int] = []
    for part in _parse_csv(text):
        if ":" in part:
            lo, hi = part.split(":", 1)
            seeds.extend(range(int(lo), int(hi)))
        else:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def _cmd_list(args: argparse.Namespace) -> int:
    print(f"{'experiment':<12} {'fault classes':<52} recovery")
    print("-" * 100)
    for name, plan in PROFILES.items():
        classes = ",".join(plan.active_classes()) or "-"
        watchdog = (
            f"watchdog={plan.watchdog_period_ns:g}ns"
            if plan.watchdog_period_ns
            else "watchdog=off"
        )
        slot = (
            f"slot_timeout={plan.slot_timeout_ns:g}ns"
            if plan.slot_timeout_ns
            else "slot_timeout=off"
        )
        print(f"{name:<12} {classes:<52} {watchdog} {slot}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    experiments = _parse_csv(args.experiments)
    unknown = [e for e in experiments if e not in PROFILES]
    if unknown:
        print(
            f"unknown experiment(s) {unknown}; choose from {sorted(PROFILES)}",
            file=sys.stderr,
        )
        return 2
    start = time.perf_counter()
    results = run_chaos_matrix(
        experiments,
        args.seeds,
        workers=args.workers,
        intensity=args.intensity,
        gsan=args.gsan,
        drain_timeout_ns=args.drain_timeout_ns,
    )
    summary = merge_reports(results)
    summary["wall_s"] = round(time.perf_counter() - start, 3)
    summary["workers"] = args.workers
    header = (
        f"{'experiment':<12} {'seed':>4} {'ok':<4} {'sim ns':>12} "
        f"{'faults':>6} {'retries':>7} {'reclaims':>8} {'requeues':>8} "
        f"{'degraded':>8}"
    )
    print(header)
    print("-" * len(header))
    for (experiment, seed), r in results:
        recovery = r["recovery"]
        print(
            f"{experiment:<12} {seed:>4} {'ok' if r['ok'] else 'FAIL':<4} "
            f"{r['elapsed_ns']:>12.0f} {r['injected']:>6} "
            f"{recovery['syscall_retries']:>7} "
            f"{recovery['slots_reclaimed']:>8} "
            f"{recovery['tasks_requeued']:>8} "
            f"{recovery['degraded_rescans']:>8}"
        )
        for violation in r["violations"]:
            print(f"    violation: {violation}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {"summary": summary, "cells": [r for _, r in results]}, fh, indent=2
            )
        print(f"wrote {args.json}")
    if summary["failed"]:
        print(
            f"\n{summary['failed']}/{summary['cells']} chaos run(s) "
            "violated invariants",
            file=sys.stderr,
        )
        return 1
    print(
        f"\nall {summary['cells']} chaos run(s) held every invariant "
        f"({args.workers} worker(s), {summary['wall_s']:.2f}s)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chaos = sub.add_parser("chaos", help="run the chaos invariant matrix")
    chaos.add_argument(
        "--experiments",
        default=",".join(EXPERIMENTS),
        help=f"comma-separated subset of {list(EXPERIMENTS)}",
    )
    chaos.add_argument(
        "--seeds",
        type=_parse_seeds,
        default=list(DEFAULT_SEEDS),
        help="fault-plan seeds: comma-separated, and/or LO:HI half-open ranges",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=default_workers(),
        help="farm cells over N processes (results do not depend on N; "
        "default: CPU count)",
    )
    chaos.add_argument(
        "--intensity",
        type=float,
        default=1.0,
        help="scale every fault rate by this factor (clamped to 1.0)",
    )
    chaos.add_argument(
        "--drain-timeout-ns",
        type=float,
        default=DEFAULT_DRAIN_TIMEOUT_NS,
        help="simulated-time deadline for each run's drain of outstanding "
        "syscalls after its kernel (the kernel itself is not bounded)",
    )
    chaos.add_argument(
        "--gsan",
        action="store_true",
        help="run every cell under the GSan race sanitizer; any "
        "violation fails the cell",
    )
    chaos.add_argument(
        "--json",
        metavar="PATH",
        help="write the {summary, cells} document to this file",
    )
    chaos.set_defaults(fn=_cmd_chaos)

    lister = sub.add_parser("list", help="show built-in chaos profiles")
    lister.set_defaults(fn=_cmd_list)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
