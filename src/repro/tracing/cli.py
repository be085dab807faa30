"""Command-line span tracing, reporting, and the latency gate.

Usage::

    python -m repro.tracing report fig7 [--slowest 5] [--json out.json]
                                        [--tef spans.trace.json] [--quiet]
    python -m repro.tracing record fig7 fig2 [--dir benchmarks/latency]
    python -m repro.tracing gate [fig7 ...] [--dir benchmarks/latency]
                                 [--tolerance 0.10] [--abs-ns 1.0]

``report`` runs one experiment with a :class:`SpanTracer` attached to
every System it builds (the same ``repro.probes.attached`` scope the
probes CLI uses) and prints per-stage p50/p95/p99, critical-path
attribution, Figure-7/8 axis splits, and the slowest invocations.
``record`` writes the per-stage distributions as committed baselines;
``gate`` re-runs and fails (exit 1) when a stage's percentile drifts
past the tolerance band — CI runs it on every PR.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Tuple

from repro.experiments import check_names
from repro.probes.tracepoints import ProbeRegistry, attached
from repro.tracing import analysis, gate as gate_mod
from repro.tracing.spans import SpanTracer, InvocationTrace


def run_traced(experiment: str) -> Tuple[object, List[SpanTracer]]:
    """Run ``experiment`` with a SpanTracer on every System it builds."""
    from repro import experiments

    tracers: List[SpanTracer] = []

    def plan(registry: ProbeRegistry) -> None:
        tracers.append(SpanTracer(registry).install())

    with attached(plan):
        result = experiments.run(experiment)
    return result, tracers


def collect_traces(tracers: List[SpanTracer]) -> List[InvocationTrace]:
    return [trace for tracer in tracers for trace in tracer.completed]


def _cmd_report(args) -> int:
    result, tracers = run_traced(args.experiment)
    traces = collect_traces(tracers)
    if not args.quiet:
        print(result.render())
        print()
    print(analysis.render_report(traces, title=args.experiment, slowest_n=args.slowest))
    if args.json:
        document = gate_mod.build_baseline(args.experiment, traces)
        document["by_syscall"] = analysis.by_key(traces, lambda t: t.name)
        document["critical_path"] = analysis.critical_path(traces)
        with open(args.json, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if args.tef:
        from repro import traceviz

        spans = traceviz.document(
            traceviz.span_tracks(tracers),
            "repro.tracing (GENESYS reproduction)",
            invocations=len(traces),
        )
        with open(args.tef, "w") as fh:
            json.dump(spans, fh)
        print(f"wrote {args.tef}")
    return 0 if traces else 1


def _cmd_record(args) -> int:
    for experiment in args.experiments:
        _, tracers = run_traced(experiment)
        traces = collect_traces(tracers)
        if not traces:
            print(f"error: {experiment} traced no invocations", file=sys.stderr)
            return 1
        baseline = gate_mod.build_baseline(experiment, traces)
        path = gate_mod.write_baseline(args.dir, baseline)
        print(f"recorded {experiment}: {baseline['invocations']} invocations -> {path}")
    return 0


def _cmd_gate(args) -> int:
    experiments = args.experiments or gate_mod.recorded_experiments(args.dir)
    if not experiments:
        print(f"error: no baselines under {args.dir!r}; run `record` first",
              file=sys.stderr)
        return 2
    all_passed = True
    for experiment in experiments:
        try:
            baseline = gate_mod.load_baseline(args.dir, experiment)
        except FileNotFoundError:
            print(f"error: no baseline for {experiment!r} under {args.dir!r}",
                  file=sys.stderr)
            return 2
        _, tracers = run_traced(experiment)
        current = gate_mod.build_baseline(experiment, collect_traces(tracers))
        result = gate_mod.compare(
            baseline, current, tolerance=args.tolerance, abs_ns=args.abs_ns
        )
        print(result.render())
        all_passed = all_passed and result.passed
    print("gate:", "PASS" if all_passed else "FAIL")
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tracing",
        description="Per-invocation span tracing and the latency-regression gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report_p = sub.add_parser("report", help="trace one experiment and print the analysis")
    report_p.add_argument("experiment", help="experiment name (see python -m repro.experiments)")
    report_p.add_argument("--slowest", type=int, default=5, metavar="N",
                          help="how many slowest invocations to list (default 5)")
    report_p.add_argument("--json", metavar="PATH", help="also write the stats as JSON")
    report_p.add_argument("--tef", metavar="PATH",
                          help="also write a Perfetto/chrome://tracing span trace")
    report_p.add_argument("--quiet", action="store_true",
                          help="suppress the experiment's own tables")

    record_p = sub.add_parser("record", help="record latency baselines")
    record_p.add_argument("experiments", nargs="+", metavar="EXPERIMENT")
    record_p.add_argument("--dir", default=gate_mod.DEFAULT_DIR,
                          help=f"baseline directory (default {gate_mod.DEFAULT_DIR})")

    gate_p = sub.add_parser("gate", help="compare fresh runs against recorded baselines")
    gate_p.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="experiments to gate (default: every recorded baseline)")
    gate_p.add_argument("--dir", default=gate_mod.DEFAULT_DIR,
                        help=f"baseline directory (default {gate_mod.DEFAULT_DIR})")
    gate_p.add_argument("--tolerance", type=float, default=gate_mod.DEFAULT_TOLERANCE,
                        help="relative tolerance band (default 0.10)")
    gate_p.add_argument("--abs-ns", type=float, default=gate_mod.DEFAULT_ABS_NS,
                        help="absolute tolerance floor in ns (default 1.0)")

    args = parser.parse_args(argv)
    if args.command == "report":
        return check_names([args.experiment]) or _cmd_report(args)
    if args.command == "record":
        return check_names(args.experiments) or _cmd_record(args)
    return _cmd_gate(args)
