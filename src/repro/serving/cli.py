"""``python -m repro.serving`` — run | sweep | overload | report.

``run`` executes one fixed-RPS point and prints its stats; ``sweep``
walks an RPS grid (optionally farmed), bisects for the max sustainable
throughput under the SLO, and writes ``BENCH_serving.json``;
``overload`` runs each offered-load multiple of the knee bare and with
the QoS plan installed and writes ``BENCH_overload.json`` (the plan
document plus each QoS point's controller summary; ``--multipliers
2.0`` is the single 2x-knee point); ``report`` pretty-prints a
trajectory file and (with ``--check``) gates on the structural schema
validation CI uses.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.serving import report as report_mod
from repro.serving.arrivals import ArrivalSpec
from repro.serving.sweep import (
    DEFAULT_MULTIPLIERS,
    ServingConfig,
    default_grid,
    default_knee,
    default_overload_plan,
    overload_curve,
    run_point,
    sweep,
)


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    defaults = ServingConfig()
    parser.add_argument("--workload", choices=("memcached", "udp-echo"),
                        default=defaults.workload)
    parser.add_argument("--arrival", choices=("poisson", "onoff"),
                        default="poisson", help="arrival process")
    parser.add_argument("--on-fraction", type=float, default=0.5,
                        help="ON/OFF: fraction of time in the ON phase")
    parser.add_argument("--period-ns", type=float, default=100_000.0,
                        help="ON/OFF: mean ON+OFF cycle length")
    parser.add_argument("--zipf-s", type=float, default=defaults.zipf_s,
                        help="key popularity exponent (0 = uniform)")
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--clients", type=int, default=defaults.num_clients,
                        help="number of simulated client sockets")
    parser.add_argument("--timeout-us", type=float,
                        default=defaults.timeout_ns / 1e3,
                        help="per-request deadline in microseconds")
    parser.add_argument("--warmup-us", type=float,
                        default=defaults.warmup_ns / 1e3)
    parser.add_argument("--measure-us", type=float,
                        default=defaults.measure_ns / 1e3)
    parser.add_argument("--window-us", type=float,
                        default=defaults.report_window_ns / 1e3,
                        help="report window width for the per-point "
                             "time-series (microseconds)")
    parser.add_argument("--workgroups", type=int,
                        default=defaults.num_workgroups)
    parser.add_argument("--workgroup-size", type=int,
                        default=defaults.workgroup_size)
    parser.add_argument("--rx-backlog", type=int, default=defaults.rx_backlog,
                        help="server receive-queue bound (0 = unbounded)")
    parser.add_argument("--slo-p99-us", type=float,
                        default=defaults.slo_p99_ns / 1e3)
    parser.add_argument("--slo-completion", type=float,
                        default=defaults.slo_completion)


def _config_from(args: argparse.Namespace) -> ServingConfig:
    return ServingConfig(
        workload=args.workload,
        arrival=ArrivalSpec(
            kind=args.arrival,
            on_fraction=args.on_fraction,
            period_ns=args.period_ns,
        ),
        zipf_s=args.zipf_s,
        seed=args.seed,
        num_clients=args.clients,
        timeout_ns=args.timeout_us * 1e3,
        warmup_ns=args.warmup_us * 1e3,
        measure_ns=args.measure_us * 1e3,
        report_window_ns=args.window_us * 1e3,
        num_workgroups=args.workgroups,
        workgroup_size=args.workgroup_size,
        rx_backlog=args.rx_backlog or None,
        slo_p99_ns=args.slo_p99_us * 1e3,
        slo_completion=args.slo_completion,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from(args)
    point = run_point(config, args.rps)
    latency = point["latency_ns"]
    print(
        f"{config.workload} @ {args.rps} RPS ({config.arrival.kind}): "
        f"offered {point['offered_rps']:.0f}, achieved "
        f"{point['achieved_rps']:.0f} ({point['completion']:.3f}), "
        f"p50/p95/p99 = {latency['p50'] / 1e3:.1f}/"
        f"{latency['p95'] / 1e3:.1f}/{latency['p99'] / 1e3:.1f} us, "
        f"SLO {'ok' if point['slo_ok'] else 'MISS'}"
    )
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(json.dumps(point, sort_keys=True, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from(args)
    grid = [int(rps) for rps in args.rps] or default_grid(config)
    doc = sweep(config, grid, workers=args.workers)
    print(report_mod.render(doc))
    with open(args.out, "w") as fh:
        fh.write(report_mod.to_json(doc))
    print(f"wrote {args.out}")
    return 0


def _cmd_overload(args: argparse.Namespace) -> int:
    config = _config_from(args)
    plan = default_overload_plan(config)
    if args.sojourn_budget_us is not None:
        plan = plan.scaled(sojourn_budget_ns=args.sojourn_budget_us * 1e3)
    if args.no_brownout:
        plan = plan.scaled(brownout=False)
    doc = overload_curve(
        config,
        plan=plan,
        knee_rps=args.knee or default_knee(config),
        multipliers=args.multipliers,
        workers=args.workers,
    )
    print(report_mod.render_overload(doc))
    with open(args.out, "w") as fh:
        fh.write(report_mod.to_json(doc))
    print(f"wrote {args.out}")
    if args.check:
        problems = report_mod.check_overload(doc)
        if problems:
            for problem in problems:
                print(f"OVERLOAD: {problem}", file=sys.stderr)
            return 1
        print("overload gate ok")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.path) as fh:
        doc = json.load(fh)
    problems = report_mod.check_report(doc)
    if args.check:
        if problems:
            for problem in problems:
                print(f"SCHEMA: {problem}", file=sys.stderr)
            return 1
        print(f"{args.path}: schema ok "
              f"({len(doc['points'])} points, "
              f"{len(doc['bisection'])} bisection probes)")
        return 0
    if problems:
        for problem in problems:
            print(f"warning: {problem}", file=sys.stderr)
    print(report_mod.render(doc))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Open-loop load generation, RPS sweeps, and SLO curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="one fixed-RPS point")
    _add_config_args(run_parser)
    run_parser.add_argument("--rps", type=int, default=100_000)
    run_parser.add_argument("--json", default=None,
                            help="also write the point stats to this file")
    run_parser.set_defaults(fn=_cmd_run)

    sweep_parser = sub.add_parser(
        "sweep", help="RPS grid + SLO bisection -> BENCH_serving.json"
    )
    _add_config_args(sweep_parser)
    sweep_parser.add_argument("--rps", type=int, nargs="*", default=[],
                              help="explicit grid (default: workload preset)")
    sweep_parser.add_argument("--workers", type=int, default=1,
                              help="farm sweep points over N processes")
    sweep_parser.add_argument("--out", default="BENCH_serving.json")
    sweep_parser.set_defaults(fn=_cmd_sweep)

    over_parser = sub.add_parser(
        "overload",
        help="offered-vs-goodput through 2-3x the knee, baseline vs QoS",
    )
    _add_config_args(over_parser)
    over_parser.add_argument("--knee", type=int, default=0,
                             help="knee RPS (0 = workload preset)")
    over_parser.add_argument("--multipliers", type=float, nargs="*",
                             default=list(DEFAULT_MULTIPLIERS),
                             help="offered-load multiples of the knee")
    over_parser.add_argument("--sojourn-budget-us", type=float, default=None,
                             help="override the plan's receive-queue sojourn "
                                  "budget (default: timeout/2)")
    over_parser.add_argument("--no-brownout", action="store_true",
                             help="disable the brownout controller in the plan")
    over_parser.add_argument("--workers", type=int, default=1,
                             help="farm points over N processes")
    over_parser.add_argument("--out", default="BENCH_overload.json")
    over_parser.add_argument("--check", action="store_true",
                             help="exit non-zero unless the no-collapse "
                                  "goodput gate holds")
    over_parser.set_defaults(fn=_cmd_overload)

    report_parser = sub.add_parser("report", help="render / validate a trajectory")
    report_parser.add_argument("path")
    report_parser.add_argument("--check", action="store_true",
                               help="exit non-zero unless the schema validates")
    report_parser.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
