"""``python -m repro.metrics`` — run, report, and gtop.

Three subcommands over the windowed metrics plane:

* ``run NAME`` — run one registered experiment (or ``serving`` for one
  fixed-RPS serving point) with a
  :class:`~repro.metrics.hub.MetricsHubPlan` installed and write any of
  the exporter formats (``--prom``, ``--csv``, ``--json``).
* ``report NAME`` — same run, then print the final windowed table and
  (optionally) one metric's full window series.
* ``gtop TARGET`` — a top-like live view: the hub's flush tick renders
  a per-window terminal table every ``--every`` windows while the
  simulation runs.  TARGET is an experiment name or ``serving`` (one
  fixed-RPS serving point, ``--rps``/``--workload`` selectable).

The hub rides the run as a pure observer, so every number printed here
comes from a simulation byte-identical to the bare one.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import experiments
from repro.metrics.export import (
    merged_hub_payloads,
    prometheus_text,
    series_payload,
    write_csv,
    write_prometheus,
)
from repro.metrics.hub import DEFAULT_WINDOW_NS, MetricsHub, MetricsHubPlan
from repro.probes.tracepoints import attached

#: ASCII sparkline ramp (low → high); deliberately not unicode so the
#: output survives any terminal/CI log encoding.
_SPARK = " .:-=+*#%@"


def _spark(series: List[float]) -> str:
    if not series:
        return ""
    top = max(series)
    if top <= 0:
        return "." * len(series)
    out = []
    for value in series:
        rank = int(value / top * (len(_SPARK) - 1) + 0.5)
        out.append(_SPARK[max(0, min(rank, len(_SPARK) - 1))])
    return "".join(out)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e6 or abs(value) < 1e-3:
        return f"{value:.3g}"
    if abs(value) >= 100:
        return f"{value:.0f}"
    return f"{value:.3f}".rstrip("0").rstrip(".")


def _primary_series(hub: MetricsHub, name: str, last: int) -> List[float]:
    exported = hub.metrics[name].export_series()
    series = exported.get("") or exported.get("p95") or []
    return [value for _t0, value in series[-last:]]


def render_frame(
    hub: MetricsHub, boundary_ns: float, title: str, spark_windows: int = 24
) -> str:
    """One gtop frame: every catalog metric, last window + short-term
    average + an ASCII trend over the last ``spark_windows`` windows."""
    lines = [
        f"gtop — {title}  t={boundary_ns / 1000.0:.1f}us  "
        f"window={hub.window_ns / 1000.0:g}us  ticks={hub.ticks}  "
        f"hub={hub.label or '-'}",
        f"{'METRIC':<24} {'UNIT':<9} {'LAST':>10} {'AVG8':>10}  TREND",
    ]
    for spec in hub.catalog:
        if spec.name not in hub.metrics:
            continue
        last = hub.read(spec.name)
        avg = hub.read(spec.name, window=8)
        trend = _spark(_primary_series(hub, spec.name, spark_windows))
        lines.append(
            f"{spec.name:<24} {spec.unit:<9} {_fmt(last):>10} "
            f"{_fmt(avg):>10}  {trend}"
        )
    return "\n".join(lines)


class _GtopRenderer:
    """Tick listener that prints a frame every N windows (closure-free
    so an attached hub stays picklable if a run checkpoints)."""

    def __init__(
        self, title: str, every: int, follow: bool, max_frames: int
    ) -> None:
        self.title = title
        self.every = max(1, every)
        self.follow = follow
        self.max_frames = max_frames
        self.frames = 0

    def __call__(self, hub: MetricsHub, boundary_ns: float) -> None:
        if hub.ticks % self.every != 0:
            return
        if self.frames >= self.max_frames:
            return
        self.frames += 1
        frame = render_frame(hub, boundary_ns, self.title)
        if self.follow:
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        else:
            sys.stdout.write(frame + "\n\n")
        sys.stdout.flush()


def _run_experiment(name: str, plan: MetricsHubPlan):
    with attached(plan):
        return experiments.run(name)


def _run_serving_point(plan: MetricsHubPlan, args) -> dict:
    from repro.serving.sweep import (
        ServingConfig,
        build_target,
        memcached_reply_check,
        run_point_on,
    )

    config = ServingConfig(
        workload=args.workload,
        num_clients=args.clients,
        warmup_ns=args.warmup_us * 1000.0,
        measure_ns=args.measure_us * 1000.0,
        seed=args.seed,
    )
    with attached(plan):
        system, workload = build_target(config)
    check = (
        memcached_reply_check(workload)
        if config.workload == "memcached"
        else None
    )
    return run_point_on(system, workload, config, args.rps, check_reply=check)


def _write_outputs(plan: MetricsHubPlan, args, experiment: str) -> None:
    hub = plan.hub
    if hub is None:
        return
    if getattr(args, "prom", None):
        write_prometheus(hub, args.prom, experiment)
        print(f"wrote {args.prom}")
    if getattr(args, "csv", None):
        write_csv(hub, args.csv)
        print(f"wrote {args.csv}")
    if getattr(args, "json", None):
        doc = {
            "experiment": experiment,
            "hubs": merged_hub_payloads(hub.registry)
            if len(plan.hubs) == 1
            else [series_payload(h) for h in plan.hubs],
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")


def _plan_from(args, listener=None) -> MetricsHubPlan:
    return MetricsHubPlan(
        window_ns=args.window_us * 1000.0, listener=listener
    )


def cmd_run(args) -> int:
    plan = _plan_from(args)
    if args.name == "serving":
        point = _run_serving_point(plan, args)
        if not args.quiet:
            print(
                f"serving {args.workload} @{args.rps}rps: "
                f"achieved {point['achieved_rps']:.0f} rps, "
                f"completion {point['completion']:.3f}, "
                f"p99 {point['latency_ns']['p99'] / 1000.0:.1f}us"
            )
            print()
    else:
        result = _run_experiment(args.name, plan)
        if not args.quiet:
            print(result.render())
            print()
    for hub in plan.hubs:
        hub.finalize()
        snap = hub.snapshot()
        print(
            f"[{hub.label}] {len(hub.metrics)} metrics, "
            f"{snap['ticks']} flush ticks, window {hub.window_ns / 1000.0:g}us"
        )
    _write_outputs(plan, args, args.name)
    return 0


def cmd_report(args) -> int:
    plan = _plan_from(args)
    result = _run_experiment(args.name, plan)
    if not args.quiet:
        print(result.render())
        print()
    for hub in plan.hubs:
        hub.finalize()
        print(render_frame(hub, hub.now(), args.name))
        print()
    if args.series:
        hub = plan.hub
        if hub is not None:
            exported = hub.export_series()
            matches = sorted(
                key for key in exported
                if key == args.series or key.startswith(args.series + ".")
            )
            if not matches:
                print(f"no series matching {args.series!r}")
                return 1
            for key in matches:
                for t0, value in exported[key]:
                    print(f"{key},{t0:.0f},{_fmt(value)}")
    _write_outputs(plan, args, args.name)
    return 0


def cmd_gtop(args) -> int:
    title = args.target if args.target != "serving" else (
        f"serving {args.workload} @{args.rps}rps"
    )
    renderer = _GtopRenderer(
        title, every=args.every, follow=args.follow, max_frames=args.max_frames
    )
    plan = _plan_from(args, listener=renderer)
    if args.target == "serving":
        point = _run_serving_point(plan, args)
        summary = (
            f"achieved {point['achieved_rps']:.0f} rps, "
            f"completion {point['completion']:.3f}, "
            f"p99 {point['latency_ns']['p99'] / 1000.0:.1f}us"
        )
    else:
        result = _run_experiment(args.target, plan)
        summary = result.render().splitlines()[0] if result.render() else ""
    for hub in plan.hubs:
        hub.finalize()
        print(render_frame(hub, hub.now(), f"{title} (final)"))
        print()
    if summary:
        print(summary)
    if args.prom_stdout and plan.hub is not None:
        print()
        print(prometheus_text(plan.hub, title), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics",
        description="windowed telemetry over the tracepoint stream",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p) -> None:
        p.add_argument(
            "--window-us", type=float, default=DEFAULT_WINDOW_NS / 1000.0,
            help="aggregation window in simulated microseconds",
        )
        p.add_argument("--quiet", action="store_true",
                       help="skip the experiment's own rendering")
        p.add_argument("--prom", help="write Prometheus text to this path")
        p.add_argument("--csv", help="write per-window CSV to this path")
        p.add_argument("--json", help="write the series payload JSON here")

    def serving(p) -> None:
        p.add_argument("--rps", type=int, default=60_000)
        p.add_argument("--workload", default="memcached",
                       choices=("memcached", "udp-echo"))
        p.add_argument("--clients", type=int, default=64)
        p.add_argument("--warmup-us", type=float, default=150.0)
        p.add_argument("--measure-us", type=float, default=300.0)
        p.add_argument("--seed", type=int, default=1)

    p_run = sub.add_parser(
        "run", help="run an experiment (or a serving point) with a hub"
    )
    p_run.add_argument(
        "name", help="experiment name, or 'serving' for a fixed-RPS point"
    )
    serving(p_run)
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser("report", help="run and print the windowed table")
    p_rep.add_argument("name")
    p_rep.add_argument(
        "--series", help="also dump this metric's windows as CSV rows"
    )
    common(p_rep)
    p_rep.set_defaults(fn=cmd_report)

    p_top = sub.add_parser(
        "gtop", help="top-like live view of an experiment or serving point"
    )
    p_top.add_argument(
        "target", help="experiment name, or 'serving' for a fixed-RPS point"
    )
    p_top.add_argument("--every", type=int, default=25,
                       help="render a frame every N windows")
    p_top.add_argument("--follow", action="store_true",
                       help="redraw in place with ANSI clears")
    p_top.add_argument("--max-frames", type=int, default=40,
                       help="cap on intermediate frames")
    serving(p_top)
    p_top.add_argument("--prom-stdout", action="store_true",
                       help="print Prometheus text after the final frame")
    p_top.add_argument(
        "--window-us", type=float, default=DEFAULT_WINDOW_NS / 1000.0
    )
    p_top.set_defaults(fn=cmd_gtop)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    target = args.target if args.cmd == "gtop" else args.name
    if args.cmd == "report" or target != "serving":
        status = experiments.check_names([target])
        if status:
            return status
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
