"""Command-line probe runner.

Usage::

    python -m repro.probes list                     # tracepoint catalogue
    python -m repro.probes run fig2 \\
        --attach counter:* \\
        --attach hist:syscall.complete \\
        --attach rate:irq.raised:5000 \\
        --policy coalesce.window=20000 \\
        --metrics probes_metrics.json

Attach specs (``--attach``, repeatable)::

    counter:PATTERN[:key=N]   count fires; PATTERN is a name, prefix*
                              glob, or *; key=N also counts per value
                              of fire argument N
    hist:NAME[:value=N]       log2 latency histogram over argument N
                              (default 0) of tracepoint NAME
    rate:NAME[:bin_ns]        fires/second time series in bin_ns bins
    spans                     per-invocation span tracer (repro.tracing);
                              --metrics then includes a schema-versioned
                              span summary section per System

Policies (``--policy``, repeatable) pin a decision point to a constant,
e.g. ``--policy coalesce.window=20000`` — the CLI twin of writing
``/sys/genesys/coalesce_window_ns``.

Because experiments build their Systems internally, the CLI runs the
experiment inside ``with repro.probes.attached(plan)``: every
``System.__init__`` in that scope applies the plan to its fresh
registry, and the plan is popped again when the scope exits.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from repro.probes import policy as policy_mod
from repro.probes.exporters import metrics_snapshot
from repro.probes.programs import CounterProbe, LatencyHistogram, RateMeter
from repro.probes.tracepoints import ProbeRegistry, attached


class SpecError(ValueError):
    """A malformed --attach / --policy argument."""


def apply_attach_spec(registry: ProbeRegistry, spec: str) -> int:
    """Attach the programs ``spec`` describes; returns how many."""
    kind, _, rest = spec.partition(":")
    if kind == "spans":
        if rest not in ("", "*"):
            raise SpecError(f"--attach {spec!r}: spans takes no target")
        from repro.tracing.spans import SpanTracer

        SpanTracer(registry).install()
        return 1
    if not rest:
        raise SpecError(f"--attach {spec!r}: expected KIND:TARGET")
    if kind == "counter":
        pattern, _, option = rest.partition(":")
        key_arg = None
        if option:
            if not option.startswith("key="):
                raise SpecError(f"--attach {spec!r}: counter option must be key=N")
            key_arg = _parse_int(spec, option[4:])
        matches = registry.match(pattern)
        for tp in matches:
            registry.attach(tp.name, CounterProbe(registry, key_arg=key_arg))
        return len(matches)
    if kind == "hist":
        name, _, option = rest.partition(":")
        value_arg = 0
        if option:
            if not option.startswith("value="):
                raise SpecError(f"--attach {spec!r}: hist option must be value=N")
            value_arg = _parse_int(spec, option[6:])
        registry.attach(name, LatencyHistogram(registry, value_arg=value_arg))
        return 1
    if kind == "rate":
        name, _, option = rest.partition(":")
        bin_ns = float(_parse_int(spec, option)) if option else 10_000.0
        if bin_ns <= 0:
            raise SpecError(f"--attach {spec!r}: bin_ns must be positive")
        registry.attach(name, RateMeter(registry, bin_ns=bin_ns))
        return 1
    raise SpecError(f"--attach {spec!r}: unknown kind {kind!r} (counter|hist|rate|spans)")


def apply_policy_spec(registry: ProbeRegistry, spec: str) -> None:
    """Attach a fixed-value policy program per ``HOOK=VALUE``."""
    hook_name, sep, raw = spec.partition("=")
    if not sep or not raw:
        raise SpecError(f"--policy {spec!r}: expected HOOK=VALUE")
    try:
        value = float(raw) if ("." in raw or "e" in raw.lower()) else int(raw)
    except ValueError:
        raise SpecError(f"--policy {spec!r}: VALUE must be numeric") from None
    registry.attach_policy(hook_name, policy_mod.fixed(value))


def _parse_int(spec: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise SpecError(f"--attach {spec!r}: {raw!r} is not an integer") from None


def _print_catalogue() -> None:
    from repro.system import System

    registry = System().probes
    for name, info in registry.catalogue().items():
        args = ", ".join(info["args"])
        tag = "hook" if info["kind"] == "hook" else "tp  "
        print(f"{tag} {name:<26} ({args})  {info['doc']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.probes",
        description="Attach tracepoint probes and policies to an experiment run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="print the tracepoint + hook catalogue")
    run_p = sub.add_parser("run", help="run one experiment with probes attached")
    run_p.add_argument("experiment", help="experiment name (see python -m repro.experiments)")
    run_p.add_argument(
        "--attach",
        action="append",
        default=[],
        metavar="SPEC",
        help="counter:PATTERN[:key=N] | hist:NAME[:value=N] | rate:NAME[:bin_ns] | spans",
    )
    run_p.add_argument(
        "--policy",
        action="append",
        default=[],
        metavar="HOOK=VALUE",
        help="pin a policy hook to a constant (e.g. coalesce.window=20000)",
    )
    run_p.add_argument(
        "--metrics",
        metavar="PATH",
        help="write the probe metrics snapshot JSON here",
    )
    run_p.add_argument(
        "--quiet", action="store_true", help="suppress the experiment's own tables"
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        _print_catalogue()
        return 0

    from repro import experiments

    status = experiments.check_names([args.experiment])
    if status:
        return status
    registries: List[ProbeRegistry] = []

    def plan(registry: ProbeRegistry) -> None:
        registries.append(registry)
        try:
            for spec in args.attach:
                apply_attach_spec(registry, spec)
            for spec in args.policy:
                apply_policy_spec(registry, spec)
        except (SpecError, KeyError) as err:
            # Surface bad specs immediately instead of at System #2.
            raise SystemExit(f"error: {err}") from None

    with attached(plan):
        result = experiments.run(args.experiment)

    if not args.quiet:
        print(result.render())
    if not registries:
        print("warning: experiment built no System; nothing was probed", file=sys.stderr)

    if args.metrics:
        snapshot = {
            "schema": 1,
            "experiment": args.experiment,
            "num_systems": len(registries),
            "systems": [
                metrics_snapshot(registry, experiment=args.experiment)
                for registry in registries
            ],
        }
        with open(args.metrics, "w") as fh:
            json.dump(snapshot, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.metrics}")
    return 0
