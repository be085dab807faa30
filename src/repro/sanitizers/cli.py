"""``python -m repro.sanitizers`` — run the sanitizers from the shell.

Subcommands:

``check``
    The GSan sweep: run each experiment bare, then again with GSan
    attached to every built System, and assert (a) the rendered
    output is byte-identical — the sanitizer is a pure observer — and
    (b) zero violations.  Exits 1 on any divergence or violation.

``lint``
    The static pass: determinism hazards, tracepoint-registry drift,
    errno constants, hot-path ``__slots__``.  Exits 1 on findings.

``report``
    The seeded violation corpus: run every known-bad entry and print
    the rendered violation timelines.  Exits 1 if any seeded bug goes
    undetected — a sanitizer that cannot catch a planted bug is
    broken.

Examples::

    python -m repro.sanitizers check --experiments fig2,fig7
    python -m repro.sanitizers lint
    python -m repro.sanitizers report --json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.probes.tracepoints import attached
from repro.sanitizers.corpus import distinct_rules, run_corpus
from repro.sanitizers.gsan import GSanPlan
from repro.sanitizers.lint import run_lint

#: The package root the default lint run covers (``src/repro``).
DEFAULT_LINT_ROOT = Path(__file__).resolve().parent.parent


def _parse_csv(raw: str) -> List[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _cmd_check(args: argparse.Namespace) -> int:
    from repro import experiments

    names = _parse_csv(args.experiments) if args.experiments else experiments.all_names()
    status = experiments.check_names(names)
    if status:
        return status
    rows = []
    failed = False
    for name in names:
        bare = experiments.run(name).render()
        plan = GSanPlan()
        with attached(plan):
            sanitized = experiments.run(name).render()
        violations = plan.finish()
        identical = sanitized == bare
        row = {
            "experiment": name,
            "byte_identical": identical,
            "events": plan.events,
            "violations": len(violations),
            "systems": len(plan.sanitizers),
        }
        rows.append(row)
        if not identical or violations:
            failed = True
            if not args.json:
                print(f"FAIL {name}: identical={identical} "
                      f"violations={len(violations)}")
                for violation in violations:
                    print(violation.render())
        elif not args.json:
            print(
                f"ok   {name}: byte-identical, {plan.events} events, "
                f"0 violations ({len(plan.sanitizers)} system(s))"
            )
    if args.json:
        print(json.dumps({"experiments": rows, "ok": not failed}, indent=2))
    elif not failed:
        print(f"GSan sweep: {len(rows)} experiment(s) byte-identical, clean")
    return 1 if failed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths] or [DEFAULT_LINT_ROOT]
    findings = run_lint(paths)
    if args.json:
        print(
            json.dumps(
                {
                    "findings": [
                        {
                            "code": f.code,
                            "path": f.path,
                            "line": f.line,
                            "message": f.message,
                        }
                        for f in findings
                    ],
                    "ok": not findings,
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        label = ", ".join(str(p) for p in paths)
        if findings:
            print(f"repro.lint: {len(findings)} finding(s) in {label}")
        else:
            print(f"repro.lint: clean ({label})")
    return 1 if findings else 0


def _cmd_report(args: argparse.Namespace) -> int:
    names = _parse_csv(args.entries) if args.entries else None
    results = run_corpus(names)
    missed = [result for result in results if not result.detected]
    if args.json:
        print(
            json.dumps(
                {
                    "entries": [
                        {
                            "name": result.entry.name,
                            "expected_rule": result.entry.expected_rule,
                            "detected": result.detected,
                            "rules_hit": result.sanitizer.rules_hit(),
                        }
                        for result in results
                    ],
                    "distinct_rules": distinct_rules(),
                    "ok": not missed,
                },
                indent=2,
            )
        )
    else:
        for result in results:
            print(result.render())
            print()
        print(
            f"violation corpus: {len(results) - len(missed)}/{len(results)} "
            f"seeded bugs detected across {len(distinct_rules())} rules"
        )
    return 1 if missed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitizers",
        description="slot-protocol sanitizer (GSan) + determinism lint",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="GSan sweep over experiments (byte-identical, clean)"
    )
    check.add_argument(
        "--experiments",
        default="",
        help="comma-separated experiment names (default: all)",
    )
    check.add_argument("--json", action="store_true")
    check.set_defaults(fn=_cmd_check)

    lint = sub.add_parser("lint", help="static determinism/registry lint")
    lint.add_argument(
        "paths", nargs="*", help="files or directories (default: src/repro)"
    )
    lint.add_argument("--json", action="store_true")
    lint.set_defaults(fn=_cmd_lint)

    report = sub.add_parser(
        "report", help="run the seeded violation corpus and print timelines"
    )
    report.add_argument(
        "--entries", default="", help="comma-separated entry names (default: all)"
    )
    report.add_argument("--json", action="store_true")
    report.set_defaults(fn=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
