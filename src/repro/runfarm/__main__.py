"""``python -m repro.runfarm pytest`` — shard the test suite.

The suite's files are split round-robin across workers, each an
independent ``python -m pytest`` subprocess; exits nonzero if any shard
fails.  Used by CI to run tier-1 on 4 workers.  The farmed chaos matrix
is ``python -m repro.faults chaos --workers N``.
"""

from __future__ import annotations

import argparse
import glob
import os
import subprocess
import sys
import time

from repro.runfarm import default_workers, shard


def _cmd_pytest(args: argparse.Namespace) -> int:
    files = sorted(glob.glob(os.path.join(args.tests, "test_*.py")))
    if not files:
        print(f"no test files under {args.tests!r}", file=sys.stderr)
        return 2
    shards = [s for s in shard(files, args.workers) if s]
    env = dict(os.environ)
    src = os.path.abspath("src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    start = time.perf_counter()
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", *args.pytest_args, *shard_files],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        for shard_files in shards
    ]
    failed = 0
    for index, proc in enumerate(procs):
        output, _ = proc.communicate()
        tail = [line for line in output.strip().splitlines() if line.strip()][-1:]
        status = "ok" if proc.returncode == 0 else f"FAIL rc={proc.returncode}"
        print(f"shard {index}/{len(procs)} ({len(shards[index])} files): {status}"
              f" — {tail[0] if tail else ''}")
        if proc.returncode != 0:
            failed += 1
            print(output)
    wall = time.perf_counter() - start
    print(
        f"pytest farm: {len(procs)} shard(s), {failed} failed, "
        f"{wall:.1f}s wall on {args.workers} worker(s)"
    )
    if args.budget_s and wall > args.budget_s:
        print(f"wall-time budget exceeded: {wall:.1f}s > {args.budget_s:.1f}s")
        return 3
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runfarm", description=__doc__.split("\n", 1)[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pytest_p = sub.add_parser("pytest", help="shard the test suite")
    pytest_p.add_argument("--tests", default="tests")
    pytest_p.add_argument("--workers", type=int, default=default_workers())
    pytest_p.add_argument(
        "--budget-s", type=float, default=0.0,
        help="fail if total wall time exceeds this many seconds",
    )
    pytest_p.add_argument("pytest_args", nargs="*", default=[])
    pytest_p.set_defaults(fn=_cmd_pytest)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
