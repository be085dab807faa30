"""Command-line experiment runner.

Usage::

    python -m repro.experiments              # list experiments
    python -m repro.experiments fig8 fig9    # run and print those
    python -m repro.experiments --all        # run everything
"""

from __future__ import annotations

import argparse
import time

from repro.experiments import all_names, check_names, load, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("names", nargs="*", help="experiment names (see --list)")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiment names")
    args = parser.parse_args(argv)

    if args.list or (not args.names and not args.all):
        print("available experiments:")
        for name in all_names():
            module = load(name)
            print(f"  {name:<18} {getattr(module, 'TITLE', '')}")
        return 0

    names = all_names() if args.all else args.names
    status = check_names(names)
    if status:
        return status
    for name in names:
        start = time.time()
        result = run(name)
        print(result.render())
        print(f"[{name}: {time.time() - start:.1f}s wall]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
