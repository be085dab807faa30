"""Same-machine A/B of the benchmark: a git ref against the working tree.

    python3 benchmarks/ab.py --ref HEAD --workload figures --pairs 10
    python3 benchmarks/ab.py --ref main --workload serving --pairs 5 --trace 1

Run from anywhere inside a checkout.  The ref is exported with
``git archive`` into a temporary directory; the other side is the
checkout this file lives in, as it is on disk.  Each pair runs both
sides' own ``perfbench/run.py`` with the same arguments (seed 1).  On a
machine with two or more usable CPUs the two sides of a pair run at the
same time, one pinned to each CPU, so both see the same machine load;
otherwise they run one after the other and alternate which goes first.
Host speed drifts over minutes on shared machines, so sequential
passes of one side are not comparable across a session.

For every metric both sides report, it prints each pair's ratio
(change / ref), the median ratio, how many pairs the change won, and
the ref's interquartile range.  A metric is a *gain* (or a *loss*)
when the change is better (worse) in at least nine pairs in ten and its
median differs from the ref's by more than the ref's interquartile
range; with fewer than three pairs it is *unresolved*.  Counters (unit
``count``) are deterministic, so they are compared exactly, once.  The last stdout line is the summary as JSON.

Exit status: 0 when nothing regressed, 1 when either side reported
``correct: false`` or a larger share of failed operations, a metric
is a loss, or a counter rose.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fraction of pairs a side must win for a gain or loss to count.
WIN_SHARE = 0.9
#: Fewer pairs than this leave a timing metric unresolved: with one or
#: two samples the ref's quartile gap says nothing about its spread.
MIN_PAIRS = 3
SEED = 1


def export_ref(ref: str, into: str) -> None:
    """Write the tree of ``ref`` into the directory ``into``."""
    blob = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", ref],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as archive:
        archive.extractall(into)


def usable_cpus() -> List[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return list(range(os.cpu_count() or 1))


def command(args: argparse.Namespace) -> List[str]:
    return [
        sys.executable, "perfbench/run.py",
        "--workload", args.workload,
        "--seed", str(SEED),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]


def start(tree: str, argv: List[str], cpu: Optional[int]) -> subprocess.Popen:
    def pin() -> None:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})

    return subprocess.Popen(
        argv,
        cwd=tree,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        preexec_fn=pin,
    )


def result_of(proc: subprocess.Popen, side: str) -> dict:
    out, _ = proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab: the {side} side's perfbench exited {proc.returncode}")
    return json.loads(lines[-1])


def run_pair(
    trees: Dict[str, str], argv: List[str], index: int, cpus: List[int]
) -> Dict[str, dict]:
    """One pair: both sides at once on two CPUs, else in turn."""
    if len(cpus) >= 2:
        # Swap the CPUs every pair so neither side keeps the same one.
        pinned = cpus[:2] if index % 2 == 0 else cpus[1::-1]
        procs = {
            side: start(trees[side], argv, cpu)
            for side, cpu in zip(("ref", "change"), pinned)
        }
        return {side: result_of(proc, side) for side, proc in procs.items()}
    order = ["ref", "change"] if index % 2 == 0 else ["change", "ref"]
    return {side: result_of(start(trees[side], argv, None), side) for side in order}


def quartile_gap(values: Sequence[float]) -> float:
    """Distance between the first and third quartiles (0 for < 2)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def judge(
    ref: Sequence[float], change: Sequence[float], lower_is_better: bool
) -> Tuple[str, dict]:
    """Verdict and figures for one metric over paired samples."""
    sign = 1 if lower_is_better else -1
    wins = sum(1 for r, c in zip(ref, change) if sign * (r - c) > 0)
    losses = sum(1 for r, c in zip(ref, change) if sign * (c - r) > 0)
    ref_median = statistics.median(ref)
    change_median = statistics.median(change)
    gap = quartile_gap(ref)
    needed = WIN_SHARE * len(ref)
    if len(ref) < MIN_PAIRS:
        verdict = "unresolved"
    elif wins >= needed and sign * (ref_median - change_median) > gap:
        verdict = "gain"
    elif losses >= needed and sign * (change_median - ref_median) > gap:
        verdict = "loss"
    else:
        verdict = "same"
    ratios = [
        c / r if r else (1.0 if c == r else float("inf"))
        for r, c in zip(ref, change)
    ]
    return verdict, {
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "wins": wins,
        "pairs": len(ref),
        "ref_median": ref_median,
        "change_median": change_median,
        "ref_iqr": gap,
        "verdict": verdict,
    }


def lower_is_better() -> Dict[str, bool]:
    """Each metric's direction, from the repository's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        entry["name"]: entry.get("better", "lower") == "lower"
        for entry in spec.get("end_to_end", []) + spec.get("per_layer", [])
    }


def summarise(pairs: List[Dict[str, dict]], directions: Dict[str, bool]) -> dict:
    """The report over all pairs; ``ok`` is False on any regression."""
    problems: List[str] = []
    for side in ("ref", "change"):
        if not all(pair[side]["correct"] for pair in pairs):
            problems.append(f"{side} reported correct: false")
    shares = {
        side: sum(p[side]["failed"] for p in pairs)
        / max(1, sum(p[side]["attempted"] for p in pairs))
        for side in ("ref", "change")
    }
    if shares["change"] > shares["ref"]:
        problems.append("a larger share of operations failed")
    metrics: Dict[str, dict] = {}
    names = sorted(
        set(pairs[0]["ref"]["metrics"]) & set(pairs[0]["change"]["metrics"])
    )
    for name in names:
        ref = [pair["ref"]["metrics"][name]["value"] for pair in pairs]
        change = [pair["change"]["metrics"][name]["value"] for pair in pairs]
        lower = directions.get(name, True)
        if pairs[0]["ref"]["metrics"][name]["unit"] == "count":
            rose = change[0] > ref[0] if lower else change[0] < ref[0]
            metrics[name] = {"ref": ref[0], "change": change[0], "rose": rose}
            if rose:
                problems.append(f"counter {name} got worse: {ref[0]} -> {change[0]}")
            continue
        verdict, figures = judge(ref, change, lower)
        metrics[name] = figures
        if verdict == "loss":
            problems.append(f"{name} is a loss")
    return {
        "ok": not problems,
        "problems": problems,
        "failed_share": shares,
        "metrics": metrics,
    }


def render(summary: dict) -> str:
    lines = []
    for name, entry in summary["metrics"].items():
        if "verdict" not in entry:
            change = entry["change"]
            delta = (change - entry["ref"]) / entry["ref"] if entry["ref"] else 0.0
            lines.append(
                f"{name:28s} {entry['ref']:>14,} -> {change:>14,} ({delta:+.2%})"
                + ("  ROSE" if entry["rose"] else "")
            )
            continue
        ratios = " ".join(f"{ratio:.3f}" for ratio in entry["ratios"])
        lines.append(
            f"{name:28s} median ratio {entry['median_ratio']:.3f}  "
            f"wins {entry['wins']}/{entry['pairs']}  "
            f"ref {entry['ref_median']:.4g} (IQR {entry['ref_iqr']:.3g})  "
            f"change {entry['change_median']:.4g}  {entry['verdict'].upper()}\n"
            f"{'':28s} pairs: {ratios}"
        )
    for problem in summary["problems"]:
        lines.append(f"PROBLEM: {problem}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git ref of the base side")
    parser.add_argument("--workload", required=True, help="perfbench workload")
    parser.add_argument("--pairs", type=int, default=10, help="A/B pairs to run")
    parser.add_argument(
        "--seconds", type=float, default=10.0, help="perfbench --seconds per run"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    cpus = usable_cpus()
    argv_run = command(args)
    with tempfile.TemporaryDirectory(prefix="ab-ref-") as ref_tree:
        export_ref(args.ref, ref_tree)
        trees = {"ref": ref_tree, "change": ROOT}
        pairs = []
        for index in range(args.pairs):
            pair = run_pair(trees, argv_run, index, cpus)
            pairs.append(pair)
            wall = {
                side: result["metrics"].get("wall_s", {}).get("value")
                for side, result in pair.items()
            }
            print(f"pair {index + 1}/{args.pairs}: {wall}", file=sys.stderr)
    summary = summarise(pairs, lower_is_better())
    summary.update(
        ref=args.ref,
        workload=args.workload,
        trace=args.trace,
        concurrent=len(cpus) >= 2,
    )
    print(render(summary))
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
