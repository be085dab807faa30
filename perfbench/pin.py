"""Regenerate ``pins.json``, the pinned simulated-output digests.

    python3 perfbench/pin.py

Pins every experiment of ``figures`` and every serving seed in
``suite.PINNED_SERVING_SEEDS``.

Run from the root of a checkout.  Re-pin only in a change that means to
alter simulated outputs, and say so in that change: the pins are what
makes a faster simulator that models something different fail.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import suite  # noqa: E402


def digests(workload: Any) -> Dict[str, str]:
    """One untimed pass: operation -> digest."""
    workload.setup()
    out = {}
    for op in workload.ops():
        digest, failures = workload.run_op(op)
        if failures:
            raise RuntimeError(f"{workload.name} {op}: {failures} failed checks")
        out[str(op)] = digest
    return out


def main() -> int:
    pins = {
        "figures": digests(suite.Figures(seed=0)),
        "serving": {
            str(seed): digests(suite.Serving(seed)) for seed in suite.PINNED_SERVING_SEEDS
        },
    }
    with open(suite.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
