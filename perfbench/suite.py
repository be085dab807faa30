"""The benchmark's workloads and the digests that pin their outputs.

A workload is a list of *operations* (one experiment, or one serving
point) that :mod:`run` cycles through.  Running an operation returns a
digest of its simulated output plus the number of checks it failed; the
caller compares digests against ``pins.json`` and across repetitions,
so a faster simulator that models something different shows up as
failed operations, not as a gain.

Why these workloads (layer shares from cProfile on a 2-CPU container):

* ``figures`` regenerates all 20 registered experiments on cold
  ``System``s, which is what a reproducer runs.  Host time goes to
  ``gpu`` 27%, ``core`` 19%, ``sim`` 14%, ``memory`` 9%,
  ``workloads`` 8%, ``oskernel`` 3%; the observers are detached.
* ``serving`` drives open-loop Poisson memcached at 1/2x, 1x and 2x the
  knee, each point restored from one warm snapshot.  It loads the slot
  protocol, interrupts, workqueue, UDP stack and snapshot restore that
  ``figures`` barely touches; the 2x point takes the backlog-drop, late
  and timeout paths.
* ``serving-observed`` is ``serving`` with GSan, a metrics hub and a
  span tracer attached, so tracepoint fires reach live observers.  Its
  outputs must equal ``serving``'s and GSan must report nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

#: Offered loads: 1/2x, 1x and 2x ``repro.serving.sweep.DEFAULT_KNEE``
#: for memcached (110k RPS).
SERVING_RPS: Tuple[int, ...] = (55_000, 110_000, 220_000)
#: Simulated measure window per point; the rest of ``ServingConfig``
#: (256 clients, zipf 0.99, warmup, timeout, backlog) stays default.
SERVING_MEASURE_NS = 10_000_000.0
#: Serving seeds whose digests ``pins.json`` holds.
PINNED_SERVING_SEEDS = range(64)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _json_key(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def canonical(obj: Any) -> Any:
    """``obj`` as JSON-able data that does not depend on
    ``PYTHONHASHSEED``: dicts and sets are sorted, dataclasses become
    their fields and floats keep every digit.  Other objects (live
    ``System``s, workload instances) reduce to their type name, since
    their default repr is a memory address."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return {"bytes": obj.hex()}
    if isinstance(obj, dict):
        items = [[canonical(k), canonical(v)] for k, v in obj.items()]
        return {"dict": sorted(items, key=lambda kv: _json_key(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return {"set": sorted((canonical(item) for item in obj), key=_json_key)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.fields(obj)
        return {type(obj).__name__: {f.name: canonical(getattr(obj, f.name)) for f in fields}}
    return {"object": type(obj).__name__}


class Figures:
    """Every registered paper experiment, each on fresh Systems.

    The digest covers both the rendered tables and ``.data``, made
    canonical, so a value that rounds to the same printed digits still
    fails.  Both are stable across ``PYTHONHASHSEED``.  The workload has
    no random inputs, so ``seed`` only labels the run.
    """

    name = "figures"

    def __init__(self, seed: int) -> None:
        from repro import experiments

        self.seed = seed
        self._experiments = experiments
        self.modules = ("repro.experiments",) + tuple(
            f"repro.experiments.{module}" for module in experiments.REGISTRY.values()
        )

    def ops(self) -> List[str]:
        return self._experiments.all_names()

    def setup(self) -> None:
        """Nothing is warmed: the experiments build cold machines."""

    def run_op(self, name: str) -> Tuple[str, int]:
        result = self._experiments.run(name)
        doc = {"render": result.render(), "data": canonical(result.data)}
        return sha256_text(_json_key(doc)), 0

    def pinned(self, pins: dict) -> Dict[str, str]:
        return pins["figures"]


class Serving:
    """Open-loop memcached points, each restored from one warm blob."""

    name = "serving"
    modules: Tuple[str, ...] = (
        "repro.serving.sweep",
        "repro.sim.snapshot",
        "repro.workloads.memcachedwl",
    )

    def __init__(self, seed: int) -> None:
        from repro.serving.sweep import ServingConfig

        self.seed = seed
        self.config = ServingConfig(seed=seed, measure_ns=SERVING_MEASURE_NS)
        self.blob: Optional[bytes] = None

    def ops(self) -> List[int]:
        return list(SERVING_RPS)

    def setup(self) -> None:
        """Build the machine, fill the memcached table, checkpoint it."""
        from repro.serving.sweep import build_target

        system, workload = build_target(self.config)
        self.blob = system.checkpoint(extra=workload)

    def attach_observers(self, system: Any) -> List[Any]:
        return []

    def observer_failures(self, observers: List[Any]) -> int:
        return 0

    def run_op(self, rps: int) -> Tuple[str, int]:
        from repro.serving.sweep import memcached_reply_check, run_point_on
        from repro.sim import snapshot

        restored = snapshot.load(self.blob)
        system, workload = restored.system, restored.extra
        observers = self.attach_observers(system)
        args = (system, workload, self.config, rps, memcached_reply_check(workload))
        point = run_point_on(*args)
        # A reply whose value bytes differ from the table is wrong on
        # any seed, pinned or not.
        failures = point["lifecycle"]["bad_replies"] + self.observer_failures(observers)
        return point_digest(system, point), failures

    def pinned(self, pins: dict) -> Optional[Dict[str, str]]:
        return pins["serving"].get(str(self.seed))


class ServingObserved(Serving):
    """``serving`` with every observer plane attached after restore."""

    name = "serving-observed"
    modules = Serving.modules + (
        "repro.sanitizers.gsan",
        "repro.metrics.hub",
        "repro.tracing.spans",
    )

    def attach_observers(self, system: Any) -> List[Any]:
        from repro.metrics.hub import MetricsHubPlan
        from repro.sanitizers.gsan import GSanPlan
        from repro.tracing.spans import SpanTracer

        gsan = GSanPlan()
        hub = MetricsHubPlan()
        gsan(system.probes)
        hub(system.probes)
        SpanTracer(system.probes).install()
        return [gsan]

    def observer_failures(self, observers: List[Any]) -> int:
        (gsan,) = observers
        return len(gsan.finish())


def point_digest(system: Any, point: dict) -> str:
    """Latency summary, lifecycle counts, ``Genesys.stats()`` and
    ``Network.stats()`` of one serving point."""
    doc = {
        "latency_ns": point["latency_ns"],
        "lifecycle": point["lifecycle"],
        "achieved_rps": point["achieved_rps"],
        "genesys": system.genesys.stats(),
        "net": system.kernel.net.stats(),
    }
    return sha256_text(json.dumps(doc, sort_keys=True))


WORKLOADS = {cls.name: cls for cls in (Figures, Serving, ServingObserved)}
