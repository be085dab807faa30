"""Attachable probe programs: counters, latency histograms, rate meters.

These are the observer-side building blocks — the moral equivalents of
``BPF_MAP_TYPE_ARRAY`` counters, ``hist()`` in bpftrace, and a
per-interval event rate.  All of them are *pure observers*: they read
the fire arguments and the registry clock, accumulate into private
state, and never touch the simulator.  Attaching any mix of them leaves
experiment outputs byte-identical (the determinism contract in
:mod:`repro.probes.tracepoints`).

Each program implements:

* ``bind(tracepoint)`` — called by ``ProbeRegistry.attach``; lets the
  program remember what it measures and registers it for export;
* ``__call__(*fire_args)`` — the observer body;
* ``snapshot()`` — a JSON-ready dict for the metrics exporter.

:class:`RateMeter` also has ``series()``, which
:func:`repro.traceviz.probe_tracks` draws as a Perfetto counter track.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.probes.tracepoints import ProbeRegistry, Tracepoint


def log2_bucket(value: float) -> int:
    """The log2 bucket holding ``value``: bucket *b* holds values in
    ``[2^b, 2^(b+1))``, and bucket 0 also absorbs sub-1.0 values."""
    return int(math.floor(math.log2(value))) if value >= 1.0 else 0


def percentile_from_log2_buckets(buckets: Dict[int, int], q: float) -> float:
    """Nearest-rank percentile over log2 buckets; 0.0 when empty.

    Buckets are :func:`log2_bucket` indices; the reported percentile is
    the holding bucket's upper edge — a conservative bound, exact to
    within one power of two.  A single-sample histogram answers every
    ``q`` with that sample's bucket edge rather than raising.
    """
    total = sum(buckets.values())
    if total == 0:
        return 0.0
    q = min(max(q, 0.0), 100.0)
    rank = max(1, int(math.ceil(q / 100.0 * total)))
    seen = 0
    for bucket in sorted(buckets):
        seen += buckets[bucket]
        if seen >= rank:
            return float(2 ** (bucket + 1))
    return float(2 ** (max(buckets) + 1))


class ProbeProgram:
    """Base class wiring the bind/snapshot plumbing."""

    kind = "probe"

    def __init__(self, registry: ProbeRegistry, name: Optional[str] = None):
        self.registry = registry
        self.name = name
        self.tracepoint: Optional[Tracepoint] = None

    def bind(self, tracepoint: Tracepoint) -> None:
        self.tracepoint = tracepoint
        if self.name is None:
            self.name = tracepoint.name

    def __call__(self, *values: Any) -> None:
        raise NotImplementedError

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "tracepoint": self.tracepoint.name if self.tracepoint else None,
        }


class CounterProbe(ProbeProgram):
    """Counts fires; with ``key_arg`` set, counts per distinct value of
    that fire argument (e.g. hits per syscall name)."""

    kind = "counter"

    def __init__(
        self,
        registry: ProbeRegistry,
        name: Optional[str] = None,
        key_arg: Optional[int] = None,
    ):
        super().__init__(registry, name)
        self.key_arg = key_arg
        self.count = 0
        self.by_key: Dict[str, int] = {}

    def __call__(self, *values: Any) -> None:
        self.count += 1
        if self.key_arg is not None and self.key_arg < len(values):
            key = str(values[self.key_arg])
            self.by_key[key] = self.by_key.get(key, 0) + 1

    def snapshot(self) -> dict:
        out = super().snapshot()
        out["count"] = self.count
        if self.key_arg is not None:
            out["by_key"] = dict(sorted(self.by_key.items()))
        return out


class LatencyHistogram(ProbeProgram):
    """Log2-bucketed histogram over one numeric fire argument.

    Bucket *i* holds values in ``[2^i, 2^(i+1))`` ns (bucket 0 also
    takes everything below 1 ns) — the familiar bpftrace ``hist()``
    shape, which keeps the snapshot small at any latency scale.
    """

    kind = "histogram"

    def __init__(
        self,
        registry: ProbeRegistry,
        name: Optional[str] = None,
        value_arg: int = 0,
    ):
        super().__init__(registry, name)
        self.value_arg = value_arg
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def __call__(self, *values: Any) -> None:
        if self.value_arg >= len(values):
            return
        value = values[self.value_arg]
        if not isinstance(value, (int, float)):
            return
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        bucket = log2_bucket(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (bucket upper edge); 0.0 when the
        histogram is empty, well-defined for a single sample."""
        return percentile_from_log2_buckets(self.buckets, q)

    def snapshot(self) -> dict:
        out = super().snapshot()
        out.update(
            count=self.count,
            mean=self.mean,
            min=self.min,
            max=self.max,
            buckets={
                f"[{2**b if b else 0}, {2**(b+1)})": n
                for b, n in sorted(self.buckets.items())
            },
        )
        return out


class RateMeter(ProbeProgram):
    """Fires per time bin — the one program with a time series.

    Samples the registry clock at each fire and buckets counts into
    ``bin_ns``-wide bins; ``series()`` reports the *rate* (fires per
    second of simulated time) at each bin start, which the exporter
    turns into a Perfetto "C" counter track.
    """

    kind = "rate"

    def __init__(
        self,
        registry: ProbeRegistry,
        name: Optional[str] = None,
        bin_ns: float = 10_000.0,
    ):
        super().__init__(registry, name)
        if bin_ns <= 0:
            raise ValueError("bin_ns must be positive")
        self.bin_ns = float(bin_ns)
        self.count = 0
        self.bins: Dict[int, int] = {}

    def __call__(self, *values: Any) -> None:
        self.count += 1
        index = int(self.registry.now() // self.bin_ns)
        self.bins[index] = self.bins.get(index, 0) + 1

    def series(self) -> List[Tuple[float, float]]:
        scale = 1e9 / self.bin_ns  # events per simulated second
        return [
            (index * self.bin_ns, count * scale)
            for index, count in sorted(self.bins.items())
        ]

    def rate_at(self, t_ns: float) -> float:
        """Rate (fires/second) of the bin containing ``t_ns``; 0.0 for
        bins that saw no fires (including before/after the run)."""
        count = self.bins.get(int(t_ns // self.bin_ns), 0)
        return count * 1e9 / self.bin_ns

    def rate_between(self, t0_ns: float, t1_ns: float) -> float:
        """Mean rate over ``[t0_ns, t1_ns)``; zero-duration (or
        inverted) intervals report 0.0 instead of raising.  Partial
        bins at the edges are pro-rated by overlap."""
        duration = t1_ns - t0_ns
        if duration <= 0:
            return 0.0
        fires = 0.0
        for index, count in self.bins.items():
            bin_lo = index * self.bin_ns
            overlap = min(bin_lo + self.bin_ns, t1_ns) - max(bin_lo, t0_ns)
            if overlap > 0:
                fires += count * (overlap / self.bin_ns)
        return fires * 1e9 / duration

    def snapshot(self) -> dict:
        out = super().snapshot()
        out.update(count=self.count, bin_ns=self.bin_ns, bins=len(self.bins))
        return out
