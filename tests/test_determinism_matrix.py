"""The determinism matrix: every experiment renders byte-identical under
each row of attach plans and bare (one bare render per session).

* ``all``: counters on every tracepoint, a histogram, a rate meter and
  a SpanTracer (:func:`attach_everything`), GSan, a MetricsHubPlan and
  the FIFO tie-break, which moves the engine onto its ``tie_break`` pop
  path.  GSan must also report no violation on any experiment.
* ``hub``: the MetricsHubPlan alone.  The hub is the only attachment
  that schedules events (weak flush ticks), so it also runs on the
  ``tie_break = None`` fast path.
"""

import functools

import pytest

from repro import experiments
from repro.metrics import MetricsHubPlan
from repro.modelcheck.schedule import FifoSchedulePlan
from repro.probes.programs import CounterProbe, LatencyHistogram, RateMeter
from repro.probes.tracepoints import attached
from repro.sanitizers.gsan import GSanPlan


def attach_everything(registry):
    """Counters on every tracepoint plus the time/latency programs and
    a full span tracer (repro.tracing); with GSan after it, the heaviest
    supported observer load."""
    from repro.tracing.spans import SpanTracer

    for tp in registry.match("*"):
        registry.attach(tp.name, CounterProbe(registry, key_arg=0))
    registry.attach("syscall.complete", LatencyHistogram(registry, value_arg=2))
    registry.attach("irq.raised", RateMeter(registry, bin_ns=5000.0))
    SpanTracer(registry).install()


#: Row name -> factory of fresh plans (plans collect per-run state).
ROWS = {
    "all": lambda: [
        attach_everything, GSanPlan(), MetricsHubPlan(), FifoSchedulePlan()
    ],
    "hub": lambda: [MetricsHubPlan()],
}


def render_with(name, plans):
    with attached(*plans):
        return experiments.run(name).render()


@functools.cache
def run_row(name, row):
    """One run per session: (render, hubs, FIFO installs, GSans, GSan
    findings, hits per System)."""
    plans = ROWS[row]()
    registries = []
    render = render_with(name, plans + [registries.append])
    hubs = sum(len(p.hubs) for p in plans if isinstance(p, MetricsHubPlan))
    fifos = sum(p.installed for p in plans if isinstance(p, FifoSchedulePlan))
    gsan_plans = [p for p in plans if isinstance(p, GSanPlan)]
    gsans = sum(len(p.sanitizers) for p in gsan_plans)
    findings = [v.render() for p in gsan_plans for v in p.finish()]
    hits = [sum(tp.hits for tp in r.tracepoints.values()) for r in registries]
    return render, hubs, fifos, gsans, findings, hits


@pytest.mark.parametrize("row", list(ROWS))
@pytest.mark.parametrize("name", experiments.all_names())
def test_byte_identical(name, row, bare_render):
    bare = bare_render(name)
    if run_row(name, row)[0] != bare:
        # Name the plans that break determinism on their own.
        culprits = [
            getattr(plan, "__name__", type(plan).__name__)
            for plan in ROWS[row]()
            if render_with(name, [plan]) != bare
        ]
        pytest.fail(f"{name} diverges under row {row!r}; alone: {culprits}")
    assert name != "fig2" or row != "hub" or run_row(name, row)[1], "no hub"


@pytest.mark.parametrize("name", experiments.all_names())
def test_every_plan_reached_every_system(name):
    """Guard against vacuous determinism: in the ``all`` row every plan
    reached every System built, and each System fired tracepoints.  Not
    every experiment builds a System; the flagship fig2 must."""
    _, hubs, fifos, gsans, _, hits = run_row(name, "all")
    assert hubs == fifos == gsans == len(hits) and all(hits), (
        hubs, fifos, gsans, hits,
    )
    assert name != "fig2" or hits, "fig2 built no System"


@pytest.mark.parametrize("name", experiments.all_names())
def test_gsan_finds_no_violation(name):
    """The slot protocol holds on every experiment under the ``all`` row."""
    assert run_row(name, "all")[4] == []
