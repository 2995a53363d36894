"""Unified observability: per-hook metrics + structured event tracing.

The reproduction's answer to "what is my policy actually doing?".  Two
complementary primitives, both stamped with *simulated* time:

- a :class:`~repro.obs.registry.MetricsRegistry` of counters, gauges and
  histograms keyed by ``(app, scope, metric)`` — schedule() invocations,
  PASS/DROP/steer outcomes, map operation totals, ghOSt agent churn,
  verifier rejections — and
- an :class:`~repro.obs.events.EventTrace`, a bounded ring of structured
  decision events with a JSON-lines exporter.

Both hang off an :class:`Observability` handle created by
:class:`repro.machine.Machine`.  Observability is **off by default**:
``Machine(metrics=True)`` swaps the null implementations for live ones.
Instrumented code paths hold metric/trace objects directly, so the
disabled mode costs a no-op method call at most and changes no simulation
behavior — benchmark results are bit-identical with observability off.

A second tier builds on the registry (all opt-in, same null-singleton
discipline): :class:`repro.obs.timeseries.FlightRecorder` samples the
registry over *sim time* into bounded ring-buffered series (the
``Observability.recorder`` slot; ``Machine(metrics=True,
timeseries=...)``), :mod:`repro.obs.profile` attributes *wall-clock* time
to simulator subsystems, and :mod:`repro.obs.export` renders registry
snapshots as OpenMetrics text.

A third tier is *causal*: :mod:`repro.obs.spans` follows head-sampled
requests across every layer (``Machine(spans=N)``, the
``Observability.spans`` slot) and :mod:`repro.obs.tail` turns the
resulting span trees into a p50-vs-p99 critical-path attribution
(``syrupctl spans`` / ``syrupctl tail``).

The span tracer and the tenant accountant (:mod:`repro.obs.accounting`)
are both :class:`~repro.obs.observer.Observer` subclasses behind one seam
per datapath layer: the datapath holds :attr:`Observability.observer`,
one object that every lifecycle event is reported to once.

Operator surface: ``syrupctl stats`` / :func:`repro.syrupctl.render_stats`
renders the registry, ``syrupctl timeline`` the recorder;
``docs/observability.md`` is the metric catalogue and event schema.
"""

from repro.obs.accounting import TenantAccountant, TenantLedger
from repro.obs.events import NULL_EVENTS, EventTrace, NullEventTrace
from repro.obs.interference import (
    BlameMatrix,
    NoisyNeighborDetector,
    TenantShedController,
)
from repro.obs.export import open_destination, to_openmetrics, write_openmetrics
from repro.obs.registry import (
    NULL_METRIC,
    NULL_REGISTRY,
    CardinalityError,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetric,
    NullRegistry,
)
from repro.obs.observer import NULL_OBSERVER, Fanout, Observer
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import NULL_RECORDER, FlightRecorder, NullFlightRecorder

__all__ = [
    "DISABLED",
    "BlameMatrix",
    "CardinalityError",
    "Counter",
    "EventTrace",
    "Fanout",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_EVENTS",
    "NULL_METRIC",
    "NULL_OBSERVER",
    "NULL_RECORDER",
    "NULL_REGISTRY",
    "NoisyNeighborDetector",
    "NullEventTrace",
    "NullFlightRecorder",
    "NullMetric",
    "NullRegistry",
    "Observability",
    "Observer",
    "SpanTracer",
    "TenantAccountant",
    "TenantLedger",
    "TenantShedController",
    "open_destination",
    "to_openmetrics",
    "write_openmetrics",
]


class Observability:
    """A machine's metrics registry + event trace, or their null twins.

    ``recorder`` holds the time-series tier: :data:`NULL_RECORDER` unless
    the owner installs a live :class:`FlightRecorder` (see
    ``Machine(timeseries=...)``); it needs the engine, so construction
    stays with the machine.  ``spans`` is the causal span tracer
    (:mod:`repro.obs.spans`), live when constructed with ``spans=N``
    (sample every Nth request; ``Machine(spans=...)``) — independent of
    ``enabled``, since the tracer needs no registry.  ``acct`` is the
    per-tenant cost accountant (:mod:`repro.obs.accounting`), live when
    constructed with ``accounting=True`` (``Machine(accounting=True)``).
    Both are view handles and ``None`` when off.

    ``observer`` is what the datapath reports to: :data:`NULL_OBSERVER`
    when neither is live, the live one itself, or a :class:`Fanout` that
    calls the span tracer and then the accountant.
    """

    __slots__ = ("enabled", "registry", "events", "recorder", "spans",
                 "acct", "observer")

    def __init__(self, clock=None, enabled=False, event_capacity=4096,
                 max_series=4096, spans=0, spans_capacity=4096,
                 accounting=False):
        self.enabled = enabled
        self.recorder = NULL_RECORDER
        if enabled:
            self.registry = MetricsRegistry(clock=clock, max_series=max_series)
            self.events = EventTrace(clock=clock, capacity=event_capacity)
        else:
            self.registry = NULL_REGISTRY
            self.events = NULL_EVENTS
        self.spans = self.acct = None
        if spans:
            sample_every = 1 if spans is True else int(spans)
            self.spans = SpanTracer(clock=clock, sample_every=sample_every,
                                    capacity=spans_capacity)
        if accounting:
            self.acct = TenantAccountant(clock=clock)
        live = [o for o in (self.spans, self.acct) if o is not None]
        if not live:
            self.observer = NULL_OBSERVER
        elif len(live) == 1:
            self.observer = live[0]
        else:
            self.observer = Fanout(*live)

    def snapshot(self):
        """Registry snapshot rows (see MetricsRegistry.snapshot)."""
        return self.registry.snapshot()

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return f"<Observability {state} series={len(self.registry)}>"


#: Shared disabled instance for call sites given no machine-level handle.
DISABLED = Observability(enabled=False)
