"""``repro.obs`` — simulation telemetry: metrics, tracing, provenance.

The simulator is instrumented at its decision points (DBA splits,
wavelength-state transitions, reservation windows, ML predictions,
experiment jobs), all gated behind one process-wide
:class:`ObsSession`.  Telemetry is strictly observational:
no instrument touches an RNG or alters control flow, so results with
telemetry on are bit-identical to results with it off — on every cycle
engine, including the struct-of-arrays core.

Usage::

    from repro import obs

    with obs.session(sample_every=1):
        result = REGISTRY["fig9"]()
        print(obs.OBS.registry.snapshot())
        obs.write_trace_artifacts("run", ...)

Hot paths guard on ``OBS.enabled`` (a plain attribute read), so the
disabled cost is one boolean check per instrumentation site — the
telemetry-overhead benchmark in ``benchmarks/`` holds the enabled cost
under 5% of an uninstrumented run.  Besides the registry and tracer,
an enabled session records the per-window :mod:`~repro.obs.series`
(exported as ``<stem>.series.npz``) and tallies which simulation
engines actually executed (:attr:`ObsSession.engines`).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, Optional

from .export import (
    JSONL_SCHEMA,
    chrome_trace_doc,
    jsonl_records,
    series_path,
    trace_paths,
    write_chrome_trace,
    write_jsonl,
    write_series,
    write_trace_artifacts,
)
from .provenance import collect_provenance, config_digest, git_provenance
from .report import (
    metrics_rows,
    render_report,
    render_series_report,
    report_doc,
    wall_phase_rows,
)
from .registry import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .series import (
    DEFAULT_SERIES_CAPACITY,
    SERIES_SCHEMA,
    WindowSeriesRecorder,
    load_series,
    save_series,
    series_summary,
)
from .tracer import DEFAULT_CAPACITY, EventTracer, TraceEvent


class ObsSession:
    """Process-wide telemetry state: registry + tracer + window series.

    A single instance (:data:`OBS`) lives for the process; ``enable``/
    ``disable`` mutate it in place so modules that imported ``OBS`` at
    import time always see the current state.  :attr:`engines` counts
    the simulation engines that actually ran (requested == used is the
    invariant ``PearlNetwork.run`` now upholds — there is no silent
    downgrade — and this tally is the artifact-level proof).
    """

    def __init__(self) -> None:
        self.enabled = False
        self.sample_every = 1
        self.registry = MetricsRegistry()
        self.tracer = EventTracer()
        self.series = WindowSeriesRecorder()
        self.engines: Dict[str, int] = {}

    def wall_span(self, name: str, category: str, **args: object):
        """The tracer's wall-clock span while enabled, else a no-op."""
        if self.enabled:
            return self.tracer.wall_span(name, category, **args)
        return nullcontext()

    def note_engine(self, engine: str) -> None:
        """Count one network run executed on ``engine``."""
        self.engines[engine] = self.engines.get(engine, 0) + 1

    def config(self) -> Dict[str, object]:
        """Picklable settings for re-enabling in a worker process."""
        return {
            "enabled": self.enabled,
            "sample_every": self.sample_every,
            "capacity": self.tracer.capacity,
            "series_every": self.series.series_every,
            "series_capacity": self.series.capacity,
        }


#: The process-wide session. Import this and guard on ``OBS.enabled``.
OBS = ObsSession()


def enable(
    sample_every: int = 1,
    capacity: int = DEFAULT_CAPACITY,
    series_every: int = 1,
    series_capacity: int = DEFAULT_SERIES_CAPACITY,
) -> ObsSession:
    """Turn telemetry on with fresh instruments and an empty trace."""
    OBS.sample_every = sample_every
    OBS.registry = MetricsRegistry()
    OBS.tracer = EventTracer(capacity=capacity, sample_every=sample_every)
    OBS.series = WindowSeriesRecorder(
        series_every=series_every, capacity=series_capacity
    )
    OBS.engines = {}
    OBS.enabled = True
    return OBS


def disable() -> None:
    """Turn telemetry off (instruments keep their last state)."""
    OBS.enabled = False


def apply_config(config: Dict[str, object]) -> None:
    """Re-create a session from :meth:`ObsSession.config` (worker init)."""
    if config.get("enabled"):
        enable(
            sample_every=int(config.get("sample_every", 1)),  # type: ignore[arg-type]
            capacity=int(config.get("capacity", DEFAULT_CAPACITY)),  # type: ignore[arg-type]
            series_every=int(config.get("series_every", 1)),  # type: ignore[arg-type]
            series_capacity=int(
                config.get("series_capacity", DEFAULT_SERIES_CAPACITY)  # type: ignore[arg-type]
            ),
        )
    else:
        disable()


@contextmanager
def session(
    sample_every: int = 1,
    capacity: int = DEFAULT_CAPACITY,
    series_every: int = 1,
    series_capacity: int = DEFAULT_SERIES_CAPACITY,
) -> Iterator[ObsSession]:
    """Enable telemetry for a scope, restoring prior state on exit."""
    previous = (
        OBS.enabled,
        OBS.sample_every,
        OBS.registry,
        OBS.tracer,
        OBS.series,
        OBS.engines,
    )
    enable(
        sample_every=sample_every,
        capacity=capacity,
        series_every=series_every,
        series_capacity=series_capacity,
    )
    try:
        yield OBS
    finally:
        (
            OBS.enabled,
            OBS.sample_every,
            OBS.registry,
            OBS.tracer,
            OBS.series,
            OBS.engines,
        ) = previous


class TelemetryCapture:
    """The instruments recorded for one isolated unit of work."""

    def __init__(
        self,
        registry: MetricsRegistry,
        tracer: EventTracer,
        series: Optional[WindowSeriesRecorder] = None,
        engines: Optional[Dict[str, int]] = None,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.series = series if series is not None else WindowSeriesRecorder()
        self.engines = engines if engines is not None else {}

    def take(self) -> Dict[str, object]:
        """JSON-able snapshot (what a worker ships to the parent)."""
        return {
            "metrics": self.registry.snapshot(),
            "events": self.tracer.snapshot(),
            "series": self.series.snapshot(),
            "engines": dict(self.engines),
        }


@contextmanager
def capture() -> Iterator[TelemetryCapture]:
    """Divert telemetry into fresh instruments for the enclosed work.

    Used by the experiment engine so each job's telemetry is recorded
    in isolation and can be merged order-independently — the same code
    path whether the job runs inline or in a worker process.
    """
    if not OBS.enabled:
        raise RuntimeError("obs.capture() requires an enabled session")
    previous = (OBS.registry, OBS.tracer, OBS.series, OBS.engines)
    OBS.registry = MetricsRegistry()
    OBS.tracer = EventTracer(
        capacity=OBS.tracer.capacity, sample_every=OBS.sample_every
    )
    OBS.series = WindowSeriesRecorder(
        series_every=OBS.series.series_every, capacity=OBS.series.capacity
    )
    OBS.engines = {}
    cap = TelemetryCapture(OBS.registry, OBS.tracer, OBS.series, OBS.engines)
    try:
        yield cap
    finally:
        OBS.registry, OBS.tracer, OBS.series, OBS.engines = previous


def merge_capture(snapshot: Optional[Dict[str, object]], stream: str) -> None:
    """Fold one :meth:`TelemetryCapture.take` snapshot into the session.

    Metric merges are order-independent (counters/histograms add,
    gauges take maxima) and trace/series records are re-tagged under
    ``stream`` — merging job snapshots in submission order reproduces
    the serial recording, so any worker count yields identical state.
    """
    if not snapshot or not OBS.enabled:
        return
    OBS.registry.merge_snapshot(snapshot.get("metrics", {}))  # type: ignore[arg-type]
    OBS.tracer.merge_snapshot(snapshot.get("events", []), stream=stream)  # type: ignore[arg-type]
    OBS.series.merge_snapshot(snapshot.get("series"), stream=stream)  # type: ignore[arg-type]
    for engine, count in (snapshot.get("engines") or {}).items():  # type: ignore[union-attr]
        OBS.engines[engine] = OBS.engines.get(engine, 0) + int(count)


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "DEFAULT_SERIES_CAPACITY",
    "EventTracer",
    "Gauge",
    "Histogram",
    "JSONL_SCHEMA",
    "MetricsRegistry",
    "OBS",
    "ObsSession",
    "SERIES_SCHEMA",
    "TelemetryCapture",
    "TraceEvent",
    "WindowSeriesRecorder",
    "apply_config",
    "capture",
    "chrome_trace_doc",
    "collect_provenance",
    "config_digest",
    "disable",
    "enable",
    "git_provenance",
    "jsonl_records",
    "load_series",
    "merge_capture",
    "metrics_rows",
    "render_report",
    "render_series_report",
    "report_doc",
    "save_series",
    "series_path",
    "series_summary",
    "session",
    "wall_phase_rows",
    "trace_paths",
    "write_chrome_trace",
    "write_jsonl",
    "write_series",
    "write_trace_artifacts",
]
