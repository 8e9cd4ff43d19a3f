"""Outside-in layer tracing for the traced benchmark run.

The benchmark wraps public entry points of the ``repro`` modules from
its own files, patching each name where its callers look it up, so the
program itself is unchanged.  Every call records a span: its label,
start and end (``time.perf_counter``, which is system-wide monotonic,
so spans from the ``serve`` subprocess line up with the client's), its
own id, its parent's id and the operation it belongs to.  Spans stay in
memory until the run ends.

A layer's self time is a span's duration minus its children's.  Every
label maps to one per-layer metric, so the self times of one operation
partition its wall time across the layers.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (module, class or None, attribute) — the entry points wrapped in the
#: benchmark process.  Functions are patched in the module their
#: callers resolve them from.
CLIENT_TARGETS: Tuple[Tuple[str, Optional[str], str], ...] = (
    ("repro.experiments.parallel", "TraceSpec", "build"),
    ("repro.ml.pipeline", None, "ensure_model_file"),
    ("repro.ml.pipeline", None, "collect_pair_dataset"),
    ("repro.ml.pipeline", None, "deployment_fitted_model"),
    ("repro.ml.ridge", "RidgeRegression", "load"),
    ("repro.ml.ridge", "RidgeRegression", "fit"),
    ("repro.ml.lifecycle.registry", "ModelRegistry", "put"),
    ("repro.ml.lifecycle.registry", "ModelRegistry", "promote"),
    ("repro.ml.lifecycle.registry", "ModelRegistry", "record"),
    ("repro.noc.network", "PearlNetwork", "__init__"),
    ("repro.noc.network", "PearlNetwork", "run"),
    ("repro.experiments.parallel", "ExperimentEngine", "run"),
    ("repro.experiments.parallel", None, "execute_job"),
    ("repro.experiments.cache", "ResultCache", "key_for"),
    ("repro.experiments.cache", "ResultCache", "get"),
    ("repro.experiments.cache", "ResultCache", "get_by_key"),
    ("repro.experiments.cache", "ResultCache", "put"),
    ("repro.experiments.cache", "ResultCache", "put_by_key"),
    ("repro.experiments.service.client", "ServeClient", "submit"),
    ("repro.experiments.service.spec_codec", None, "result_from_doc"),
)

#: Entry points wrapped inside the ``pearl-sim serve`` subprocess.
SERVER_TARGETS: Tuple[Tuple[str, Optional[str], str], ...] = (
    ("repro.experiments.service.server", None, "spec_from_doc"),
    ("repro.experiments.service.server", None, "result_to_doc"),
    ("repro.experiments.cache", "ResultCache", "key_for"),
    ("repro.experiments.cache", "ResultCache", "get_by_key"),
    ("repro.experiments.cache", "ResultCache", "put_by_key"),
    ("repro.ml.lifecycle.registry", "ModelRegistry", "record"),
    ("repro.ml.ridge", "RidgeRegression", "load"),
)

#: Span label -> the per-layer metric its self time is charged to.
SELF_TIME_METRIC = {
    "TraceSpec.build": "traffic.build_ms",
    "RidgeRegression.load": "ml.model_load_ms",
    "RidgeRegression.fit": "ml.refit_ms",
    "ModelRegistry.put": "ml.registry_ms",
    "ModelRegistry.promote": "ml.registry_ms",
    "ModelRegistry.record": "ml.registry_lookup_ms",
    "PearlNetwork.__init__": "noc.init_ms",
    "PearlNetwork.run": "noc.run_self_ms",
    "ExperimentEngine.run": "experiments.orchestration_ms",
    "execute_job": "experiments.orchestration_ms",
    "ResultCache.get": "experiments.orchestration_ms",
    "ResultCache.put": "experiments.orchestration_ms",
    "ResultCache.key_for": "experiments.key_ms",
    "ResultCache.get_by_key": "experiments.cache_get_ms",
    "ResultCache.put_by_key": "experiments.cache_put_ms",
    "spec_from_doc": "service.decode_ms",
    "result_to_doc": "service.encode_ms",
    "ServeClient.submit": "service.transport_ms",
    "result_from_doc": "service.client_parse_ms",
}


class Span:
    __slots__ = ("id", "parent", "op", "label", "start", "end", "attrs")

    def __init__(self, id, parent, op, label, start, end, attrs=None):
        self.id = id
        self.parent = parent
        self.op = op
        self.label = label
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Span":
        return cls(**doc)


def _network_attrs(args, result) -> Dict[str, Any]:
    network = args[0]
    stats = result.stats
    return {
        "cycles": network.config.simulation.total_cycles,
        "flits": stats.network_flits_delivered,
        "backlog": network.injection_backlog_size
        + network.retransmit_queue_size,
        "stalls": result.laser_stall_cycles,
        "retransmissions": stats.retransmissions,
        "retrain_events": result.retrain_events,
        "engine": network.last_engine_used,
    }


#: Label -> function of (call args, return value) giving span counts.
_ATTRS: Dict[str, Callable[[Sequence[Any], Any], Dict[str, Any]]] = {
    "PearlNetwork.run": _network_attrs,
    "TraceSpec.build": lambda args, trace: {"events": len(trace)},
    "ResultCache.get_by_key": lambda args, hit: {"hit": hit is not None},
}


class Tracer:
    """Records spans for wrapped callables; thread-aware parent stacks."""

    def __init__(self, first_id: int = 1) -> None:
        self.enabled = True
        #: Operation id stamped on new spans ("setup" before the first).
        self.op: Any = "setup"
        self.spans: List[Span] = []
        self._ids = itertools.count(first_id)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: Any, attr: str, label: str) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if binder else raw
        attrs_of = _ATTRS.get(label)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack = tracer._stack()
            span = Span(next(tracer._ids), stack[-1] if stack else None,
                        tracer.op, label, time.perf_counter(), 0.0)
            stack.append(span.id)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if attrs_of is not None:
                span.attrs = attrs_of(args, result)
            return result

        setattr(owner, attr, binder(traced) if binder else traced)

    def install(self, targets) -> None:
        for module_name, owner_name, attr in targets:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            label = f"{owner_name}.{attr}" if owner_name else attr
            self.wrap(owner, attr, label)


def adopt_server_spans(spans: List[Span], server: List[Span]) -> None:
    """Attach server spans to the client request whose interval holds them.

    The closed loop has one request in flight, so containment in a
    ``ServeClient.submit`` span is exact; server spans outside any
    request (start-up, the twin run's server) are dropped.
    """
    submits = sorted(
        (s for s in spans if s.label == "ServeClient.submit"),
        key=lambda s: s.start,
    )
    starts = [s.start for s in submits]
    for span in server:
        index = bisect.bisect_right(starts, span.start) - 1
        if index < 0 or span.end > submits[index].end:
            continue
        owner = submits[index]
        span.op = owner.op
        if span.parent is None:
            span.parent = owner.id
        spans.append(span)


def layer_metrics(
    spans: Sequence[Span],
    normalise: Callable[[float, float], float],
    ops: int,
) -> Dict[str, float]:
    """Per-layer metrics from a traced run's spans.

    ``normalise(start, end)`` turns a wall interval into machine-speed
    normalised seconds; ``ops`` is the number of timed operations the
    per-operation means divide by.  Spans of the set-up phase feed only
    the set-up metrics.
    """
    durations = {span.id: normalise(span.start, span.end) for span in spans}
    children: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + durations[span.id]
    out: Dict[str, float] = {name: 0.0 for name in set(SELF_TIME_METRIC.values())}
    counts = {"noc.run_ms": 0.0, "cycles": 0, "flits": 0, "backlog": 0,
              "stalls": 0, "retransmissions": 0, "retrain_events": 0,
              "events": 0, "builds": 0, "gets": 0, "hits": 0}
    setup: Dict[str, float] = {}
    engines: Dict[str, int] = {}
    for span in spans:
        seconds = durations[span.id]
        if span.op == "setup":
            setup[span.label] = setup.get(span.label, 0.0) + seconds
            if span.label == "collect_pair_dataset":
                setup["collect_runs"] = setup.get("collect_runs", 0) + 1
            continue
        self_seconds = seconds - children.get(span.id, 0.0)
        metric = SELF_TIME_METRIC.get(span.label)
        if metric is not None:
            out[metric] += self_seconds * 1e3
        attrs = span.attrs
        if span.label == "PearlNetwork.run":
            counts["noc.run_ms"] += seconds * 1e3
            for name in ("cycles", "flits", "backlog", "stalls",
                         "retransmissions", "retrain_events"):
                counts[name] += attrs[name]
            engines[attrs["engine"]] = engines.get(attrs["engine"], 0) + 1
        elif span.label == "TraceSpec.build":
            counts["events"] += attrs["events"]
            counts["builds"] += 1
        elif span.label == "ResultCache.get_by_key":
            counts["gets"] += 1
            counts["hits"] += int(attrs["hit"])
    per_op = {name: value / ops for name, value in out.items()}
    run_ms = counts["noc.run_ms"]
    per_op.update({
        "noc.run_ms": run_ms / ops,
        "noc.host_us_per_cycle": run_ms * 1e3 / counts["cycles"] if counts["cycles"] else 0.0,
        "noc.host_ns_per_flit": run_ms * 1e6 / counts["flits"] if counts["flits"] else 0.0,
        "noc.cycles": counts["cycles"],
        "noc.flits_delivered": counts["flits"],
        "noc.backlog_packets": counts["backlog"],
        "noc.laser_stall_cycles": counts["stalls"],
        "noc.retransmissions": counts["retransmissions"],
        "traffic.events_per_job": counts["events"] / counts["builds"] if counts["builds"] else 0.0,
        "ml.train_s": setup.get("ensure_model_file", 0.0),
        "ml.collect_runs": setup.get("collect_runs", 0),
        "ml.deploy_fit_s": setup.get("deployment_fitted_model", 0.0),
        "ml.retrain_events": counts["retrain_events"],
        "experiments.cache_hit_ratio": counts["hits"] / counts["gets"] if counts["gets"] else 0.0,
    })
    per_op["engines"] = engines
    return per_op
