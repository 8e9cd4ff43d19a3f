"""The PEARL network: 16 cluster routers + the banked L3 router.

Runs a closed-loop cycle simulation: a trace supplies the core-generated
*requests*; every delivered request triggers a response from its target
(local L2, peer cluster or the L3/memory system), so power scaling that
slows the network also delays responses and raises buffer pressure —
the feedback the paper's controllers react to.

The same class serves every PEARL variant of the evaluation:

* ``PEARL-Dyn``   — dynamic bandwidth, static 64 WL;
* ``PEARL-FCFS``  — static even split, static 64 WL;
* ``Dyn RWx``     — dynamic bandwidth + reactive power scaling;
* ``ML RWx``      — dynamic bandwidth + ML power scaling;
* random-state    — dataset-collection runs for the ML pipeline.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cache.memory import MemoryController
from ..config import PearlConfig
from ..faults import FaultSchedule, NetworkFaultContext, RouterFaultInjector
from ..obs import OBS
from ..ml.ridge import RidgeRegression
from .packet import Packet
from .photonic import PhotonicLinkModel
from .responder import ResponderConfig, build_response
from .router import PearlRouter, PowerPolicyKind
from .stats import NetworkStats
from ..traffic.trace import Trace, TraceCursor

@dataclass
class JobResult:
    """What one simulation run produced (picklable, cacheable).

    :meth:`PearlNetwork.run` returns it with ``kind="pearl"``; the job
    engine, the result cache, sweeps and ``pearl-sim serve`` carry the
    same record for every job kind.
    """

    kind: str
    stats: Optional[NetworkStats] = None
    state_residency: Dict[int, float] = field(default_factory=dict)
    mean_laser_power_w: float = 0.0
    laser_stall_cycles: int = 0
    ml_predictions: List[float] = field(default_factory=list)
    ml_labels: List[float] = field(default_factory=list)
    #: Drift excursions that crossed the patience threshold, summed
    #: over all routers (0 when drift detection is off or never trips).
    drift_events: int = 0
    #: True when any router's monitor ended the run recommending retraining.
    drift_retraining_recommended: bool = False
    #: Windows decided by the reactive fallback (drift_action="fallback").
    fallback_windows: int = 0
    #: Completed mid-run retrain+register+hot-swap cycles
    #: (drift_action="retrain" only); no registry tag moves.
    retrain_events: int = 0
    #: Registry ids of the models registered and swapped in mid-run,
    #: in swap order.
    retrained_model_ids: List[str] = field(default_factory=list)
    #: Job-kind specific counters (the MWSR token waits, the trace
    #: job's packet counts).
    extras: Dict[str, object] = field(default_factory=dict)
    #: Telemetry captured while the job ran (``None`` when the session
    #: was disabled): a JSON-able ``{"metrics": ..., "events": ...}``
    #: snapshot the engine merges into the parent's registry/tracer.
    telemetry: Optional[Dict[str, object]] = None

    def throughput(self) -> float:
        """Network throughput in flits/cycle."""
        if self.stats is None:
            return 0.0
        return self.stats.throughput_flits_per_cycle()


class PearlNetwork:
    """The full PEARL photonic interconnect simulator."""

    def __init__(
        self,
        config: Optional[PearlConfig] = None,
        power_policy: PowerPolicyKind = PowerPolicyKind.STATIC,
        use_dynamic_bandwidth: bool = True,
        static_state: Optional[int] = None,
        ml_model: Optional[RidgeRegression] = None,
        responder: Optional[ResponderConfig] = None,
        l3_parallel_links: int = 8,
        seed: int = 1,
        faults: Optional[FaultSchedule] = None,
        registry=None,
    ) -> None:
        self.config = config or PearlConfig()
        self.responder = responder or ResponderConfig()
        self.power_policy = power_policy
        self._rng = np.random.default_rng(seed)
        arch = self.config.architecture

        self.routers: List[PearlRouter] = []
        for router_id in range(arch.num_routers):
            self.routers.append(
                PearlRouter(
                    router_id=router_id,
                    config=self.config,
                    policy_kind=power_policy,
                    use_dynamic_bandwidth=use_dynamic_bandwidth,
                    static_state=static_state,
                    ml_model=ml_model,
                    parallel_links=(
                        l3_parallel_links
                        if router_id == arch.l3_router_id
                        else 1
                    ),
                    rng=np.random.default_rng(seed * 1000 + router_id),
                )
            )
        # Online retraining (drift_action="retrain"): the coordinator
        # lives here because every engine funnels window closes through
        # _close_windows, making the swap engine-uniform by construction.
        self._retrain_enabled = (
            power_policy is PowerPolicyKind.ML
            and self.config.ml.drift_action == "retrain"
            and self.config.ml.drift_detection
        )
        self._registry = registry
        self._retrain_latched = False
        self._last_retrain_cycle: Optional[int] = None
        self.retrain_events = 0
        self.retrained_model_ids: List[str] = []
        # Drift events observed by monitors that were since replaced by
        # a swap (adopt_model starts a fresh calibration) — folded into
        # the run result so the count survives retraining.
        self._drift_events_retired = 0
        self.stats = NetworkStats()
        # The engine run() executed on (the one it was asked for: there
        # is no silent downgrade).
        self.last_engine_used: Optional[str] = None
        # run() is single-use: a second call would start from the first
        # run's leftovers (queues, heaps, policy histories, RNG state).
        self._has_run = False
        # The array core's arrival buckets (packets per arrival cycle)
        # after an array run, for the census.  Only the buckets are
        # kept: a reference to the core itself would make a cycle that
        # refcounting cannot free.
        self._array_arrivals: Optional[Dict[int, List[tuple]]] = None
        #: :meth:`pending_packet_census` at the warm-up boundary (all
        #: zeros for a warm-up-free run), taken by both engines: the
        #: packets the measurement phase starts with.
        self.warmup_census: Optional[Dict[str, int]] = None
        self.memory = MemoryController(
            num_controllers=arch.memory_controllers,
            line_bytes=arch.cache_line_bytes,
        )
        # The reference engine's min-heap of packets in flight:
        # (arrival_cycle, sequence, packet, source_router).  The array
        # core keeps its own cycle buckets, so this heap and the
        # response heap below stay empty on an array run.
        self._in_flight: List[Tuple[int, int, Packet, int]] = []
        # (inject_cycle, sequence, router_id, packet) pending responses.
        self._responses: List[Tuple[int, int, int, Packet]] = []
        self._sequence = 0
        # Per-router FIFO of packets whose input buffer was full; only
        # the head is retried each cycle (stalled cores stay in order).
        self._injection_backlog: List = [
            deque() for _ in range(arch.num_routers)
        ]
        # Fault injection (repro.faults).  An empty (or absent) schedule
        # installs nothing, so fault-free runs stay bit-identical to
        # builds without the subsystem.
        self.faults = faults
        self._fault_context: Optional[NetworkFaultContext] = None
        if faults is not None and not faults.is_empty:
            self._fault_context = NetworkFaultContext(
                faults, arch.num_routers
            )
            for router in self.routers:
                router.attach_faults(
                    RouterFaultInjector(
                        faults,
                        router.router_id,
                        router.ladder,
                        max_wavelengths=router.ladder.max_state,
                    )
                )
        resilience = self.config.resilience
        self._retry_limit = resilience.retry_limit
        self._nack_latency = resilience.nack_latency_cycles
        self._retry_backoff = resilience.retry_backoff_cycles
        # (ready_cycle, sequence, packet) min-heap of NACKed packets
        # waiting out their retry backoff, plus a per-router FIFO for
        # retries whose input pool was full at reinjection time.  The
        # array core queues its rows here, each carrying its retry
        # count as an eighth field.
        self._retransmits: List[Tuple[int, int, object]] = []
        self._retransmit_backlog: List = [
            deque() for _ in range(arch.num_routers)
        ]

    @property
    def retransmit_queue_size(self) -> int:
        """Packets awaiting (or stalled on) CRC retransmission."""
        return len(self._retransmits) + sum(
            len(backlog) for backlog in self._retransmit_backlog
        )

    @property
    def injection_backlog_size(self) -> int:
        """Packets stalled at full input buffers across all routers."""
        return sum(len(backlog) for backlog in self._injection_backlog)

    # -- collection-mode support -------------------------------------------------

    def enable_collection(
        self, hook: Callable[[int, Sequence[float], float], None]
    ) -> None:
        """Install a (router_id, features, label) dataset hook.

        ``features`` is a window's Table III row as frozen for its
        close: a list, or under the ML policy the router's row of its
        close group's inference matrix.
        """
        for router in self.routers:
            router.collection_hook = (
                lambda feats, label, rid=router.router_id: hook(rid, feats, label)
            )

    # -- responder ---------------------------------------------------------------

    def _on_delivered(self, packet: Packet, cycle: int) -> None:
        """Count a delivery; schedule the closed-loop response to a request."""
        self.stats.on_delivered(packet, cycle)
        if packet.is_request:
            arch = self.config.architecture
            ready, row = build_response(
                packet.source,
                packet.destination,
                packet.core_type,
                packet.created_cycle,
                cycle,
                self.responder,
                self._rng,
                self.memory,
                arch.l3_router_id,
                arch.cache_line_bytes,
            )
            self._sequence += 1
            heapq.heappush(
                self._responses,
                (ready, self._sequence, row[0], Packet(*row)),
            )

    # -- main loop ----------------------------------------------------------------

    def _try_inject(self, router: PearlRouter, packet: Packet, cycle: int) -> bool:
        if router.can_inject(packet):
            router.inject(packet, cycle)
            self.stats.on_injected(packet)
            return True
        return False

    def step(self, cycle: int, cursor: Optional[TraceCursor] = None) -> None:
        """Advance the network by one cycle (the reference engine)."""
        routers = self.routers
        backlogs = self._injection_backlog
        responses = self._responses
        in_flight = self._in_flight
        heappop = heapq.heappop
        heappush = heapq.heappush
        try_inject = self._try_inject
        fault_context = self._fault_context
        # 0. CRC retransmissions whose backoff expired re-enter their
        #    source pool head-of-line (stalled retries first, in order).
        if fault_context is not None:
            retransmits = self._retransmits
            retry_backlogs = self._retransmit_backlog
            for router_id, retry_backlog in enumerate(retry_backlogs):
                if retry_backlog:
                    router = routers[router_id]
                    while retry_backlog and router.reinject(retry_backlog[0]):
                        retry_backlog.popleft()
            while retransmits and retransmits[0][0] <= cycle:
                _, _, packet = heappop(retransmits)
                retry_backlog = retry_backlogs[packet.source]
                if retry_backlog or not routers[packet.source].reinject(
                    packet
                ):
                    retry_backlog.append(packet)
        # 1. Retry backlogged injections (stalled cores), oldest first;
        #    stop at the first packet that still does not fit.
        for router_id, backlog in enumerate(backlogs):
            if backlog:
                router = routers[router_id]
                while backlog and try_inject(router, backlog[0], cycle):
                    backlog.popleft()
        # 2. Ready responses.
        while responses and responses[0][0] <= cycle:
            _, _, router_id, packet = heappop(responses)
            backlog = backlogs[router_id]
            if backlog or not try_inject(routers[router_id], packet, cycle):
                backlog.append(packet)
        # 3. New trace events.
        if cursor is not None:
            for packet in cursor.pop_packets(cycle):
                backlog = backlogs[packet.source]
                if backlog or not try_inject(
                    routers[packet.source], packet, cycle
                ):
                    backlog.append(packet)
        # 4. Control planes (occupancy sampling, window boundaries, laser
        #    power).  Routers on their window boundary defer the close so
        #    all same-cycle closers share one ML inference; their laser
        #    tick stays *after* the close, exactly as in ``tick_control``.
        closers: Optional[List[PearlRouter]] = None
        for router in routers:
            if router.tick_pre_close(cycle):
                if closers is None:
                    closers = []
                closers.append(router)
        if closers is not None:
            self._close_windows(
                closers, [router.freeze_window() for router in closers], cycle
            )
            for router in closers:
                router.laser.tick()
        # 5. Transmissions.
        on_link_sample = self.stats.on_link_sample
        sequence = self._sequence
        for router_id, router in enumerate(routers):
            for arrival, packet in router.transmit(cycle):
                sequence += 1
                heappush(in_flight, (arrival, sequence, packet, router_id))
            on_link_sample(router._link_busy_this_cycle)
        self._sequence = sequence
        # 6. Arrivals.  Photonic arrivals are CRC-checked when a bit
        #    error schedule is active; the local crossbar is electrical
        #    and never corrupts.
        while in_flight and in_flight[0][0] <= cycle:
            _, _, packet, source_router = heappop(in_flight)
            destination = routers[packet.destination]
            if packet.source == packet.destination:
                destination.deliver_local(packet)
            elif fault_context is not None and fault_context.corrupts(
                source_router, packet.size_flits, cycle
            ):
                ready = self._handle_crc_error(
                    packet.retries, cycle, packet.source, packet.destination
                )
                if ready is not None:
                    packet.retries += 1
                    self._sequence += 1
                    heappush(self._retransmits, (ready, self._sequence, packet))
            else:
                destination.receive(packet)
        # 7. Ejection to cores (delivery + closed-loop responses).
        on_delivered = self._on_delivered
        for router in routers:
            router.drain_ejection(cycle, on_delivered)

    def _close_windows(
        self,
        closers: List[PearlRouter],
        frozen: List[Tuple[float, List[float], float, Tuple[int, ...]]],
        cycle: int,
    ) -> None:
        """Close every router window that falls on ``cycle``.

        The one close path of both engines: ``frozen`` holds each
        closer's ``(label, row, Buf_w mean, pool slots)``, frozen by
        :meth:`PearlRouter.freeze_window` on the reference engine and
        from the array core's own counters on the array engine, with
        each row a plain list.  Under the ML policy the rows of the
        group become one C-contiguous float64 ``(k, n_features)``
        matrix, predicted together — one matmul, or one saturating-MAC
        sweep on the quantized path, for every k — which is the
        defining inference semantics, so batch-sensitive BLAS kernels
        can never split the engines; each router is handed its row of
        that matrix.  Each router then closes in group order; its
        window telemetry reads the handed-over slots and this run's
        fault counters, never the pool objects.
        """
        rows = [row for _, row, _, _ in frozen]
        predictions: List[Optional[float]] = [None] * len(closers)
        if self.power_policy is PowerPolicyKind.ML:
            rows = np.array(rows, dtype=float)
            predictions = closers[0].policy.predict_window_batch(
                rows
            ).tolist()
        for router, (label, _, buf_mean, slots), row, predicted in zip(
            closers, frozen, rows, predictions
        ):
            router.close_window(
                cycle, label, row, buf_mean, slots, predicted, self.stats
            )
        if self._retrain_enabled:
            # After *all* closers of the group decided, so every row of
            # a group is predicted by the same model.
            self._maybe_retrain(cycle, closers)

    def _maybe_retrain(self, cycle: int, closers: List[PearlRouter]) -> None:
        """Close the ML lifecycle loop after a drift event.

        A closer's pending flag latches a network-level retrain
        request: only a closer's decision can raise one, and the latch
        holds a flag raised at an earlier close group, so the group's
        ``closers`` are the only routers worth checking.  Once the
        cooldown since the previous swap has elapsed and enough aligned
        (feature, label) rows are pooled, the coordinator refits a
        ridge model on the deployment-time buffer, registers it and
        hot-swaps every router's scaler.  No registry
        tag moves: a run (or a cache hit standing in for one) never
        changes what a later ``--model production`` run deploys.
        The whole sequence is deterministic (closed-form ridge fit over
        rows pooled in router order at a fixed cycle), so both engines
        retrain identically.
        """
        if not self._retrain_latched:
            for router in closers:
                if router.policy.retrain_pending:
                    break
            else:
                return
            self._retrain_latched = True
        ml = self.config.ml
        window = self.config.power_scaling.reservation_window
        if (
            self._last_retrain_cycle is not None
            and cycle - self._last_retrain_cycle
            < ml.retrain_cooldown_windows * window
        ):
            return
        scalers = [router.policy for router in self.routers]
        xs, ys = [], []
        for scaler in scalers:
            x, y = scaler.training_pairs()
            if len(y):
                xs.append(x)
                ys.append(y)
        samples = sum(len(y) for y in ys)
        if samples < ml.retrain_min_samples:
            return  # stay latched; retry at the next close group
        old = scalers[0]
        new_model = RidgeRegression(
            lam=old.model.lam,
            standardize=getattr(old.model, "_scaler", None) is not None,
        )
        new_model.fit(np.concatenate(xs), np.concatenate(ys))
        registry = self._registry
        if registry is None:
            from ..ml.lifecycle import default_registry

            registry = default_registry()
            self._registry = registry
        record = registry.put(
            new_model,
            training={
                "key": {
                    "origin": "online-retrain",
                    "cycle": int(cycle),
                    "window": int(window),
                    "samples": int(samples),
                    "event": self.retrain_events,
                },
                "samples": int(samples),
            },
            provenance={"trigger": "drift", "cycle": int(cycle)},
        )
        for scaler in scalers:
            if scaler.drift_monitor is not None:
                self._drift_events_retired += scaler.drift_monitor.state.events
            scaler.adopt_model(new_model)
        self._retrain_latched = False
        self._last_retrain_cycle = cycle
        self.retrain_events += 1
        self.retrained_model_ids.append(record.model_id)
        if OBS.enabled:
            OBS.registry.counter(
                "ml/retrain_events",
                help="mid-run drift-triggered retrain+register+swap cycles",
            ).inc()
            OBS.tracer.instant(
                "ml_retrain",
                "ml",
                cycle,
                model_id=record.model_id,
                samples=samples,
            )

    def _handle_crc_error(
        self, retries: int, cycle: int, source: int, destination: int
    ) -> Optional[int]:
        """One packet failed its arrival CRC: NACK + retry, or drop.

        The CRC rule of both engines, worked from the packet's
        ``retries`` so far.  The receiver NACKs the source; after
        ``nack_latency_cycles`` plus a linear per-attempt backoff the
        source retransmits the packet head-of-line.  Returns that
        retransmission's ready cycle (the caller queues the packet,
        carrying ``retries + 1``, on ``_retransmits``), or None when the
        packet has exhausted ``retry_limit`` attempts and is dropped
        (counted, so the conservation invariant ``crc_errors ==
        retransmissions + packets_dropped`` holds).
        """
        stats = self.stats
        stats.crc_errors += 1
        if OBS.enabled:
            OBS.registry.counter(
                "faults/crc_errors",
                help="packets that failed their arrival CRC check",
            ).inc()
        if retries >= self._retry_limit:
            stats.packets_dropped += 1
            if OBS.enabled:
                OBS.registry.counter(
                    "faults/packets_dropped",
                    help="packets dropped after exhausting the retry budget",
                ).inc()
                OBS.tracer.instant(
                    "packet_dropped",
                    "faults",
                    cycle,
                    source=source,
                    destination=destination,
                    retries=retries,
                )
            return None
        stats.retransmissions += 1
        if OBS.enabled:
            OBS.registry.counter(
                "faults/retransmissions",
                help="CRC-triggered retransmission attempts scheduled",
            ).inc()
        return cycle + self._nack_latency + self._retry_backoff * (retries + 1)

    #: Engines accepted by :meth:`run`; both are bit-identical.
    ENGINES = ("reference", "array")

    def run(self, trace: Trace, engine: str = "array") -> JobResult:
        """Simulate warm-up plus measurement over a trace.

        ``engine`` selects ``"array"`` (the struct-of-arrays core in
        :mod:`repro.noc.array_core`, the default) or ``"reference"``
        (plain cycle-by-cycle :meth:`step`, the oracle the array core
        is tested against); both produce bit-identical results.

        A network runs once: a second call raises :class:`RuntimeError`,
        so every run starts from the freshly built state at cycle 0.
        """
        if self._has_run:
            raise RuntimeError(
                "PearlNetwork.run is single-use: a network runs once, "
                "so build a new PearlNetwork for each run"
            )
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        trace.check_routers(len(self.routers))
        self._has_run = True
        self.last_engine_used = engine
        if OBS.enabled:
            OBS.note_engine(engine)
        # Both engines expose the same three steps: advance a cycle
        # span, open the measurement at the warm-up boundary, finish.
        if engine == "array":
            from .array_core import ArrayCore

            steps = ArrayCore(self)
            self._array_arrivals = steps._arrivals
        else:
            steps = self
        # Under telemetry the phases run inside wall-clock spans, which
        # are strictly observational: results stay bit-identical.
        sim = self.config.simulation
        cursor = TraceCursor(trace)
        with OBS.wall_span("sim/warmup", "sim", trace=trace.name):
            steps._advance(0, sim.warmup_cycles, cursor)
        steps._begin_measurement(sim.warmup_cycles)
        with OBS.wall_span("sim/measure", "sim", trace=trace.name):
            steps._advance(sim.warmup_cycles, sim.total_cycles, cursor)
        with OBS.wall_span("sim/integrate_energy", "sim"):
            steps._finish(sim.total_cycles)
        if OBS.enabled:
            self._record_run_telemetry()
        return self._result()

    def _advance(
        self, start: int, end: int, cursor: Optional[TraceCursor]
    ) -> None:
        """Step cycles [start, end) one by one."""
        step = self.step
        for cycle in range(start, end):
            step(cycle, cursor)

    def _begin_measurement(self, warmup: int) -> None:
        """Warm-up boundary: zero the run's statistics and power integrals.

        The packets still pending here are the measurement phase's
        opening balance: :attr:`warmup_census` records them (observing
        only), so the packet law holds across the boundary.
        """
        self.warmup_census = self.pending_packet_census()
        self.stats.begin_measurement(warmup)
        for router in self.routers:
            router.reset_power_stats()
        self.memory.stats.busy_cycles = 0

    def _finish(self, total: int) -> None:
        """End of the run: close the statistics and integrate energy."""
        self.stats.finish(total)
        self._integrate_energy()

    # -- accounting -----------------------------------------------------------------

    def _record_run_telemetry(self) -> None:
        """Flush end-of-run aggregates into the metrics registry.

        Counters add across runs and jobs; one network run contributes
        its measurement-phase totals exactly once.
        """
        registry = OBS.registry
        stats = self.stats
        registry.counter(
            "sim/runs", help="completed network simulations"
        ).inc()
        registry.counter(
            "sim/packets_delivered", help="packets delivered (measurement phase)"
        ).inc(stats.packets_delivered)
        registry.counter(
            "sim/network_flits_delivered",
            help="flits that crossed the photonic interconnect",
        ).inc(stats.network_flits_delivered)
        registry.counter(
            "sim/local_packets_delivered",
            help="packets served by the intra-cluster crossbar",
        ).inc(stats.local_packets_delivered)
        registry.counter(
            "sim/measured_cycles", help="cycles in the measurement phase"
        ).inc(stats.measured_cycles)
        registry.gauge(
            "noc/injection_backlog",
            help="packets stalled at full input buffers at run end",
        ).set(self.injection_backlog_size)
        for router in self.routers:
            router.laser.record_telemetry(registry)
            for split, count in router._dba_split_counts.items():
                registry.counter(
                    f"dba/split/{split}",
                    help="photonic dispatches under this CPU/GPU split",
                ).inc(count)

    def _integrate_energy(self) -> None:
        model = PhotonicLinkModel(self.config.optical, self.config.photonic)
        cycle_s = (
            1.0 / (self.config.architecture.network_frequency_ghz * 1e9)
        )
        laser = 0.0
        trimming = 0.0
        ml = 0.0
        for router in self.routers:
            laser += router.laser.energy_j * router.parallel_links
            for state, cycles in router.laser.cycles_in_state.items():
                trimming += (
                    model.trimming_power_w(state)
                    * cycles
                    * cycle_s
                    * router.parallel_links
                )
            ml += router.ml_energy_j
        flits = self.stats.network_flits_delivered
        self.stats.laser_energy_j = laser
        self.stats.trimming_energy_j = trimming
        self.stats.modulation_energy_j = (
            model.modulation_energy_j_per_flit() * flits
        )
        self.stats.receiver_energy_j = (
            model.receiver_energy_j_per_flit() * flits
        )
        self.stats.ml_energy_j = ml

    def pending_packet_census(self) -> Dict[str, int]:
        """Where every injected-but-undelivered packet currently lives.

        Backs the packet law of every run: the :attr:`warmup_census`
        plus the packets injected after the warm-up boundary equal
        delivered + dropped + the sum of this census at the end
        (nothing is silently lost, no matter what the fault schedule
        did).  Packets in flight are
        counted where the engine that ran keeps them: the array core's
        arrival buckets after an array run, ``_in_flight`` otherwise.
        """
        buffered = 0
        ejecting = 0
        for router in self.routers:
            buffered += router.buffers.total_packets
            ejecting += len(router._ejection_backlog)
            for pool in router.ejection.values():
                ejecting += len(pool)
        return {
            "buffered": buffered,
            "ejecting": ejecting,
            "in_flight": (
                len(self._in_flight)
                if self._array_arrivals is None
                else sum(map(len, self._array_arrivals.values()))
            ),
            "retransmit_pending": self.retransmit_queue_size,
        }

    def _result(self) -> JobResult:
        self.stats.fault_clamp_events = sum(
            router.fault_clamp_events for router in self.routers
        )
        total_cycles = 0
        per_state: Dict[int, int] = {
            s: 0 for s in self.routers[0].ladder.states
        }
        stalls = 0
        for router in self.routers:
            for state, cycles in router.laser.cycles_in_state.items():
                per_state[state] += cycles
            total_cycles += router.laser.total_cycles()
            stalls += router.laser.stall_cycles
        residency = {
            s: (c / total_cycles if total_cycles else 0.0)
            for s, c in per_state.items()
        }
        predictions: List[float] = []
        labels: List[float] = []
        drift_events = self._drift_events_retired
        retrain = False
        fallback_windows = 0
        if self.power_policy is PowerPolicyKind.ML:
            for router in self.routers:
                scaler = router.policy
                targets, preds = scaler.aligned_history()
                labels.extend(targets.tolist())
                predictions.extend(preds.tolist())
                fallback_windows += scaler.fallback_windows
                monitor = scaler.drift_monitor
                if monitor is not None:
                    drift_events += monitor.state.events
                    retrain = retrain or monitor.state.retraining_recommended
        return JobResult(
            kind="pearl",
            stats=self.stats,
            state_residency=residency,
            mean_laser_power_w=self.stats.mean_laser_power_w(
                self.config.architecture.network_frequency_ghz
            ),
            laser_stall_cycles=stalls,
            ml_predictions=predictions,
            ml_labels=labels,
            drift_events=drift_events,
            drift_retraining_recommended=retrain,
            fallback_windows=fallback_windows,
            retrain_events=self.retrain_events,
            retrained_model_ids=list(self.retrained_model_ids),
        )
