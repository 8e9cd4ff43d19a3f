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
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..cache.memory import MemoryController
from ..config import PearlConfig
from ..core.ml_scaling import MLPowerScaler, StateSelector
from ..faults import FaultSchedule, NetworkFaultContext, RouterFaultInjector
from ..obs import OBS
from ..ml.lifecycle.drift import DriftConfig, DriftMonitor
from ..ml.lifecycle.quantized import QuantizedRidge
from ..ml.ridge import RidgeRegression
from .packet import CacheLevel, CoreType, Packet, PacketClass
from .photonic import PhotonicLinkModel
from .router import PearlRouter, PowerPolicyKind, Transmission
from .stats import NetworkStats
from ..traffic.trace import Trace, TraceCursor

#: Flits in a data-bearing response (64-byte line + header).
RESPONSE_FLITS = 5


@dataclass(frozen=True)
class ResponderConfig:
    """Closed-loop response generation parameters."""

    l3_hit_latency: int = 8
    local_l2_latency: int = 4
    peer_latency: int = 6
    cpu_l3_miss_rate: float = 0.25
    gpu_l3_miss_rate: float = 0.30
    response_flits: int = RESPONSE_FLITS

    def __post_init__(self) -> None:
        for rate in (self.cpu_l3_miss_rate, self.gpu_l3_miss_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("miss rates must be in [0, 1]")
        if min(self.l3_hit_latency, self.local_l2_latency, self.peer_latency) < 0:
            raise ValueError("latencies cannot be negative")


@dataclass
class PearlRunResult:
    """Everything a single simulation run produced."""

    stats: NetworkStats
    state_residency: Dict[int, float]
    mean_laser_power_w: float
    laser_stall_cycles: int
    ml_predictions: List[float] = field(default_factory=list)
    ml_labels: List[float] = field(default_factory=list)
    #: Drift excursions that crossed the patience threshold, summed
    #: over all routers (0 when drift detection is off or never trips).
    drift_events: int = 0
    #: True when any router's monitor ended the run recommending retraining.
    drift_retraining_recommended: bool = False
    #: Windows decided by the reactive fallback (drift_action="fallback").
    fallback_windows: int = 0
    #: The Qm.n spec the deployed predictor ran at (None = float64).
    quantization: Optional[str] = None
    #: Completed mid-run retrain+promote+hot-swap cycles
    #: (drift_action="retrain" only).
    retrain_events: int = 0
    #: Registry ids of the models promoted mid-run, in swap order.
    retrained_model_ids: List[str] = field(default_factory=list)

    def throughput(self) -> float:
        """Network throughput in flits/cycle."""
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
        allow_8wl: Optional[bool] = None,
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

        # ML-lifecycle deployment artefacts, shared by every router:
        # the fixed-point form is quantized once from the float model,
        # while drift monitors are per-router (each sees its own
        # feature stream).
        quantized_model: Optional[QuantizedRidge] = None
        if power_policy is PowerPolicyKind.ML:
            if ml_model is None:
                raise ValueError("ML policy requires a fitted model")
            if self.config.ml.quantization:
                quantized_model = QuantizedRidge.from_spec(
                    ml_model, self.config.ml.quantization
                )

        # PROTEUS: every router's loss cap derives from one shared
        # floorplan (the same geometry the power model integrates over).
        floorplan = None
        if power_policy is PowerPolicyKind.PROTEUS:
            from .topology import ChipFloorplan

            floorplan = ChipFloorplan(arch)

        self.routers: List[PearlRouter] = []
        for router_id in range(arch.num_routers):
            is_l3 = router_id == arch.l3_router_id
            link_budget = None
            if floorplan is not None:
                from .topology import per_router_link_budget

                link_budget = per_router_link_budget(
                    floorplan,
                    self.config.optical,
                    source=router_id,
                    photonic=self.config.photonic,
                )
            ml_scaler = None
            if power_policy is PowerPolicyKind.ML:
                assert ml_model is not None
                selector = StateSelector(
                    self.config.photonic,
                    reservation_window=self.config.ml.reservation_window,
                    allow_8wl=(
                        self.config.ml.reintroduce_8wl
                        if allow_8wl is None
                        else allow_8wl
                    ),
                    capacity_multiplier=(
                        float(l3_parallel_links) if is_l3 else 1.0
                    ),
                    # L3 injects 5-flit cache-line responses; clusters
                    # mostly 1-flit requests plus peer data forwards.
                    avg_packet_flits=5.0 if is_l3 else 2.0,
                )
                drift_monitor = None
                if self.config.ml.drift_detection:
                    scaler = getattr(ml_model, "_scaler", None)
                    drift_monitor = DriftMonitor(
                        DriftConfig(
                            ewma_alpha=self.config.ml.drift_ewma_alpha,
                            z_threshold=self.config.ml.drift_z_threshold,
                            patience=self.config.ml.drift_patience,
                            calibration_windows=(
                                self.config.ml.drift_calibration_windows
                            ),
                        ),
                        feature_mean=(
                            scaler.mean if scaler is not None else None
                        ),
                        feature_scale=(
                            scaler.scale if scaler is not None else None
                        ),
                        router_id=router_id,
                        # The training scaler describes cluster-router
                        # feature statistics; the L3 router's stream is
                        # structurally different (5-flit responses,
                        # parallel links), so its monitor watches the
                        # self-calibrated residual signal alone.
                        monitor_features=(router_id != arch.l3_router_id),
                    )
                ml_scaler = MLPowerScaler(
                    model=ml_model,
                    selector=selector,
                    config=self.config.ml,
                    router_id=router_id,
                    stagger_cycles=self.config.power_scaling.router_stagger_cycles,
                    quantized=quantized_model,
                    drift_monitor=drift_monitor,
                    fallback_thresholds=self.config.power_scaling.thresholds(),
                )
            self.routers.append(
                PearlRouter(
                    router_id=router_id,
                    config=self.config,
                    policy_kind=power_policy,
                    use_dynamic_bandwidth=use_dynamic_bandwidth,
                    static_state=static_state,
                    ml_scaler=ml_scaler,
                    parallel_links=l3_parallel_links if is_l3 else 1,
                    rng=np.random.default_rng(seed * 1000 + router_id),
                    link_budget=link_budget,
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
        for router in self.routers:
            router._net_stats = self.stats
        # Which engine the last run() call was asked for / executed on
        # (always equal — there is no silent downgrade); recorded into
        # trace provenance by the CLI.
        self.last_engine_requested: Optional[str] = None
        self.last_engine_used: Optional[str] = None
        self.memory = MemoryController(
            num_controllers=arch.memory_controllers,
            line_bytes=arch.cache_line_bytes,
        )
        # (arrival_cycle, sequence, transmission) min-heap of packets in flight.
        self._in_flight: List[Tuple[int, int, Transmission]] = []
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
        # retries whose input pool was full at reinjection time.
        self._retransmits: List[Tuple[int, int, Packet]] = []
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
        self, hook: Callable[[int, np.ndarray, float], None]
    ) -> None:
        """Install a (router_id, features, label) dataset hook."""
        for router in self.routers:
            router.collection_hook = (
                lambda feats, label, rid=router.router_id: hook(rid, feats, label)
            )

    # -- responder ---------------------------------------------------------------

    def _schedule_response(self, request: Packet, cycle: int) -> None:
        """Generate the closed-loop response to a delivered request."""
        arch = self.config.architecture
        responder = self.responder
        requester = request.source
        source = request.destination
        local = requester == source
        if source == arch.l3_router_id:
            miss_rate = (
                responder.cpu_l3_miss_rate
                if request.core_type is CoreType.CPU
                else responder.gpu_l3_miss_rate
            )
            ready = cycle + responder.l3_hit_latency
            if self._rng.random() < miss_rate:
                line = requester * 131 + request.created_cycle
                ready = self.memory.request(
                    line * arch.cache_line_bytes, ready
                )
            level = CacheLevel.L3
        else:
            ready = cycle + (
                responder.local_l2_latency if local else responder.peer_latency
            )
            level = (
                CacheLevel.CPU_L2_UP
                if request.core_type is CoreType.CPU
                else CacheLevel.GPU_L2_UP
            )
        response = Packet(
            source,
            requester,
            request.core_type,
            PacketClass.RESPONSE,
            level,
            1 if local else responder.response_flits,
            ready,
        )
        sequence = self._sequence + 1
        self._sequence = sequence
        heapq.heappush(self._responses, (ready, sequence, source, response))

    def _on_delivered(self, packet: Packet, cycle: int) -> None:
        self.stats.on_delivered(packet, cycle)
        if packet.is_request:
            self._schedule_response(packet, cycle)

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
        for router in routers:
            for transmission in router.transmit(cycle):
                sequence += 1
                heappush(
                    in_flight,
                    (transmission.arrival_cycle, sequence, transmission),
                )
            on_link_sample(router._link_busy_this_cycle)
        self._sequence = sequence
        # 6. Arrivals.  Photonic arrivals are CRC-checked when a bit
        #    error schedule is active; the local crossbar is electrical
        #    and never corrupts.
        while in_flight and in_flight[0][0] <= cycle:
            _, _, transmission = heappop(in_flight)
            packet = transmission.packet
            destination = routers[packet.destination]
            if packet.source == packet.destination:
                destination.deliver_local(packet)
            elif fault_context is not None and fault_context.corrupts(
                transmission.source_router, packet.size_flits, cycle
            ):
                self._handle_crc_error(packet, cycle)
            else:
                destination.receive(packet)
        # 7. Ejection to cores (delivery + closed-loop responses).
        on_delivered = self._on_delivered
        for router in routers:
            router.drain_ejection(cycle, on_delivered)

    def _close_windows(
        self,
        closers: List[PearlRouter],
        frozen: List[Tuple[float, np.ndarray, float]],
        cycle: int,
    ) -> None:
        """Close every router window that falls on ``cycle``.

        The one close path of both engines: ``frozen`` holds each
        closer's ``(label, row, Buf_w mean)``, frozen by
        :meth:`PearlRouter.freeze_window` on the reference engine and
        from the array core's own counters on the array engine.  Under
        the ML policy the rows of the group are predicted together —
        one ``(k, n_features)`` matmul, or one saturating-MAC sweep on
        the quantized path, for every k — which is the defining
        inference semantics, so batch-sensitive BLAS kernels can never
        split the engines.  Each router then closes in group order.
        """
        predictions: List[Optional[float]] = [None] * len(closers)
        if self.power_policy is PowerPolicyKind.ML:
            scaler = closers[0].ml_scaler
            assert scaler is not None
            predictions = scaler.predict_window_batch(
                np.stack([row for _, row, _ in frozen])
            ).tolist()
        for router, (label, row, buf_mean), predicted in zip(
            closers, frozen, predictions
        ):
            router.close_window(cycle, label, row, buf_mean, predicted)
        if self._retrain_enabled:
            # After *all* closers of the group decided, so every row of
            # a group is predicted by the same model.
            self._maybe_retrain(cycle)

    def _maybe_retrain(self, cycle: int) -> None:
        """Close the ML lifecycle loop after a drift event.

        Any router's pending flag latches a network-level retrain
        request; once the cooldown since the previous swap has elapsed
        and enough aligned (feature, label) rows are pooled, the
        coordinator refits a ridge model on the deployment-time buffer,
        registers + promotes it, and hot-swaps every router's scaler.
        The whole sequence is deterministic (closed-form ridge fit over
        rows pooled in router order at a fixed cycle), so both engines
        retrain identically.
        """
        if not self._retrain_latched:
            for router in self.routers:
                scaler = router.ml_scaler
                if scaler is not None and scaler.retrain_pending:
                    self._retrain_latched = True
                    break
            else:
                return
        ml = self.config.ml
        window = ml.reservation_window
        if (
            self._last_retrain_cycle is not None
            and cycle - self._last_retrain_cycle
            < ml.retrain_cooldown_windows * window
        ):
            return
        xs, ys = [], []
        for router in self.routers:
            scaler = router.ml_scaler
            if scaler is None:
                continue
            x, y = scaler.training_pairs()
            if len(y):
                xs.append(x)
                ys.append(y)
        samples = sum(len(y) for y in ys)
        if samples < ml.retrain_min_samples:
            return  # stay latched; retry at the next close group
        old = self.routers[0].ml_scaler
        assert old is not None
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
        registry.promote(record.model_id)
        for router in self.routers:
            scaler = router.ml_scaler
            if scaler is not None:
                if scaler.drift_monitor is not None:
                    self._drift_events_retired += (
                        scaler.drift_monitor.state.events
                    )
                scaler.adopt_model(new_model)
        self._retrain_latched = False
        self._last_retrain_cycle = cycle
        self.retrain_events += 1
        self.retrained_model_ids.append(record.model_id)
        if OBS.enabled:
            OBS.registry.counter(
                "ml/retrain_events",
                help="mid-run drift-triggered retrain+promote+swap cycles",
            ).inc()
            OBS.tracer.instant(
                "ml_retrain",
                "ml",
                cycle,
                model_id=record.model_id,
                samples=samples,
            )

    def _handle_crc_error(self, packet: Packet, cycle: int) -> None:
        """One packet failed its arrival CRC: NACK + retry, or drop.

        The receiver NACKs the source; after ``nack_latency_cycles``
        plus a linear per-attempt backoff the source retransmits the
        packet head-of-line.  A packet that exhausts ``retry_limit``
        attempts is dropped (counted, so the conservation invariant
        ``crc_errors == retransmissions + packets_dropped`` holds).
        """
        stats = self.stats
        stats.crc_errors += 1
        if OBS.enabled:
            OBS.registry.counter(
                "faults/crc_errors",
                help="packets that failed their arrival CRC check",
            ).inc()
        if packet.retries >= self._retry_limit:
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
                    source=packet.source,
                    destination=packet.destination,
                    retries=packet.retries,
                )
            return
        packet.retries += 1
        stats.retransmissions += 1
        if OBS.enabled:
            OBS.registry.counter(
                "faults/retransmissions",
                help="CRC-triggered retransmission attempts scheduled",
            ).inc()
        ready = (
            cycle + self._nack_latency + self._retry_backoff * packet.retries
        )
        self._sequence += 1
        heapq.heappush(
            self._retransmits, (ready, self._sequence, packet)
        )

    #: Engines accepted by :meth:`run`; both are bit-identical.
    ENGINES = ("reference", "array")

    def run(self, trace: Trace, engine: str = "array") -> PearlRunResult:
        """Simulate warm-up plus measurement over a trace.

        ``engine`` selects ``"array"`` (the struct-of-arrays core in
        :mod:`repro.noc.array_core`, the default) or ``"reference"``
        (plain cycle-by-cycle :meth:`step`, the oracle the array core
        is tested against); both produce bit-identical results.
        """
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        trace.check_routers(len(self.routers))
        self.last_engine_requested = engine
        self.last_engine_used = engine
        if OBS.enabled:
            OBS.note_engine(engine)
        if engine == "array":
            from .array_core import ArrayCore

            core = ArrayCore(self)
            if OBS.enabled:
                return self._run_instrumented_array(core, trace)
            return core.run(trace)
        if OBS.enabled:
            return self._run_instrumented(trace)
        return self._run_bare(trace)

    def _advance_cycles(
        self, start: int, end: int, cursor: Optional[TraceCursor]
    ) -> None:
        step = self.step
        for cycle in range(start, end):
            step(cycle, cursor)

    def _run_bare(self, trace: Trace) -> PearlRunResult:
        sim = self.config.simulation
        cursor = TraceCursor(trace)
        self._advance_cycles(0, sim.warmup_cycles, cursor)
        self.stats.begin_measurement(sim.warmup_cycles)
        for router in self.routers:
            router.reset_power_stats()
        self.memory.stats.busy_cycles = 0
        self._advance_cycles(sim.warmup_cycles, sim.total_cycles, cursor)
        self.stats.finish(sim.total_cycles)
        self._integrate_energy()
        return self._result()

    def _run_instrumented(self, trace: Trace) -> PearlRunResult:
        """The same phases as :meth:`_run_bare` under profiling spans.

        Instrumentation is strictly observational (wall-clock timers
        and post-hoc metric flushes), so the simulated result is
        bit-identical to an uninstrumented run.
        """
        sim = self.config.simulation
        cursor = TraceCursor(trace)
        tracer = OBS.tracer
        with tracer.wall_span("sim/warmup", "sim", trace=trace.name):
            self._advance_cycles(0, sim.warmup_cycles, cursor)
        self.stats.begin_measurement(sim.warmup_cycles)
        for router in self.routers:
            router.reset_power_stats()
        self.memory.stats.busy_cycles = 0
        with tracer.wall_span("sim/measure", "sim", trace=trace.name):
            self._advance_cycles(
                sim.warmup_cycles, sim.total_cycles, cursor
            )
        self.stats.finish(sim.total_cycles)
        with tracer.wall_span("sim/integrate_energy", "sim"):
            self._integrate_energy()
        self._record_run_telemetry()
        return self._result()

    def _run_instrumented_array(self, core, trace: Trace) -> PearlRunResult:
        """The array engine under the same profiling spans.

        The array core is a first-class instrumented path: window
        boundaries funnel through the shared ``_close_windows`` path
        (and so through each router's ``_record_window_telemetry``),
        and the core's lazy DBA settlement replays the scalar per-cycle
        split tallies exactly — the simulated result stays bit-identical
        to an uninstrumented array run.
        """
        sim = self.config.simulation
        cursor = TraceCursor(trace)
        tracer = OBS.tracer
        with tracer.wall_span("sim/warmup", "sim", trace=trace.name):
            core._advance(0, sim.warmup_cycles, cursor)
        core._begin_measurement(sim.warmup_cycles)
        with tracer.wall_span("sim/measure", "sim", trace=trace.name):
            core._advance(sim.warmup_cycles, sim.total_cycles, cursor)
        with tracer.wall_span("sim/integrate_energy", "sim"):
            core._finish(sim.total_cycles)
        self._record_run_telemetry()
        return self._result()

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

        Backs the conservation property of the resilience test-suite:
        with no warm-up, ``packets_injected`` always equals delivered +
        dropped + the sum of this census (nothing is silently lost, no
        matter what the fault schedule did).
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
            "in_flight": len(self._in_flight),
            "retransmit_pending": self.retransmit_queue_size,
        }

    def _result(self) -> PearlRunResult:
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
                if router.ml_scaler is not None:
                    targets, preds = router.ml_scaler.aligned_history()
                    labels.extend(targets.tolist())
                    predictions.extend(preds.tolist())
                    fallback_windows += router.ml_scaler.fallback_windows
                    monitor = router.ml_scaler.drift_monitor
                    if monitor is not None:
                        drift_events += monitor.state.events
                        retrain = retrain or monitor.state.retraining_recommended
        return PearlRunResult(
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
            quantization=(
                self.config.ml.quantization
                if self.power_policy is PowerPolicyKind.ML
                else None
            ),
        )
