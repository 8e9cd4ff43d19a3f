"""The PEARL router microarchitecture (Fig. 2).

Each cluster router owns:

* CPU/GPU-partitioned input buffers fed by the local cores;
* a per-cycle dynamic bandwidth allocator (or the FCFS fallback);
* one R-SWMR data waveguide driven by its laser bank, with independent
  CPU and GPU transmit engines so both core types can transmit
  simultaneously on their allocated wavelength shares;
* a local crossbar path for intra-cluster L1<->L2 packets that never
  touch the photonic link;
* ejection buffers toward the cores (their occupancy backs ML features
  3 and 5);
* a power-scaling policy (static / reactive / adaptive / ML / random /
  proteus / d3noc) driving the laser bank at reservation-window
  boundaries (d3noc additionally re-pins the DBA split per window).

The L3 router is the same structure with ``parallel_links`` > 1 — the
banked L3 drives several SWMR waveguides so it can source cache-line
responses for all sixteen clusters.
"""

from __future__ import annotations

import functools
import math
from enum import Enum, unique
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import ArchitectureConfig, PearlConfig
from ..core.adaptive import AdaptiveReactiveScaler
from ..core.d3noc import D3nocReconfigurer
from ..core.dba import (
    DynamicBandwidthAllocator,
    FCFSAllocator,
    OccupancySample,
    remap_wavelengths,
)
from ..faults.injector import RouterFaultInjector
from ..core.ml_scaling import MLPowerScaler, StateSelector
from ..core.power_scaling import (
    ClosedWindow,
    LaserBank,
    RandomStatePolicy,
    ReactivePowerScaler,
)
from ..core.proteus import ProteusPowerScaler
from ..core.wavelength import WavelengthLadder
from ..ml.features import FeatureCollector
from ..ml.lifecycle.drift import DriftMonitor
from ..ml.ridge import RidgeRegression
from ..obs import OBS
from .buffer import InputBuffer, PartitionedBuffer
from .packet import CoreType, Packet
from .topology import ChipFloorplan, per_router_link_budget

#: Pipeline overhead outside serialization: reservation broadcast, E/O,
#: waveguide propagation and O/E + buffer write (Sec. III-A3).
PIPELINE_OVERHEAD_CYCLES = 4

#: Latency of the local (intra-cluster) crossbar path.
LOCAL_CROSSBAR_CYCLES = 2

#: Packets the cores can drain from an ejection buffer per cycle.
EJECTION_DRAIN_PER_CYCLE = 2

#: Ejection buffer capacity in slots.
EJECTION_SLOTS = 64


@unique
class PowerPolicyKind(Enum):
    """Which wavelength-state controller a router runs."""

    STATIC = "static"
    REACTIVE = "reactive"
    ADAPTIVE = "adaptive"
    ML = "ml"
    RANDOM = "random"
    PROTEUS = "proteus"
    D3NOC = "d3noc"


#: A router's window policy: one ``close_window(ClosedWindow)`` call
#: per reservation window returns the next wavelength state.
WindowPolicy = Union[
    ReactivePowerScaler, RandomStatePolicy, MLPowerScaler, D3nocReconfigurer
]


@functools.lru_cache(maxsize=16)
def _floorplan(architecture: ArchitectureConfig) -> ChipFloorplan:
    """The chip floorplan of ``architecture``, built once and shared.

    A floorplan is read-only and depends only on the (frozen)
    architecture, so every PROTEUS router of every network on one
    architecture reads the same one instead of building its own.
    """
    return ChipFloorplan(architecture)


def make_policy(
    kind: PowerPolicyKind,
    config: PearlConfig,
    router_id: int,
    ladder: WavelengthLadder,
    dba: Union[DynamicBandwidthAllocator, FCFSAllocator],
    parallel_links: int,
    rng: np.random.Generator,
    ml_model: Optional[RidgeRegression] = None,
) -> Optional[WindowPolicy]:
    """The window policy of one router (None for ``static``).

    ``dba`` is the router's allocator (D3NOC pins its split there),
    ``rng`` the random policy's draw stream and ``ml_model`` the fitted
    predictor every ML router deploys.
    """
    power = config.power_scaling
    if kind is PowerPolicyKind.STATIC:
        return None
    if kind is PowerPolicyKind.REACTIVE:
        return ReactivePowerScaler(power, ladder)
    if kind is PowerPolicyKind.ADAPTIVE:
        return AdaptiveReactiveScaler(power, ladder)
    if kind is PowerPolicyKind.RANDOM:
        return RandomStatePolicy(ladder, rng)
    if kind is PowerPolicyKind.PROTEUS:
        # The loss cap of this router's waveguide on the chip floorplan
        # (the geometry the power model integrates over).
        budget = per_router_link_budget(
            _floorplan(config.architecture),
            config.optical,
            source=router_id,
            photonic=config.photonic,
        )
        return ProteusPowerScaler(power, ladder, budget)
    is_l3 = router_id == config.architecture.l3_router_id
    d3noc = kind is PowerPolicyKind.D3NOC
    selector = StateSelector(
        config.photonic,
        reservation_window=power.reservation_window,
        allow_8wl=power.use_8wl if d3noc else config.ml.reintroduce_8wl,
        capacity_multiplier=float(parallel_links),
        # L3 injects 5-flit cache-line responses; clusters mostly
        # 1-flit requests plus peer data forwards.
        avg_packet_flits=5.0 if is_l3 else 2.0,
    )
    if d3noc:
        return D3nocReconfigurer(selector, config.dba, allocator=dba)
    if ml_model is None:
        raise ValueError("ML policy requires a fitted model")
    ml = config.ml
    monitor = None
    if ml.drift_detection:
        # The training scaler describes cluster-router feature
        # statistics; the L3 router's stream is structurally different
        # (5-flit responses, parallel links), so its monitor watches
        # the self-calibrated residual signal alone.
        monitor = DriftMonitor.for_model(
            ml_model, ml, router_id=router_id, monitor_features=not is_l3
        )
    return MLPowerScaler(
        ml_model,
        selector,
        ml,
        drift_monitor=monitor,
        fallback_thresholds=power.thresholds(),
    )


class _TransmitEngine:
    """One core type's serializer on one link slice."""

    __slots__ = ("busy_until",)

    def __init__(self) -> None:
        self.busy_until = 0


class PearlRouter:
    """One PEARL router plus its share of the photonic crossbar."""

    def __init__(
        self,
        router_id: int,
        config: PearlConfig,
        policy_kind: PowerPolicyKind,
        use_dynamic_bandwidth: bool = True,
        static_state: Optional[int] = None,
        ml_model: Optional[RidgeRegression] = None,
        parallel_links: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if parallel_links <= 0:
            raise ValueError("parallel_links must be positive")
        self.router_id = router_id
        self.config = config
        self.is_l3 = router_id == config.architecture.l3_router_id
        self.parallel_links = parallel_links
        self.ladder = WavelengthLadder(config.photonic)

        self.buffers = PartitionedBuffer(
            config.dba.cpu_buffer_slots,
            config.dba.gpu_buffer_slots,
            name=f"r{router_id}",
        )
        self.ejection = {
            CoreType.CPU: InputBuffer(EJECTION_SLOTS, name=f"r{router_id}/ej-cpu"),
            CoreType.GPU: InputBuffer(EJECTION_SLOTS, name=f"r{router_id}/ej-gpu"),
        }
        self._ejection_backlog: List[Packet] = []

        if use_dynamic_bandwidth:
            self.dba = DynamicBandwidthAllocator(config.dba)
        else:
            self.dba = FCFSAllocator(config.dba)

        self.laser = LaserBank(
            config.photonic,
            network_frequency_ghz=config.architecture.network_frequency_ghz,
            initial_state=static_state,
        )
        self.features = FeatureCollector(
            is_l3_router=self.is_l3,
            capacities=(
                config.dba.cpu_buffer_slots,
                EJECTION_SLOTS,
                config.dba.gpu_buffer_slots,
                EJECTION_SLOTS,
            ),
        )
        #: The window policy (None: static routers keep their state).
        self.policy = make_policy(
            policy_kind,
            config,
            router_id,
            self.ladder,
            self.dba,
            parallel_links,
            rng or np.random.default_rng(router_id + 7),
            ml_model,
        )
        # Only the ML policy spends energy on its close (an inference).
        self._inference_energy_j = getattr(
            self.policy, "inference_energy_j", 0.0
        )
        # Every policy closes on the run's reservation window, staggered
        # per router so routers do not all switch at once (Sec. IV-A:
        # collection offset by 10 cycles per router).  The array core
        # reads the same pair for its cadence arrays.
        power = config.power_scaling
        self._window = power.reservation_window
        self._offset = (router_id * power.router_stagger_cycles) % self._window

        # Transmit engines: per link slice, one per core type.
        self._engines = {
            CoreType.CPU: [_TransmitEngine() for _ in range(parallel_links)],
            CoreType.GPU: [_TransmitEngine() for _ in range(parallel_links)],
        }
        self._local_engine = _TransmitEngine()
        # Hot-path hoists: the per-cycle methods (and the array core's
        # state export) read these instead of chasing dict keys.
        self._ejection_cpu = self.ejection[CoreType.CPU]
        self._ejection_gpu = self.ejection[CoreType.GPU]
        self._all_engines = (
            self._engines[CoreType.CPU] + self._engines[CoreType.GPU]
        )
        self._link_busy_this_cycle = False
        self.ml_energy_j = 0.0
        self.reservations_sent = 0
        # Hook set by the network: called with (features, label) pairs
        # when running in dataset-collection mode.
        self.collection_hook: Optional[
            Callable[[Sequence[float], float], None]
        ] = None
        self._prev_features: Optional[Sequence[float]] = None
        # Telemetry: photonic dispatches per DBA split label, counted at
        # the dispatch under a session, cleared at the warm-up boundary
        # and flushed into the registry once per run by the network.
        self._dba_split_counts: Dict[str, int] = {}
        # Fault-injection hooks (repro.faults).  ``_desired_state`` is
        # the policy's *unclamped* intent, kept so a clearing fault can
        # re-light the link without waiting for the next window.
        self._fault_injector: Optional[RouterFaultInjector] = None
        self._desired_state = self.laser.state
        self.fault_clamp_events = 0

    # -- fault injection -----------------------------------------------------

    def attach_faults(self, injector: RouterFaultInjector) -> None:
        """Install this router's fault-injection view (before cycle 0)."""
        self._fault_injector = injector

    def _request_laser_state(self, state: int, cycle: int) -> None:
        """Route a policy's state request through the fault clamp.

        The unclamped intent is remembered so fault transitions can
        re-issue it: a clearing fault restores the policy's state (with
        the usual stabilization delay), an onsetting one clamps down
        immediately.  Without an injector this is a plain pass-through.
        """
        self._desired_state = state
        injector = self._fault_injector
        if injector is not None:
            clamped = injector.clamp_state(state)
            if clamped != state:
                self.fault_clamp_events += 1
                if OBS.enabled:
                    OBS.registry.counter(
                        "faults/clamp_events",
                        help="laser-state requests clamped by active faults",
                    ).inc()
                    OBS.tracer.instant(
                        "fault_clamp",
                        "faults",
                        cycle,
                        router=self.router_id,
                        requested=state,
                        clamped=clamped,
                    )
                state = clamped
        self.laser.request_state(state)

    def wavelength_assignment(self) -> Dict[CoreType, Tuple[int, ...]]:
        """The current CPU/GPU ring assignment over usable wavelengths.

        Re-runs the allocator's split over the surviving rings of the
        active state — the remapping that keeps the DBA split away from
        trim-drifted wavelengths.  Reporting/verification helper, never
        on the cycle path.
        """
        allocation = self.dba.allocate_from_buffers(self.buffers)
        injector = self._fault_injector
        if injector is not None:
            rings = injector.surviving_wavelengths(limit=self.laser.state)
        else:
            rings = tuple(range(self.laser.state))
        return remap_wavelengths(allocation, rings)

    def reinject(self, packet: Packet) -> bool:
        """Queue a CRC-failed packet for retransmission, head-of-line.

        Returns False when the input pool cannot take the packet back
        (the network keeps it in its retransmit backlog and retries next
        cycle).  Run statistics are *not* touched: the packet was
        already counted at its original injection, so a retry changes
        delivery latency, not the injected count.
        """
        pool = self.buffers.pool(packet.core_type)
        if not pool.can_accept(packet):
            return False
        pool.push_front(packet)
        self.features.on_injected(packet)
        return True

    # -- injection / ejection ------------------------------------------------

    def can_inject(self, packet: Packet) -> bool:
        """Whether the core-side input buffer has room."""
        return self.buffers.can_accept(packet)

    def inject(self, packet: Packet, cycle: int) -> None:
        """A local core hands a packet to the router."""
        packet.injected_cycle = cycle
        self.buffers.push(packet)
        self.features.on_injected(packet)

    def receive(self, packet: Packet) -> None:
        """A packet arrives from the photonic link (O/E complete)."""
        self.features.on_received(packet)
        self._push_ejection(packet)

    def deliver_local(self, packet: Packet) -> None:
        """A local-crossbar packet reaches the cores."""
        self._push_ejection(packet)

    def _push_ejection(self, packet: Packet) -> None:
        pool = self.ejection[packet.core_type]
        if pool.can_accept(packet):
            pool.push(packet)
        else:
            self._ejection_backlog.append(packet)

    def drain_ejection(self, cycle: int, on_delivered) -> None:
        """Cores consume up to a fixed number of packets per cycle."""
        # Retry backlogged arrivals first.
        if self._ejection_backlog:
            remaining: List[Packet] = []
            for packet in self._ejection_backlog:
                pool = self.ejection[packet.core_type]
                if pool.can_accept(packet):
                    pool.push(packet)
                else:
                    remaining.append(packet)
            self._ejection_backlog = remaining
        for pool in self.ejection.values():
            for _ in range(EJECTION_DRAIN_PER_CYCLE):
                if pool.is_empty:
                    break
                packet = pool.pop()
                self.features.on_delivered_to_core(packet)
                on_delivered(packet, cycle)

    # -- per-cycle operation ---------------------------------------------------

    def window_boundary(self, cycle: int) -> bool:
        """True on this router's staggered reservation-window boundary.

        All policies close windows on the same fixed cadence (static
        routers still close windows for feature collection).
        """
        return (cycle - self._offset) % self._window == 0

    def freeze_window(
        self,
    ) -> Tuple[float, List[float], float, Tuple[int, int, int, int]]:
        """Freeze the open window: ``(label, row, Buf_w mean, slots)``.

        The label is the window's link-bound injection count, the row
        its Table III row as a list (feature 30 is the active state),
        the mean the combined input-buffer occupancy the reactive rules
        read and ``slots`` the occupied slots of the CPU input, CPU
        ejection, GPU input and GPU ejection pools at the close (the
        window telemetry's occupancies).  The collector restarts for
        the next window.  The array core freezes its rows from its own
        counters instead, through the same
        :func:`~repro.ml.features.window_row`.
        """
        features = self.features
        label = float(features.network_injected_this_window)
        buf_mean = features.buffer_mean()
        row = features.snapshot(self.laser.state)
        slots = (
            self.buffers.cpu._occupied_slots,
            self._ejection_cpu._occupied_slots,
            self.buffers.gpu._occupied_slots,
            self._ejection_gpu._occupied_slots,
        )
        return label, row, buf_mean, slots

    def close_window(
        self,
        cycle: int,
        label: float,
        row: Sequence[float],
        buf_mean: float,
        slots: Tuple[int, int, int, int],
        predicted: Optional[float] = None,
        stats=None,
    ) -> None:
        """Reservation-window boundary: pick the next wavelength state.

        ``label``, ``row``, ``buf_mean`` and ``slots`` are the frozen
        window (see :meth:`freeze_window`); under the ML policy ``row``
        is this router's row of its close group's inference matrix.
        ``predicted`` is this router's prediction from the ML inference
        the network ran over its close group; an ML router closing
        alone predicts its row itself.
        ``stats`` is the run's :class:`~repro.noc.stats.NetworkStats`,
        whose fault counters the window series records (None for a
        standalone router).
        """
        if self.collection_hook is not None and self._prev_features is not None:
            self.collection_hook(self._prev_features, label)
        self._prev_features = row
        state_before = self.laser.state
        policy = self.policy
        if policy is not None:
            # Under faults the policy sees the states the surviving
            # hardware can sustain (the ML and D3NOC picks honour it).
            injector = self._fault_injector
            window = ClosedWindow(
                cycle,
                label,
                row,
                buf_mean,
                None if injector is None else injector.max_usable_state,
                predicted,
            )
            self._request_laser_state(policy.close_window(window), cycle)
            self.ml_energy_j += self._inference_energy_j

        if OBS.enabled:
            self._record_window_telemetry(
                cycle, label, state_before, slots, stats
            )

    def _record_window_telemetry(
        self,
        cycle: int,
        injected_label: float,
        state_before: int,
        slots: Tuple[int, int, int, int],
        stats,
    ) -> None:
        """Window-cadence telemetry flush (never on the cycle path).

        Purely observational: reads the frozen window's pool ``slots``
        (in :meth:`freeze_window` order), the laser state and the run's
        fault counters in ``stats``, touching no RNG and no control
        state.
        """
        capacities = (
            self.buffers.cpu.capacity_slots,
            self._ejection_cpu.capacity_slots,
            self.buffers.gpu.capacity_slots,
            self._ejection_gpu.capacity_slots,
        )
        occ_cpu, ej_cpu, occ_gpu, ej_gpu = (
            used / capacity for used, capacity in zip(slots, capacities)
        )
        registry = OBS.registry
        registry.counter(
            "noc/windows_closed", help="reservation-window boundaries"
        ).inc()
        registry.histogram(
            "noc/buffer_occupancy/cpu",
            help="CPU input-buffer occupancy sampled at window boundaries",
        ).observe(occ_cpu)
        registry.histogram(
            "noc/buffer_occupancy/gpu",
            help="GPU input-buffer occupancy sampled at window boundaries",
        ).observe(occ_gpu)
        state_target = (
            self.laser._pending_state
            if self.laser._pending_state is not None
            else self.laser.state
        )
        OBS.tracer.instant(
            "window_close",
            "window",
            cycle,
            router=self.router_id,
            injected=injected_label,
            state=state_target,
        )
        if state_target != state_before:
            registry.counter(
                "laser/state_requests",
                help="window boundaries that requested a different state",
            ).inc()
            OBS.tracer.instant(
                "laser_state_request",
                "laser",
                cycle,
                router=self.router_id,
                from_state=state_before,
                to_state=state_target,
            )
        series = OBS.series
        if series.enabled:
            scaler = self.policy
            if isinstance(scaler, MLPowerScaler) and scaler.predictions:
                # decide() for this boundary already ran (close_window
                # order), so predictions[-1] is the forecast paired
                # with the window that just opened.
                predicted = scaler.predictions[-1]
                drift = (
                    scaler.drift_monitor is not None
                    and scaler.drift_monitor.drift_active
                )
                fallback = scaler.last_window_fallback
            else:
                predicted = float("nan")
                drift = False
                fallback = False
            allocation = self.dba.allocate(
                OccupancySample(cpu=occ_cpu, gpu=occ_gpu)
            )
            series.record(
                cycle,
                self.router_id,
                injected=injected_label,
                predicted=predicted,
                occ_cpu=occ_cpu,
                occ_gpu=occ_gpu,
                ej_cpu=ej_cpu,
                ej_gpu=ej_gpu,
                state_before=state_before,
                state_target=state_target,
                laser_power_w=self.laser._power_w[state_target],
                dba_cpu=allocation.cpu_fraction,
                dba_gpu=allocation.gpu_fraction,
                drift_active=drift,
                fallback=fallback,
                clamp_events=self.fault_clamp_events,
                crc_errors=0 if stats is None else stats.crc_errors,
                retransmissions=0 if stats is None else stats.retransmissions,
            )

    def tick_control(self, cycle: int) -> None:
        """Per-cycle bookkeeping: occupancies, window close, laser power."""
        if self.tick_pre_close(cycle):
            self.close_window(cycle, *self.freeze_window())
            self.laser.tick()

    def tick_pre_close(self, cycle: int) -> bool:
        """Everything :meth:`tick_control` does up to the window close.

        Returns True on this router's window boundary with the close
        (and the trailing laser tick) still owed — the network defers
        them so same-cycle closers share one ML inference.  On a
        non-boundary cycle the full control tick has run and False is
        returned.
        """
        injector = self._fault_injector
        if injector is not None and injector.advance_to(cycle):
            # A fault started or cleared this cycle: re-issue the
            # policy's last intent so the clamp tracks the new capacity
            # (down immediately on onset, re-lighting through the usual
            # stabilization on clear).
            self._request_laser_state(self._desired_state, cycle)
        buffers = self.buffers
        self.features.observe_occupancies(
            cpu_core=buffers.cpu.occupied_slots,
            cpu_other=self._ejection_cpu.occupied_slots,
            gpu_core=buffers.gpu.occupied_slots,
            gpu_other=self._ejection_gpu.occupied_slots,
        )
        if self.window_boundary(cycle):
            return True
        self.laser.tick()
        return False

    def transmit(self, cycle: int) -> List[Tuple[int, Packet]]:
        """Dispatch head packets onto the local and photonic paths.

        Returns an ``(arrival_cycle, packet)`` pair per packet started.
        """
        started: List[Tuple[int, Packet]] = []
        buffers = self.buffers
        allocation = self.dba.allocate_from_buffers(buffers)
        laser = self.laser
        local_engine = self._local_engine
        can_transmit = laser.can_transmit
        if (
            self._fault_injector is not None
            and self._fault_injector.link_down
        ):
            # Fewer rings survive than the lowest ladder rung needs: the
            # photonic link is dark (the local crossbar still works).
            can_transmit = False
        serialization = self.ladder.serialization_cycles(laser.state)
        ceil = math.ceil
        link_busy = False
        for pool, fraction, engines in (
            (buffers.cpu, allocation.cpu_fraction, self._engines[CoreType.CPU]),
            (buffers.gpu, allocation.gpu_fraction, self._engines[CoreType.GPU]),
        ):
            while True:
                head = pool.peek()
                if head is None:
                    break
                if head.source == head.destination:  # local-crossbar path
                    if cycle < local_engine.busy_until:
                        break
                    pool.pop()
                    local_engine.busy_until = cycle + 1
                    started.append((cycle + LOCAL_CROSSBAR_CYCLES, head))
                    continue
                if fraction <= 0.0 or not can_transmit:
                    break
                engine = None
                for candidate in engines:
                    if candidate.busy_until <= cycle:
                        engine = candidate
                        break
                if engine is None:
                    break
                pool.pop()
                serialize = int(
                    ceil(serialization * head.size_flits / fraction)
                )
                engine.busy_until = cycle + serialize
                self.reservations_sent += 1
                if OBS.enabled:
                    counts = self._dba_split_counts
                    label = self.dba.split_labels[allocation]
                    counts[label] = counts.get(label, 0) + 1
                started.append(
                    (cycle + serialize + PIPELINE_OVERHEAD_CYCLES, head)
                )
                link_busy = True
        if not link_busy:
            for engine in self._all_engines:
                if engine.busy_until > cycle:
                    link_busy = True
                    break
        self.features.observe_link(link_busy)
        self._link_busy_this_cycle = link_busy
        return started

    def reset_power_stats(self) -> None:
        """Clear laser/ML energy integrals and the DBA split counts
        (warm-up boundary)."""
        self.laser.reset_stats()
        self.ml_energy_j = 0.0
        self.fault_clamp_events = 0
        self._dba_split_counts.clear()
