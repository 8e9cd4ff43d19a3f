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

import math
from dataclasses import dataclass
from enum import Enum, unique
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import PearlConfig
from ..core.adaptive import AdaptiveReactiveScaler
from ..core.d3noc import D3nocReconfigurer
from ..core.dba import DynamicBandwidthAllocator, FCFSAllocator, remap_wavelengths
from ..faults.injector import RouterFaultInjector
from ..core.ml_scaling import MLPowerScaler, StateSelector
from ..core.power_scaling import LaserBank, ReactivePowerScaler, StaticPowerPolicy
from ..core.proteus import ProteusPowerScaler
from ..core.wavelength import WavelengthLadder
from ..ml.features import FeatureCollector
from ..obs import OBS
from .buffer import InputBuffer, PartitionedBuffer
from .packet import CoreType, Packet
from .photonic import LinkBudget

#: Pipeline overhead outside serialization: reservation broadcast, E/O,
#: waveguide propagation and O/E + buffer write (Sec. III-A3).
PIPELINE_OVERHEAD_CYCLES = 4

#: Latency of the local (intra-cluster) crossbar path.
LOCAL_CROSSBAR_CYCLES = 2

#: Energy of one ML inference (Sec. IV-B, Synopsys estimate).
ML_INFERENCE_ENERGY_J = 44.6e-12

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


@dataclass(slots=True)
class Transmission:
    """A packet in flight on the photonic (or local) path."""

    packet: Packet
    arrival_cycle: int
    source_router: int


class _TransmitEngine:
    """One core type's serializer on one link slice."""

    __slots__ = ("busy_until",)

    def __init__(self) -> None:
        self.busy_until = 0

    def is_free(self, cycle: int) -> bool:
        return cycle >= self.busy_until


class PearlRouter:
    """One PEARL router plus its share of the photonic crossbar."""

    def __init__(
        self,
        router_id: int,
        config: PearlConfig,
        policy_kind: PowerPolicyKind,
        use_dynamic_bandwidth: bool = True,
        static_state: Optional[int] = None,
        ml_scaler: Optional[MLPowerScaler] = None,
        parallel_links: int = 1,
        rng: Optional[np.random.Generator] = None,
        link_budget: Optional[LinkBudget] = None,
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
        self.policy_kind = policy_kind
        self.features = FeatureCollector(
            is_l3_router=self.is_l3,
            capacities=(
                config.dba.cpu_buffer_slots,
                EJECTION_SLOTS,
                config.dba.gpu_buffer_slots,
                EJECTION_SLOTS,
            ),
        )
        self._rng = rng or np.random.default_rng(router_id + 7)

        self.reactive: Optional[ReactivePowerScaler] = None
        self.ml_scaler: Optional[MLPowerScaler] = None
        self.static_policy: Optional[StaticPowerPolicy] = None
        self.d3noc: Optional[D3nocReconfigurer] = None
        if policy_kind is PowerPolicyKind.REACTIVE:
            self.reactive = ReactivePowerScaler(
                config.power_scaling, self.ladder, router_id=router_id
            )
        elif policy_kind is PowerPolicyKind.ADAPTIVE:
            self.reactive = AdaptiveReactiveScaler(
                config.power_scaling, self.ladder, router_id=router_id
            )
        elif policy_kind is PowerPolicyKind.PROTEUS:
            if link_budget is None:
                # Standalone construction: derive this router's own
                # worst-case budget from the default floorplan (the
                # network passes budgets from one shared floorplan).
                from .topology import ChipFloorplan, per_router_link_budget

                link_budget = per_router_link_budget(
                    ChipFloorplan(config.architecture),
                    config.optical,
                    source=router_id,
                    photonic=config.photonic,
                )
            self.reactive = ProteusPowerScaler(
                config.power_scaling,
                self.ladder,
                link_budget,
                router_id=router_id,
            )
        elif policy_kind is PowerPolicyKind.D3NOC:
            self.d3noc = D3nocReconfigurer(
                StateSelector(
                    config.photonic,
                    reservation_window=config.power_scaling.reservation_window,
                    allow_8wl=config.power_scaling.use_8wl,
                    capacity_multiplier=float(parallel_links),
                    # Same asymmetry as the network's ML selectors: the
                    # L3 injects 5-flit cache-line responses, clusters
                    # mostly 1-flit requests plus peer data forwards.
                    avg_packet_flits=5.0 if self.is_l3 else 2.0,
                ),
                config.dba,
                router_id=router_id,
            )
        elif policy_kind is PowerPolicyKind.ML:
            if ml_scaler is None:
                raise ValueError("ML policy requires a fitted MLPowerScaler")
            self.ml_scaler = ml_scaler
        elif policy_kind is PowerPolicyKind.STATIC:
            self.static_policy = StaticPowerPolicy(
                static_state or self.ladder.max_state, self.ladder
            )
        # RANDOM policy uses the window cadence of the reactive config.
        self._window = config.power_scaling.reservation_window
        self._offset = (
            router_id * config.power_scaling.router_stagger_cycles
        ) % max(self._window, 1)

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
        # Every policy closes windows on a fixed periodic cadence; the
        # (window, offset) pair is resolved once so both the per-cycle
        # boundary check and the array core's cadence arrays avoid
        # policy dispatch.
        if self.ml_scaler is not None:
            self._boundary_window = self.ml_scaler._window
            self._boundary_offset = self.ml_scaler.offset
        elif self.reactive is not None:
            self._boundary_window = self.reactive._window
            self._boundary_offset = self.reactive.offset
        else:
            self._boundary_window = self._window
            self._boundary_offset = self._offset
        self.ml_energy_j = 0.0
        # Per-inference energy follows the deployed datapath width: the
        # paper's 44.6 pJ assumes the 16-bit MAC unit, so a quantized
        # model re-costs it via MLHardwareModel.for_bit_width (16-bit
        # formats like q4.12 land exactly back on 44.6 pJ).
        self._inference_energy_j = ML_INFERENCE_ENERGY_J
        if self.ml_scaler is not None and self.ml_scaler.quantized is not None:
            from ..power.ml_overhead import MLHardwareModel

            self._inference_energy_j = (
                MLHardwareModel()
                .for_bit_width(
                    self.ml_scaler.quantized.weight_format.total_bits
                )
                .inference_energy_pj()
                * 1e-12
            )
        self.reservations_sent = 0
        # Hook set by the network: called with (features, label) pairs
        # when running in dataset-collection mode.
        self.collection_hook: Optional[Callable[[np.ndarray, float], None]] = None
        self._prev_features: Optional[np.ndarray] = None
        # Telemetry: per-outcome DBA decision tallies, accumulated on
        # the cycle path as plain dict increments and flushed into the
        # metrics registry at window boundaries.  Allocators return
        # canonical allocation instances, so the cycle path can label
        # them by ``id()`` (an int hash) instead of hashing the frozen
        # dataclass every cycle.
        self._dba_split_counts: dict = {}
        self._split_label_by_id = {
            id(allocation): label
            for allocation, label in self.dba.split_labels.items()
        }
        # Network-level fault counters (attached by PearlNetwork) read
        # by the window-series recorder; None for a standalone router.
        self._net_stats = None
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
        routers still close windows for feature collection), so the
        check reduces to the (window, offset) pair resolved at
        construction.
        """
        return (cycle - self._boundary_offset) % self._boundary_window == 0

    def freeze_window(self) -> Tuple[float, np.ndarray, float]:
        """Freeze the open window: ``(label, row, Buf_w mean)``.

        The label is the window's link-bound injection count, the row
        its Table III vector (feature 30 is the active state) and the
        mean the combined input-buffer occupancy the reactive rules
        read.  The collector restarts for the next window.  The array
        core freezes its rows from its own counters instead, through
        the same :func:`~repro.ml.features.window_row`.
        """
        features = self.features
        label = float(features.network_injected_this_window)
        buf_mean = features.buffer_mean()
        row = features.snapshot(self.laser.state)
        return label, row, buf_mean

    def close_window(
        self,
        cycle: int,
        label: float,
        row: np.ndarray,
        buf_mean: float,
        predicted: Optional[float] = None,
    ) -> None:
        """Reservation-window boundary: pick the next wavelength state.

        ``label``, ``row`` and ``buf_mean`` are the frozen window (see
        :meth:`freeze_window`).  ``predicted`` is this router's row of
        the ML inference the network ran over its close group; an ML
        router closing alone predicts its row itself.
        """
        if self.collection_hook is not None and self._prev_features is not None:
            self.collection_hook(self._prev_features, label)
        self._prev_features = row
        state_before = self.laser.state
        if self.reactive is not None:  # REACTIVE / ADAPTIVE / PROTEUS
            self._request_laser_state(self.reactive.close_window(buf_mean), cycle)
        elif self.d3noc is not None:
            # Data-driven reconfiguration from the frozen window.  The
            # split pin holds until the next close (FCFS ignores it —
            # no reconfigurable split).
            max_state = (
                self._fault_injector.max_usable_state
                if self._fault_injector is not None
                else None
            )
            state, split = self.d3noc.close_window(
                label, row, max_state=max_state
            )
            self._request_laser_state(state, cycle)
            self.dba.pin_split(split)
        elif self.ml_scaler is not None:
            self.ml_scaler.record_label(int(label))
            # Under faults the scaler is degradation-aware: it only
            # considers states the surviving hardware can sustain.
            max_state = (
                self._fault_injector.max_usable_state
                if self._fault_injector is not None
                else None
            )
            state = self.ml_scaler.decide(
                row, max_state=max_state, precomputed=predicted
            )
            self._request_laser_state(state, cycle)
            self.ml_energy_j += self._inference_energy_j
        elif self.policy_kind is PowerPolicyKind.RANDOM:
            states = self.ladder.states_without_lowest()
            state = int(self._rng.choice(states))
            self._request_laser_state(state, cycle)
        # STATIC: nothing to decide.

        if OBS.enabled:
            self._record_window_telemetry(cycle, label, state_before)

    def _record_window_telemetry(
        self, cycle: int, injected_label: float, state_before: int
    ) -> None:
        """Window-cadence telemetry flush (never on the cycle path).

        Purely observational: reads buffer occupancies and the DBA
        tallies accumulated since the last boundary, touching no RNG
        and no control state.
        """
        registry = OBS.registry
        registry.counter(
            "noc/windows_closed", help="reservation-window boundaries"
        ).inc()
        registry.histogram(
            "noc/buffer_occupancy/cpu",
            help="CPU input-buffer occupancy sampled at window boundaries",
        ).observe(self.buffers.cpu_occupancy)
        registry.histogram(
            "noc/buffer_occupancy/gpu",
            help="GPU input-buffer occupancy sampled at window boundaries",
        ).observe(self.buffers.gpu_occupancy)
        for split, count in self._dba_split_counts.items():
            registry.counter(
                f"dba/split/{split}",
                help="cycles the DBA chose this CPU/GPU bandwidth split",
            ).inc(count)
        self._dba_split_counts.clear()
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
            scaler = self.ml_scaler
            if scaler is not None and scaler.predictions:
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
            allocation = self.dba.allocate_from_buffers(self.buffers)
            stats = self._net_stats
            series.record(
                cycle,
                self.router_id,
                injected=injected_label,
                predicted=predicted,
                occ_cpu=self.buffers.cpu_occupancy,
                occ_gpu=self.buffers.gpu_occupancy,
                ej_cpu=self._ejection_cpu.occupancy,
                ej_gpu=self._ejection_gpu.occupancy,
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
        if (cycle - self._boundary_offset) % self._boundary_window == 0:
            return True
        self.laser.tick()
        return False

    def transmit(self, cycle: int) -> List[Transmission]:
        """Dispatch head packets onto the local and photonic paths."""
        started: List[Transmission] = []
        buffers = self.buffers
        allocation = self.dba.allocate_from_buffers(buffers)
        if OBS.enabled:
            label = self._split_label_by_id.get(id(allocation))
            if label is None:  # non-canonical instance: hash by value
                label = self.dba.split_labels.get(allocation, "other")
            self._dba_split_counts[label] = (
                self._dba_split_counts.get(label, 0) + 1
            )
        laser = self.laser
        local_engine = self._local_engine
        router_id = self.router_id
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
                    started.append(
                        Transmission(
                            packet=head,
                            arrival_cycle=cycle + LOCAL_CROSSBAR_CYCLES,
                            source_router=router_id,
                        )
                    )
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
                started.append(
                    Transmission(
                        packet=head,
                        arrival_cycle=cycle
                        + serialize
                        + PIPELINE_OVERHEAD_CYCLES,
                        source_router=router_id,
                    )
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

    @property
    def link_busy(self) -> bool:
        """Whether any transmit engine was busy last cycle."""
        return self._link_busy_this_cycle

    def reset_power_stats(self) -> None:
        """Clear laser/ML energy integrals (warm-up boundary)."""
        self.laser.reset_stats()
        self.ml_energy_j = 0.0
        self.fault_clamp_events = 0
