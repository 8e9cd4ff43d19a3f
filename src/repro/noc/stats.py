"""Network statistics collection.

One :class:`NetworkStats` instance aggregates a whole run: injections,
deliveries, latency, per-core-type splits, link utilization and the
laser/electrical energy integrals that back the paper's throughput
(Figs. 6, 9, 10), laser power (Figs. 7, 11) and energy-per-bit (Fig. 5)
plots.  Warm-up cycles can be excluded by calling
:meth:`begin_measurement` at the warm-up boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .packet import CoreType, Packet


@dataclass
class CoreTypeCounters:
    """Injection/delivery counters for one core type."""

    packets_injected: int = 0
    flits_injected: int = 0
    packets_delivered: int = 0
    flits_delivered: int = 0
    total_latency: int = 0

    @property
    def mean_latency(self) -> float:
        """Mean packet latency in cycles (0 with no deliveries)."""
        if self.packets_delivered == 0:
            return 0.0
        return self.total_latency / self.packets_delivered


class NetworkStats:
    """Run-wide statistics with warm-up exclusion."""

    def __init__(self) -> None:
        self.counters: Dict[CoreType, CoreTypeCounters] = {
            CoreType.CPU: CoreTypeCounters(),
            CoreType.GPU: CoreTypeCounters(),
        }
        self.local_packets_delivered = 0
        self.network_flits_delivered = 0
        self.link_busy_cycles = 0
        self.link_total_cycles = 0
        self.measure_start_cycle = 0
        self.final_cycle = 0
        self._latencies: List[int] = []
        self.laser_energy_j = 0.0
        self.trimming_energy_j = 0.0
        self.modulation_energy_j = 0.0
        self.receiver_energy_j = 0.0
        self.ml_energy_j = 0.0
        self.electrical_energy_j = 0.0
        # Fault/resilience counters (zero unless a fault schedule is
        # active — see repro.faults):
        self.crc_errors = 0
        self.retransmissions = 0
        self.packets_dropped = 0
        self.fault_clamp_events = 0

    # -- lifecycle ------------------------------------------------------------

    def begin_measurement(self, cycle: int) -> None:
        """Reset the traffic counters at the end of warm-up."""
        self.measure_start_cycle = cycle
        for counter in self.counters.values():
            counter.packets_injected = 0
            counter.flits_injected = 0
            counter.packets_delivered = 0
            counter.flits_delivered = 0
            counter.total_latency = 0
        self.local_packets_delivered = 0
        self.network_flits_delivered = 0
        self.link_busy_cycles = 0
        self.link_total_cycles = 0
        self._latencies = []
        self.laser_energy_j = 0.0
        self.trimming_energy_j = 0.0
        self.modulation_energy_j = 0.0
        self.receiver_energy_j = 0.0
        self.ml_energy_j = 0.0
        self.electrical_energy_j = 0.0
        self.crc_errors = 0
        self.retransmissions = 0
        self.packets_dropped = 0
        self.fault_clamp_events = 0

    def finish(self, cycle: int) -> None:
        """Record the final simulated cycle."""
        self.final_cycle = cycle

    # -- event hooks ----------------------------------------------------------

    def on_injected(self, packet: Packet) -> None:
        """A packet entered a router's input buffer."""
        counter = self.counters[packet.core_type]
        counter.packets_injected += 1
        counter.flits_injected += packet.size_flits

    def on_delivered(self, packet: Packet, cycle: int) -> None:
        """A packet reached its destination cores."""
        packet.received_cycle = cycle
        counter = self.counters[packet.core_type]
        counter.packets_delivered += 1
        counter.flits_delivered += packet.size_flits
        counter.total_latency += cycle - packet.created_cycle
        self._latencies.append(cycle - packet.created_cycle)
        if packet.is_local:
            self.local_packets_delivered += 1
        else:
            self.network_flits_delivered += packet.size_flits

    def on_link_sample(self, busy: bool) -> None:
        """One cycle's busy/idle sample of one photonic link."""
        self.link_total_cycles += 1
        if busy:
            self.link_busy_cycles += 1

    # -- derived metrics --------------------------------------------------------

    @property
    def measured_cycles(self) -> int:
        """Cycles included in the measurement phase."""
        return max(self.final_cycle - self.measure_start_cycle, 1)

    @property
    def packets_delivered(self) -> int:
        """Total packets delivered across core types."""
        return sum(c.packets_delivered for c in self.counters.values())

    @property
    def flits_delivered(self) -> int:
        """Total flits delivered across core types."""
        return sum(c.flits_delivered for c in self.counters.values())

    @property
    def bits_delivered(self) -> int:
        """Total payload bits delivered (128-bit flits)."""
        return self.flits_delivered * 128

    def throughput_flits_per_cycle(self) -> float:
        """Network throughput in flits per cycle.

        Counts only flits that crossed the interconnect (local
        intra-cluster crossbar traffic is tracked separately) so the
        metric responds to wavelength scaling the way the paper's does.
        """
        return self.network_flits_delivered / self.measured_cycles

    def throughput_gbps(self, network_frequency_ghz: float = 2.0) -> float:
        """Network throughput in Gbit/s."""
        return (
            self.throughput_flits_per_cycle() * 128 * network_frequency_ghz
        )

    def mean_latency(self) -> float:
        """Mean packet latency across core types."""
        delivered = self.packets_delivered
        if delivered == 0:
            return 0.0
        total = sum(c.total_latency for c in self.counters.values())
        return total / delivered

    def latency_percentile(self, q: float) -> float:
        """Latency percentile in cycles (q in [0, 100]).

        Tail latency (p95/p99) is what the CPU side actually feels under
        GPU floods; the mean hides it.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        index = min(
            int(round(q / 100.0 * (len(ordered) - 1))), len(ordered) - 1
        )
        return float(ordered[index])

    def latency_summary(self) -> Dict[str, float]:
        """p50/p95/p99/max latency of the measurement phase."""
        return {
            "p50": self.latency_percentile(50),
            "p95": self.latency_percentile(95),
            "p99": self.latency_percentile(99),
            "max": self.latency_percentile(100),
        }

    def link_utilization(self) -> float:
        """Busy fraction across all sampled link-cycles."""
        if self.link_total_cycles == 0:
            return 0.0
        return self.link_busy_cycles / self.link_total_cycles

    def total_energy_j(self) -> float:
        """All integrated energy (photonic + ML + electrical)."""
        return (
            self.laser_energy_j
            + self.trimming_energy_j
            + self.modulation_energy_j
            + self.receiver_energy_j
            + self.ml_energy_j
            + self.electrical_energy_j
        )

    def energy_per_bit_pj(self) -> float:
        """Energy per delivered bit in picojoules."""
        bits = self.bits_delivered
        if bits == 0:
            return 0.0
        return self.total_energy_j() / bits * 1e12

    def mean_laser_power_w(self, network_frequency_ghz: float = 2.0) -> float:
        """Time-average laser power over the measurement phase."""
        seconds = self.measured_cycles / (network_frequency_ghz * 1e9)
        if seconds <= 0:
            return 0.0
        return self.laser_energy_j / seconds

    # -- (de)serialization and merging ----------------------------------------

    _ENERGY_FIELDS = (
        "laser_energy_j",
        "trimming_energy_j",
        "modulation_energy_j",
        "receiver_energy_j",
        "ml_energy_j",
        "electrical_energy_j",
    )

    _FAULT_FIELDS = (
        "crc_errors",
        "retransmissions",
        "packets_dropped",
        "fault_clamp_events",
    )

    def to_dict(self, include_latencies: bool = True) -> Dict[str, object]:
        """Lossless plain-dict form (the result cache persists this).

        Every field is a JSON-compatible int/float, so a round trip
        through :meth:`from_dict` reproduces the instance bit-for-bit.
        ``include_latencies=False`` leaves the (potentially large)
        per-packet latency list out; callers storing it separately pass
        it back to :meth:`from_dict` via ``latencies``.
        """
        data: Dict[str, object] = {
            "counters": {
                core.name: {
                    "packets_injected": c.packets_injected,
                    "flits_injected": c.flits_injected,
                    "packets_delivered": c.packets_delivered,
                    "flits_delivered": c.flits_delivered,
                    "total_latency": c.total_latency,
                }
                for core, c in self.counters.items()
            },
            "local_packets_delivered": self.local_packets_delivered,
            "network_flits_delivered": self.network_flits_delivered,
            "link_busy_cycles": self.link_busy_cycles,
            "link_total_cycles": self.link_total_cycles,
            "measure_start_cycle": self.measure_start_cycle,
            "final_cycle": self.final_cycle,
        }
        for name in self._ENERGY_FIELDS:
            data[name] = getattr(self, name)
        for name in self._FAULT_FIELDS:
            data[name] = getattr(self, name)
        if include_latencies:
            data["latencies"] = list(self._latencies)
        return data

    @classmethod
    def from_dict(
        cls, data: Dict[str, object], latencies: Sequence[int] = ()
    ) -> "NetworkStats":
        """Rebuild an instance written by :meth:`to_dict`.

        ``latencies`` must already hold Python ints (``ndarray.tolist()``
        output, say): it is copied without per-element conversion.
        """
        stats = cls()
        for core_name, values in data["counters"].items():
            counter = stats.counters[CoreType[core_name]]
            counter.packets_injected = int(values["packets_injected"])
            counter.flits_injected = int(values["flits_injected"])
            counter.packets_delivered = int(values["packets_delivered"])
            counter.flits_delivered = int(values["flits_delivered"])
            counter.total_latency = int(values["total_latency"])
        stats.local_packets_delivered = int(data["local_packets_delivered"])
        stats.network_flits_delivered = int(data["network_flits_delivered"])
        stats.link_busy_cycles = int(data["link_busy_cycles"])
        stats.link_total_cycles = int(data["link_total_cycles"])
        stats.measure_start_cycle = int(data["measure_start_cycle"])
        stats.final_cycle = int(data["final_cycle"])
        for name in cls._ENERGY_FIELDS:
            setattr(stats, name, float(data[name]))
        for name in cls._FAULT_FIELDS:
            # .get: dumps written before the fault layer carry no counters.
            setattr(stats, name, int(data.get(name, 0)))
        stored = data.get("latencies")
        stats._latencies = (
            list(latencies) if stored is None else [int(v) for v in stored]
        )
        return stats

    @classmethod
    def merge(cls, parts: Sequence["NetworkStats"]) -> "NetworkStats":
        """Combine several runs into one aggregate.

        Counters, energies and latency samples add; the merged
        measurement window is the concatenation of the parts, so
        throughput is total flits over total measured cycles.  Used to
        aggregate the per-job stats a parallel sweep returns.
        """
        merged = cls()
        for part in parts:
            for core, counter in part.counters.items():
                target = merged.counters[core]
                target.packets_injected += counter.packets_injected
                target.flits_injected += counter.flits_injected
                target.packets_delivered += counter.packets_delivered
                target.flits_delivered += counter.flits_delivered
                target.total_latency += counter.total_latency
            merged.local_packets_delivered += part.local_packets_delivered
            merged.network_flits_delivered += part.network_flits_delivered
            merged.link_busy_cycles += part.link_busy_cycles
            merged.link_total_cycles += part.link_total_cycles
            merged.final_cycle += part.measured_cycles
            merged._latencies.extend(part._latencies)
            for name in cls._ENERGY_FIELDS:
                setattr(
                    merged, name, getattr(merged, name) + getattr(part, name)
                )
            for name in cls._FAULT_FIELDS:
                setattr(
                    merged, name, getattr(merged, name) + getattr(part, name)
                )
        return merged

    def summary(self) -> Dict[str, float]:
        """A flat dict of headline metrics (for reports and tests)."""
        return {
            "cycles": float(self.measured_cycles),
            "packets_delivered": float(self.packets_delivered),
            "throughput_flits_per_cycle": self.throughput_flits_per_cycle(),
            "mean_latency_cycles": self.mean_latency(),
            "link_utilization": self.link_utilization(),
            "energy_per_bit_pj": self.energy_per_bit_pj(),
            "laser_power_w": self.mean_laser_power_w(),
            "cpu_packets": float(self.counters[CoreType.CPU].packets_delivered),
            "gpu_packets": float(self.counters[CoreType.GPU].packets_delivered),
        }
