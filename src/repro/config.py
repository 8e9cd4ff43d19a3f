"""Configuration objects for the PEARL reproduction.

Every tunable of the paper lives here as a frozen dataclass so that
experiments are reproducible from a single value object.  Defaults follow
the paper exactly:

* :class:`ArchitectureConfig` — Table I (32 CPUs, 64 GPU CUs, 16 clusters).
* :class:`AreaConfig` — Table II (per-component area overhead).
* :class:`OpticalConfig` — Table V (loss budget, receiver sensitivity).
* :class:`PhotonicConfig` — wavelength states, data rate, laser turn-on.
* :class:`DBAConfig` — Algorithm 1 bandwidth-allocation bounds (Sec. III-B).
* :class:`PowerScalingConfig` — Algorithm 1 steps 6-8 thresholds.
* :class:`MLConfig` — ridge-regression training setup (Sec. III-D, IV-A).
* :class:`CMeshConfig` — electrical baseline (Sec. IV).
* :class:`ResilienceConfig` — CRC/NACK retransmission under faults.
* :class:`SimulationConfig` — run lengths and warm-up.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class ArchitectureConfig:
    """Table I: architecture specification of the PEARL chip.

    The chip is organised as ``num_clusters`` clusters, each holding
    ``cpus_per_cluster`` CPU cores and ``gpus_per_cluster`` GPU compute
    units behind a single router (the checkerboard pattern of Fig. 1b),
    plus one extra router fronting the shared L3 cache.
    """

    num_clusters: int = 16
    cpus_per_cluster: int = 2
    gpus_per_cluster: int = 4
    threads_per_cpu: int = 4
    cpu_frequency_ghz: float = 4.0
    gpu_frequency_ghz: float = 2.0
    network_frequency_ghz: float = 2.0

    cpu_l1i_kb: int = 32
    cpu_l1d_kb: int = 64
    cpu_l2_kb: int = 256
    gpu_l1_kb: int = 64
    gpu_l2_kb: int = 512
    l3_mb: int = 8
    main_memory_gb: int = 16
    cache_line_bytes: int = 64
    memory_controllers: int = 2

    @property
    def num_cpus(self) -> int:
        """Total CPU cores on chip (32 in the paper)."""
        return self.num_clusters * self.cpus_per_cluster

    @property
    def num_gpus(self) -> int:
        """Total GPU compute units on chip (64 in the paper)."""
        return self.num_clusters * self.gpus_per_cluster

    @property
    def num_routers(self) -> int:
        """Cluster routers plus the L3 router (17 in the paper)."""
        return self.num_clusters + 1

    @property
    def l3_router_id(self) -> int:
        """Router id of the shared-L3 crossbar port (the last router)."""
        return self.num_clusters

    @property
    def network_cycle_ns(self) -> float:
        """Duration of one network cycle in nanoseconds."""
        return 1.0 / self.network_frequency_ghz

    def __post_init__(self) -> None:
        if self.num_clusters <= 0:
            raise ValueError("num_clusters must be positive")
        if self.cpus_per_cluster <= 0 or self.gpus_per_cluster <= 0:
            raise ValueError("cores per cluster must be positive")
        if self.network_frequency_ghz <= 0:
            raise ValueError("network frequency must be positive")


@dataclass(frozen=True)
class AreaConfig:
    """Table II: area overhead (mm^2 unless noted) of PEARL components."""

    cluster_mm2: float = 25.0
    l2_per_cluster_mm2: float = 2.1
    optical_components_mm2: float = 24.4
    waveguide_width_um: float = 5.28
    mrr_diameter_um: float = 3.3
    l3_cache_mm2: float = 8.5
    router_mm2: float = 0.342
    laser_per_router_mm2: float = 0.312
    dynamic_allocation_mm2: float = 0.576
    machine_learning_mm2: float = 0.018

    def total_mm2(self, num_clusters: int = 16) -> float:
        """Total chip area for ``num_clusters`` clusters plus shared parts."""
        per_cluster = (
            self.cluster_mm2
            + self.l2_per_cluster_mm2
            + self.router_mm2
            + self.laser_per_router_mm2
        )
        shared = (
            self.optical_components_mm2
            + self.l3_cache_mm2
            + self.dynamic_allocation_mm2
            + self.machine_learning_mm2
        )
        return per_cluster * num_clusters + shared


@dataclass(frozen=True)
class OpticalConfig:
    """Table V: optical component losses and receiver sensitivity.

    Losses are in dB; receiver sensitivity in dBm; ring powers in Watts.
    The loss budget determines the per-wavelength laser output needed at
    the source so the photodetector still sees ``receiver_sensitivity_dbm``.
    """

    modulator_insertion_db: float = 1.0
    waveguide_db_per_cm: float = 1.0
    coupler_db: float = 1.0
    splitter_db: float = 0.2
    filter_through_db: float = 1.00e-3
    filter_drop_db: float = 1.5
    photodetector_db: float = 0.1
    receiver_sensitivity_dbm: float = -15.0
    ring_heating_w: float = 26e-6
    ring_modulating_w: float = 500e-6
    laser_wall_plug_efficiency: float = 0.10
    waveguide_length_cm: float = 6.0
    rings_passed_through: int = 64

    def link_loss_db(self) -> float:
        """Worst-case optical loss along one SWMR data link (dB)."""
        return (
            self.modulator_insertion_db
            + self.waveguide_db_per_cm * self.waveguide_length_cm
            + self.coupler_db
            + self.splitter_db
            + self.filter_through_db * self.rings_passed_through
            + self.filter_drop_db
            + self.photodetector_db
        )


#: Supported link modulation formats (see ``docs/workloads.md``).
SIGNALING_MODES = ("nrz", "pam4")


@dataclass(frozen=True)
class PhotonicConfig:
    """Photonic-link operating parameters (Sec. III-A, III-C, IV-B).

    ``wavelength_states`` lists the selectable laser power states in
    descending order.  ``laser_power_w`` are the paper's computed values
    (Sec. IV-B): 1.16 / 0.871 / 0.581 / 0.29 / 0.145 W for 64 / 48 / 32 /
    16 / 8 wavelengths.  ``serialization_cycles`` reproduces the flit
    timing of Sec. III-C: a 128-bit flit takes 2 cycles at 64 WL, 4 at 48
    and 32 WL, 8 at 16 WL (16 at 8 WL by extension).

    ``signaling`` selects the modulation format.  ``"nrz"`` (the paper's
    on-off keying) is 1 bit/symbol; ``"pam4"`` carries 2 bits/symbol per
    wavelength, halving the per-flit serialization latency of every
    ladder state, but the collapsed eye (one third of the NRZ amplitude
    plus equalization overhead) costs ``pam4_power_penalty_db`` of extra
    optical power to hold the same BER — the laser table and every link
    budget scale by that penalty.  NRZ is arithmetically unchanged.
    """

    data_rate_gbps_per_wl: float = 16.0
    wavelength_states: Tuple[int, ...] = (64, 48, 32, 16, 8)
    laser_power_w: Tuple[float, ...] = (1.16, 0.871, 0.581, 0.29, 0.145)
    serialization_cycles: Tuple[int, ...] = (2, 4, 4, 8, 16)
    laser_turn_on_ns: float = 2.0
    signaling: str = "nrz"
    pam4_power_penalty_db: float = 4.8

    @property
    def bits_per_symbol(self) -> int:
        """Bits encoded per wavelength symbol (1 for NRZ, 2 for PAM4)."""
        return 2 if self.signaling == "pam4" else 1

    def signaling_penalty_db(self) -> float:
        """Extra optical power (dB) the modulation format costs."""
        return self.pam4_power_penalty_db if self.signaling == "pam4" else 0.0

    def state_power(self, wavelengths: int) -> float:
        """Laser power (W) of a wavelength state."""
        try:
            idx = self.wavelength_states.index(wavelengths)
        except ValueError:
            raise ValueError(
                f"{wavelengths} is not a configured wavelength state "
                f"(choose from {self.wavelength_states})"
            ) from None
        base = self.laser_power_w[idx]
        penalty_db = self.signaling_penalty_db()
        if penalty_db:
            base *= 10.0 ** (penalty_db / 10.0)
        return base

    def state_serialization_cycles(self, wavelengths: int) -> int:
        """Network cycles to serialize one flit at a wavelength state.

        Multilevel signaling packs ``bits_per_symbol`` bits per
        wavelength per symbol, so PAM4 halves the NRZ latency (floored
        at one cycle) — the effective-capacity gain every consumer of
        the ladder (DBA splits, Eq. 7 window capacities, both engines'
        transmit paths) inherits from this one method.
        """
        idx = self.wavelength_states.index(wavelengths)
        base = self.serialization_cycles[idx]
        bits = self.bits_per_symbol
        if bits == 1:
            return base
        return max(1, -(-base // bits))

    def turn_on_cycles(self, network_frequency_ghz: float = 2.0) -> int:
        """Laser turn-on (stabilization) delay in network cycles."""
        import math

        return int(math.ceil(self.laser_turn_on_ns * network_frequency_ghz))

    def __post_init__(self) -> None:
        if len(self.wavelength_states) != len(self.laser_power_w):
            raise ValueError("one laser power per wavelength state required")
        if len(self.wavelength_states) != len(self.serialization_cycles):
            raise ValueError("one serialization latency per state required")
        if list(self.wavelength_states) != sorted(
            self.wavelength_states, reverse=True
        ):
            raise ValueError("wavelength states must be in descending order")
        if self.laser_turn_on_ns < 0:
            raise ValueError("laser turn-on time cannot be negative")
        if self.signaling not in SIGNALING_MODES:
            raise ValueError(
                f"signaling must be one of {SIGNALING_MODES}, "
                f"not {self.signaling!r}"
            )
        if self.pam4_power_penalty_db < 0:
            raise ValueError("pam4_power_penalty_db cannot be negative")


@dataclass(frozen=True)
class DBAConfig:
    """Dynamic bandwidth allocation parameters (Algorithm 1, steps 1-5).

    The paper's brute-force search found 16% of CPU buffer space and 6%
    of GPU buffer space as the optimal upper bounds, with a 25% bandwidth
    step granularity.
    """

    cpu_upper_bound: float = 0.16
    gpu_upper_bound: float = 0.06
    bandwidth_step: float = 0.25
    cpu_buffer_slots: int = 64
    gpu_buffer_slots: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.cpu_upper_bound < 1.0:
            raise ValueError("cpu_upper_bound must be in (0, 1)")
        if not 0.0 < self.gpu_upper_bound < 1.0:
            raise ValueError("gpu_upper_bound must be in (0, 1)")
        if self.bandwidth_step not in (0.0625, 0.125, 0.25):
            raise ValueError(
                "bandwidth_step must be one of the paper's evaluated "
                "granularities: 6.25%, 12.5% or 25%"
            )
        if self.cpu_buffer_slots <= 0 or self.gpu_buffer_slots <= 0:
            raise ValueError("buffer slot counts must be positive")


@dataclass(frozen=True)
class PowerScalingConfig:
    """Reactive dynamic power scaling (Algorithm 1, steps 6-8).

    Four occupancy thresholds create five laser power states.  The paper
    chose the thresholds to balance throughput and power; here they are
    fractions of total buffer occupancy averaged over the reservation
    window.  ``use_8wl`` reintroduces the low-power 8-wavelength state.

    ``reservation_window`` is the one per-router window of a run (RW500,
    RW2000): every policy closes on it, and it is the horizon of the ML
    policy's Eq. 7 pick.
    """

    reservation_window: int = 500
    threshold_upper: float = 0.20
    threshold_mid_upper: float = 0.10
    threshold_mid_lower: float = 0.05
    threshold_lower: float = 0.02
    use_8wl: bool = True
    router_stagger_cycles: int = 10

    def thresholds(self) -> Tuple[float, float, float, float]:
        """The four thresholds in descending order."""
        return (
            self.threshold_upper,
            self.threshold_mid_upper,
            self.threshold_mid_lower,
            self.threshold_lower,
        )

    def __post_init__(self) -> None:
        if self.reservation_window <= 0:
            raise ValueError("reservation_window must be positive")
        thr = self.thresholds()
        if list(thr) != sorted(thr, reverse=True):
            raise ValueError("thresholds must be strictly descending")
        if any(t < 0 for t in thr):
            raise ValueError("thresholds cannot be negative")


@dataclass(frozen=True)
class MLConfig:
    """ML-based proactive power scaling setup (Sec. III-D, IV-A).

    The ridge model predicts the number of packets injected into a router
    over the next reservation window from the 30 features of Table III;
    the window is the one :class:`PowerScalingConfig` sets for every
    policy.  λ (``lambda_grid``) is tuned on the validation pairs.  The
    8 WL state is excluded during training and reintroduced at inference
    time (``reintroduce_8wl``), exactly as in Sec. IV-B.

    Deployment knobs (see ``docs/ml_lifecycle.md``):

    * ``quantization`` — a ``"q4.12"``-style Qm.n spec.  When set, the
      routers run the fixed-point saturating-MAC inference path of
      :mod:`repro.ml.lifecycle.quantized` instead of float64 NumPy,
      matching the hardware :mod:`repro.power.ml_overhead` costs.
    * ``drift_detection`` / ``drift_*`` — the online drift monitor of
      :mod:`repro.ml.lifecycle.drift`.  ``drift_action="flag"`` is
      purely observational (bit-identical results);
      ``"fallback"`` degrades drifting routers to the reactive
      Algorithm 1 thresholds until the signals recover;
      ``"retrain"`` closes the loop — a drift event triggers an online
      ridge refit on the pooled window-feature buffer, a registry
      ``put`` + promotion, and a mid-simulation hot swap of the
      deployed model (see ``docs/policies.md``).
    * ``retrain_min_samples`` — pooled (feature, label) rows required
      before a retrain fires; ``retrain_cooldown_windows`` — reservation
      windows that must elapse between consecutive retrains.
    """

    lambda_grid: Tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
    num_features: int = 30
    reintroduce_8wl: bool = True
    standardize_features: bool = True
    quantization: Optional[str] = None
    drift_detection: bool = True
    drift_action: str = "flag"
    drift_ewma_alpha: float = 0.2
    drift_z_threshold: float = 4.0
    drift_patience: int = 3
    drift_calibration_windows: int = 10
    retrain_min_samples: int = 60
    retrain_cooldown_windows: int = 5

    def __post_init__(self) -> None:
        if not self.lambda_grid:
            raise ValueError("lambda_grid cannot be empty")
        if any(lam < 0 for lam in self.lambda_grid):
            raise ValueError("ridge λ values cannot be negative")
        if self.quantization is not None:
            match = re.fullmatch(
                r"q(\d+)\.(\d+)", self.quantization.strip(), re.IGNORECASE
            )
            if match is None:
                raise ValueError(
                    f"quantization must look like 'q4.12', not "
                    f"{self.quantization!r}"
                )
            # One spelling per format, so equal runs share a cache key.
            object.__setattr__(
                self,
                "quantization",
                f"q{int(match.group(1))}.{int(match.group(2))}",
            )
        if self.drift_action not in ("flag", "fallback", "retrain"):
            raise ValueError(
                "drift_action must be 'flag', 'fallback' or 'retrain'"
            )
        if self.retrain_min_samples < 2:
            raise ValueError("retrain_min_samples must be at least 2")
        if self.retrain_cooldown_windows < 0:
            raise ValueError("retrain_cooldown_windows cannot be negative")
        if not 0.0 < self.drift_ewma_alpha <= 1.0:
            raise ValueError("drift_ewma_alpha must be in (0, 1]")
        if self.drift_z_threshold <= 0:
            raise ValueError("drift_z_threshold must be positive")
        if self.drift_patience < 1:
            raise ValueError("drift_patience must be at least 1")
        if self.drift_calibration_windows < 2:
            raise ValueError("drift_calibration_windows must be at least 2")


@dataclass(frozen=True)
class CMeshConfig:
    """Electrical concentrated-mesh baseline (Sec. IV).

    4x4 mesh of routers, each concentrating one cluster (2 CPUs + 4 CUs
    with their L1/L2 caches).  Each input port has 4 virtual channels of
    4 slots of 128-bit flits.  Bisection bandwidth matches PEARL at 64
    constant wavelengths.
    """

    mesh_width: int = 4
    mesh_height: int = 4
    virtual_channels: int = 4
    buffers_per_vc: int = 4

    @property
    def num_routers(self) -> int:
        """Number of mesh routers (16 in the paper)."""
        return self.mesh_width * self.mesh_height

    def __post_init__(self) -> None:
        if self.mesh_width <= 0 or self.mesh_height <= 0:
            raise ValueError("mesh dimensions must be positive")
        if self.virtual_channels <= 0 or self.buffers_per_vc <= 0:
            raise ValueError("VC configuration must be positive")


@dataclass(frozen=True)
class ElectricalPowerConfig:
    """Energy model for the CMESH baseline.

    Values follow DSENT/McPAT-era 28 nm estimates for a concentrated
    mesh: per-flit router energy covers buffering + a wide 128-bit
    5-port crossbar + arbitration; per-flit link energy covers one
    ~5 mm inter-cluster hop.  Static power covers clock and leakage of
    one concentrated router plus its link drivers.
    """

    router_energy_pj_per_flit: float = 25.0
    link_energy_pj_per_flit_per_hop: float = 15.0
    static_power_w_per_router: float = 0.85


@dataclass(frozen=True)
class ResilienceConfig:
    """Recovery behaviour under injected faults (see ``repro.faults``).

    A packet failing its receiver-side CRC is NACKed back to its source
    router, which re-enters it at the head of its input pool after
    ``nack_latency_cycles`` plus a linear per-attempt backoff.  After
    ``retry_limit`` failed retransmissions the packet is dropped and
    counted; a limit of 0 drops on the first CRC error.
    """

    retry_limit: int = 4
    nack_latency_cycles: int = 8
    retry_backoff_cycles: int = 16

    def __post_init__(self) -> None:
        if self.retry_limit < 0:
            raise ValueError("retry_limit cannot be negative")
        if self.nack_latency_cycles < 1:
            raise ValueError("nack_latency_cycles must be at least 1")
        if self.retry_backoff_cycles < 0:
            raise ValueError("retry_backoff_cycles cannot be negative")


@dataclass(frozen=True)
class SimulationConfig:
    """Run-control parameters shared by all experiments."""

    warmup_cycles: int = 1_000
    measure_cycles: int = 20_000

    @property
    def total_cycles(self) -> int:
        """Warm-up plus measured cycles."""
        return self.warmup_cycles + self.measure_cycles

    def __post_init__(self) -> None:
        if self.warmup_cycles < 0 or self.measure_cycles <= 0:
            raise ValueError("cycle counts must be non-negative/positive")


@dataclass(frozen=True)
class PearlConfig:
    """Top-level bundle used to build a :class:`repro.noc.PearlNetwork`."""

    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    photonic: PhotonicConfig = field(default_factory=PhotonicConfig)
    optical: OpticalConfig = field(default_factory=OpticalConfig)
    dba: DBAConfig = field(default_factory=DBAConfig)
    power_scaling: PowerScalingConfig = field(default_factory=PowerScalingConfig)
    ml: MLConfig = field(default_factory=MLConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)

    def replace(self, **kwargs) -> "PearlConfig":
        """Return a copy with the given top-level sections replaced."""
        return dataclasses.replace(self, **kwargs)

    def with_reservation_window(self, window: int) -> "PearlConfig":
        """Copy with every policy's reservation window set to ``window``."""
        return self.replace(
            power_scaling=dataclasses.replace(
                self.power_scaling, reservation_window=window
            )
        )

    def with_turn_on_ns(self, turn_on_ns: float) -> "PearlConfig":
        """Copy with the laser turn-on (stabilization) time changed."""
        return self.replace(
            photonic=dataclasses.replace(
                self.photonic, laser_turn_on_ns=turn_on_ns
            )
        )

    def as_dict(self) -> Dict[str, Dict]:
        """Plain-dict dump for logging and result provenance."""
        return dataclasses.asdict(self)


DEFAULT_CONFIG = PearlConfig()
