"""Extension: resilience under injected photonic faults.

Not a paper figure — a degradation study over the fault model of
:mod:`repro.faults`.  Two sweeps, both on the standard benchmark pair:

* **wavelength faults** — ring-trimming drift disables a growing
  fraction of each router's 64 wavelengths mid-measurement; the
  reactive policy (clamped to sustainable states, DBA split remapped
  over the survivors) is compared against the static 64 WL baseline;
* **bit errors** — transient flit corruption at increasing rates
  exercises the CRC + NACK + bounded-retransmission path.

The expected shape: latency and energy-per-bit rise smoothly with the
fault rate, throughput falls gracefully, and nothing crashes or
livelocks up to (at least) a 20% wavelength-fault rate — the property
the acceptance gate probes.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import PearlConfig
from ..faults import BitErrorFault, FaultSchedule, uniform_wavelength_fault
from ..noc.router import PowerPolicyKind
from .parallel import JobSpec, pair_spec, pearl_job
from .runner import (
    ExperimentResult,
    Results,
    experiment_pairs,
    simulation_config,
)

#: Fraction of each router's wavelengths disabled mid-measurement.
#: Degradation is quantized by the wavelength-state ladder: every
#: capacity in [48, 63] sustains the same 48 WL state, so the sweep
#: crosses rung boundaries (48/32/16) rather than stepping linearly.
WAVELENGTH_FAULT_FRACTIONS = (0.0, 0.05, 0.10, 0.25, 0.50, 0.75)

#: Per-flit transient bit-error rates swept.
BIT_ERROR_RATES = (1e-4, 1e-3)


def _schedule(
    config: PearlConfig,
    fraction: float = 0.0,
    bit_error_rate: float = 0.0,
) -> Optional[FaultSchedule]:
    """A schedule whose faults strike one third into the run and persist.

    Onset inside the measurement phase (not at cycle 0) so every row
    contains a fault boundary: the pre-fault regime, the transition and
    the degraded steady state all land in the measured statistics.
    """
    if fraction <= 0.0 and bit_error_rate <= 0.0:
        return None
    sim = config.simulation
    onset = sim.warmup_cycles + (sim.total_cycles - sim.warmup_cycles) // 3
    wavelength_faults = ()
    bit_error_faults = ()
    if fraction > 0.0:
        wavelength_faults = (
            uniform_wavelength_fault(fraction, start=onset),
        )
    if bit_error_rate > 0.0:
        bit_error_faults = (
            BitErrorFault(rate=bit_error_rate, start=onset),
        )
    return FaultSchedule(
        wavelength_faults=wavelength_faults,
        bit_error_faults=bit_error_faults,
    )


def jobs(quick: bool = True, seed: int = 1) -> List[JobSpec]:
    """Reactive and static runs per wavelength-fault fraction, then a
    reactive run per bit-error rate, all on the first test pair."""
    config = PearlConfig(simulation=simulation_config(quick))
    trace = pair_spec(experiment_pairs(quick)[0], seed)
    specs = []
    for fraction in WAVELENGTH_FAULT_FRACTIONS:
        faults = _schedule(config, fraction=fraction)
        specs.append(
            pearl_job(
                config,
                trace,
                seed=seed,
                power_policy=PowerPolicyKind.REACTIVE,
                faults=faults,
            )
        )
        specs.append(pearl_job(config, trace, seed=seed, faults=faults))
    for rate in BIT_ERROR_RATES:
        specs.append(
            pearl_job(
                config,
                trace,
                seed=seed,
                power_policy=PowerPolicyKind.REACTIVE,
                faults=_schedule(config, bit_error_rate=rate),
            )
        )
    return specs


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """Degradation across wavelength-fault fractions and bit-error rates."""
    result = ExperimentResult(name="extension: fault resilience")
    runs = iter([results[spec] for spec in jobs(quick, seed)])
    for fraction in WAVELENGTH_FAULT_FRACTIONS:
        reactive, static = next(runs), next(runs)
        result.add_row(
            fault_kind="wavelength",
            fault_level=fraction,
            reactive_latency=reactive.stats.mean_latency(),
            reactive_p95=reactive.stats.latency_percentile(95),
            reactive_throughput=reactive.throughput(),
            reactive_power_w=reactive.mean_laser_power_w,
            reactive_clamps=reactive.stats.fault_clamp_events,
            static_latency=static.stats.mean_latency(),
            static_throughput=static.throughput(),
        )
    for rate in BIT_ERROR_RATES:
        job = next(runs)
        result.add_row(
            fault_kind="bit_error",
            fault_level=rate,
            reactive_latency=job.stats.mean_latency(),
            reactive_p95=job.stats.latency_percentile(95),
            reactive_throughput=job.throughput(),
            crc_errors=job.stats.crc_errors,
            retransmissions=job.stats.retransmissions,
            packets_dropped=job.stats.packets_dropped,
        )
    result.notes.append(
        "faults strike one third into the run; degradation is smooth "
        "(no crash/livelock) through a 75% wavelength-fault rate, "
        "quantized by the 48/32/16 state ladder (48 and 32 WL share "
        "a serialization latency, so they differ only in power)"
    )
    return result
