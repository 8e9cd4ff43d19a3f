"""Shared definitions for the golden-run differential harness.

One small workload (fluidanimate+dct, 200 warm-up + 1500 measured
cycles) is simulated under every (power policy × bandwidth allocator)
combination, and the canonical form of each run is pinned as a JSON
snapshot under ``tests/golden/snapshots/``.  Both cycle engines are
checked against the *same* snapshot, so the harness simultaneously
catches unintended behavioural drift and array/reference divergence.
The same workload also pins the two baseline networks, the electrical
CMESH (at bandwidth divisors 1, 2 and 4) and the token MWSR crossbar;
each has one engine and no oracle, so its snapshot is its guard.

Regenerate snapshots with ``python scripts/update_golden.py`` after an
*intentional* behaviour change (see ``docs/resilience.md``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import PearlConfig, SimulationConfig
from repro.noc.cmesh import CMeshNetwork
from repro.noc.mwsr import MwsrNetwork
from repro.noc.network import JobResult, PearlNetwork
from repro.noc.router import PowerPolicyKind
from repro.noc.stats import NetworkStats
from repro.traffic.benchmarks import get_benchmark
from repro.traffic.synthetic import generate_pair_trace

from ..oracle import (
    delivery_digest,
    drifting_model,
    keep_delivery_order,
    literal_model,
)

GOLDEN_SEED = 11
POLICIES = (
    "static",
    "reactive",
    "adaptive",
    "ml",
    "random",
    "proteus",
    "d3noc",
)
ALLOCATORS = ("dynamic", "fcfs")
#: The reference engine is the oracle: update_golden.py pins its result
#: and refuses to write a snapshot the array engine disagrees with.
ENGINES = ("reference", "array")

#: Snapshot stem of the drift->retrain->register->swap mid-run case.
RETRAIN_CASE = "ml_retrain_dynamic"

#: CMESH link-width divisors pinned (Fig. 5 compares 1, 2 and 4).
CMESH_DIVISORS = (1, 2, 4)
#: Snapshot stem of the token-MWSR crossbar case.
MWSR_CASE = "mwsr"


def cmesh_case(divisor: int) -> str:
    """Snapshot stem of the CMESH case at one bandwidth divisor."""
    return f"cmesh_div{divisor}"


def golden_config() -> PearlConfig:
    """The (short) run configuration every golden case uses."""
    return PearlConfig(
        simulation=SimulationConfig(warmup_cycles=200, measure_cycles=1500)
    )


def case_names() -> List[str]:
    """Snapshot stems, one per (policy × allocator) combination."""
    return [f"{policy}_{alloc}" for policy in POLICIES for alloc in ALLOCATORS]


def canonical_stats(stats: NetworkStats) -> Dict[str, object]:
    """The JSON-able canonical form of a run's statistics.

    The run must have gone under :func:`keep_delivery_order`: its
    per-packet latencies are pinned by a digest in delivery order,
    which keeps snapshots small while pinning every sample (and implies
    the histogram).
    """
    return {
        "stats": stats.to_dict(include_histogram=False),
        "latencies_sha256": delivery_digest(stats),
    }


def canonical(result: JobResult) -> Dict[str, object]:
    """The JSON-able canonical form of one PEARL run, compared exactly."""
    out = canonical_stats(result.stats)
    out["state_residency"] = {
        str(state): fraction
        for state, fraction in sorted(result.state_residency.items())
    }
    out["mean_laser_power_w"] = result.mean_laser_power_w
    out["laser_stall_cycles"] = result.laser_stall_cycles
    return out


def _golden_trace(config: PearlConfig):
    return generate_pair_trace(
        get_benchmark("fluidanimate"),
        get_benchmark("dct"),
        config.architecture,
        config.simulation.total_cycles,
        GOLDEN_SEED,
    )


def run_case(policy: str, allocator: str, engine: str) -> Dict[str, object]:
    """Simulate one golden case and return its canonical form."""
    config = golden_config()
    trace = _golden_trace(config)
    network = PearlNetwork(
        config,
        power_policy=PowerPolicyKind(policy),
        use_dynamic_bandwidth=(allocator == "dynamic"),
        ml_model=literal_model() if policy == "ml" else None,
        seed=GOLDEN_SEED,
    )
    return canonical(keep_delivery_order(network).run(trace, engine=engine))


def retrain_config() -> PearlConfig:
    """Golden run length, 200-cycle windows, one guaranteed retrain."""
    from dataclasses import replace

    config = golden_config().with_reservation_window(200)
    return config.replace(
        ml=replace(
            config.ml,
            drift_detection=True,
            drift_action="retrain",
            drift_calibration_windows=2,
            drift_patience=2,
            retrain_min_samples=20,
            retrain_cooldown_windows=10_000,
        )
    )


def run_retrain_case(engine: str) -> Dict[str, object]:
    """The mid-run drift->retrain->register->swap case.

    The canonical form additionally pins the retrain count and the
    registered model ids — registry ids are content digests, so a change
    in the pooled training rows or the refit arithmetic shows up here
    as a snapshot diff even if the traffic statistics happen to agree.
    """
    import tempfile

    from repro.ml.lifecycle.registry import ModelRegistry

    config = retrain_config()
    trace = _golden_trace(config)
    with tempfile.TemporaryDirectory() as tmp:
        network = PearlNetwork(
            config,
            power_policy=PowerPolicyKind.ML,
            ml_model=drifting_model(),
            seed=GOLDEN_SEED,
            registry=ModelRegistry(tmp),
        )
        result = keep_delivery_order(network).run(trace, engine=engine)
    out = canonical(result)
    out["retrain_events"] = result.retrain_events
    out["retrained_model_ids"] = list(result.retrained_model_ids)
    return out


#: Snapshot stems of the collective-workload golden cases.
COLLECTIVE_RETRAIN_CASE = "collective_allreduce_ml_retrain"
COLLECTIVE_PAM4_CASE = "collective_alltoall_pam4"


def _collective_trace(config: PearlConfig, algorithm: str):
    from repro.traffic.collectives import generate_collective_trace

    return generate_collective_trace(
        algorithm,
        config.architecture,
        duration=config.simulation.total_cycles,
        seed=GOLDEN_SEED,
    )


def run_collective_retrain_case(engine: str) -> Dict[str, object]:
    """drift -> retrain -> register -> swap driven by an all-reduce.

    The drifting model (scaler centred at -100) guarantees the monitor
    trips on the collective's feature stream; the canonical form pins
    the registered model ids, so the pooled rows the collective's
    bursty windows feed into the refit are under snapshot control.
    """
    import tempfile

    from repro.ml.lifecycle.registry import ModelRegistry

    config = retrain_config()
    trace = _collective_trace(config, "allreduce_ring")
    with tempfile.TemporaryDirectory() as tmp:
        network = PearlNetwork(
            config,
            power_policy=PowerPolicyKind.ML,
            ml_model=drifting_model(),
            seed=GOLDEN_SEED,
            registry=ModelRegistry(tmp),
        )
        result = keep_delivery_order(network).run(trace, engine=engine)
    out = canonical(result)
    out["retrain_events"] = result.retrain_events
    out["retrained_model_ids"] = list(result.retrained_model_ids)
    return out


def run_collective_pam4_case(engine: str) -> Dict[str, object]:
    """An all-to-all exchange under PAM4 multilevel signaling.

    Reactive policy with the default allocator: the snapshot pins the
    halved serialization ladder and the 4.8 dB laser penalty end to
    end (state residencies, per-flit energies, laser power) without
    involving any fitted model.
    """
    from dataclasses import replace

    config = golden_config()
    config = config.replace(
        photonic=replace(config.photonic, signaling="pam4")
    )
    trace = _collective_trace(config, "alltoall")
    network = PearlNetwork(
        config, power_policy=PowerPolicyKind.REACTIVE, seed=GOLDEN_SEED
    )
    return canonical(keep_delivery_order(network).run(trace, engine=engine))


def run_cmesh_case(divisor: int) -> Dict[str, object]:
    """The golden workload on the electrical CMESH baseline."""
    config = golden_config()
    network = CMeshNetwork(
        simulation=config.simulation,
        bandwidth_divisor=divisor,
        seed=GOLDEN_SEED,
    )
    return canonical_stats(
        keep_delivery_order(network).run(_golden_trace(config))
    )


def run_mwsr_case() -> Dict[str, object]:
    """The golden workload on the token-arbitrated MWSR crossbar."""
    config = golden_config()
    network = MwsrNetwork(config, seed=GOLDEN_SEED)
    out = canonical_stats(
        keep_delivery_order(network).run(_golden_trace(config))
    )
    out["token_wait_events"] = int(network.total_token_waits())
    return out
