"""Array-engine speed trajectory: the default engine must stay fast.

Every production path runs the struct-of-arrays array core; the
reference cycle-by-cycle engine is kept as the test oracle.  These
benchmarks time the array core against the reference on the two ends
of the load spectrum and fail when the trajectory regresses:

* idle-heavy — the array core must be at least ``IDLE_SPEEDUP_FLOOR``
  times faster (quiescent spans cost nothing: every per-cycle integral
  is settled lazily, so the cycle counter just jumps);
* saturated — quiescence never holds, and the masked vector step must
  still beat per-router scalar stepping by ``SATURATED_SPEEDUP_FLOOR``.

``scripts/bench.py`` produces the same comparison as a JSON artifact
for CI trending; this module is the local regression canary.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.config import PearlConfig, SimulationConfig
from repro.noc.network import PearlNetwork
from repro.noc.packet import CoreType
from repro.noc.router import PowerPolicyKind
from repro.traffic.synthetic import uniform_random_trace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.oracle import fingerprint  # noqa: E402

#: Minimum idle-heavy reference/array wall-time ratio (measured ~40-50x;
#: the floor leaves headroom for loaded CI machines).
IDLE_SPEEDUP_FLOOR = 2.0

#: Minimum saturated reference/array wall-time ratio (measured ~2x;
#: the same floor ``scripts/bench.py --check`` applies to every row).
SATURATED_SPEEDUP_FLOOR = 1.3

#: Timing repetitions; interleaved best-of-N cancels machine drift.
REPEATS = 3


def _time_engines(config, trace, policy=PowerPolicyKind.REACTIVE, seed=3):
    best = {"reference": float("inf"), "array": float("inf")}
    fingerprints = {}
    for _ in range(REPEATS):
        for engine in best:
            network = PearlNetwork(config=config, power_policy=policy, seed=seed)
            start = time.perf_counter()
            result = network.run(trace, engine=engine)
            best[engine] = min(best[engine], time.perf_counter() - start)
            fingerprints[engine] = fingerprint(network, result)
    assert (
        fingerprints["reference"] == fingerprints["array"]
    ), "engines diverged — speed is meaningless if results differ"
    return best


def test_idle_heavy_speedup():
    config = PearlConfig().replace(
        simulation=SimulationConfig(warmup_cycles=2_000, measure_cycles=20_000)
    )
    trace = uniform_random_trace(
        CoreType.CPU,
        rate=0.02,
        architecture=config.architecture,
        duration=2_000,
        seed=5,
    )
    best = _time_engines(config, trace)
    speedup = best["reference"] / best["array"]
    print(
        f"idle-heavy ref={best['reference']:.3f}s array={best['array']:.3f}s "
        f"speedup={speedup:.2f}x"
    )
    assert speedup >= IDLE_SPEEDUP_FLOOR, (
        f"idle-heavy speedup {speedup:.2f}x below the "
        f"{IDLE_SPEEDUP_FLOOR:.1f}x floor"
    )


def test_saturated_speedup():
    config = PearlConfig().replace(
        simulation=SimulationConfig(warmup_cycles=1_000, measure_cycles=8_000)
    )
    trace = uniform_random_trace(
        CoreType.GPU,
        rate=0.40,
        architecture=config.architecture,
        duration=config.simulation.total_cycles,
        seed=5,
    )
    best = _time_engines(config, trace)
    speedup = best["reference"] / best["array"]
    print(
        f"saturated ref={best['reference']:.3f}s array={best['array']:.3f}s "
        f"speedup={speedup:.2f}x"
    )
    assert speedup >= SATURATED_SPEEDUP_FLOOR, (
        f"saturated speedup {speedup:.2f}x below the "
        f"{SATURATED_SPEEDUP_FLOOR:.1f}x floor"
    )
