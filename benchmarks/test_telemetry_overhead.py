"""Telemetry overhead budget: instrumented runs stay within 5%.

The observability layer promises that leaving telemetry enabled costs
less than 5% wall time over an uninstrumented simulation.  This
benchmark times identical closed-loop runs on the default (array)
engine, whose per-dispatch DBA split counts, window-close flushes and
window-series hooks are the instrumented path, with the session off
and on in interleaved pairs, and fails if the median pair ratio
exceeds the budget — a regression canary for anyone adding
instrumentation to the cycle path.  Run it in a process of its own
(CI does): other tests' load and warm state move the timings.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro import obs
from repro.config import PearlConfig, SimulationConfig
from repro.noc.network import PearlNetwork
from repro.noc.router import PowerPolicyKind
from repro.traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS
from repro.traffic.synthetic import generate_pair_trace

#: Maximum tolerated instrumented/bare wall-time ratio.
OVERHEAD_BUDGET = 1.05

#: Interleaved bare/instrumented pairs timed; the gate reads their median.
PAIRS = 31


def _workload():
    config = PearlConfig(
        simulation=SimulationConfig(warmup_cycles=200, measure_cycles=4_000)
    )
    trace = generate_pair_trace(
        CPU_BENCHMARKS["fluidanimate"],
        GPU_BENCHMARKS["dct"],
        config.architecture,
        config.simulation.total_cycles,
        5,
    )

    def run():
        network = PearlNetwork(
            config, power_policy=PowerPolicyKind.REACTIVE, seed=5
        )
        network.run(trace)

    return run


def _pair_ratios(run):
    """Instrumented/bare wall-time ratio of each of ``PAIRS`` pairs."""
    run()  # warm caches and lazily imported paths before timing

    def instrumented():
        with obs.session():
            run()

    # Each pair times one bare and one instrumented run back to back
    # (order alternates to cancel any systematic first-runner
    # advantage), so a clock-speed drift or a scheduler stall lands on
    # both halves of the pair it hits.  The median pair ratio then
    # ignores the few pairs a stall split, while a genuine
    # instrumentation cost inflates the instrumented half of every pair.
    ratios = []
    for pair in range(PAIRS):
        order = (run, instrumented) if pair % 2 == 0 else (instrumented, run)
        elapsed = {}
        for timed in order:
            start = time.perf_counter()
            timed()
            elapsed[timed] = time.perf_counter() - start
        ratios.append(elapsed[instrumented] / elapsed[run])
    return ratios


def test_telemetry_overhead_within_budget():
    ratios = _pair_ratios(_workload())
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(
        f"instrumented/bare over {len(ratios)} pairs: min={min(ratios):.4f} "
        f"q1={q1:.4f} median={median:.4f} q3={q3:.4f} max={max(ratios):.4f}"
    )
    assert median <= OVERHEAD_BUDGET, (
        f"median telemetry overhead {median:.3f}x exceeds the "
        f"{OVERHEAD_BUDGET:.2f}x budget (q1={q1:.3f}, q3={q3:.3f})"
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
