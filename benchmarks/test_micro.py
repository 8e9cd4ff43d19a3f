"""Component microbenchmarks (true pytest-benchmark timing loops).

These measure the library's hot paths — useful when optimising the
simulator, and a regression canary for accidental slowdowns.
"""

import numpy as np

from repro.config import DBAConfig, PearlConfig, SimulationConfig
from repro.core.dba import DynamicBandwidthAllocator, OccupancySample
from repro.cache.cache import LineState, SetAssociativeCache
from repro.ml.features import FeatureCollector, NUM_FEATURES
from repro.ml.ridge import RidgeRegression
from repro.noc.network import PearlNetwork
from repro.traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS
from repro.traffic.synthetic import generate_pair_trace


def test_dba_allocate(benchmark):
    dba = DynamicBandwidthAllocator(DBAConfig())
    sample = OccupancySample(cpu=0.2, gpu=0.08)
    benchmark(dba.allocate, sample)


def test_cache_access(benchmark):
    cache = SetAssociativeCache(64 * 1024, 4, 64)
    addresses = np.random.default_rng(0).integers(0, 1 << 20, 2_000)

    def run():
        for address in addresses:
            if not cache.lookup(int(address)):
                cache.fill(int(address), LineState.SHARED)

    benchmark(run)


def test_ridge_fit(benchmark):
    rng = np.random.default_rng(0)
    X = rng.random((2_000, NUM_FEATURES))
    y = X @ rng.random(NUM_FEATURES)
    benchmark(lambda: RidgeRegression(lam=1.0).fit(X, y))


def test_ridge_predict(benchmark):
    rng = np.random.default_rng(0)
    X = rng.random((500, NUM_FEATURES))
    y = X @ rng.random(NUM_FEATURES)
    model = RidgeRegression(lam=1.0).fit(X, y)
    benchmark(model.predict, X)


def test_feature_snapshot(benchmark):
    collector = FeatureCollector()

    def run():
        collector.observe_occupancies(6, 13, 19, 26)
        collector.observe_link(True)
        return collector.snapshot(64)

    benchmark(run)


def test_trace_generation(benchmark):
    cpu = CPU_BENCHMARKS["fluidanimate"]
    gpu = GPU_BENCHMARKS["dct"]
    benchmark(
        lambda: generate_pair_trace(cpu, gpu, duration=5_000, seed=1)
    )


def test_network_cycles_per_second(benchmark):
    """Simulator speed: cycles simulated per wall-clock second."""
    config = PearlConfig(
        simulation=SimulationConfig(warmup_cycles=0, measure_cycles=1_000)
    )
    trace = generate_pair_trace(
        CPU_BENCHMARKS["fluidanimate"],
        GPU_BENCHMARKS["dct"],
        config.architecture,
        1_000,
        seed=1,
    )

    def run():
        PearlNetwork(config).run(trace)

    benchmark.pedantic(run, rounds=3, iterations=1)
