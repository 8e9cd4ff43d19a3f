"""Identity of the columnar trace generators with their per-event loops.

Each digest is the sha256 of the trace's rows in trace order, every row
the seven little-endian int64 fields (cycle, source, destination, core
type, packet class, cache level, size in flits), the enum fields as
their definition index.  The digests were taken from the per-event
generators the columnar ones replaced, so a generator that draws
differently, reorders ties or drops a row fails here before any
simulated number moves.  Shapes are the PEARL benchmark's
(``perfbench/``): PARSEC jobs of 200+1,000 cycles, collective jobs of
100+1,200, both at window 100.

The generators that used to draw one scalar per packet (uniform,
hotspot, collective) are also compared with those per-packet loops,
kept here as the reference, on other chips, rates and seeds.
"""

import hashlib

import numpy as np
import pytest

from repro.config import ArchitectureConfig, PearlConfig, SimulationConfig
from repro.experiments.parallel import collective_spec, pair_spec, uniform_spec
from repro.noc.packet import CacheLevel, CoreType, PacketClass
from repro.traffic.benchmarks import test_pairs as table_iv_pairs
from repro.traffic.collectives import (
    COLLECTIVE_ALGORITHMS,
    MAX_PACKET_FLITS,
    _collective_seed,
    generate_collective_trace,
    phase_timeline,
)
from repro.traffic.synthetic import hotspot_trace, uniform_random_trace
from repro.traffic.trace import CODE


def _config(warmup, measure):
    return PearlConfig(
        simulation=SimulationConfig(
            warmup_cycles=warmup, measure_cycles=measure
        )
    ).with_reservation_window(100)


def _spec(kind, seed):
    if kind == "pair":
        return pair_spec(table_iv_pairs()[0], seed), _config(200, 1_000)
    if kind == "uniform":
        return uniform_spec(0.05, seed), _config(200, 1_000)
    return collective_spec(kind, seed), _config(100, 1_200)


#: (kind, seed) -> (rows, sha256 of the rows).
DIGESTS = {
    ("pair", 1): (
        2015,
        "d7d02b64e1400f2d33789711ba7407a554483bfa2f21532dedd606da1838fb06",
    ),
    ("uniform", 1): (
        1934,
        "269b7a784dc4acf0215ac048d9c523daadc736552d4ddc338fbb0bc1c2113431",
    ),
    ("allreduce_ring", 1): (
        1216,
        "819fecaea261c37f03bcf363c1dba0b9721fa49e26ce81acc176daeb592f1039",
    ),
    ("halving_doubling", 1): (
        3840,
        "17efca5824ca57b145d1c8985be823275cc462984b0c7393afbfad8f9a995924",
    ),
    ("alltoall", 1): (
        1216,
        "69d65d3a1762aca095d44693f44f6e6b75fdee050ee8f655b18ba06dc0597785",
    ),
    ("parameter_server", 1): (
        600,
        "150b6f34bf21d5bb7a90d141f3f0d6d3e5a996279feef97d35167f939a5b188f",
    ),
    ("pair", 7919): (
        1979,
        "aeea3cc9e2c4a1fe515c7b84a16926376acdb35c150b7d1b21e63e8b176145b6",
    ),
    ("uniform", 7919): (
        1936,
        "f14cd6dcb07d088c388a172a445f77f9eceaf1a9d921b1022e7d638549f30c15",
    ),
    ("allreduce_ring", 7919): (
        1216,
        "68f7ac25d19bb0777b490f8cb93fa8cd618f59ecaac9fcd89cb38f22adb0ab3a",
    ),
    ("halving_doubling", 7919): (
        3840,
        "57ac6464db6ac13119c10abd17faee392bd9197419b2d62f8f4501069e27e4a9",
    ),
    ("alltoall", 7919): (
        1216,
        "6844437789a4493f8805397f2eec3fa39084671cfb192dd42a7c85d7e06acfcd",
    ),
    ("parameter_server", 7919): (
        600,
        "9e2f8989e171bb8d850030ff836e96f50d7db2b4eea482c37eb0c0407c805e64",
    ),
}


@pytest.mark.parametrize("kind, seed", sorted(DIGESTS))
def test_trace_spec_build_is_pinned(kind, seed):
    spec, config = _spec(kind, seed)
    trace = spec.build(config)
    rows = np.ascontiguousarray(trace.columns.T, dtype="<i8")
    assert (len(trace), hashlib.sha256(rows.tobytes()).hexdigest()) == (
        DIGESTS[kind, seed]
    )


# -- the per-packet loops the vector draws replaced --------------------------

REQUEST = CODE[PacketClass.REQUEST]


def _sorted_rows(rows):
    return sorted(rows, key=lambda row: row[0])


def _uniform_loop(core_type, rate, architecture, duration, seed):
    rng = np.random.default_rng(seed)
    level = CODE[
        CacheLevel.CPU_L2_DOWN
        if core_type is CoreType.CPU
        else CacheLevel.GPU_L2_DOWN
    ]
    rows = []
    for router in range(architecture.num_clusters):
        for cycle in np.flatnonzero(rng.random(duration) < rate):
            destination = int(rng.integers(0, architecture.num_routers))
            if destination == router:
                destination = architecture.l3_router_id
            rows.append(
                (
                    int(cycle),
                    router,
                    destination,
                    CODE[core_type],
                    REQUEST,
                    level,
                    1,
                )
            )
    return _sorted_rows(rows)


def _hotspot_loop(
    hotspot_router, rate, fraction, architecture, duration, seed
):
    rng = np.random.default_rng(seed)
    rows = []
    for router in range(architecture.num_clusters):
        if router == hotspot_router:
            continue
        for cycle in np.flatnonzero(rng.random(duration) < rate):
            if rng.random() < fraction:
                destination = hotspot_router
            else:
                destination = architecture.l3_router_id
                if destination == router:
                    destination = (router + 1) % architecture.num_clusters
            rows.append(
                (
                    int(cycle),
                    router,
                    destination,
                    CODE[CoreType.GPU],
                    REQUEST,
                    CODE[CacheLevel.GPU_L2_DOWN],
                    1,
                )
            )
    return _sorted_rows(rows)


def _collective_loop(algorithm, architecture, duration, seed):
    steps = phase_timeline(algorithm, architecture, duration=duration)
    rng = np.random.default_rng(_collective_seed(algorithm, seed))
    rows = []
    for step in steps:
        width = step.end_cycle - step.start_cycle
        for transfer in step.transfers:
            remaining = transfer.flits
            while remaining > 0:
                size = min(MAX_PACKET_FLITS, remaining)
                remaining -= size
                rows.append(
                    (
                        step.start_cycle + int(rng.integers(0, width)),
                        transfer.source,
                        transfer.destination,
                        CODE[transfer.core_type],
                        REQUEST,
                        CODE[transfer.cache_level],
                        size,
                    )
                )
    return _sorted_rows(rows)


CHIPS = [ArchitectureConfig(num_clusters=n) for n in (4, 9, 16)]


@pytest.mark.parametrize("chip", CHIPS, ids=lambda c: f"{c.num_clusters}c")
@pytest.mark.parametrize("rate", [0.0, 0.01, 0.3, 1.0])
@pytest.mark.parametrize("core_type", list(CoreType), ids=lambda c: c.value)
def test_uniform_matches_per_packet_draws(chip, rate, core_type):
    trace = uniform_random_trace(
        core_type, rate=rate, architecture=chip, duration=700, seed=11
    )
    assert trace.columns.T.tolist() == [
        list(row) for row in _uniform_loop(core_type, rate, chip, 700, 11)
    ]


@pytest.mark.parametrize("chip", CHIPS, ids=lambda c: f"{c.num_clusters}c")
@pytest.mark.parametrize("hotspot", [0, 2])
def test_hotspot_matches_per_packet_draws(chip, hotspot):
    trace = hotspot_trace(
        hotspot_router=hotspot,
        rate=0.2,
        architecture=chip,
        duration=600,
        seed=4,
    )
    assert trace.columns.T.tolist() == [
        list(row) for row in _hotspot_loop(hotspot, 0.2, 0.6, chip, 600, 4)
    ]


@pytest.mark.parametrize("chip", CHIPS, ids=lambda c: f"{c.num_clusters}c")
@pytest.mark.parametrize("algorithm", COLLECTIVE_ALGORITHMS)
def test_collective_matches_per_packet_draws(chip, algorithm):
    trace = generate_collective_trace(
        algorithm, chip, duration=1_500, seed=23
    )
    assert trace.columns.T.tolist() == [
        list(row) for row in _collective_loop(algorithm, chip, 1_500, 23)
    ]
