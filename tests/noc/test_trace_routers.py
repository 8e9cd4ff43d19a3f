"""Every network rejects a trace addressing routers it does not have.

The check runs in ``run`` before cycle 0, on the trace's id columns, so
a trace generated for a larger chip fails with the offending row
instead of an ``IndexError`` somewhere inside the engine.
"""

import pytest

from repro.config import ArchitectureConfig, PearlConfig, SimulationConfig
from repro.noc.cmesh import CMeshNetwork
from repro.noc.mwsr import MwsrNetwork
from repro.noc.network import PearlNetwork
from repro.noc.packet import CoreType
from repro.traffic.synthetic import uniform_random_trace

SIMULATION = SimulationConfig(warmup_cycles=20, measure_cycles=80)

#: Five routers: four clusters plus the L3.
SMALL = PearlConfig(
    architecture=ArchitectureConfig(num_clusters=4), simulation=SIMULATION
)


def _default_chip_trace():
    """Sources 0..15, destinations up to 16: a 17-router trace."""
    return uniform_random_trace(CoreType.GPU, rate=0.3, duration=100, seed=2)


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(
            lambda trace: PearlNetwork(SMALL).run(trace, "array"), id="array"
        ),
        pytest.param(
            lambda trace: PearlNetwork(SMALL).run(trace, "reference"),
            id="reference",
        ),
        pytest.param(lambda trace: MwsrNetwork(SMALL).run(trace), id="mwsr"),
    ],
)
def test_photonic_networks_reject_foreign_router_ids(run):
    with pytest.raises(ValueError, match="outside the 5-router network"):
        run(_default_chip_trace())


def test_rejected_before_cycle_zero():
    network = PearlNetwork(SMALL)
    with pytest.raises(ValueError, match=r"row \d+: source \d+ is outside"):
        network.run(_default_chip_trace())
    assert network.stats.packets_delivered == 0
    assert all(
        counter.packets_injected == 0
        for counter in network.stats.counters.values()
    )


def test_cmesh_accepts_its_l3_alias_and_rejects_beyond():
    trace = _default_chip_trace()
    CMeshNetwork(simulation=SIMULATION).run(trace)  # ids 0..16 fit
    with pytest.raises(ValueError, match="outside the 17-router network"):
        CMeshNetwork(simulation=SIMULATION).run(
            uniform_random_trace(
                CoreType.GPU,
                rate=0.3,
                architecture=ArchitectureConfig(num_clusters=20),
                duration=100,
                seed=2,
            )
        )


def test_matching_chip_runs():
    trace = uniform_random_trace(
        CoreType.GPU,
        rate=0.3,
        architecture=SMALL.architecture,
        duration=100,
        seed=2,
    )
    assert PearlNetwork(SMALL).run(trace).stats.packets_delivered > 0
