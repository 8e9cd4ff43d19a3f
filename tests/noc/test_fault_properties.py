"""Property-based invariants of the fault-injection subsystem.

Two families:

* **no-op schedules**: a schedule whose faults never activate during
  the run produces a run bit-identical to running with no schedule at
  all (the subsystem is free when unused);
* **wavelength remapping**: the re-run DBA split over surviving rings
  never assigns a disabled wavelength, keeps the CPU and GPU shares
  disjoint, and covers every survivor.

Packet conservation and the CRC and retry-budget accounting under
arbitrary fault schedules are laws of :func:`tests.oracle.check_laws`,
asserted on every run the generated engine-identity property draws.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dba import remap_wavelengths
from repro.core.wavelength import BandwidthAllocation
from repro.faults import FaultSchedule, WavelengthFault
from repro.noc.packet import CoreType

from .. import oracle
from ..oracle import Run, fault_schedules, traces

CYCLES = 400


def _run(trace, **knobs) -> Run:
    return Run(
        trace, warmup=0, measure=CYCLES, window=100, retry=(4, 2, 4), **knobs
    )


def _fingerprint(run: Run) -> dict:
    network = run.network()
    result = network.run(run.build_trace(), engine="array")
    return oracle.fingerprint(network, result)


class TestNoOpSchedules:
    @settings(max_examples=10, deadline=None)
    @given(trace=traces(), data=st.data())
    def test_never_active_schedule_is_bit_identical(self, trace, data):
        """Faults scheduled after the run ends must change nothing."""
        schedule = data.draw(
            fault_schedules(min_start=CYCLES)  # every span starts post-run
        )
        base = _run(trace, policy="reactive")
        faulted = _run(trace, policy="reactive", faults=schedule)
        assert _fingerprint(faulted) == _fingerprint(base)

    def test_empty_schedule_is_bit_identical(self):
        trace = ("events", ((5, 0, 16, "cpu"),))
        got = _fingerprint(_run(trace, faults=FaultSchedule()))
        assert got == _fingerprint(_run(trace))


class TestWavelengthRemap:
    @settings(max_examples=200, deadline=None)
    @given(
        cpu_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        surviving=st.sets(
            st.integers(min_value=0, max_value=63), max_size=64
        ),
    )
    def test_remap_only_assigns_survivors(self, cpu_fraction, surviving):
        allocation = BandwidthAllocation(
            cpu_fraction=cpu_fraction, gpu_fraction=1.0 - cpu_fraction
        )
        assignment = remap_wavelengths(allocation, tuple(surviving))
        cpu = set(assignment[CoreType.CPU])
        gpu = set(assignment[CoreType.GPU])
        # Never assigns a disabled (non-surviving) ring:
        assert cpu <= surviving
        assert gpu <= surviving
        # Disjoint shares covering every survivor:
        assert not (cpu & gpu)
        assert cpu | gpu == surviving
        # Both sides keep at least one ring while their fraction is
        # nonzero and there are rings enough to share.
        if len(surviving) >= 2 and 0.0 < cpu_fraction < 1.0:
            assert cpu and gpu

    def test_end_to_end_assignment_avoids_disabled_rings(self):
        schedule = FaultSchedule(
            wavelength_faults=(
                WavelengthFault(indices=tuple(range(0, 24, 2)), start=0),
            )
        )
        run = _run(
            (
                "events",
                tuple(
                    (cycle, 0, 16, core)
                    for cycle in range(0, 100, 2)
                    for core in ("cpu", "gpu")
                ),
            ),
            faults=schedule,
        )
        network = run.network()
        network.run(run.build_trace(), engine="array")
        for router in network.routers:
            disabled = router._fault_injector.disabled_wavelengths
            assignment = router.wavelength_assignment()
            for rings in assignment.values():
                assert not (set(rings) & disabled)
