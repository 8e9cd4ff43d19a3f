"""Property-based invariants of the PEARL network simulator.

The per-run laws (no over-delivery, positive latency, non-negative
energies, residency a distribution) are asserted by
:func:`tests.oracle.check_laws` on every run the generated
engine-identity property draws; the drain law below needs a long quiet
tail, so it draws runs of its own.
"""

from hypothesis import given, settings

from ..oracle import Run, check_laws, traces


class TestNetworkInvariants:
    @given(trace=traces())
    @settings(max_examples=8, deadline=None)
    def test_long_enough_run_drains_everything(self, trace):
        """With a quiet tail, every request and its response complete."""
        run = Run(trace, seed=1, warmup=0, measure=4_000, window=100)
        network = run.network()
        result = network.run(run.build_trace())
        check_laws(network, result)
        stats = result.stats
        injected = sum(c.packets_injected for c in stats.counters.values())
        assert stats.packets_delivered == injected
        assert network.pending_packet_census()["in_flight"] == 0
        assert network.injection_backlog_size == 0
