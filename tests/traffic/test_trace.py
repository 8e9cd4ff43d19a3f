"""Tests for repro.traffic.trace."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.packet import CacheLevel, CoreType, PacketClass
from repro.traffic.trace import InjectionEvent, Trace, TraceCursor


def _event(cycle=0, source=0, destination=16, core=CoreType.CPU, flits=1):
    level = (
        CacheLevel.CPU_L2_DOWN if core is CoreType.CPU else CacheLevel.GPU_L2_DOWN
    )
    return InjectionEvent(
        cycle=cycle,
        source=source,
        destination=destination,
        core_type=core,
        packet_class=PacketClass.REQUEST,
        cache_level=level,
        size_flits=flits,
    )


class TestInjectionEvent:
    def test_to_packet_copies_fields(self):
        event = _event(cycle=7, source=3, destination=16, flits=2)
        packet = event.to_packet()
        assert packet.source == 3
        assert packet.destination == 16
        assert packet.created_cycle == 7
        assert packet.size_flits == 2

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            _event(cycle=-1)

    def test_zero_flits_rejected(self):
        with pytest.raises(ValueError):
            _event(flits=0)


class TestTrace:
    def test_sorts_by_cycle(self):
        trace = Trace([_event(cycle=5), _event(cycle=1), _event(cycle=3)])
        assert [e.cycle for e in trace] == [1, 3, 5]

    def test_duration(self):
        trace = Trace([_event(cycle=5), _event(cycle=9)])
        assert trace.duration == 9

    def test_empty_duration(self):
        assert Trace([]).duration == 0

    def test_packets_by_core_type(self):
        trace = Trace(
            [_event(core=CoreType.CPU), _event(core=CoreType.GPU), _event()]
        )
        counts = trace.packets_by_core_type()
        assert counts[CoreType.CPU] == 2
        assert counts[CoreType.GPU] == 1

    def test_merge_interleaves(self):
        a = Trace([_event(cycle=0), _event(cycle=10)])
        b = Trace([_event(cycle=5, core=CoreType.GPU)])
        merged = Trace.merge([a, b])
        assert [e.cycle for e in merged] == [0, 5, 10]
        assert len(merged) == 3

    def test_save_load_round_trip(self, tmp_path):
        trace = Trace(
            [_event(cycle=1), _event(cycle=2, core=CoreType.GPU, flits=5)],
            name="round-trip",
        )
        path = tmp_path / "trace.txt"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "round-trip"
        assert len(loaded) == 2
        assert loaded.events == trace.events

    @given(
        cycles=st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=0, max_size=50
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_trace_always_sorted(self, cycles):
        trace = Trace([_event(cycle=c) for c in cycles])
        ordered = [e.cycle for e in trace]
        assert ordered == sorted(ordered)


class TestTraceCursor:
    def test_pops_in_order_exactly_once(self):
        trace = Trace([_event(cycle=c) for c in (0, 0, 3, 5)])
        cursor = TraceCursor(trace)
        assert len(cursor.pop_ready(0)) == 2
        assert cursor.pop_ready(2) == []
        assert len(cursor.pop_ready(4)) == 1
        assert len(cursor.pop_ready(100)) == 1
        assert cursor.exhausted

    def test_large_jump_pops_everything(self):
        trace = Trace([_event(cycle=c) for c in range(10)])
        cursor = TraceCursor(trace)
        assert len(cursor.pop_ready(9)) == 10

    def test_empty_trace_exhausted_immediately(self):
        assert TraceCursor(Trace([])).exhausted

    def test_next_cycle_tracks_head(self):
        trace = Trace([_event(cycle=c) for c in (2, 2, 7)])
        cursor = TraceCursor(trace)
        assert cursor.next_cycle() == 2
        cursor.pop_ready(2)
        assert cursor.next_cycle() == 7
        cursor.pop_ready(7)
        assert cursor.next_cycle() is None
        assert cursor.exhausted

    def test_horizon_edge_no_skip_no_double_pop(self):
        """Jumping exactly to an event's cycle pops it exactly once.

        The array core's skip horizon lands precisely on the next event's
        cycle; popping at that edge must deliver every event of that
        cycle once, and a re-pop at the same cycle must return nothing.
        """
        trace = Trace([_event(cycle=c) for c in (5, 5, 5, 9)])
        cursor = TraceCursor(trace)
        assert cursor.pop_ready(4) == []
        at_edge = cursor.pop_ready(5)
        assert [e.cycle for e in at_edge] == [5, 5, 5]
        assert cursor.pop_ready(5) == []
        assert cursor.next_cycle() == 9
        assert cursor.pop_ready(8) == []
        assert len(cursor.pop_ready(9)) == 1
        assert cursor.exhausted

    def test_jump_equals_stepping(self):
        """Cycle-by-cycle popping and horizon jumps yield identical events."""
        cycles = [0, 0, 3, 3, 3, 4, 10, 17, 17, 30]
        stepped = TraceCursor(Trace([_event(cycle=c) for c in cycles]))
        jumped = TraceCursor(Trace([_event(cycle=c) for c in cycles]))
        step_order = []
        for cycle in range(31):
            step_order.extend(e.cycle for e in stepped.pop_ready(cycle))
        jump_order = []
        cycle = 0
        while not jumped.exhausted:
            cycle = jumped.next_cycle()
            jump_order.extend(e.cycle for e in jumped.pop_ready(cycle))
        assert step_order == jump_order == sorted(cycles)
        assert stepped.exhausted and jumped.exhausted

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_pop_partitions_events(self, cycles):
        """Any pop sequence partitions the trace: no skips, no repeats."""
        trace = Trace([_event(cycle=c) for c in cycles])
        cursor = TraceCursor(trace)
        seen = []
        cycle = -1
        while not cursor.exhausted:
            cycle = cursor.next_cycle()
            popped = cursor.pop_ready(cycle)
            assert popped, "pop at next_cycle() must return events"
            seen.extend(e.cycle for e in popped)
        assert seen == sorted(cycles)
