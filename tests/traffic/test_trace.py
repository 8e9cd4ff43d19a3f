"""Tests for repro.traffic.trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.packet import CacheLevel, CoreType, PacketClass
from repro.traffic.trace import CODE, InjectionEvent, Trace, TraceCursor


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
    def test_popped_packet_copies_fields(self):
        trace = Trace([_event(cycle=7, source=3, destination=16, flits=2)])
        (packet,) = TraceCursor(trace).pop_packets(7)
        assert packet.source == 3
        assert packet.destination == 16
        assert packet.created_cycle == 7
        assert packet.size_flits == 2

    def test_pops_in_order_exactly_once(self):
        trace = Trace([_event(cycle=c) for c in (0, 0, 3, 5)])
        cursor = TraceCursor(trace)
        assert len(cursor.pop_packets(0)) == 2
        assert cursor.pop_packets(2) == []
        assert len(cursor.pop_packets(4)) == 1
        assert len(cursor.pop_packets(100)) == 1
        assert cursor.exhausted

    def test_large_jump_pops_everything(self):
        trace = Trace([_event(cycle=c) for c in range(10)])
        cursor = TraceCursor(trace)
        assert len(cursor.pop_packets(9)) == 10

    def test_empty_trace_exhausted_immediately(self):
        assert TraceCursor(Trace([])).exhausted

    def test_next_cycle_tracks_head(self):
        trace = Trace([_event(cycle=c) for c in (2, 2, 7)])
        cursor = TraceCursor(trace)
        assert cursor.next_cycle() == 2
        cursor.pop_packets(2)
        assert cursor.next_cycle() == 7
        cursor.pop_packets(7)
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
        assert cursor.pop_packets(4) == []
        at_edge = cursor.pop_packets(5)
        assert [p.created_cycle for p in at_edge] == [5, 5, 5]
        assert cursor.pop_packets(5) == []
        assert cursor.next_cycle() == 9
        assert cursor.pop_packets(8) == []
        assert len(cursor.pop_packets(9)) == 1
        assert cursor.exhausted

    def test_jump_equals_stepping(self):
        """Cycle-by-cycle popping and horizon jumps yield identical events."""
        cycles = [0, 0, 3, 3, 3, 4, 10, 17, 17, 30]
        stepped = TraceCursor(Trace([_event(cycle=c) for c in cycles]))
        jumped = TraceCursor(Trace([_event(cycle=c) for c in cycles]))
        step_order = []
        for cycle in range(31):
            step_order.extend(
                p.created_cycle for p in stepped.pop_packets(cycle)
            )
        jump_order = []
        cycle = 0
        while not jumped.exhausted:
            cycle = jumped.next_cycle()
            jump_order.extend(
                p.created_cycle for p in jumped.pop_packets(cycle)
            )
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
            popped = cursor.pop_packets(cycle)
            assert popped, "pop at next_cycle() must return events"
            seen.extend(p.created_cycle for p in popped)
        assert seen == sorted(cycles)


def _columns(**overrides):
    """Two valid CPU request rows, with some columns replaced."""
    columns = dict(
        cycle=[3, 1],
        source=[0, 2],
        destination=[16, 5],
        core_type=CODE[CoreType.CPU],
        packet_class=CODE[PacketClass.REQUEST],
        cache_level=CODE[CacheLevel.CPU_L2_DOWN],
        size_flits=1,
    )
    columns.update(overrides)
    return columns


class TestColumns:
    def test_from_columns_matches_events(self):
        trace = Trace.from_columns(**_columns(), name="cols")
        assert trace.events == [
            _event(cycle=1, source=2, destination=5),
            _event(cycle=3, source=0, destination=16),
        ]
        assert trace.name == "cols"

    def test_columns_are_read_only(self):
        trace = Trace.from_columns(**_columns())
        with pytest.raises(ValueError):
            trace.columns[0, 0] = 9

    def test_cursor_yields_python_scalars(self):
        trace = Trace.from_columns(**_columns())
        packets = TraceCursor(trace).pop_packets(10)
        for packet in packets:
            for name in ("source", "destination", "size_flits", "created_cycle"):
                assert type(getattr(packet, name)) is int
            assert packet.core_type is CoreType.CPU
            assert packet.packet_class is PacketClass.REQUEST
            assert packet.cache_level is CacheLevel.CPU_L2_DOWN

    def test_merge_concatenates_then_sorts_stably(self):
        a = Trace([_event(cycle=4, source=1), _event(cycle=9, source=1)])
        b = Trace([_event(cycle=4, source=2, core=CoreType.GPU)])
        merged = Trace.merge([a, b], name="ab")
        assert [(e.cycle, e.source) for e in merged] == [(4, 1), (4, 2), (9, 1)]
        assert merged.name == "ab"
        assert len(Trace.merge([])) == 0

    @given(
        parts=st.lists(
            st.lists(st.integers(min_value=0, max_value=20), max_size=15),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_keeps_tie_order(self, parts):
        """Tied cycles come out trace by trace, earlier trace first."""
        traces = [
            Trace([_event(cycle=c, source=index) for c in cycles])
            for index, cycles in enumerate(parts)
        ]
        merged = Trace.merge(traces)
        keys = [(e.cycle, e.source) for e in merged]
        assert keys == sorted(keys)
        assert len(merged) == sum(len(cycles) for cycles in parts)

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),
                st.integers(min_value=0, max_value=16),
                st.integers(min_value=0, max_value=16),
                st.sampled_from(list(CoreType)),
                st.sampled_from(list(PacketClass)),
                st.integers(min_value=1, max_value=8),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_events_rebuild_the_same_columns(self, rows):
        events = [
            InjectionEvent(
                cycle=cycle,
                source=source,
                destination=destination,
                core_type=core,
                packet_class=klass,
                cache_level=(
                    CacheLevel.CPU_L2_UP
                    if core is CoreType.CPU
                    else CacheLevel.GPU_L2_UP
                ),
                size_flits=flits,
            )
            for cycle, source, destination, core, klass, flits in rows
        ]
        trace = Trace(events)
        rebuilt = Trace(trace.events)
        assert np.array_equal(rebuilt.columns, trace.columns)
        assert rebuilt.columns.dtype == np.int64


class TestValidation:
    """Malformed rows fail when the trace is built, naming the row."""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"cycle": [3, -1]}, "trace row 1: cycle is negative"),
            ({"size_flits": [1, 0]}, "trace row 1: size_flits is below 1"),
            ({"core_type": [0, 2]}, "trace row 1: unknown core_type code"),
            ({"packet_class": [-1, 0]}, "trace row 0: unknown packet_class"),
            ({"cache_level": [0, 8]}, "trace row 1: unknown cache_level code"),
            (
                {"core_type": CODE[CoreType.GPU]},
                "trace row 0: cache level cpu_l2_down does not belong to "
                "core type gpu",
            ),
        ],
    )
    def test_from_columns_rejects(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            Trace.from_columns(**_columns(**overrides))

    def test_events_of_the_wrong_core_type_rejected(self):
        bad = InjectionEvent(
            cycle=250,
            source=1,
            destination=16,
            core_type=CoreType.GPU,
            packet_class=PacketClass.REQUEST,
            cache_level=CacheLevel.CPU_L2_DOWN,
        )
        with pytest.raises(ValueError, match="trace row 1: cache level"):
            Trace([_event(cycle=10), bad])

    def test_shared_l3_level_fits_either_core_type(self):
        trace = Trace.from_columns(
            **_columns(
                core_type=[CODE[CoreType.CPU], CODE[CoreType.GPU]],
                cache_level=CODE[CacheLevel.L3],
            )
        )
        assert len(trace) == 2

    def test_load_rejects_a_bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "# bad\n"
            "cycle,source,destination,core_type,packet_class,cache_level,"
            "size_flits\n"
            "0,1,16,cpu,request,cpu_l2_down,1\n"
            "250,2,16,gpu,request,cpu_l2_down,1\n"
        )
        with pytest.raises(ValueError, match="bad.txt: trace row 1: cache"):
            Trace.load(path)

    @pytest.mark.parametrize(
        "line",
        [
            "0,1,16,cpu,request,cpu_l9,1",
            "0,1,16,cpu,request,cpu_l2_down",
            "x,1,16,cpu,request,cpu_l2_down,1",
            "-5,1,16,cpu,request,cpu_l2_down,1",
            "0,1,16,cpu,request,cpu_l2_down,0",
        ],
    )
    def test_load_names_the_malformed_row(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text("0,1,16,cpu,request,cpu_l2_down,1\n" + line + "\n")
        with pytest.raises(ValueError, match="bad.txt: trace row 1"):
            Trace.load(path)

    def test_check_routers(self):
        trace = Trace.from_columns(**_columns(destination=[16, 17]))
        trace.check_routers(18)
        with pytest.raises(ValueError, match="destination 17 is outside"):
            trace.check_routers(17)
        with pytest.raises(ValueError, match="source 2 is outside"):
            trace.check_routers(2)
