"""Tests for repro.noc.buffer, including property-based invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.buffer import (
    BufferFullError,
    InputBuffer,
    PartitionedBuffer,
    VirtualChannelBuffer,
)
from repro.noc.packet import CacheLevel, CoreType, make_request, make_response


def _req(core=CoreType.CPU, flits=1, src=0, dst=1):
    level = (
        CacheLevel.CPU_L2_DOWN if core is CoreType.CPU else CacheLevel.GPU_L2_DOWN
    )
    if flits == 1:
        return make_request(src, dst, core, level)
    return make_response(src, dst, core, level, size_flits=flits)


class TestInputBuffer:
    def test_starts_empty(self):
        buf = InputBuffer(8)
        assert buf.is_empty
        assert buf.occupancy == 0.0
        assert buf.free_slots == 8

    def test_push_accounts_slots(self):
        buf = InputBuffer(8)
        buf.push(_req(flits=5))
        assert buf.occupied_slots == 5
        assert buf.occupancy == pytest.approx(5 / 8)

    def test_fifo_order(self):
        buf = InputBuffer(8)
        first, second = _req(), _req()
        buf.push(first)
        buf.push(second)
        assert buf.pop() is first
        assert buf.pop() is second

    def test_peek_does_not_remove(self):
        buf = InputBuffer(8)
        packet = _req()
        buf.push(packet)
        assert buf.peek() is packet
        assert len(buf) == 1

    def test_overflow_raises(self):
        buf = InputBuffer(4)
        buf.push(_req(flits=4))
        with pytest.raises(BufferFullError):
            buf.push(_req())

    def test_can_accept_checks_size(self):
        buf = InputBuffer(4)
        buf.push(_req(flits=2))
        assert buf.can_accept(_req(flits=2))
        assert not buf.can_accept(_req(flits=3))

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            InputBuffer(4).pop()

    def test_drain_empties(self):
        buf = InputBuffer(8)
        for _ in range(3):
            buf.push(_req())
        assert len(list(buf.drain())) == 3
        assert buf.is_empty

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            InputBuffer(0)

    @given(st.lists(st.integers(min_value=1, max_value=5), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_slot_accounting_invariant(self, sizes):
        """occupied_slots always equals the sum of queued packet sizes."""
        buf = InputBuffer(1000)
        queued = []
        for size in sizes:
            packet = _req(flits=size)
            buf.push(packet)
            queued.append(packet)
        assert buf.occupied_slots == sum(p.size_flits for p in queued)
        while queued:
            buf.pop()
            queued.pop(0)
            assert buf.occupied_slots == sum(p.size_flits for p in queued)
        assert buf.is_empty


class TestPartitionedBuffer:
    def test_routes_by_core_type(self):
        buf = PartitionedBuffer(8, 8)
        buf.push(_req(CoreType.CPU))
        buf.push(_req(CoreType.GPU, flits=5))
        assert len(buf.cpu) == 1
        assert len(buf.gpu) == 1
        assert buf.gpu.occupied_slots == 5

    def test_occupancies_independent(self):
        buf = PartitionedBuffer(10, 10)
        buf.push(_req(CoreType.CPU, flits=5))
        assert buf.cpu_occupancy == pytest.approx(0.5)
        assert buf.gpu_occupancy == 0.0

    def test_combined_occupancy(self):
        buf = PartitionedBuffer(10, 10)
        buf.push(_req(CoreType.CPU, flits=5))
        buf.push(_req(CoreType.GPU, flits=5))
        assert buf.combined_occupancy == pytest.approx(0.5)

    def test_total_packets(self):
        buf = PartitionedBuffer(10, 10)
        buf.push(_req(CoreType.CPU))
        buf.push(_req(CoreType.GPU))
        assert buf.total_packets == 2

    def test_can_accept_respects_pool(self):
        buf = PartitionedBuffer(1, 10)
        buf.push(_req(CoreType.CPU))
        assert not buf.can_accept(_req(CoreType.CPU))
        assert buf.can_accept(_req(CoreType.GPU))


class TestVirtualChannelBuffer:
    def _flits(self, n=3):
        return list(_req(flits=n).flits())

    def test_idle_accepts_only_head(self):
        vc = VirtualChannelBuffer(4)
        head, body, tail = self._flits()
        assert vc.can_accept(head)
        assert not vc.can_accept(body)

    def test_allocation_follows_packet(self):
        vc = VirtualChannelBuffer(4)
        head, body, tail = self._flits()
        vc.push(head)
        other_head = next(_req(flits=2).flits())
        assert not vc.can_accept(other_head)
        assert vc.can_accept(body)

    def test_tail_pop_releases_vc(self):
        vc = VirtualChannelBuffer(4)
        for flit in self._flits():
            vc.push(flit)
        while not vc.is_empty:
            vc.pop()
        assert vc.is_idle

    def test_depth_enforced(self):
        vc = VirtualChannelBuffer(2)
        flits = list(_req(flits=3).flits())
        vc.push(flits[0])
        vc.push(flits[1])
        assert not vc.can_accept(flits[2])
        with pytest.raises(BufferFullError):
            vc.push(flits[2])

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            VirtualChannelBuffer(2).pop()

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            VirtualChannelBuffer(0)

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_fifo_through_vc(self, size):
        """Flits exit in exactly the order they entered."""
        vc = VirtualChannelBuffer(size + 1)
        flits = list(_req(flits=size).flits())
        for flit in flits:
            vc.push(flit)
        out = [vc.pop() for _ in range(size)]
        assert [f.index for f in out] == list(range(size))
        assert vc.is_idle
