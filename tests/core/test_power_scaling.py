"""Tests for repro.core.power_scaling — LaserBank and the reactive scaler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PhotonicConfig, PowerScalingConfig
from repro.core.power_scaling import (
    ClosedWindow,
    LaserBank,
    ReactivePowerScaler,
)
from repro.core.wavelength import WavelengthLadder


def _bank(turn_on_ns=2.0, initial=None):
    return LaserBank(
        PhotonicConfig(laser_turn_on_ns=turn_on_ns),
        network_frequency_ghz=2.0,
        initial_state=initial,
    )


class TestLaserBank:
    def test_starts_at_max_state(self):
        assert _bank().state == 64

    def test_custom_initial_state(self):
        assert _bank(initial=16).state == 16

    def test_unknown_initial_state_rejected(self):
        with pytest.raises(ValueError):
            _bank(initial=24)

    def test_scale_down_immediate(self):
        bank = _bank()
        bank.request_state(16)
        assert bank.state == 16
        assert bank.can_transmit

    def test_scale_up_stabilizes(self):
        """2 ns at 2 GHz = 4 dark cycles before the new state is live."""
        bank = _bank(initial=16)
        bank.request_state(64)
        assert bank.state == 16
        assert bank.is_stabilizing
        assert not bank.can_transmit
        for _ in range(4):
            bank.tick()
        assert bank.state == 64
        assert bank.can_transmit

    def test_zero_turn_on_is_instant(self):
        bank = _bank(turn_on_ns=0.0, initial=16)
        bank.request_state(64)
        assert bank.state == 64
        assert bank.can_transmit

    def test_same_state_request_is_noop(self):
        bank = _bank()
        bank.request_state(64)
        assert bank.transitions == 0

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            _bank().request_state(100)

    def test_stall_cycles_counted(self):
        bank = _bank(turn_on_ns=2.0, initial=8)
        bank.request_state(64)
        for _ in range(10):
            bank.tick()
        assert bank.stall_cycles == 4

    def test_power_during_stabilization_is_target_state(self):
        """Newly lit lasers draw power while warming up."""
        bank = _bank(initial=8)
        bank.request_state(64)
        bank.tick()
        cycle_s = 0.5e-9
        assert bank.energy_j == pytest.approx(1.16 * cycle_s)

    def test_energy_integration_static(self):
        bank = _bank()
        for _ in range(100):
            bank.tick()
        assert bank.mean_power_w() == pytest.approx(1.16)

    def test_mean_power_mixed_states(self):
        bank = _bank(turn_on_ns=0.0)
        for _ in range(50):
            bank.tick()
        bank.request_state(8)
        for _ in range(50):
            bank.tick()
        assert bank.mean_power_w() == pytest.approx((1.16 + 0.145) / 2)

    def test_residency_sums_to_one(self):
        bank = _bank(turn_on_ns=0.0)
        for state in (64, 32, 16, 8, 64):
            bank.request_state(state)
            for _ in range(10):
                bank.tick()
        assert sum(bank.residency().values()) == pytest.approx(1.0)

    def test_longer_turn_on_more_stalls(self):
        short, long = _bank(2.0, initial=8), _bank(32.0, initial=8)
        for bank in (short, long):
            bank.request_state(64)
            for _ in range(80):
                bank.tick()
        assert long.stall_cycles > short.stall_cycles


class TestLaserBankRegression:
    def test_equal_state_request_cancels_pending_upshift(self):
        """Re-requesting the current state mid-upshift cancels the
        pending transition and restores transmit immediately (the
        fault clamp relies on this at fault onset)."""
        bank = LaserBank(PhotonicConfig(), initial_state=16)
        bank.request_state(64)
        assert bank.is_stabilizing
        assert not bank.can_transmit
        bank.request_state(16)
        assert bank.state == 16
        assert not bank.is_stabilizing
        assert bank.can_transmit

    def test_downshift_during_upshift_cancels_pending(self):
        bank = LaserBank(PhotonicConfig(), initial_state=32)
        bank.request_state(64)
        bank.request_state(8)
        assert bank.state == 8
        assert bank.can_transmit
        # And the cancelled 64-state never becomes active:
        for _ in range(20):
            bank.tick()
        assert bank.state == 8


STATES = PhotonicConfig().wavelength_states

#: Up to 40 operations: a state request, or an advance of 0-60 cycles
#: (often exactly a turn-on delay, so flips land on a span's end).
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("request"), st.sampled_from(STATES)),
        st.tuples(
            st.just("advance"),
            st.sampled_from([0, 1, 3, 25]) | st.integers(0, 60),
        ),
    ),
    max_size=40,
)


def _integrated(bank):
    return (
        bank.clock,
        bank.state,
        bank._pending_state,
        bank.cycles_in_state,
        bank._cycles_at_power,
        bank.stall_cycles,
        bank.transitions,
        bank.energy_j,
    )


class TestSettleEqualsTick:
    """``settle`` over a span integrates exactly what per-cycle ticks do."""

    @settings(max_examples=200, deadline=None)
    @given(
        initial=st.sampled_from(STATES),
        turn_on_cycles=st.sampled_from([0, 1, 3, 25]),
        operations=OPERATIONS,
    )
    def test_settle_matches_ticks(self, initial, turn_on_cycles, operations):
        # 2 GHz: turn_on_ns = cycles / 2 is exact in binary.
        ticked, settled, lazy = (
            _bank(turn_on_ns=turn_on_cycles / 2, initial=initial)
            for _ in range(3)
        )
        assert ticked.turn_on_cycles == turn_on_cycles
        cycle = 0
        for operation, value in operations:
            if operation == "request":
                # The array core settles a bank only before a request
                # and at the end of the run.
                lazy.settle(cycle)
                for bank in (ticked, settled, lazy):
                    bank.request_state(value)
            else:
                for _ in range(value):
                    ticked.tick()
                cycle += value
                settled.settle(cycle)
            assert _integrated(settled) == _integrated(ticked)
        lazy.settle(cycle)
        assert _integrated(lazy) == _integrated(ticked)

    def test_settle_backwards_rejected(self):
        bank = _bank()
        bank.settle(10)
        with pytest.raises(ValueError):
            bank.settle(9)


def _scaler(window=100, use_8wl=True):
    config = PowerScalingConfig(reservation_window=window, use_8wl=use_8wl)
    return ReactivePowerScaler(config, WavelengthLadder(PhotonicConfig()))


def _close(scaler, buf_mean):
    return scaler.close_window(ClosedWindow(0, 0.0, None, buf_mean))


class TestReactivePowerScaler:
    def test_threshold_mapping(self):
        scaler = _scaler()
        assert scaler.select_state(0.50) == 64
        assert scaler.select_state(0.15) == 48
        assert scaler.select_state(0.07) == 32
        assert scaler.select_state(0.03) == 16
        assert scaler.select_state(0.001) == 8

    def test_no_8wl_floors_at_16(self):
        scaler = _scaler(use_8wl=False)
        assert scaler.select_state(0.0) == 16

    def test_close_window_uses_mean(self):
        scaler = _scaler()
        assert _close(scaler, 0.5) == 64

    def test_close_window_carries_no_state(self):
        scaler = _scaler()
        _close(scaler, 1.0)
        # A following idle window reads as idle.
        assert _close(scaler, 0.0) == 8

    def test_close_window_validates_range(self):
        with pytest.raises(ValueError):
            _close(_scaler(), 1.5)

    def test_decisions_recorded(self):
        scaler = _scaler()
        _close(scaler, 0.5)
        _close(scaler, 0.001)
        assert scaler.decisions == [64, 8]

    def test_monotone_occupancy_to_state(self):
        """Higher mean occupancy never selects a lower state."""
        scaler = _scaler()
        occupancies = [i / 100 for i in range(101)]
        states = [scaler.select_state(o) for o in occupancies]
        assert states == sorted(states)
