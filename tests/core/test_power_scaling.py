"""Tests for repro.core.power_scaling — LaserBank and the reactive scaler."""

import pytest

from repro.config import PhotonicConfig, PowerScalingConfig
from repro.core.power_scaling import (
    LaserBank,
    ReactivePowerScaler,
    StaticPowerPolicy,
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


def _scaler(window=100, use_8wl=True, router_id=0):
    config = PowerScalingConfig(reservation_window=window, use_8wl=use_8wl)
    return ReactivePowerScaler(
        config, WavelengthLadder(PhotonicConfig()), router_id=router_id
    )


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
        assert scaler.close_window(0.5) == 64

    def test_close_window_carries_no_state(self):
        scaler = _scaler()
        scaler.close_window(1.0)
        # A following idle window reads as idle.
        assert scaler.close_window(0.0) == 8

    def test_window_boundary_cadence(self):
        scaler = _scaler(window=100, router_id=0)
        boundaries = [c for c in range(500) if scaler.window_boundary(c)]
        assert boundaries == [0, 100, 200, 300, 400]

    def test_stagger_offsets_boundaries(self):
        scaler = _scaler(window=100, router_id=3)
        assert scaler.window_boundary(30)
        assert not scaler.window_boundary(0)

    def test_close_window_validates_range(self):
        with pytest.raises(ValueError):
            _scaler().close_window(1.5)

    def test_decisions_recorded(self):
        scaler = _scaler()
        scaler.close_window(0.5)
        scaler.close_window(0.001)
        assert scaler.decisions == [64, 8]

    def test_monotone_occupancy_to_state(self):
        """Higher mean occupancy never selects a lower state."""
        scaler = _scaler()
        occupancies = [i / 100 for i in range(101)]
        states = [scaler.select_state(o) for o in occupancies]
        assert states == sorted(states)


class TestStaticPowerPolicy:
    def test_never_reconfigures(self):
        ladder = WavelengthLadder(PhotonicConfig())
        policy = StaticPowerPolicy(64, ladder)
        assert not any(policy.window_boundary(c) for c in range(1000))
        assert policy.close_window() == 64

    def test_rejects_unknown_state(self):
        with pytest.raises(ValueError):
            StaticPowerPolicy(7, WavelengthLadder(PhotonicConfig()))
