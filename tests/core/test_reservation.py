"""Tests for repro.core.reservation — R-SWMR reservation arithmetic."""

import math

import pytest

from repro.core.reservation import (
    reservation_packet_bits,
    reservation_wavelengths,
)


class TestReservationPacketBits:
    def test_paper_configuration(self):
        """16 routers, 2+2 packet types, 5 allocation levels, 1 L3."""
        bits = reservation_packet_bits(16)
        assert bits == math.ceil(math.log2(2 * 16 * 2 * 2 * 5 * 1))

    def test_monotone_in_routers(self):
        assert reservation_packet_bits(32) >= reservation_packet_bits(16)

    def test_monotone_in_allocation_levels(self):
        assert reservation_packet_bits(
            16, allocation_levels=9
        ) >= reservation_packet_bits(16, allocation_levels=5)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive_routers(self, bad):
        with pytest.raises(ValueError):
            reservation_packet_bits(bad)

    def test_rejects_nonpositive_types(self):
        with pytest.raises(ValueError):
            reservation_packet_bits(16, cpu_packet_types=0)

    # With the paper's other factors fixed the formula is
    # ceil(log2(40 * N)); each row is worked by hand.
    @pytest.mark.parametrize(
        "routers,bits",
        [(1, 6), (4, 8), (8, 9), (16, 10), (17, 10), (32, 11), (64, 12)],
    )
    def test_paper_formula_by_router_count(self, routers, bits):
        assert reservation_packet_bits(routers) == bits

    @pytest.mark.parametrize(
        "args,bits",
        [((4, 1, 1, 1, 1), 3), ((2, 2, 2, 2, 2), 6), ((1, 1, 1, 1, 1), 1)],
        ids=["8-combinations", "64-combinations", "2-combinations"],
    )
    def test_exact_powers_of_two_take_no_extra_bit(self, args, bits):
        assert reservation_packet_bits(*args) == bits

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_l3_routers": 0},
            {"gpu_packet_types": 0},
            {"allocation_levels": 0},
        ],
        ids=["l3-routers", "gpu-types", "allocation-levels"],
    )
    def test_rejects_each_nonpositive_factor(self, kwargs):
        with pytest.raises(ValueError, match="must be positive"):
            reservation_packet_bits(16, **kwargs)


class TestReservationWavelengths:
    def test_single_cycle_broadcast(self):
        """At 16 Gb/s per WL and 2 GHz, one WL carries 8 bits/cycle."""
        assert reservation_wavelengths(10) == 2
        assert reservation_wavelengths(8) == 1

    def test_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            reservation_wavelengths(0)

    @pytest.mark.parametrize(
        "bits,rate,frequency,wavelengths",
        [
            (1, 16.0, 2.0, 1),
            (9, 16.0, 2.0, 2),
            (16, 16.0, 2.0, 2),
            (17, 16.0, 2.0, 3),
            (10, 32.0, 2.0, 1),
            (10, 16.0, 4.0, 3),
            (12, 10.0, 2.0, 3),
        ],
    )
    def test_wavelengths_cover_the_packet_in_one_cycle(
        self, bits, rate, frequency, wavelengths
    ):
        assert reservation_wavelengths(bits, rate, frequency) == wavelengths
        # One wavelength fewer could not carry the packet in a cycle.
        assert (wavelengths - 1) * rate / frequency < bits

    @pytest.mark.parametrize(
        "rate,frequency",
        [(0.0, 2.0), (-16.0, 2.0), (16.0, 0.0), (16.0, -2.0), (-16.0, -2.0)],
        ids=[
            "zero-rate",
            "negative-rate",
            "zero-frequency",
            "negative-frequency",
            "both-negative",
        ],
    )
    def test_rejects_nonpositive_rate_or_frequency(self, rate, frequency):
        with pytest.raises(ValueError, match="must be positive"):
            reservation_wavelengths(10, rate, frequency)
