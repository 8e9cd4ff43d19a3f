"""Reservation-assisted SWMR (R-SWMR) reservation-packet sizing.

Before sending data, a PEARL router broadcasts a reservation packet on
the dedicated reservation waveguide naming the destination and the
bandwidth split (Sec. III-A3/III-B).  Only the named destination then
tunes its receiving microrings onto the sender's data waveguide, which
is what lets SWMR avoid both token arbitration and per-receiver laser
splitting losses.

This module holds the paper's Sec. III-B arithmetic: how many bits a
reservation packet needs and how many wavelengths carry it in one
cycle.  The simulated routers do not model the broadcast itself; they
charge it, with E/O conversion and propagation, as the fixed
``PIPELINE_OVERHEAD_CYCLES`` of :mod:`repro.noc.router`.
"""

from __future__ import annotations

import math


def reservation_packet_bits(
    num_routers: int,
    cpu_packet_types: int = 2,
    gpu_packet_types: int = 2,
    allocation_levels: int = 5,
    num_l3_routers: int = 1,
) -> int:
    """ResPacket_size of Sec. III-B.

    ``ResPacket_size = log2(2 * N * S_CPU * S_GPU * D * N_L3)`` where N is
    the number of non-L3 routers, S_* the request/response type counts,
    D the number of allocation possibilities (5) and N_L3 the L3 routers.
    """
    if num_routers <= 0 or num_l3_routers <= 0:
        raise ValueError("router counts must be positive")
    if cpu_packet_types <= 0 or gpu_packet_types <= 0:
        raise ValueError("packet type counts must be positive")
    if allocation_levels <= 0:
        raise ValueError("allocation_levels must be positive")
    combinations = (
        2
        * num_routers
        * cpu_packet_types
        * gpu_packet_types
        * allocation_levels
        * num_l3_routers
    )
    return int(math.ceil(math.log2(combinations)))


def reservation_wavelengths(
    packet_bits: int,
    data_rate_gbps: float = 16.0,
    network_frequency_ghz: float = 2.0,
) -> int:
    """Wavelengths needed to send a reservation packet in one cycle.

    Each wavelength carries ``data_rate / frequency`` bits per network
    cycle, so the waveguide needs ``ceil(bits / bits_per_cycle)``
    wavelengths for single-cycle reservation broadcast.
    """
    if packet_bits <= 0:
        raise ValueError("packet_bits must be positive")
    if data_rate_gbps <= 0 or network_frequency_ghz <= 0:
        raise ValueError("data rate and frequency must be positive")
    bits_per_cycle = data_rate_gbps / network_frequency_ghz
    return int(math.ceil(packet_bits / bits_per_cycle))
