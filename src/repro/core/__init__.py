"""PEARL's primary contribution: bandwidth, power and ML scaling."""

from .adaptive import AdaptiveReactiveScaler
from .dba import DynamicBandwidthAllocator, FCFSAllocator, OccupancySample
from .ml_scaling import MLPowerScaler, StateSelector
from .power_scaling import (
    ClosedWindow,
    LaserBank,
    RandomStatePolicy,
    ReactivePowerScaler,
)
from .reservation import reservation_packet_bits, reservation_wavelengths
from .wavelength import (
    BandwidthAllocation,
    WavelengthLadder,
    mean_power_w,
    transmission_cycles,
    wavelengths_for_share,
)

__all__ = [
    "AdaptiveReactiveScaler",
    "BandwidthAllocation",
    "ClosedWindow",
    "DynamicBandwidthAllocator",
    "FCFSAllocator",
    "LaserBank",
    "MLPowerScaler",
    "OccupancySample",
    "RandomStatePolicy",
    "ReactivePowerScaler",
    "StateSelector",
    "WavelengthLadder",
    "mean_power_w",
    "reservation_packet_bits",
    "reservation_wavelengths",
    "transmission_cycles",
    "wavelengths_for_share",
]
