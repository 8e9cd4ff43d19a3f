"""Deterministic fault schedules for the photonic interconnect.

A :class:`FaultSchedule` is a frozen, picklable description of every
hardware fault a run injects, expressed in simulated cycles:

* :class:`WavelengthFault` — ring-trimming drift takes individual
  wavelengths out of service (a specific ring-index set, or the top
  ``wavelengths`` rings of the bank when no indices are given);
* :class:`LaserDroopFault` — laser aging shrinks the usable state set,
  capping Algorithm 1's ladder at ``max_state`` wavelengths;
* :class:`BitErrorFault` — transient per-flit bit errors on the
  photonic link, caught by the receiver's per-packet CRC.

Schedules are seeds-plus-cycles only: the same schedule replayed over
the same trace produces bit-identical results on either cycle engine
and under any worker count, which is what the differential golden-run
harness and the serial==parallel invariants rely on.  An *empty*
schedule (or ``faults=None``) must leave every statistic bit-identical
to a run without the fault layer at all — the bit-error RNG is only
ever drawn when a nonzero error rate is active.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..config_io import from_doc, to_doc


def _check_span(start: int, end: Optional[int]) -> None:
    if start < 0:
        raise ValueError("fault start cycle cannot be negative")
    if end is not None and end <= start:
        raise ValueError("fault end cycle must be after its start")


def _active(start: int, end: Optional[int], cycle: int) -> bool:
    """Whether a [start, end) fault span covers ``cycle``."""
    return start <= cycle and (end is None or cycle < end)


@dataclass(frozen=True)
class WavelengthFault:
    """Ring-trimming drift disables individual wavelengths.

    ``indices`` names the failed ring indices explicitly; when empty,
    the top ``wavelengths`` rings of the bank fail (drift hits the
    outermost rings of a bank first).  ``router=None`` applies the
    fault to every router.
    """

    wavelengths: int = 0
    indices: Tuple[int, ...] = ()
    router: Optional[int] = None
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        _check_span(self.start, self.end)
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if not self.indices and self.wavelengths <= 0:
            raise ValueError(
                "a wavelength fault needs explicit indices or a positive "
                "wavelength count"
            )
        if any(i < 0 for i in self.indices):
            raise ValueError("ring indices cannot be negative")

    def failed_indices(self, max_wavelengths: int) -> frozenset:
        """The ring indices this fault takes out of a bank."""
        if self.indices:
            return frozenset(
                i for i in self.indices if i < max_wavelengths
            )
        count = min(self.wavelengths, max_wavelengths)
        return frozenset(range(max_wavelengths - count, max_wavelengths))

    def active(self, cycle: int) -> bool:
        """Whether the fault span covers ``cycle``."""
        return _active(self.start, self.end, cycle)


@dataclass(frozen=True)
class LaserDroopFault:
    """Laser-aging power droop caps the usable wavelength-state ladder."""

    max_state: int
    router: Optional[int] = None
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        _check_span(self.start, self.end)
        if self.max_state <= 0:
            raise ValueError("max_state must be positive")

    def active(self, cycle: int) -> bool:
        """Whether the fault span covers ``cycle``."""
        return _active(self.start, self.end, cycle)


@dataclass(frozen=True)
class BitErrorFault:
    """Transient per-flit bit errors on one router's outgoing link."""

    rate: float
    router: Optional[int] = None
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        _check_span(self.start, self.end)
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("bit-error rate must be a probability in [0, 1]")

    def active(self, cycle: int) -> bool:
        """Whether the fault span covers ``cycle``."""
        return _active(self.start, self.end, cycle)


@dataclass(frozen=True)
class FaultSchedule:
    """Everything a run injects, plus the seed of the bit-error RNG."""

    wavelength_faults: Tuple[WavelengthFault, ...] = ()
    droop_faults: Tuple[LaserDroopFault, ...] = ()
    bit_error_faults: Tuple[BitErrorFault, ...] = ()
    seed: int = 0xF001

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "wavelength_faults", tuple(self.wavelength_faults)
        )
        object.__setattr__(self, "droop_faults", tuple(self.droop_faults))
        object.__setattr__(
            self, "bit_error_faults", tuple(self.bit_error_faults)
        )

    @property
    def is_empty(self) -> bool:
        """True when the schedule injects nothing at all."""
        return not (
            self.wavelength_faults
            or self.droop_faults
            or self.bit_error_faults
        )

    def for_router(
        self, router_id: int
    ) -> Tuple[Tuple[WavelengthFault, ...], Tuple[LaserDroopFault, ...]]:
        """The capacity-affecting faults that apply to one router."""
        wl = tuple(
            f
            for f in self.wavelength_faults
            if f.router is None or f.router == router_id
        )
        droop = tuple(
            f
            for f in self.droop_faults
            if f.router is None or f.router == router_id
        )
        return wl, droop

    # -- (de)serialization ----------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """JSON-able form (the result cache hashes this)."""
        return to_doc(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        """Rebuild a schedule from :meth:`payload` output (strictly).

        Unknown keys and values of the wrong JSON type raise
        :class:`ValueError`, as in every run description
        (:mod:`repro.config_io`).
        """
        return from_doc(cls, data, "faults")


def uniform_wavelength_fault(
    fraction: float,
    max_wavelengths: int = 64,
    start: int = 0,
    end: Optional[int] = None,
) -> WavelengthFault:
    """A network-wide fault disabling ``fraction`` of every bank's rings."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fault fraction must be in (0, 1]")
    count = max(int(round(fraction * max_wavelengths)), 1)
    return WavelengthFault(wavelengths=count, start=start, end=end)


def load_fault_schedule(path: Union[str, Path]) -> FaultSchedule:
    """Read a fault schedule from a YAML (or JSON) spec file.

    YAML needs PyYAML; when it is unavailable the loader falls back to
    ``json`` (every JSON document is valid YAML, so ``.json`` specs
    always work).
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        data = json.loads(text)
    else:
        try:
            import yaml
        except ImportError:  # pragma: no cover - environment-dependent
            try:
                data = json.loads(text)
            except json.JSONDecodeError:
                raise RuntimeError(
                    f"{path}: PyYAML is not installed and the file is not "
                    "valid JSON; install pyyaml or rewrite the spec as JSON"
                ) from None
            else:
                return FaultSchedule.from_dict(data or {})
        else:
            data = yaml.safe_load(text)
    return FaultSchedule.from_dict(data or {})
