"""Network trace format.

A *trace* is a time-ordered table of the requests that cores hand to
their cluster router, stored as seven integer columns (:data:`COLUMNS`).
Responses are generated closed-loop by the simulator (the L3 bank or the
peer cluster answers each request after a service latency), which is
what makes the power-scaling feedback realistic: a slower network delays
responses and therefore future injections' buffer pressure.

The generators fill the columns with numpy; the engines read them
through :class:`TraceCursor`, which builds each :class:`Packet` at its
injection cycle.  Hand-written traces can still be given as
:class:`InjectionEvent` records, and :attr:`Trace.events` rebuilds the
records on demand.  Every way in validates the columns once, when the
trace is built, so a malformed row fails there, not mid-run.

Traces can be serialised to a simple CSV-like text format so that the
ML pipeline can collect features once and retrain offline, mirroring
the paper's Multi2Sim-trace / network-simulator split.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import starmap
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NoReturn,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from ..noc.packet import CacheLevel, CoreType, Packet, PacketClass

#: Column order of a trace's integer table.
COLUMNS = (
    "cycle",
    "source",
    "destination",
    "core_type",
    "packet_class",
    "cache_level",
    "size_flits",
)

#: Members of each enum column, indexed by code: a code is the member's
#: definition index (for cache levels, their Table III ``table_index``).
#: Object arrays, so one fancy index plus ``tolist`` turns a code column
#: into enum members at C speed.
_CORE_TYPES = np.array(tuple(CoreType), dtype=object)
_PACKET_CLASSES = np.array(tuple(PacketClass), dtype=object)
_CACHE_LEVELS = np.array(tuple(CacheLevel), dtype=object)

#: Column index -> members of that enum column.
_ENUMS = {3: _CORE_TYPES, 4: _PACKET_CLASSES, 5: _CACHE_LEVELS}

#: Enum member -> its column code.
CODE: Dict[object, int] = {
    member: code
    for members in _ENUMS.values()
    for code, member in enumerate(members)
}

#: Column index -> member value (the text format) -> code.
_BY_VALUE = {
    index: {member.value: code for code, member in enumerate(members)}
    for index, members in _ENUMS.items()
}

#: Core-type code each cache-level code implies (-1 for the shared L3).
_LEVEL_CORE = np.array(
    [
        -1 if level.implied_core is None else CODE[level.implied_core]
        for level in _CACHE_LEVELS
    ]
)


@dataclass(frozen=True)
class InjectionEvent:
    """One core-generated packet injection (one row of a trace)."""

    cycle: int
    source: int
    destination: int
    core_type: CoreType
    packet_class: PacketClass
    cache_level: CacheLevel
    size_flits: int = 1

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("event cycle cannot be negative")
        if self.size_flits <= 0:
            raise ValueError("event must carry at least one flit")


def _validate(table: np.ndarray) -> None:
    """Reject the first malformed row of an unsorted ``(7, n)`` table."""
    cycle, _, _, core, _, level, flits = table
    checks = [
        (cycle < 0, "cycle is negative"),
        (flits < 1, "size_flits is below 1"),
    ]
    for index, members in _ENUMS.items():
        codes = table[index]
        checks.append(
            (
                (codes < 0) | (codes >= len(members)),
                f"unknown {COLUMNS[index]} code",
            )
        )
    for bad, problem in checks:
        if bad.any():
            _reject(table, int(np.argmax(bad)), problem)
    implied = _LEVEL_CORE[level]
    bad = (implied >= 0) & (implied != core)
    if bad.any():
        row = int(np.argmax(bad))
        _reject(
            table,
            row,
            f"cache level {_CACHE_LEVELS[level[row]].value} does not "
            f"belong to core type {_CORE_TYPES[core[row]].value}",
        )


def _python_columns(table: np.ndarray) -> List[list]:
    """The columns as lists of Python ints and enum members.

    Nothing numpy-typed reaches a :class:`Packet`, a heap key or a
    stats counter.
    """
    columns = table.tolist()
    for index, members in _ENUMS.items():
        columns[index] = members[table[index]].tolist()
    return columns


def _parse_row(fields: List[str]) -> List[int]:
    """One text row of :meth:`Trace.save`'s format as column codes."""
    if len(fields) != len(COLUMNS):
        raise ValueError(f"expected {len(COLUMNS)} fields, got {len(fields)}")
    row = []
    for index, text in enumerate(fields):
        if index not in _BY_VALUE:
            row.append(int(text))
        elif text in _BY_VALUE[index]:
            row.append(_BY_VALUE[index][text])
        else:
            raise ValueError(f"unknown {COLUMNS[index]} {text!r}")
    return row


def _reject(table: np.ndarray, row: int, problem: str) -> NoReturn:
    fields = ", ".join(
        f"{name}={value}" for name, value in zip(COLUMNS, table[:, row].tolist())
    )
    raise ValueError(f"trace row {row}: {problem} ({fields})")


class Trace:
    """A finite, time-ordered injection trace held as integer columns.

    ``columns`` is a read-only ``(7, n)`` int64 array with one row per
    :data:`COLUMNS` entry, sorted by cycle; tied cycles keep the order
    the rows were given in (a stable sort), so merged and generated
    traces stay deterministic.  ``Trace(events, name)`` takes
    hand-written :class:`InjectionEvent` records; generators use
    :meth:`from_columns`.
    """

    def __init__(
        self, events: Iterable[InjectionEvent], name: str = "trace"
    ) -> None:
        rows = [
            (
                e.cycle,
                e.source,
                e.destination,
                CODE[e.core_type],
                CODE[e.packet_class],
                CODE[e.cache_level],
                e.size_flits,
            )
            for e in events
        ]
        self._adopt(
            np.array(rows, dtype=np.int64).reshape(-1, len(COLUMNS)).T, name
        )

    @classmethod
    def from_columns(
        cls,
        *,
        cycle,
        source,
        destination,
        core_type,
        packet_class,
        cache_level,
        size_flits,
        name: str = "trace",
    ) -> "Trace":
        """Build a trace from its columns (scalars broadcast).

        Enum columns take codes (see :data:`CODE`).  The rows need not
        be sorted; the trace sorts them stably by cycle.
        """
        columns = np.broadcast_arrays(
            cycle,
            source,
            destination,
            core_type,
            packet_class,
            cache_level,
            size_flits,
        )
        table = np.array(columns, dtype=np.int64).reshape(len(COLUMNS), -1)
        return cls._from_table(table, name)

    @classmethod
    def _from_table(cls, table: np.ndarray, name: str) -> "Trace":
        trace = cls.__new__(cls)
        trace._adopt(table, name)
        return trace

    def _adopt(self, table: np.ndarray, name: str) -> None:
        """Validate a ``(7, n)`` table, sort it stably by cycle, freeze it."""
        _validate(table)
        table = table[:, np.argsort(table[0], kind="stable")]
        table.setflags(write=False)
        self.columns = table
        self.name = name

    def __len__(self) -> int:
        return self.columns.shape[1]

    @property
    def events(self) -> List[InjectionEvent]:
        """The rows as :class:`InjectionEvent` records (built per call)."""
        return list(map(InjectionEvent, *_python_columns(self.columns)))

    def __iter__(self) -> Iterator[InjectionEvent]:
        return iter(self.events)

    @property
    def duration(self) -> int:
        """Cycle of the last event (0 for an empty trace)."""
        return int(self.columns[0, -1]) if len(self) else 0

    def packets_by_core_type(self) -> "dict[CoreType, int]":
        """Event counts per core type (used by the Fig. 4 breakdown)."""
        counts = np.bincount(self.columns[3], minlength=len(_CORE_TYPES))
        return dict(zip(_CORE_TYPES, counts.tolist()))

    def check_routers(self, num_routers: int) -> None:
        """Reject a trace addressing a router outside ``0..num_routers-1``.

        Networks call this before cycle 0, so a trace built for a larger
        chip fails with the offending row instead of mid-run.
        """
        for index in (1, 2):
            ids = self.columns[index]
            if ids.size and (ids.min() < 0 or ids.max() >= num_routers):
                row = int(np.argmax((ids < 0) | (ids >= num_routers)))
                raise ValueError(
                    f"trace {self.name!r} row {row}: {COLUMNS[index]} "
                    f"{int(ids[row])} is outside the {num_routers}-router "
                    "network"
                )

    @staticmethod
    def merge(traces: Sequence["Trace"], name: str = "merged") -> "Trace":
        """Time-merge several traces into one (CPU + GPU benchmark pair).

        Rows are concatenated and stably sorted, so tied cycles keep
        the order of ``traces``.
        """
        table = np.concatenate(
            [trace.columns for trace in traces]
            or [np.empty((len(COLUMNS), 0), dtype=np.int64)],
            axis=1,
        )
        return Trace._from_table(table, name)

    # -- serialisation -------------------------------------------------------

    _HEADER = ",".join(COLUMNS)

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as a text file with a header line."""
        path = Path(path)
        with path.open("w") as fh:
            fh.write(f"# {self.name}\n")
            fh.write(self._HEADER + "\n")
            for e in self.events:
                fh.write(
                    f"{e.cycle},{e.source},{e.destination},"
                    f"{e.core_type.value},{e.packet_class.value},"
                    f"{e.cache_level.value},{e.size_flits}\n"
                )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace written by :meth:`save`.

        A malformed row (bad field count, non-integer, unknown label or
        any row the column validation rejects) raises ``ValueError``
        naming the file and the row.
        """
        path = Path(path)
        name = path.stem
        rows: List[List[int]] = []
        with path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    if line.startswith("# "):
                        name = line[2:]
                    continue
                if line == cls._HEADER:
                    continue
                try:
                    rows.append(_parse_row(line.split(",")))
                except ValueError as exc:
                    raise ValueError(
                        f"{path}: trace row {len(rows)}: {exc} in {line!r}"
                    ) from None
        table = np.array(rows, dtype=np.int64).reshape(-1, len(COLUMNS)).T
        try:
            return cls._from_table(table, name)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


class TraceCursor:
    """Streaming view over a trace for the cycle loop.

    ``pop_packets(cycle)`` returns the packets of every row whose time
    has come, in trace order, exactly once: a row is returned by the
    first call whose ``cycle`` reaches it and by no later call, so a
    caller stepping cycle-by-cycle and a caller that jumps straight to
    the same cycle observe identical batches (the array core's idle
    skipping relies on this boundary semantics).  Every engine injects
    through this one method; each :class:`Packet` is built when it is
    popped, from the columns converted to Python ints and enum members
    once, here.

    ``next_cycle()`` exposes the cycle of the next unpopped row — the
    trace's contribution to the array core's skip horizon.
    """

    __slots__ = ("_cycles", "_rows", "_index", "_count")

    def __init__(self, trace: Trace) -> None:
        cycle, *fields = _python_columns(trace.columns)
        self._cycles = cycle
        # Packet constructor arguments (creation cycle last), per row.
        self._rows = list(zip(*fields, cycle))
        self._index = 0
        self._count = len(cycle)

    @property
    def exhausted(self) -> bool:
        """True when every row has been popped."""
        return self._index >= self._count

    def next_cycle(self) -> Optional[int]:
        """Cycle of the next unpopped row (None once exhausted)."""
        index = self._index
        return self._cycles[index] if index < self._count else None

    def pop_packets(self, cycle: int) -> List[Packet]:
        """Packets of the rows with ``row cycle <= cycle`` not yet popped."""
        start = self._index
        if start >= self._count or self._cycles[start] > cycle:
            return []
        end = bisect_right(self._cycles, cycle, start)
        self._index = end
        return list(starmap(Packet, self._rows[start:end]))
