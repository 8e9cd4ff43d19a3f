"""Shared experiment infrastructure.

Every figure/table module exposes ``run(quick=True) -> ExperimentResult``.
``quick`` trades pair count and run length for wall-clock time (the full
evaluation sweeps all 16 test pairs of Table IV); both modes exercise
identical code paths.  Results are memoised in-process so that figures
sharing the same underlying sweep (e.g. Figs. 6, 7 and 8) simulate once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..config import SimulationConfig
from ..traffic.benchmarks import BenchmarkProfile, pair_name, test_pairs

Pair = Tuple[BenchmarkProfile, BenchmarkProfile]

#: Cycles used per mode (warm-up, measurement).
QUICK_CYCLES = (500, 8_000)
FULL_CYCLES = (1_000, 20_000)


@dataclass
class ExperimentResult:
    """Tabular output of one experiment: named rows of named values."""

    name: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        """Append one result row."""
        self.rows.append(values)

    def column(
        self, key: str, missing: str = "raise", fill: object = None
    ) -> List[object]:
        """All values of one column, row order preserved.

        Partial columns are an explicit choice, not a silent drop:

        * ``missing="raise"`` (default) — raise :class:`KeyError` naming
          the rows that lack ``key``;
        * ``missing="drop"`` — skip rows without the key;
        * ``missing="fill"`` — substitute ``fill`` for absent values.
        """
        if missing not in ("raise", "drop", "fill"):
            raise ValueError(
                f"missing must be 'raise', 'drop' or 'fill', not {missing!r}"
            )
        if missing == "raise":
            absent = [i for i, row in enumerate(self.rows) if key not in row]
            if absent:
                raise KeyError(
                    f"column {key!r} missing from rows {absent} of "
                    f"{self.name!r}; pass missing='drop' or 'fill' to "
                    "aggregate a partial column"
                )
            return [row[key] for row in self.rows]
        if missing == "drop":
            return [row[key] for row in self.rows if key in row]
        return [row.get(key, fill) for row in self.rows]

    def mean(self, key: str, missing: str = "raise") -> float:
        """Mean of a numeric column (``missing`` as in :meth:`column`)."""
        values = [
            float(v) for v in self.column(key, missing=missing) if v is not None
        ]
        if not values:
            raise KeyError(f"no values for column {key!r}")
        return sum(values) / len(values)

    def format_table(self) -> str:
        """Render the rows as an aligned text table.

        Columns are the union over all rows (first-seen order), so
        heterogeneous row shapes — e.g. a concatenation of several
        studies — still render every value.
        """
        if not self.rows:
            return f"{self.name}: (no rows)"
        keys: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in keys:
                    keys.append(key)
        header = " | ".join(keys)
        lines = [self.name, header, "-" * len(header)]
        for row in self.rows:
            cells = []
            for key in keys:
                value = row.get(key, "")
                if isinstance(value, float):
                    cells.append(f"{value:.4g}")
                else:
                    cells.append(str(value))
            lines.append(" | ".join(cells))
        lines.extend(self.notes)
        return "\n".join(lines)


def experiment_pairs(quick: bool = True) -> List[Pair]:
    """The benchmark pairs an experiment sweeps.

    Full mode uses all 16 Table IV test pairs; quick mode uses the
    diagonal (each test benchmark exactly once).
    """
    pairs = test_pairs()
    if not quick:
        return pairs
    return [pairs[i * 4 + i] for i in range(4)]


def simulation_config(quick: bool = True) -> SimulationConfig:
    """Run-length settings for the mode."""
    warmup, measure = QUICK_CYCLES if quick else FULL_CYCLES
    return SimulationConfig(warmup_cycles=warmup, measure_cycles=measure)


_RESULT_CACHE: Dict[object, object] = {}


def cached(key: object, compute: Callable[[], object]) -> object:
    """Process-wide memoisation for expensive sweeps."""
    if key not in _RESULT_CACHE:
        _RESULT_CACHE[key] = compute()
    return _RESULT_CACHE[key]


def clear_cache() -> None:
    """Drop all memoised sweeps (tests use this for isolation)."""
    _RESULT_CACHE.clear()


def describe_pair(pair: Pair) -> str:
    """Display name of a pair (e.g. ``FA+DCT``)."""
    return pair_name(*pair)
