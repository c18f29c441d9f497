"""A family's rows at one prime, in columns: what a catalog family gives and the engine wraps.

CaseColumns has the shape of the engine's CaseBlock, so the engine takes a
family's columns as they are. The per-shift, sequence and lemma families lay
theirs out directly; a family of a few rows writes each row as a tuple of
FamilyCase's fields and packs them with _columns. FamilyCase is the public row
type: what iterating a CaseColumns gives.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


@dataclass(slots=True)
class FamilyCase:
    """One row of a CaseColumns; lhs and rhs are canonical residues in [0, p^K), K the family's modulus_power."""

    params: dict
    lhs: int
    rhs: int
    skipped: bool = False
    note: str | None = None

    @property
    def passed(self) -> bool | None:
        """lhs == rhs, or None on a skipped row, as on VerificationReport."""
        return None if self.skipped else self.lhs == self.rhs


@dataclass(slots=True)
class CaseColumns:
    """A family's rows at one prime, in the columns of an engine CaseBlock.

    runs holds [keys, stop, columns] per run of consecutive rows with the same
    param keys: the run ends before row stop, and columns holds one value list
    (or int64 array) per key. lhs and rhs are the residues (lists, or int64
    arrays), skips the indices of the skipped rows (whose residues are 0), and
    notes maps a row index to its note. Iterating gives the FamilyCase rows.
    """

    runs: list
    lhs: list[int] | array
    rhs: list[int] | array
    skips: Sequence[int] = ()
    notes: dict[int, str] = field(default_factory=dict)

    def __iter__(self) -> Iterator[FamilyCase]:
        skips, notes = set(self.skips), self.notes
        for i, params in _params(self.runs):
            yield FamilyCase(params, self.lhs[i], self.rhs[i], i in skips, notes.get(i))


def _params(runs: list) -> Iterator[tuple[int, dict]]:
    """(i, params) per row of the runs, in order."""
    start = 0
    for keys, stop, columns in runs:
        for i, *values in zip(range(start, stop), *columns):
            yield i, dict(zip(keys, values))
        start = stop


def _runs(params: Iterable[dict]) -> list:
    """[keys, stop, columns] per run of consecutive params with the same keys, one key tuple per key set."""
    runs: list = []
    shared: dict[tuple, tuple] = {}
    keys = columns = None
    for i, row in enumerate(params):
        row_keys = tuple(row)
        if row_keys != keys:
            keys = shared.setdefault(row_keys, row_keys)
            columns = tuple([] for _ in keys)
            runs.append([keys, i, columns])
        runs[-1][1] = i + 1
        for column, value in zip(columns, row.values()):
            column.append(value)
    return runs


def _columns(rows: Iterable[tuple]) -> CaseColumns:
    """The columns of a few rows, each a tuple of FamilyCase's fields (params, lhs, rhs, skipped, note)."""
    rows = list(rows)
    return CaseColumns(
        _runs(row[0] for row in rows),
        [row[1] for row in rows],
        [row[2] for row in rows],
        [i for i, row in enumerate(rows) if row[3]],
        {i: row[4] for i, row in enumerate(rows) if row[4] is not None},
    )


def _skip(params: dict, note: str) -> tuple:
    return params, 0, 0, True, note
