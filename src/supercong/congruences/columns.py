"""One family's rows at one prime, in columns, and the row type that indexing them gives.

A CaseBlock is what a catalog family's cases(p) gives and what a report
holds. The code that computes a block lays it out: its runs of params, its
lhs and rhs residues, the indices of its skipped rows and its notes. The
block takes its verdicts once, at construction: lhs == rhs, and None at the
skips. The engine then stamps the block's family, p and modulus and stores
its residues compactly. VerificationReport is the one row type: what
indexing or iterating a block gives. No row is held as an object. A run
stores only where it stops; _spans, the one walk over the runs, gives each
run's start too. head(stop), its first rows, is the engine's fail-fast cut.
"""

from __future__ import annotations

from array import array
from dataclasses import InitVar, dataclass, field
from operator import eq
from typing import Iterator, Sequence


@dataclass(slots=True)
class VerificationReport:
    """One verified (or skipped) case row, as report.cases gives it."""

    family: str
    p: int
    params: dict
    modulus: int
    lhs: int
    rhs: int
    passed: bool | None  # None marks a skipped row
    note: str | None = None

    @property
    def skipped(self) -> bool:
        return self.passed is None


@dataclass(slots=True)
class CaseBlock:
    """The rows of one family at one prime, in columns.

    runs holds [keys, stop, columns] per run of consecutive rows with the same
    param keys: the run ends before row stop, keys is the tuple of those
    keys, and columns holds one value list (or int64 array) per key. lhs and
    rhs are lists or int64 arrays of the residues, canonical in [0, p^K), K
    the family's modulus_power; a skipped row's are 0. skips lists
    the skipped rows, and notes maps a row index to its note. verdicts is
    True, False or None (skipped) per row: lhs == rhs with None at the skips,
    unless given. counts is (passed, failed, skipped). family, p and modulus
    are None until the engine stamps them, and stay None on the identity
    suite's own blocks (those of I8-I11 are the engine's). Indexing or
    iterating gives VerificationReport rows, each found through _spans, and
    head(stop) the block of the first stop rows.
    """

    runs: list
    lhs: list | array
    rhs: list | array
    skips: InitVar[Sequence[int]] = ()
    notes: dict[int, str] = field(default_factory=dict)
    verdicts: list | None = None
    family: str | None = None
    p: int | None = None
    modulus: int | None = None
    counts: tuple[int, int, int] = field(init=False)

    def __post_init__(self, skips: Sequence[int]) -> None:
        if self.verdicts is None:
            self.verdicts = list(map(eq, self.lhs, self.rhs))
            for i in skips:
                self.verdicts[i] = None
        verdicts = self.verdicts
        self.counts = (verdicts.count(True), verdicts.count(False), verdicts.count(None))

    def __len__(self) -> int:
        return len(self.verdicts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]  # a negative index counts from the end; raises IndexError
        for keys, start, stop, columns in _spans(self.runs):
            if i < stop:
                return _row(self, i, dict(zip(keys, [column[i - start] for column in columns])))

    def __iter__(self) -> Iterator[VerificationReport]:
        return (_row(self, i, params) for i, params in _params(self.runs))

    def head(self, stop: int) -> CaseBlock:
        """The block's first stop rows, with its columns sliced."""
        runs = []
        for keys, start, end, columns in _spans(self.runs):
            if start >= stop:
                break
            end = min(end, stop)
            runs.append([keys, end, tuple(column[: end - start] for column in columns)])
        notes = {i: note for i, note in self.notes.items() if i < stop}
        lhs, rhs, verdicts = self.lhs[:stop], self.rhs[:stop], self.verdicts[:stop]
        return CaseBlock(runs, lhs, rhs, (), notes, verdicts, self.family, self.p, self.modulus)

    def __reduce__(self):
        # Pickled as constructor arguments, one call on load; counts is taken
        # again there. A slots dataclass pickles field by field otherwise.
        args = self.runs, self.lhs, self.rhs, (), self.notes, self.verdicts, self.family, self.p, self.modulus
        return CaseBlock, args


def _row(block: CaseBlock, i: int, params: dict) -> VerificationReport:
    """Row i of the block, with its params rebuilt by the caller."""
    return VerificationReport(
        block.family, block.p, params, block.modulus, block.lhs[i], block.rhs[i], block.verdicts[i], block.notes.get(i)
    )


def _spans(runs: list) -> Iterator[tuple[tuple, int, int, tuple]]:
    """(keys, start, stop, columns) per run, in order: the run holds rows [start, stop)."""
    start = 0
    for keys, stop, columns in runs:
        yield keys, start, stop, columns
        start = stop


def _params(runs: list) -> Iterator[tuple[int, dict]]:
    """(i, params) per row of the runs, in order."""
    for keys, start, stop, columns in _spans(runs):
        for i, *values in zip(range(start, stop), *columns):
            yield i, dict(zip(keys, values))
