"""Suite runner: evaluates catalog families over a prime range.

Work is scheduled one job per prime (so per-prime tables are built once), on
at most one worker per prime and per CPU, this process included. It runs
inline when that leaves one, and then never imports the pool machinery
(multiprocessing and concurrent.futures.process). Otherwise a pool of the
other workers takes the primes from the top of the range while this process
evaluates them from the bottom, and the two meet where their costs balance;
blocks come back from the pool pickled as constructor arguments. What one
family gives at one prime is one CaseBlock, in columns rather than one object
per row: the family, p and modulus once, where the modulus is p^K with K the
catalog entry's modulus_power; one param-key tuple shared by every row with
those keys, and a value column per key; the lhs and rhs residues (int64
arrays where they fit) and the verdicts; the pass/fail/skip counts, taken
once per block; and the notes of the rows that have one. A family hands over
its rows at a prime as CaseColumns, already in that shape, and _block wraps
its runs and notes as they are, takes the verdicts in one pass and stores the
residues compactly; no row becomes an object. A SuiteReport keeps the blocks
in (family, prime) order. Its summary, its failures and the report writers
read the blocks, and report.cases builds VerificationReport rows from them on
demand. Rows given as a report's cases, or assigned into that list, are
packed back into blocks by _pack. A time budget and fail-fast both act per
prime, read in prime order: the primes they skip become marker rows, so the
rows never depend on the scheduling; the fail-fast cut slices its block's
columns. A run that stops, by fail-fast, the budget or an error, cancels
every call the pool has not queued yet; it still waits for the running and
queued ones, at most 2 * workers - 1 primes, taken from the top of the range,
and discards them.
"""

from __future__ import annotations

import os
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import groupby, islice
from operator import attrgetter, eq
from time import perf_counter
from typing import Iterable, Iterator, Sequence

from ..padic import odd_prime
from .columns import CaseColumns, _columns, _params, _skip
from .families import CongruenceFamily, family_ids, get_family

__all__ = ["CaseBlock", "SuiteReport", "VerificationReport", "run_suite", "verify_family_case"]

DEFAULT_SWEEP_CAP = 100
_BUDGET_NOTE = "not evaluated: time budget exhausted"
_STOP_NOTE = "not evaluated: stopped after earlier failure"


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
    param keys: the run ends before row stop, keys is the block's one tuple
    for that key set, and columns holds one value list (or int64 array) per
    key. lhs and rhs are lists or int64 arrays of the residues. verdicts is
    True, False or None (skipped) per row, counts is (passed, failed,
    skipped), and notes maps a row index to its note. Indexing or iterating
    gives VerificationReport rows.
    """

    family: str
    p: int
    modulus: int
    runs: list
    lhs: list | array
    rhs: list | array
    verdicts: list
    notes: dict[int, str]
    counts: tuple[int, int, int] = field(init=False)

    def __post_init__(self) -> None:
        verdicts = self.verdicts
        self.counts = (verdicts.count(True), verdicts.count(False), verdicts.count(None))

    def __len__(self) -> int:
        return len(self.verdicts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]  # a negative index counts from the end; raises IndexError
        start = 0
        for keys, stop, columns in self.runs:
            if i < stop:
                return _row(self, i, dict(zip(keys, [column[i - start] for column in columns])))
            start = stop

    def __iter__(self) -> Iterator[VerificationReport]:
        return (_row(self, i, params) for i, params in _params(self.runs))

    def __reduce__(self):
        # Pickled as constructor arguments, one call on load; counts is taken
        # again there. A slots dataclass pickles field by field otherwise.
        return CaseBlock, (self.family, self.p, self.modulus, self.runs, self.lhs, self.rhs, self.verdicts, self.notes)


class SuiteReport:
    """The blocks of one run, with its config, start time and elapsed seconds.

    Rows given as cases are packed into one block per stretch of consecutive
    rows with the same family, p and modulus.
    """

    __slots__ = ("config", "started", "elapsed", "blocks")

    def __init__(
        self,
        config: dict,
        started: str,
        elapsed: float = 0.0,
        cases: Iterable[VerificationReport] = (),
        *,
        blocks: Iterable[CaseBlock] = (),
    ) -> None:
        self.config = config
        self.started = started
        self.elapsed = elapsed
        self.blocks = [*blocks, *_pack_rows(cases)]

    @property
    def cases(self) -> CaseRows:
        """Every row, rebuilt from the blocks on each access."""
        return CaseRows(self)

    def counts(self) -> tuple[int, int, int]:
        """(passed, failed, skipped), summed over the blocks' counts."""
        passed, failed, skipped = map(sum, zip((0, 0, 0), *(block.counts for block in self.blocks)))
        return passed, failed, skipped

    @property
    def passed(self) -> int:
        return self.counts()[0]

    @property
    def failed(self) -> int:
        return self.counts()[1]

    @property
    def skipped(self) -> int:
        return self.counts()[2]

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def failures(self, limit: int | None = None) -> list[VerificationReport]:
        """The failing rows in report order, at most limit of them."""
        rows = (
            block[i]
            for block in self.blocks
            if block.counts[1]
            for i, verdict in enumerate(block.verdicts)
            if verdict is False
        )
        return list(islice(rows, limit))


class CaseRows(list):
    """The rows of a report, as report.cases builds them from its blocks.

    Assigning to an index or a slice writes back: the report's blocks are
    packed again from the rows. Any other change stays in this list.
    """

    def __init__(self, report: SuiteReport) -> None:
        super().__init__(row for block in report.blocks for row in block)
        self.report = report

    def __setitem__(self, index, value) -> None:
        super().__setitem__(index, value)
        self.report.blocks = _pack_rows(self)


def _row(block: CaseBlock, i: int, params: dict) -> VerificationReport:
    """Row i of the block, with its params rebuilt by the caller."""
    return VerificationReport(
        block.family, block.p, params, block.modulus, block.lhs[i], block.rhs[i], block.verdicts[i], block.notes.get(i)
    )


def _pack_rows(rows: Iterable[VerificationReport]) -> list[CaseBlock]:
    """One block per stretch of consecutive rows with the same family, p and modulus."""
    stretches = groupby(rows, attrgetter("family", "p", "modulus"))
    return [_pack(family, p, modulus, list(stretch)) for (family, p, modulus), stretch in stretches]


def _pack(family: str, p: int, modulus: int, rows: list[VerificationReport]) -> CaseBlock:
    """One block from rows, in their order: their columns by _columns, their verdicts as given."""
    cols = _columns((r.params, r.lhs, r.rhs, r.skipped, r.note) for r in rows)
    verdicts = [r.passed for r in rows]
    return CaseBlock(family, p, modulus, cols.runs, _compact(cols.lhs), _compact(cols.rhs), verdicts, cols.notes)


def _compact(values: list) -> array | list:
    """values as an int64 array when each is an int that fits, else the list itself.

    An int64 holds a residue in 8 bytes, where a list holds a pointer to a
    28-32 byte int object; most residues mod p^2 or p^3 are too large for
    the cached small ints.
    """
    if type(values) is array:
        return values
    if {*map(type, values)} <= {int}:
        try:
            return array("q", values)
        except OverflowError:
            pass
    return values


def _block(family: CongruenceFamily, p: int, cases: CaseColumns) -> CaseBlock:
    """The block of what family.cases(p) gave: its runs and notes as they are, the
    verdicts lhs == rhs with None at the skips, and each side through _compact."""
    verdicts = list(map(eq, cases.lhs, cases.rhs))
    for i in cases.skips:
        verdicts[i] = None
    modulus = p**family.modulus_power
    return CaseBlock(family.id, p, modulus, cases.runs, _compact(cases.lhs), _compact(cases.rhs), verdicts, cases.notes)


def _marker(family: CongruenceFamily, p: int, params: dict, note: str) -> CaseBlock:
    return _block(family, p, _columns([_skip(params, note)]))


def _not_applicable(family: CongruenceFamily, p: int) -> CaseBlock:
    return _block(family, p, CaseColumns([], [], []))


def _head(block: CaseBlock, stop: int) -> CaseBlock:
    """The block's first stop rows, with its columns sliced."""
    runs, start = [], 0
    for keys, end, columns in block.runs:
        if start >= stop:
            break
        end = min(end, stop)
        runs.append([keys, end, tuple(column[: end - start] for column in columns)])
        start = end
    notes = {i: note for i, note in block.notes.items() if i < stop}
    lhs, rhs, verdicts = block.lhs[:stop], block.rhs[:stop], block.verdicts[:stop]
    return CaseBlock(block.family, block.p, block.modulus, runs, lhs, rhs, verdicts, notes)


def verify_family_case(family_id: str, p: int, *, sweep_cap: int | None = None) -> CaseBlock:
    """The block of one family at one prime (empty when not applicable)."""
    family = get_family(family_id)
    odd_prime(p)  # raises InvalidPrime
    if not family.applies(p):
        return _not_applicable(family, p)
    if family.heavy and sweep_cap is not None and p > sweep_cap:
        note = f"heavy family capped at p <= {sweep_cap}; pass --sweep-cap to raise"
        return _marker(family, p, {"sweep_cap": sweep_cap}, note)
    return _block(family, p, family.cases(p))


def _eval_prime(ids: tuple[str, ...], p: int, sweep_cap: int) -> dict[str, CaseBlock]:
    return {fid: verify_family_case(fid, p, sweep_cap=sweep_cap) for fid in ids}


def _skip_prime(ids: tuple[str, ...], p: int, note: str) -> dict[str, CaseBlock]:
    families = [get_family(fid) for fid in ids]
    return {fam.id: _marker(fam, p, {}, note) if fam.applies(p) else _not_applicable(fam, p) for fam in families}


def run_suite(
    primes: Sequence[int],
    families: Sequence[str] | None = None,
    *,
    parallelism: int = 1,
    fail_fast: bool = False,
    time_limit: float | None = None,
    sweep_cap: int = DEFAULT_SWEEP_CAP,
) -> SuiteReport:
    """Verify the selected families at every prime given.

    time_limit is a soft wall-clock budget in seconds, checked before each
    prime. fail_fast leaves every prime after the first one with a failing
    row unevaluated, then cuts the report after its first failing row. The
    primes either one skips appear as marker rows, and the exit verdict
    reflects only what was actually evaluated. parallelism is an upper
    bound on the processes, this one included: at most one worker per prime
    and per CPU, and no pool when that leaves one. The pool of workers - 1
    processes is handed the primes in descending order, and this process
    walks them in ascending order, evaluating each one whose call it can
    still cancel and reading the pool's result for the others. Results are
    read and stopped in prime order, so the rows do not depend on which
    process evaluated a prime. When the loop ends, by a stop, a budget stop,
    an error or its last prime, every call not yet taken is cancelled before
    the pool shuts down. A pooled run still finishes the pool's running and
    queued calls, which cancel() cannot recall: at most 2 * workers - 1
    primes, taken from the top of the range, because each of the
    max_workers processes runs one call while ProcessPoolExecutor queues
    max_workers + EXTRA_QUEUED_CALLS (1) more. After a stop or an error
    these are the largest primes not yet read, not the next ones; their
    results are discarded, and an error propagates once they finish.
    """
    selected = list(families) if families is not None else family_ids()
    for fid in selected:
        get_family(fid)  # raises UnknownId early
    prime_list = sorted({int(p) for p in primes})
    for p in prime_list:
        odd_prime(p)  # raises InvalidPrime early
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    config = {
        "primes": prime_list,
        "families": selected,
        "parallelism": parallelism,
        "fail_fast": fail_fast,
        "time_limit": time_limit,
        "sweep_cap": sweep_cap,
    }
    report = SuiteReport(config=config, started=started)
    t0 = perf_counter()

    ids = tuple(selected)
    results: dict[int, dict[str, CaseBlock]] = {}
    # With fork, the pool starts all max_workers processes at once.
    workers = min(parallelism, len(prime_list), os.cpu_count() or 1)
    pooled = workers > 1
    if pooled:  # only then, so that a run without a pool never imports multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers - 1) if pooled else nullcontext() as pool:
        # The pool takes the primes from the top; a call it has not queued
        # yet cancels, and this process evaluates that prime itself.
        futures = {p: pool.submit(_eval_prime, ids, p, sweep_cap) for p in reversed(prime_list)} if pooled else {}
        stopped = False
        try:
            for p in prime_list:
                if stopped or (time_limit is not None and perf_counter() - t0 > time_limit):
                    results[p] = _skip_prime(ids, p, _STOP_NOTE if stopped else _BUDGET_NOTE)
                    continue
                taken = pooled and not futures[p].cancel()
                results[p] = futures[p].result() if taken else _eval_prime(ids, p, sweep_cap)
                stopped = fail_fast and any(block.counts[1] for block in results[p].values())
        finally:
            # however the loop ends, before the pool waits for its calls: a call it has
            # not queued yet cancels, and a result that ran anyway is never read
            for future in futures.values():
                future.cancel()

    for block in (results[p][fid] for fid in selected for p in prime_list):
        if fail_fast and block.counts[1]:
            # the report ends at its first failing row, which may fall inside this block
            report.blocks.append(_head(block, block.verdicts.index(False) + 1))
            break
        report.blocks.append(block)

    report.elapsed = perf_counter() - t0
    return report
