"""Suite runner: evaluates catalog families over a prime range.

Work is scheduled one job per prime (so per-prime tables are built once), on
at most one worker per prime and per CPU, this process included. It runs
inline when that leaves one, and also wherever os.fork or os.memfd_create is
missing, that is on every platform but Linux. Otherwise this process forks
the other workers itself, as helpers, and never imports multiprocessing or
concurrent.futures. The primes not claimed yet form a window, two int64
counters in a memfd shared across the fork and moved under fcntl.lockf: this
process claims primes from its bottom and each helper from its top, so they
meet where their costs balance. Each helper pickles what it evaluated into a
memfd of its own, its spool, which never blocks a writer the way a full pipe
does; this process loads the spools once its own claims run out and every
helper has exited. What one family gives at one prime is one CaseBlock, in
columns rather than one object per row: the family, p and modulus once,
where the modulus is p^K with K the catalog entry's modulus_power; one
param-key tuple shared by every row with those keys, and a value column per
key; the lhs and rhs residues (int64 arrays where they fit) and the
verdicts; the pass/fail/skip counts, taken once per block; and the notes of
the rows that have one. A family hands over its rows at a prime as
CaseColumns, already in that shape, and _block wraps its runs and notes as
they are, takes the verdicts in one pass and stores the residues compactly;
no row becomes an object. A block crosses a spool pickled as its constructor
arguments. A SuiteReport keeps the blocks in (family, prime) order. Its
summary, its failures and the report writers read the blocks, and
report.cases builds VerificationReport rows from them on demand. Rows given
as a report's cases, or assigned into that list, are packed back into blocks
by _pack. A time budget and fail-fast both act per prime, read in prime
order: the primes they skip become marker rows, so the rows never depend on
the scheduling; the fail-fast cut slices its block's columns. A run that
stops, by fail-fast, the budget, an error or an interrupt, kills every helper
still running and reads nothing any helper spooled.
"""

from __future__ import annotations

import gc
import os
import pickle
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import groupby, islice
from operator import attrgetter, eq
from time import perf_counter
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from ..padic import odd_prime
from .columns import CaseColumns, _columns, _params, _skip
from .families import CongruenceFamily, family_ids, get_family

__all__ = ["CaseBlock", "SuiteReport", "VerificationReport", "run_suite", "verify_family_case"]

DEFAULT_SWEEP_CAP = 100
_BUDGET_NOTE = "not evaluated: time budget exhausted"
_STOP_NOTE = "not evaluated: stopped after earlier failure"
# A pooled run forks its helpers and shares memfds with them, which only Linux
# offers; elsewhere every run takes the inline path.
_FORKS = hasattr(os, "fork") and hasattr(os, "memfd_create")


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


class _Helpers:
    """The helper processes of a pooled run, forked when made and killed on exit.

    The window of prime indices [lo, hi) that no process has claimed yet is
    two int64s in a memfd; a claim moves one end under fcntl.lockf, a lock
    the kernel drops if the process holding it dies. Each helper claims from
    the top until the ends meet, the time budget is spent or a prime raises,
    and pickles (p, blocks), or (p, exception) before it stops, into its own
    memfd spool. Leaving the with block kills and reaps every helper not
    reaped yet, so no child outlives the run.
    """

    def __init__(
        self,
        count: int,
        primes: Sequence[int],
        evaluate: Callable[[int], dict[str, CaseBlock]],
        over_budget: Callable[[], bool],
    ) -> None:
        self.window = os.memfd_create("supercong-window")
        os.write(self.window, array("q", (0, len(primes))))
        self.spools: list[int] = []
        self.live: list[int] = []  # the pids not reaped yet
        gc.freeze()  # a helper's collections then skip every object it inherits
        try:
            for _ in range(count):
                self.spools.append(os.memfd_create("supercong-spool"))
                pid = os.fork()
                if pid == 0:
                    self._serve(self.spools[-1], primes, evaluate, over_budget)
                self.live.append(pid)
        except BaseException:
            self.close()
            raise
        finally:
            gc.unfreeze()

    def __enter__(self) -> _Helpers:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Kill and reap every helper not reaped yet, and close the memfds."""
        import signal

        for pid in self.live:
            os.kill(pid, signal.SIGKILL)
        for pid in self.live:
            os.waitpid(pid, 0)
        self.live.clear()
        for fd in (self.window, *self.spools):
            os.close(fd)

    def claim(self, top: bool = False) -> int | None:
        """The next index from the top or the bottom of the window, or None once its ends meet."""
        import fcntl

        fcntl.lockf(self.window, fcntl.LOCK_EX)
        try:
            lo, hi = array("q", os.pread(self.window, 16, 0))
            if lo == hi:
                return None
            index = hi - 1 if top else lo
            os.pwrite(self.window, array("q", (lo, index) if top else (index + 1, hi)), 0)
            return index
        finally:
            fcntl.lockf(self.window, fcntl.LOCK_UN)

    def _serve(self, spool: int, primes: Sequence[int], evaluate, over_budget) -> NoReturn:
        """A helper's whole life: it exits here and never returns into the caller's stack."""
        code = 1
        try:
            with open(spool, "wb", closefd=False) as out:
                while not over_budget() and (i := self.claim(top=True)) is not None:
                    try:
                        item = primes[i], evaluate(primes[i])
                    except Exception as exc:
                        item = primes[i], _portable(exc, primes[i])
                    pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)
                    if isinstance(item[1], Exception):
                        break
            code = 0
        except Exception:
            import traceback

            traceback.print_exc()
        finally:
            os._exit(code)

    def results(self) -> dict[int, dict[str, CaseBlock] | Exception]:
        """What the helpers spooled, by prime, once every one has exited.

        A helper that ended any other way than by exiting 0 raises RuntimeError.
        """
        while self.live:
            pid, status = os.waitpid(self.live[0], 0)
            self.live.remove(pid)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"helper process {pid} ended with exit code {code}")
        spooled = {}
        for spool in self.spools:
            size = os.fstat(spool).st_size
            os.lseek(spool, 0, os.SEEK_SET)
            with open(spool, "rb", closefd=False) as data:
                while data.tell() < size:
                    p, value = pickle.load(data)
                    spooled[p] = value
        return spooled


def _portable(exc: Exception, p: int) -> Exception:
    """exc, or a RuntimeError carrying its repr when exc does not survive a
    pickle round trip, with a note holding where it was raised."""
    import traceback

    note = f"raised at p = {p} in a helper process:\n" + "".join(traceback.format_tb(exc.__traceback__))
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    except Exception:
        exc = RuntimeError(repr(exc))
    exc.__notes__ = [*getattr(exc, "__notes__", ()), note]  # exc.add_note(note), also before Python 3.11
    return exc


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
    and per CPU, and none but this one when that leaves one or the platform
    lacks os.fork or os.memfd_create (all but Linux). Otherwise this process
    forks workers - 1 helpers, which claim primes from the top of a shared
    window while this process claims them from the bottom, and check the
    budget before each claim as it does. Once its own claims run out, this
    process waits for every helper and loads what each spooled. Results are
    read and stopped in prime order, so the rows do not depend on which
    process evaluated a prime, and an exception a helper raised is raised
    when its prime is read, with its type and message, or as a RuntimeError
    carrying its repr when it does not pickle. A helper that dies raises
    RuntimeError. When the loop ends, by a stop, a budget stop, an error, an
    interrupt or its last prime, every helper still running is killed and
    reaped before this returns; nothing a stopped run's helpers spooled is
    read.
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
    workers = min(parallelism, len(prime_list), os.cpu_count() or 1) if _FORKS else 1

    def evaluate(p: int) -> dict[str, CaseBlock]:
        return _eval_prime(ids, p, sweep_cap)

    def over_budget() -> bool:
        return time_limit is not None and perf_counter() - t0 > time_limit

    evaluated: list[dict[str, CaseBlock]] = []  # by prime, up to a stop
    stopped = False
    with _Helpers(workers - 1, prime_list, evaluate, over_budget) if workers > 1 else nullcontext() as helpers:
        spooled = None  # loaded once this process's claims run out
        for p in prime_list:
            if stopped or over_budget():
                break
            if spooled is None and (helpers is None or helpers.claim() is not None):
                blocks = evaluate(p)
            else:
                if spooled is None:
                    spooled = helpers.results()
                blocks = spooled[p]
                if isinstance(blocks, Exception):
                    raise blocks
            evaluated.append(blocks)
            stopped = fail_fast and any(block.counts[1] for block in blocks.values())
    note = _STOP_NOTE if stopped else _BUDGET_NOTE
    results = [*evaluated, *(_skip_prime(ids, p, note) for p in prime_list[len(evaluated) :])]

    for block in (results[i][fid] for fid in selected for i in range(len(prime_list))):
        if fail_fast and block.counts[1]:
            # the report ends at its first failing row, which may fall inside this block
            report.blocks.append(_head(block, block.verdicts.index(False) + 1))
            break
        report.blocks.append(block)

    report.elapsed = perf_counter() - t0
    return report
