"""Suite runner: evaluates catalog families over a prime range.

Work is scheduled one job per prime (so per-prime tables are built once), on
at most one worker per prime and per CPU this process may run on (its affinity
mask), this process included. It runs inline when that leaves one, and also
wherever os.fork or os.memfd_create is missing, that is on every platform but
Linux. Otherwise this process forks the other workers itself, as helpers, and
never imports multiprocessing or concurrent.futures. Each helper starts on a
CPU other than this process's, so the two do not share one CPU for a whole
short run; it moves there and at once gets back the mask it inherited, so no
process stays pinned. The primes not claimed yet form a window, two int64
counters in a memfd shared across the fork and moved under fcntl.lockf: this
process claims primes from its bottom and each helper from its top, so they
meet where their costs balance. Each helper pickles what it evaluated into a
memfd of its own, its spool, which never blocks a writer the way a full pipe
does; this process loads the spools once its own claims run out and every
helper has exited. What one family gives at one prime is one CaseBlock
(columns.py), in columns rather than one object per row: one param-key tuple
shared by every row with those keys and a value column per key, the lhs and
rhs residues, the verdicts the family's block took at construction, the
pass/fail/skip counts and the notes of the rows that have one. The engine
only stamps the block's family, p and modulus, p^K with K the catalog
entry's modulus_power, and stores its residues as int64 arrays where they
fit; no row becomes an object. A block crosses a spool pickled as its
constructor arguments. A SuiteReport keeps the blocks in (family, prime)
order. Its summary, its failures and the report writers read the blocks;
report.cases builds the VerificationReport rows from them when first read
and keeps that list, which nothing else reads. A time budget and fail-fast
both act per prime, read in prime order: the primes they skip become marker
rows, so the rows never depend on the scheduling; the fail-fast cut is the
head (CaseBlock.head) of the block that holds the first failing row. A run
that stops, by fail-fast, the budget, an error or an interrupt, kills every
helper still running and reads nothing any helper spooled.
"""

from __future__ import annotations

import gc
import os
import pickle
from array import array
from contextlib import nullcontext
from datetime import datetime, timezone
from itertools import islice
from time import perf_counter
from typing import Callable, Iterable, NoReturn, Sequence

from ..padic import odd_prime
from .columns import CaseBlock, VerificationReport
from .columns import _row  # noqa: F401  (perfbench/tracing.py wraps engine._row)
from .families import CongruenceFamily, family_ids, get_family

__all__ = ["SuiteReport", "run_suite", "verify_family_case"]

DEFAULT_SWEEP_CAP = 100
_BUDGET_NOTE = "not evaluated: time budget exhausted"
_STOP_NOTE = "not evaluated: stopped after earlier failure"
# A pooled run forks its helpers and shares memfds with them, which only Linux
# offers; elsewhere every run takes the inline path.
_FORKS = hasattr(os, "fork") and hasattr(os, "memfd_create")


class SuiteReport:
    """The blocks of one run, with its config, start time and elapsed seconds."""

    __slots__ = ("config", "started", "elapsed", "blocks", "_cases")

    def __init__(self, config: dict, started: str, elapsed: float = 0.0, blocks: Iterable[CaseBlock] = ()) -> None:
        self.config = config
        self.started = started
        self.elapsed = elapsed
        self.blocks = list(blocks)
        self._cases = None

    @property
    def cases(self) -> list[VerificationReport]:
        """Every row, built from the blocks when first read and kept.

        An edit to this list stays in it: the counts, the failures and the
        report writers read the blocks. The list is a snapshot of the blocks
        at its first read; a block added to self.blocks later is not in it.
        """
        if self._cases is None:
            self._cases = [row for block in self.blocks for row in block]
        return self._cases

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


def _stamp(block: CaseBlock, family: str, p: int, modulus: int) -> CaseBlock:
    """The block, with its family, p and modulus set and each side through _compact."""
    block.family, block.p, block.modulus = family, p, modulus
    block.lhs, block.rhs = _compact(block.lhs), _compact(block.rhs)
    return block


def _block(family: CongruenceFamily, p: int, block: CaseBlock) -> CaseBlock:
    """A block of the family at p, stamped with its id, p and modulus p^K."""
    return _stamp(block, family.id, p, p**family.modulus_power)


def _marker(family: CongruenceFamily, p: int, note: str, **params) -> CaseBlock:
    """The family's one row at p, skipped with the note."""
    run = [tuple(params), 1, tuple([value] for value in params.values())]
    return _block(family, p, CaseBlock([run], [0], [0], [0], {0: note}))


def _not_applicable(family: CongruenceFamily, p: int) -> CaseBlock:
    return _block(family, p, CaseBlock([], [], []))


def verify_family_case(family_id: str, p: int, *, sweep_cap: int | None = None) -> CaseBlock:
    """The block of one family at one prime (empty when not applicable)."""
    family = get_family(family_id)
    odd_prime(p)  # raises InvalidPrime
    if not family.applies(p):
        return _not_applicable(family, p)
    if family.heavy and sweep_cap is not None and p > sweep_cap:
        note = f"heavy family capped at p <= {sweep_cap}; pass --sweep-cap to raise"
        return _marker(family, p, note, sweep_cap=sweep_cap)
    return _block(family, p, family.cases(p))


def _eval_prime(ids: tuple[str, ...], p: int, sweep_cap: int) -> dict[str, CaseBlock]:
    return {fid: verify_family_case(fid, p, sweep_cap=sweep_cap) for fid in ids}


def _skip_prime(ids: tuple[str, ...], p: int, note: str) -> dict[str, CaseBlock]:
    families = [get_family(fid) for fid in ids]
    return {fam.id: _marker(fam, p, note) if fam.applies(p) else _not_applicable(fam, p) for fam in families}


def _cpus() -> list[int]:
    """The CPUs this process may run on, sorted, or [] where the platform does not say."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _current_cpu() -> int | None:
    """The CPU this process last ran on, field 39 of /proc/self/stat, or None when unreadable."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            # field 2, the command name in parentheses, may hold spaces
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _start_on(cpu: int) -> None:
    """Move this process to cpu, then give it back the mask it inherited.

    A mask that leaves out the CPU a process runs on moves it at once, and
    widening the mask again leaves it where it is: it starts on cpu and
    stays free to move. An OSError, such as for a CPU that does not exist,
    leaves it where it was.
    """
    try:
        inherited = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, inherited)
    except OSError:
        pass


class _Helpers:
    """The helper processes of a pooled run, forked when made and killed on exit.

    The window of prime indices [lo, hi) that no process has claimed yet is
    two int64s in a memfd; a claim moves one end under fcntl.lockf, a lock
    the kernel drops if the process holding it dies. Each helper claims from
    the top until the ends meet, the time budget is spent or a prime raises,
    and pickles (p, blocks), or (p, exception) before it stops, into its own
    memfd spool. Helper i first moves to others[i % len(others)], the cpus
    but the one this process is on when it forks them, then gets back the
    mask it inherited (_start_on); with no readable CPU or no other one it
    stays where the kernel put it. Placement never touches this process's
    mask, and no row depends on it. Leaving the with block kills and reaps
    every helper not reaped yet, so no child outlives the run.
    """

    def __init__(
        self,
        count: int,
        primes: Sequence[int],
        evaluate: Callable[[int], dict[str, CaseBlock]],
        over_budget: Callable[[], bool],
        cpus: Sequence[int],
    ) -> None:
        here = _current_cpu()
        others = [cpu for cpu in cpus if cpu != here] if here is not None else []
        self.window = os.memfd_create("supercong-window")
        os.write(self.window, array("q", (0, len(primes))))
        self.spools: list[int] = []
        self.live: list[int] = []  # the pids not reaped yet
        gc.freeze()  # a helper's collections then skip every object it inherits
        try:
            for i in range(count):
                self.spools.append(os.memfd_create("supercong-spool"))
                pid = os.fork()
                if pid == 0:
                    cpu = others[i % len(others)] if others else None
                    self._serve(self.spools[-1], cpu, primes, evaluate, over_budget)
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

    def _serve(self, spool: int, cpu: int | None, primes: Sequence[int], evaluate, over_budget) -> NoReturn:
        """A helper's whole life: it exits here and never returns into the caller's stack."""
        code = 1
        try:
            if cpu is not None:
                _start_on(cpu)
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
    """Verify the selected families, each once in first-seen order, at every prime given.

    time_limit is a soft wall-clock budget in seconds, checked before each
    prime. fail_fast leaves every prime after the first one with a failing
    row unevaluated, then cuts the report after its first failing row. The
    primes either one skips appear as marker rows, and the exit verdict
    reflects only what was actually evaluated. parallelism is an upper
    bound on the processes, this one included: at most one worker per prime
    and per CPU this process may run on (_cpus), and none but this one when
    that leaves one or the platform lacks os.fork or os.memfd_create (all
    but Linux). Otherwise this process forks workers - 1 helpers, each
    started on a CPU other than this process's, which claim primes from the
    top of a shared window while this process claims them from the bottom,
    and check the budget before each claim as it does. Once its own claims
    run out, this process waits for every helper and loads what each
    spooled. Results are
    read and stopped in prime order, so the rows do not depend on which
    process evaluated a prime, and an exception a helper raised is raised
    when its prime is read, with its type and message, or as a RuntimeError
    carrying its repr when it does not pickle. A helper that dies raises
    RuntimeError. When the loop ends, by a stop, a budget stop, an error, an
    interrupt or its last prime, every helper still running is killed and
    reaped before this returns; nothing a stopped run's helpers spooled is
    read.
    """
    selected = list(dict.fromkeys(families)) if families is not None else family_ids()
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
    cpus = _cpus()
    workers = min(parallelism, len(prime_list), len(cpus) or 1) if _FORKS else 1

    def evaluate(p: int) -> dict[str, CaseBlock]:
        return _eval_prime(ids, p, sweep_cap)

    def over_budget() -> bool:
        return time_limit is not None and perf_counter() - t0 > time_limit

    evaluated: list[dict[str, CaseBlock]] = []  # by prime, up to a stop
    stopped = False
    with _Helpers(workers - 1, prime_list, evaluate, over_budget, cpus) if workers > 1 else nullcontext() as helpers:
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
            report.blocks.append(block.head(block.verdicts.index(False) + 1))
            break
        report.blocks.append(block)

    report.elapsed = perf_counter() - t0
    return report
