"""Suite runner: evaluates catalog families over a prime range.

Work is scheduled one job per prime (so per-prime tables are built once),
inline or in a pool of at most one worker per prime and per CPU, and rows are
reassembled in (family, prime, case) order. A family's cases are plain int
residues; every row of it at p gets the modulus p^K, with K the catalog
entry's modulus_power. A time budget and fail-fast both act per prime: the
primes they skip become marker rows, so the rows never depend on the
scheduling. Rows (FamilyCase, VerificationReport) are slotted dataclasses,
not frozen ones: a frozen __init__ sets each field through
object.__setattr__, which made building rows the largest cost of a T1.1
grid. Each row is built once and the package never mutates it.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone
from time import perf_counter
from typing import Sequence

from ..padic import odd_prime
from .families import CongruenceFamily, FamilyCase, family_ids, get_family

__all__ = ["SuiteReport", "VerificationReport", "run_suite", "verify_family_case"]

DEFAULT_SWEEP_CAP = 100
_BUDGET_NOTE = "not evaluated: time budget exhausted"
_STOP_NOTE = "not evaluated: stopped after earlier failure"


@dataclass(slots=True)
class VerificationReport:
    """One verified (or skipped) case row."""

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


@dataclass
class SuiteReport:
    config: dict
    started: str
    elapsed: float = 0.0
    cases: list[VerificationReport] = field(default_factory=list)

    def counts(self) -> tuple[int, int, int]:
        """(passed, failed, skipped), counted in one pass over the rows."""
        tally = Counter(c.passed for c in self.cases)
        return tally[True], tally[False], tally[None]

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

    def failures(self) -> list[VerificationReport]:
        return [c for c in self.cases if c.passed is False]


def _row(family: CongruenceFamily, p: int, modulus: int, case: FamilyCase) -> VerificationReport:
    lhs, rhs = case.lhs, case.rhs
    passed = None if case.skipped else lhs == rhs
    return VerificationReport(family.id, p, case.params, modulus, lhs, rhs, passed, case.note)


def _marker(family: CongruenceFamily, p: int, params: dict, note: str) -> VerificationReport:
    return VerificationReport(
        family=family.id,
        p=p,
        params=params,
        modulus=p**family.modulus_power,
        lhs=0,
        rhs=0,
        passed=None,
        note=note,
    )


def verify_family_case(family_id: str, p: int, *, sweep_cap: int | None = None) -> list[VerificationReport]:
    """All case rows for one family at one prime (empty when not applicable)."""
    family = get_family(family_id)
    odd_prime(p)  # raises InvalidPrime
    if not family.applies(p):
        return []
    if family.heavy and sweep_cap is not None and p > sweep_cap:
        return [
            _marker(
                family,
                p,
                {"sweep_cap": sweep_cap},
                f"heavy family capped at p <= {sweep_cap}; pass --sweep-cap to raise",
            )
        ]
    modulus = p**family.modulus_power
    return [_row(family, p, modulus, case) for case in family.cases(p)]


def _eval_prime(ids: tuple[str, ...], p: int, sweep_cap: int) -> dict[str, list[VerificationReport]]:
    return {fid: verify_family_case(fid, p, sweep_cap=sweep_cap) for fid in ids}


def _skip_prime(ids: tuple[str, ...], p: int, note: str) -> dict[str, list[VerificationReport]]:
    families = [get_family(fid) for fid in ids]
    return {fam.id: [_marker(fam, p, {}, note)] if fam.applies(p) else [] for fam in families}


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
    bound: the pool starts at most one worker per prime and per CPU, and
    none when that leaves one. A pooled run still finishes the primes already
    handed to workers before it returns: up to workers + 1 primes, because
    ProcessPoolExecutor queues max_workers + EXTRA_QUEUED_CALLS (1) calls and
    cancel() cannot recall them.
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
    results: dict[int, dict[str, list[VerificationReport]]] = {}
    # With fork, the pool starts all max_workers processes at once.
    workers = min(parallelism, len(prime_list), os.cpu_count() or 1)
    pooled = workers > 1
    with ProcessPoolExecutor(max_workers=workers) if pooled else nullcontext() as pool:
        futures = {p: pool.submit(_eval_prime, ids, p, sweep_cap) for p in prime_list} if pooled else {}
        stopped = False
        for p in prime_list:
            if stopped or (time_limit is not None and perf_counter() - t0 > time_limit):
                if pooled:
                    futures[p].cancel()  # best effort; a result that ran anyway is never read
                results[p] = _skip_prime(ids, p, _STOP_NOTE if stopped else _BUDGET_NOTE)
                continue
            results[p] = futures[p].result() if pooled else _eval_prime(ids, p, sweep_cap)
            stopped = fail_fast and any(r.passed is False for rows in results[p].values() for r in rows)

    for row in (row for fid in selected for p in prime_list for row in results[p][fid]):
        report.cases.append(row)
        if fail_fast and row.passed is False:
            break

    report.elapsed = perf_counter() - t0
    return report
