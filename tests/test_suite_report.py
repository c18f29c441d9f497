"""Engine scheduling semantics and report serialization."""

import csv
import dataclasses
import errno
import gc
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
import tracemalloc
from array import array
from collections import Counter
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong.congruences import engine, families, run_suite, verify_family_case
from supercong.congruences import report as report_module
from supercong.congruences.engine import CaseBlock, SuiteReport, VerificationReport
from supercong.congruences.families import (
    CongruenceFamily,
    _BY_ID,
    family_ids,
    get_family,
)
from supercong.congruences.report import (
    CSV_COLUMNS,
    dumps_json,
    report_to_dict,
    write_csv,
    write_json,
)
from supercong.errors import InvalidPrime, UnknownId
from supercong.padic import primes_between, signed_residue


def test_rows_come_in_family_then_prime_order():
    report = run_suite([7, 5], ["I8", "B1"])
    seen = [(r.family, r.p) for r in report.cases]
    assert seen == [("I8", 5), ("I8", 7), ("B1", 5), ("B1", 7)]


def test_a_repeated_family_is_verified_once():
    report = run_suite([5, 7, 11, 13], ["G1", "B1", "G1"])
    assert [(r.family, r.p) for r in report.cases] == [("G1", 5), ("G1", 13), *(("B1", q) for q in (5, 7, 11, 13))]
    assert report.config["families"] == ["G1", "B1"]


def test_invalid_inputs_rejected_early():
    with pytest.raises(UnknownId):
        run_suite([5], ["NOPE"])
    with pytest.raises(InvalidPrime):
        run_suite([5, 9], ["I8"])
    with pytest.raises(InvalidPrime):
        verify_family_case("I8", 4)


def test_parallel_run_matches_sequential():
    primes = primes_between(5, 40)
    seq = run_suite(primes, parallelism=1)
    par = run_suite(primes, parallelism=4)
    strip = lambda d: {k: v for k, v in d.items() if k != "parallelism"}
    assert strip(seq.config) == strip(par.config)
    a = report_to_dict(seq)["cases"]
    b = report_to_dict(par)["cases"]
    assert a == b
    assert report_to_dict(seq)["summary"] == report_to_dict(par)["summary"]


def _count_forks(monkeypatch):
    """The pids of the helpers run_suite forks from here on."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:  # the helper itself appends nowhere this process can see
            forks.append(pid)
        return pid

    monkeypatch.setattr(engine.os, "fork", counted)
    return forks


def _count_reads(monkeypatch):
    """One entry per time the caller loads what its helpers spooled."""
    reads, results = [], engine._Helpers.results
    monkeypatch.setattr(engine._Helpers, "results", lambda helpers: reads.append(1) or results(helpers))
    return reads


def _record_evaluations(monkeypatch, tmp_path, *, caller_delay=0.0, helper_delay=0.0):
    """Patch engine._eval_prime to log which process evaluates which prime.

    Each evaluation appends one "pid p" line to a file opened for append, so
    lines from the caller and its helpers never interleave. The returned
    function reads the log back as (the caller's primes, {helper pid: its
    primes}), each in evaluation order.
    """
    log, parent, eval_prime = tmp_path / "evaluated", os.getpid(), engine._eval_prime

    def recorded(ids, p, sweep_cap):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {p}\n")
        time.sleep(caller_delay if os.getpid() == parent else helper_delay)
        return eval_prime(ids, p, sweep_cap)

    def evaluated():
        by_pid = {}
        for line in log.read_text().splitlines() if log.exists() else []:
            pid, p = map(int, line.split())
            by_pid.setdefault(pid, []).append(p)
        return by_pid.pop(parent, []), by_pid

    monkeypatch.setattr(engine, "_eval_prime", recorded)
    return evaluated


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not engine._FORKS, reason="run_suite forks helpers only on Linux")


@needs_fork
def test_pool_is_bounded_by_primes_and_cpus(monkeypatch):
    forks = _count_forks(monkeypatch)
    want = min(2, len(engine._cpus()) or 1)
    report = run_suite([5, 7], ["B1"], parallelism=64)
    assert len(forks) == want - 1  # this process is the other worker
    assert report.config["parallelism"] == 64
    assert report_to_dict(report)["cases"] == report_to_dict(run_suite([5, 7], ["B1"]))["cases"]
    for cpus, primes, helpers in [(3, primes_between(5, 30), 2), (4, [5, 7], 1), (1, [5, 7], 0), (0, [5, 7], 0)]:
        monkeypatch.setattr(engine, "_cpus", lambda: list(range(cpus)))
        forks.clear()
        run_suite(primes, ["B1"], parallelism=64)
        assert len(forks) == helpers, cpus
    monkeypatch.setattr(engine, "_FORKS", False)  # as where os.fork or os.memfd_create is missing
    forks.clear()
    assert report_to_dict(run_suite([5, 7], ["B1"], parallelism=64))["cases"] == report_to_dict(report)["cases"]
    assert forks == []
    _assert_no_child_left()


@needs_fork
def test_caller_takes_the_primes_from_the_bottom(monkeypatch, tmp_path):
    monkeypatch.setattr(engine, "_cpus", lambda: [0, 1, 2, 3])
    forks = _count_forks(monkeypatch)
    # a slow caller leaves the helpers some of the top primes
    evaluated = _record_evaluations(monkeypatch, tmp_path, caller_delay=0.05)
    primes = primes_between(5, 60)
    report = run_suite(primes, ["B1", "E1.4"], parallelism=3)
    caller, helpers = evaluated()
    assert len(forks) == 2 and set(helpers) <= set(forks)
    assert caller == primes[: len(caller)]  # claimed from the bottom, in order
    assert all(taken == sorted(taken, reverse=True) for taken in helpers.values())  # each from the top down
    assert sorted(p for taken in helpers.values() for p in taken) == primes[len(caller) :]  # every prime once
    assert len(caller) < len(primes)
    inline = run_suite(primes, ["B1", "E1.4"])
    assert report_to_dict(report)["cases"] == report_to_dict(inline)["cases"]
    _assert_no_child_left()


@needs_fork
def test_fail_fast_kills_every_helper(monkeypatch, tmp_path):
    fid = "XFAIL7-TEST"
    monkeypatch.setitem(_BY_ID, fid, _fails_at_seven(fid))
    monkeypatch.setattr(engine, "_cpus", lambda: [0, 1, 2, 3])
    evaluated = _record_evaluations(monkeypatch, tmp_path, helper_delay=0.05)
    reads = _count_reads(monkeypatch)
    primes = primes_between(5, 60)
    report = run_suite(primes, ["B1", fid], parallelism=2, fail_fast=True)
    caller, helpers = evaluated()
    assert caller == [5, 7] and reads == []  # the caller took both, stopped at 7 and read no helper result
    assert all(taken[0] == primes[-1] for taken in helpers.values())
    assert report.failed == 1
    _assert_no_child_left()


@needs_fork
def test_an_error_kills_every_helper(monkeypatch, tmp_path):
    monkeypatch.setattr(engine, "_cpus", lambda: [0, 1, 2, 3])
    evaluated = _record_evaluations(monkeypatch, tmp_path, helper_delay=0.05)
    reads = _count_reads(monkeypatch)
    eval_prime = engine._eval_prime

    def raises_at_five(ids, p, sweep_cap):
        if p == 5:
            raise RuntimeError("planted at p = 5")
        return eval_prime(ids, p, sweep_cap)

    monkeypatch.setattr(engine, "_eval_prime", raises_at_five)
    primes = primes_between(5, 60)
    with pytest.raises(RuntimeError, match="planted at p = 5"):
        run_suite(primes, ["B1"], parallelism=2)
    caller, _ = evaluated()
    assert caller == [] and reads == []  # the caller's first prime, 5, raised; no helper result was read
    _assert_no_child_left()


def _planted(fid, primes, helper_top):
    """A family that passes at every prime, except that helper_top(q) runs
    first when a helper evaluates the top prime; the caller is slow, so
    the top prime is a helper's."""
    parent = os.getpid()

    def cases(q):
        if os.getpid() == parent:
            time.sleep(0.05)
        elif q == primes[-1]:
            helper_top(q)
        return CaseBlock([[(), 1, ()]], [1], [1])

    return CongruenceFamily(fid, "synthetic: planted in a helper at the top prime", 1, lambda q: True, cases)


@needs_fork
def test_a_helper_that_dies_raises(monkeypatch):
    fid, primes = "XDIES-TEST", primes_between(5, 60)
    monkeypatch.setitem(_BY_ID, fid, _planted(fid, primes, lambda q: os._exit(3)))
    monkeypatch.setattr(engine, "_cpus", lambda: [0, 1, 2, 3])
    with pytest.raises(RuntimeError, match="ended with exit code 3"):
        run_suite(primes, [fid], parallelism=2)
    _assert_no_child_left()


@needs_fork
def test_a_helper_exception_reaches_the_caller(monkeypatch):
    class Unpicklable(ValueError):
        """Local, so pickle cannot find it by name."""

    fid, primes = "XRAISES-TEST", primes_between(5, 60)
    monkeypatch.setattr(engine, "_cpus", lambda: [0, 1, 2, 3])
    for error in (ValueError, Unpicklable):

        def raises(q):
            raise error(f"planted at p = {q}")

        monkeypatch.setitem(_BY_ID, fid, _planted(fid, primes, raises))
        # an exception that does not pickle arrives as a RuntimeError carrying its repr
        if error is ValueError:
            kind, message = ValueError, "planted at p = 59"
        else:
            kind, message = RuntimeError, r"Unpicklable\('planted at p = 59'\)"
        with pytest.raises(kind, match=message) as raised:
            run_suite(primes, [fid], parallelism=2)
        assert type(raised.value) is kind
        assert "raised at p = 59 in a helper process" in raised.value.__notes__[0]
        _assert_no_child_left()


@needs_fork
def test_a_stop_does_not_wait_for_the_helpers(monkeypatch):
    fid, parent = "XSLOW-TEST", os.getpid()

    def cases(q):
        if q >= 50 and os.getpid() != parent:
            time.sleep(5)
        return CaseBlock([[(), 1, ()]], [1], [2 if q == 7 else 1])

    family = CongruenceFamily(fid, "synthetic: fails at 7, slow in helpers", 1, lambda q: True, cases)
    monkeypatch.setitem(_BY_ID, fid, family)
    monkeypatch.setattr(engine, "_cpus", lambda: [0, 1, 2, 3])
    primes = primes_between(5, 60)
    t0 = time.perf_counter()
    pooled = run_suite(primes, ["B1", fid], parallelism=2, fail_fast=True)
    assert time.perf_counter() - t0 < 2.5
    _assert_no_child_left()
    inline = run_suite(primes, ["B1", fid], parallelism=1, fail_fast=True)
    assert report_to_dict(pooled)["cases"] == report_to_dict(inline)["cases"]


def _record_affinity(monkeypatch, tmp_path):
    """Wrap os.sched_setaffinity to log which process sets which mask.

    Each call appends one "pid mask outcome" line to a file opened for
    append, as _record_evaluations logs primes; the outcome is "ok" or the
    errno name the call raised. The returned function reads the log back as
    {pid: [(mask, outcome), ...]}, each in call order.
    """
    log, setaffinity = tmp_path / "affinity", os.sched_setaffinity

    def recorded(pid, mask):
        outcome = "ok"
        try:
            setaffinity(pid, mask)
        except OSError as exc:
            outcome = errno.errorcode[exc.errno]
            raise
        finally:
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {','.join(map(str, sorted(mask)))} {outcome}\n")

    def calls():
        by_pid = {}
        for line in log.read_text().splitlines() if log.exists() else []:
            pid, mask, outcome = line.split()
            by_pid.setdefault(int(pid), []).append(({*map(int, mask.split(","))}, outcome))
        return by_pid

    monkeypatch.setattr(engine.os, "sched_setaffinity", recorded)
    return calls


@needs_fork
@pytest.mark.skipif(len(engine._cpus()) < 2, reason="needs two CPUs this process may run on")
def test_each_helper_starts_on_another_cpu_and_gets_its_mask_back(monkeypatch, tmp_path):
    forks = _count_forks(monkeypatch)
    calls = _record_affinity(monkeypatch, tmp_path)
    # a slow caller never claims every prime, so no helper is killed before it is placed
    _record_evaluations(monkeypatch, tmp_path, caller_delay=0.02)
    seen, current_cpu = [], engine._current_cpu
    monkeypatch.setattr(engine, "_current_cpu", lambda: seen.append(current_cpu()) or seen[-1])
    before = os.sched_getaffinity(0)
    primes = primes_between(5, 60)
    pooled = run_suite(primes, ["B1", "E1.4"], parallelism=3)
    assert os.sched_getaffinity(0) == before
    (here,) = seen  # the caller's CPU, read once before it forks
    by_pid = calls()
    assert here in before and os.getpid() not in by_pid  # the caller's mask is never set
    assert len(forks) == min(3, len(before)) - 1 and sorted(by_pid) == sorted(forks)
    for (first, outcome), *rest in by_pid.values():
        assert outcome == "ok" and len(first) == 1 and first <= before - {here}  # one CPU, not the caller's
        assert rest == [(before, "ok")]  # then the inherited mask, once
    assert len(set().union(*(first for (first, _), *_ in by_pid.values()))) == len(forks)  # a CPU each
    inline = run_suite(primes, ["B1", "E1.4"])
    assert report_to_dict(pooled)["cases"] == report_to_dict(inline)["cases"]
    _assert_no_child_left()


@needs_fork
def test_one_usable_cpu_forks_no_helper(monkeypatch, tmp_path):
    forks = _count_forks(monkeypatch)
    calls = _record_affinity(monkeypatch, tmp_path)
    monkeypatch.setattr(engine, "_cpus", lambda: [0])
    primes = primes_between(5, 30)
    pooled = run_suite(primes, ["B1"], parallelism=2)
    assert forks == [] and calls() == {}
    assert report_to_dict(pooled)["cases"] == report_to_dict(run_suite(primes, ["B1"]))["cases"]


@needs_fork
def test_a_cpu_that_does_not_exist_leaves_the_helper_where_it_is(monkeypatch, tmp_path):
    forks = _count_forks(monkeypatch)
    calls = _record_affinity(monkeypatch, tmp_path)
    # a slow caller leaves the helpers some of the top primes, and never claims every prime
    evaluated = _record_evaluations(monkeypatch, tmp_path, caller_delay=0.02)
    missing = 1 << 16  # past the CPU count of any kernel
    monkeypatch.setattr(engine, "_cpus", lambda: [missing, missing + 1, missing + 2])
    primes = primes_between(5, 60)
    pooled = run_suite(primes, ["B1", "E1.4"], parallelism=3)
    # helper i tries others[i]; each call raised, and there is nothing to restore
    assert calls() == {pid: [({missing + i}, "EINVAL")] for i, pid in enumerate(forks)} and len(forks) == 2
    assert set(evaluated()[1]) and set(evaluated()[1]) <= set(forks)  # and the helpers served all the same
    inline = run_suite(primes, ["B1", "E1.4"])
    assert report_to_dict(pooled)["cases"] == report_to_dict(inline)["cases"]
    _assert_no_child_left()


def test_blocks_pickle_as_they_are(monkeypatch):
    fid = "XKEYS-TEST"
    monkeypatch.setitem(_BY_ID, fid, _alternating_keys(fid))
    int64 = verify_family_case("E1.4", 13)
    big = 5**30 - 1  # past int64: the residues stay a list of ints
    bigints = CaseBlock([[("k",), 2, ([0, 1],)]], [big, 1], [big, 2], family="F", p=5, modulus=5**30)
    noted = verify_family_case("E1.7", 13)
    cut = verify_family_case(fid, 5).head(2)
    t11 = verify_family_case("T1.1", 13)
    assert type(int64.lhs) is array and type(bigints.lhs) is list and noted.notes and len(cut.runs) == 2
    for block in (int64, bigints, noted, cut, t11):
        back = pickle.loads(pickle.dumps(block))
        assert type(back) is CaseBlock
        for f in dataclasses.fields(CaseBlock):
            assert getattr(back, f.name) == getattr(block, f.name), (block.family, f.name)
            assert type(getattr(back, f.name)) is type(getattr(block, f.name))
        assert list(back) == list(block)
    # the last block back is T1.1's: its params come back as int64 arrays, not one int object per cell
    assert [column.typecode for column in back.runs[0][2]] == ["q", "q"]


def test_sweep_cap_inserts_marker_row():
    report = run_suite([101], ["T1.1"], sweep_cap=100)
    (row,) = report.cases
    assert row.passed is None
    assert "heavy family capped" in row.note
    assert report.ok
    uncapped = run_suite([101], ["T1.1"], sweep_cap=101)
    assert len(uncapped.cases) == 51 * 101
    assert uncapped.failed == 0 and uncapped.skipped == 0


def test_time_budget_turns_pairs_into_markers(monkeypatch):
    monkeypatch.setattr(engine, "_cpus", lambda: [0, 1, 2, 3])
    for parallelism in (1, 2):  # helpers check the budget before each claim, as the caller does
        report = run_suite(primes_between(5, 20), time_limit=0.0, parallelism=parallelism)
        assert report.cases
        assert all(r.passed is None for r in report.cases)
        assert all(r.note == "not evaluated: time budget exhausted" for r in report.cases)
        assert report.ok  # nothing failed, everything is accounted for
        _assert_no_child_left()


def _synthetic_family(fid):
    def cases(q):
        return CaseBlock([[("k",), 3, ([0, 1, 2],)]], [1, 1, 2], [1, 2, 2])

    return CongruenceFamily(fid, "synthetic: passes, fails, passes", 1, lambda q: True, cases)


def test_fail_fast_truncates_at_first_failing_row(monkeypatch):
    fid = "XFAIL-TEST"
    monkeypatch.setitem(_BY_ID, fid, _synthetic_family(fid))
    full = run_suite([5, 7], [fid])
    assert [r.passed for r in full.cases] == [True, False, True, True, False, True]
    fast = run_suite([5, 7], [fid], fail_fast=True)
    assert [r.passed for r in fast.cases] == [True, False]
    assert report_to_dict(fast)["cases"] == report_to_dict(full)["cases"][:2]
    assert not fast.ok and fast.failed == 1


def _fails_at_seven(fid):
    def cases(q):
        return CaseBlock([[(), 1, ()]], [1], [2 if q == 7 else 1])

    return CongruenceFamily(fid, "synthetic: fails only at p = 7", 1, lambda q: True, cases)


@needs_fork  # the helpers inherit the patched catalog
def test_fail_fast_rows_do_not_depend_on_parallelism(monkeypatch):
    fid = "XFAIL7-TEST"
    monkeypatch.setitem(_BY_ID, fid, _fails_at_seven(fid))
    primes = primes_between(5, 60)
    seq, par = (
        report_to_dict(run_suite(primes, ["B1", fid], parallelism=n, fail_fast=True))["cases"]
        for n in (1, 2)
    )
    assert seq == par
    summary = [(c["family"], c["p"], c["pass"]) for c in seq]
    assert summary[:3] == [("B1", 5, True), ("B1", 7, True), ("B1", 11, None)]
    assert seq[2]["note"] == "not evaluated: stopped after earlier failure"
    assert summary[-2:] == [(fid, 5, True), (fid, 7, False)]


def test_failure_rows_survive_into_report(monkeypatch):
    fid = "XFAIL-TEST"
    monkeypatch.setitem(_BY_ID, fid, _synthetic_family(fid))
    report = run_suite([5], [fid, "I8"])
    assert report.failed == 1
    (bad,) = report.failures()
    assert (bad.family, bad.params) == (fid, {"k": 1})
    assert (bad.lhs, bad.rhs) == (1, 2)


def test_signed_views():
    block = CaseBlock([[(), 1, ()]], [48], [2], family="F", p=7, modulus=49)
    (case,) = report_to_dict(SuiteReport({}, "", blocks=[block]))["cases"]
    assert (case["lhs_signed"], case["rhs_signed"]) == (-1, 2)
    assert block[0] == VerificationReport("F", 7, {}, 49, 48, 2, False)
    assert not block[0].skipped


def _alternating_keys(fid):
    # key sets a, b, a at every prime: a block of three runs and two key sets, one tuple each,
    # which the engine keeps as the generator laid them out
    a, b = ("a",), ("b",)

    def cases(q):
        return CaseBlock([[a, 1, ([1],)], [b, 2, (["x"],)], [a, 3, ([3],)]], [1, 2, 0], [1, 2, 1])

    return CongruenceFamily(fid, "synthetic: key sets a, b, a", 1, lambda q: True, cases)


def test_blocks_share_one_key_tuple_per_key_set(monkeypatch):
    fid = "XKEYS-TEST"
    monkeypatch.setitem(_BY_ID, fid, _alternating_keys(fid))
    block = verify_family_case(fid, 5)
    (a1, stop1, cols1), (b, stop2, cols2), (a2, stop3, cols3) = block.runs
    assert (a1, b) == (("a",), ("b",)) and a2 is a1
    assert (stop1, stop2, stop3) == (1, 2, 3)
    assert (cols1, cols2, cols3) == ((([1],)), (["x"],), ([3],))
    assert (list(block.lhs), list(block.rhs), block.verdicts) == ([1, 2, 0], [1, 2, 1], [True, True, False])
    # T1.1 is one run: its grids as columns, and the same keys for every cell
    t11 = verify_family_case("T1.1", 7)
    ((keys, stop, (lam, d)),) = t11.runs
    assert keys == ("lam", "d") and stop == len(t11) == 7 * 4
    assert lam == array("q", [*range(7)] * 4) and d == array("q", [k for k in range(4) for _ in range(7)])
    # A1 and E1.14 each carry two key sets at one prime
    assert [run[0] for run in verify_family_case("A1", 7).runs] == [("lam",), ("pair",)]
    assert [run[0] for run in verify_family_case("E1.14", 11).runs] == [("coefficients",), ("x",)]


def test_a_blocks_head_is_its_first_rows(monkeypatch):
    fid = "XKEYS-TEST"
    monkeypatch.setitem(_BY_ID, fid, _alternating_keys(fid))
    # A1, E1.14 and the synthetic family have several runs; E1.7 has parity skips with notes
    for family, p in (("A1", 7), ("E1.14", 11), ("E1.7", 13), (fid, 5)):
        block = verify_family_case(family, p)
        rows = list(block)
        assert len(block.runs) > 1 or block.notes, family
        for stop in range(len(block) + 1):
            head = block.head(stop)
            assert list(head) == head[:] == rows[:stop], (family, stop)
            verdicts = [row.passed for row in rows[:stop]]
            assert head.counts == (verdicts.count(True), verdicts.count(False), verdicts.count(None))
            assert head.notes == {i: row.note for i, row in enumerate(rows[:stop]) if row.note is not None}


def _reachable_containers(root):
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen[id(obj)] = obj
            stack.extend(r for r in gc.get_referents(obj) if type(r) in (list, tuple, dict))
    return list(seen.values())


def test_blocks_hold_no_per_row_params_dict():
    report = run_suite([5, 7, 11], ["T1.1", "E1.7", "A1", "E1.14", "R1.4a"])
    for block in report.blocks:
        assert not hasattr(block, "__dict__")
        dicts = [obj for obj in _reachable_containers(block) if type(obj) is dict]
        assert dicts == [block.notes], (block.family, block.p)
        assert all(type(note) is str for note in block.notes.values())
    assert any(block.notes for block in report.blocks)  # E1.7's parity skips


class _CountingList(list):
    calls = 0

    def count(self, value):
        self.calls += 1
        return super().count(value)


def test_counts_are_taken_once_per_block(tmp_path):
    report = run_suite([5, 7, 11, 13], ["T1.1", "E1.7", "I8"])
    tally = Counter(row.passed for row in report.cases)
    assert report.counts() == (tally[True], tally[False], tally[None]) == (
        report.passed,
        report.failed,
        report.skipped,
    )
    verdicts = _CountingList([True, False, None, True])
    block = CaseBlock(
        [[(), 4, ()]], [1, 1, 0, 3], [1, 2, 0, 3], notes={2: "skipped"}, verdicts=verdicts, family="F", p=5, modulus=5
    )
    assert block.counts == (2, 1, 1) and verdicts.calls == 3  # once per outcome, at construction
    report = SuiteReport({}, "", blocks=[block, block])
    assert report.counts() == (4, 2, 2)
    assert report_to_dict(report)["summary"] == {"pass": 4, "fail": 2, "skipped": 2}
    assert json.loads(dumps_json(report))["summary"] == {"pass": 4, "fail": 2, "skipped": 2}
    write_csv(report, tmp_path / "r.csv")
    assert report.ok is False and verdicts.calls == 3  # the summary never recounts a block


def _old_rows(fid, q):
    """The rows as the engine built them one by one, from the family's cases."""
    fam = get_family(fid)
    if not fam.applies(q):
        return []
    modulus = q**fam.modulus_power
    return [
        VerificationReport(fid, q, c.params, modulus, c.lhs, c.rhs, None if c.skipped else c.lhs == c.rhs, c.note)
        for c in fam.cases(q)
    ]


def test_cases_view_rebuilds_the_rows_exactly():
    primes = primes_between(5, 31)
    report = run_suite(primes)
    assert report.cases == [row for fid in family_ids() for q in primes for row in _old_rows(fid, q)]
    assert report.cases is report.cases  # built once, then held
    block = verify_family_case("E1.7", 13)
    assert list(block) == _old_rows("E1.7", 13)
    assert [block[i] for i in range(-len(block), len(block))] == list(block) * 2
    assert block[2:5] == list(block)[2:5]
    with pytest.raises(IndexError):
        block[len(block)]


def test_an_edit_to_the_held_rows_reaches_no_count_or_writer(tmp_path):
    report = run_suite([5, 7, 11], ["I8", "E1.7", "B1"])
    rows = report.cases
    assert rows is report.cases
    blocks = pickle.dumps(report.blocks)
    block_rows = [list(block) for block in report.blocks]
    verdicts = [list(block.verdicts) for block in report.blocks]
    counts, failures = report.counts(), report.failures()
    text, data = dumps_json(report), report_to_dict(report)
    write_csv(report, tmp_path / "before.csv")
    assert counts[1] == 0 and failures == []

    edited = dataclasses.replace(rows[0], lhs=(rows[0].lhs + 1) % rows[0].modulus, passed=False, note="edited")
    report.cases[0] = edited
    assert report.cases[0] == edited and report.cases is rows  # the edit stays in the held list

    assert pickle.dumps(report.blocks) == blocks
    assert [list(block) for block in report.blocks] == block_rows
    assert [list(block.verdicts) for block in report.blocks] == verdicts
    assert report.counts() == counts and report.failures() == failures and report.ok
    assert dumps_json(report) == text == _json_oracle(report)
    assert report_to_dict(report) == data
    write_csv(report, tmp_path / "after.csv")
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()


# SHA-256 of the sorted (family, p, params, modulus, lhs, rhs, pass, note)
# rows of every family but T1.1 over the primes in [5, 150]: 15,806 rows. The
# benchmark's digest leaves out note, which holds E1.7's parity residues.
_SWEEP_ROWS_SHA256 = "82423f7f83802c5a414394ac47c89512a93dbcaef821dee62eca68ee74a3f4cb"


def test_sweep_rows_match_the_pinned_digest():
    report = run_suite(primes_between(5, 150), [fid for fid in family_ids() if fid != "T1.1"])
    rows = ([r.family, r.p, r.params, r.modulus, r.lhs, r.rhs, r.passed, r.note] for r in report.cases)
    lines = sorted(json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows)
    assert len(lines) == 15806
    assert hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest() == _SWEEP_ROWS_SHA256


def test_json_shape_and_roundtrip(tmp_path):
    report = run_suite([5, 7], ["I8", "E1.7", "B1"])
    blob = dumps_json(report)
    data = json.loads(blob)
    assert set(data) == {"run", "cases", "summary"}
    assert data["run"]["config"]["primes"] == [5, 7]
    assert data["summary"]["pass"] + data["summary"]["skipped"] == len(data["cases"])
    assert dumps_json(data) == blob  # parse -> serialize is byte identical
    out = tmp_path / "report.json"
    write_json(report, out)
    assert out.read_text(encoding="utf-8") == blob
    # skipped rows serialize with an explicit null
    skipped = [c for c in data["cases"] if c["pass"] is None]
    assert skipped and all("note" in c for c in skipped)


def test_csv_mirror(tmp_path):
    report = run_suite([5, 7], ["I8", "E1.7"])
    out = tmp_path / "report.csv"
    write_csv(report, out)
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == len(report.cases) + 1
    by_col = dict(zip(CSV_COLUMNS, rows[1]))
    assert by_col["family"] == "I8"
    assert by_col["pass"] == "true"
    assert json.loads(by_col["params"]) == report.cases[0].params
    passes = {r[CSV_COLUMNS.index("pass")] for r in rows[1:]}
    assert passes <= {"true", "false", "null"}
    assert "null" in passes  # E1.7 contributes parity skips


# -- the row writer against the json.dumps route -------------------------------
#
# dumps_json writes the rows of a SuiteReport from its block templates, the
# only fast path; off-schema rows and parsed dicts go through json.dumps, and
# write_csv writes a SuiteReport's rows from its blocks. The whole-document
# json.dumps route, the CSV written row by row from report.cases and the old
# per-row dict CSV writer below are kept here only as the oracles those writers
# must match byte for byte.


def _json_oracle(report):
    return json.dumps(report_to_dict(report), indent=2, ensure_ascii=False) + "\n"


def _csv_from_cases(report, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in report.cases:
            writer.writerow(
                [
                    row.family,
                    row.p,
                    json.dumps(row.params, separators=(",", ":")),
                    row.modulus,
                    row.lhs,
                    row.rhs,
                    signed_residue(row.lhs, row.modulus),
                    signed_residue(row.rhs, row.modulus),
                    "null" if row.passed is None else str(row.passed).lower(),
                    "" if row.note is None else row.note,
                ]
            )


def _assert_csv_matches_rows(report):
    with tempfile.TemporaryDirectory() as tmp:
        rows, blocks = Path(tmp) / "rows.csv", Path(tmp) / "blocks.csv"
        _csv_from_cases(report, rows)
        write_csv(report, blocks)
        assert blocks.read_bytes() == rows.read_bytes()


def _assert_json_matches_oracle(report):
    blob = dumps_json(report)
    assert blob == _json_oracle(report)
    assert dumps_json(json.loads(blob)) == blob
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        write_json(report, path)
        assert path.read_bytes() == blob.encode("utf-8")


_tricky_text = st.text(st.sampled_from('ab "\\\n\t\x00\x1f\x7f\u2028é✓𝔽')) | st.text()
_big_int = st.integers(-(2**130), 2**130)
_param_value = st.one_of(
    _big_int, _tricky_text, st.booleans(), st.none(), st.floats(allow_nan=False), st.lists(_big_int, max_size=3)
)
_rows = st.builds(
    VerificationReport,
    family=_tricky_text,
    p=_big_int,
    # int keys become strings in JSON; the "k" prefix keeps text keys from colliding with them
    params=st.dictionaries(_tricky_text.map("k".__add__) | _big_int, _param_value, max_size=4),
    modulus=st.integers(1, 2**130),
    lhs=_big_int,
    rhs=_big_int,
    passed=st.sampled_from([True, False, None]),
    note=st.none() | _tricky_text,
)


def _blocks(rows):
    """One block per stretch of consecutive rows with the same family, p and modulus, with their verdicts.

    Each block goes through the engine's stamp, so sides whose values all fit become int64 arrays.
    """
    blocks = []
    for (family, p, modulus), stretch in groupby(rows, attrgetter("family", "p", "modulus")):
        stretch = list(stretch)
        lhs, rhs = [row.lhs for row in stretch], [row.rhs for row in stretch]
        notes = {i: row.note for i, row in enumerate(stretch) if row.note is not None}
        runs, stop = [], 0
        for keys, run in groupby(stretch, lambda row: tuple(row.params)):
            values = [row.params.values() for row in run]
            stop += len(values)
            runs.append([keys, stop, tuple(map(list, zip(*values)))])
        block = CaseBlock(runs, lhs, rhs, (), notes, [row.passed for row in stretch])
        blocks.append(engine._stamp(block, family, p, modulus))
    return blocks


_reports = st.builds(
    SuiteReport,
    config=st.dictionaries(_tricky_text, _param_value, max_size=3),
    started=_tricky_text,
    elapsed=st.floats(0, 1e6),
    blocks=st.lists(_rows, max_size=6).map(_blocks),
)


@settings(max_examples=300, deadline=None)
@given(_reports)
def test_row_writer_matches_json_dumps(report):
    _assert_json_matches_oracle(report)
    _assert_csv_matches_rows(report)


def _row(family, modulus, params, lhs, rhs, passed, note=None):
    return VerificationReport(family, 7, params, modulus, lhs, rhs, passed, note)


# Each distinct (lhs, rhs, verdict) of a block has its row tail formatted once;
# a noted row's tail is formatted on its own.
_TAIL_EDGES = {
    "one-residue-passing-failing-noted": [
        _row("F", 49, {"k": 0}, 5, 5, True, "noted, then met again unnoted"),
        _row("F", 49, {"k": 1}, 5, 5, True),
        _row("F", 49, {"k": 2}, 5, 6, False),
        _row("F", 49, {"k": 3}, 5, 5, True),
        _row("F", 49, {"k": 4}, 5, 6, False, "failing, noted"),
        _row("F", 49, {"k": 5}, 5, 6, False),
    ],
    "given-true-on-unequal-sides": [
        _row("F", 49, {"k": 0}, 3, 4, True),
        _row("F", 49, {"k": 1}, 3, 4, False),
        _row("F", 49, {"k": 2}, 3, 4, None),
        _row("F", 49, {"k": 3}, 3, 4, True),
    ],
    "percent-in-text": [
        _row("100% F%d %s %%", 49, {}, 1, 1, True),
        _row("100% F%d %s %%", 49, {}, 2, 1, False, "50% %s"),
        _row("100% F%d %s %%", 49, {"k%d": 1}, 1, 1, True),
        _row("100% F%d %s %%", 49, {}, 1, 1, True),
    ],
    "negative-signed-views": [
        _row("F", 49, {"k": 0}, 48, 30, False),
        _row("F", 49, {"k": 1}, 25, 24, False),
        _row("F", 2**70, {"k": 0}, 2**70 - 1, 2**70 - 1, True),
    ],
    "bigint-side-beside-an-int64-side": [
        _row("F", 2**65, {"k": 0}, 2**63, 3, False),
        _row("F", 2**65, {"k": 1}, 2**65 - 1, 3, False),
        _row("F", 2**65, {"k": 2}, 3, 3, True),
        _row("F", 2**65, {"k": 3}, 2**63, 3, False),
    ],
}


# A row head is one piece per param column: each distinct exact int of a column
# is rendered once per run, and any other value row by row.
_HEAD_EDGES = {
    "int-text-int-columns": [
        _row("F", 49, {"k": 0, "s": "a", "m": 5}, 1, 1, True),
        _row("F", 49, {"k": 1, "s": "b", "m": 5}, 1, 1, True),
        _row("F", 49, {"k": 0, "s": "a", "m": 6}, 1, 2, False),
        _row("F", 49, {"k": 2, "s": [1, "c"], "m": 5}, 1, 1, True),
    ],
    "one-column-of-1-true-1.0-0.0-minus-0.0": [
        _row("F", 49, {"k": value}, 1, 1, True) for value in (1, True, 1.0, 0, 0.0, -0.0, False, 1, True)
    ],
    "ints-past-256-and-negative": [
        _row("F", 49, {"k": value, "j": -value}, 1, 1, True)
        for value in (257, -1, 1000, 257, -(2**63), 2**63 - 1, 0, -300, 1000)
    ]
    + [_row("F", 49, {"big": value}, 1, 1, True) for value in (2**70, -(2**70), 2**70, 3)],
    "param-free-run-between-keyed-runs": [
        _row("F", 49, {"a": 1, "b": 2}, 1, 1, True),
        _row("F", 49, {}, 1, 2, False),
        _row("F", 49, {}, 1, 1, None, "skipped"),
        _row("F", 49, {"a": 1}, 1, 1, True),
        _row("F", 49, {"a": 1}, 1, 1, True),
    ],
    "percent-in-keys": [
        _row("F%d", 49, {"%d": 1, "k%s%%": "%s", "%": 2}, 1, 1, True),
        _row("F%d", 49, {"%d": 300, "k%s%%": "%%d", "%": 2}, 1, 1, True),
    ],
}


def _assert_both_writers_take_the_templates(blocks, monkeypatch):
    fits = []
    real = report_module._fits_templates
    monkeypatch.setattr(report_module, "_fits_templates", lambda block: fits.append(real(block)) or fits[-1])
    report = SuiteReport({}, "2000-01-01T00:00:00+00:00", 0.0, blocks=blocks)
    _assert_json_matches_oracle(report)
    _assert_csv_matches_rows(report)
    assert fits and all(fits)  # both formats took the templates, not the row-by-row fallback


@pytest.mark.parametrize("rows", _TAIL_EDGES.values(), ids=_TAIL_EDGES.keys())
def test_row_tail_edges_match_json_dumps(rows, monkeypatch):
    _assert_both_writers_take_the_templates(_blocks(rows), monkeypatch)


@pytest.mark.parametrize("compact", [False, True], ids=["lists", "int64-arrays"])
@pytest.mark.parametrize("rows", _HEAD_EDGES.values(), ids=_HEAD_EDGES.keys())
def test_row_head_edges_match_json_dumps(rows, compact, monkeypatch):
    blocks = _blocks(rows)
    if compact:  # each param column of exact ints that all fit becomes an int64 array, as T1.1's are
        for block in blocks:
            block.runs = [[keys, stop, tuple(map(engine._compact, columns))] for keys, stop, columns in block.runs]
    _assert_both_writers_take_the_templates(blocks, monkeypatch)


def test_an_off_schema_block_goes_through_the_csv_fallback(monkeypatch):
    fits, rows = [], []
    real_fits, real_fields = report_module._fits_templates, report_module._csv_fields
    monkeypatch.setattr(report_module, "_fits_templates", lambda block: fits.append(real_fits(block)) or fits[-1])
    monkeypatch.setattr(report_module, "_csv_fields", lambda row: rows.append(row) or real_fields(row))
    edge = [
        _row("F", 49, {7: 1, "k": "a,b"}, 48, 30, False, 'noted "x"'),
        _row("F", 49, {7: 2, "k": None}, 5, 5, True),
        _row("F", 49, {7: 3, "k": [1, 2]}, 0, 0, None, "skipped"),
    ]
    report = SuiteReport({}, "2000-01-01T00:00:00+00:00", 0.0, blocks=_blocks(edge))
    _assert_csv_matches_rows(report)
    assert fits == [False] and len(rows) == len(edge)


def test_the_bigint_edge_has_a_list_side_beside_an_int64_side():
    (block,) = _blocks(_TAIL_EDGES["bigint-side-beside-an-int64-side"])
    assert type(block.lhs) is list and report_module._is_int64_array(block.rhs)


def test_a_t11_block_formats_one_tail_per_distinct_residue(monkeypatch):
    class CountingTail(str):
        calls = 0

        def __mod__(self, values):
            CountingTail.calls += 1
            return str.__mod__(self, values)

    monkeypatch.setattr(report_module, "_TAIL", CountingTail(report_module._TAIL))
    block = verify_family_case("T1.1", 13)
    report = SuiteReport({}, "2000-01-01T00:00:00+00:00", 0.0, blocks=[block])
    text = dumps_json(report)
    assert len(block) == 13 * 14 // 2 and block.counts == (len(block), 0, 0)
    assert CountingTail.calls == len(set(block.lhs)) <= 13
    assert text == _json_oracle(report)


def test_a_t11_block_renders_no_param_value_row_by_row(monkeypatch):
    texts = []
    real = report_module._value_text
    monkeypatch.setattr(report_module, "_value_text", lambda value: texts.append(value) or real(value))
    report = SuiteReport({}, "2000-01-01T00:00:00+00:00", 0.0, blocks=[verify_family_case("T1.1", 293)])
    assert dumps_json(report) == _json_oracle(report)
    assert texts == []  # each lam and d piece comes from its column's memo, past the small-int cache too


@pytest.mark.parametrize(
    "make",
    [
        lambda: run_suite(primes_between(5, 60)),
        lambda: run_suite(primes_between(5, 40), ["T1.1", "I8"], sweep_cap=30),
        lambda: run_suite(primes_between(5, 40), ["T1.1", "E1.7"], time_limit=0.0),
    ],
    ids=["all-5..60", "T1.1-sweep-cap-markers", "T1.1-budget-markers"],
)
def test_real_reports_match_json_dumps(make, monkeypatch):
    fits = []
    real = report_module._fits_templates
    monkeypatch.setattr(report_module, "_fits_templates", lambda block: fits.append(real(block)) or fits[-1])
    _assert_json_matches_oracle(make())
    assert fits and all(fits)  # every block of a real report takes the templates


def test_dumps_json_holds_about_one_copy_of_its_text(monkeypatch):
    # 2,453 T1.1 rows in 39 pieces; "".join held every piece and the joined text at once
    monkeypatch.setattr(report_module, "_BATCH", 64)
    report = run_suite(primes_between(5, 40), ["T1.1"], sweep_cap=40)
    tracemalloc.start()
    try:
        text = dumps_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.isascii() and text == _json_oracle(report)
    assert peak < 1.5 * len(text), peak / len(text)


def test_a_run_without_a_pool_never_imports_it():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from supercong.congruences import engine, run_suite\n"
        "assert run_suite([5, 7], ['B1']).ok\n"
        "engine._cpus = lambda: [0, 1]\n"  # a pooled run, with one helper, on any runner
        "assert run_suite([5, 7, 11, 13], ['B1'], parallelism=2).ok\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_dict_rows_off_the_schema_fall_back_to_json_dumps():
    report = run_suite([5, 7], ["I8", "E1.7"])
    data = report_to_dict(report)
    data["cases"][0]["extra"] = [1, {"x": None}]
    data["cases"][1] = dict(reversed(data["cases"][1].items()))
    data["cases"][2]["note"] = None
    data["cases"][3]["lhs"] = 1.5
    data["cases"][4]["pass"] = 1
    data["cases"].append("not a row")
    assert dumps_json(data) == json.dumps(data, indent=2, ensure_ascii=False) + "\n"
    for odd in ({}, {"cases": []}, {"cases": [], "summary": {}}, {1: "x"}):
        assert dumps_json(odd) == json.dumps(odd, indent=2, ensure_ascii=False) + "\n"


def _old_csv_value(key, case):
    if key == "params":
        return json.dumps(case["params"], separators=(",", ":"))
    if key == "pass":
        value = case["pass"]
        return "null" if value is None else str(value).lower()
    if key == "note":
        return case.get("note", "")
    return str(case[key])


def _csv_oracle(report, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for case in report_to_dict(report)["cases"]:
            writer.writerow([_old_csv_value(key, case) for key in CSV_COLUMNS])


def test_csv_matches_dict_route(tmp_path):
    report = run_suite([5, 7, 11], ["I8", "E1.7", "E1.14", "T1.1"])
    assert any(r.note for r in report.cases)  # E1.7's parity skips carry notes
    _csv_oracle(report, tmp_path / "oracle.csv")
    want = (tmp_path / "oracle.csv").read_bytes()
    write_csv(report, tmp_path / "rows.csv")
    assert (tmp_path / "rows.csv").read_bytes() == want


def _planted_t11_failure(monkeypatch, q, d, lam):
    grid = families.thm11_rhs_grid

    def planted(p):
        out = grid(p).copy()
        if p == q:
            out[d, lam] = (out[d, lam] + 1) % p
        return out

    monkeypatch.setattr(families, "thm11_rhs_grid", planted)


def test_block_writers_match_row_routes_on_a_mixed_report(tmp_path, monkeypatch):
    mixed = ["T1.1", "A1", "E1.14", "E1.7"]
    capped = run_suite(primes_between(5, 40), mixed, sweep_cap=30)  # T1.1 cells, then sweep-cap markers
    budget = run_suite(primes_between(5, 20), mixed, time_limit=0.0)  # time-budget markers
    _planted_t11_failure(monkeypatch, 13, 3, 5)
    cut = run_suite(primes_between(5, 20), mixed, fail_fast=True)  # cut after cell (lam 5, d 3) at p = 13
    last = cut.blocks[-1]
    assert (last.family, last.p, len(last)) == ("T1.1", 13, 3 * 13 + 6)
    assert last.verdicts[-1] is False and last.counts == (3 * 13 + 5, 1, 0)
    report = SuiteReport(
        {"primes": [5, 40], "families": mixed},
        "2000-01-01T00:00:00+00:00",
        1.5,
        blocks=[*capped.blocks, *budget.blocks, *cut.blocks],
    )
    rows = report.cases
    assert {row.note for row in rows} >= {
        None,
        "not evaluated: time budget exhausted",
        "heavy family capped at p <= 30; pass --sweep-cap to raise",
        "all coefficients agree",
    }
    assert any(row.note and row.note.startswith("parity outside the claim") for row in rows)
    assert {tuple(row.params) for row in rows} >= {("lam", "d"), ("lam",), ("pair",), ("coefficients",), ("x",)}

    blob = dumps_json(report)
    assert blob == _json_oracle(report)
    assert dumps_json(json.loads(blob)) == blob
    write_json(report, tmp_path / "r.json")
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == blob

    _csv_from_cases(report, tmp_path / "rows.csv")
    want = (tmp_path / "rows.csv").read_bytes()
    write_csv(report, tmp_path / "blocks.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == want
