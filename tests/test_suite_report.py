"""Engine scheduling semantics and report serialization."""

import csv
import dataclasses
import json
import multiprocessing
import os
from concurrent.futures import Future
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong.congruences import engine, run_suite, verify_family_case
from supercong.congruences.engine import SuiteReport, VerificationReport
from supercong.congruences.families import (
    CongruenceFamily,
    FamilyCase,
    _BY_ID,
    _case,
)
from supercong.congruences.report import (
    CSV_COLUMNS,
    dumps_json,
    report_to_dict,
    write_csv,
    write_json,
)
from supercong.errors import InvalidPrime, UnknownId
from supercong.padic import primes_between


def test_rows_come_in_family_then_prime_order():
    report = run_suite([7, 5], ["I8", "B1"])
    seen = [(r.family, r.p) for r in report.cases]
    assert seen == [("I8", 5), ("I8", 7), ("B1", 5), ("B1", 7)]


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


def test_pool_is_bounded_by_primes_and_cpus(monkeypatch):
    # never start the real pool here: with fork it starts max_workers processes at once
    requested = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(engine, "ProcessPoolExecutor", InlinePool)
    want = min(2, os.cpu_count() or 1)
    report = run_suite([5, 7], ["B1"], parallelism=64)
    assert requested == ([want] if want > 1 else [])
    assert report.config["parallelism"] == 64
    assert report_to_dict(report)["cases"] == report_to_dict(run_suite([5, 7], ["B1"]))["cases"]
    for cpus, primes, workers in [(3, primes_between(5, 30), [3]), (1, [5, 7], []), (None, [5, 7], [])]:
        monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
        requested.clear()
        run_suite(primes, ["B1"], parallelism=64)
        assert requested == workers, cpus


def test_sweep_cap_inserts_marker_row():
    report = run_suite([101], ["T1.1"], sweep_cap=100)
    (row,) = report.cases
    assert row.passed is None
    assert "heavy family capped" in row.note
    assert report.ok
    uncapped = run_suite([101], ["T1.1"], sweep_cap=101)
    assert len(uncapped.cases) == 51 * 101
    assert uncapped.failed == 0 and uncapped.skipped == 0


def test_time_budget_turns_pairs_into_markers():
    report = run_suite(primes_between(5, 20), time_limit=0.0)
    assert report.cases
    assert all(r.passed is None for r in report.cases)
    assert all(r.note == "not evaluated: time budget exhausted" for r in report.cases)
    assert report.ok  # nothing failed, everything is accounted for


def _synthetic_family(fid):
    def cases(q):
        yield _case(q, 1, {"k": 0}, Fraction(1), Fraction(1))
        yield _case(q, 1, {"k": 1}, Fraction(1), Fraction(2))
        yield _case(q, 1, {"k": 2}, Fraction(2), Fraction(2))

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
        yield _case(q, 1, {}, Fraction(1), Fraction(2 if q == 7 else 1))

    return CongruenceFamily(fid, "synthetic: fails only at p = 7", 1, lambda q: True, cases)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the patched catalog",
)
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
    row = VerificationReport("F", 7, {}, 49, 48, 2, False)
    (case,) = report_to_dict(SuiteReport({}, "", cases=[row]))["cases"]
    assert (case["lhs_signed"], case["rhs_signed"]) == (-1, 2)
    assert not row.skipped


def test_rows_are_slotted_records():
    report = run_suite([5, 7], ["I8", "E1.7"])
    row = report.cases[0]
    assert not hasattr(row, "__dict__")
    assert not hasattr(FamilyCase({}, 0, 0), "__dict__")
    bumped = dataclasses.replace(row, lhs=(row.lhs + 1) % row.modulus)
    assert type(bumped) is VerificationReport
    assert (bumped.lhs, bumped.rhs, bumped.params) == ((row.lhs + 1) % row.modulus, row.rhs, row.params)
    assert dataclasses.replace(row, passed=None).skipped


def test_row_built_once_per_evaluated_row(monkeypatch):
    calls = {"_row": 0, "_marker": 0}
    for name in calls:
        original = getattr(engine, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(engine, name, counted)
    report = run_suite(primes_between(5, 40), ["T1.1", "E1.7", "I8"])
    assert calls == {"_row": len(report.cases), "_marker": 0}  # below the sweep cap: no marker rows
    assert any(r.family == "E1.7" and r.skipped for r in report.cases)  # skips go through _row too


class _CountedList(list):
    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_summary_counts_in_one_pass():
    rows = [
        VerificationReport("F", 5, {}, 5, 1, 1, True),
        VerificationReport("F", 5, {}, 5, 1, 2, False),
        VerificationReport("F", 7, {}, 7, 0, 0, None, "skipped"),
        VerificationReport("F", 7, {}, 7, 3, 3, True),
    ]
    report = SuiteReport({}, "", cases=_CountedList(rows))
    assert report_to_dict(report)["summary"] == {"pass": 2, "fail": 1, "skipped": 1}
    assert report.cases.iterations == 2  # the case rows, then one counting pass
    assert report.counts() == (2, 1, 1) == (report.passed, report.failed, report.skipped)


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
# dumps_json and write_csv write each row from its fields. The whole-document
# json.dumps route and the old per-row dict CSV writer below are kept here only
# as the oracles those writers must match byte for byte.


def _json_oracle(report):
    return json.dumps(report_to_dict(report), indent=2, ensure_ascii=False) + "\n"


def _assert_json_matches_oracle(report):
    blob = dumps_json(report)
    assert blob == _json_oracle(report)
    assert dumps_json(json.loads(blob)) == blob


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
_reports = st.builds(
    SuiteReport,
    config=st.dictionaries(_tricky_text, _param_value, max_size=3),
    started=_tricky_text,
    elapsed=st.floats(0, 1e6),
    cases=st.lists(_rows, max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(_reports)
def test_row_writer_matches_json_dumps(report):
    _assert_json_matches_oracle(report)


@pytest.mark.parametrize(
    "make",
    [
        lambda: run_suite(primes_between(5, 60)),
        lambda: run_suite(primes_between(5, 40), ["T1.1", "I8"], sweep_cap=30),
        lambda: run_suite(primes_between(5, 40), ["T1.1", "E1.7"], time_limit=0.0),
    ],
    ids=["all-5..60", "T1.1-sweep-cap-markers", "T1.1-budget-markers"],
)
def test_real_reports_match_json_dumps(make):
    _assert_json_matches_oracle(make())


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
    write_csv(json.loads(dumps_json(report)), tmp_path / "dict.csv")
    assert (tmp_path / "rows.csv").read_bytes() == want
    assert (tmp_path / "dict.csv").read_bytes() == want
