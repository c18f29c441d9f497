"""Report serialization: canonical JSON and a CSV mirror of the case rows.

Key order is fixed so that parse -> serialize round-trips byte-identically.
The JSON is exactly ``json.dumps(report_to_dict(r), indent=2,
ensure_ascii=False) + "\\n"``, but only the small ``run`` and ``summary``
blocks go through ``json.dumps``: each case row is written from its fields
by one fixed template in that layout, because the indenting encoder is pure
Python and would dominate a large report. A ``SuiteReport`` and its parsed
dict share that row writer, and the CSV reads the same row fields. A test
pins the equality with the ``json.dumps`` route.
"""

from __future__ import annotations

import csv
import json
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator

from ..padic import signed_residue
from .engine import SuiteReport, VerificationReport

__all__ = ["report_to_dict", "dumps_json", "write_json", "write_csv", "CSV_COLUMNS"]

CSV_COLUMNS = (
    "family",
    "p",
    "params",
    "modulus",
    "lhs",
    "rhs",
    "lhs_signed",
    "rhs_signed",
    "pass",
    "note",
)
_ROW_KEYS = CSV_COLUMNS[:-1]  # a row's keys; "note" follows only when there is one

# One case row in the json.dumps(indent=2) layout, at its depth in the report.
_ROW = (
    '    {\n      "family": %s,\n      "p": %d,\n      "params": %s,\n      "modulus": %d,\n'
    '      "lhs": %d,\n      "rhs": %d,\n      "lhs_signed": %d,\n      "rhs_signed": %d,\n'
    '      "pass": %s%s\n    }'
)
_LITERAL = {True: "true", False: "false", None: "null"}


def _fields(row: VerificationReport) -> tuple:
    """A row's values in CSV_COLUMNS order; note is None when absent."""
    lhs, rhs, modulus = row.lhs, row.rhs, row.modulus
    return (
        row.family,
        row.p,
        row.params,
        modulus,
        lhs,
        rhs,
        signed_residue(lhs, modulus),
        signed_residue(rhs, modulus),
        row.passed,
        row.note,
    )


def _dict_fields(case: dict) -> tuple:
    return (*(case[key] for key in _ROW_KEYS), case.get("note"))


def _as_dict(fields: tuple) -> dict:
    *values, note = fields
    out = dict(zip(_ROW_KEYS, values))
    if note is not None:
        out["note"] = note
    return out


def _run_block(report: SuiteReport) -> dict:
    return {"config": report.config, "started": report.started, "elapsed": round(report.elapsed, 3)}


def _summary_block(report: SuiteReport) -> dict:
    passed, failed, skipped = report.counts()
    return {"pass": passed, "fail": failed, "skipped": skipped}


def report_to_dict(report: SuiteReport) -> dict:
    return {
        "run": _run_block(report),
        "cases": [_as_dict(_fields(c)) for c in report.cases],
        "summary": _summary_block(report),
    }


def _nested(value, depth: int) -> str:
    """json.dumps(value, indent=2) for a value nested depth levels deep."""
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n" + "  " * depth)


def _params_text(params) -> str:
    if type(params) is not dict:
        return _nested(params, 3)
    if not params:
        return "{}"
    items = []
    for key, value in params.items():
        if type(key) is not str:
            return _nested(params, 3)
        kind = type(value)
        if kind is int:  # %d of an exact int is its repr
            items.append("%s: %d" % (encode_basestring(key), value))
        elif kind is str:
            items.append("%s: %s" % (encode_basestring(key), encode_basestring(value)))
        else:
            items.append("%s: %s" % (encode_basestring(key), _nested(value, 4)))
    return "{\n        " + ",\n        ".join(items) + "\n      }"


def _row_text(fields: tuple) -> str:
    family, p, params, modulus, lhs, rhs, lhs_signed, rhs_signed, passed, note = fields
    if type(family) is not str or not (
        type(p) is type(modulus) is type(lhs) is type(rhs) is type(lhs_signed) is type(rhs_signed) is int
    ):
        return "    " + _nested(_as_dict(fields), 2)
    pass_text = _LITERAL[passed] if passed is None or type(passed) is bool else _nested(passed, 3)
    if note is None:
        tail = ""
    else:
        tail = ',\n      "note": ' + (encode_basestring(note) if type(note) is str else _nested(note, 3))
    return _ROW % (
        encode_basestring(family),
        p,
        _params_text(params),
        modulus,
        lhs,
        rhs,
        lhs_signed,
        rhs_signed,
        pass_text,
        tail,
    )


def _case_row_text(row: VerificationReport) -> str:
    return _row_text(_fields(row))


def _dict_row_text(case) -> str:
    keys = tuple(case) if type(case) is dict else None
    if keys == _ROW_KEYS or (keys == CSV_COLUMNS and case["note"] is not None):
        return _row_text(_dict_fields(case))
    return "    " + _nested(case, 2)  # not a row of this schema: no template applies


def _cases_text(rows: Iterable[str]) -> Iterator[str]:
    first = True
    for text in rows:
        yield ("[\n" if first else ",\n") + text
        first = False
    yield "[]" if first else "\n  ]"


def _json_chunks(report: SuiteReport | dict) -> Iterator[str]:
    """The report's JSON text, in pieces of at most one row each."""
    if isinstance(report, dict):
        blocks, row_text = report, _dict_row_text
    else:
        blocks = {"run": _run_block(report), "cases": report.cases, "summary": _summary_block(report)}
        row_text = _case_row_text
    if not blocks or any(type(key) is not str for key in blocks):
        yield json.dumps(blocks, indent=2, ensure_ascii=False) + "\n"
        return
    for i, (key, value) in enumerate(blocks.items()):
        yield ("{\n  " if i == 0 else ",\n  ") + encode_basestring(key) + ": "
        if key == "cases" and type(value) is list:
            yield from _cases_text(map(row_text, value))
        else:
            yield _nested(value, 1)
    yield "\n}\n"


def dumps_json(report: SuiteReport | dict) -> str:
    return "".join(_json_chunks(report))


def write_json(report: SuiteReport | dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(report))


def _csv_row(fields: tuple) -> list:
    family, p, params, modulus, lhs, rhs, lhs_signed, rhs_signed, passed, note = fields
    return [
        str(family),
        str(p),
        json.dumps(params, separators=(",", ":")),
        str(modulus),
        str(lhs),
        str(rhs),
        str(lhs_signed),
        str(rhs_signed),
        "null" if passed is None else str(passed).lower(),
        "" if note is None else note,
    ]


def write_csv(report: SuiteReport | dict, path: str | Path) -> None:
    if isinstance(report, dict):
        fields = map(_dict_fields, report["cases"])
    else:
        fields = map(_fields, report.cases)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(_csv_row, fields))
