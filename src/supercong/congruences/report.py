"""Report serialization: canonical JSON and a CSV mirror of the case rows.

Key order is fixed so that parse -> serialize round-trips byte-identically.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

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


def _case_to_dict(row: VerificationReport) -> dict:
    out = {
        "family": row.family,
        "p": row.p,
        "params": row.params,
        "modulus": row.modulus,
        "lhs": row.lhs,
        "rhs": row.rhs,
        "lhs_signed": signed_residue(row.lhs, row.modulus),
        "rhs_signed": signed_residue(row.rhs, row.modulus),
        "pass": row.passed,
    }
    if row.note is not None:
        out["note"] = row.note
    return out


def report_to_dict(report: SuiteReport) -> dict:
    return {
        "run": {
            "config": report.config,
            "started": report.started,
            "elapsed": round(report.elapsed, 3),
        },
        "cases": [_case_to_dict(c) for c in report.cases],
        "summary": {
            "pass": report.passed,
            "fail": report.failed,
            "skipped": report.skipped,
        },
    }


def dumps_json(report: SuiteReport | dict) -> str:
    data = report if isinstance(report, dict) else report_to_dict(report)
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def write_json(report: SuiteReport | dict, path: str | Path) -> None:
    Path(path).write_text(dumps_json(report), encoding="utf-8")


def _csv_value(key: str, case: dict) -> str:
    if key == "params":
        return json.dumps(case["params"], separators=(",", ":"))
    if key == "pass":
        value = case["pass"]
        return "null" if value is None else str(value).lower()
    if key == "note":
        return case.get("note", "")
    return str(case[key])


def write_csv(report: SuiteReport | dict, path: str | Path) -> None:
    data = report if isinstance(report, dict) else report_to_dict(report)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for case in data["cases"]:
            writer.writerow([_csv_value(key, case) for key in CSV_COLUMNS])
