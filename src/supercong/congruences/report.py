"""Report serialization: canonical JSON and a CSV mirror of the case rows.

Key order is fixed so that parse -> serialize round-trips byte-identically.
The JSON is exactly ``json.dumps(report_to_dict(r), indent=2,
ensure_ascii=False) + "\\n"``. The only hand-written layout is the row
layout, because the indenting encoder is pure Python and would dominate a
large report: a ``SuiteReport`` is written from its case blocks, and each
row is a run head plus a row tail. A head, up to the modulus, is the sum of
one piece per param column of its run: the key text and the row's value,
with the run's lead (family, p) before the first column and its closing
text (modulus) after the last. A column of exact ints, or an int64 array,
renders each distinct value once per run, so the p(p+1)/2 heads of a T1.1
block at p take p + (p+1)/2 rendered pieces; any other column renders row
by row. _run_heads is the one head builder of both writers.
The tail, from "lhs" on, depends only on the row's (lhs, rhs, verdict) and
the block's modulus, so a per-block memo formats each distinct key once,
on its first row; a noted row takes its key's tail with the note put in
before the closing brace. Everything
else goes through ``json.dumps``: the small ``run`` and ``summary``
blocks, the rows of a block off that schema (a key that is not text, a
residue that is not an exact int, a verdict that is not a bool or None),
and a parsed report dict as a whole. The JSON text comes in pieces of at
most _BATCH rows, with each separator a piece of its own: write_json
streams them to the file, and dumps_json appends them to one str, so it
holds about one copy of the text. An int64 array column, as T1.1's params
and residues are, is read as it is, with no list copy. The CSV is written
from a ``SuiteReport`` only, through the same gate and the same walk
(_rows): a row is a head tuple (family, p, compact params, modulus) plus
its memoised tail tuple (lhs, rhs, both signed views, pass literal, note),
and a block off the schema goes row by row. _Tails.__missing__ is the one
place either writer takes a signed view; a parsed report dict has no CSV
route. Tests pin the equality with the ``json.dumps`` route and with a CSV
written row by row.
"""

from __future__ import annotations

import csv
import json
from array import array
from functools import partial, reduce
from itertools import chain, islice, repeat
from json.encoder import encode_basestring, encode_basestring_ascii
from operator import add
from pathlib import Path
from typing import Callable, Iterable, Iterator

from ..padic import signed_residue
from .columns import CaseBlock, VerificationReport, _spans
from .engine import SuiteReport

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

# One case row in the json.dumps(indent=2) layout, at its depth in the report,
# is a run head, up to the modulus (see _block_rows), and a row tail from lhs on.
_END = "\n    }"
_TAIL = '      "lhs": %d,\n      "rhs": %d,\n      "lhs_signed": %d,\n      "rhs_signed": %d,\n      "pass": %s' + _END
_NOTE = ',\n      "note": '
_LITERAL = {True: "true", False: "false", None: "null"}
_BATCH = 1024  # rows per written piece


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
        "cases": [_as_dict(_fields(row)) for block in report.blocks for row in block],
        "summary": _summary_block(report),
    }


def _nested(value, depth: int) -> str:
    """json.dumps(value, indent=2) for a value nested depth levels deep."""
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n" + "  " * depth)


def _value_text(value) -> str:
    """A param value in the row layout."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring(value)
    return _nested(value, 4)


def _is_int64_array(residues: list | array) -> bool:
    """Whether residues is an int64 array, as _compact stores a side that fits."""
    return type(residues) is array and residues.typecode == "q"


def _run_heads(lead: str, keys: list[str], columns: tuple, rows: int, close: str, text: Callable) -> Iterator[str]:
    """The heads of the rows of one run: lead, then per column its key text
    and the row's value, with "," between columns, then close. Each column
    is a list of pieces, with lead before the first and close after the last:
    an int64 array or a column of exact ints renders each distinct value once,
    through int.__repr__; any other column renders each row through text, as
    a memo would collide True with 1 and -0.0 with 0.0. A row's head is the
    sum of its pieces, and a run without keys has one head."""
    if not keys:
        return repeat(lead + close, rows)
    pieces, last = [], len(keys) - 1
    for i, (key, column) in enumerate(zip(keys, columns)):
        before = lead + key if i == 0 else key
        after = close if i == last else ","
        if _is_int64_array(column) or {*map(type, column)} == {int}:
            memo = {value: before + int.__repr__(value) + after for value in {*column}}
            pieces.append(map(memo.__getitem__, column))
        else:
            pieces.append([before + text(value) + after for value in column])
    return reduce(partial(map, add), pieces)


def _fits_templates(block: CaseBlock) -> bool:
    """Whether every row of the block fits the row templates: text family
    and notes, exact int p, modulus and residues, boolean or None verdicts."""
    return (
        type(block.family) is str
        and type(block.p) is type(block.modulus) is int
        and all(_is_int64_array(side) or {*map(type, side)} <= {int} for side in (block.lhs, block.rhs))
        and {*map(type, block.verdicts)} <= {bool, type(None)}
        and all(type(note) is str for note in block.notes.values())
        and all(type(key) is str for keys, _stop, _columns in block.runs for key in keys)
    )


class _Tails(dict):
    """One block's row tails without a note, keyed by (lhs, rhs, verdict):
    each key is rendered once, on its first row, from (lhs, rhs, lhs_signed,
    rhs_signed, pass literal)."""

    def __init__(self, modulus: int, render: Callable[[tuple], str | tuple]) -> None:
        self.modulus, self.render = modulus, render

    def __missing__(self, key: tuple) -> str | tuple:
        lhs, rhs, verdict = key
        modulus = self.modulus
        signed = signed_residue(lhs, modulus), signed_residue(rhs, modulus)
        tail = self[key] = self.render((lhs, rhs, *signed, _LITERAL[verdict]))
        return tail


def _rows(block: CaseBlock, heads: Iterable, render: Callable, noted: Callable) -> Iterator:
    """head + tail per row of a block that fits the templates: heads gives one
    head per row, and noted(tail, note) a noted row's tail."""
    tails = list(map(_Tails(block.modulus, render).__getitem__, zip(block.lhs, block.rhs, block.verdicts)))
    for i, note in block.notes.items():
        tails[i] = noted(tails[i], note)
    return map(add, heads, tails)


def _noted_text(tail: str, note: str) -> str:
    return tail[: -len(_END)] + _NOTE + encode_basestring(note) + _END


def _block_rows(block: CaseBlock) -> Iterator[str]:
    """The JSON text of every row of the block."""
    if not _fits_templates(block):
        return ("    " + _nested(_as_dict(_fields(row)), 2) for row in block)
    lead = '    {\n      "family": %s,\n      "p": %d,\n      "params": {' % (encode_basestring(block.family), block.p)
    modulus = ',\n      "modulus": %d,\n' % block.modulus
    heads = []
    for keys, start, stop, columns in _spans(block.runs):
        names = ["\n        %s: " % encode_basestring(key) for key in keys]
        close = ("\n      }" if keys else "}") + modulus
        heads.append(_run_heads(lead, names, columns, stop - start, close, _value_text))
    return _rows(block, chain.from_iterable(heads), _TAIL.__mod__, _noted_text)


def _batches(texts: Iterator[str]) -> Iterator[str]:
    """Row texts joined into pieces of at most _BATCH rows."""
    while batch := list(islice(texts, _BATCH)):
        yield ",\n".join(batch)


def _cases_text(pieces: Iterable[str]) -> Iterator[str]:
    """The cases list from its pieces, each separator a piece of its own, so no piece is copied."""
    first = True
    for text in pieces:
        yield "[\n" if first else ",\n"
        yield text
        first = False
    yield "[]" if first else "\n  ]"


def _json_chunks(report: SuiteReport | dict) -> Iterator[str]:
    """The report's JSON text, with the cases in pieces of at most _BATCH rows each."""
    if isinstance(report, dict):
        yield json.dumps(report, indent=2, ensure_ascii=False) + "\n"
        return
    yield '{\n  "run": ' + _nested(_run_block(report), 1) + ',\n  "cases": '
    yield from _cases_text(_batches(chain.from_iterable(map(_block_rows, report.blocks))))
    yield ',\n  "summary": ' + _nested(_summary_block(report), 1) + "\n}\n"


def dumps_json(report: SuiteReport | dict) -> str:
    # CPython grows a str in place on += while this local holds its only
    # reference, so the peak is the text plus one piece, where "".join would
    # hold every piece and the joined copy at once. Elsewhere the loop gives
    # the same text, copying it on each piece.
    text = ""
    for piece in _json_chunks(report):
        text += piece
    return text


def write_json(report: SuiteReport | dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(report))


def _csv_value(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _csv_fields(row: VerificationReport) -> tuple:
    """A row off the templates' schema as CSV fields."""
    family, p, params, modulus, *residues, passed, note = _fields(row)
    return str(family), str(p), _csv_value(params), str(modulus), *residues, _LITERAL[passed], note or ""


def _csv_block_rows(block: CaseBlock) -> Iterator[tuple]:
    """The CSV fields of every row of the block."""
    if not _fits_templates(block):
        return map(_csv_fields, block)
    params = (  # each row's params in compact JSON
        _run_heads("{", [encode_basestring_ascii(key) + ":" for key in keys], columns, stop - start, "}", _csv_value)
        for keys, start, stop, columns in _spans(block.runs)
    )
    heads = zip(repeat(block.family), repeat(block.p), chain.from_iterable(params), repeat(block.modulus))
    return _rows(block, heads, lambda values: (*values, ""), lambda tail, note: (*tail[:-1], note))


def write_csv(report: SuiteReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(chain.from_iterable(map(_csv_block_rows, report.blocks)))
