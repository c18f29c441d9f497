"""In-memory spans around the calls into each supercong layer.

The tracer replaces the module attribute that a caller looks up (for example
``supercong.congruences.families.truncated_sum``) with a wrapper that records
one span per call, and puts every original back on ``restore()``. The
package's source is never edited. Spans follow the call stack of one thread,
so a traced run must not use the process pool: the wrappers do not follow
work into worker processes.

A span's self time is its duration minus the time covered by its direct child
spans. The self times of all spans partition the time spent inside top-level
spans, so per layer they add up to the traced wall time less the benchmark's
own code between calls.
"""

from __future__ import annotations

import importlib
import math
from array import array
from time import perf_counter

# (module, attribute, layer). The attribute is the name the caller resolves
# at call time, so the wrapper sits on the caller's side of the boundary.
SPANS = (
    ("supercong.congruences.engine", "run_suite", "engine"),
    ("supercong.congruences.engine", "_row", "engine"),
    ("supercong.congruences.engine", "verify_family_case", "families"),
    ("supercong.congruences.families", "_binom_mod_matrix", "families"),
    ("supercong.congruences.families", "_weight_residues", "families"),
    ("supercong.congruences.families", "truncated_sum", "sums"),
    ("supercong.congruences.families", "padic_from_rational", "padic"),
    ("supercong.congruences.families", "euler_polynomial_half_grid", "combinatorics"),
    ("supercong.congruences.identities", "catalan", "combinatorics"),
    ("supercong.congruences.families", "weighted_char_sum_grid", "curves"),
    ("supercong.congruences.families", "thm11_rhs_grid", "curves"),
    ("supercong.congruences.families", "weighted_char_sum", "curves"),
    ("supercong.congruences.families", "cornacchia_two_squares", "curves"),
    ("supercong.congruences.report", "dumps_json", "report"),
    ("supercong.congruences.report", "report_to_dict", "report"),
    ("supercong.congruences.identities", "run_identities", "identities"),
)
LAYERS = ("padic", "combinatorics", "curves", "sums", "families", "engine", "report", "identities")

# Fixed metric name lists, so that every run prints the same metric set.
TERM_KINDS = (
    "central_sq", "central_shift", "central_double", "cubic", "cubic_shift",
    "cubic_double", "quartic", "quartic_shift", "quartic_double", "sextic",
)
TRACKED_FAMILIES = (
    "E1.3", "E1.4", "E1.7", "R1.4a", "R1.4b", "E1.14", "E1.15", "E1.16",
    "E1.17", "E1.18", "E1.19", "L1", "T1.1",
)
IDENTITY_IDS = (
    "I1", "I2", "I3", "I4", "I4a", "I5", "I6", "I7", "I8", "I9", "I10", "I11",
    "Z1", "Z2", "Z3", "Z4",
)
GROWTH_MIN_PRIME = 100


def _family_tag(args, kwargs, result):
    return (args[0], args[1])


def _sum_tag(args, kwargs, result):
    return (args[0], args[2] + 1)  # (term kind, number of terms)


def _reduce_tag(args, kwargs, result):
    q = args[0]
    return q.numerator.bit_length() + q.denominator.bit_length()


def _char_grid_tag(args, kwargs, result):
    # xpow (rows x p) @ chi block (p x p): rows * p * p multiply-adds; the
    # int64 operands and result it touches, in bytes.
    rows, p = result.shape
    return (result.size, rows * p * p, 8 * (rows * p + p * p + rows * p))


def _thm11_grid_tag(args, kwargs, result):
    # coeff (rows x rows) @ lampow (rows x p), then elementwise on rows x p.
    rows, p = result.shape
    return (result.size, rows * rows * p, 8 * (rows * rows + rows * p + rows * p))


TAGS = {
    "verify_family_case": _family_tag,
    "truncated_sum": _sum_tag,
    "padic_from_rational": _reduce_tag,
    "weighted_char_sum_grid": _char_grid_tag,
    "thm11_rhs_grid": _thm11_grid_tag,
}


class Tracer:
    """Records spans for the attributes in SPANS while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.tags: list = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, _layer in SPANS:
            self._wrap(importlib.import_module(module_name), attr)

    def _wrap(self, module, attr: str) -> None:
        original = getattr(module, attr)
        code = len(self.names)
        self.names.append(attr)
        tag = TAGS.get(attr)
        kind, start, end, child, tags, stack = (
            self.kind, self.start, self.end, self.child, self.tags, self._stack,
        )

        def traced(*args, **kwargs):
            idx = len(start)
            kind.append(code)
            start.append(0.0)
            end.append(0.0)
            child.append(0.0)
            tags.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if stack:
                    child[stack[-1]] += t1 - t0
            if tag is not None:
                tags[idx] = tag(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)

    def unrestored(self) -> list[str]:
        """Wrapped attributes that do not hold their original object."""
        return [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._installed
            if getattr(module, attr) is not original
        ]

    def spans(self):
        """(attribute, duration, self time, tag) for every recorded span."""
        for i in range(len(self.start)):
            dur = self.end[i] - self.start[i]
            yield self.names[self.kind[i]], dur, dur - self.child[i], self.tags[i]


def _hit_ratio(cached) -> float:
    info = cached.cache_info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) on log(x); 0 with fewer than two points."""
    if len(points) < 2:
        return 0.0
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(tracer: Tracer, identity_results, report_chars: int) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass, and the tables behind them.

    Returns (metrics, tables): metrics maps name -> (value, unit); tables
    holds per-layer self time, per-family and per-prime seconds.
    """
    from supercong import curves
    from supercong.congruences import families

    layer_of = {attr: layer for _module, attr, layer in SPANS}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    kind_s = dict.fromkeys(TERM_KINDS, 0.0)
    family_s: dict[str, float] = {}
    prime_s: dict[int, float] = {}
    terms = kbits = cells = macs = grid_bytes = 0
    for attr, dur, own, tag in tracer.spans():
        layer_self[layer_of[attr]] += own
        calls[attr] = calls.get(attr, 0) + 1
        total[attr] = total.get(attr, 0.0) + dur
        self_s[attr] = self_s.get(attr, 0.0) + own
        if attr == "verify_family_case":
            fid, p = tag
            family_s[fid] = family_s.get(fid, 0.0) + dur
            prime_s[p] = prime_s.get(p, 0.0) + dur
        elif attr == "truncated_sum":
            kind_s[tag[0]] = kind_s.get(tag[0], 0.0) + dur
            terms += tag[1]
        elif attr == "padic_from_rational":
            kbits += tag
        elif attr in ("weighted_char_sum_grid", "thm11_rhs_grid"):
            cells += tag[0]
            macs += tag[1]
            grid_bytes += tag[2]

    def n(*attrs):
        return sum(calls.get(a, 0) for a in attrs)

    def t(*attrs):
        return sum(total.get(a, 0.0) for a in attrs)

    m: dict[str, tuple[float, str]] = {}
    m["padic.reduce_calls"] = (n("padic_from_rational"), "count")
    m["padic.reduce_s"] = (t("padic_from_rational"), "s")
    m["padic.reduce_input_kbits"] = (kbits / 1000, "kbit")
    m["sums.calls"] = (n("truncated_sum"), "count")
    m["sums.terms"] = (terms, "count")
    m["sums.s"] = (t("truncated_sum"), "s")
    for kind in TERM_KINDS:
        m[f"sums.{kind}.s"] = (kind_s[kind], "s")
    m["combinatorics.calls"] = (n("euler_polynomial_half_grid", "catalan"), "count")
    m["combinatorics.s"] = (t("euler_polynomial_half_grid", "catalan"), "s")
    m["curves.grid_s"] = (t("weighted_char_sum_grid", "thm11_rhs_grid"), "s")
    m["curves.grid_cells"] = (cells, "count")
    m["curves.grid_macs_computed"] = (macs, "count")
    m["curves.grid_bytes_computed"] = (grid_bytes / 1e6, "MB")
    m["curves.scalar_s"] = (t("weighted_char_sum", "cornacchia_two_squares"), "s")
    m["curves.chi_table_hit_ratio"] = (_hit_ratio(curves._chi_table), "ratio")
    m["curves.central_binomials_hit_ratio"] = (_hit_ratio(curves.central_binomials_mod), "ratio")
    for fid in TRACKED_FAMILIES:
        m[f"family.{fid}.s"] = (family_s.get(fid, 0.0), "s")
    m["family.rest.s"] = (
        sum((s for fid, s in family_s.items() if fid not in TRACKED_FAMILIES), 0.0), "s"
    )
    m["families.self_s"] = (layer_self["families"], "s")
    m["families.binom_matrix_s"] = (t("_binom_mod_matrix"), "s")
    m["families.binom_matrix_hit_ratio"] = (_hit_ratio(families._binom_mod_matrix), "ratio")
    m["families.weight_residues_s"] = (t("_weight_residues"), "s")
    m["families.weight_residues_hit_ratio"] = (_hit_ratio(families._weight_residues), "ratio")
    m["families.growth_exponent"] = (
        _slope([(p, s) for p, s in prime_s.items() if p >= GROWTH_MIN_PRIME and s > 0]),
        "exponent",
    )
    m["engine.rows"] = (n("_row"), "count")
    m["engine.row_build_s"] = (t("_row"), "s")
    m["engine.self_s"] = (self_s.get("run_suite", 0.0), "s")
    m["engine.slowest_prime_s"] = (max(prime_s.values(), default=0.0), "s")
    m["report.to_dict_s"] = (t("report_to_dict"), "s")
    m["report.encode_s"] = (self_s.get("dumps_json", 0.0), "s")
    m["report.mb"] = (report_chars / 1e6, "MB")
    elapsed = {r.id: r.elapsed for r in identity_results}
    for iid in IDENTITY_IDS:
        m[f"identity.{iid}.s"] = (elapsed.get(iid, 0.0), "s")
    m["identities.cases"] = (sum(r.checked for r in identity_results), "count")
    tables = {"layer_self_s": layer_self, "family_s": family_s, "prime_s": prime_s}
    return m, tables
