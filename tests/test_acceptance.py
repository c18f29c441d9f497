"""Acceptance gate: one test per primary criterion, run with plain pytest.

Each function prints a single verdict line (visible with -r or on failure);
pytest's own PASSED/FAILED per test is the machine-readable signal.
"""

import os
import random
import time
from fractions import Fraction
from math import comb, isqrt

import numpy as np

from supercong.combinatorics import (
    bernoulli_number,
    binomial_p_valuation,
    dual_transform,
    euler_polynomial,
)
from supercong.congruences import (
    family_ids,
    get_family,
    identity_catalog,
    run_identities,
    run_suite,
    truncated_sum,
    verify_family_case,
)
from supercong.curves import (
    char_sum_table,
    cornacchia_two_squares,
    count_points,
    thm11_rhs_grid,
    weighted_char_sum,
    weighted_char_sum_grid,
)
from supercong.errors import WrongResidueClass
from supercong.padic import primes_between

_WORKERS = min(4, os.cpu_count() or 1)


def _verdict(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_criterion_1_closed_form_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for q in primes_between(5, 100):
        lhs = weighted_char_sum_grid(q)
        rhs = thm11_rhs_grid(q)
        assert np.array_equal(lhs, rhs), q
        checked += lhs.size
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 1",
        elapsed < 60,
        f"closed form == weighted trace on {checked} (p, lam, d) triples, {elapsed:.1f}s",
    )


def test_criterion_2_point_count_identity():
    checked = 0
    for q in primes_between(5, 200):
        table = char_sum_table(q)
        for lam in range(q):
            assert count_points(q, lam) == q + 1 + table[lam], (q, lam)
            checked += 1
    _verdict("criterion 2", True, f"#E = p + 1 + a_p exactly on {checked} curves")


def test_criterion_3_catalog_sweep_5_to_300():
    t0 = time.perf_counter()
    selected = [fid for fid in family_ids() if fid != "T1.1"]
    report = run_suite(primes_between(5, 300), selected, parallelism=_WORKERS)
    elapsed = time.perf_counter() - t0
    families_seen = {r.family for r in report.cases}
    missing = set(selected) - families_seen
    ok = report.failed == 0 and not missing
    _verdict(
        "criterion 3",
        ok,
        f"{len(selected)} families, {report.passed} rows pass, {report.failed} fail, "
        f"{report.skipped} informational skips, {elapsed:.1f}s",
    )


def test_criterion_4_spot_values():
    rows = {r.params["d"]: r for r in verify_family_case("E1.4", 5)}
    ok = (rows[0].lhs, rows[0].rhs, rows[0].modulus) == (101, 101, 125)

    (morley,) = verify_family_case("I8", 7)
    ok = ok and (morley.lhs, morley.rhs, morley.modulus) == (20, 20, 343)

    (g1,) = verify_family_case("G1", 13)
    (g2,) = verify_family_case("G2", 13)
    ok = ok and (g1.lhs, g1.rhs, g1.modulus) == (7, 7, 13)
    ok = ok and comb(6, 3) == 20 and 20 % 13 == 7
    ok = ok and (g2.lhs, g2.rhs, g2.modulus) == (20, 20, 169)

    spot = truncated_sum("central_shift", 7, 3, 8, d=2)
    ok = ok and spot == Fraction(21, 64) and spot.numerator % 7 == 0
    ok = ok and weighted_char_sum(7, -1, 1) == 4
    _verdict("criterion 4", ok, "all five hand-checked spot values reproduce")


def test_criterion_5_identity_suite():
    t0 = time.perf_counter()
    by_kind = {"recurrence": [], "other": []}
    for ident in identity_catalog():
        by_kind["recurrence" if ident.kind == "recurrence" else "other"].append(ident.id)
    results = run_identities(by_kind["other"], 100) + run_identities(by_kind["recurrence"], 60)
    elapsed = time.perf_counter() - t0
    cases = sum(r.checked for r in results)
    bad = [r.id for r in results if not r.ok or r.vacuous]
    _verdict(
        "criterion 5",
        not bad and elapsed < 120,
        f"{len(results)} identities, {cases} cases exact, {elapsed:.1f}s",
    )


def test_criterion_6a_dual_involution():
    rng = random.Random(424242)
    for _ in range(500):
        a = [rng.randint(-99, 99) for _ in range(rng.randint(0, 50))]
        assert dual_transform(dual_transform(a)) == a
    _verdict("criterion 6a", True, "dual transform is an involution on 500 random sequences")


def test_criterion_6b_bernoulli_self_duality():
    bs = [bernoulli_number(n) for n in range(41)]
    dual = dual_transform(bs)
    ok = dual[0] == bs[0] and all(dual[n] == bs[n] + n for n in range(2, 41))
    _verdict("criterion 6b", ok, "signed binomial dual of B_n is B_n + n up to n = 40")


def test_criterion_6c_euler_polynomial_relations():
    rng = random.Random(434343)
    for n in range(41):
        en = euler_polynomial(n)
        for _ in range(2):
            x = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
            assert en(x) + en(x + 1) == 2 * x**n
        if n >= 2 and n % 2 == 0:
            assert en(Fraction(0)) == 0
    _verdict("criterion 6c", True, "E_n(x) + E_n(x+1) = 2x^n and E_n(0) = 0 up to n = 40")


def test_criterion_6d_kummer_valuation():
    def valuation(v, p):
        out = 0
        while v and v % p == 0:
            v //= p
            out += 1
        return out

    checked = 0
    for p in (5, 7, 11, 13):
        for n in range(301):
            for k in range(n + 1):
                assert binomial_p_valuation(n, k, p) == valuation(comb(n, k), p)
                checked += 1
    _verdict("criterion 6d", True, f"carry count matches v_p(binom) on {checked} entries")


def test_criterion_6e_cornacchia_vs_exhaustive():
    checked = 0
    for q in primes_between(5, 10**4):
        if q % 4 != 1:
            try:
                cornacchia_two_squares(q)
            except WrongResidueClass:
                continue
            raise AssertionError(f"{q} should have been rejected")
        two = cornacchia_two_squares(q)
        assert two.x * two.x + two.y * two.y == q
        brute = next(
            (x, isqrt(q - x * x))
            for x in range(1, isqrt(q) + 1)
            if isqrt(q - x * x) ** 2 == q - x * x
        )
        odd, even = (brute[0], brute[1]) if brute[0] % 2 else (brute[1], brute[0])
        assert (two.x, two.y) == (odd if odd % 4 == 1 else -odd, even), q
        checked += 1
    _verdict("criterion 6e", True, f"two-square split matches exhaustive search at {checked} primes")


def test_criterion_6f_hasse_sanity():
    for q in primes_between(5, 500):
        table = char_sum_table(q)
        bound = 2 * isqrt(q) + 1
        for lam in range(q):
            if lam in (0, 1):
                continue
            assert abs(int(table[lam])) <= bound, (q, lam)
    _verdict("criterion 6f", True, "|a_p| <= 2 sqrt(p) for every curve with p <= 500")


def test_criterion_7_negative_control():
    # the p = 5 instance is genuinely false; the harness must flag it when
    # forced to run, and the applicability predicate must keep it out of sweeps
    forced = list(get_family("B4").cases(5))
    detected = len(forced) == 1 and forced[0].passed is False
    values_right = comb(24, 12) % 25 == 6 and forced[0].lhs == 6 and forced[0].rhs == 20
    excluded = not get_family("B4").applies(5) and len(verify_family_case("B4", 5)) == 0
    swept = run_suite([5], ["B4"])
    _verdict(
        "criterion 7",
        detected and values_right and excluded and swept.ok and not swept.cases,
        "binom(24,12) == 6 != 20 (mod 25) is caught, and the sweep excludes p = 5",
    )
