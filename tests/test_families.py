"""Congruence catalog: integrity, counterpart oracles, anchors, skip rules."""

import random
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import comb
from operator import mul

import numpy as np
import pytest

from supercong.combinatorics import dual_transform, euler_polynomial
from supercong.congruences import (
    TERM_KINDS,
    family_catalog,
    family_ids,
    get_family,
    run_suite,
    truncated_sum,
    verify_family_case,
)
from supercong.congruences import families, sums
from supercong.congruences.columns import CaseBlock, VerificationReport
from supercong.congruences.families import (
    _SPOTS_CUBIC,
    Sum,
    _binom_mod_matrix,
    _chain_family,
    _dual_family,
    _family,
    _l1_lhs,
    _over_4_to_d,
    _poly_family,
    _weight_residues,
    _weight_vectors,
)
from supercong.congruences.identities import M_SET
from supercong.curves import char_sum_a, thm11_rhs, weighted_char_sum
from supercong.errors import UnknownId
from supercong.padic import legendre_symbol, padic_from_rational, primes_between

# Legendre-symbol signs of the polynomial families, from Euler's criterion
# rather than the catalog's residue-class helpers: (p/3) = (-3/p).
_EPS = {
    "cubic": lambda q: legendre_symbol(-3, q),
    "quartic": lambda q: legendre_symbol(-2, q),
    "sextic": lambda q: legendre_symbol(-1, q),
}
_BASES = {"cubic": 27, "quartic": 64, "sextic": 432}


def test_catalog_integrity():
    ids = family_ids()
    assert len(ids) == len(set(ids)) == 57
    for fid in ids:
        fam = get_family(fid)
        assert fam.id == fid
        assert fam.modulus_power in (1, 2, 3)
        assert fam.description
    assert get_family("T1.1").heavy
    assert sum(1 for fam in family_catalog() if fam.heavy) == 1
    with pytest.raises(UnknownId):
        get_family("E9.99")


def test_every_family_passes_small_primes():
    for q in primes_between(5, 60):
        for fid in family_ids():
            for row in verify_family_case(fid, q):
                assert row.passed is not False, (fid, q, row.params)


def test_every_row_is_canonical_mod_its_catalog_modulus():
    # and every family's block is well formed: runs whose stops increase to the
    # row count, a column of its run's length per key, a verdict per row, notes
    # in range, and residues 0 on a skipped row
    for q in primes_between(5, 60):
        for fam in family_catalog():
            if not fam.applies(q):
                continue
            modulus = q**fam.modulus_power
            cases = fam.cases(q)
            assert type(cases) is CaseBlock, fam.id
            for case in cases:
                assert type(case.lhs) is int and type(case.rhs) is int, (fam.id, q, case.params)
                assert 0 <= case.lhs < modulus and 0 <= case.rhs < modulus, (fam.id, q, case.params)
            rows = len(cases.lhs)
            assert len(cases.rhs) == rows, (fam.id, q)
            start = 0
            for keys, stop, columns in cases.runs:
                assert start < stop and len(keys) == len(columns), (fam.id, q, keys)
                assert all(len(column) == stop - start for column in columns), (fam.id, q, keys)
                start = stop
            assert start == rows == len(cases.verdicts), (fam.id, q)
            assert all(0 <= i < rows for i in cases.notes), (fam.id, q)
            skips = [i for i, verdict in enumerate(cases.verdicts) if verdict is None]
            assert all(cases.lhs[i] == cases.rhs[i] == 0 for i in skips), (fam.id, q)


def _recording(original, power_of, powers):
    def spy(*args, **kwargs):
        powers.append(power_of(*args, **kwargs))
        return original(*args, **kwargs)

    return spy


def test_every_generator_reduces_at_its_catalog_power(monkeypatch):
    # a row's modulus is p^K with K from the catalog entry, not from the
    # generator, so every power a generator reduces at must be that K
    powers = []
    spies = {
        "truncated_sum": lambda kind, q, upper, m, *, power=None, **kwargs: power,
        "padic_from_rational": lambda value, p, precision: precision,
        "_weight_vectors": lambda kind, base, q, power, count, **kwargs: power,
    }
    for name, power_of in spies.items():
        monkeypatch.setattr(families, name, _recording(getattr(families, name), power_of, powers))
    for fam in family_catalog():
        recorded = 0
        for q in (13, 19, 23, 29, 31, 37):
            if fam.applies(q):
                powers.clear()
                list(fam.cases(q))
                assert set(powers) <= {fam.modulus_power}, (fam.id, q, powers)
                recorded += len(powers)
        # T1.1 reads mod-p grids, and the lemmas I8-I11 reduce at p^K by hand
        # (q**power, with power the catalog's K), through none of the spied calls
        assert recorded or fam.id in ("T1.1", "I8", "I9", "I10", "I11"), fam.id


def test_applicability_predicates():
    assert not get_family("B4").applies(5)
    assert get_family("B4").applies(7)
    assert not get_family("C1.2g").applies(7)
    assert not get_family("C1.2h").applies(7)
    for fid in ("G1", "G2", "G3", "G4"):
        assert get_family(fid).applies(13)
        assert not get_family(fid).applies(7)
    for fid in ("E1.5", "E1.6", "A1", "A2", "C1.1f"):
        assert get_family(fid).applies(7)
        assert not get_family(fid).applies(13)
    assert get_family("E1.20").applies(7)
    assert not get_family("E1.20").applies(11)
    assert get_family("E1.21").applies(11)
    assert not get_family("E1.21").applies(13)
    assert get_family("E1.22").applies(13)
    assert not get_family("E1.22").applies(7)


def test_trace_vanishes_exactly_for_symmetric_curves():
    # stronger than the catalog's mod-p rows: the sums are exactly zero
    for q in primes_between(5, 300):
        if q % 4 == 3:
            assert char_sum_a(q, 2) == 0, q
            assert char_sum_a(q, -1) == 0, q


def test_weighted_trace_closed_form_direct():
    for q in primes_between(5, 200):
        if q % 4 != 3:
            continue
        n = (q - 1) // 2
        lhs = weighted_char_sum(q, 2, 1)
        closed = (-1) ** ((q - 3) // 4) * comb(n, (n - 1) // 2)
        split = weighted_char_sum(q, -1, 0) + weighted_char_sum(q, -1, 1)
        assert lhs % q == closed % q, q
        assert lhs % q == split % q, q


def test_base_shift_sum_numerator_divisible_by_p():
    # exact-integer counterpart of the mod-p vanishing claim
    for q in primes_between(5, 200):
        n = (q - 1) // 2
        val = truncated_sum("central_shift", q, n, 8, d=n - 1)
        assert val.numerator % q == 0, q


def test_shifted_central_sum_euler_polynomial_route():
    # third precision via the full polynomial object, not the stepped grid
    for q in primes_between(5, 150):
        n = (q - 1) // 2
        sign = 1 if q % 4 == 1 else -1
        ep = euler_polynomial(q - 3)
        for d in (0, 1, n):
            lhs = truncated_sum("central_shift", q, n, 16, d=d)
            rhs = sign + Fraction(q * q * (-1) ** d, 4) * ep(Fraction(2 * d + 1, 2))
            diff = lhs - rhs
            assert diff.denominator % q != 0
            assert diff.numerator * pow(diff.denominator, -1, q**3) % q**3 == 0, (q, d)


def test_spot_anchor_rows():
    rows = {tuple(r.params.items()): r for r in verify_family_case("E1.4", 5)}
    row = rows[(("d", 0),)]
    assert (row.lhs, row.rhs, row.modulus) == (101, 101, 125)

    (morley,) = verify_family_case("I8", 7)
    assert (morley.lhs, morley.rhs, morley.modulus) == (20, 20, 343)

    (g1,) = verify_family_case("G1", 13)
    assert (g1.lhs, g1.rhs, g1.modulus) == (7, 7, 13)

    (g2,) = verify_family_case("G2", 13)
    assert (g2.lhs, g2.rhs, g2.modulus) == (20, 20, 169)

    (dbase,) = verify_family_case("D-base", 7)
    assert dbase.params == {"d": 2}
    assert dbase.lhs == 0 and dbase.passed


def test_binomial_families_match_direct_arithmetic():
    for q in primes_between(7, 120):
        for fid, top in (
            ("B1", (2 * q - 2, q - 1)),
            ("B2", (3 * q - 3, q - 1)),
            ("B3", (4 * q - 4, 2 * q - 2)),
            ("B4", (6 * q - 6, 3 * q - 3)),
        ):
            (row,) = verify_family_case(fid, q)
            assert row.lhs == comb(*top) % q**2
            assert row.rhs == (-q) % q**2
            assert row.passed, (fid, q)


def test_dual_matrix_matches_exact_transform():
    # the dense matrix M, and the convolution route _weight_vectors takes for
    # M^T w, against the exact transform a* = M a: M a == a*, M^T w equals
    # the dense product, and (M^T w) . a == w . a*, mod p^2 and mod p (R1.5)
    rng = random.Random(7331)
    weight_rng = random.Random(7332)
    for _ in range(50):
        q = rng.choice(primes_between(5, 60))
        m = q * q
        k_weighted = weight_rng.random() < 0.5
        size = rng.randint(1, q - 1 if k_weighted else q)  # the k-weighted vector reads size + 1 <= p weights
        mat = _binom_mod_matrix(m, size)
        a = [rng.randint(-9, 9) for _ in range(size)]
        a_mod = np.array([t % m for t in a], dtype=np.int64)
        got = mat @ a_mod % m
        want = [t % m for t in dual_transform(a)]
        assert list(got) == want
        kind = weight_rng.choice(sorted(TERM_KINDS))
        base = weight_rng.choice([b for b in M_SET if b % q])
        power = weight_rng.choice((1, 2))
        mod = q**power
        w, dual = _weight_vectors(kind, base, q, power, size + 1 if k_weighted else size, k_weighted=k_weighted)
        assert len(w) == len(dual) == size
        assert list(dual) == (mat.T @ np.array(w, dtype=np.int64) % mod).tolist()
        lhs = sum(map(mul, dual, a)) % mod
        rhs = sum(map(mul, w, dual_transform(a))) % mod
        assert lhs == rhs, (q, size, kind, base, k_weighted, power)


def test_weight_residues_match_exact_reduction():
    for q in primes_between(5, 60):
        for kind, term in TERM_KINDS.items():
            for base in M_SET:
                if base % q == 0:
                    continue
                for power in (1, 2):
                    got = _weight_residues(kind, base, q, power, q)
                    want = [padic_from_rational(Fraction(term(k, 0), base**k), q, power) for k in range(q)]
                    assert list(got) == want, (kind, base, q, power)


def _spot_value(kind, base, eps, upper, x, *, deriv):
    """Exact rational value of a polynomial family's claim at the spot x.

    The reference for the residue evaluation in _poly_family: the plain
    claim is sum_k N(k)/base^k (x^k - eps (1-x)^k), the k-weighted one
    sum_k k N(k)/base^k (x^(k-1) + eps (1-x)^(k-1)).
    """
    term = TERM_KINDS[kind]
    total = Fraction(0)
    xp, yp = Fraction(1), Fraction(1)
    if deriv:
        for k in range(1, upper + 1):
            total += k * Fraction(term(k, 0), base**k) * (xp + eps * yp)
            xp *= x
            yp *= 1 - x
    else:
        for k in range(upper + 1):
            total += Fraction(term(k, 0), base**k) * (xp - eps * yp)
            xp *= x
            yp *= 1 - x
    return total


def test_polynomial_spot_rows_match_exact_rational_oracle():
    specs = {
        "E1.14": ("cubic", False),
        "E1.15": ("quartic", False),
        "E1.16": ("sextic", False),
        "E1.17": ("cubic", True),
        "E1.18": ("quartic", True),
        "E1.19": ("sextic", True),
        "R1.5": ("cubic", False),
    }
    checked = 0
    for q in primes_between(5, 60):
        for fid, (kind, deriv) in specs.items():
            if fid == "R1.5":
                eps, upper, power = (-1) ** (q // 3), q // 3, 1
            else:
                eps, upper, power = _EPS[kind](q), q - 1, 2
            for row in verify_family_case(fid, q):
                if "x" not in row.params or row.skipped:
                    continue
                x = Fraction(row.params["x"])
                value = _spot_value(kind, _BASES[kind], eps, upper, x, deriv=deriv)
                assert row.modulus == q**power
                assert padic_from_rational(value, q, power) == row.lhs, (fid, q, x)
                checked += 1
    assert checked > 400


def _failing_rows(gen, primes):
    return [case for q in primes for case in gen(q) if case.passed is False]


def _entry(gen, power):
    """cases(p) of a catalog entry around gen, built as the catalog builds its own."""
    return _family("mutant", "", power, gen).cases


@pytest.mark.parametrize(
    ("mutant", "spot_must_fail"),
    [
        (_entry(_poly_family("cubic", 27, lambda q: -_EPS["cubic"](q), spots=_SPOTS_CUBIC), 2), True),
        (_entry(_poly_family("cubic", 27, lambda q: -_EPS["cubic"](q), deriv=True, spots=_SPOTS_CUBIC), 2), True),
        (_entry(_poly_family("cubic", 26, _EPS["cubic"], spots=_SPOTS_CUBIC), 2), False),
        (_entry(_dual_family("cubic", 27, lambda q: -_EPS["cubic"](q)), 2), False),
    ],
    ids=["poly-flipped-sign", "poly-k-weighted-flipped-sign", "poly-base-26", "dual-flipped-sign"],
)
def test_residue_family_mutants_fail(mutant, spot_must_fail):
    # 26 is not a unit at p = 13, so that prime is left out for every mutant
    failing = _failing_rows(mutant, [q for q in primes_between(5, 50) if q != 13])
    assert failing
    if spot_must_fail:
        assert any("x" in case.params for case in failing)


def _rebased(old, new):
    """truncated_sum that reads base `new` wherever a family passes `old`."""

    def patched(kind, q, upper, m, **kwargs):
        return truncated_sum(kind, q, upper, new if m == old else m, **kwargs)

    return patched


def _per_shift(fn, value, d):
    """fn applied to a truncated_sum result: to each shift's value when d is a sequence."""
    return fn(value) if isinstance(d, int) else [fn(v) for v in value]


def _quartered_doubles(kind, q, upper, m, **kwargs):
    """truncated_sum with the double-shift sums divided by 4 once more."""
    value = truncated_sum(kind, q, upper, m, **kwargs)
    if not kind.endswith("_double"):
        return value
    mod = q ** kwargs["power"]
    return _per_shift(lambda v: v * pow(4, -1, mod) % mod, value, kwargs.get("d", 0))


def _weight_raised(q, lam, d):
    """weighted_char_sum with the weight x^(d+1) where a family asks for x^d."""
    return weighted_char_sum(q, lam, d + 1)


@pytest.mark.parametrize(
    ("fid", "attr", "replacement", "gen"),
    [
        ("E1.3", "truncated_sum", _rebased(16, 15), None),
        ("E1.4", "euler_half_grid_mod_p", lambda q, count: [0] * count, None),
        ("R1.4a", "truncated_sum", _quartered_doubles, None),
        (
            "E1.7",
            None,
            None,
            _entry(
                _chain_family(
                    (Sum("central_shift", 8, half=True), lambda q, ds: repeat(0)),
                    shifts=lambda q: range((q + 1) // 2),
                    parity=lambda q: (q - 1) // 2 % 2,
                ),
                1,
            ),
        ),
        ("L1", "_l1_lhs", partial(_l1_lhs, offset=3), None),
        ("L1", "_l1_lhs", partial(_l1_lhs, base=16), None),
        ("A1", "weighted_char_sum", _weight_raised, None),
        ("A2", "weighted_char_sum", _weight_raised, None),
    ],
    ids=[
        "E1.3-base-15",
        "E1.4-no-euler-term",
        "R1.4a-over-4^(d+1)",
        "E1.7-opposite-parity",
        "L1-weight-2h+3",
        "L1-base-16",
        "A1-weight-x^(d+1)",
        "A2-weight-x^(d+1)",
    ],
)
def test_sum_family_mutants_fail(fid, attr, replacement, gen, monkeypatch):
    # the families' own generators, with one planted error in the residue
    # path they read (15 is not a unit at p = 5, so that prime is left out)
    if attr:
        monkeypatch.setattr(families, attr, replacement)
    failing = _failing_rows(gen or get_family(fid).cases, primes_between(7, 50))
    assert failing, fid


@pytest.mark.parametrize("fid", ["E1.3", "R1.4a", "R1.4b"])
def test_product_window_one_slot_late_fails_every_double_family(fid, monkeypatch):
    # a double member's sum at d is slot upper + d of one sums._product; the
    # planted window starts one slot late, so each shift reads the next one's sum
    product = sums._product
    monkeypatch.setattr(sums, "_product", lambda a, b, start, count: product(a, b, start + 1, count))
    for q in primes_between(7, 50):
        assert any(case.passed is False for case in get_family(fid).cases(q)), (fid, q)


def _r14_chain(kind, base, sign, shifts):
    """The R1.4a (cubic) or R1.4b (quartic) chain, as the catalog writes it, taken at shifts(p)."""
    return _entry(
        _chain_family(
            (
                Sum(f"{kind}_double", base, half=True, coef=_over_4_to_d),
                Sum(f"{kind}_shift", base, half=True),
                lambda q, ds: repeat(legendre_symbol(sign, q)),
            ),
            ("double", "shift", "closed"),
            shifts=shifts,
        ),
        1,
    )


@pytest.mark.parametrize(
    ("fid", "kind", "base", "sign", "divisor"),
    [("R1.4a", "cubic", 27, -3, 3), ("R1.4b", "quartic", 64, -2, 4)],
    ids=["R1.4a", "R1.4b"],
)
def test_double_chains_fail_one_shift_past_their_range(fid, kind, base, sign, divisor):
    # negative control: R1.4a and R1.4b are claimed for d <= floor(p/3) and
    # floor(p/4); one shift past that the same chain must fail at every prime
    in_range = _r14_chain(kind, base, sign, lambda q: range(q // divisor + 1))
    past = _r14_chain(kind, base, sign, lambda q: [q // divisor + 1])
    for q in primes_between(11, 150):
        assert in_range(q) == get_family(fid).cases(q), (fid, q)  # the chain above is the catalog's
        assert in_range(q).counts[1] == 0, (fid, q)
        assert past(q).counts[1], (fid, q)


# Every family that calls truncated_sum. The per-d families call it once per
# member, over every shift d; the others make the same calls at every prime.
_SUM_FAMILIES = [
    "E1.3", "E1.4", "E1.5", "E1.6", "E1.7", "E1.8", "E1.9", "E1.10", "R1.4a", "R1.4b",
    *(f"C1.1{c}" for c in "abcdef"), *(f"C1.2{c}" for c in "abcdefgh"),
    "E1.20", "E1.21", "E1.22", "E1.23", "T1.6", "G3", "G4", "D-base",
]
_PER_D = {"E1.3", "E1.4", "E1.7", "R1.4a", "R1.4b", "D-base"}


class _NotAUnit(Exception):
    """The mutated base is not a unit at this prime, so the mutant is undefined there."""


def _sum_mutant(target, mutant):
    """truncated_sum with its target-th call in one fam.cases(p) run mutated."""
    calls = 0

    def patched(kind, q, upper, m, **kwargs):
        nonlocal calls
        i, calls = calls, calls + 1
        if i == target and mutant == "base+1":
            if (m + 1) % q == 0:
                raise _NotAUnit
            m += 1
        elif i == target:
            kwargs["k_factor"] = not kwargs["k_factor"]
        return truncated_sum(kind, q, upper, m, **kwargs)

    return patched


def _sum_calls(fam, q, monkeypatch):
    calls = []
    monkeypatch.setattr(families, "truncated_sum", _recording(truncated_sum, lambda *a, **k: None, calls))
    list(fam.cases(q))
    return len(calls)


@pytest.mark.parametrize("mutant", ["base+1", "k_factor"])
@pytest.mark.parametrize("fid", _SUM_FAMILIES)
def test_planted_sum_mutant_fails_every_sum_family(fid, mutant, monkeypatch):
    # One truncated_sum call at a time gets base m + 1 (primes where m + 1 is
    # not a unit are left out) or the opposite k_factor: every call of a chain,
    # the first call of a per-d family, which holds every shift. Two other
    # generic mutants are not asserted, because they need not change the
    # result. The other upper bound survives mod p^K for the first call of
    # E1.3, E1.7, R1.4a, R1.4b and D-base, for every sum of E1.5, E1.6, T1.6
    # and G3, and for G4's members 2 and 4: their terms past the other bound
    # vanish mod p^K. And d + 1 is a no-op on a d-free kind (central_sq,
    # cubic, quartic, sextic).
    fam = get_family(fid)
    primes = [q for q in primes_between(7, 50) if fam.applies(q)]
    targets = [0] if fid in _PER_D else range(_sum_calls(fam, primes[0], monkeypatch))
    assert targets
    for target in targets:
        failing = []
        for q in primes:
            monkeypatch.setattr(families, "truncated_sum", _sum_mutant(target, mutant))
            try:
                failing += [case for case in fam.cases(q) if case.passed is False]
            except _NotAUnit:
                continue
        assert failing, (fid, mutant, target)


def test_catalog_constructor_states_k_once(monkeypatch):
    # The catalog's own E1.6 chain and E1.3 shifts, built by its constructor
    # at K = 3: every reduction must follow, so no generator holds its own K.
    powers = []
    spies = {
        "truncated_sum": lambda kind, q, upper, m, *, power=None, **kwargs: power,
        "padic_from_rational": lambda value, p, precision: precision,
    }
    for name, power_of in spies.items():
        monkeypatch.setattr(families, name, _recording(getattr(families, name), power_of, powers))
    for fid in ("E1.6", "E1.3"):
        entry = _family(fid, "", 3, get_family(fid).cases.func)
        for q in (7, 11, 13, 19, 23):
            if not get_family(fid).applies(q):
                continue
            powers.clear()
            rows = list(entry.cases(q))
            assert rows and set(powers) == {3}, (fid, q, powers)
            for row in rows:
                assert 0 <= row.lhs < q**3 and 0 <= row.rhs < q**3, (fid, q, row.params)


def test_t11_rows_match_scalar_routes():
    # the family reads both grids once and shares one residue object per class;
    # every row must still carry the scalar value of its own (lam, d) cell
    for q in primes_between(5, 31):
        rows = verify_family_case("T1.1", q)
        assert [r.params for r in rows] == [{"lam": lam, "d": d} for d in range((q + 1) // 2) for lam in range(q)]
        for r in rows:
            lam, d = r.params["lam"], r.params["d"]
            assert r.modulus == q and r.passed, (q, lam, d)
            assert r.lhs == weighted_char_sum(q, lam, d) % q, (q, lam, d)
            assert r.rhs == thm11_rhs(q, lam, d), (q, lam, d)


def test_t11_planted_cell_fails_alone(monkeypatch):
    q, d, lam = 13, 4, 9
    grid = families.thm11_rhs_grid

    def planted(p):
        out = grid(p).copy()
        if p == q:
            out[d, lam] = (out[d, lam] + 1) % p
        return out

    monkeypatch.setattr(families, "thm11_rhs_grid", planted)
    report = run_suite([q], ["T1.1"])
    assert len(report.cases) == q * (q + 1) // 2
    assert [(r.params, r.lhs, r.rhs) for r in report.failures()] == [
        ({"lam": lam, "d": d}, weighted_char_sum(q, lam, d) % q, (thm11_rhs(q, lam, d) + 1) % q)
    ]
    assert run_suite([11, 17], ["T1.1"]).ok  # planted at p = 13 only


def _l1_exact(q):
    """L1's left side as an exact Fraction: the bignum convolution of binom(2k,k)^2."""
    u = [comb(2 * k, k) ** 2 for k in range(q)]
    num = 0
    mpow = (-16) ** (q - 1)
    for h in range(q):
        conv = sum(u[k] * u[h - k] for k in range(h + 1))
        num += (2 * h + 1) * conv * mpow
        if h < q - 1:
            mpow //= -16
    return Fraction(num, (-16) ** (q - 1))


def test_l1_residue_matches_exact_convolution():
    for q in [*primes_between(5, 200), 499]:
        exact = _l1_exact(q)
        for power in (2, 3):
            assert _l1_lhs(q, power) == padic_from_rational(exact, q, power), (q, power)


def test_l1_holds_one_power_beyond_its_claim():
    # an observed fact, not a theorem: the catalog claims mod p^2, and
    # v_p(lhs - p (-1/p)) >= 3 at every prime in [5, 100]
    for q in primes_between(5, 100):
        assert _l1_lhs(q, 3) == q * legendre_symbol(-1, q) % q**3, q


@pytest.mark.parametrize("fid", _SUM_FAMILIES)
def test_sum_family_rows_match_exact_route_at_a_large_prime(fid, monkeypatch):
    def exact_route(kind, q, upper, m, *, power, **kwargs):
        value = truncated_sum(kind, q, upper, m, **kwargs)
        return _per_shift(partial(padic_from_rational, p=q, precision=power), value, kwargs.get("d", 0))

    # 251 and 257 are 3 and 1 mod 4; C1.1a, C1.1d and E1.20 apply at neither, so they run at 229 (1 mod 3, 5 mod 8)
    primes = [q for q in (251, 257) if get_family(fid).applies(q)] or [229]
    for q in primes:
        rows = verify_family_case(fid, q)
        with monkeypatch.context() as patch:
            patch.setattr(families, "truncated_sum", exact_route)
            assert rows == verify_family_case(fid, q)
        assert len(rows) > (fid in _PER_D - {"D-base"}), (fid, q)  # a per-d family has a row per shift


@pytest.mark.parametrize(("fid", "n_cases"), [("E1.11", 19), ("R1.4c", 19), ("E1.14", 6)], ids=["E1.11", "R1.4c", "E1.14"])
def test_weight_families_hold_past_the_old_int64_bound(fid, n_cases):
    # at p = 9001 the int64 dense-matrix route overflowed and gave a false
    # E1.11 counterexample; the exact route passes there
    report = run_suite([9001], [fid])
    assert report.ok
    assert len(report.cases) == n_cases


def test_exact_dual_matches_direct_sum_past_the_old_int64_bound():
    # the dual at p = 9001 equals the direct sum
    # (M^T w)_j = sum_k C(k, j) (-1)^j w_k mod p^2 at 16 seeded j
    q = 9001
    mod = q * q
    w, dual = _weight_vectors("cubic", 27, q, 2, q, k_weighted=False)
    rng = random.Random(9001)
    for j in sorted(rng.sample(range(q), 16)):
        binom, total = 1, 0  # C(k, j), exact, stepped from k = j
        for k in range(j, q):
            total += binom * w[k]
            binom = binom * (k + 1) // (k + 1 - j)
        assert dual[j] == (-1) ** j * total % mod, j


def test_no_family_builds_the_dense_matrix(monkeypatch):
    def never(*args):
        raise AssertionError("a family built the dense binomial matrix")

    monkeypatch.setattr(families, "_binom_mod_matrix", never)
    families._weight_vectors.cache_clear()
    fids = [fid for fid in family_ids() if fid != "T1.1"]
    assert run_suite([5, 7, 13, 31, 101], fids).ok


def test_no_family_takes_the_exact_sum_route(monkeypatch):
    # every truncated_sum call of the catalog lies in the per-prime tables; a
    # shifted kind summed to p - 1 would go exact, at O(p) bignum terms a shift
    def never(*args):
        raise AssertionError("a family's truncated_sum took the exact route")

    monkeypatch.setattr(sums, "weighted_sum", never)
    fids = [fid for fid in family_ids() if fid != "T1.1"]
    assert run_suite([*primes_between(5, 60), 1999], fids).ok


def test_no_family_packs_rows_or_builds_a_row(monkeypatch):
    # every family hands the engine one block in columns; a row is built only
    # when report.cases or a block is read row by row
    def never(*args, **kwargs):
        raise AssertionError("a family's rows took the row route")

    monkeypatch.setattr(VerificationReport, "__init__", never)
    report = run_suite([5, 7, 13, 31, 101], family_ids())
    assert report.ok and len(report.blocks) == len(family_ids()) * 5


def test_parity_skip_rows_carry_a_note():
    rows = verify_family_case("E1.7", 13)
    skipped = [r for r in rows if r.passed is None]
    live = [r for r in rows if r.passed is not None]
    assert skipped and live
    # claimed parity at p = 13 is (13+1)/2 mod 2 = 1, so odd d are the claims
    for r in live:
        assert r.params["d"] % 2 == 1
        assert r.passed
    for r in skipped:
        assert r.params["d"] % 2 == 0
        assert "informational residue" in r.note


def test_polynomial_family_reports_aggregate_row_plus_spots():
    rows = verify_family_case("E1.14", 11)
    assert rows[0].params == {"coefficients": 11}
    assert rows[0].note == "all coefficients agree"
    spot_params = [r.params for r in rows[1:]]
    assert {"x": "1/2"} in spot_params
    assert len(rows) == 6


def test_polynomial_family_reports_its_first_disagreeing_coefficient(monkeypatch):
    # one coefficient of the dual off by one: the aggregate row names it and fails, while the
    # spot rows, the Horner oracle, read only w and still pass
    weight_vectors = families._weight_vectors

    def off_by_one(*args, **kwargs):
        w, dual = weight_vectors(*args, **kwargs)
        return w, (*dual[:3], dual[3] + 1, *dual[4:])

    monkeypatch.setattr(families, "_weight_vectors", off_by_one)
    rows = verify_family_case("E1.14", 11)
    assert rows[0].params == {"coefficient": 3} and rows[0].passed is False
    assert rows[0].note == "1 of 11 coefficients disagree"
    assert [r.params for r in rows[1:]] == [{"x": str(x)} for x in _SPOTS_CUBIC]
    assert all(r.passed for r in rows[1:])


def test_polynomial_spot_skips_non_integral_x():
    # 64/63 has a factor of 7 in its denominator, so that spot cannot be
    # evaluated 7-adically and must come back as a skip, not a failure
    rows = verify_family_case("E1.15", 7)
    skipped = [r for r in rows if r.passed is None]
    assert [r.params for r in skipped] == [{"x": "64/63"}]
    assert all("not a p-adic integer" in r.note for r in skipped)
    assert all(r.passed for r in rows if r.passed is not None)


def test_negative_control_family_fails_outside_its_range():
    # the harness must detect a genuine counterexample when forced to run one
    assert not get_family("B4").applies(5)
    assert len(verify_family_case("B4", 5)) == 0
    forced = list(get_family("B4").cases(5))
    assert len(forced) == 1
    assert forced[0].lhs != forced[0].rhs
    assert not forced[0].passed
    assert forced[0].lhs == comb(24, 12) % 25 == 6
    assert forced[0].rhs == 20
