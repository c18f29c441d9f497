"""Identity suite: independent re-derivations, runner semantics, witnesses."""

import hashlib
import json
import random
from fractions import Fraction
from functools import partial
from itertools import count, islice
from math import comb, lcm

import pytest

from supercong.combinatorics import catalan
from supercong.congruences import (
    families,
    get_family,
    identities,
    identity_catalog,
    identity_ids,
    run_identities,
    verify_family_case,
)
from supercong.congruences.columns import CaseBlock
from supercong.congruences.identities import (
    M_SET,
    IdentityCase,
    _i4_closed,
    _i5_blocks,
    _i6_blocks,
    _i7_blocks,
    _m_values,
    _partial_sum_blocks,
    _z1_blocks,
    _z_family,
)
from supercong.congruences.sums import TERM_KINDS
from supercong.padic import primes_between
from supercong.errors import UnknownId


def test_catalog_ids_are_stable():
    ids = identity_ids()
    assert ids == [
        "I1", "I2", "I3", "I4", "I4a", "I5", "I6", "I7",
        "I8", "I9", "I10", "I11", "Z1", "Z2", "Z3", "Z4",
    ]
    assert len(set(ids)) == len(ids)
    kinds = {ident.id: ident.kind for ident in identity_catalog()}
    assert kinds["I1"] == "identity"
    assert kinds["I8"] == "congruence"
    assert kinds["Z2"] == "recurrence"


def test_a_repeated_identity_runs_once():
    assert [r.id for r in run_identities(["I8", "I1", "I8"], 3)] == ["I8", "I1"]


def test_m_values_are_reproducible():
    assert _m_values(3) == _m_values(3)
    assert _m_values(3)[: len(M_SET)] == list(M_SET)
    assert all(m != 0 for m in _m_values(17))
    assert _m_values(3) != _m_values(4)  # fresh random tail per n


def _drawn_m_values(n):
    # one seeded Random per n, five nonzero draws in [-5000, 5000]
    rng = random.Random(77003 + n)
    draws = (rng.randint(-5000, 5000) for _ in count())
    return [*M_SET, *islice(filter(None, draws), 5)]


def test_m_values_are_drawn_once_and_returned_as_new_lists():
    first, second = _m_values(7), _m_values(7)
    assert first == second and first is not second
    first[-1] += 1
    first.append(3)
    assert _m_values(7) == second
    for n in (1, 7, 18, 100, 500):
        assert _m_values(n) == _drawn_m_values(n), n


def test_whole_suite_passes_at_moderate_depth():
    results = run_identities(None, 40)
    assert [r.id for r in results] == identity_ids()
    for r in results:
        assert r.ok, r.id
        assert not r.vacuous, r.id
        assert r.failures == []


def _direct_i1(n, m):
    lhs = sum(
        Fraction((6 * comb(2 * k, k) // (k + 1) + (27 - m) * k * comb(2 * k, k)) * comb(3 * k, k), m**k)
        for k in range(n)
    )
    return lhs, Fraction(n * comb(2 * n, n) * comb(3 * n, n), m ** (n - 1))


def _direct_i2(n, m):
    lhs = sum(
        Fraction((12 * comb(2 * k, k) // (k + 1) + (64 - m) * k * comb(2 * k, k)) * comb(4 * k, 2 * k), m**k)
        for k in range(n)
    )
    return lhs, Fraction(n * comb(4 * n, 2 * n) * comb(2 * n, n), m ** (n - 1))


def _direct_i3(n, m):
    lhs = sum(
        (Fraction(60, k + 1) + (432 - m) * k) * Fraction(comb(6 * k, 3 * k) * comb(3 * k, k), m**k)
        for k in range(n)
    )
    return lhs, Fraction(n * comb(6 * n, 3 * n) * comb(3 * n, n), m ** (n - 1))


def _direct_i4a(n, m):
    lhs = sum(
        (Fraction((16 - m) * k, 4) + Fraction(1, k + 1)) * Fraction(comb(2 * k, k) ** 2, m**k)
        for k in range(n + 1)
    )
    return lhs, Fraction((2 * n + 1) ** 2 * comb(2 * n, n) ** 2, (n + 1) * m**n)


def _direct_i5(n, m):
    # here m is the shift, in [0, n]
    lhs = (2 * m + 1) * sum(
        Fraction(comb(2 * k, k) * (comb(2 * k, k + m) - comb(2 * k, k + m + 1)), 16**k)
        for k in range(n + 1)
    )
    return lhs, Fraction((2 * n + 1) * comb(2 * n, n) * comb(2 * n + 1, n - m), 16**n)


_DIRECT = {"I1": _direct_i1, "I2": _direct_i2, "I3": _direct_i3, "I4a": _direct_i4a, "I5": _direct_i5}


def test_partial_sum_identity_direct_fractions():
    # I1-I3, I4a and I5 recomputed term by term with Fraction arithmetic and
    # comb, independently of TERM_KINDS and the shared accumulator
    for ident_id, direct in _DIRECT.items():
        for n in (1, 2, 5, 12, 25):
            shifts = range(n + 1) if ident_id == "I5" else (8, 27, -16, 54, 117)
            for m in shifts:
                lhs, rhs = direct(n, m)
                assert lhs == rhs, (ident_id, n, m)
    # and the suite's own cases carry exactly these values
    catalog = {ident.id: ident for ident in identity_catalog()}
    for ident_id, direct in _DIRECT.items():
        for case in catalog[ident_id].cases(12):
            assert (case.lhs, case.rhs) == direct(case.params["n"], case.params["m"]), (ident_id, case.params)


def test_catalan_weighted_identity_direct_fractions():
    # I4, including the n = 2 value 75/64
    def lhs(n):
        return sum(Fraction(comb(2 * k, k) * catalan(k), 16**k) for k in range(n + 1))

    assert lhs(2) == Fraction(75, 64)
    for n in range(1, 30):
        rhs = Fraction((2 * n + 1) ** 2 * comb(2 * n, n) ** 2, 16**n * (n + 1))
        assert lhs(n) == rhs, n


def test_window_convolution_direct():
    # I6 is a Vandermonde convolution; recheck it cold
    for k in (1, 3, 7, 15):
        for d in range(k + 1):
            window = sum(comb(2 * k, k + c) * comb(2 * d, d - c) for c in range(-d, d + 1))
            assert window == comb(2 * k + 2 * d, k + d), (k, d)


def test_morley_congruence_direct():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 71, 79):
        m3 = p**3
        assert comb(p - 1, (p - 1) // 2) % m3 == (-1) ** ((p - 1) // 2) * pow(4, p - 1, m3) % m3, p
    # the known anchor: p = 7 reduces to 20 on both sides mod 343
    assert comb(6, 3) % 343 == 20
    assert (-1) ** 3 * pow(4, 6, 343) % 343 == 20


def test_shift_recurrence_direct():
    # Z1's f-table rebuilt independently at one (n, d) spot
    def f(n, d):
        return sum(comb(n + k, 2 * k) * comb(2 * k, k + d) * (-2) ** k for k in range(n + 1))

    n = 9
    for d in range(n - 1):
        lhs = (n - d - 1) * (n + d + 2) * (2 * d + 1) * f(n, d + 2)
        rhs = (2 * n + 1) ** 2 * (d + 1) * f(n, d + 1) - (n - d) * (n + d + 1) * (2 * d + 3) * f(n, d)
        assert lhs == rhs, d


# The I6, Z1 and Z2-Z4 generators as they were before their binomials came
# from shared rows: every binomial from math.comb, recomputed per term. I7's
# oracle is its generator as it was before the power was packed into ints.


def _comb_i6(max_n):
    for k in range(1, max_n + 1):
        for d in range(0, k + 1):
            rhs = comb(2 * k + 2 * d, k + d)
            lhs = sum(comb(2 * k, k + c) * comb(2 * d, d - c) for c in range(-d, d + 1))
            yield IdentityCase({"k": k, "d": d}, Fraction(lhs), Fraction(rhs))


def _comb_z1(max_n):
    for n in range(2, max_n + 1):
        f = []
        for d in range(n + 1):
            s = 0
            w = 1
            for k in range(n + 1):
                s += comb(n + k, 2 * k) * comb(2 * k, k + d) * w
                w *= -2
            f.append(s)
        for d in range(n - 1):
            lhs = (n - d - 1) * (n + d + 2) * (2 * d + 1) * f[d + 2]
            rhs = (2 * n + 1) ** 2 * (d + 1) * f[d + 1] - (n - d) * (n + d + 1) * (2 * d + 3) * f[d]
            yield IdentityCase({"n": n, "d": d}, Fraction(lhs), Fraction(rhs))


def _comb_z(kind, base, a, b):
    def cases(max_n):
        term = TERM_KINDS[kind]
        for n in range(2, max_n + 1):
            scale = base ** (n - 1)
            weights = [term(k, 0) * base ** (n - 1 - k) for k in range(n)]
            tails = [sum(weights[k] * comb(k, m) for k in range(m, n)) for m in range(n)]
            rhs_core = b(n - 1) * term(n - 1, 0)
            for m in range(n - 1):
                lhs = a * (m + 1) ** 2 * tails[m + 1] + b(m) * tails[m]
                rhs = rhs_core * comb(n - 1, m)
                yield IdentityCase({"n": n, "m": m}, Fraction(lhs, scale), Fraction(rhs, scale))

    return cases


def _nested_i7(max_n):
    # the power as a table of t^i x^j coefficients, multiplied out term by term
    poly = [[1]]
    for n in range(1, max_n + 1):
        width = n + 1
        new = [[0] * width for _ in range(len(poly) + 2)]
        for i, row in enumerate(poly):
            for j, c in enumerate(row):
                if c:
                    new[i][j + 1] += c
                    new[i + 1][j] += c
                    new[i + 2][j] += c
        poly = new
        closed = [0] * (n // 2 + 1)
        for k in range(n // 2 + 1):
            closed[k] = comb(n, 2 * k) * comb(2 * k, k)
        got = poly[n]
        lhs = rhs = 0
        mismatch = None
        for j in range(max(len(got), len(closed))):
            a = got[j] if j < len(got) else 0
            b = closed[j] if j < len(closed) else 0
            if a != b and mismatch is None:
                mismatch = j
                lhs, rhs = a, b
        if mismatch is None:
            yield IdentityCase({"n": n, "coeffs": n // 2 + 1}, 1, 1)
        else:
            yield IdentityCase({"n": n, "coeff_of": mismatch}, lhs, rhs)


_COMB_GENERATORS = {
    "I6": _comb_i6,
    "I7": _nested_i7,
    "Z1": _comb_z1,
    "Z2": _comb_z("cubic", 27, 9, lambda m: (3 * m + 1) * (3 * m + 2)),
    "Z3": _comb_z("quartic", 64, 16, lambda m: (4 * m + 1) * (4 * m + 3)),
    "Z4": _comb_z("sextic", 432, 36, lambda m: (6 * m + 1) * (6 * m + 5)),
}


@pytest.mark.parametrize("ident_id", sorted(_COMB_GENERATORS))
def test_row_generators_match_comb_generators(ident_id):
    catalog = {ident.id: ident for ident in identity_catalog()}
    assert list(catalog[ident_id].cases(30)) == list(_COMB_GENERATORS[ident_id](30))


@pytest.mark.parametrize("ident_id", ["I7", "Z1"])
def test_carried_generators_match_their_oracles_deeper(ident_id):
    # I7's packed slots and Z1's carried diagonals, further out
    catalog = {ident.id: ident for ident in identity_catalog()}
    assert list(catalog[ident_id].cases(60)) == list(_COMB_GENERATORS[ident_id](60))


# SHA-256 of (id, params, a, b, den, modulus), one JSON line per case in
# catalog and yield order, over all 16 ids at max-n 100: 47,232 cases.
_IDENTITY_CASES_SHA256 = "55f6fadbd16c593a3a0d4d7b8c203eef4da38d414ae778054cd4ff1ac94c34e9"


def test_identity_cases_match_the_pinned_digest():
    digest, checked = hashlib.sha256(), 0
    for ident in identity_catalog():
        for case in ident.cases(100):
            row = [ident.id, case.params, case.a, case.b, case.den, case.modulus]
            digest.update((json.dumps(row, separators=(",", ":")) + "\n").encode())
            checked += 1
    assert checked == 47232
    assert digest.hexdigest() == _IDENTITY_CASES_SHA256


# The I1-I5 generators as they were before their partial sums carried across
# n: every (n, m) and every I5 shift summed afresh from k = 0 over the final
# denominator lcm(1..u+1) m^u, with the evaluator copied alongside.


def _fresh_weighted_sum(terms, m, a=0, b=0, c=0):
    u = len(terms) - 1
    big = lcm(*range(1, u + 2)) if c else 1
    num = 0
    for k, t in enumerate(terms):
        num *= m
        if t:
            w = (a + b * k) * big
            if c:
                w += c * (big // (k + 1))
            num += w * t
    return Fraction(num, big * m**u)


def _fresh_partial_sum(kind, c, base, scale, upper, closed, bases=None):
    def cases(max_n):
        term = TERM_KINDS[kind]
        for n in range(1, max_n + 1):
            u = upper(n)
            t = [term(k, 0) for k in range(n + 1)]
            closed_n = Fraction(closed(n, t[n]))
            for m in bases or _m_values(n):
                lhs = _fresh_weighted_sum(t[: u + 1], m, b=base - m, c=scale * c) / scale
                params = {"n": n} if bases else {"n": n, "m": m}
                yield IdentityCase(params, lhs, closed_n / m**u)

    return cases


def _fresh_i5(max_n, gap=1):
    term = TERM_KINDS["central_shift"]
    for n in range(1, max_n + 1):
        s = [_fresh_weighted_sum([term(k, d) for k in range(n + 1)], 16, a=1) for d in range(n + gap + 1)]
        rn = comb(2 * n, n)
        for m in range(n + 1):
            rhs = Fraction((2 * n + 1) * rn * comb(2 * n + 1, n - m), 16**n)
            yield IdentityCase({"n": n, "m": m}, (2 * m + 1) * (s[m] - s[m + gap]), rhs)


def _fresh_i4_closed(n, t):
    return Fraction((2 * n + 1) ** 2 * t, n + 1)


_FRESH_GENERATORS = {
    "I1": _fresh_partial_sum("cubic", 6, 27, 1, lambda n: n - 1, lambda n, t: n * t),
    "I2": _fresh_partial_sum("quartic", 12, 64, 1, lambda n: n - 1, lambda n, t: n * t),
    "I3": _fresh_partial_sum("sextic", 60, 432, 1, lambda n: n - 1, lambda n, t: n * t),
    "I4": _fresh_partial_sum("central_sq", 1, 16, 4, lambda n: n, _fresh_i4_closed, bases=(16,)),
    "I4a": _fresh_partial_sum("central_sq", 1, 16, 4, lambda n: n, _fresh_i4_closed),
    "I5": _fresh_i5,
}


@pytest.mark.parametrize("ident_id", sorted(_FRESH_GENERATORS))
def test_carried_partial_sums_match_fresh_generators(ident_id):
    # I1-I3 sum to u = n-1, I4 and I4a to u = n, all with c != 0, so the
    # carried lcm(1..u+1) is rescaled at every prime power up to 41
    catalog = {ident.id: ident for ident in identity_catalog()}
    got = list(catalog[ident_id].cases(40))
    want = list(_FRESH_GENERATORS[ident_id](40))
    assert [list(case.params) for case in got] == [list(case.params) for case in want]
    assert got == want
    if ident_id == "I5":
        # every shift d <= n + 1 enters a case at each n
        assert [case.params["m"] for case in got if case.params["n"] == 40] == list(range(41))
    elif ident_id != "I4":
        # the five random bases per n start from k = 0, even one that equals
        # a base of M_SET (n = 18 draws 72)
        assert [case.params["m"] for case in got] == [m for n in range(1, 41) for m in _m_values(n)]


def test_random_base_numerators_are_checked(monkeypatch):
    # +1 on the constant coefficient moves the Horner value at every random
    # base and no carried sum at a base of M_SET
    real = identities._weighted_coefficients

    def planted(*args, **kwargs):
        for coeffs, big in real(*args, **kwargs):
            yield (*coeffs[:-1], coeffs[-1] + 1), big

    monkeypatch.setattr(identities, "_weighted_coefficients", planted)
    blocks = {ident.id: ident for ident in identity_catalog()}["I1"].blocks(10)
    failing = [row.params["m"] for block, _ in blocks for row in block if row.passed is False]
    assert len(failing) == 10 * 5
    assert not set(failing) & set(M_SET)


@pytest.mark.parametrize("ident_id", sorted(_FRESH_GENERATORS))
def test_carried_state_stays_inside_one_call(ident_id):
    ident = {ident.id: ident for ident in identity_catalog()}[ident_id]
    first = list(ident.cases(30))
    assert list(ident.cases(30)) == first
    # two calls stepped in lockstep share no accumulator
    assert list(zip(ident.cases(30), ident.cases(30))) == list(zip(first, first))


def test_shared_kernel_in_either_order():
    # I4 and I4a sum the same central_sq kernel
    def outcome(results):
        return sorted((r.id, r.checked, r.failed, r.vacuous, r.failures) for r in results)

    assert outcome(run_identities(["I4", "I4a"], 30)) == outcome(run_identities(["I4a", "I4"], 30))


LEMMA_IDS = ("I8", "I9", "I10", "I11")


def test_lemma_residues_match_comb():
    # I8 reduces one comb, I9-I11 read their binomials from the residue tables;
    # recompute each side with comb and pow
    for p in primes_between(5, 300):
        n = (p - 1) // 2
        m2, m3 = p * p, p**3
        want = {
            "I8": [(comb(p - 1, n) % m3, (-1) ** n * 4 ** (p - 1) % m3)],
            "I9": [(comb(n + k, 2 * k) % m2, comb(2 * k, k) * pow(-16, -k, m2) % m2) for k in range(n + 1)],
            "I10": [(comb(n, k) % p, comb(2 * k, k) * pow(-4, -k, p) % p) for k in range(p)],
            "I11": [(comb(n, 2 * k) % p, comb(4 * k, 2 * k) * pow(16, -k, p) % p) for k in range(n + 1)],
        }
        for ident_id, pairs in want.items():
            cols = get_family(ident_id).cases(p)
            ((keys, stop, columns),) = cols.runs
            assert stop == len(pairs), (ident_id, p)
            if ident_id == "I8":
                assert keys == () and columns == (), p
            else:
                assert keys == ("k",) and columns == ([*range(len(pairs))],), (ident_id, p)
            assert [*zip(cols.lhs, cols.rhs)] == pairs, (ident_id, p)


def test_lemma_mutants_fail_in_both_suites(monkeypatch):
    # the lemmas read families' names, so a negated base in their _powers
    # column (I9-I11) or C(p-1, (p-1)/2) + 1 (I8) fails in the catalog and in
    # the identity suite alike
    real_powers, real_comb = families._powers, families.comb
    monkeypatch.setattr(families, "_powers", lambda x, size, mod: real_powers(-x % mod, size, mod))
    monkeypatch.setattr(families, "comb", lambda n, k: real_comb(n, k) + 1)
    for ident_id in LEMMA_IDS:
        assert verify_family_case(ident_id, 7).counts[1], ident_id
        (result,) = run_identities([ident_id], 10)
        assert result.failed and result.failures, ident_id


@pytest.mark.parametrize(
    "mutant",
    [
        _partial_sum_blocks("cubic", 6, 26, 1, lambda n: n - 1, lambda n, t: n * t),
        _partial_sum_blocks("cubic", 5, 27, 1, lambda n: n - 1, lambda n, t: n * t),
        _partial_sum_blocks("central_sq", 1, 16, 4, lambda n: n - 1, _i4_closed),
        partial(_i5_blocks, gap=2),
        partial(_i6_blocks, trim=1),
        partial(_i7_blocks, top=3),
        partial(_z1_blocks, weight=-3),
        _z_family("cubic", 27, 10, lambda m: (3 * m + 1) * (3 * m + 2)),
    ],
    ids=[
        "I1-base-26", "I1-c-5", "I4a-upper-n-1", "I5-gap-2", "I6-one-pair-short",
        "I7-t-cubed", "Z1-weight-minus-3", "Z2-a-10",
    ],
)
def test_identity_mutants_fail(mutant):
    # each planted error in a factory parameter must show within max-n 10
    assert any(block.counts[1] for block, _ in mutant(10))


@pytest.mark.parametrize("ident_id", ["I1", "I4", "I5", "Z2"])
def test_one_over_the_shared_denominator_fails(ident_id):
    # +1 in one numerator column at the largest n moves that side by exactly
    # 1/den, the smallest difference the shared denominator can hold
    blocks = list({ident.id: ident for ident in identity_catalog()}[ident_id].blocks(20))
    assert not any(block.counts[1] for block, _ in blocks)
    block, den = blocks[-1]
    assert block[0].params["n"] == 20
    # the denominator comes deferred; resolved, it is one int or one per row
    dens = den()
    dens = dens if isinstance(dens, list) else [dens] * len(block)
    widest = max(range(len(block)), key=lambda i: abs(dens[i]))
    for column, i in (("lhs", widest), ("rhs", 0)):
        sides = {"lhs": [*block.lhs], "rhs": [*block.rhs]}
        sides[column][i] += 1
        assert abs(Fraction(sides["lhs"][i] - sides["rhs"][i], dens[i])) == Fraction(1, abs(dens[i]))
        planted = CaseBlock(block.runs, sides["lhs"], sides["rhs"])
        assert planted.counts == (len(block) - 1, 1, 0) and planted.verdicts[i] is False, (column, i)


@pytest.mark.parametrize("ident_id", identity_ids())
def test_deferred_denominators_bind_their_own_block(ident_id):
    # each block's denominator, resolved after the generator has run out,
    # equals the one resolved as its block came: no state of a later n leaks in
    ident = {ident.id: ident for ident in identity_catalog()}[ident_id]
    blocks = list(ident.blocks(30))
    late = [den() for _, den in blocks]
    assert late == [den() for _, den in ident.blocks(30)]
    # resolved, a denominator is one int or one per row
    assert all(isinstance(d, int) or len(d) == len(block) for d, (block, _) in zip(late, blocks))


def test_a_passing_run_resolves_no_denominator(monkeypatch):
    # the verdicts read only the numerators, so run_identities calls a
    # block's denominator only for a failure it keeps, once per such block
    resolved = []

    def spied(blocks):
        def wrapped(max_n):
            for block, den in blocks(max_n):
                yield block, partial(resolve, block, den)

        return wrapped

    def resolve(block, den):
        resolved.append(block)
        return den()

    for ident in identity_catalog():
        spy = identities.ExactIdentity(ident.id, ident.description, ident.kind, spied(ident.blocks))
        monkeypatch.setitem(identities._BY_ID, ident.id, spy)
    results = run_identities(identity_ids(), 20)
    assert all(r.ok for r in results) and sum(r.checked for r in results) > 0
    assert resolved == []
    planted = spied(_z_family("cubic", 27, 10, lambda m: (3 * m + 1) * (3 * m + 2)))
    monkeypatch.setitem(identities._BY_ID, "Z2", identities.ExactIdentity("Z2", "planted", "recurrence", planted))
    (result,) = run_identities(["Z2"], 20)
    # n = 2 has one row and n = 3 two, both failing, then n = 4 fills the five kept
    assert len(result.failures) == 5 and [block[0].params["n"] for block in resolved] == [2, 3, 4]


def test_one_over_a_lemma_residue_fails():
    # a lemma's two columns are canonical residues mod p^power, so +1 in one
    # row's lhs fails that row and no other, mod p as mod p^3
    for ident_id in LEMMA_IDS:
        for p in (5, 13, 97):
            block = get_family(ident_id).cases(p)
            assert block.counts == (len(block), 0, 0), (ident_id, p)
            i = len(block) // 2
            lhs = [*block.lhs]
            lhs[i] += 1
            planted = CaseBlock(block.runs, lhs, block.rhs)
            assert planted.counts == (len(block) - 1, 1, 0) and planted.verdicts[i] is False, (ident_id, p)


def test_only_kept_failures_become_cases(monkeypatch):
    # a passing run builds no IdentityCase, and a failing one only the five it keeps
    built = []
    real = identities.IdentityCase

    def spy(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(identities, "IdentityCase", spy)
    results = run_identities(None, 20)
    assert all(r.ok for r in results) and built == []
    planted = _z_family("cubic", 27, 10, lambda m: (3 * m + 1) * (3 * m + 2))
    monkeypatch.setitem(identities._BY_ID, "Z2", identities.ExactIdentity("Z2", "planted", "recurrence", planted))
    (result,) = run_identities(["Z2"], 20)
    assert result.failed == result.checked > 5
    assert len(built) == len(result.failures) == 5


def test_vacuous_domain_counts_as_pass():
    results = run_identities(["I6"], 0)
    assert len(results) == 1
    assert results[0].vacuous
    assert results[0].ok
    assert results[0].checked == 0


def test_unknown_identity_id_raises():
    with pytest.raises(UnknownId):
        run_identities(["I99"], 5)


def test_selected_subset_keeps_request_order():
    results = run_identities(["Z2", "I4"], 10)
    assert [r.id for r in results] == ["Z2", "I4"]


def test_case_pass_semantics(monkeypatch):
    # a row passes when its two numerators over the shared denominator are
    # equal, so equal over Q, also over a negative denominator
    block = CaseBlock([[("n", "m"), 3, ([1, 1, 1], [0, 1, 2])]], [3, 3, -10], [3, -3, -10])
    assert block.verdicts == [True, False, True] and block.counts == (2, 1, 0)
    planted = identities.ExactIdentity("P", "planted", "identity", lambda max_n: iter([(block, lambda: [-7, -7, 4])]))
    assert [(case.lhs, case.rhs) for case in planted.cases(1)] == [
        (Fraction(-3, 7), Fraction(-3, 7)),
        (Fraction(-3, 7), Fraction(3, 7)),
        (Fraction(-5, 2), Fraction(-5, 2)),
    ]
    # a witness shows each side reduced, with the sign on the numerator
    monkeypatch.setitem(identities._BY_ID, "P", planted)
    (result,) = run_identities(["P"], 1)
    assert [(case.params, case.lhs, case.rhs) for case in result.failures] == [
        ({"n": 1, "m": 1}, Fraction(-3, 7), Fraction(3, 7))
    ]
    # cases are equal when their sides are, as rationals
    assert IdentityCase({}, 3, 3, -7) == IdentityCase({}, Fraction(-3, 7), Fraction(-6, 14))
    assert IdentityCase({}, 3, -3, -7) != IdentityCase({}, 3, -3, 7)
