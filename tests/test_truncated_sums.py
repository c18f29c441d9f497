"""truncated_sum against a direct Fraction reference, its residue path
against the exact one, and its input rules."""

import random
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supercong.combinatorics import _binomial_row
from supercong.congruences import TERM_KINDS, family_catalog, sums, truncated_sum
from supercong.congruences.identities import M_SET
from supercong.errors import NonUnitDivisor, NotPAdicInteger, PrecisionMismatch
from supercong.padic import padic_from_rational, primes_between

# every base the catalog passes to truncated_sum
_CATALOG_BASES = (8, 16, -16, 32, 24, 27, 48, 54, 63, 64, 72, 128, 432, 576, 864, -192, -216, -4032)
_FLAGS = ((False, False), (True, False), (False, True), (True, True))


def _reference(kind, upper, m, d, k_factor, catalan_weight):
    term = TERM_KINDS[kind]
    acc = Fraction(0)
    for k in range(upper + 1):
        t = Fraction(term(k, d), m**k)
        if k_factor:
            t *= k
        if catalan_weight:
            t /= k + 1
        acc += t
    return acc


def test_spec_anchor_21_over_64():
    # weight-shifted central sum at p = 7 (upper 3, shift d = 2, base 8)
    val = truncated_sum("central_shift", 7, 3, 8, d=2)
    assert val == Fraction(21, 64)
    assert val.numerator % 7 == 0


def test_small_hand_sums():
    # sum_{k<=2} binom(2k,k)^2 / 16^k = 1 + 4/16 + 36/256
    assert truncated_sum("central_sq", 5, 2, 16) == Fraction(1 + Fraction(1, 4) + Fraction(36, 256))
    # k_factor drops the k = 0 term
    assert truncated_sum("central_sq", 5, 2, 16, k_factor=True) == Fraction(1, 4) + Fraction(72, 256)
    # catalan_weight divides by k + 1
    assert truncated_sum("central_sq", 5, 2, 16, catalan_weight=True) == (
        1 + Fraction(4, 16 * 2) + Fraction(36, 256 * 3)
    )


def test_every_kind_matches_reference():
    rng = random.Random(959)
    primes = primes_between(5, 40)
    for kind in TERM_KINDS:
        for _ in range(12):
            q = rng.choice(primes)
            n = (q - 1) // 2
            upper = rng.choice((n, q - 1))
            m = rng.choice((8, 16, -16, 27, 64, -192, 432, rng.randint(1, 500)))
            if m % q == 0:
                m += 1
            d = rng.randint(0, 3) if "shift" in kind or "double" in kind else 0
            k_factor = rng.random() < 0.5
            catalan_weight = rng.random() < 0.5
            got = truncated_sum(
                kind, q, upper, m, d=d, k_factor=k_factor, catalan_weight=catalan_weight
            )
            want = _reference(kind, upper, m, d, k_factor, catalan_weight)
            assert got == want, (kind, q, upper, m, d, k_factor, catalan_weight)


def test_shift_kind_formula():
    # spot-check the term shapes really are the advertised products
    assert TERM_KINDS["central_shift"](3, 1) == comb(6, 3) * comb(6, 4)
    assert TERM_KINDS["central_double"](2, 2) == comb(4, 2) * comb(8, 4)
    assert TERM_KINDS["cubic"](3, 0) == comb(9, 3) * comb(6, 3)
    assert TERM_KINDS["quartic"](2, 0) == comb(8, 4) * comb(4, 2)
    assert TERM_KINDS["sextic"](2, 0) == comb(12, 6) * comb(6, 2)


def test_upper_bound_validation():
    with pytest.raises(ValueError):
        truncated_sum("central_sq", 7, 2, 16)  # 2 is neither 3 nor 6
    truncated_sum("central_sq", 7, 3, 16)
    truncated_sum("central_sq", 7, 6, 16)


def test_base_must_be_a_unit():
    with pytest.raises(NonUnitDivisor):
        truncated_sum("central_sq", 7, 3, 0)
    with pytest.raises(NonUnitDivisor):
        truncated_sum("central_sq", 7, 3, 14)
    truncated_sum("central_sq", 7, 3, -15)


def _exact_residue(kind, q, upper, m, d, k_factor, catalan_weight, power):
    """padic_from_rational of the exact sum, or the exception type either raises."""
    try:
        exact = truncated_sum(kind, q, upper, m, d=d, k_factor=k_factor, catalan_weight=catalan_weight)
        return padic_from_rational(exact, q, power)
    except (NonUnitDivisor, NotPAdicInteger) as exc:
        return type(exc)


def _residue(kind, q, upper, m, d, k_factor, catalan_weight, power):
    try:
        return truncated_sum(kind, q, upper, m, d=d, k_factor=k_factor, catalan_weight=catalan_weight, power=power)
    except (NonUnitDivisor, NotPAdicInteger) as exc:
        return type(exc)


def test_residue_path_matches_exact_reduction(monkeypatch):
    # Every kind x upper in {n, p-1} x base x flag pair at primes <= 40.
    # The d-free kernels ignore d, so two shifts cover them; the others run
    # every d <= upper. The power cycles through 1, 2, 3 along (d, flags),
    # so each (kind, prime, upper, base) meets all three. The oracle's
    # kernel values are memoized (pure functions of (k, d)).
    for kind, term in TERM_KINDS.items():
        monkeypatch.setitem(sums.TERM_KINDS, kind, lru_cache(maxsize=None)(term))
    bases = sorted(set(M_SET) | set(_CATALOG_BASES))
    primes = primes_between(5, 40)
    seen, non_units = set(), 0
    for q in primes:
        for kind in TERM_KINDS:
            d_free = "shift" not in kind and "double" not in kind
            for upper in ((q - 1) // 2, q - 1):
                shifts = (0, upper) if d_free else range(upper + 1)
                for m in bases:
                    for d in shifts:
                        for i, (k_factor, catalan_weight) in enumerate(_FLAGS):
                            power = 1 + (d + i) % 3
                            want = _exact_residue(kind, q, upper, m, d, k_factor, catalan_weight, power)
                            got = _residue(kind, q, upper, m, d, k_factor, catalan_weight, power)
                            assert got == want, (kind, q, upper, m, d, k_factor, catalan_weight, power)
                            seen.add((kind, q, upper, m, power))
                            non_units += want is NonUnitDivisor
    assert len(seen) == len(TERM_KINDS) * 2 * len(bases) * len(primes) * 3
    assert non_units  # 63 and -4032 at p = 7


@pytest.mark.parametrize(
    ("term", "spec"),
    [
        (lambda k, d: 1, ((1, 0), (1, 0))),
        (lambda k, d: comb(2 * k, k + d), ((1, 0), "shift")),
        (lambda k, d: comb(2 * (k + d), k + d), ((1, 0), "double")),
    ],
    ids=["ones", "shift-alone", "double-alone"],
)
def test_residue_path_raises_like_exact_reduction(term, spec, monkeypatch):
    # Every catalog kernel vanishes mod p at k = p - 1, so its Catalan tail is
    # always p-integral; these planted kernels do not, for some or all d.
    monkeypatch.setitem(sums.TERM_KINDS, "planted", term)
    monkeypatch.setitem(sums._RESIDUE_KERNELS, "planted", spec)
    raised = 0
    for q in primes_between(5, 30):
        for upper in ((q - 1) // 2, q - 1):
            for d in range(upper + 1):
                for k_factor, catalan_weight in _FLAGS:
                    for power in (1, 2, 3):
                        want = _exact_residue("planted", q, upper, 16, d, k_factor, catalan_weight, power)
                        got = _residue("planted", q, upper, 16, d, k_factor, catalan_weight, power)
                        assert got == want, (q, upper, d, k_factor, catalan_weight, power)
                        raised += want is NotPAdicInteger
    assert raised


def test_residue_path_input_rules():
    for m in (0, 7, -14):
        with pytest.raises(NonUnitDivisor):
            truncated_sum("central_sq", 7, 3, m, power=2)
    with pytest.raises(ValueError):
        truncated_sum("central_sq", 7, 2, 16, power=2)
    with pytest.raises(ValueError):
        truncated_sum("central_shift", 7, 3, 16, d=-1, power=2)
    for power in (0, 4):
        with pytest.raises(PrecisionMismatch):
            truncated_sum("central_sq", 7, 3, 16, power=power)
    assert truncated_sum("central_shift", 7, 3, 8, d=2, power=1) == 0  # 21/64, a multiple of 7


_SHIFTED_KINDS = [kind for kind in TERM_KINDS if "shift" in kind or "double" in kind]


def _shift_sequence(q, upper):
    """Shifts in and past both bounds, past p, one repeated, in no order."""
    n = (q - 1) // 2
    return [upper, 0, 1, n, n + 1, 1, q + 2, upper // 2]


def test_shift_sequence_is_its_scalar_calls_and_the_exact_route(monkeypatch):
    # One call over a sequence of shifts must be the list of the scalar calls,
    # exact and mod p^K, and the reduction of each exact sum. K rises 1, 2, 3
    # at one (kind, p, base, flags), so a table reduced mod p^K and cached
    # without K would fail.
    for kind, term in TERM_KINDS.items():
        monkeypatch.setitem(sums.TERM_KINDS, kind, lru_cache(maxsize=None)(term))
    rng = random.Random(1404)
    checked = 0
    for q in [*primes_between(5, 40), 101]:
        for kind in _SHIFTED_KINDS:
            m = rng.choice([b for b in _CATALOG_BASES if b % q])
            for upper in ((q - 1) // 2, q - 1):
                ds = _shift_sequence(q, upper)
                for k_factor, catalan_weight in _FLAGS:
                    flags = {"k_factor": k_factor, "catalan_weight": catalan_weight}
                    exact = truncated_sum(kind, q, upper, m, d=ds, **flags)
                    assert exact == [truncated_sum(kind, q, upper, m, d=d, **flags) for d in ds]
                    assert truncated_sum(kind, q, upper, m, d=[], **flags) == []
                    for power in (1, 2, 3):
                        got = truncated_sum(kind, q, upper, m, d=ds, power=power, **flags)
                        scalar = [truncated_sum(kind, q, upper, m, d=d, power=power, **flags) for d in ds]
                        reduced = [padic_from_rational(x, q, power) for x in exact]
                        assert got == scalar == reduced, (kind, q, upper, m, flags, power)
                        assert truncated_sum(kind, q, upper, m, d=(), power=power, **flags) == []
                        checked += 1
    assert checked == (len(primes_between(5, 40)) + 1) * len(_SHIFTED_KINDS) * 2 * len(_FLAGS) * 3
    with pytest.raises(ValueError):
        truncated_sum("central_shift", 7, 3, 16, d=[1, -1], power=2)


@pytest.mark.parametrize(
    ("term", "spec"),
    [
        (lambda k, d: 1, ((1, 0), (1, 0))),
        (lambda k, d: comb(2 * k, k + d), ((1, 0), "shift")),
        (lambda k, d: comb(2 * (k + d), k + d), ((1, 0), "double")),
    ],
    ids=["ones", "shift-alone", "double-alone"],
)
def test_shift_sequence_raises_when_a_scalar_call_raises(term, spec, monkeypatch):
    # The planted kernels of test_residue_path_raises_like_exact_reduction: a
    # sequence raises NotPAdicInteger exactly when one of its shifts does alone.
    monkeypatch.setitem(sums.TERM_KINDS, "planted", term)
    monkeypatch.setitem(sums._RESIDUE_KERNELS, "planted", spec)
    outcomes = set()
    for q in primes_between(5, 30):
        for upper in ((q - 1) // 2, q - 1):
            sequences = [list(range(upper + 1)), *([d, d + 1, d] for d in range(upper + 1))]
            for k_factor, catalan_weight in _FLAGS:
                flags = {"k_factor": k_factor, "catalan_weight": catalan_weight}
                for power in (1, 2, 3):
                    for ds in sequences:
                        scalar = [_residue("planted", q, upper, 16, d, k_factor, catalan_weight, power) for d in ds]
                        want = NotPAdicInteger if NotPAdicInteger in scalar else scalar
                        try:
                            got = truncated_sum("planted", q, upper, 16, d=ds, power=power, **flags)
                        except NotPAdicInteger:
                            got = NotPAdicInteger
                        assert got == want, (q, upper, ds, k_factor, catalan_weight, power)
                        outcomes.add(want is NotPAdicInteger)
    assert outcomes == {True, False}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 2**70), min_size=1, max_size=40),
    st.lists(st.sampled_from([0, 1, 255, 256, 2**64 - 1, 2**64]) | st.integers(0, 2**70), min_size=1, max_size=40),
    st.integers(0, 80),
)
@example([0], [0], 1)
@example([7], [3, 0, 5], 3)
@example([2**70, 0], [0, 0, 0], 4)  # all-zero products, wide entries
@example([2**64 - 1] * 2, [2**64 - 1], 2)  # every product fills its slot
def test_product_matches_naive_sum(a, b, count):
    # slot-wide values (255, 2^64 - 1) sit on a byte boundary of the packing
    size = len(a) + len(b) - 1
    want = [sum(a[i] * b[n - i] for i in range(len(a)) if 0 <= n - i < len(b)) for n in range(size)]
    # the first len(a) slots, as the dual and L1 read them
    assert sums._product(a, b, 0, len(a)) == want[: len(a)]
    assert sums._product(b, a, 0, len(b)) == want[: len(b)]
    # a window of up to count slots at every start, as the double kernels read one
    for start in range(size):
        stop = min(start + count, size)
        assert sums._product(a, b, start, stop - start) == want[start:stop], start


def _per_shift_double(kind, q, upper, m, ds, k_factor, catalan_weight, power):
    """The per-shift oracle of a double kernel's residues: sum_k t_k C(2(k+d), k+d) mod p^power,
    one pass of products per shift d, with t_k its d-free factors over m^k times the weight
    a + b k + c/(k+1); k + 1 <= upper + 1 < p is a unit for upper = (p-1)/2."""
    mod = q**power
    a, b, c = sums._FLAG_WEIGHTS[k_factor, catalan_weight]
    table = sums._kernel_table(kind, q, m)[: upper + 1]
    terms = [t * (a + b * k + c * pow(k + 1, -1, mod)) % mod for k, t in enumerate(table)]
    row = [x % mod for x in _binomial_row(q, 2, 1)]
    return [sum(map(mul, terms, row[d:])) % mod for d in ds]


@pytest.mark.parametrize("kind", ["central_double", "cubic_double", "quartic_double"])
def test_double_kernels_match_the_per_shift_oracle(kind):
    # every shift of p = 1999 in one call, and a shuffled sample with repeats,
    # at every flag pair and K; the oracle is taken mod p^3 once and reduced
    q, upper = 1999, 999
    rng = random.Random(1999)
    m = rng.choice(_CATALOG_BASES)
    every = list(range(upper + 1))
    sample = rng.choices(every, k=300)
    assert len(set(sample)) < len(sample)
    for k_factor, catalan_weight in _FLAGS:
        oracle = _per_shift_double(kind, q, upper, m, every, k_factor, catalan_weight, 3)
        for power in (1, 2, 3):
            flags = {"k_factor": k_factor, "catalan_weight": catalan_weight, "power": power}
            want = [x % q**power for x in oracle]
            assert truncated_sum(kind, q, upper, m, d=every, **flags) == want, (kind, flags)
            assert truncated_sum(kind, q, upper, m, d=sample, **flags) == [want[d] for d in sample], (kind, flags)


def test_kernel_table_cache_holds_one_prime(monkeypatch):
    # Every table one prime of the catalog needs fits in the cache at once, so
    # no table is built twice, whatever order the families run in.
    keys = []
    kernel = sums._kernel_table

    def spy(*args):
        keys.append(args)
        return kernel(*args)

    monkeypatch.setattr(sums, "_kernel_table", spy)
    kernel.cache_clear()
    for fam in family_catalog():
        if fam.id != "T1.1" and fam.applies(149):
            list(fam.cases(149))
    assert len(keys) > len(set(keys))
    assert kernel.cache_info().misses == len(set(keys))


def test_kernel_residues_stop_at_p():
    # the tables end at k = p - 1: a full count matches the exact kernel, and one past p raises
    for q in (5, 13):
        for kind in TERM_KINDS:
            mod = q * q
            want = [TERM_KINDS[kind](k, 0) * pow(27, -k, mod) % mod for k in range(q)]
            assert sums.kernel_residues(kind, q, 27, q, 2) == want, (kind, q)
            with pytest.raises(ValueError):
                sums.kernel_residues(kind, q, 27, q + 1, 2)


# 41 terms: lcm(1..u+1) grows at every prime power up to 41
_CATALAN_TERMS = [comb(2 * k, k) * comb(3 * k, k) for k in range(41)]


@settings(max_examples=150, deadline=None)
@given(
    terms=st.lists(st.just(0) | st.integers(-(10**40), 10**40), max_size=41),
    m=st.sampled_from([1, -1]) | st.integers(-(10**15), 10**15),
    a=st.integers(-100, 100),
    b=st.integers(-5000, 5000),
    c=st.sampled_from([0, 1, -1, 4, 60]),
)
@example(terms=_CATALAN_TERMS, m=-(10**15), a=0, b=27, c=6)
@example(terms=_CATALAN_TERMS, m=10**15, a=3, b=432, c=60)
@example(terms=_CATALAN_TERMS, m=1, a=1, b=16, c=0)
@example(terms=_CATALAN_TERMS, m=-1, a=-7, b=64, c=-1)
@example(terms=[0] * 5 + _CATALAN_TERMS[5:], m=16, a=1, b=0, c=0)
@example(terms=[], m=8, a=1, b=1, c=1)
def test_weighted_coefficients_evaluate_to_weighted_prefixes(terms, m, a, b, c):
    # the Horner value at m of the u-th coefficient list is the u-th numerator
    # of weighted_prefixes at the weight a + (b - m) k + c/(k+1), over the same big
    steps = list(zip(sums._weighted_coefficients(terms, a, b, c), sums.weighted_prefixes(terms, m, a, b - m, c)))
    assert len(steps) == len(terms)
    for u, ((coeffs, big), (num, want_big)) in enumerate(steps):
        assert len(coeffs) == u + 1
        value = 0
        for x in coeffs:
            value = value * m + x
        assert (value, big) == (num, want_big), u
        assert c or big == 1
