"""Residue arithmetic: canonical forms, precision rules, rational reduction."""

import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from supercong.errors import InvalidPrime, NotPAdicInteger, PrecisionMismatch
from supercong.padic import (
    MR_EXACT_BOUND,
    is_prime,
    legendre_symbol,
    odd_prime,
    padic_from_rational,
    primes_between,
    signed_residue,
)


def _trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(2000):
        assert is_prime(n) == _trial_division_prime(n), n


def test_is_prime_large_composites():
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_is_prime_exact_below_its_stated_bound():
    # the least strong pseudoprime to the primes up to 37 lies below the bound,
    # so base 41 must catch it; the bound itself is the one up to 41
    psi12 = 399165290221 * 798330580441
    assert psi12 < MR_EXACT_BOUND
    assert not is_prime(psi12)
    assert MR_EXACT_BOUND == 1287836182261 * 2575672364521
    assert is_prime(MR_EXACT_BOUND)  # a strong probable prime, past the exact range


def test_primes_between_closed_interval():
    assert primes_between(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_between(10, 10) == []
    assert primes_between(11, 11) == [11]
    assert primes_between(30, 5) == []
    assert primes_between(-3, 2) == [2]
    assert primes_between(2, 1000) == [n for n in range(2, 1001) if is_prime(n)]


def test_odd_prime_accepts_only_primes_at_least_five():
    for bad in (0, 1, 2, 3, 4, 6, 9, 15, 91):
        with pytest.raises(InvalidPrime):
            odd_prime(bad)
    assert odd_prime(13) == 13
    assert type(odd_prime(np.int64(11))) is int
    assert odd_prime(7) is odd_prime(7)  # cached


def test_signed_residue_balanced_window():
    assert signed_residue(6, 7) == -1
    assert signed_residue(3, 7) == 3
    assert signed_residue(4, 8) == 4
    assert signed_residue(5, 8) == -3
    rng = random.Random(101)
    for _ in range(300):
        m = rng.randint(2, 10**6)
        r = rng.randint(-(10**9), 10**9)
        s = signed_residue(r, m)
        assert s % m == r % m
        assert -m // 2 <= s <= m // 2


def test_legendre_symbol_matches_square_table():
    for q in primes_between(5, 60):
        squares = {x * x % q for x in range(1, q)}
        for a in range(2 * q):
            want = 0 if a % q == 0 else (1 if a % q in squares else -1)
            assert legendre_symbol(a, q) == want, (a, q)


def test_residue_canonical_and_signed():
    r = padic_from_rational(-3, odd_prime(7), 2)
    assert type(r) is int and r == 46
    assert padic_from_rational(52, 7, 2) == padic_from_rational(3, 7, 2) == 3
    assert signed_residue(r, 7**2) == -3


def test_residue_precision_validation():
    for precision in (0, 4):
        with pytest.raises(PrecisionMismatch):
            padic_from_rational(1, 7, precision)
    with pytest.raises(InvalidPrime):
        padic_from_rational(1, 9, 2)


def test_truncation_commutes_with_arithmetic():
    # reducing a residue mod p^3 further to mod p^2 commutes with + - *
    rng = random.Random(303)
    for _ in range(200):
        q = rng.choice(primes_between(5, 50))
        a = Fraction(rng.randint(-(10**6), 10**6), rng.choice((1, 2, 3, 4, 9, 16)))
        b = Fraction(rng.randint(-(10**6), 10**6), rng.choice((1, 2, 3, 4, 9, 16)))
        x, y = (padic_from_rational(v, q, 3) for v in (a, b))
        for op in (operator.add, operator.sub, operator.mul):
            high = padic_from_rational(op(a, b), q, 3)
            assert high % q**2 == op(x % q**2, y % q**2) % q**2
            assert high % q**2 == padic_from_rational(op(a, b), q, 2)


def test_from_rational_reduction():
    r = padic_from_rational(Fraction(1, 2), 7, 2)
    assert r * 2 % 49 == 1
    assert padic_from_rational(Fraction(-3, 4), 5, 3) == (-3 * pow(4, -1, 125)) % 125
    assert padic_from_rational(10, 5, 1) == 0
    with pytest.raises(NotPAdicInteger):
        padic_from_rational(Fraction(1, 5), 5, 2)
    with pytest.raises(NotPAdicInteger):
        padic_from_rational(Fraction(3, 35), 5, 1)
    # p in an unreduced denominator is fine once it cancels
    assert padic_from_rational(Fraction(5, 10), 5, 1) == 3


def test_from_rational_int_and_fraction_agree():
    # an int is reduced directly, with no Fraction; it must land where the
    # Fraction of the same value does, negatives and bools included
    for q in primes_between(5, 40):
        for k in (1, 2, 3):
            for value in (0, 1, -1, 7, -52, q, -q, q**3 + 2, -(q**4) - 5, 10**30 + 1, True, False):
                r = padic_from_rational(value, q, k)
                assert type(r) is int and 0 <= r < q**k
                assert r == padic_from_rational(Fraction(value), q, k), (value, q, k)


@pytest.mark.parametrize("value", [0.5, 2.0, "1/2", "3"], ids=["float", "integral-float", "str", "integral-str"])
def test_from_rational_rejects_inexact_input(value):
    # Fraction() would accept each of these; a residue is only taken of exact input
    with pytest.raises(TypeError):
        padic_from_rational(value, 7, 2)


def test_from_rational_is_a_ring_homomorphism():
    rng = random.Random(404)
    for _ in range(300):
        q = rng.choice(primes_between(5, 40))
        k = rng.choice((1, 2, 3))
        a = Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 4, 9, 16)))
        b = Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 4, 9, 16)))
        m = q**k
        fa = padic_from_rational(a, q, k)
        fb = padic_from_rational(b, q, k)
        assert padic_from_rational(a + b, q, k) == (fa + fb) % m
        assert padic_from_rational(a - b, q, k) == (fa - fb) % m
        assert padic_from_rational(a * b, q, k) == fa * fb % m
