"""Exact combinatorics: duals, Bernoulli/Euler data, Euler polynomials, per-prime tables."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from supercong.combinatorics import (
    _TABLE_POWER,
    _binomial_row,
    _factorials,
    _powers,
    bernoulli_number,
    binomial_p_valuation,
    catalan,
    dual_transform,
    euler_half_grid_mod_p,
    euler_number,
    euler_polynomial,
    euler_polynomial_half_grid,
    pascal_row,
)
from supercong.errors import InvalidPrime
from supercong.padic import primes_between


def test_catalan_small_values_and_recurrence():
    assert [catalan(k) for k in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    for n in range(1, 30):
        assert catalan(n) == sum(catalan(i) * catalan(n - 1 - i) for i in range(n))
    with pytest.raises(ValueError):
        catalan(-1)


def test_pascal_row_matches_comb():
    for n in (0, 1, 2, 7, 20, 33):
        assert pascal_row(n) == tuple(comb(n, k) for k in range(n + 1))


def test_dual_transform_is_an_involution():
    rng = random.Random(90210)
    for _ in range(500):
        length = rng.randint(0, 50)
        a = [rng.randint(-99, 99) for _ in range(length)]
        assert dual_transform(dual_transform(a)) == a


def test_dual_transform_known_pairs():
    assert dual_transform([1] * 6) == [1, 0, 0, 0, 0, 0]
    # geometric r^k maps to (1-r)^k
    for r in (2, 3, -1, 5):
        a = [r**k for k in range(12)]
        assert dual_transform(a) == [(1 - r) ** n for n in range(12)]


def test_bernoulli_small_values():
    want = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, b in want.items():
        assert bernoulli_number(n) == b
    for n in range(3, 41, 2):
        assert bernoulli_number(n) == 0


def test_bernoulli_signed_dual_shift():
    # sum_k binom(n,k) (-1)^k B_k = B_n + n for n >= 2
    bs = [bernoulli_number(n) for n in range(41)]
    dual = dual_transform(bs)
    assert dual[0] == bs[0]
    for n in range(2, 41):
        assert dual[n] == bs[n] + n, n


def test_euler_numbers():
    assert [euler_number(n) for n in range(11)] == [
        1, 0, -1, 0, 5, 0, -61, 0, 1385, 0, -50521,
    ]
    with pytest.raises(ValueError):
        euler_number(-2)


def test_euler_polynomial_defining_relation():
    rng = random.Random(515)
    for n in range(41):
        en = euler_polynomial(n)
        for _ in range(3):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            assert en(x) + en(x + 1) == 2 * x**n, n


def test_euler_polynomial_special_values():
    for n in range(2, 41, 2):
        assert euler_polynomial(n)(Fraction(0)) == 0, n
    for n in range(41):
        assert euler_polynomial(n)(Fraction(1, 2)) * 2**n == euler_number(n), n


def test_euler_half_grid_matches_polynomial():
    for n in range(26):
        en = euler_polynomial(n)
        grid = euler_polynomial_half_grid(n, 6)
        assert grid == [en(Fraction(2 * d + 1, 2)) for d in range(6)]
    assert euler_polynomial_half_grid(5, 0) == []


def test_euler_half_grid_mod_p_matches_exact_grid():
    # the power-sum route against the exact grid reduced mod p, at every d < p
    for q in primes_between(5, 200):
        exact = euler_polynomial_half_grid(q - 3, q)
        want = [v.numerator * pow(v.denominator, -1, q) % q for v in exact]
        assert euler_half_grid_mod_p(q, q) == want, q
    assert euler_half_grid_mod_p(7, 0) == []
    with pytest.raises(InvalidPrime):
        euler_half_grid_mod_p(3, 1)


def test_special_numbers_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(61):
        if n == 1:
            continue  # sympy uses the B_1 = +1/2 convention; we use -1/2
        b = sympy.bernoulli(n)
        assert bernoulli_number(n) == Fraction(int(b.p), int(b.q)), n
    for n in range(41):
        assert euler_number(n) == int(sympy.euler(n)), n
    x = sympy.Symbol("x")
    rng = random.Random(313)
    for n in range(21):
        poly = sympy.euler(n, x)
        for _ in range(2):
            pt = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            v = sympy.Rational(pt.numerator, pt.denominator)
            want = sympy.Rational(poly.subs(x, v))
            assert euler_polynomial(n)(pt) == Fraction(int(want.p), int(want.q)), n


def _valuation(n, p):
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def test_kummer_valuation_matches_factorization():
    for p in (5, 7, 11, 13):
        for n in range(301):
            for k in range(0, n + 1, 7):
                assert binomial_p_valuation(n, k, p) == _valuation(comb(n, k), p), (n, k, p)
    with pytest.raises(ValueError):
        binomial_p_valuation(3, 5, 7)


@pytest.mark.parametrize("q", [5, 7, 101, 1999])
def test_residue_tables_match_exact_values(q):
    mod = q**_TABLE_POWER
    # every k below 1000; past it every 16th k and the last two, since comb takes
    # 7.7 s for the four rows at 1999 and a wrong step corrupts every later k
    ks = range(q) if q < 1000 else sorted({*range(0, q, 16), q - 2, q - 1})
    # the catalog's rows: C(2k, k), C(3k, k), C(4k, 2k) and C(6k, 3k)
    for a, b in ((2, 1), (3, 1), (4, 2), (6, 3)):
        row = _binomial_row(q, a, b)
        assert len(row) == q and [row[k] for k in ks] == [comb(a * k, b * k) % mod for k in ks], (a, b)
    fact, inv_fact = _factorials(q)
    for j in (0, 1, 2, 3, q // 2, q - 2, q - 1):
        assert fact[j] * inv_fact[j] % mod == 1 and fact[j] == factorial(j) % mod, j


def test_powers_match_pow():
    rng = random.Random(5)
    for m in (2, 7, 49, 1999**4, 2**70 + 1):
        for x in (0, 1, -1, m - 1, -16, rng.randrange(m), rng.randrange(-(m**2), m**2)):
            assert _powers(x, 40, m) == [pow(x, k, m) for k in range(40)], (x, m)
    assert _powers(3, 0, 7) == []
