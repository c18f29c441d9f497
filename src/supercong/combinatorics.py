"""Exact integer and rational combinatorics, and the per-prime residue tables.

The exact values are big integers and fractions.Fraction, no floats. The
per-prime tables hold what every claim of the catalog is checked from, mod
p^4: the factorials j! and 1/j! for j < p and the binomial rows C(a k, b k)
for k < p; _powers gives the columns x^k mod any modulus (m^-k, base^-h,
(lambda/16)^k). The sums, the families (the lemmas I8-I11 among them) and
curves' C(2k, k) row all read them here, the one evaluator of each.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, perm
from typing import Callable, Sequence

from .padic import odd_prime

__all__ = [
    "bernoulli_number",
    "binomial_p_valuation",
    "catalan",
    "dual_transform",
    "euler_number",
    "euler_half_grid_mod_p",
    "euler_polynomial",
    "euler_polynomial_half_grid",
    "pascal_row",
]


def catalan(k: int) -> int:
    """Catalan number binom(2k, k)/(k + 1); the division is exact."""
    if k < 0:
        raise ValueError(f"index must be nonnegative, got {k}")
    return comb(2 * k, k) // (k + 1)


_PASCAL: list[tuple[int, ...]] = [(1,)]


def pascal_row(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle, cached across calls."""
    while len(_PASCAL) <= n:
        prev = _PASCAL[-1]
        _PASCAL.append(
            (1, *(prev[i] + prev[i + 1] for i in range(len(prev) - 1)), 1)
        )
    return _PASCAL[n]


def dual_transform(a: Sequence) -> list:
    """Binomial dual b_n = sum_k binom(n,k) (-1)^k a_k, same length as a.

    An involution; the exact oracle of the families' one-product dual M^T w.
    """
    out = []
    for n in range(len(a)):
        row = pascal_row(n)
        s = 0
        for k in range(0, n + 1, 2):
            s += row[k] * a[k]
        for k in range(1, n + 1, 2):
            s -= row[k] * a[k]
        out.append(s)
    return out


_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n in the convention with B_1 = -1/2."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        row = pascal_row(m + 1)
        acc = Fraction(0)
        for k in range(m):
            if _BERNOULLI[k]:
                acc += row[k] * _BERNOULLI[k]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


_EULER: list[int] = [1]


def euler_number(n: int) -> int:
    """Integer Euler number E_n = 2^n E_n(1/2); zero for odd n."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    while len(_EULER) <= n:
        m = len(_EULER)
        if m % 2:
            _EULER.append(0)
        else:
            # sum_{j<=m/2} binom(m, 2j) E_{2j} = 0 for even m >= 2
            row = pascal_row(m)
            acc = 0
            for k in range(0, m, 2):
                acc += row[k] * _EULER[k]
            _EULER.append(-acc)
    return _EULER[n]


def _horner(coeffs: tuple[Fraction, ...], x) -> Fraction:
    """sum_j coeffs[j] x^j, exact, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


_EULER_POLY: dict[int, partial] = {}


def euler_polynomial(n: int) -> Callable[[Fraction], Fraction]:
    """Euler polynomial E_n(x), satisfying E_n(x) + E_n(x+1) = 2 x^n, as an exact function of x.

    Assembled from integer Euler numbers via the expansion of E_n around 1/2,
    so no triangular recursion over lower-degree polynomials is needed. The
    function is _horner over the ascending coefficients, cached per n.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n not in _EULER_POLY:
        coeffs = [Fraction(0)] * (n + 1)
        for k in range(0, n + 1, 2):
            e = euler_number(k)
            if e == 0:
                continue
            base = comb(n, k) * Fraction(e, 2**k)
            # expand (x - 1/2)^(n-k)
            for j in range(n - k + 1):
                coeffs[j] += base * comb(n - k, j) * Fraction((-1) ** (n - k - j), 2 ** (n - k - j))
        _EULER_POLY[n] = partial(_horner, tuple(coeffs))
    return _EULER_POLY[n]


def euler_polynomial_half_grid(n: int, count: int) -> list[Fraction]:
    """Values E_n(d + 1/2) for d = 0..count-1, exact.

    Seeded by E_n(1/2) = E_n / 2^n and stepped with E_n(x+1) = 2 x^n - E_n(x).
    No family calls it: it is the tests' exact oracle of the fast path
    euler_half_grid_mod_p, and is checked there against euler_polynomial.
    """
    if count <= 0:
        return []
    vals = [Fraction(euler_number(n), 2**n)]
    for d in range(1, count):
        x = Fraction(2 * d - 1, 2)
        vals.append(2 * x**n - vals[-1])
    return vals


def euler_half_grid_mod_p(p: int, count: int) -> list[int]:
    """Residues of E_(p-3)(d + 1/2) mod p for d = 0..count-1, from power sums; p >= 5.

    E_n(x) = 2/(n+1) (B_(n+1)(x) - 2^(n+1) B_(n+1)(x/2)), and for y congruent to
    an integer mod p, B_(p-2)(y) == (p-2) sum_{1<=j<y} j^(p-3) (mod p): B_(p-2)
    is 0 and the polynomial is p-integral by von Staudt-Clausen. So
    E_(p-3)(x) == 2 S(x) - S(x/2) (mod p) with S(y) = sum_{1<=j<y} j^-2 and
    both arguments reduced into [0, p) (E. Lehmer, Ann. of Math. 39, 1938).
    No Euler number is built; euler_polynomial_half_grid is the exact oracle
    in the tests.
    """
    q = odd_prime(p)
    inv2 = (q + 1) // 2
    s = [0, 0]  # s[y] = S(y) for y < p
    for j in range(1, q - 1):
        s.append((s[-1] + pow(j, -2, q)) % q)
    grid = []
    for d in range(count):
        x = (2 * d + 1) * inv2 % q
        grid.append((2 * s[x] - s[x * inv2 % q]) % q)
    return grid


def binomial_p_valuation(n: int, k: int, p: int) -> int:
    """p-adic valuation of binom(n, k): carries when adding k and n-k base p."""
    q = odd_prime(p)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n} k={k}")
    a, b = k, n - k
    carries = carry = 0
    while a or b or carry:
        carry = 1 if a % q + b % q + carry >= q else 0
        carries += carry
        a //= q
        b //= q
    return carries


# -- per-prime residue tables --------------------------------------------------

# The residue path keeps its tables mod p^4: precision K <= 3, plus one power
# of p for the Catalan tail at k = p - 1, the only term whose weight 1/(k+1)
# is not a p-adic unit.
_TABLE_POWER = 4


@lru_cache(maxsize=4)
def _factorials(q: int) -> tuple[list[int], list[int]]:
    """j! and 1/j! mod p^4 for j < p; every one is a p-adic unit."""
    mod = q**_TABLE_POWER
    fact = [1] * q
    for j in range(1, q):
        fact[j] = fact[j - 1] * j % mod
    inv = [1] * q
    inv[q - 1] = pow(fact[q - 1], -1, mod)
    for j in range(q - 1, 1, -1):
        inv[j - 1] = inv[j] * j % mod
    return fact, inv


@lru_cache(maxsize=16)
def _binomial_row(q: int, a: int, b: int) -> list[int]:
    """C(a k, b k) mod p^4 for k < p.

    Stepped exactly from C(a (k-1), b (k-1)) by the new factors of (a k)!
    over those of (b k)! and ((a-b) k)!, so each step costs a few
    multiplications by small ints; comb(6k, 3k) from scratch for every
    k < 1999 takes about 100 times longer.
    """
    mod = q**_TABLE_POWER
    row = [1] * q
    exact = 1
    for k in range(1, q):
        exact = exact * perm(a * k, a) // (perm(b * k, b) * perm((a - b) * k, a - b))
        row[k] = exact % mod
    return row


def _powers(x: int, size: int, mod: int) -> list[int]:
    """x^k mod mod for k < size."""
    powers, w = [], 1
    for _ in range(size):
        powers.append(w)
        w = w * x % mod
    return powers
