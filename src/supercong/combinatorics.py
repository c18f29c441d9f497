"""Exact integer and rational combinatorics used by the congruence engine.

Everything here is exact: big integers and fractions.Fraction, no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .padic import OddPrime, _prime_int

__all__ = [
    "RationalPolynomial",
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

    The transform is an involution: applying it twice returns the input.
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


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with exact rational coefficients, ascending powers.

    Normalized: no trailing zero coefficients (the zero polynomial is ()).
    """

    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "RationalPolynomial":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


_EULER_POLY: dict[int, RationalPolynomial] = {}


def euler_polynomial(n: int) -> RationalPolynomial:
    """Euler polynomial E_n(x), satisfying E_n(x) + E_n(x+1) = 2 x^n.

    Assembled from integer Euler numbers via the expansion of E_n around 1/2,
    so no triangular recursion over lower-degree polynomials is needed.
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
        _EULER_POLY[n] = RationalPolynomial.from_coeffs(coeffs)
    return _EULER_POLY[n]


def euler_polynomial_half_grid(n: int, count: int) -> list[Fraction]:
    """Values E_n(d + 1/2) for d = 0..count-1, exact.

    Seeded by E_n(1/2) = E_n / 2^n and stepped with E_n(x+1) = 2 x^n - E_n(x);
    cheaper than building degree-n coefficients when only a few points are
    needed. Cross-checked against euler_polynomial in the tests.
    """
    if count <= 0:
        return []
    vals = [Fraction(euler_number(n), 2**n)]
    for d in range(1, count):
        x = Fraction(2 * d - 1, 2)
        vals.append(2 * x**n - vals[-1])
    return vals


def euler_half_grid_mod_p(p: OddPrime | int, count: int) -> list[int]:
    """Residues of E_(p-3)(d + 1/2) mod p for d = 0..count-1, from power sums; p >= 5.

    E_n(x) = 2/(n+1) (B_(n+1)(x) - 2^(n+1) B_(n+1)(x/2)), and for y congruent to
    an integer mod p, B_(p-2)(y) == (p-2) sum_{1<=j<y} j^(p-3) (mod p): B_(p-2)
    is 0 and the polynomial is p-integral by von Staudt-Clausen. So
    E_(p-3)(x) == 2 S(x) - S(x/2) (mod p) with S(y) = sum_{1<=j<y} j^-2 and
    both arguments reduced into [0, p) (E. Lehmer, Ann. of Math. 39, 1938).
    No Euler number is built; euler_polynomial_half_grid is the exact oracle
    in the tests.
    """
    q = _prime_int(p)
    inv2 = (q + 1) // 2
    s = [0, 0]  # s[y] = S(y) for y < p
    for j in range(1, q - 1):
        s.append((s[-1] + pow(j, -2, q)) % q)
    grid = []
    for d in range(count):
        x = (2 * d + 1) * inv2 % q
        grid.append((2 * s[x] - s[x * inv2 % q]) % q)
    return grid


def binomial_p_valuation(n: int, k: int, p: OddPrime | int) -> int:
    """p-adic valuation of binom(n, k): carries when adding k and n-k base p."""
    q = _prime_int(p)
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
