"""Character sums and point counts for y^2 = x(x - 1)(x - lambda) over F_p.

Scalar routines here are the reference implementations; the *_grid variants
vectorize the full (lambda, d) sweep with numpy and are cross-checked against
the scalar route in the tests. Both closed-form routes read C(2k, k) mod p from
central_binomials_mod, which reduces combinatorics' row C(2k, k) mod p^4, the
same row the truncated sums use.

Both grids are matrix products of integers below p, taken in float64 so that
BLAS computes them. A float64 holds every integer below 2^53 exactly, and each
grid bounds the absolute value of every partial sum of its product below that
(p(p - 1) and (p+1)/2 (p - 1)^2). Every addition and fused multiply-add then
rounds nothing, so the product is exact in whatever order dgemm sums it.
_grid_prime enforces (p+1)/2 (p - 1)^2 < 2^53, which holds up to p = 262,139.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .combinatorics import _binomial_row, _powers
from .errors import GridBoundExceeded, WeightZero, WrongResidueClass
from .padic import odd_prime

__all__ = [
    "TwoSquares",
    "char_sum_a",
    "char_sum_table",
    "cornacchia_two_squares",
    "count_points",
    "thm11_rhs",
    "thm11_rhs_grid",
    "weighted_char_sum",
    "weighted_char_sum_grid",
    "weighted_point_count",
]


@dataclass(frozen=True)
class TwoSquares:
    """p = x^2 + y^2 with the normalization x == 1 (mod 4), y even and >= 0."""

    p: int
    x: int
    y: int

    def __post_init__(self) -> None:
        odd_prime(self.p)  # raises InvalidPrime
        ok = (
            self.x % 4 == 1
            and self.y >= 0
            and self.y % 2 == 0
            and self.x * self.x + self.y * self.y == self.p
        )
        if not ok:
            raise ValueError(f"({self.x}, {self.y}) is not normalized for {self.p}")


@lru_cache(maxsize=64)
def _chi_table(q: int) -> tuple[int, ...]:
    """Legendre symbol (a/q) for a = 0..q-1, built by marking squares."""
    t = [-1] * q
    t[0] = 0
    for x in range(1, q // 2 + 1):
        t[x * x % q] = 1
    return tuple(t)


@lru_cache(maxsize=16)
def _sq_count(q: int) -> tuple[int, ...]:
    """Number of y in F_q with y^2 = a, for a = 0..q-1 (independent of chi)."""
    t = [0] * q
    for y in range(q):
        t[y * y % q] += 1
    return tuple(t)


@lru_cache(maxsize=32)
def central_binomials_mod(q: int) -> tuple[int, ...]:
    """binom(2m, m) mod q for m = 0..q-1, the combinatorics row C(2k, k) mod q^4 reduced."""
    return tuple(c % q for c in _binomial_row(q, 2, 1))


def char_sum_a(p: int, lam: int) -> int:
    """Trace term a_p(lambda) = sum_x chi(x(x-1)(x-lambda)), exact: weighted_char_sum at weight x^0."""
    return weighted_char_sum(p, lam, 0)


def count_points(p: int, lam: int) -> int:
    """#E_p(lambda) including the point at infinity.

    Counts square roots per x directly, with no Legendre symbol, so the
    identity count_points = p + 1 + char_sum_a checks the chi-sum evaluator
    weighted_char_sum by an independent route.
    """
    q = odd_prime(p)
    lam %= q
    sq = _sq_count(q)
    return 1 + sum(sq[x * (x - 1) % q * (x - lam) % q] for x in range(q))


def weighted_char_sum(p: int, lam: int, d: int) -> int:
    """a_p^(d)(lambda) = sum_x x^d chi(x(x-1)(x-lambda)) as an exact integer."""
    q = odd_prime(p)
    lam %= q
    if not 0 <= d <= (q - 1) // 2:
        raise ValueError(f"d must lie in [0, (p-1)/2], got {d}")
    chi = _chi_table(q)
    return sum(x**d * chi[x * (x - 1) % q * (x - lam) % q] for x in range(q))


def weighted_point_count(p: int, lam: int, d: int) -> int:
    """1 + sum_x x^d #{y : y^2 = x(x-1)(x-lambda)} for d >= 1, exact.

    Modulo p this equals 1 + weighted_char_sum(p, lam, d). The unweighted
    count (d = 0) is count_points; asking for weight x^0 here is an error.
    """
    q = odd_prime(p)
    if d == 0:
        raise WeightZero("weight x^0 is count_points, not a weighted count")
    if not 1 <= d <= (q - 1) // 2:
        raise ValueError(f"d must lie in [1, (p-1)/2], got {d}")
    lam %= q
    sq = _sq_count(q)
    return 1 + sum(x**d * sq[x * (x - 1) % q * (x - lam) % q] for x in range(q))


def thm11_rhs(p: int, lam: int, d: int) -> int:
    """Mod-p closed form for a_p^(d)(lambda), as a canonical residue in [0, p).

    (-1)^((p+1)/2) (lambda/4)^d sum_{k<=n} binom(2k,k) binom(2(k+d),k+d)
    (lambda/16)^k, minus 1 when d = n = (p-1)/2.
    """
    q = odd_prime(p)
    n = (q - 1) // 2
    lam %= q
    if not 0 <= d <= n:
        raise ValueError(f"d must lie in [0, (p-1)/2], got {d}")
    cb = central_binomials_mod(q)
    w = _powers(lam * pow(16, -1, q) % q, n + 1, q)  # (lambda/16)^k
    acc = sum(x * y * z for x, y, z in zip(cb, cb[d:], w)) % q
    r = acc * pow(lam, d, q) % q * pow(pow(4, -1, q), d, q) % q
    if (q + 1) // 2 % 2:
        r = -r
    if d == n:
        r -= 1
    return r % q


# -- vectorized sweep paths ------------------------------------------------


def _chi_grid_block(q: int, chi: np.ndarray, xs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    f = xs * (xs - 1) % q
    block = f[:, None] * ((xs[:, None] - cols[None, :]) % q) % q
    return chi[block]


def char_sum_table(p: int) -> np.ndarray:
    """a_p(lambda) for every lambda in [0, p) as exact int64s; only acceptance criterion 6f reads it."""
    q = odd_prime(p)
    chi = np.array(_chi_table(q), dtype=np.int64)
    xs = np.arange(q, dtype=np.int64)
    out = np.empty(q, dtype=np.int64)
    for lo in range(0, q, 512):
        cols = xs[lo : lo + 512]
        out[lo : lo + 512] = _chi_grid_block(q, chi, xs, cols).sum(axis=0)
    return out


def _grid_prime(p: int) -> int:
    """p as an int, where both T1.1 grids are exact float64 products: (p+1)/2 (p-1)^2 < 2^53."""
    q = odd_prime(p)
    if (q + 1) // 2 * (q - 1) ** 2 >= 2**53:
        raise GridBoundExceeded(f"p = {q} is past the float64 bound of the T1.1 grids, (p+1)/2 (p-1)^2 < 2^53")
    return q


@lru_cache(maxsize=1)
def _power_table(q: int) -> np.ndarray:
    """x^k mod q at row k <= (q-1)/2 and column x < q, as a read-only int64 array.

    Built by doubling: rows [m, 2m) are rows [0, m) times x^m, so it takes
    log2 q numpy steps. One prime's two grids share it.
    """
    n = (q - 1) // 2
    table = np.empty((n + 1, q), dtype=np.int64)
    table[0] = 1
    xm, m = np.arange(q, dtype=np.int64), 1  # x^m
    while m <= n:
        rows = min(m, n + 1 - m)
        table[m : m + rows] = table[:rows] * xm % q
        xm = xm * xm % q
        m *= 2
    table.flags.writeable = False
    return table


def weighted_char_sum_grid(p: int) -> np.ndarray:
    """Canonical residues of a_p^(d)(lambda) mod p, shape (n + 1, p).

    Row d, column lambda: x^d mod p times the chi block, a float64 product.
    Each entry sums p products of a power below p and a chi value in
    {-1, 0, 1}, so every partial sum is an integer of absolute value below
    p(p - 1) < 2^53 and dgemm is exact in any summation order. Past the
    tighter bound of thm11_rhs_grid it raises GridBoundExceeded before allocating.
    """
    q = _grid_prime(p)
    n = (q - 1) // 2
    chi = np.array(_chi_table(q), dtype=np.float64)
    xs = np.arange(q, dtype=np.int64)
    xpow = _power_table(q).astype(np.float64)
    out = np.empty((n + 1, q), dtype=np.int64)
    for lo in range(0, q, 512):
        cols = xs[lo : lo + 512]
        out[:, lo : lo + 512] = (xpow @ _chi_grid_block(q, chi, xs, cols)).astype(np.int64) % q
    return out


def thm11_rhs_grid(p: int) -> np.ndarray:
    """Canonical residues of the thm11_rhs closed form, same shape and layout as
    weighted_char_sum_grid, from the binomial side only.

    coeff @ lampow is a float64 product. An entry sums (p+1)/2 products of two
    residues below p, so every partial sum is an integer below
    (p+1)/2 (p - 1)^2, and dgemm is exact in any summation order while that is
    below 2^53: up to p = 262,139. Past it, GridBoundExceeded before allocating.
    """
    q = _grid_prime(p)
    n = (q - 1) // 2
    cb = np.array(central_binomials_mod(q), dtype=np.int64)
    idx = np.arange(n + 1)
    lampow = _power_table(q)
    i4 = lampow[:, pow(4, -1, q)]  # 4^-d, and 16^-k = (4^-k)^2
    coeff = cb[idx[:, None] + idx[None, :]] * (cb[idx] * (i4 * i4 % q) % q)[None, :] % q
    s = (coeff.astype(np.float64) @ lampow.astype(np.float64)).astype(np.int64)
    out = s % q * lampow % q * i4[:, None] % q
    if (q + 1) // 2 % 2:
        out = (-out) % q
    out[n, :] = (out[n, :] - 1) % q
    return out


def cornacchia_two_squares(p: int) -> TwoSquares:
    """Two-square decomposition of p == 1 (mod 4) by Cornacchia descent."""
    q = odd_prime(p)
    if q % 4 != 1:
        raise WrongResidueClass(f"{q} is not 1 mod 4, so p = x^2 + y^2 is impossible")
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    a, b = q, pow(z, (q - 1) // 4, q)
    while b * b > q:
        a, b = b, a % b
    u, v = b, isqrt(q - b * b)
    odd, even = (u, v) if u % 2 else (v, u)
    x = odd if odd % 4 == 1 else -odd
    return TwoSquares(q, x, even)
