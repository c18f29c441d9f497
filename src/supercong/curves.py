"""Character sums and point counts for y^2 = x(x - 1)(x - lambda) over F_p.

Scalar routines here are the reference implementations; the *_grid variants
vectorize the full (lambda, d) sweep with numpy and are cross-checked against
the scalar route in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import WeightZero, WrongResidueClass
from .padic import OddPrime, _prime_int, odd_prime

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

    p: OddPrime
    x: int
    y: int

    def __post_init__(self) -> None:
        ok = (
            self.x % 4 == 1
            and self.y >= 0
            and self.y % 2 == 0
            and self.x * self.x + self.y * self.y == self.p.value
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
def central_binomials_mod(q: int, power: int = 1) -> tuple[int, ...]:
    """binom(2m, m) mod q^power for m = 0..q-1, via the exact ratio recurrence."""
    m = q**power
    out = []
    c = 1
    for i in range(q):
        out.append(c % m)
        c = c * (4 * i + 2) // (i + 1)
    return tuple(out)


def char_sum_a(p: OddPrime | int, lam: int) -> int:
    """Trace term a_p(lambda) = sum_x chi(x(x-1)(x-lambda)), exact."""
    q = _prime_int(p)
    lam %= q
    chi = _chi_table(q)
    return sum(chi[x * (x - 1) % q * (x - lam) % q] for x in range(q))


def count_points(p: OddPrime | int, lam: int) -> int:
    """#E_p(lambda) including the point at infinity.

    Counts square roots per x directly, so the identity
    count_points = p + 1 + char_sum_a is a genuine two-route check.
    """
    q = _prime_int(p)
    lam %= q
    sq = _sq_count(q)
    return 1 + sum(sq[x * (x - 1) % q * (x - lam) % q] for x in range(q))


def weighted_char_sum(p: OddPrime | int, lam: int, d: int) -> int:
    """a_p^(d)(lambda) = sum_x x^d chi(x(x-1)(x-lambda)) as an exact integer."""
    q = _prime_int(p)
    lam %= q
    if not 0 <= d <= (q - 1) // 2:
        raise ValueError(f"d must lie in [0, (p-1)/2], got {d}")
    chi = _chi_table(q)
    return sum(x**d * chi[x * (x - 1) % q * (x - lam) % q] for x in range(q))


def weighted_point_count(p: OddPrime | int, lam: int, d: int) -> int:
    """1 + sum_x x^d #{y : y^2 = x(x-1)(x-lambda)} for d >= 1, exact.

    Modulo p this equals 1 + weighted_char_sum(p, lam, d). The unweighted
    count (d = 0) is count_points; asking for weight x^0 here is an error.
    """
    q = _prime_int(p)
    if d == 0:
        raise WeightZero("weight x^0 is count_points, not a weighted count")
    if not 1 <= d <= (q - 1) // 2:
        raise ValueError(f"d must lie in [1, (p-1)/2], got {d}")
    lam %= q
    sq = _sq_count(q)
    return 1 + sum(x**d * sq[x * (x - 1) % q * (x - lam) % q] for x in range(q))


def thm11_rhs(p: OddPrime | int, lam: int, d: int) -> int:
    """Mod-p closed form for a_p^(d)(lambda), as a canonical residue in [0, p).

    (-1)^((p+1)/2) (lambda/4)^d sum_{k<=n} binom(2k,k) binom(2(k+d),k+d)
    (lambda/16)^k, minus 1 when d = n = (p-1)/2.
    """
    q = _prime_int(p)
    n = (q - 1) // 2
    lam %= q
    if not 0 <= d <= n:
        raise ValueError(f"d must lie in [0, (p-1)/2], got {d}")
    cb = central_binomials_mod(q)
    winc = lam * pow(16, -1, q) % q
    acc = 0
    w = 1
    for k in range(n + 1):
        acc = (acc + cb[k] * cb[k + d] % q * w) % q
        w = w * winc % q
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


def char_sum_table(p: OddPrime | int) -> np.ndarray:
    """a_p(lambda) for every lambda in [0, p), exact values in an int64 array."""
    q = _prime_int(p)
    chi = np.array(_chi_table(q), dtype=np.int64)
    xs = np.arange(q, dtype=np.int64)
    out = np.empty(q, dtype=np.int64)
    for lo in range(0, q, 512):
        cols = xs[lo : lo + 512]
        out[lo : lo + 512] = _chi_grid_block(q, chi, xs, cols).sum(axis=0)
    return out


def _grid_prime(p: OddPrime | int) -> int:
    """p as an int, where both T1.1 grids are exact int64 products: (p+1)/2 (p-1)^2 < 2^63."""
    q = _prime_int(p)
    if (q + 1) // 2 * (q - 1) ** 2 >= 2**63:
        raise ValueError(f"p = {q} is past the int64 bound of the T1.1 grids, (p+1)/2 (p-1)^2 < 2^63")
    return q


def weighted_char_sum_grid(p: OddPrime | int) -> np.ndarray:
    """Canonical residues of a_p^(d)(lambda) mod p, shape (n + 1, p).

    Row d, column lambda. Partial products stay below p^2 (p - 1); past the
    tighter bound of thm11_rhs_grid it raises ValueError before allocating.
    """
    q = _grid_prime(p)
    n = (q - 1) // 2
    chi = np.array(_chi_table(q), dtype=np.int64)
    xs = np.arange(q, dtype=np.int64)
    xpow = np.ones((n + 1, q), dtype=np.int64)
    for d in range(1, n + 1):
        xpow[d] = xpow[d - 1] * xs % q
    out = np.empty((n + 1, q), dtype=np.int64)
    for lo in range(0, q, 512):
        cols = xs[lo : lo + 512]
        out[:, lo : lo + 512] = xpow @ _chi_grid_block(q, chi, xs, cols) % q
    return out


def thm11_rhs_grid(p: OddPrime | int) -> np.ndarray:
    """Canonical residues of the thm11_rhs closed form, same shape and layout as
    weighted_char_sum_grid, from the binomial side only. An entry of coeff @ lampow
    sums (p+1)/2 products below p^2: exact up to p = 2,642,239, ValueError past it."""
    q = _grid_prime(p)
    n = (q - 1) // 2
    cb = np.array(central_binomials_mod(q), dtype=np.int64)
    idx = np.arange(n + 1)
    i4 = np.array([pow(4, -d, q) for d in range(n + 1)], dtype=np.int64)  # 4^-d, and 16^-k = (4^-k)^2
    coeff = cb[idx[:, None] + idx[None, :]] * (cb[idx] * (i4 * i4 % q) % q)[None, :] % q
    lam = np.arange(q, dtype=np.int64)
    lampow = np.ones((n + 1, q), dtype=np.int64)
    for k in range(1, n + 1):
        lampow[k] = lampow[k - 1] * lam % q
    out = (coeff @ lampow) % q * lampow % q * i4[:, None] % q
    if (q + 1) // 2 % 2:
        out = (-out) % q
    out[n, :] = (out[n, :] - 1) % q
    return out


def cornacchia_two_squares(p: OddPrime | int) -> TwoSquares:
    """Two-square decomposition of p == 1 (mod 4) by Cornacchia descent."""
    prime = odd_prime(_prime_int(p))
    q = prime.value
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
    return TwoSquares(prime, x, even)
