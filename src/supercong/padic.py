"""Truncated p-adic residues: canonical residues mod p^K for K in {1, 2, 3}.

A prime is a plain int, validated once by the cached odd_prime. A residue
is a plain int in [0, p^K). K does not travel with it: the catalog
entry that compares two residues states it once. padic_from_rational
collapses an exact int or Fraction to its residue, once, at comparison time,
and rejects anything else: a float or a string would be converted silently
and inexactly. The truncated sums and the sequence and polynomial families
work mod p^K directly, which is exact because every denominator they divide
by is a p-adic unit (the one exception, the Catalan term at k = p - 1 of a
d-free kernel, is divided by p exactly).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InvalidPrime, NotPAdicInteger, PrecisionMismatch

__all__ = [
    "MR_EXACT_BOUND",
    "is_prime",
    "legendre_symbol",
    "odd_prime",
    "padic_from_rational",
    "primes_between",
    "signed_residue",
]

# Miller-Rabin witnesses: the first 13 primes. MR_EXACT_BOUND (about
# 3.317 * 10^24) is the least odd composite that is a strong probable prime
# to all of them; without 41 the bound would be 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly for n < MR_EXACT_BOUND.

    At or above the bound, True only means a strong probable prime to the
    fixed bases: MR_EXACT_BOUND itself is composite and passes.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes in the closed interval [lo, hi], by sieve."""
    if hi < 2 or hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(hi**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    return [n for n in range(max(lo, 2), hi + 1) if sieve[n]]


@lru_cache(maxsize=None)
def odd_prime(p: int) -> int:
    """p as an int when it is a prime >= 5, else InvalidPrime; cached so sweeps do not re-run primality tests."""
    q = int(p)
    if q < 5 or not is_prime(q):
        raise InvalidPrime(f"{q} is not a prime >= 5")
    return q


def signed_residue(residue: int, modulus: int) -> int:
    """Balanced representative of residue in (-modulus/2, modulus/2]."""
    r = residue % modulus
    return r - modulus if r > modulus // 2 else r


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1}, by Euler's criterion."""
    q = odd_prime(p)
    r = pow(a % q, (q - 1) // 2, q)
    return r - q if r == q - 1 else r


def padic_from_rational(q: Fraction | int, p: int, precision: int) -> int:
    """Reduce an exact rational to its canonical residue in [0, p^precision).

    Raises NotPAdicInteger when p divides the (reduced) denominator, and
    TypeError for anything but an int or a Fraction: a float or a string
    would be converted silently and is never exact input here.
    """
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {type(q).__name__}")
    if precision not in (1, 2, 3):
        raise PrecisionMismatch(f"precision must be 1, 2 or 3, got {precision}")
    prime = odd_prime(p)
    m = prime**precision
    if isinstance(q, int):
        return q % m
    if q.denominator % prime == 0:
        raise NotPAdicInteger(f"{q} has {prime} in its denominator")
    return q.numerator * pow(q.denominator, -1, m) % m
