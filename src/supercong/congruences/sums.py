"""Exact truncated sums of binomial products over a power denominator.

TERM_KINDS holds every kernel N_kind(k, d). weighted_sum is the one exact
evaluator of sum_k (a + b k + c/(k+1)) t_k / m^k: one big integer numerator
over lcm(1..u+1) m^u, reduced to a Fraction once. truncated_sum applies it to
a kernel over (p-1)/2 or p-1 terms for the catalog families that reduce an
exact sum once per case; the identity suite applies it to prefixes of the
same kernels. The residue families (E1.11-E1.19, R1.4c, R1.5) use
families._weight_residues instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Callable, Sequence

from ..errors import NonUnitDivisor
from ..padic import OddPrime, _prime_int

__all__ = ["TERM_KINDS", "truncated_sum", "weighted_sum"]


def _central_sq(k: int, d: int) -> int:
    return comb(2 * k, k) ** 2


def _central_shift(k: int, d: int) -> int:
    return comb(2 * k, k) * comb(2 * k, k + d)


def _central_double(k: int, d: int) -> int:
    return comb(2 * k, k) * comb(2 * (k + d), k + d)


def _cubic(k: int, d: int) -> int:
    return comb(3 * k, k) * comb(2 * k, k)


def _cubic_shift(k: int, d: int) -> int:
    return comb(3 * k, k) * comb(2 * k, k + d)


def _cubic_double(k: int, d: int) -> int:
    return comb(3 * k, k) * comb(2 * (k + d), k + d)


def _quartic(k: int, d: int) -> int:
    return comb(4 * k, 2 * k) * comb(2 * k, k)


def _quartic_shift(k: int, d: int) -> int:
    return comb(4 * k, 2 * k) * comb(2 * k, k + d)


def _quartic_double(k: int, d: int) -> int:
    return comb(4 * k, 2 * k) * comb(2 * (k + d), k + d)


def _sextic(k: int, d: int) -> int:
    return comb(6 * k, 3 * k) * comb(3 * k, k)


TERM_KINDS: dict[str, Callable[[int, int], int]] = {
    "central_sq": _central_sq,
    "central_shift": _central_shift,
    "central_double": _central_double,
    "cubic": _cubic,
    "cubic_shift": _cubic_shift,
    "cubic_double": _cubic_double,
    "quartic": _quartic,
    "quartic_shift": _quartic_shift,
    "quartic_double": _quartic_double,
    "sextic": _sextic,
}


def weighted_sum(terms: Sequence[int], m: int, a: int = 0, b: int = 0, c: int = 0) -> Fraction:
    """sum_{k=0}^{u} (a + b k + c/(k+1)) terms[k] / m^k, exact, with u = len(terms) - 1.

    One integer numerator is accumulated over the common denominator
    lcm(1..u+1) m^u (the lcm only when c is nonzero) and reduced to a
    Fraction once.
    """
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


# (k_factor, catalan_weight) -> (a, b, c); both set is k/(k+1) = 1 - 1/(k+1)
_FLAG_WEIGHTS = {
    (False, False): (1, 0, 0),
    (True, False): (0, 1, 0),
    (False, True): (0, 0, 1),
    (True, True): (1, 0, -1),
}


def truncated_sum(
    kind: str,
    p: OddPrime | int,
    upper: int,
    m: int,
    *,
    d: int = 0,
    k_factor: bool = False,
    catalan_weight: bool = False,
) -> Fraction:
    """sum_{k=0}^{upper} N_kind(k, d) [k] / ((k+1) m^k), exact.

    [k] is present when k_factor is set, the (k+1) divisor when
    catalan_weight is set. upper must be (p-1)/2 or p-1, and m a unit mod p
    (so the result is a p-adic integer whenever the congruence claims one).
    """
    q = _prime_int(p)
    n = (q - 1) // 2
    if upper not in (n, q - 1):
        raise ValueError(f"upper must be (p-1)/2 or p-1, got {upper} for p={q}")
    if m == 0 or m % q == 0:
        raise NonUnitDivisor(f"base {m} is not a unit modulo {q}")
    term = TERM_KINDS[kind]
    terms = [term(k, d) for k in range(upper + 1)]
    return weighted_sum(terms, m, *_FLAG_WEIGHTS[k_factor, catalan_weight])
