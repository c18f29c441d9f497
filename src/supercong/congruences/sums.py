"""Truncated sums of binomial products over a power denominator, exact or mod p^K.

TERM_KINDS holds every kernel N_kind(k, d) as an exact integer function.
weighted_prefixes is the exact evaluator of sum_k (a + b k + c/(k+1)) t_k / m^k
at one base m: it extends one big integer numerator over lcm(1..u+1) m^u
term by term and yields it at every u. weighted_sum is its last prefix,
reduced to a Fraction once; truncated_sum(power=None) takes it. The identity
suite's I1-I4a carry their partial sums at their fixed bases across n on the
same generator, one step per n; I5 carries its own as Z2-Z4 do (at max-n
500, 0.27-0.29 s, against 0.32-0.37 s on this generator).
_weighted_coefficients serves the many bases that a weight b - m ties to m:
it carries the coefficients of that numerator as a polynomial in m, so the
numerator at any one base is a Horner evaluation; I1-I3 and I4a sum their
random bases that way. Both read one lcm and weight step, _weight_steps, and
the tests check both against each other and a plain Fraction sum at every u.

truncated_sum sums a kernel over (p-1)/2 or p-1 terms, at one shift d or at
each of a sequence of shifts in one call. With power=None it returns the
exact Fraction, the reference the tests check against. With power=K it
returns the canonical residue mod p^K: from the residue path when every
term lies in combinatorics' per-prime tables mod p^4, else the exact sum
reduced once per shift (no catalog family makes such a call).

The residue path reads the binomial rows, the factorials and the powers
from the tables, and keeps one table of the d-free factors of the terms
(m^-k included) per kind, prime and base. Each call reduces that table mod
p^K once, times its weight a + b k + c/(k+1), for all of its shifts. A double
kernel is one correlation of those terms with the C(2j, j) row mod p^K, read
from one _product; a shift kernel is one pass of products per shift, with
C(2k, k+d) = (2k)!/((k+d)! (k-d)!) from the factorials. That is exact:
reduction mod p^K is a ring homomorphism on Z_(p), and every divisor is a
p-adic unit except k+1 = p in the Catalan weight of a d-free kernel summed
to p - 1, whose term is reduced mod p^4 and divided by p exactly
(NotPAdicInteger when it cannot be). The catalog families use the residue
path; kernel_residues gives the sequence and polynomial families their
weights N_kind(k)/m^k mod p^K from the same tables.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, gcd
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from ..combinatorics import _TABLE_POWER, _binomial_row, _factorials, _powers
from ..errors import NonUnitDivisor, NotPAdicInteger, PrecisionMismatch
from ..padic import odd_prime, padic_from_rational

__all__ = ["TERM_KINDS", "kernel_residues", "truncated_sum", "weighted_prefixes", "weighted_sum"]


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


def _weight_steps(terms: Iterable[int], a: int, b: int, c: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield (t_k, grow, big, w) for k = 0, 1, ...: big = lcm(1..k+1) (1 when c is 0), grown by grow at k,
    and the weight w = (a + b k) big + c big/(k+1). Both accumulators below step on it."""
    big = 1
    for k, t in enumerate(terms):
        grow = 1
        if c and big % (k + 1):
            grow = (k + 1) // gcd(big, k + 1)
            big *= grow
        yield t, grow, big, (a + b * k) * big + c * (big // (k + 1))


def weighted_prefixes(
    terms: Iterable[int], m: int, a: int = 0, b: int = 0, c: int = 0
) -> Iterator[tuple[int, int]]:
    """Yield (num, big) for u = 0, 1, ...: the prefix sum of weighted_sum up to u is num / (big m^u).

    big is lcm(1..u+1) when c is nonzero, else 1. Each step multiplies the
    numerator by m, and by the factor the lcm grows by, then adds term u, so
    a caller that extends a sum by one term pays for one term.
    """
    num = 0
    for t, grow, big, w in _weight_steps(terms, a, b, c):
        num = num * (m * grow) + w * t
        yield num, big


def _weighted_coefficients(
    terms: Iterable[int], a: int = 0, b: int = 0, c: int = 0
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (coeffs, big) for u = 0, 1, ...: at every base m, the num that
    weighted_prefixes(terms, m, a, b - m, c) yields at u is
    sum_j coeffs[j] m^(u-j), over the same big.

    With alpha_k = ((a + b k) big + c big/(k+1)) t_k and beta_k = k big t_k,
    the weight a + (b - m) k puts alpha_k on m^(u-k) and -beta_k on
    m^(u-k+1), so coeffs[j] = alpha_j - beta_(j+1), with beta_(u+1) = 0. Each
    step rescales the list when the lcm grows, takes beta_u off its last
    coefficient and appends alpha_u.
    """
    coeffs: list[int] = []
    for k, (t, grow, big, w) in enumerate(_weight_steps(terms, a, b, c)):
        if grow > 1:
            coeffs = [x * grow for x in coeffs]
        if k:
            coeffs[-1] -= k * big * t
        coeffs.append(w * t)
        yield tuple(coeffs), big


def weighted_sum(terms: Sequence[int], m: int, a: int = 0, b: int = 0, c: int = 0) -> Fraction:
    """sum_{k=0}^{u} (a + b k + c/(k+1)) terms[k] / m^k, exact, with u = len(terms) - 1.

    The last prefix of weighted_prefixes: one integer numerator over
    lcm(1..u+1) m^u (the lcm only when c is nonzero), reduced to a Fraction
    once.
    """
    num, big = deque(weighted_prefixes(terms, m, a, b, c), maxlen=1).pop()
    return Fraction(num, big * m ** (len(terms) - 1))


# (k_factor, catalan_weight) -> (a, b, c); both set is k/(k+1) = 1 - 1/(k+1)
_FLAG_WEIGHTS = {
    (False, False): (1, 0, 0),
    (True, False): (0, 1, 0),
    (False, True): (0, 0, 1),
    (True, True): (1, 0, -1),
}


# kind -> (left, right) with N_kind(k, d) = C(a k, b k) R(k, d) for left = (a, b);
# right is "shift" for C(2k, k+d), "double" for C(2k+2d, k+d), or a pair (a, b)
# for a d-free C(a k, b k). The same kernels as TERM_KINDS, which stays the
# independent exact reference.
_RESIDUE_KERNELS: dict[str, tuple[tuple[int, int], tuple[int, int] | str]] = {
    "central_sq": ((2, 1), (2, 1)),
    "central_shift": ((2, 1), "shift"),
    "central_double": ((2, 1), "double"),
    "cubic": ((3, 1), (2, 1)),
    "cubic_shift": ((3, 1), "shift"),
    "cubic_double": ((3, 1), "double"),
    "quartic": ((4, 2), (2, 1)),
    "quartic_shift": ((4, 2), "shift"),
    "quartic_double": ((4, 2), "double"),
    "sextic": ((6, 3), (3, 1)),
}


@lru_cache(maxsize=32)  # one prime of the catalog needs 25
def _kernel_table(kind: str, q: int, m: int) -> list[int]:
    """The d-free factors of N_kind(k, d) / m^k mod p^4 for k < p: the left
    binomial times the d-free right one (1 for shift and double kernels) over m^k."""
    (la, lb), right = _RESIDUE_KERNELS[kind]
    mod = q**_TABLE_POWER
    left = _binomial_row(q, la, lb)
    fixed = _binomial_row(q, *right) if isinstance(right, tuple) else repeat(1)
    return [x * y % mod * s % mod for x, y, s in zip(left, fixed, _powers(pow(m, -1, mod), q, mod))]


def kernel_residues(kind: str, q: int, m: int, count: int, power: int) -> list[int]:
    """N_kind(k, 0)/m^k mod p^power for k < count <= p, from the same tables as truncated_sum.

    The tables stop at k = p - 1, so a count past p raises ValueError.
    """
    if count > q:
        raise ValueError(f"count must be at most p = {q}, got {count}")
    mod = q**power
    table = _kernel_table(kind, q, m)
    right = _RESIDUE_KERNELS[kind][1]
    # at d = 0 both C(2k, k+d) and C(2k+2d, k+d) are C(2k, k)
    r = repeat(1) if isinstance(right, tuple) else _binomial_row(q, 2, 1)
    return [t * x % mod for t, x in zip(table[:count], r)]


def _product(a: Sequence[int], b: Sequence[int], start: int, count: int) -> list[int]:
    """Slots [start, start + count) of c[n] = sum_{i+j=n} a[i] b[j], start + count <= len(a) + len(b) - 1, exact,
    for non-empty lists of non-negative ints: one bigint product of the lists packed little-endian into slots of
    `width` bytes, above every entry and the bound min(len a, len b) max(a) max(b) on c[n], so no slot carries."""
    top_a, top_b = max(a), max(b)
    width = max(min(len(a), len(b)) * top_a * top_b, top_a, top_b).bit_length() // 8 + 1
    x, y = (int.from_bytes(b"".join(map(int.to_bytes, xs, repeat(width), repeat("little"))), "little") for xs in (a, b))
    product = (x * y).to_bytes(width * (len(a) + len(b) - 1), "little")
    return [int.from_bytes(product[i : i + width], "little") for i in range(width * start, width * (start + count), width)]


def _residue_sums(
    kind: str, q: int, upper: int, m: int, ds: list[int], weights: tuple[int, int, int], power: int
) -> list[int]:
    """The residues mod p^power of truncated_sum at every shift of ds.

    Every term lies in the tables: truncated_sum checks the domain.
    """
    mod = q**power
    table = _kernel_table(kind, q, m)
    a, b, c = weights
    if weights == (1, 0, 0):
        terms = [t % mod for t in table[: upper + 1]]
    else:
        # the weight a + b k + c/(k+1), with 1/(k+1) = k!/(k+1)!; the c part
        # at k = p - 1 is the Catalan tail below
        fact, inv_fact = _factorials(q)
        terms = [
            t * (a + b * k + (c * fact[k] * inv_fact[k + 1] if c and k < q - 1 else 0)) % mod
            for k, t in enumerate(table[: upper + 1])
        ]
    right = _RESIDUE_KERNELS[kind][1]
    if isinstance(right, tuple):
        total = sum(terms)
        if c and upper == q - 1:
            # the Catalan part of the term at k = p - 1: c times its factors
            # mod p^4, divided by p exactly
            numerator = c * table[q - 1] % q**_TABLE_POWER
            if numerator % q:
                raise NotPAdicInteger(f"the sum has {q} in its denominator (Catalan term at k = {q - 1})")
            total += numerator // q
        return [total % mod] * len(ds)
    if right == "double":
        # sum_k terms[k] C(2j, j) at j = k + d <= p - 1 is slot upper + d of reversed(terms) x the row
        row = [x % mod for x in _binomial_row(q, 2, 1)]
        window = _product(terms[::-1], row, upper, max(ds, default=0) + 1)
        totals = [window[d] for d in ds]
    else:
        # C(2k, k+d) = (2k)!/((k+d)! (k-d)!) where (2k)! is a unit, k <= (p-1)/2,
        # so terms[k] (2k)! is folded once; 0 for k < d
        fact, inv_fact = _factorials(q)
        lead = [t * f % mod for t, f in zip(terms, fact[::2])]
        inv = [x % mod for x in inv_fact]
        totals = [sum(map(mul, map(mul, lead[d:], inv[2 * d :]), inv)) for d in ds]
    return [t % mod for t in totals]


def truncated_sum(
    kind: str,
    p: int,
    upper: int,
    m: int,
    *,
    d: int | Iterable[int] = 0,
    k_factor: bool = False,
    catalan_weight: bool = False,
    power: int | None = None,
) -> Fraction | int | list[Fraction] | list[int]:
    """sum_{k=0}^{upper} N_kind(k, d) [k] / ((k+1) m^k): exact, or its residue mod p^power.

    [k] is present when k_factor is set, the (k+1) divisor when
    catalan_weight is set. upper must be (p-1)/2 or p-1, and m a unit mod p.
    With power=None the result is the exact Fraction. With power=K in
    {1, 2, 3} it is the canonical residue in [0, p^K), an int equal to
    padic_from_rational(exact, p, K) and raising NotPAdicInteger whenever
    that does.

    d is one shift or a sequence of them. A sequence is one call that
    returns the list of the values at its shifts, in order; it shares one
    reduction of the tables mod p^K across them (see the module docstring)
    and raises when the call at any one of its shifts would. The per-d
    families sum every shift of a prime this way.
    """
    q = odd_prime(p)
    n = (q - 1) // 2
    if upper not in (n, q - 1):
        raise ValueError(f"upper must be (p-1)/2 or p-1, got {upper} for p={q}")
    if m == 0 or m % q == 0:
        raise NonUnitDivisor(f"base {m} is not a unit modulo {q}")
    ds = [d] if isinstance(d, int) else list(d)
    if any(x < 0 for x in ds):
        raise ValueError(f"shift d must be >= 0, got {min(ds)}")
    if power not in (None, 1, 2, 3):
        raise PrecisionMismatch(f"precision must be 1, 2 or 3, got {power}")
    weights = _FLAG_WEIGHTS[k_factor, catalan_weight]
    # The residue path's domain: every term in the tables, k < p. A d-free
    # kernel qualifies at either upper bound; a shifted one only summed to
    # (p-1)/2 at shifts d <= (p-1)/2, where k + d <= p - 1 and 2k <= p - 1.
    if power is not None and (
        isinstance(_RESIDUE_KERNELS[kind][1], tuple) or (upper == n and all(x <= n for x in ds))
    ):
        values = _residue_sums(kind, q, upper, m, ds, weights, power)
    else:
        term = TERM_KINDS[kind]
        values = [weighted_sum([term(k, x) for k in range(upper + 1)], m, *weights) for x in ds]
        if power is not None:
            values = [padic_from_rational(v, q, power) for v in values]
    return values[0] if isinstance(d, int) else values
