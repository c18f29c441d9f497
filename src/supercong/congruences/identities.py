"""Exact identities and recurrences underlying the congruence catalog.

Every case is an equality of exact rationals (or of residues, for the
prime-parameterized lemmas I8-I11). Evaluators accumulate integer
numerators over the common power denominator and build each Fraction once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
from time import perf_counter
from typing import Callable, Iterator

from ..combinatorics import catalan
from ..errors import UnknownId
from ..padic import primes_between

__all__ = [
    "CongruenceLemma",
    "ExactIdentity",
    "IdentityCase",
    "IdentityResult",
    "LEMMAS",
    "M_SET",
    "identity_catalog",
    "identity_ids",
    "run_identities",
]

# Fixed bases exercised by the m-parameterized identities; every base that
# appears in the congruence catalog plus assorted negatives.
M_SET: tuple[int, ...] = (
    8, 16, 24, 27, 54, 63, 64, 72, 128, 216, 432, 864, -16, -192, -216, -4032,
)

_M_RANDOM_PER_N = 5
_M_SEED_BASE = 77003


def _m_values(n: int) -> list[int]:
    rng = random.Random(_M_SEED_BASE + n)
    extra = []
    while len(extra) < _M_RANDOM_PER_N:
        m = rng.randint(-5000, 5000)
        if m != 0:
            extra.append(m)
    return list(M_SET) + extra


@dataclass(frozen=True)
class IdentityCase:
    params: dict
    lhs: Fraction
    rhs: Fraction
    modulus: int | None = None  # None means exact equality over Q


@dataclass(frozen=True)
class ExactIdentity:
    """One catalog entry; cases(max_n) yields every checkable case."""

    id: str
    description: str
    kind: str  # "identity", "recurrence" or "congruence"
    cases: Callable[[int], Iterator[IdentityCase]]


@dataclass
class IdentityResult:
    id: str
    checked: int
    failed: int
    vacuous: bool
    elapsed: float
    failures: list[IdentityCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0


# -- m-parameterized partial-sum identities ---------------------------------


def _i1_cases(max_n: int) -> Iterator[IdentityCase]:
    for n in range(1, max_n + 1):
        rhs_num = n * comb(2 * n, n) * comb(3 * n, n)
        for m in _m_values(n):
            num = 0
            mp = m ** (n - 1)
            for k in range(n):
                w = 6 * catalan(k) + (27 - m) * k * comb(2 * k, k)
                num += w * comb(3 * k, k) * mp
                if k < n - 1:
                    mp //= m
            yield IdentityCase(
                {"n": n, "m": m}, Fraction(num, m ** (n - 1)), Fraction(rhs_num, m ** (n - 1))
            )


def _i2_cases(max_n: int) -> Iterator[IdentityCase]:
    for n in range(1, max_n + 1):
        rhs_num = n * comb(4 * n, 2 * n) * comb(2 * n, n)
        for m in _m_values(n):
            num = 0
            mp = m ** (n - 1)
            for k in range(n):
                w = 12 * catalan(k) + (64 - m) * k * comb(2 * k, k)
                num += w * comb(4 * k, 2 * k) * mp
                if k < n - 1:
                    mp //= m
            yield IdentityCase(
                {"n": n, "m": m}, Fraction(num, m ** (n - 1)), Fraction(rhs_num, m ** (n - 1))
            )


def _i3_cases(max_n: int) -> Iterator[IdentityCase]:
    for n in range(1, max_n + 1):
        big = lcm(*range(1, n + 1))
        rhs_num = n * comb(6 * n, 3 * n) * comb(3 * n, n) * big
        for m in _m_values(n):
            num = 0
            mp = m ** (n - 1)
            for k in range(n):
                w = 60 * (big // (k + 1)) + (432 - m) * k * big
                num += w * comb(6 * k, 3 * k) * comb(3 * k, k) * mp
                if k < n - 1:
                    mp //= m
            den = big * m ** (n - 1)
            yield IdentityCase({"n": n, "m": m}, Fraction(num, den), Fraction(rhs_num, den))


def _i4_cases(max_n: int) -> Iterator[IdentityCase]:
    # Catalan-weighted central-binomial partial sum with base 16
    for n in range(1, max_n + 1):
        big = lcm(*range(1, n + 2))
        num = 0
        mp = 16**n
        for k in range(n + 1):
            num += comb(2 * k, k) ** 2 * (big // (k + 1)) * mp
            if k < n:
                mp //= 16
        den = big * 16**n
        rhs = Fraction((2 * n + 1) ** 2 * comb(2 * n, n) ** 2, 16**n * (n + 1))
        yield IdentityCase({"n": n}, Fraction(num, den), rhs)


def _i4a_cases(max_n: int) -> Iterator[IdentityCase]:
    for n in range(1, max_n + 1):
        big = 4 * lcm(*range(1, n + 2))
        rhs_num = (2 * n + 1) ** 2 * comb(2 * n, n) ** 2 * (big // (n + 1))
        for m in _m_values(n):
            num = 0
            mp = m**n
            for k in range(n + 1):
                w = (16 - m) * k * (big // 4) + big // (k + 1)
                num += w * comb(2 * k, k) ** 2 * mp
                if k < n:
                    mp //= m
            den = big * m**n
            yield IdentityCase({"n": n, "m": m}, Fraction(num, den), Fraction(rhs_num, den))


def _i5_cases(max_n: int) -> Iterator[IdentityCase]:
    # telescoped shift-difference sum; secondary index m runs over [0, n]
    for n in range(1, max_n + 1):
        cb = [comb(2 * k, k) for k in range(n + 1)]
        pw16 = [16**i for i in range(n + 1)]
        rn = comb(2 * n, n)
        for m in range(n + 1):
            num = 0
            for k in range(n + 1):
                diff = comb(2 * k, k + m) - comb(2 * k, k + m + 1)
                if diff:
                    num += cb[k] * diff * pw16[n - k]
            lhs = Fraction((2 * m + 1) * num, pw16[n])
            rhs = Fraction((2 * n + 1) * rn * comb(2 * n + 1, n - m), pw16[n])
            yield IdentityCase({"n": n, "m": m}, lhs, rhs)


def _i6_cases(max_n: int) -> Iterator[IdentityCase]:
    # convolution of shifted central binomials against a fixed window
    for k in range(1, max_n + 1):
        for d in range(0, k + 1):
            rhs = comb(2 * k + 2 * d, k + d)
            lhs = sum(comb(2 * k, k + c) * comb(2 * d, d - c) for c in range(-d, d + 1))
            yield IdentityCase({"k": k, "d": d}, Fraction(lhs), Fraction(rhs))


def _i7_cases(max_n: int) -> Iterator[IdentityCase]:
    # coefficient of t^n in (t^2 + t + x)^n vs its closed binomial form,
    # with the power built up incrementally across n
    poly: list[list[int]] = [[1]]
    for n in range(1, max_n + 1):
        width = n + 1
        new = [[0] * width for _ in range(len(poly) + 2)]
        for i, row in enumerate(poly):
            for j, c in enumerate(row):
                if c:
                    new[i][j + 1] += c
                    new[i + 1][j] += c
                    new[i + 2][j] += c
        poly = new
        closed = [0] * (n // 2 + 1)
        for k in range(n // 2 + 1):
            closed[k] = comb(n, 2 * k) * comb(2 * k, k)
        got = poly[n]
        lhs = Fraction(0)
        rhs = Fraction(0)
        # compare coefficient vectors; encode mismatch position in params
        mismatch = None
        for j in range(max(len(got), len(closed))):
            a = got[j] if j < len(got) else 0
            b = closed[j] if j < len(closed) else 0
            if a != b and mismatch is None:
                mismatch = j
                lhs, rhs = Fraction(a), Fraction(b)
        if mismatch is None:
            yield IdentityCase({"n": n, "coeffs": n // 2 + 1}, Fraction(1), Fraction(1))
        else:
            yield IdentityCase({"n": n, "coeff_of": mismatch}, lhs, rhs)


# -- prime-parameterized congruence lemmas ----------------------------------


def _i8_residues(p: int) -> Iterator[tuple[dict, int, int]]:
    m3 = p**3
    yield {}, comb(p - 1, (p - 1) // 2) % m3, (-1) ** ((p - 1) // 2) * pow(4, p - 1, m3) % m3


def _i9_residues(p: int) -> Iterator[tuple[dict, int, int]]:
    m2 = p * p
    n = (p - 1) // 2
    inv = pow(-16, -1, m2)
    w = 1
    for k in range(n + 1):
        yield {"k": k}, comb(n + k, 2 * k) % m2, comb(2 * k, k) * w % m2
        w = w * inv % m2


def _i10_residues(p: int) -> Iterator[tuple[dict, int, int]]:
    n = (p - 1) // 2
    inv = pow(-4, -1, p)
    w = 1
    for k in range(p):
        yield {"k": k}, comb(n, k) % p, comb(2 * k, k) * w % p
        w = w * inv % p


def _i11_residues(p: int) -> Iterator[tuple[dict, int, int]]:
    n = (p - 1) // 2
    inv = pow(16, -1, p)
    w = 1
    for k in range(n + 1):
        yield {"k": k}, comb(n, 2 * k) % p, comb(4 * k, 2 * k) * w % p
        w = w * inv % p


@dataclass(frozen=True)
class CongruenceLemma:
    """A binomial congruence at one prime, in both catalogs under one id.

    residues(p) yields (params, lhs, rhs) with both sides canonical mod
    p^power. The identity suite sweeps it over primes; the congruence
    catalog runs it as a family.
    """

    id: str
    description: str
    power: int
    residues: Callable[[int], Iterator[tuple[dict, int, int]]]


LEMMAS: tuple[CongruenceLemma, ...] = (
    CongruenceLemma("I8", "binom(p-1,(p-1)/2) == (-1)^((p-1)/2) 4^(p-1) mod p^3", 3, _i8_residues),
    CongruenceLemma(
        "I9", "binom(n+k,2k) == binom(2k,k)/(-16)^k mod p^2 for k <= n = (p-1)/2", 2, _i9_residues
    ),
    CongruenceLemma("I10", "binom((p-1)/2,k) == binom(2k,k)/(-4)^k mod p for k < p", 1, _i10_residues),
    CongruenceLemma(
        "I11", "binom((p-1)/2,2k) == binom(4k,2k)/16^k mod p for k <= (p-1)/2", 1, _i11_residues
    ),
)


def _lemma_identity(lemma: CongruenceLemma) -> ExactIdentity:
    def cases(max_n: int) -> Iterator[IdentityCase]:
        for p in primes_between(5, 2 * max_n + 1):
            m = p**lemma.power
            for params, lhs, rhs in lemma.residues(p):
                yield IdentityCase({"p": p, **params}, Fraction(lhs), Fraction(rhs), modulus=m)

    return ExactIdentity(lemma.id, lemma.description, "congruence", cases)


# -- recurrences -------------------------------------------------------------


def _z1_cases(max_n: int) -> Iterator[IdentityCase]:
    for n in range(2, max_n + 1):
        # f[d] = sum_k binom(n+k, 2k) binom(2k, k+d) (-2)^k, exact integers
        f = []
        for d in range(n + 1):
            s = 0
            w = 1
            for k in range(n + 1):
                s += comb(n + k, 2 * k) * comb(2 * k, k + d) * w
                w *= -2
            f.append(s)
        for d in range(n - 1):
            lhs = (n - d - 1) * (n + d + 2) * (2 * d + 1) * f[d + 2]
            rhs = (2 * n + 1) ** 2 * (d + 1) * f[d + 1] - (n - d) * (n + d + 1) * (2 * d + 3) * f[d]
            yield IdentityCase({"n": n, "d": d}, Fraction(lhs), Fraction(rhs))


def _tail_table(n: int, weights: list[int]) -> list[list[int]]:
    """rows[m] = scaled tail sums sum_{k=m}^{n-1} weights[k] binom(k, m)."""
    rows = []
    for m in range(n):
        s = 0
        for k in range(m, n):
            s += weights[k] * comb(k, m)
        rows.append(s)
    return rows


def _z_family(max_n, base, cpair, wfun, rfun) -> Iterator[IdentityCase]:
    a, b = cpair
    for n in range(2, max_n + 1):
        scale = base ** (n - 1)
        weights = [wfun(k) * base ** (n - 1 - k) for k in range(n)]
        tails = _tail_table(n, weights)
        rhs_core = rfun(n)
        for m in range(n - 1):
            lhs = a * (m + 1) ** 2 * tails[m + 1] + (b(m)) * tails[m]
            rhs = rhs_core * comb(n - 1, m)
            yield IdentityCase(
                {"n": n, "m": m}, Fraction(lhs, scale), Fraction(rhs, scale)
            )


def _z2_cases(max_n: int) -> Iterator[IdentityCase]:
    return _z_family(
        max_n,
        27,
        (9, lambda m: (3 * m + 1) * (3 * m + 2)),
        lambda k: comb(3 * k, k) * comb(2 * k, k),
        lambda n: (3 * n - 1) * (3 * n - 2) * comb(2 * n - 2, n - 1) * comb(3 * n - 3, n - 1),
    )


def _z3_cases(max_n: int) -> Iterator[IdentityCase]:
    return _z_family(
        max_n,
        64,
        (16, lambda m: (4 * m + 1) * (4 * m + 3)),
        lambda k: comb(4 * k, 2 * k) * comb(2 * k, k),
        lambda n: (4 * n - 1) * (4 * n - 3) * comb(2 * n - 2, n - 1) * comb(4 * n - 4, 2 * n - 2),
    )


def _z4_cases(max_n: int) -> Iterator[IdentityCase]:
    return _z_family(
        max_n,
        432,
        (36, lambda m: (6 * m + 1) * (6 * m + 5)),
        lambda k: comb(6 * k, 3 * k) * comb(3 * k, k),
        lambda n: (6 * n - 1) * (6 * n - 5) * comb(3 * n - 3, n - 1) * comb(6 * n - 6, 3 * n - 3),
    )


_CATALOG: tuple[ExactIdentity, ...] = (
    ExactIdentity(
        "I1",
        "partial sum of (6 C_k + (27-m) k binom(2k,k)) binom(3k,k)/m^k "
        "equals n binom(2n,n) binom(3n,n)/m^(n-1)",
        "identity",
        _i1_cases,
    ),
    ExactIdentity(
        "I2",
        "partial sum of (12 C_k + (64-m) k binom(2k,k)) binom(4k,2k)/m^k "
        "equals n binom(4n,2n) binom(2n,n)/m^(n-1)",
        "identity",
        _i2_cases,
    ),
    ExactIdentity(
        "I3",
        "partial sum of (60/(k+1) + (432-m) k) binom(6k,3k) binom(3k,k)/m^k "
        "equals n binom(6n,3n) binom(3n,n)/m^(n-1)",
        "identity",
        _i3_cases,
    ),
    ExactIdentity(
        "I4",
        "sum_{k<=n} binom(2k,k) C_k/16^k equals "
        "(2n+1)^2 binom(2n,n)^2/(16^n (n+1))",
        "identity",
        _i4_cases,
    ),
    ExactIdentity(
        "I4a",
        "sum_{k<=n} ((16-m)k/4 + 1/(k+1)) binom(2k,k)^2/m^k equals "
        "(2n+1)^2 binom(2n,n)^2/((n+1) m^n)",
        "identity",
        _i4a_cases,
    ),
    ExactIdentity(
        "I5",
        "telescoped sum of binom(2k,k)(binom(2k,k+m)-binom(2k,k+m+1))/16^k "
        "equals (2n+1) binom(2n,n) binom(2n+1,n-m)/((2m+1) 16^n)",
        "identity",
        _i5_cases,
    ),
    ExactIdentity(
        "I6",
        "binom(2k+2d,k+d) equals the window convolution "
        "sum_c binom(2k,k+c) binom(2d,d-c)",
        "identity",
        _i6_cases,
    ),
    ExactIdentity(
        "I7",
        "coefficient of t^n in (t^2+t+x)^n equals "
        "sum_k binom(n,2k) binom(2k,k) x^k, coefficient-wise",
        "identity",
        _i7_cases,
    ),
    *(_lemma_identity(lemma) for lemma in LEMMAS),
    ExactIdentity(
        "Z1",
        "three-term recurrence in d for "
        "f(d) = sum_k binom(n+k,2k) binom(2k,k+d) (-2)^k",
        "recurrence",
        _z1_cases,
    ),
    ExactIdentity(
        "Z2",
        "two-term recurrence in m for the binom(k,m)-weighted tails of "
        "binom(3k,k) binom(2k,k)/27^k",
        "recurrence",
        _z2_cases,
    ),
    ExactIdentity(
        "Z3",
        "two-term recurrence in m for the binom(k,m)-weighted tails of "
        "binom(4k,2k) binom(2k,k)/64^k",
        "recurrence",
        _z3_cases,
    ),
    ExactIdentity(
        "Z4",
        "two-term recurrence in m for the binom(k,m)-weighted tails of "
        "binom(6k,3k) binom(3k,k)/432^k",
        "recurrence",
        _z4_cases,
    ),
)

_BY_ID = {ident.id: ident for ident in _CATALOG}


def identity_catalog() -> tuple[ExactIdentity, ...]:
    return _CATALOG


def identity_ids() -> list[str]:
    return [ident.id for ident in _CATALOG]


def _case_passes(case: IdentityCase) -> bool:
    if case.modulus is None:
        return case.lhs == case.rhs
    m = case.modulus
    d = case.lhs - case.rhs
    if gcd(d.denominator, m) != 1:
        return False  # not an m-adic integer, so never congruent to zero
    return d.numerator * pow(d.denominator, -1, m) % m == 0


def run_identities(
    ids: list[str] | None, max_n: int, *, fail_fast: bool = False
) -> list[IdentityResult]:
    """Check the named identities (all of them when ids is None) for the
    1-based primary index up to max_n. Empty domains count as vacuous passes."""
    selected = identity_ids() if ids is None else list(ids)
    results = []
    for ident_id in selected:
        if ident_id not in _BY_ID:
            raise UnknownId(f"unknown identity id {ident_id!r}")
        ident = _BY_ID[ident_id]
        start = perf_counter()
        checked = failed = 0
        failures: list[IdentityCase] = []
        for case in ident.cases(max_n):
            checked += 1
            if not _case_passes(case):
                failed += 1
                if len(failures) < 5:
                    failures.append(case)
                if fail_fast:
                    break
        results.append(
            IdentityResult(
                id=ident.id,
                checked=checked,
                failed=failed,
                vacuous=checked == 0,
                elapsed=perf_counter() - start,
                failures=failures,
            )
        )
        if fail_fast and failed:
            break
    return results
