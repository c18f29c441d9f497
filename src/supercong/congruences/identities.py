"""Exact identities and recurrences underlying the congruence catalog.

Each identity yields its cases as CaseBlocks (columns.py), one per n, with
their verdicts taken at construction. A block holds two integer numerator
columns over one shared denominator, given beside it as an int, or as a list
by row where it varies: lcm(1..u+1) m^u times the summand's scale and the
closed form's denominator for I1-I4a, 16^n for I5, base^(n-1) for Z2-Z4 and
1 for the rest. A row passes when its numerators are equal. So
run_identities reads each block's counts and builds an IdentityCase only for
a failure it keeps, and cases(max_n) flattens the blocks for the tests. The
lemmas I8-I11 are catalog families (families.py): their blocks are the
engine's, one per prime p <= 2 max_n + 1 from verify_family_case, stamped
there with the family, p and modulus p^K, and their residues are canonical.

I1-I5 carry their partial sums at fixed bases across n, one step of
sums.weighted_prefixes (the evaluator behind the catalog's exact
truncated_sum) per term; each random base of I1-I3 and I4a, drawn once per
process, is one Horner evaluation of a sums._weighted_coefficients list
carried the same way. Kernels N_kind(k) come from sums.TERM_KINDS, each
computed once per run; the binomials inside I5, I6, Z1 and the Z2-Z4 tails
from rows built once per run. I6 sums half its window, by the symmetry of
both rows. Z1 carries the diagonals C(2k, k+d) across n. I7 builds
(t^2 + t + x)^n across n as one int per power of t, with x -> 2^width
(Kronecker substitution). The right sides of I6, I7 and Z2-Z4 stay on
math.comb, and I5's steps C(2n+1, .) down from one comb by its term ratio,
so both sides take different routes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, count, islice, repeat
from math import comb
from operator import add, lshift, mul
from time import perf_counter
from typing import Callable, Iterator

from ..combinatorics import catalan  # noqa: F401  (perfbench/tracing.py wraps identities.catalan)
from ..errors import UnknownId
from ..padic import primes_between
from .columns import CaseBlock
from .engine import verify_family_case
from .families import get_family
from .sums import TERM_KINDS, _weighted_coefficients, weighted_prefixes

__all__ = [
    "ExactIdentity",
    "IdentityCase",
    "IdentityResult",
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


@cache
def _random_bases(n: int) -> tuple[int, ...]:
    rng = random.Random(_M_SEED_BASE + n)
    extra = []
    while len(extra) < _M_RANDOM_PER_N:
        m = rng.randint(-5000, 5000)
        if m != 0:
            extra.append(m)
    return tuple(extra)


def _m_values(n: int) -> list[int]:
    """M_SET, then the seeded random bases of n, drawn once per process; a new list each call."""
    return [*M_SET, *_random_bases(n)]


@dataclass(slots=True, eq=False)
class IdentityCase:
    """One row, as a kept failure or in cases(): lhs = a/den against rhs =
    b/den, exactly over Q or mod modulus. den may be negative (an odd power
    of a negative base). Two cases are equal when their params, modulus and
    sides as rationals are."""

    params: dict
    a: int
    b: int
    den: int = 1
    modulus: int | None = None  # None means exact equality over Q

    @property
    def lhs(self) -> Fraction:
        return Fraction(self.a, self.den)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.b, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdentityCase):
            return NotImplemented
        return (self.params, self.modulus, self.lhs, self.rhs) == (other.params, other.modulus, other.lhs, other.rhs)


Blocks = Iterator[tuple[CaseBlock, int | list[int]]]


def _case(block: CaseBlock, den: int | list[int], i: int) -> IdentityCase:
    """Row i of a block over its denominator; a lemma's params lead with its prime."""
    row = block[i]
    params = row.params if row.p is None else {"p": row.p, **row.params}
    return IdentityCase(params, row.lhs, row.rhs, den[i] if isinstance(den, list) else den, row.modulus)


@dataclass(frozen=True)
class ExactIdentity:
    """One catalog entry; blocks(max_n) yields (block, den) per n or prime."""

    id: str
    description: str
    kind: str  # "identity", "recurrence" or "congruence"
    blocks: Callable[[int], Blocks]

    def cases(self, max_n: int) -> Iterator[IdentityCase]:
        """Every case of blocks(max_n), one row at a time: a view for tests."""
        for block, den in self.blocks(max_n):
            yield from (_case(block, den, i) for i in range(len(block)))


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


def _kernel(kind: str) -> Callable[[int], int]:
    """kernel(k) is N_kind(k, 0); each value is computed once."""
    term = TERM_KINDS[kind]
    values: list[int] = []

    def kernel(k: int) -> int:
        while len(values) <= k:
            values.append(term(len(values), 0))
        return values[k]

    return kernel


def _central_rows() -> Iterator[list[int]]:
    """[C(2k, 0), ..., C(2k, 2k)] for k = 0, 1, ..., each row built from the one before."""
    row = [1]
    while True:
        yield row
        prev = [0, 0, *row, 0, 0]
        # C(2k, j) = C(2k-2, j-2) + 2 C(2k-2, j-1) + C(2k-2, j)
        row = [prev[j] + 2 * prev[j + 1] + prev[j + 2] for j in range(len(prev) - 2)]


def _block(keys: tuple[str, str], n: int, lhs: list[int], rhs: list[int]) -> CaseBlock:
    """The rows at one n: keys[0] is n on every row, and keys[1] counts them from 0."""
    rows = len(lhs)
    return CaseBlock([[keys, rows, ([n] * rows, [*range(rows)])]], lhs, rhs)


def _partial_sum_blocks(
    kind: str,
    c: int,
    base: int,
    scale: int,
    upper: Callable[[int], int],
    closed: Callable[[int, int], Fraction | int],
    bases: tuple[int, ...] | None = None,
) -> Callable[[int], Blocks]:
    """sum_{k<=u} (c/(k+1) + (base-m) k/scale) N_kind(k)/m^k = closed(n, N_kind(n))/m^u.

    u = upper(n). m runs over _m_values(n) and is a case parameter, unless
    bases fixes it as part of the statement. Each fixed base (M_SET, or
    bases) carries one numerator num over big = lcm(1..u+1) m^u across n,
    one weighted_prefixes step per new term. The random bases, new at every
    n, share one _weighted_coefficients list carried the same way: num at m
    is its Horner value at m, O(u) small-factor steps per base against the
    O(1) of a carried fixed base. With closed(n, .) = cn/cd, both sides go
    over big m^u scale cd, one per row: num cd against cn big scale.
    """

    def blocks(max_n: int) -> Blocks:
        kernel = _kernel(kind)
        # _m_values(n) lists M_SET first, then the random bases
        fixed = bases or M_SET
        carried = [weighted_prefixes(map(kernel, count()), m, b=base - m, c=scale * c) for m in fixed]
        shared = _weighted_coefficients(map(kernel, count()), b=base, c=scale * c)
        at, sums, coeffs, big_u = -1, [], (), 1
        for n in range(1, max_n + 1):
            u = upper(n)
            while at < u:
                sums, at = [next(prefix) for prefix in carried], at + 1
                if not bases:
                    coeffs, big_u = next(shared)
            closed_n = closed(n, kernel(n))
            ms = bases or _m_values(n)
            fresh = []
            for m in ms[len(fixed) :]:
                num = 0
                for x in coeffs:
                    num = num * m + x
                fresh.append((num, big_u))
            cn, cd = closed_n.numerator, closed_n.denominator
            nums = [*sums, *fresh]
            lhs = [num * cd for num, _ in nums]
            rhs = [cn * big * scale for _, big in nums]
            den = [big * m**u * scale * cd for m, (_, big) in zip(ms, nums)]
            runs = [[("n",), 1, ([n],)]] if bases else [[("n", "m"), len(ms), ([n] * len(ms), ms)]]
            yield CaseBlock(runs, lhs, rhs), den

    return blocks


def _i4_closed(n: int, t: int) -> Fraction:
    return Fraction((2 * n + 1) ** 2 * t, n + 1)


def _shift_terms(row: list, d: int) -> Iterator[int]:
    """C(2k, k) C(2k, k+d) for k = 0, 1, ...; zero for k < d, then read from
    row[0], which the caller sets to C(2k, .) before it draws the term of k."""
    yield from repeat(0, d)
    for k in count(d):
        rk = row[0]
        yield rk[k] * rk[k + d]


def _i5_blocks(max_n: int, gap: int = 1) -> Blocks:
    # telescoped shift-difference sum (2m+1) (S(m) - S(m+gap)), true for
    # gap = 1, where S(d) = sum_{k<=n} binom(2k,k) binom(2k,k+d)/16^k and m
    # runs over [0, n]. Each 16^n S(d) carries across n, one term per n, read
    # from the one C(2n, .) row held. A shift d first needed at n > 0 has
    # d >= n, so it is 0 up to there, since binom(2k,k+d) = 0 for k < d.
    rows = _central_rows()  # read in order, one row per n, and not kept
    row: list = [None]  # row[0] is C(2n, .) at step n
    shifts: list[Iterator[tuple[int, int]]] = []
    for n in range(max_n + 1):
        row[0] = next(rows)
        shifts += [
            islice(weighted_prefixes(_shift_terms(row, d), 16, a=1), n, None)
            for d in range(len(shifts), n + gap + 1)
        ]
        s = [next(prefix)[0] for prefix in shifts]
        if not n:
            continue  # n = 0 only starts the shifts
        lhs = [(2 * m + 1) * (s[m] - s[m + gap]) for m in range(n + 1)]
        # binom(2n+1, n-m) stepped down in m: binom(N, j-1) = binom(N, j) j/(N-j+1)
        rhs, lead, c = [], (2 * n + 1) * comb(2 * n, n), comb(2 * n + 1, n)
        for m in range(n + 1):
            rhs.append(lead * c)
            c = c * (n - m) // (n + m + 2)
        yield _block(("n", "m"), n, lhs, rhs), 16**n


def _i6_blocks(max_n: int, trim: int = 0) -> Blocks:
    # binom(2k+2d, k+d) = sum_{c=-d}^{d} binom(2k, k+c) binom(2d, d-c), and both rows
    # are symmetric, so the window folds to binom(2k,k) binom(2d,d) + 2 sum_{c=1}^{d}
    # binom(2k,k+c) binom(2d,d+c). True for trim = 0; the parameter exists so the
    # tests can plant a window that stops trim pairs short.
    rows = [*islice(_central_rows(), max_n + 1)]
    for k in range(1, max_n + 1):
        rk = rows[k]
        lhs = []
        for d in range(k + 1):
            rd = rows[d]
            lhs.append(rk[k] * rd[d] + 2 * sum(map(mul, rk[k + 1 : k + d + 1 - trim], rd[d + 1 :])))
        yield _block(("k", "d"), k, lhs, [comb(2 * k + 2 * d, k + d) for d in range(k + 1)]), 1


def _i7_blocks(max_n: int, top: int = 2) -> Blocks:
    # coefficient of t^n in (t^top + t + x)^n vs its closed binomial form, true
    # for top = 2; the parameter exists so the tests can plant t^3. The power
    # is built up across n with x -> 2^width: poly[i] packs the coefficient of
    # t^(lo+i), its x^j in bits [j width, (j+1) width). Every coefficient is
    # below 3^n, their sum at t = x = 1, so no slot carries into the next.
    width = (3**max_n).bit_length() + 1
    mask = (1 << width) - 1
    poly, lo = [1], 0
    pad = [0] * top
    for n in range(1, max_n + 1):
        # times t^top + t + x: new[i] = old[i-top] + old[i-1] + x old[i]
        times_x = chain(map(lshift, poly, repeat(width)), pad)
        poly = [*map(add, map(add, pad + poly, [0, *poly, *pad[1:]]), times_x)]
        v = poly[n - lo]
        # s steps on, t^i reaches t^(i + top s) at most and step n + s reads
        # t^(n+s), so only n - (top-1)(max_n - n) <= i <= max_n is read again
        cut = max(0, n - (top - 1) * (max_n - n) - lo)
        poly, lo = poly[cut : max_n + 1 - lo], lo + cut
        got = [v >> width * j & mask for j in range(n + 1)]
        closed = [comb(n, 2 * k) * comb(2 * k, k) for k in range(n // 2 + 1)] + [0] * (n - n // 2)
        # compare coefficient vectors; encode the first mismatch position in params
        mismatch = next((j for j, (g, w) in enumerate(zip(got, closed)) if g != w), None)
        if mismatch is None:
            yield CaseBlock([[("n", "coeffs"), 1, ([n], [n // 2 + 1])]], [1], [1]), 1
        else:
            yield CaseBlock([[("n", "coeff_of"), 1, ([n], [mismatch])]], [got[mismatch]], [closed[mismatch]]), 1


# -- prime-parameterized congruence lemmas ----------------------------------


def _lemma(fid: str) -> ExactIdentity:
    """The catalog family fid, at each prime p <= 2 max_n + 1, as the engine gives its blocks."""

    def blocks(max_n: int) -> Blocks:
        for p in primes_between(5, 2 * max_n + 1):
            yield verify_family_case(fid, p), 1

    return ExactIdentity(fid, get_family(fid).description, "congruence", blocks)


# -- recurrences -------------------------------------------------------------


def _z1_blocks(max_n: int, weight: int = -2) -> Blocks:
    # true for weight = -2; the parameter exists so the tests can plant -3
    rows = _central_rows()  # read in order, one row per k, and not kept
    diags: list[list[int]] = []  # diags[d] = [binom(2k, k+d) for d <= k <= n]
    for n in range(2, max_n + 1):
        # a[k] = binom(n+k, 2k) weight^k, the binomial stepped by its term ratio
        a, c = [], 1
        for k in range(n + 1):
            a.append(c * weight**k)
            c = c * (n + k + 1) * (n - k) // ((2 * k + 1) * (2 * k + 2))
        # f[d] = sum_k a[k] binom(2k, k+d), exact integers; binom(2k, k+d) = 0 for k < d
        for k in range(len(diags), n + 1):
            diags.append([])
            for diag, entry in zip(diags, next(rows)[k:]):
                diag.append(entry)
        f = [sum(map(mul, a[d:], diag)) for d, diag in enumerate(diags)]
        ds = range(n - 1)
        lhs = [(n - d - 1) * (n + d + 2) * (2 * d + 1) * f[d + 2] for d in ds]
        rhs = [(2 * n + 1) ** 2 * (d + 1) * f[d + 1] - (n - d) * (n + d + 1) * (2 * d + 3) * f[d] for d in ds]
        yield _block(("n", "d"), n, lhs, rhs), 1


def _z_family(kind: str, base: int, a: int, b: Callable[[int], int]) -> Callable[[int], Blocks]:
    """a (m+1)^2 T(m+1) + b(m) T(m) = b(n-1) N_kind(n-1) binom(n-1, m), where
    T(m) = sum_{k=m}^{n-1} N_kind(k) binom(k, m)/base^k, scaled by base^(n-1).

    The scaled tails S_n(m) = base^(n-1) T(m) carry across n:
    S_(n+1)(m) = base S_n(m) + N(n) binom(n, m), one Pascal row per n.
    """

    def blocks(max_n: int) -> Blocks:
        kernel = _kernel(kind)
        tails: list[int] = []  # S_(n-1), one entry per m <= n-2
        pascal = [1]  # binom(n-1, m) for m <= n-1
        for n in range(1, max_n + 1):
            top = kernel(n - 1)
            tails = [base * s + top * c for s, c in zip([*tails, 0], pascal)]
            pascal = [1, *map(add, pascal, pascal[1:]), 1]
            if n < 2:
                continue
            rhs_core = b(n - 1) * top
            lhs = [a * (m + 1) ** 2 * tails[m + 1] + b(m) * tails[m] for m in range(n - 1)]
            rhs = [rhs_core * comb(n - 1, m) for m in range(n - 1)]
            yield _block(("n", "m"), n, lhs, rhs), base ** (n - 1)

    return blocks


_CATALOG: tuple[ExactIdentity, ...] = (
    ExactIdentity(
        "I1",
        "partial sum of (6 C_k + (27-m) k binom(2k,k)) binom(3k,k)/m^k "
        "equals n binom(2n,n) binom(3n,n)/m^(n-1)",
        "identity",
        _partial_sum_blocks("cubic", 6, 27, 1, lambda n: n - 1, lambda n, t: n * t),
    ),
    ExactIdentity(
        "I2",
        "partial sum of (12 C_k + (64-m) k binom(2k,k)) binom(4k,2k)/m^k "
        "equals n binom(4n,2n) binom(2n,n)/m^(n-1)",
        "identity",
        _partial_sum_blocks("quartic", 12, 64, 1, lambda n: n - 1, lambda n, t: n * t),
    ),
    ExactIdentity(
        "I3",
        "partial sum of (60/(k+1) + (432-m) k) binom(6k,3k) binom(3k,k)/m^k "
        "equals n binom(6n,3n) binom(3n,n)/m^(n-1)",
        "identity",
        _partial_sum_blocks("sextic", 60, 432, 1, lambda n: n - 1, lambda n, t: n * t),
    ),
    ExactIdentity(
        "I4",
        "sum_{k<=n} binom(2k,k) C_k/16^k equals "
        "(2n+1)^2 binom(2n,n)^2/(16^n (n+1))",
        "identity",
        _partial_sum_blocks("central_sq", 1, 16, 4, lambda n: n, _i4_closed, bases=(16,)),
    ),
    ExactIdentity(
        "I4a",
        "sum_{k<=n} ((16-m)k/4 + 1/(k+1)) binom(2k,k)^2/m^k equals "
        "(2n+1)^2 binom(2n,n)^2/((n+1) m^n)",
        "identity",
        _partial_sum_blocks("central_sq", 1, 16, 4, lambda n: n, _i4_closed),
    ),
    ExactIdentity(
        "I5",
        "telescoped sum of binom(2k,k)(binom(2k,k+m)-binom(2k,k+m+1))/16^k "
        "equals (2n+1) binom(2n,n) binom(2n+1,n-m)/((2m+1) 16^n)",
        "identity",
        _i5_blocks,
    ),
    ExactIdentity(
        "I6",
        "binom(2k+2d,k+d) equals the window convolution "
        "sum_c binom(2k,k+c) binom(2d,d-c)",
        "identity",
        _i6_blocks,
    ),
    ExactIdentity(
        "I7",
        "coefficient of t^n in (t^2+t+x)^n equals "
        "sum_k binom(n,2k) binom(2k,k) x^k, coefficient-wise",
        "identity",
        _i7_blocks,
    ),
    *map(_lemma, ("I8", "I9", "I10", "I11")),
    ExactIdentity(
        "Z1",
        "three-term recurrence in d for "
        "f(d) = sum_k binom(n+k,2k) binom(2k,k+d) (-2)^k",
        "recurrence",
        _z1_blocks,
    ),
    ExactIdentity(
        "Z2",
        "two-term recurrence in m for the binom(k,m)-weighted tails of "
        "binom(3k,k) binom(2k,k)/27^k",
        "recurrence",
        _z_family("cubic", 27, 9, lambda m: (3 * m + 1) * (3 * m + 2)),
    ),
    ExactIdentity(
        "Z3",
        "two-term recurrence in m for the binom(k,m)-weighted tails of "
        "binom(4k,2k) binom(2k,k)/64^k",
        "recurrence",
        _z_family("quartic", 64, 16, lambda m: (4 * m + 1) * (4 * m + 3)),
    ),
    ExactIdentity(
        "Z4",
        "two-term recurrence in m for the binom(k,m)-weighted tails of "
        "binom(6k,3k) binom(3k,k)/432^k",
        "recurrence",
        _z_family("sextic", 432, 36, lambda m: (6 * m + 1) * (6 * m + 5)),
    ),
)

_BY_ID = {ident.id: ident for ident in _CATALOG}


def identity_catalog() -> tuple[ExactIdentity, ...]:
    return _CATALOG


def identity_ids() -> list[str]:
    return [ident.id for ident in _CATALOG]


def run_identities(ids: list[str] | None, max_n: int) -> list[IdentityResult]:
    """Check the named identities (all of them when ids is None, each once in
    first-seen order) for the 1-based primary index up to max_n. Empty domains
    count as vacuous passes."""
    selected = identity_ids() if ids is None else list(dict.fromkeys(ids))
    results = []
    for ident_id in selected:
        if ident_id not in _BY_ID:
            raise UnknownId(f"unknown identity id {ident_id!r}")
        ident = _BY_ID[ident_id]
        start = perf_counter()
        checked = failed = 0
        failures: list[IdentityCase] = []
        for block, den in ident.blocks(max_n):
            checked += len(block)
            failed += block.counts[1]
            if block.counts[1] and len(failures) < 5:
                bad = [i for i, verdict in enumerate(block.verdicts) if verdict is False]
                failures += [_case(block, den, i) for i in bad[: 5 - len(failures)]]
        elapsed = perf_counter() - start
        results.append(IdentityResult(ident.id, checked, failed, checked == 0, elapsed, failures))
    return results
