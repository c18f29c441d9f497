"""The congruence family catalog.

Each CongruenceFamily turns a prime p, a plain int, into its rows at p as one
CaseBlock (columns.py), in columns: per row two canonical residues, ints in
[0, p^K), that the underlying theorem says must agree modulo p^K, its
params, and whether it is skipped and why. K is the entry's modulus_power,
stated once there: _family, the catalog's constructor, hands it to the
entry's generator as gen(p, K), every generator reduces at that K, and the
engine takes each row's modulus from it. A spy test checks that no generator
reduces at any other power.

Most claims are a truncated sum, or a chain of them, against a closed form.
Such a family is data: its members are Sum specs (kind, base, half or full
upper bound, flags, coefficient) and closed forms, read by one evaluator,
_chain_family, which compares consecutive members at d = 0 or, for a per-d
family, at each shift d of a prime. A Sum arrives as its residues mod p^K at
every shift in one call (sums.truncated_sum with power=K), times its
coefficient. A closed form stays an exact integer or Fraction until its one
reduction, by padic_from_rational; E1.4's Euler side is taken mod p from
power sums. The rows are laid out from those columns. Every other generator
lays out its own columns too: runs of params, lhs, rhs, skips and notes,
with no row built on the way. The identity suite sweeps the lemmas I8-I11
through the engine as well. The families linear in the weights N(k)/base^k
(E1.11-E1.19, R1.4c, R1.5) take them mod p^K, and their binomial dual from
one bigint product (sums._product), as L1 convolves binom(2k,k)^2 mod p^K;
E1.11-E1.13 and R1.4c dot them with 19 sampled sequences, each built already
reduced mod p^K, r^k from _powers. All of it is exact Python ints at any p:
every denominator involved is a p-adic unit or divides out exactly. T1.1,
one row per (lam, d) cell, hands over its two mod-p grids and its lam and d
columns as int64 arrays. The block takes each row's verdict as it is built,
and the engine stamps it with the family, p and modulus; no row becomes an
object on the way.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, repeat
from math import comb
from operator import mul
from typing import Callable, Iterable, Sequence

import numpy as np

from ..combinatorics import _binomial_row, _factorials, _powers, euler_half_grid_mod_p
from ..combinatorics import euler_polynomial_half_grid  # noqa: F401  (perfbench/tracing.py wraps it here)
from ..curves import cornacchia_two_squares, thm11_rhs_grid, weighted_char_sum, weighted_char_sum_grid
from ..errors import UnknownId
from ..padic import legendre_symbol, padic_from_rational
from .columns import CaseBlock
from .sums import _product, kernel_residues, truncated_sum

__all__ = [
    "CongruenceFamily",
    "family_catalog",
    "family_ids",
    "get_family",
]


@dataclass(frozen=True)
class CongruenceFamily:
    """One catalog entry; cases(p) gives every residue check at that prime."""

    id: str
    description: str
    modulus_power: int
    applies: Callable[[int], bool]
    cases: Callable[[int], CaseBlock]
    heavy: bool = False  # swept only up to the engine's sweep cap


# -- sum families as data: members, and the chain evaluator ------------------


@dataclass(frozen=True, slots=True)
class Sum:
    """A chain member coef * sum_{k<=upper} N_kind(k, d) [k] / ((k+1) base^k), as sums.truncated_sum.

    upper is (p-1)/2 when half, else p-1; k_factor and catalan_weight are the
    [k] and 1/(k+1) weights. coef is a p-integral number, or a function of
    (p, K, ds) giving its residue mod p^K at each shift of ds. _chain_family
    reads it at d = 0, or at every shift of a per-d family.
    """

    kind: str
    base: int
    half: bool = False
    k_factor: bool = False
    catalan_weight: bool = False
    coef: Fraction | int | Callable[[int, int, Sequence[int]], Iterable[int]] = 1


def _over_4_to_d(q: int, power: int, ds: Sequence[int]) -> list[int]:
    """The Sum coefficient 1/4^d, mod p^K at each shift of ds."""
    mod = q**power
    return [pow(4, -d, mod) for d in ds]


def _legendre(a: int, scale: Fraction | int = 1) -> Callable[[int, int, Sequence[int]], Iterable[int]]:
    """The Sum coefficient scale * (a/p), reduced once per prime."""
    return lambda q, power, ds: repeat(padic_from_rational(scale * legendre_symbol(a, q), q, power))


def _sum_residues(member: Sum, q: int, power: int, ds: Sequence[int]) -> list[int]:
    """A Sum's residue mod p^K at each shift of ds, canonical from one truncated_sum call;
    a coefficient other than 1 multiplies that column once, and nothing reduces it again."""
    upper = (q - 1) // 2 if member.half else q - 1
    residues = truncated_sum(
        member.kind, q, upper, member.base,
        d=ds, k_factor=member.k_factor, catalan_weight=member.catalan_weight, power=power,
    )
    coef = member.coef
    if coef == 1:
        return residues
    mod = q**power
    coefs = coef(q, power, ds) if callable(coef) else repeat(padic_from_rational(coef, q, power))
    return [c * r % mod for c, r in zip(coefs, residues)]


def _residues(member, q: int, power: int, ds: Sequence[int] | None) -> list[int]:
    """A member's residues mod p^K at each shift of ds, or at d = 0 when ds is None: a tuple
    sums its parts, and a closed form's value, closed(p, ds) or closed(p), is reduced once here."""
    kind = type(member)
    if kind is Sum:
        return _sum_residues(member, q, power, (0,) if ds is None else ds)
    if kind is tuple:
        mod = q**power
        return [sum(parts) % mod for parts in zip(*(_residues(part, q, power, ds) for part in member))]
    if ds is None:
        return [padic_from_rational(member(q), q, power)]
    return [padic_from_rational(value, q, power) for _d, value in zip(ds, member(q, ds))]


def _chain_family(members: tuple, labels=None, extra: Callable[[int], dict] | None = None, *, shifts=None, parity=None):
    """Rows comparing consecutive members of a chain of claimed-congruent values.

    Without shifts the chain is taken once, at d = 0. With shifts it is taken
    at each d of shifts(p): each Sum is one truncated_sum call over every d of
    the prime, and a closed form closed(p, ds) gives its value at each d, so
    that a per-prime table (E1.4's Euler values) is built once. The rows are
    one run of columns, the consecutive pairs of each shift in turn, with
    params "d" (with shifts), then "pair": "a=b" (with labels), then extra(p)'s
    (T1.6's branch). With parity, which takes one sum and no labels, a d of the
    other parity than parity(p) is a skip whose note shows the sum's residue.
    """

    def gen(q: int, power: int) -> CaseBlock:
        ds = list(shifts(q)) if shifts else None
        values = [_residues(member, q, power, ds) for member in members]
        if parity:
            claimed = parity(q)
            skips = [i for i, d in enumerate(ds) if d % 2 != claimed]
            lhs, rhs = values[0][:], values[1]
            notes = {i: f"parity outside the claim; informational residue {lhs[i]}" for i in skips}
            for i in skips:
                lhs[i] = rhs[i] = 0
            return CaseBlock([[("d",), len(ds), (ds,)]], lhs, rhs, skips, notes)
        lhs = list(chain.from_iterable(zip(*values[:-1])))
        rhs = list(chain.from_iterable(zip(*values[1:])))
        params = {}  # key -> column
        if ds is not None:
            params["d"] = list(chain.from_iterable(map(repeat, ds, repeat(len(values) - 1))))
        if labels:
            params["pair"] = [f"{a}={b}" for a, b in zip(labels, labels[1:])] * len(values[0])
        if extra:
            params.update((key, [value] * len(lhs)) for key, value in extra(q).items())
        return CaseBlock([[tuple(params), len(lhs), tuple(params.values())]], lhs, rhs)

    return gen


def _e13_closed(q: int, ds) -> list[int]:
    sign = legendre_symbol(-1, q)
    return [4**d * sign for d in ds]


def _e14_closed(q: int, ds) -> list[int]:
    # p^2 (-1)^d/4 E_(p-3)(d+1/2) mod p^3 needs the Euler value only mod p
    sign = legendre_symbol(-1, q)
    euler = euler_half_grid_mod_p(q, len(ds))
    inv4 = pow(4, -1, q)
    return [sign + q * q * ((-1) ** d * inv4 * euler[d] % q) for d in ds]


def _two_x_minus(q: int, divisor: int) -> Fraction:
    """2x - p/(divisor x), with p = x^2 + y^2 and x == 1 mod 4."""
    x = cornacchia_two_squares(q).x
    return 2 * x - Fraction(q, divisor * x)


def _t16_closed(q: int) -> Fraction | int:
    l6 = legendre_symbol(6, q)
    if q % 4 == 1:
        return l6 * cornacchia_two_squares(q).x
    return Fraction(3 * l6 * comb((q + 1) // 2, (q + 1) // 4), 4)


@lru_cache(maxsize=4)
def _binom_mod_matrix(modulus: int, size: int) -> np.ndarray:
    """M[k, j] = binom(k, j) (-1)^j mod modulus, as int64. No family calls it: it is the dense
    cross-check of test_dual_matrix_matches_exact_transform, and perfbench/tracing.py wraps it."""
    rows = np.zeros((size, size), dtype=np.int64)
    rows[0, 0] = 1
    for k in range(1, size):
        rows[k, 0] = 1
        rows[k, 1 : k + 1] = (rows[k - 1, 1 : k + 1] + rows[k - 1, 0:k]) % modulus
    signs = np.where(np.arange(size) % 2 == 0, 1, -1)
    return rows * signs[None, :] % modulus


@lru_cache(maxsize=32)
def _weight_residues(kind: str, base: int, q: int, power: int, count: int) -> tuple[int, ...]:
    """Residues of N_kind(k, 0)/base^k mod p^power for k < count."""
    return tuple(kernel_residues(kind, q, base, count, power))


@lru_cache(maxsize=16)  # a prime of the catalog needs 8; E1.14-E1.16 reuse E1.11-E1.13's
def _weight_vectors(
    kind: str, base: int, q: int, power: int, count: int, *, k_weighted: bool
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Weights w[k] = N_kind(k)/base^k mod p^power for k < count <= p, and their dual M^T w.

    With k_weighted (no default, so equal calls share a cache key), w[k] is
    (k+1) N_kind(k+1)/base^(k+1) for k < count - 1. Since w . (M a) = (M^T w) . a,
    a sum over a dual sequence is one dot product. Each k! is a p-adic unit, so
    (M^T w)_j = (-1)^j/j! sum_{k>=j} w_k k!/(k-j)!, one _product, exact for power <= 4.
    """
    mod = q**power
    w = _weight_residues(kind, base, q, power, count)
    if k_weighted:
        w = tuple(k * x % mod for k, x in enumerate(w))[1:]
    fact, inv_fact = _factorials(q)
    inv = [x % mod for x in inv_fact[: len(w)]]
    tails = _product([x * f % mod for x, f in zip(w, fact)][::-1], inv, 0, len(w))[::-1]
    return w, tuple((-t if j % 2 else t) * x % mod for j, (t, x) in enumerate(zip(tails, inv)))


# -- T1.1: the weighted-trace closed form ------------------------------------


def _t11_cases(q: int) -> CaseBlock:
    # each grid (row d, column lam) is packed into an int64 array before the next is built;
    # the lam and d columns are int64 arrays too, which pickle as their bytes, where a
    # list unpickles to one int object per cell
    lhs = _int64s(weighted_char_sum_grid(q))
    rows = len(lhs) // q
    lam = array("q", range(q)) * rows
    d = _int64s(np.arange(rows).repeat(q))
    return CaseBlock([[("lam", "d"), len(lhs), (lam, d)]], lhs, _int64s(thm11_rhs_grid(q)))


def _int64s(grid: np.ndarray) -> array:
    return array("q", np.asarray(grid, dtype=np.int64).tobytes())


# -- E1.11-E1.13 and R1.4c: sequence-quantified congruences -------------------
#
# Claimed for every sequence of p-adic integers, checked on 19 samples, each
# row built already reduced: r^k from _powers, k^j by pow (0^0 = 1), and
# seeded draws from [-9, 9], each stream extended as a prime needs it, since a
# shorter row is the start of a longer one.

_GEOMETRIC = (1, 2, 3, -1, -2)
_MONOMIAL = (0, 1, 2, 3)
_RANDOM = range(10)
_SEQUENCE_IDS = (*(f"geom{r}" for r in _GEOMETRIC), *(f"pow{j}" for j in _MONOMIAL), *(f"rand{i}" for i in _RANDOM))


@lru_cache(maxsize=None)
def _stream(i: int) -> tuple[random.Random, list[int]]:
    """The generator of rand{i} and the terms it has drawn so far, one pair per process."""
    return random.Random(20260800 + i), []


def _draws(i: int, q: int, modulus: int) -> tuple[int, ...]:
    """The first q terms of rand{i} mod modulus, each term drawn once per process."""
    rng, drawn = _stream(i)
    drawn.extend(rng.randint(-9, 9) for _ in range(q - len(drawn)))
    return tuple(x % modulus for x in drawn[:q])


@lru_cache(maxsize=2)
def _sequence_matrix(q: int, modulus: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds the first q terms of sequence _SEQUENCE_IDS[i] mod modulus, for E1.11-E1.13 and R1.4c."""
    return (
        *(tuple(_powers(r % modulus, q, modulus)) for r in _GEOMETRIC),
        *(tuple(pow(k, j, modulus) for k in range(q)) for j in _MONOMIAL),
        *(_draws(i, q, modulus) for i in _RANDOM),
    )


def _sequence_columns(lhs: list[int], rhs: list[int]) -> CaseBlock:
    """One row per sampled sequence, in _SEQUENCE_IDS order."""
    return CaseBlock([[("sequence",), len(lhs), (list(_SEQUENCE_IDS),)]], lhs, rhs)


def _dual_family(kind: str, base: int, eps: Callable[[int], int]):
    def gen(q: int, power: int) -> CaseBlock:
        mod = q**power
        w, dual = _weight_vectors(kind, base, q, power, q, k_weighted=False)
        e = eps(q)
        seqs = _sequence_matrix(q, mod)
        return _sequence_columns(
            [sum(map(mul, seq, w)) % mod for seq in seqs], [e * sum(map(mul, seq, dual)) % mod for seq in seqs]
        )

    return gen


def _r14c_cases(q: int, power: int) -> CaseBlock:
    n = (q - 1) // 2
    mod = q**power
    e = legendre_symbol(-1, q)
    w, dual = _weight_vectors("central_sq", 16, q, power, n + 1, k_weighted=False)
    vec = [x - e * y for x, y in zip(w, dual)]
    lhs = [sum(map(mul, seq, vec)) % mod for seq in _sequence_matrix(q, mod)]
    return _sequence_columns(lhs, [0] * len(lhs))


# -- E1.14-E1.19 and R1.5: coefficient-wise polynomial congruences ------------


_SPOTS_CUBIC = (Fraction(1, 2), Fraction(9, 8), Fraction(2), Fraction(-1), Fraction(1, 3))
_SPOTS_QUARTIC = (Fraction(1, 2), Fraction(4, 3), Fraction(8, 9), Fraction(64, 63), Fraction(2))
_SPOTS_SEXTIC = (Fraction(1, 2), Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(3, 2))


def _poly_family(
    kind: str,
    base: int,
    eps_fun: Callable[[int], int],
    *,
    deriv: bool = False,
    upper_fun: Callable[[int], int] = lambda q: q - 1,
    spots: tuple[Fraction, ...],
):
    # Both claims read P(x) - e P(1-x) == 0 with P(x) = sum_j vec[j] x^j, i.e. vec == e M^T vec,
    # with vec = w and e = eps, or, when deriv, vec[j] = (j+1) w[j+1] and e = -eps.
    def gen(q: int, power: int) -> CaseBlock:
        mod = q**power
        e = -eps_fun(q) if deriv else eps_fun(q)
        vec, dual = _weight_vectors(kind, base, q, power, upper_fun(q) + 1, k_weighted=deriv)
        size = len(vec)
        rhs_vec = [e * x % mod for x in dual]
        mismatch = [j for j, (x, y) in enumerate(zip(vec, rhs_vec)) if x != y]
        if mismatch:
            j = mismatch[0]
            aggregate = [("coefficient",), 1, ([j],)]
            lhs, rhs, notes = [vec[j]], [rhs_vec[j]], {0: f"{len(mismatch)} of {size} coefficients disagree"}
        else:
            aggregate = [("coefficients",), 1, ([size],)]
            lhs, rhs, notes = [0], [0], {0: "all coefficients agree"}
        skips = []
        for i, x in enumerate(spots, 1):
            if x.denominator % q == 0:
                skips.append(i)
                lhs.append(0)
                notes[i] = "x is not a p-adic integer at this prime"
                continue
            xr = x.numerator * pow(x.denominator, -1, mod) % mod
            lhs.append((_horner(vec, xr, mod) - e * _horner(vec, 1 - xr, mod)) % mod)
        runs = [aggregate, [("x",), len(lhs), ([str(x) for x in spots],)]]
        return CaseBlock(runs, lhs, rhs + [0] * len(spots), skips, notes)

    return gen


def _horner(coefficients: Sequence[int], x: int, mod: int) -> int:
    """sum_j coefficients[j] x^j mod mod, one multiply-mod per coefficient."""
    total = 0
    for c in reversed(coefficients):
        total = (total * x + c) % mod
    return total


# -- L1 and A1/A2 --------------------------------------------------------------


def _l1_lhs(q: int, power: int, *, base: int = -16, offset: int = 1) -> int:
    """sum_{h<p} (2h + offset)/base^h sum_{k<=h} u_k u_(h-k) mod p^power, u_k = binom(2k,k)^2.

    The inner sums are one _product of u_k mod p^power (power <= 4, the table
    precision) with itself; every divisor is a power of base, a unit. L1 is
    base = -16, offset = 1; the parameters exist so the tests can plant mutants.
    """
    mod = q**power
    u = [c * c % mod for c in _binomial_row(q, 2, 1)]
    conv = _product(u, u, 0, q)
    weights = _powers(pow(base, -1, mod), q, mod)  # base^-h
    return sum((2 * h + offset) * c * w for h, (c, w) in enumerate(zip(conv, weights))) % mod


def _l1_cases(q: int, power: int) -> CaseBlock:
    lhs, rhs = (padic_from_rational(value, q, power) for value in (_l1_lhs(q, power), q * legendre_symbol(-1, q)))
    return CaseBlock([[(), 1, ()]], [lhs], [rhs])


def _a1_cases(q: int, power: int) -> CaseBlock:
    a2, am1 = (padic_from_rational(weighted_char_sum(q, lam, 0), q, power) for lam in (2, -1))
    runs = [[("lam",), 2, ([2, -1],)], [("pair",), 3, (["lam2=lam-1"],)]]
    return CaseBlock(runs, [a2, am1, a2], [0, 0, am1])


def _a2_cases(q: int, power: int) -> CaseBlock:
    n = (q - 1) // 2
    lhs = padic_from_rational(weighted_char_sum(q, 2, 1), q, power)
    closed = (-1) ** ((q - 3) // 4) * comb(n, (n - 1) // 2)
    split = weighted_char_sum(q, -1, 0) + weighted_char_sum(q, -1, 1)
    rhs = [padic_from_rational(value, q, power) for value in (closed, split)]
    return CaseBlock([[("pair",), 2, (["closed", "shifted-split"],)]], [lhs, lhs], rhs)


# -- I8-I11: the binomial lemmas ---------------------------------------------
#
# I9-I11 read their binomials from combinatorics' tables mod p^4: C(2j, j) for
# j < p from its row, and C(a, b) with b <= a < p from the factorials, which
# are all units.


def _i8_cases(q: int, power: int) -> CaseBlock:
    mod, n = q**power, (q - 1) // 2
    return CaseBlock([[(), 1, ()]], [comb(q - 1, n) % mod], [(-1) ** n * pow(4, q - 1, mod) % mod])


def _i9_cases(q: int, power: int) -> CaseBlock:
    mod, n = q**power, (q - 1) // 2
    fact, inv_fact = _factorials(q)
    ks = range(n + 1)
    lhs = [fact[n + k] * inv_fact[2 * k] * inv_fact[n - k] % mod for k in ks]
    rhs = [c * w % mod for c, w in zip(_binomial_row(q, 2, 1), _powers(pow(-16, -1, mod), n + 1, mod))]
    return CaseBlock([[("k",), len(ks), ([*ks],)]], lhs, rhs)


def _i10_cases(q: int, power: int) -> CaseBlock:
    mod, n = q**power, (q - 1) // 2
    fact, inv_fact = _factorials(q)
    ks = range(q)
    lhs = [fact[n] * inv_fact[k] * inv_fact[n - k] % mod if k <= n else 0 for k in ks]
    rhs = [c * w % mod for c, w in zip(_binomial_row(q, 2, 1), _powers(pow(-4, -1, mod), q, mod))]
    return CaseBlock([[("k",), len(ks), ([*ks],)]], lhs, rhs)


def _i11_cases(q: int, power: int) -> CaseBlock:
    mod, n = q**power, (q - 1) // 2
    fact, inv_fact = _factorials(q)
    ks = range(n + 1)
    lhs = [fact[n] * inv_fact[2 * k] * inv_fact[n - 2 * k] % mod if 2 * k <= n else 0 for k in ks]
    # binom(4k, 2k) = C(2j, j) at j = 2k
    rhs = [c * w % mod for c, w in zip(_binomial_row(q, 2, 1)[::2], _powers(pow(16, -1, mod), n + 1, mod))]
    return CaseBlock([[("k",), len(ks), ([*ks],)]], lhs, rhs)


def _always(q: int) -> bool:
    return True


def _family(fid: str, description: str, power: int, gen: Callable, applies: Callable = _always) -> CongruenceFamily:
    """A catalog entry with modulus_power K = power, whose cases(p) run gen(p, K)."""
    return CongruenceFamily(fid, description, power, applies, partial(gen, power=power))


_CATALOG: tuple[CongruenceFamily, ...] = (
    CongruenceFamily(  # the grids are mod p
        "T1.1",
        "weighted curve trace a_p^(d)(lam) matches its central-binomial closed form, "
        "all lam in [0,p) and d in [0,(p-1)/2]",
        1,
        _always,
        _t11_cases,
        heavy=True,
    ),
    _family(
        "E1.3",
        "sum binom(2k,k) binom(2k+2d,k+d)/16^k == 4^d (-1/p) mod p^2",
        2,
        _chain_family((Sum("central_double", 16, half=True), _e13_closed), shifts=lambda q: range((q + 1) // 2)),
    ),
    _family(
        "E1.4",
        "sum binom(2k,k) binom(2k,k+d)/16^k == (-1/p) + p^2 (-1)^d/4 E_(p-3)(d+1/2) mod p^3",
        3,
        _chain_family((Sum("central_shift", 16, half=True), _e14_closed), shifts=lambda q: range((q + 1) // 2)),
    ),
    _family(
        "E1.5",
        "five-member mod-p chain linking Catalan and k-weighted central sums over 8^k "
        "and (-16)^k to (-1)^((p+1)/4)/2 binom((p+1)/2,(p+1)/4), p == 3 mod 4",
        1,
        _chain_family(
            (
                Sum("central_sq", 8, half=True, catalan_weight=True),
                Sum("central_sq", 8, half=True, k_factor=True, coef=-2),
                Sum("central_sq", -16, half=True, catalan_weight=True, coef=Fraction(-1, 2)),
                Sum("central_sq", -16, half=True, k_factor=True, coef=4),
                lambda q: Fraction((-1) ** ((q + 1) // 4) * comb((q + 1) // 2, (q + 1) // 4), 2),
            ),
            ("cat8", "k8", "cat-16", "k-16", "closed"),
        ),
        applies=lambda q: q % 4 == 3,
    ),
    _family(
        "E1.6",
        "sum binom(2k,k)^2/8^k == -sum binom(2k,k)^2/(-16)^k == "
        "2p(-1)^((p+1)/4)/binom((p+1)/2,(p+1)/4) mod p^2, p == 3 mod 4",
        2,
        _chain_family(
            (
                Sum("central_sq", 8, half=True),
                Sum("central_sq", -16, half=True, coef=-1),
                lambda q: Fraction(2 * q * (-1) ** ((q + 1) // 4), comb((q + 1) // 2, (q + 1) // 4)),
            ),
            ("S8", "-S-16", "closed"),
        ),
        applies=lambda q: q % 4 == 3,
    ),
    _family(
        "E1.7",
        "sum binom(2k,k) binom(2k,k+d)/8^k == 0 mod p for d == (p+1)/2 mod 2",
        1,
        _chain_family(
            (Sum("central_shift", 8, half=True), lambda q, ds: repeat(0)),
            shifts=lambda q: range((q + 1) // 2),
            parity=lambda q: (q + 1) // 2 % 2,
        ),
    ),
    _family(
        "E1.8",
        "sum_{k<p} binom(3k,k) binom(2k,k)/27^k == (p/3) mod p^2",
        2,
        _chain_family((Sum("cubic", 27), partial(legendre_symbol, -3))),  # (p/3) = (-3/p)
    ),
    _family(
        "E1.9",
        "sum_{k<p} binom(4k,2k) binom(2k,k)/64^k == (-2/p) mod p^2",
        2,
        _chain_family((Sum("quartic", 64), partial(legendre_symbol, -2))),
    ),
    _family(
        "E1.10",
        "sum_{k<p} binom(6k,3k) binom(3k,k)/432^k == (-1/p) mod p^2",
        2,
        _chain_family((Sum("sextic", 432), partial(legendre_symbol, -1))),
    ),
    _family(
        "E1.11",
        "27^k-weighted sum of a_k equals (p/3) times the same sum of the dual "
        "sequence mod p^2, over sampled sequences",
        2,
        _dual_family("cubic", 27, partial(legendre_symbol, -3)),
    ),
    _family(
        "E1.12",
        "64^k-weighted sum of a_k equals (-2/p) times the dual-sequence sum mod p^2",
        2,
        _dual_family("quartic", 64, partial(legendre_symbol, -2)),
    ),
    _family(
        "E1.13",
        "432^k-weighted sum of a_k equals (-1/p) times the dual-sequence sum mod p^2",
        2,
        _dual_family("sextic", 432, partial(legendre_symbol, -1)),
    ),
    _family(
        "R1.4a",
        "1/4^d sum binom(3k,k) binom(2k+2d,k+d)/27^k == sum binom(3k,k) binom(2k,k+d)/27^k "
        "== (p/3) mod p for d <= floor(p/3)",
        1,
        _chain_family(
            (
                Sum("cubic_double", 27, half=True, coef=_over_4_to_d),
                Sum("cubic_shift", 27, half=True),
                lambda q, ds: repeat(legendre_symbol(-3, q)),
            ),
            ("double", "shift", "closed"),
            shifts=lambda q: range(q // 3 + 1),
        ),
    ),
    _family(
        "R1.4b",
        "1/4^d sum binom(4k,2k) binom(2k+2d,k+d)/64^k == sum binom(4k,2k) binom(2k,k+d)/64^k "
        "== (-2/p) mod p for d <= floor(p/4)",
        1,
        _chain_family(
            (
                Sum("quartic_double", 64, half=True, coef=_over_4_to_d),
                Sum("quartic_shift", 64, half=True),
                lambda q, ds: repeat(legendre_symbol(-2, q)),
            ),
            ("double", "shift", "closed"),
            shifts=lambda q: range(q // 4 + 1),
        ),
    ),
    _family(
        "R1.4c",
        "sum binom(2k,k)^2/16^k (a_k - (-1/p) a*_k) == 0 mod p^2 over sampled sequences",
        2,
        _r14c_cases,
    ),
    _family(
        "E1.14",
        "sum binom(3k,k) binom(2k,k)/27^k (x^k - (p/3)(1-x)^k) == 0 in Z_p[x] mod p^2",
        2,
        _poly_family("cubic", 27, partial(legendre_symbol, -3), spots=_SPOTS_CUBIC),
    ),
    _family(
        "E1.15",
        "sum binom(4k,2k) binom(2k,k)/64^k (x^k - (-2/p)(1-x)^k) == 0 in Z_p[x] mod p^2",
        2,
        _poly_family("quartic", 64, partial(legendre_symbol, -2), spots=_SPOTS_QUARTIC),
    ),
    _family(
        "E1.16",
        "sum binom(6k,3k) binom(3k,k)/432^k (x^k - (-1/p)(1-x)^k) == 0 in Z_p[x] mod p^2",
        2,
        _poly_family("sextic", 432, partial(legendre_symbol, -1), spots=_SPOTS_SEXTIC),
    ),
    _family(
        "E1.17",
        "sum k binom(3k,k) binom(2k,k)/27^k (x^(k-1) + (p/3)(1-x)^(k-1)) == 0 mod p^2",
        2,
        _poly_family("cubic", 27, partial(legendre_symbol, -3), deriv=True, spots=_SPOTS_CUBIC),
    ),
    _family(
        "E1.18",
        "sum k binom(4k,2k) binom(2k,k)/64^k (x^(k-1) + (-2/p)(1-x)^(k-1)) == 0 mod p^2",
        2,
        _poly_family("quartic", 64, partial(legendre_symbol, -2), deriv=True, spots=_SPOTS_QUARTIC),
    ),
    _family(
        "E1.19",
        "sum k binom(6k,3k) binom(3k,k)/432^k (x^(k-1) + (-1/p)(1-x)^(k-1)) == 0 mod p^2",
        2,
        _poly_family("sextic", 432, partial(legendre_symbol, -1), deriv=True, spots=_SPOTS_SEXTIC),
    ),
    _family(
        "R1.5",
        "sum_{k<=floor(p/3)} binom(3k,k) binom(2k,k)/27^k "
        "(x^k - (-1)^floor(p/3) (1-x)^k) == 0 in Z_p[x] mod p",
        1,
        _poly_family("cubic", 27, lambda q: (-1) ** (q // 3), upper_fun=lambda q: q // 3, spots=_SPOTS_CUBIC),
    ),
    _family(
        "C1.1a",
        "sum k binom(3k,k) binom(2k,k)/54^k == 0 mod p^2 for p == 1 mod 3",
        2,
        _chain_family((Sum("cubic", 54, k_factor=True), lambda q: 0)),
        applies=lambda q: q % 3 == 1,
    ),
    _family(
        "C1.1b",
        "sum binom(3k,k) binom(2k,k)/54^k == 0 mod p^2 for p == 2 mod 3",
        2,
        _chain_family((Sum("cubic", 54), lambda q: 0)),
        applies=lambda q: q % 3 == 2,
    ),
    _family(
        "C1.1c",
        "sum k binom(4k,2k) binom(2k,k)/128^k == 0 mod p^2 for p == 1,3 mod 8",
        2,
        _chain_family((Sum("quartic", 128, k_factor=True), lambda q: 0)),
        applies=lambda q: q % 8 in (1, 3),
    ),
    _family(
        "C1.1d",
        "sum binom(4k,2k) binom(2k,k)/128^k == 0 mod p^2 for p == 5,7 mod 8",
        2,
        _chain_family((Sum("quartic", 128), lambda q: 0)),
        applies=lambda q: q % 8 in (5, 7),
    ),
    _family(
        "C1.1e",
        "sum k binom(6k,3k) binom(3k,k)/864^k == 0 mod p^2 for p == 1 mod 4",
        2,
        _chain_family((Sum("sextic", 864, k_factor=True), lambda q: 0)),
        applies=lambda q: q % 4 == 1,
    ),
    _family(
        "C1.1f",
        "sum binom(6k,3k) binom(3k,k)/864^k == 0 mod p^2 for p == 3 mod 4",
        2,
        _chain_family((Sum("sextic", 864), lambda q: 0)),
        applies=lambda q: q % 4 == 3,
    ),
    _family(
        "C1.2a",
        "sum binom(3k,k) binom(2k,k)/24^k == (p/3) sum binom(3k,k) binom(2k,k)/(-216)^k mod p^2",
        2,
        _chain_family((Sum("cubic", 24), Sum("cubic", -216, coef=_legendre(-3)))),
    ),
    _family(
        "C1.2b",
        "sum k binom(3k,k) binom(2k,k)/24^k == 9 (p/3) sum k binom(3k,k) binom(2k,k)/(-216)^k mod p^2",
        2,
        _chain_family((Sum("cubic", 24, k_factor=True), Sum("cubic", -216, k_factor=True, coef=_legendre(-3, 9)))),
    ),
    _family(
        "C1.2c",
        "sum binom(4k,2k) binom(2k,k)/48^k == (-2/p) sum binom(4k,2k) binom(2k,k)/(-192)^k mod p^2",
        2,
        _chain_family((Sum("quartic", 48), Sum("quartic", -192, coef=_legendre(-2)))),
    ),
    _family(
        "C1.2d",
        "sum k binom(4k,2k) binom(2k,k)/48^k == 4 (-2/p) sum k binom(4k,2k) binom(2k,k)/(-192)^k mod p^2",
        2,
        _chain_family((Sum("quartic", 48, k_factor=True), Sum("quartic", -192, k_factor=True, coef=_legendre(-2, 4)))),
    ),
    _family(
        "C1.2e",
        "sum binom(4k,2k) binom(2k,k)/72^k == (-2/p) sum binom(4k,2k) binom(2k,k)/576^k mod p^2",
        2,
        _chain_family((Sum("quartic", 72), Sum("quartic", 576, coef=_legendre(-2)))),
    ),
    _family(
        "C1.2f",
        "sum k binom(4k,2k) binom(2k,k)/72^k == -8 (-2/p) sum k binom(4k,2k) binom(2k,k)/576^k mod p^2",
        2,
        _chain_family((Sum("quartic", 72, k_factor=True), Sum("quartic", 576, k_factor=True, coef=_legendre(-2, -8)))),
    ),
    _family(
        "C1.2g",
        "sum binom(4k,2k) binom(2k,k)/63^k == (-2/p) sum binom(4k,2k) binom(2k,k)/(-4032)^k "
        "mod p^2 for p != 7",
        2,
        _chain_family((Sum("quartic", 63), Sum("quartic", -4032, coef=_legendre(-2)))),
        applies=lambda q: q != 7,
    ),
    _family(
        "C1.2h",
        "sum k binom(4k,2k) binom(2k,k)/63^k == 64 (-2/p) sum k binom(4k,2k) binom(2k,k)/(-4032)^k "
        "mod p^2 for p != 7",
        2,
        _chain_family(
            (
                Sum("quartic", 63, k_factor=True),
                Sum("quartic", -4032, k_factor=True, coef=_legendre(-2, 64)),
            )
        ),
        applies=lambda q: q != 7,
    ),
    _family(
        "E1.20",
        "sum binom(3k,k) C_k/54^k == p mod p^2 for p == 1 mod 3",
        2,
        _chain_family((Sum("cubic", 54, catalan_weight=True), lambda q: q)),
        applies=lambda q: q % 3 == 1,
    ),
    _family(
        "E1.21",
        "sum binom(4k,2k) C_k/128^k == p mod p^2 for p == 1,3 mod 8",
        2,
        _chain_family((Sum("quartic", 128, catalan_weight=True), lambda q: q)),
        applies=lambda q: q % 8 in (1, 3),
    ),
    _family(
        "E1.22",
        "sum binom(6k,3k) binom(3k,k)/((k+1) 864^k) == p mod p^2 for p == 1 mod 4",
        2,
        _chain_family((Sum("sextic", 864, catalan_weight=True), lambda q: q)),
        applies=lambda q: q % 4 == 1,
    ),
    _family(
        "E1.23",
        "sum binom(3k,k) C_k/24^k == p + (p/3)/9 (sum binom(3k,k) C_k/(-216)^k - p) mod p^2",
        2,
        _chain_family(
            (
                Sum("cubic", 24, catalan_weight=True),
                # p + (p/3)/9 (S - p), as (p/3)/9 S + p (1 - (p/3)/9)
                (
                    Sum("cubic", -216, catalan_weight=True, coef=_legendre(-3, Fraction(1, 9))),
                    lambda q: q - Fraction(q * legendre_symbol(-3, q), 9),
                ),
            )
        ),
    ),
    _family(
        "T1.6",
        "sum k binom(4k,2k) binom(2k,k)/72^k == 3/2 sum binom(4k,2k) C_k/72^k == "
        "(6/p)x or 3/4 (6/p) binom((p+1)/2,(p+1)/4) mod p by p mod 4",
        1,
        _chain_family(
            (
                Sum("quartic", 72, k_factor=True),
                Sum("quartic", 72, catalan_weight=True, coef=Fraction(3, 2)),
                _t16_closed,
            ),
            ("k72", "cat72", "closed"),
            lambda q: {"branch": "two-squares" if q % 4 == 1 else "binomial"},
        ),
    ),
    _family(
        "G1",
        "binom((p-1)/2,(p-1)/4) == 2x mod p where p = x^2 + y^2, x == 1 mod 4",
        1,
        _chain_family((lambda q: comb((q - 1) // 2, (q - 1) // 4), lambda q: 2 * cornacchia_two_squares(q).x)),
        applies=lambda q: q % 4 == 1,
    ),
    _family(
        "G2",
        "binom((p-1)/2,(p-1)/4) == (2^(p-1)+1)/2 (2x - p/(2x)) mod p^2",
        2,
        _chain_family(
            (lambda q: comb((q - 1) // 2, (q - 1) // 4), lambda q: Fraction(2 ** (q - 1) + 1, 2) * _two_x_minus(q, 2))
        ),
        applies=lambda q: q % 4 == 1,
    ),
    _family(
        "G3",
        "central-square sums over 8^k, (-16)^k and (2/p) 32^k all equal "
        "(2/p)(2x - p/(2x)) mod p^2",
        2,
        _chain_family(
            (
                Sum("central_sq", 8, half=True),
                Sum("central_sq", -16, half=True),
                Sum("central_sq", 32, half=True, coef=_legendre(2)),
                lambda q: legendre_symbol(2, q) * _two_x_minus(q, 2),
            ),
            ("S8", "S-16", "S32", "closed"),
        ),
        applies=lambda q: q % 4 == 1,
    ),
    _family(
        "G4",
        "Catalan/k-weighted central-square chain over 8^k and (-16)^k equals "
        "(2/p)(2x - p/x) mod p^2",
        2,
        _chain_family(
            (
                Sum("central_sq", 8, half=True, catalan_weight=True),
                Sum("central_sq", 8, k_factor=True, coef=-2),
                Sum("central_sq", -16, half=True, catalan_weight=True, coef=Fraction(1, 2)),
                Sum("central_sq", -16, half=True, k_factor=True, coef=-4),
                lambda q: legendre_symbol(2, q) * _two_x_minus(q, 1),
            ),
            ("cat8", "k8full", "cat-16", "k-16", "closed"),
        ),
        applies=lambda q: q % 4 == 1,
    ),
    _family(
        "L1",
        "sum_h (2h+1)/(-16)^h sum_k binom(2k,k)^2 binom(2(h-k),h-k)^2 == p(-1/p) mod p^2",
        2,
        _l1_cases,
    ),
    _family(
        "A1",
        "a_p^(0)(2) = a_p^(0)(-1) == 0 mod p for p == 3 mod 4",
        1,
        _a1_cases,
        applies=lambda q: q % 4 == 3,
    ),
    _family(
        "A2",
        "a_p^(1)(2) == (-1)^((p-3)/4) binom((p-1)/2,(p-3)/4) mod p for p == 3 mod 4",
        1,
        _a2_cases,
        applies=lambda q: q % 4 == 3,
    ),
    _family(
        "B1",
        "binom(2p-2,p-1) == -p mod p^2",
        2,
        _chain_family((lambda q: comb(2 * q - 2, q - 1), lambda q: -q)),
    ),
    _family(
        "B2",
        "binom(3p-3,p-1) == -p mod p^2",
        2,
        _chain_family((lambda q: comb(3 * q - 3, q - 1), lambda q: -q)),
    ),
    _family(
        "B3",
        "binom(4p-4,2p-2) == -p mod p^2",
        2,
        _chain_family((lambda q: comb(4 * q - 4, 2 * q - 2), lambda q: -q)),
    ),
    _family(
        "B4",
        "binom(6p-6,3p-3) == -p mod p^2 for p > 5",
        2,
        _chain_family((lambda q: comb(6 * q - 6, 3 * q - 3), lambda q: -q)),
        applies=lambda q: q > 5,
    ),
    _family(
        "D-base",
        "sum binom(2k,k) binom(2k,k+n-1)/8^k == 0 mod p at the base shift d = n-1",
        1,
        _chain_family((Sum("central_shift", 8, half=True), lambda q, ds: repeat(0)), shifts=lambda q: [(q - 3) // 2]),
    ),
    _family("I8", "binom(p-1,(p-1)/2) == (-1)^((p-1)/2) 4^(p-1) mod p^3", 3, _i8_cases),
    _family("I9", "binom(n+k,2k) == binom(2k,k)/(-16)^k mod p^2 for k <= n = (p-1)/2", 2, _i9_cases),
    _family("I10", "binom((p-1)/2,k) == binom(2k,k)/(-4)^k mod p for k < p", 1, _i10_cases),
    _family("I11", "binom((p-1)/2,2k) == binom(4k,2k)/16^k mod p for k <= (p-1)/2", 1, _i11_cases),
)

_BY_ID = {fam.id: fam for fam in _CATALOG}


def family_catalog() -> tuple[CongruenceFamily, ...]:
    return _CATALOG


def family_ids() -> list[str]:
    return [fam.id for fam in _CATALOG]


def get_family(family_id: str) -> CongruenceFamily:
    try:
        return _BY_ID[family_id]
    except KeyError:
        raise UnknownId(f"unknown family id {family_id!r}") from None
