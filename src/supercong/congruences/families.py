"""The congruence family catalog.

Each CongruenceFamily turns a prime p, a plain int, into a stream of
FamilyCase rows: two canonical residues, ints in [0, p^K), that the
underlying theorem says must agree modulo p^K. K is the entry's
modulus_power, stated once there; every generator reduces at it, and the
engine takes each row's modulus from it. Truncated
sums arrive as residues mod p^K (sums.truncated_sum with power=K), and the
families that are linear in the weights N(k)/base^k (E1.11-E1.19, R1.4c,
R1.5) work with those weights mod p^K. L1 convolves binom(2k,k)^2 mod p^K,
and E1.4's Euler side is taken mod p from power sums. All of it is exact,
because every denominator involved is a p-adic unit or divides out exactly.
The other closed forms stay exact integers or Fractions; they meet a residue
only through ring operations with p-integral constants, and each side is
reduced once per case. T1.1, one row per (lam, d) cell, hands over its two
grids as CaseColumns instead, so that no cell becomes an object of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, repeat
from math import comb
from operator import mul
from typing import Callable, Iterable, Iterator

import numpy as np

from ..combinatorics import euler_half_grid_mod_p
from ..combinatorics import euler_polynomial_half_grid  # noqa: F401  (perfbench/tracing.py wraps it here)
from ..curves import cornacchia_two_squares, thm11_rhs_grid, weighted_char_sum, weighted_char_sum_grid
from ..errors import UnknownId
from ..padic import legendre_symbol, padic_from_rational
from .identities import LEMMAS, CongruenceLemma
from .sequences import SEQUENCE_IDS, sequence_terms
from .sums import _binomial_row, kernel_residues, truncated_sum

__all__ = [
    "MAX_EXACT_PRIME",
    "CaseColumns",
    "CongruenceFamily",
    "FamilyCase",
    "family_catalog",
    "family_ids",
    "get_family",
]


@dataclass(slots=True)
class FamilyCase:
    """One check; lhs and rhs are canonical residues in [0, p^K), K the family's modulus_power."""

    params: dict
    lhs: int
    rhs: int
    skipped: bool = False
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.skipped or self.lhs == self.rhs


@dataclass(slots=True)
class CaseColumns:
    """A family's rows at one prime as columns: row i has the params
    dict(zip(keys, (column[i] for column in columns))) and the residues
    lhs[i], rhs[i], and no row is skipped. Iterating gives the FamilyCase rows.
    """

    keys: tuple[str, ...]
    columns: tuple[list, ...]
    lhs: list[int]
    rhs: list[int]

    def __iter__(self) -> Iterator[FamilyCase]:
        keys = self.keys
        for *values, lhs, rhs in zip(*self.columns, self.lhs, self.rhs):
            yield FamilyCase(dict(zip(keys, values)), lhs, rhs)


@dataclass(frozen=True)
class CongruenceFamily:
    """One catalog entry; cases(p) yields every residue check at that prime."""

    id: str
    description: str
    modulus_power: int
    applies: Callable[[int], bool]
    cases: Callable[[int], Iterable[FamilyCase]]
    heavy: bool = False  # swept only up to the engine's sweep cap


# -- small arithmetic helpers ------------------------------------------------


def _case(q: int, power: int, params: dict, lhs, rhs) -> FamilyCase:
    return FamilyCase(params, padic_from_rational(lhs, q, power), padic_from_rational(rhs, q, power))


def _skip(params: dict, note: str) -> FamilyCase:
    return FamilyCase(params, 0, 0, skipped=True, note=note)


def _chain(q: int, power: int, labels: list[str], members: list[Fraction], extra: dict | None = None):
    """Pairwise comparisons along a chain of claimed-congruent values."""
    for i in range(len(members) - 1):
        params = {"pair": f"{labels[i]}={labels[i + 1]}"}
        if extra:
            params.update(extra)
        yield _case(q, power, params, members[i], members[i + 1])


# The int64 residue paths (_dual_family, _r14c_cases, _poly_family) sum up to
# p products of residues below p^2. The sums are exact only while
# p (p^2 - 1)^2 < 2^63, which holds up to this bound; _weight_vectors checks it.
MAX_EXACT_PRIME = 6208


@lru_cache(maxsize=4)
def _binom_mod_matrix(modulus: int, size: int) -> np.ndarray:
    """M[k, j] = binom(k, j) (-1)^j mod modulus, as int64."""
    rows = np.zeros((size, size), dtype=np.int64)
    rows[0, 0] = 1
    for k in range(1, size):
        rows[k, 0] = 1
        rows[k, 1 : k + 1] = (rows[k - 1, 1 : k + 1] + rows[k - 1, 0:k]) % modulus
    signs = np.where(np.arange(size) % 2 == 0, 1, -1)
    return rows * signs[None, :] % modulus


@lru_cache(maxsize=32)
def _weight_residues(kind: str, base: int, q: int, power: int, count: int) -> np.ndarray:
    """Residues of N_kind(k, 0)/base^k mod p^power for k < count."""
    return np.array(kernel_residues(kind, q, base, count, power), dtype=np.int64)


def _weight_vectors(
    kind: str, base: int, q: int, power: int, count: int, *, k_weighted: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Weights w[k] = N_kind(k)/base^k mod p^power for k < count, and their dual M^T w.

    With k_weighted, w[k] is (k+1) N_kind(k+1)/base^(k+1) for k < count - 1.
    Since w . (M a) = (M^T w) . a, a sum over a dual sequence is one dot product.
    """
    if q > MAX_EXACT_PRIME:
        raise ValueError(f"p = {q} exceeds MAX_EXACT_PRIME = {MAX_EXACT_PRIME}; the int64 residue sums would overflow")
    mod = q**power
    w = _weight_residues(kind, base, q, power, count)
    if k_weighted:
        w = (np.arange(count, dtype=np.int64) * w % mod)[1:]
    size = len(w)
    return w, _binom_mod_matrix(mod, q)[:size, :size].T @ w % mod


# -- T1.1: the weighted-trace closed form ------------------------------------


def _t11_cases(q: int) -> CaseColumns:
    lhs = weighted_char_sum_grid(q)  # row d, column lam
    rows = len(lhs)
    lam = [*range(q)] * rows
    d = list(chain.from_iterable(map(repeat, range(rows), repeat(q, rows))))
    return CaseColumns(("lam", "d"), (lam, d), lhs.ravel().tolist(), thm11_rhs_grid(q).ravel().tolist())


# -- E1.3 / E1.4: central binomial sums with shift d --------------------------


def _e13_cases(q: int) -> Iterator[FamilyCase]:
    n = (q - 1) // 2
    sign = legendre_symbol(-1, q)
    for d in range(n + 1):
        lhs = truncated_sum("central_double", q, n, 16, d=d, power=2)
        yield _case(q, 2, {"d": d}, lhs, Fraction(4**d * sign))


def _e14_cases(q: int) -> Iterator[FamilyCase]:
    n = (q - 1) // 2
    sign = legendre_symbol(-1, q)
    # p^2 (-1)^d/4 E_(p-3)(d+1/2) mod p^3 needs the Euler value only mod p
    euler = euler_half_grid_mod_p(q, n + 1)
    inv4 = pow(4, -1, q)
    for d in range(n + 1):
        lhs = truncated_sum("central_shift", q, n, 16, d=d, power=3)
        rhs = sign + q * q * ((-1) ** d * inv4 * euler[d] % q)
        yield _case(q, 3, {"d": d}, lhs, rhs)


# -- E1.5 / E1.6 / E1.7: base 8 and -16 sums, p == 3 (mod 4) ------------------


def _e15_cases(q: int) -> Iterator[FamilyCase]:
    n = (q - 1) // 2
    members = [
        truncated_sum("central_sq", q, n, 8, catalan_weight=True, power=1),
        -2 * truncated_sum("central_sq", q, n, 8, k_factor=True, power=1),
        Fraction(-1, 2) * truncated_sum("central_sq", q, n, -16, catalan_weight=True, power=1),
        4 * truncated_sum("central_sq", q, n, -16, k_factor=True, power=1),
        Fraction((-1) ** ((q + 1) // 4) * comb((q + 1) // 2, (q + 1) // 4), 2),
    ]
    yield from _chain(q, 1, ["cat8", "k8", "cat-16", "k-16", "closed"], members)


def _e16_cases(q: int) -> Iterator[FamilyCase]:
    n = (q - 1) // 2
    members = [
        truncated_sum("central_sq", q, n, 8, power=2),
        -truncated_sum("central_sq", q, n, -16, power=2),
        Fraction(2 * q * (-1) ** ((q + 1) // 4), comb((q + 1) // 2, (q + 1) // 4)),
    ]
    yield from _chain(q, 2, ["S8", "-S-16", "closed"], members)


def _e17_family(claimed_parity: Callable[[int], int]):
    def gen(q: int) -> Iterator[FamilyCase]:
        n = (q - 1) // 2
        parity = claimed_parity(q)
        for d in range(n + 1):
            value = truncated_sum("central_shift", q, n, 8, d=d, power=1)
            if d % 2 == parity:
                yield _case(q, 1, {"d": d}, value, Fraction(0))
            else:
                yield _skip({"d": d}, f"parity outside the claim; informational residue {value}")

    return gen


# -- E1.8-E1.10, C1.1, E1.20-E1.22: one full-range sum against a closed form --


def _sum_family(kind: str, base: int, closed: Callable[[int], int], **weights: bool):
    def gen(q: int) -> Iterator[FamilyCase]:
        lhs = truncated_sum(kind, q, q - 1, base, **weights, power=2)
        yield _case(q, 2, {}, lhs, Fraction(closed(q)))

    return gen


# -- E1.11-E1.13 and R1.4c: sequence-quantified congruences -------------------


def _sequence_matrix(q: int, modulus: int) -> np.ndarray:
    """Row i holds the first p terms of sequence SEQUENCE_IDS[i] mod modulus."""
    return np.array([[t % modulus for t in sequence_terms(s, q)] for s in SEQUENCE_IDS], dtype=np.int64)


def _dual_family(kind: str, base: int, eps: Callable[[int], int]):
    def gen(q: int) -> Iterator[FamilyCase]:
        m2 = q * q
        w, dual = _weight_vectors(kind, base, q, 2, q)
        seqs = _sequence_matrix(q, m2)
        lhs, rhs = seqs @ w % m2, eps(q) * (seqs @ dual % m2) % m2
        for seq_id, left, right in zip(SEQUENCE_IDS, lhs.tolist(), rhs.tolist()):
            yield FamilyCase({"sequence": seq_id}, left, right)

    return gen


def _r14c_cases(q: int) -> Iterator[FamilyCase]:
    n = (q - 1) // 2
    m2 = q * q
    w, dual = _weight_vectors("central_sq", 16, q, 2, n + 1)
    lhs = _sequence_matrix(q, m2)[:, : n + 1] @ ((w - legendre_symbol(-1, q) * dual) % m2) % m2
    for seq_id, left in zip(SEQUENCE_IDS, lhs.tolist()):
        yield FamilyCase({"sequence": seq_id}, left, 0)


# -- R1.4a / R1.4b: d-shifted mod-p analogues ---------------------------------


def _r14_family(double_kind: str, shift_kind: str, base: int, div: int, eps: Callable[[int], int]):
    def gen(q: int) -> Iterator[FamilyCase]:
        n = (q - 1) // 2
        closed = Fraction(eps(q))
        for d in range(q // div + 1):
            m1 = truncated_sum(double_kind, q, n, base, d=d, power=1) * pow(4, -d, q)
            m2 = truncated_sum(shift_kind, q, n, base, d=d, power=1)
            yield _case(q, 1, {"d": d, "pair": "double=shift"}, m1, m2)
            yield _case(q, 1, {"d": d, "pair": "shift=closed"}, m2, closed)

    return gen


# -- E1.14-E1.19 and R1.5: coefficient-wise polynomial congruences ------------


_SPOTS_CUBIC = (Fraction(1, 2), Fraction(9, 8), Fraction(2), Fraction(-1), Fraction(1, 3))
_SPOTS_QUARTIC = (Fraction(1, 2), Fraction(4, 3), Fraction(8, 9), Fraction(64, 63), Fraction(2))
_SPOTS_SEXTIC = (Fraction(1, 2), Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(3, 2))


def _poly_family(
    kind: str,
    base: int,
    eps_fun: Callable[[int], int],
    *,
    power: int = 2,
    deriv: bool = False,
    upper_fun: Callable[[int], int] = lambda q: q - 1,
    spots: tuple[Fraction, ...],
):
    # Both claims read sum_j vec[j] (x^j - e (1-x)^j) == 0, i.e. vec == e M^T vec,
    # with vec = w and e = eps, or, when deriv, vec[j] = (j+1) w[j+1] and e = -eps.
    def gen(q: int) -> Iterator[FamilyCase]:
        mod = q**power
        e = -eps_fun(q) if deriv else eps_fun(q)
        vec, dual = _weight_vectors(kind, base, q, power, upper_fun(q) + 1, k_weighted=deriv)
        size = len(vec)
        rhs_vec = e * dual % mod
        mismatch = np.nonzero(vec != rhs_vec)[0]
        if mismatch.size:
            j = int(mismatch[0])
            note = f"{mismatch.size} of {size} coefficients disagree"
            yield FamilyCase({"coefficient": j}, int(vec[j]), int(rhs_vec[j]), note=note)
        else:
            yield FamilyCase({"coefficients": size}, 0, 0, note="all coefficients agree")
        coeffs = vec.tolist()
        for x in spots:
            params = {"x": str(x)}
            if x.denominator % q == 0:
                yield _skip(params, "x is not a p-adic integer at this prime")
                continue
            xr = x.numerator * pow(x.denominator, -1, mod) % mod
            yr = (1 - xr) % mod
            total, xp, yp = 0, 1, 1
            for c in coeffs:
                total += c * (xp - e * yp)
                xp = xp * xr % mod
                yp = yp * yr % mod
            yield FamilyCase(params, total % mod, 0)

    return gen


# -- C1.2 and E1.23: two sums over different bases ---------------------------


def _pair_sum_family(kind: str, base_a: int, base_b: int, scale: Callable[[int], Fraction], *, k_factor: bool):
    def gen(q: int) -> Iterator[FamilyCase]:
        lhs = truncated_sum(kind, q, q - 1, base_a, k_factor=k_factor, power=2)
        rhs = scale(q) * truncated_sum(kind, q, q - 1, base_b, k_factor=k_factor, power=2)
        yield _case(q, 2, {}, lhs, rhs)

    return gen


def _e123_cases(q: int) -> Iterator[FamilyCase]:
    lhs = truncated_sum("cubic", q, q - 1, 24, catalan_weight=True, power=2)
    inner = truncated_sum("cubic", q, q - 1, -216, catalan_weight=True, power=2) - q
    rhs = q + Fraction(legendre_symbol(-3, q), 9) * inner
    yield _case(q, 2, {}, lhs, rhs)


# -- T1.6 and the two-squares families ----------------------------------------


def _t16_cases(q: int) -> Iterator[FamilyCase]:
    m1 = truncated_sum("quartic", q, q - 1, 72, k_factor=True, power=1)
    m2 = Fraction(3, 2) * truncated_sum("quartic", q, q - 1, 72, catalan_weight=True, power=1)
    l6 = legendre_symbol(6, q)
    if q % 4 == 1:
        closed = Fraction(l6 * cornacchia_two_squares(q).x)
        branch = "two-squares"
    else:
        closed = Fraction(3 * l6 * comb((q + 1) // 2, (q + 1) // 4), 4)
        branch = "binomial"
    yield from _chain(q, 1, ["k72", "cat72", "closed"], [m1, m2, closed], {"branch": branch})


def _g1_cases(q: int) -> Iterator[FamilyCase]:
    x = cornacchia_two_squares(q).x
    yield _case(q, 1, {}, Fraction(comb((q - 1) // 2, (q - 1) // 4)), Fraction(2 * x))


def _g2_cases(q: int) -> Iterator[FamilyCase]:
    x = cornacchia_two_squares(q).x
    rhs = Fraction(2 ** (q - 1) + 1, 2) * (2 * x - Fraction(q, 2 * x))
    yield _case(q, 2, {}, Fraction(comb((q - 1) // 2, (q - 1) // 4)), rhs)


def _g3_cases(q: int) -> Iterator[FamilyCase]:
    n = (q - 1) // 2
    x = cornacchia_two_squares(q).x
    l2 = legendre_symbol(2, q)
    members = [
        truncated_sum("central_sq", q, n, 8, power=2),
        truncated_sum("central_sq", q, n, -16, power=2),
        l2 * truncated_sum("central_sq", q, n, 32, power=2),
        l2 * (2 * x - Fraction(q, 2 * x)),
    ]
    yield from _chain(q, 2, ["S8", "S-16", "S32", "closed"], members)


def _g4_cases(q: int) -> Iterator[FamilyCase]:
    n = (q - 1) // 2
    x = cornacchia_two_squares(q).x
    l2 = legendre_symbol(2, q)
    members = [
        truncated_sum("central_sq", q, n, 8, catalan_weight=True, power=2),
        -2 * truncated_sum("central_sq", q, q - 1, 8, k_factor=True, power=2),
        Fraction(1, 2) * truncated_sum("central_sq", q, n, -16, catalan_weight=True, power=2),
        -4 * truncated_sum("central_sq", q, n, -16, k_factor=True, power=2),
        l2 * (2 * x - Fraction(q, x)),
    ]
    yield from _chain(q, 2, ["cat8", "k8full", "cat-16", "k-16", "closed"], members)


# -- L1, A1/A2, B1-B4, D-base, and the binomial lemma families ----------------


def _l1_lhs(q: int, power: int, *, base: int = -16, offset: int = 1) -> int:
    """sum_{h<p} (2h + offset)/base^h sum_{k<=h} u_k u_(h-k) mod p^power, u_k = binom(2k,k)^2.

    The convolution runs once over u_k mod p^power (power <= 4, the table
    precision); every divisor is a power of base, a unit. L1 is base = -16,
    offset = 1; the parameters exist so the tests can plant mutants.
    """
    mod = q**power
    u = [c * c % mod for c in _binomial_row(q, 2, 1)]
    reverse = u[::-1]
    inv = pow(base, -1, mod)
    total, w = 0, 1
    for h in range(q):
        conv = sum(map(mul, u, reverse[q - 1 - h :]))  # sum_{k<=h} u_k u_(h-k)
        total += (2 * h + offset) * (conv % mod) * w
        w = w * inv % mod
    return total % mod


def _l1_cases(q: int) -> Iterator[FamilyCase]:
    yield _case(q, 2, {}, _l1_lhs(q, 2), Fraction(q * legendre_symbol(-1, q)))


def _a1_cases(q: int) -> Iterator[FamilyCase]:
    a2 = weighted_char_sum(q, 2, 0)
    am1 = weighted_char_sum(q, -1, 0)
    yield _case(q, 1, {"lam": 2}, Fraction(a2), Fraction(0))
    yield _case(q, 1, {"lam": -1}, Fraction(am1), Fraction(0))
    yield _case(q, 1, {"pair": "lam2=lam-1"}, Fraction(a2), Fraction(am1))


def _a2_cases(q: int) -> Iterator[FamilyCase]:
    n = (q - 1) // 2
    lhs = Fraction(weighted_char_sum(q, 2, 1))
    closed = Fraction((-1) ** ((q - 3) // 4) * comb(n, (n - 1) // 2))
    split = Fraction(weighted_char_sum(q, -1, 0) + weighted_char_sum(q, -1, 1))
    yield _case(q, 1, {"pair": "closed"}, lhs, closed)
    yield _case(q, 1, {"pair": "shifted-split"}, lhs, split)


def _binom_family(top: Callable[[int], tuple[int, int]], power: int, rhs_fun: Callable[[int], Fraction]):
    def gen(q: int) -> Iterator[FamilyCase]:
        a, b = top(q)
        yield _case(q, power, {}, Fraction(comb(a, b)), rhs_fun(q))

    return gen


def _dbase_cases(q: int) -> Iterator[FamilyCase]:
    n = (q - 1) // 2
    lhs = truncated_sum("central_shift", q, n, 8, d=n - 1, power=1)
    yield _case(q, 1, {"d": n - 1}, lhs, Fraction(0))


def _always(q: int) -> bool:
    return True


def _lemma_family(lemma: CongruenceLemma) -> CongruenceFamily:
    def gen(q: int) -> Iterator[FamilyCase]:
        return (FamilyCase(*row) for row in lemma.residues(q))

    return CongruenceFamily(lemma.id, lemma.description, lemma.power, _always, gen)


_CATALOG: tuple[CongruenceFamily, ...] = (
    CongruenceFamily(
        "T1.1",
        "weighted curve trace a_p^(d)(lam) matches its central-binomial closed form, "
        "all lam in [0,p) and d in [0,(p-1)/2]",
        1,
        _always,
        _t11_cases,
        heavy=True,
    ),
    CongruenceFamily(
        "E1.3",
        "sum binom(2k,k) binom(2k+2d,k+d)/16^k == 4^d (-1/p) mod p^2",
        2,
        _always,
        _e13_cases,
    ),
    CongruenceFamily(
        "E1.4",
        "sum binom(2k,k) binom(2k,k+d)/16^k == (-1/p) + p^2 (-1)^d/4 E_(p-3)(d+1/2) mod p^3",
        3,
        _always,
        _e14_cases,
    ),
    CongruenceFamily(
        "E1.5",
        "five-member mod-p chain linking Catalan and k-weighted central sums over 8^k "
        "and (-16)^k to (-1)^((p+1)/4)/2 binom((p+1)/2,(p+1)/4), p == 3 mod 4",
        1,
        lambda q: q % 4 == 3,
        _e15_cases,
    ),
    CongruenceFamily(
        "E1.6",
        "sum binom(2k,k)^2/8^k == -sum binom(2k,k)^2/(-16)^k == "
        "2p(-1)^((p+1)/4)/binom((p+1)/2,(p+1)/4) mod p^2, p == 3 mod 4",
        2,
        lambda q: q % 4 == 3,
        _e16_cases,
    ),
    CongruenceFamily(
        "E1.7",
        "sum binom(2k,k) binom(2k,k+d)/8^k == 0 mod p for d == (p+1)/2 mod 2",
        1,
        _always,
        _e17_family(lambda q: (q + 1) // 2 % 2),
    ),
    CongruenceFamily(
        "E1.8",
        "sum_{k<p} binom(3k,k) binom(2k,k)/27^k == (p/3) mod p^2",
        2,
        _always,
        _sum_family("cubic", 27, partial(legendre_symbol, -3)),  # (p/3) = (-3/p) by reciprocity
    ),
    CongruenceFamily(
        "E1.9",
        "sum_{k<p} binom(4k,2k) binom(2k,k)/64^k == (-2/p) mod p^2",
        2,
        _always,
        _sum_family("quartic", 64, partial(legendre_symbol, -2)),
    ),
    CongruenceFamily(
        "E1.10",
        "sum_{k<p} binom(6k,3k) binom(3k,k)/432^k == (-1/p) mod p^2",
        2,
        _always,
        _sum_family("sextic", 432, partial(legendre_symbol, -1)),
    ),
    CongruenceFamily(
        "E1.11",
        "27^k-weighted sum of a_k equals (p/3) times the same sum of the dual "
        "sequence mod p^2, over sampled sequences",
        2,
        _always,
        _dual_family("cubic", 27, partial(legendre_symbol, -3)),
    ),
    CongruenceFamily(
        "E1.12",
        "64^k-weighted sum of a_k equals (-2/p) times the dual-sequence sum mod p^2",
        2,
        _always,
        _dual_family("quartic", 64, partial(legendre_symbol, -2)),
    ),
    CongruenceFamily(
        "E1.13",
        "432^k-weighted sum of a_k equals (-1/p) times the dual-sequence sum mod p^2",
        2,
        _always,
        _dual_family("sextic", 432, partial(legendre_symbol, -1)),
    ),
    CongruenceFamily(
        "R1.4a",
        "1/4^d sum binom(3k,k) binom(2k+2d,k+d)/27^k == sum binom(3k,k) binom(2k,k+d)/27^k "
        "== (p/3) mod p for d <= floor(p/3)",
        1,
        _always,
        _r14_family("cubic_double", "cubic_shift", 27, 3, partial(legendre_symbol, -3)),
    ),
    CongruenceFamily(
        "R1.4b",
        "1/4^d sum binom(4k,2k) binom(2k+2d,k+d)/64^k == sum binom(4k,2k) binom(2k,k+d)/64^k "
        "== (-2/p) mod p for d <= floor(p/4)",
        1,
        _always,
        _r14_family("quartic_double", "quartic_shift", 64, 4, partial(legendre_symbol, -2)),
    ),
    CongruenceFamily(
        "R1.4c",
        "sum binom(2k,k)^2/16^k (a_k - (-1/p) a*_k) == 0 mod p^2 over sampled sequences",
        2,
        _always,
        _r14c_cases,
    ),
    CongruenceFamily(
        "E1.14",
        "sum binom(3k,k) binom(2k,k)/27^k (x^k - (p/3)(1-x)^k) == 0 in Z_p[x] mod p^2",
        2,
        _always,
        _poly_family("cubic", 27, partial(legendre_symbol, -3), spots=_SPOTS_CUBIC),
    ),
    CongruenceFamily(
        "E1.15",
        "sum binom(4k,2k) binom(2k,k)/64^k (x^k - (-2/p)(1-x)^k) == 0 in Z_p[x] mod p^2",
        2,
        _always,
        _poly_family("quartic", 64, partial(legendre_symbol, -2), spots=_SPOTS_QUARTIC),
    ),
    CongruenceFamily(
        "E1.16",
        "sum binom(6k,3k) binom(3k,k)/432^k (x^k - (-1/p)(1-x)^k) == 0 in Z_p[x] mod p^2",
        2,
        _always,
        _poly_family("sextic", 432, partial(legendre_symbol, -1), spots=_SPOTS_SEXTIC),
    ),
    CongruenceFamily(
        "E1.17",
        "sum k binom(3k,k) binom(2k,k)/27^k (x^(k-1) + (p/3)(1-x)^(k-1)) == 0 mod p^2",
        2,
        _always,
        _poly_family("cubic", 27, partial(legendre_symbol, -3), deriv=True, spots=_SPOTS_CUBIC),
    ),
    CongruenceFamily(
        "E1.18",
        "sum k binom(4k,2k) binom(2k,k)/64^k (x^(k-1) + (-2/p)(1-x)^(k-1)) == 0 mod p^2",
        2,
        _always,
        _poly_family("quartic", 64, partial(legendre_symbol, -2), deriv=True, spots=_SPOTS_QUARTIC),
    ),
    CongruenceFamily(
        "E1.19",
        "sum k binom(6k,3k) binom(3k,k)/432^k (x^(k-1) + (-1/p)(1-x)^(k-1)) == 0 mod p^2",
        2,
        _always,
        _poly_family("sextic", 432, partial(legendre_symbol, -1), deriv=True, spots=_SPOTS_SEXTIC),
    ),
    CongruenceFamily(
        "R1.5",
        "sum_{k<=floor(p/3)} binom(3k,k) binom(2k,k)/27^k "
        "(x^k - (-1)^floor(p/3) (1-x)^k) == 0 in Z_p[x] mod p",
        1,
        _always,
        _poly_family(
            "cubic",
            27,
            lambda q: (-1) ** (q // 3),
            power=1,
            upper_fun=lambda q: q // 3,
            spots=_SPOTS_CUBIC,
        ),
    ),
    CongruenceFamily(
        "C1.1a",
        "sum k binom(3k,k) binom(2k,k)/54^k == 0 mod p^2 for p == 1 mod 3",
        2,
        lambda q: q % 3 == 1,
        _sum_family("cubic", 54, lambda q: 0, k_factor=True),
    ),
    CongruenceFamily(
        "C1.1b",
        "sum binom(3k,k) binom(2k,k)/54^k == 0 mod p^2 for p == 2 mod 3",
        2,
        lambda q: q % 3 == 2,
        _sum_family("cubic", 54, lambda q: 0),
    ),
    CongruenceFamily(
        "C1.1c",
        "sum k binom(4k,2k) binom(2k,k)/128^k == 0 mod p^2 for p == 1,3 mod 8",
        2,
        lambda q: q % 8 in (1, 3),
        _sum_family("quartic", 128, lambda q: 0, k_factor=True),
    ),
    CongruenceFamily(
        "C1.1d",
        "sum binom(4k,2k) binom(2k,k)/128^k == 0 mod p^2 for p == 5,7 mod 8",
        2,
        lambda q: q % 8 in (5, 7),
        _sum_family("quartic", 128, lambda q: 0),
    ),
    CongruenceFamily(
        "C1.1e",
        "sum k binom(6k,3k) binom(3k,k)/864^k == 0 mod p^2 for p == 1 mod 4",
        2,
        lambda q: q % 4 == 1,
        _sum_family("sextic", 864, lambda q: 0, k_factor=True),
    ),
    CongruenceFamily(
        "C1.1f",
        "sum binom(6k,3k) binom(3k,k)/864^k == 0 mod p^2 for p == 3 mod 4",
        2,
        lambda q: q % 4 == 3,
        _sum_family("sextic", 864, lambda q: 0),
    ),
    CongruenceFamily(
        "C1.2a",
        "sum binom(3k,k) binom(2k,k)/24^k == (p/3) sum binom(3k,k) binom(2k,k)/(-216)^k mod p^2",
        2,
        _always,
        _pair_sum_family("cubic", 24, -216, lambda q: Fraction(legendre_symbol(-3, q)), k_factor=False),
    ),
    CongruenceFamily(
        "C1.2b",
        "sum k binom(3k,k) binom(2k,k)/24^k == 9 (p/3) sum k binom(3k,k) binom(2k,k)/(-216)^k mod p^2",
        2,
        _always,
        _pair_sum_family("cubic", 24, -216, lambda q: Fraction(9 * legendre_symbol(-3, q)), k_factor=True),
    ),
    CongruenceFamily(
        "C1.2c",
        "sum binom(4k,2k) binom(2k,k)/48^k == (-2/p) sum binom(4k,2k) binom(2k,k)/(-192)^k mod p^2",
        2,
        _always,
        _pair_sum_family("quartic", 48, -192, lambda q: Fraction(legendre_symbol(-2, q)), k_factor=False),
    ),
    CongruenceFamily(
        "C1.2d",
        "sum k binom(4k,2k) binom(2k,k)/48^k == 4 (-2/p) sum k binom(4k,2k) binom(2k,k)/(-192)^k mod p^2",
        2,
        _always,
        _pair_sum_family("quartic", 48, -192, lambda q: Fraction(4 * legendre_symbol(-2, q)), k_factor=True),
    ),
    CongruenceFamily(
        "C1.2e",
        "sum binom(4k,2k) binom(2k,k)/72^k == (-2/p) sum binom(4k,2k) binom(2k,k)/576^k mod p^2",
        2,
        _always,
        _pair_sum_family("quartic", 72, 576, lambda q: Fraction(legendre_symbol(-2, q)), k_factor=False),
    ),
    CongruenceFamily(
        "C1.2f",
        "sum k binom(4k,2k) binom(2k,k)/72^k == -8 (-2/p) sum k binom(4k,2k) binom(2k,k)/576^k mod p^2",
        2,
        _always,
        _pair_sum_family("quartic", 72, 576, lambda q: Fraction(-8 * legendre_symbol(-2, q)), k_factor=True),
    ),
    CongruenceFamily(
        "C1.2g",
        "sum binom(4k,2k) binom(2k,k)/63^k == (-2/p) sum binom(4k,2k) binom(2k,k)/(-4032)^k "
        "mod p^2 for p != 7",
        2,
        lambda q: q != 7,
        _pair_sum_family("quartic", 63, -4032, lambda q: Fraction(legendre_symbol(-2, q)), k_factor=False),
    ),
    CongruenceFamily(
        "C1.2h",
        "sum k binom(4k,2k) binom(2k,k)/63^k == 64 (-2/p) sum k binom(4k,2k) binom(2k,k)/(-4032)^k "
        "mod p^2 for p != 7",
        2,
        lambda q: q != 7,
        _pair_sum_family("quartic", 63, -4032, lambda q: Fraction(64 * legendre_symbol(-2, q)), k_factor=True),
    ),
    CongruenceFamily(
        "E1.20",
        "sum binom(3k,k) C_k/54^k == p mod p^2 for p == 1 mod 3",
        2,
        lambda q: q % 3 == 1,
        _sum_family("cubic", 54, lambda q: q, catalan_weight=True),
    ),
    CongruenceFamily(
        "E1.21",
        "sum binom(4k,2k) C_k/128^k == p mod p^2 for p == 1,3 mod 8",
        2,
        lambda q: q % 8 in (1, 3),
        _sum_family("quartic", 128, lambda q: q, catalan_weight=True),
    ),
    CongruenceFamily(
        "E1.22",
        "sum binom(6k,3k) binom(3k,k)/((k+1) 864^k) == p mod p^2 for p == 1 mod 4",
        2,
        lambda q: q % 4 == 1,
        _sum_family("sextic", 864, lambda q: q, catalan_weight=True),
    ),
    CongruenceFamily(
        "E1.23",
        "sum binom(3k,k) C_k/24^k == p + (p/3)/9 (sum binom(3k,k) C_k/(-216)^k - p) mod p^2",
        2,
        _always,
        _e123_cases,
    ),
    CongruenceFamily(
        "T1.6",
        "sum k binom(4k,2k) binom(2k,k)/72^k == 3/2 sum binom(4k,2k) C_k/72^k == "
        "(6/p)x or 3/4 (6/p) binom((p+1)/2,(p+1)/4) mod p by p mod 4",
        1,
        _always,
        _t16_cases,
    ),
    CongruenceFamily(
        "G1",
        "binom((p-1)/2,(p-1)/4) == 2x mod p where p = x^2 + y^2, x == 1 mod 4",
        1,
        lambda q: q % 4 == 1,
        _g1_cases,
    ),
    CongruenceFamily(
        "G2",
        "binom((p-1)/2,(p-1)/4) == (2^(p-1)+1)/2 (2x - p/(2x)) mod p^2",
        2,
        lambda q: q % 4 == 1,
        _g2_cases,
    ),
    CongruenceFamily(
        "G3",
        "central-square sums over 8^k, (-16)^k and (2/p) 32^k all equal "
        "(2/p)(2x - p/(2x)) mod p^2",
        2,
        lambda q: q % 4 == 1,
        _g3_cases,
    ),
    CongruenceFamily(
        "G4",
        "Catalan/k-weighted central-square chain over 8^k and (-16)^k equals "
        "(2/p)(2x - p/x) mod p^2",
        2,
        lambda q: q % 4 == 1,
        _g4_cases,
    ),
    CongruenceFamily(
        "L1",
        "sum_h (2h+1)/(-16)^h sum_k binom(2k,k)^2 binom(2(h-k),h-k)^2 == p(-1/p) mod p^2",
        2,
        _always,
        _l1_cases,
    ),
    CongruenceFamily(
        "A1",
        "a_p^(0)(2) = a_p^(0)(-1) == 0 mod p for p == 3 mod 4",
        1,
        lambda q: q % 4 == 3,
        _a1_cases,
    ),
    CongruenceFamily(
        "A2",
        "a_p^(1)(2) == (-1)^((p-3)/4) binom((p-1)/2,(p-3)/4) mod p for p == 3 mod 4",
        1,
        lambda q: q % 4 == 3,
        _a2_cases,
    ),
    CongruenceFamily(
        "B1",
        "binom(2p-2,p-1) == -p mod p^2",
        2,
        _always,
        _binom_family(lambda q: (2 * q - 2, q - 1), 2, lambda q: Fraction(-q)),
    ),
    CongruenceFamily(
        "B2",
        "binom(3p-3,p-1) == -p mod p^2",
        2,
        _always,
        _binom_family(lambda q: (3 * q - 3, q - 1), 2, lambda q: Fraction(-q)),
    ),
    CongruenceFamily(
        "B3",
        "binom(4p-4,2p-2) == -p mod p^2",
        2,
        _always,
        _binom_family(lambda q: (4 * q - 4, 2 * q - 2), 2, lambda q: Fraction(-q)),
    ),
    CongruenceFamily(
        "B4",
        "binom(6p-6,3p-3) == -p mod p^2 for p > 5",
        2,
        lambda q: q > 5,
        _binom_family(lambda q: (6 * q - 6, 3 * q - 3), 2, lambda q: Fraction(-q)),
    ),
    CongruenceFamily(
        "D-base",
        "sum binom(2k,k) binom(2k,k+n-1)/8^k == 0 mod p at the base shift d = n-1",
        1,
        _always,
        _dbase_cases,
    ),
    *(_lemma_family(lemma) for lemma in LEMMAS),
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
