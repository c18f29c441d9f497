"""Curve point counts, weighted character sums, grids and two-square splits."""

import random
from math import isqrt

import numpy as np
import pytest

from supercong import curves
from supercong.curves import (
    TwoSquares,
    char_sum_a,
    char_sum_table,
    central_binomials_mod,
    cornacchia_two_squares,
    count_points,
    thm11_rhs,
    thm11_rhs_grid,
    weighted_char_sum,
    weighted_char_sum_grid,
    weighted_point_count,
)
from supercong.errors import InvalidPrime, WeightZero, WrongResidueClass
from supercong.padic import is_prime, odd_prime, primes_between


def test_spec_anchor_values():
    assert count_points(5, 2) == 8
    assert char_sum_a(5, 2) == 2
    assert weighted_char_sum(7, -1, 1) == 4
    two = cornacchia_two_squares(13)
    assert (two.x, two.y) == (-3, 2)


def test_count_points_equals_trace_route():
    # square roots per x against the numpy table of chi sums
    for q in primes_between(5, 200):
        table = char_sum_table(q)
        for lam in range(q):
            assert count_points(q, lam) == q + 1 + table[lam], (q, lam)


def test_weighted_sum_weight_zero_is_plain_trace():
    # weighted_char_sum at weight x^0, the evaluator behind char_sum_a,
    # against the independent square-root count
    for q in (5, 7, 11, 101):
        for lam in range(q):
            assert count_points(q, lam) == q + 1 + weighted_char_sum(q, lam, 0), (q, lam)


def test_char_sum_table_matches_scalar():
    for q in (5, 13, 101):
        table = char_sum_table(q)
        for lam in range(q):
            assert table[lam] == char_sum_a(q, lam)


def test_hasse_bound():
    for q in primes_between(5, 500):
        bound = 2 * isqrt(q) + 1
        table = char_sum_table(q)
        for lam in range(q):
            if lam in (0, 1):
                continue  # singular curves are outside the bound's scope
            assert abs(int(table[lam])) <= bound, (q, lam)


def test_weighted_count_consistency_mod_p():
    rng = random.Random(848)
    for _ in range(200):
        q = rng.choice(primes_between(5, 60))
        lam = rng.randrange(q)
        d = rng.randint(1, (q - 1) // 2)
        wc = weighted_point_count(q, lam, d)
        ws = weighted_char_sum(q, lam, d)
        assert wc % q == (1 + ws) % q, (q, lam, d)


def test_weighted_count_rejects_weight_zero():
    with pytest.raises(WeightZero):
        weighted_point_count(7, 3, 0)
    with pytest.raises(ValueError):
        weighted_point_count(7, 3, 4)
    with pytest.raises(ValueError):
        weighted_char_sum(7, 3, -1)


def test_central_binomials_mod():
    from math import comb

    for q in (*primes_between(5, 300), 1999):
        assert central_binomials_mod(q) == tuple(comb(2 * i, i) % q for i in range(q)), q


def test_closed_form_matches_weighted_sum_scalar():
    for q in (5, 7, 11, 13):
        n = (q - 1) // 2
        for lam in range(q):
            for d in range(n + 1):
                want = weighted_char_sum(q, lam, d) % q
                assert thm11_rhs(q, lam, d) == want, (q, lam, d)


def test_grids_match_scalar_routes():
    for q in (5, 7, 13, 29):
        n = (q - 1) // 2
        wg = weighted_char_sum_grid(q)
        tg = thm11_rhs_grid(q)
        assert wg.shape == (n + 1, q)
        assert tg.shape == (n + 1, q)
        for d in range(n + 1):
            for lam in range(q):
                assert wg[d, lam] == weighted_char_sum(q, lam, d) % q
                assert tg[d, lam] == thm11_rhs(q, lam, d)


def test_grids_agree_at_a_larger_prime():
    q = 211
    assert np.array_equal(weighted_char_sum_grid(q), thm11_rhs_grid(q))


@pytest.mark.parametrize("q", [997, 1999])
def test_grids_match_scalar_routes_at_seeded_cells(q):
    n = (q - 1) // 2
    wg, tg = weighted_char_sum_grid(q), thm11_rhs_grid(q)
    rng = random.Random(q)
    cells = [(0, 0), (q - 1, n)] + [(rng.randrange(q), rng.randrange(n + 1)) for _ in range(200)]
    for lam, d in cells:
        assert wg[d, lam] == weighted_char_sum(q, lam, d) % q, (lam, d)
        assert tg[d, lam] == thm11_rhs(q, lam, d), (lam, d)


def test_power_table_matches_pow():
    for q in (5, 7, 13, 211):
        table = curves._power_table(q)
        assert not table.flags.writeable
        assert table.tolist() == [[pow(x, k, q) for x in range(q)] for k in range((q - 1) // 2 + 1)]


def test_grids_reject_primes_past_their_float64_bound(monkeypatch):
    # coeff @ lampow sums (p+1)/2 products below p^2 in float64: exact while
    # (p+1)/2 (p-1)^2 < 2^53; both grids must refuse before they allocate
    first = 262139 + 1
    while not is_prime(first):
        first += 1
    assert first == 262147
    assert (first + 1) // 2 * (first - 1) ** 2 >= 2**53 > 131070 * 262138**2
    assert curves._grid_prime(262139) == 262139  # the last prime below the bound

    def never(*args, **kwargs):
        raise AssertionError("grid allocated past its float64 bound")

    for name in ("ones", "array", "empty"):
        monkeypatch.setattr(curves.np, name, never)
    for grid in (weighted_char_sum_grid, thm11_rhs_grid):
        with pytest.raises(ValueError, match="float64 bound"):
            grid(first)


def _brute_two_squares(q):
    for x in range(1, isqrt(q) + 1):
        y2 = q - x * x
        y = isqrt(y2)
        if y * y == y2:
            odd, even = (x, y) if x % 2 else (y, x)
            return odd if odd % 4 == 1 else -odd, even
    raise AssertionError(f"{q} has no two-square split")


def test_cornacchia_against_exhaustive_search():
    for q in primes_between(5, 10**4):
        if q % 4 != 1:
            with pytest.raises(WrongResidueClass):
                cornacchia_two_squares(q)
            continue
        two = cornacchia_two_squares(q)
        assert two.x * two.x + two.y * two.y == q
        assert two.x % 4 == 1 and two.y % 2 == 0 and two.y >= 0
        assert (two.x, two.y) == _brute_two_squares(q), q


def test_two_squares_validates_normalization():
    with pytest.raises(ValueError):
        TwoSquares(odd_prime(13), 3, 2)  # 3 != 1 mod 4
    with pytest.raises(ValueError):
        TwoSquares(odd_prime(13), -3, -2)
    assert TwoSquares(odd_prime(13), -3, 2).p == 13
    with pytest.raises(InvalidPrime):
        TwoSquares(25, -3, 4)  # 25 = 9 + 16 is not a prime
