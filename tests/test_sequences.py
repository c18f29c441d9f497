"""The sampled sequences of the sequence-quantified families, built reduced in families.py."""

import random

import pytest

from supercong.congruences import families
from supercong.congruences.families import _SEQUENCE_IDS, _sequence_matrix

_PRIMES = [q for q in range(2, 201) if all(q % d for d in range(2, q))]


def _exact(seq_id, length):
    """The first terms of a sampled sequence as exact integers, from its definition."""
    if seq_id.startswith("geom"):
        r = int(seq_id[4:])
        return [r**k for k in range(length)]
    if seq_id.startswith("pow"):
        j = int(seq_id[3:])
        return [k**j for k in range(length)]  # 0**0 == 1
    rng = random.Random(20260800 + int(seq_id[4:]))
    return [rng.randint(-9, 9) for _ in range(length)]


@pytest.mark.parametrize("q", _PRIMES)
def test_the_rows_are_the_exact_definitions_reduced(q):
    modulus = q * q
    rows = _sequence_matrix(q, modulus)
    assert len(rows) == len(_SEQUENCE_IDS) == 19
    for seq_id, row in zip(_SEQUENCE_IDS, rows):
        assert list(row) == [t % modulus for t in _exact(seq_id, q)], seq_id
        assert all(type(t) is int for t in row)


@pytest.mark.parametrize("lengths", [(0, 7, 61), (61, 7, 0), (7, 61, 0)], ids=["rising", "falling", "mixed"])
def test_every_prefix_is_the_start_of_a_longer_draw(lengths):
    # one fixed modulus, the lengths asked for in any order
    _sequence_matrix.cache_clear()
    modulus = 61**2
    drawn = {n: _sequence_matrix(n, modulus) for n in lengths}
    longest = drawn[max(lengths)]
    for n, rows in drawn.items():
        assert [row[:n] for row in longest] == list(rows), n


def test_random_sequences_keep_their_values():
    modulus = 7**3
    rows = dict(zip(_SEQUENCE_IDS, _sequence_matrix(8, modulus)))
    assert list(rows["rand0"]) == [t % modulus for t in [-6, 0, 6, -1, 6, 9, 6, 1]]
    assert list(rows["rand9"]) == [t % modulus for t in [-7, 3, -9, -6, 6, 6, 7, -6]]


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_draws_do_not_depend_on_the_order_of_the_primes(order):
    # each stream is drawn once per process and extended as a longer prime
    # needs it; after any visiting order, p = 149 gets the fresh generator's rows
    families._stream.cache_clear()
    primes = [q for q in _PRIMES if 5 <= q <= 150]
    if order == "descending":
        primes.reverse()
    elif order == "shuffled":
        random.Random(150).shuffle(primes)
    for q in primes:
        _sequence_matrix.cache_clear()
        _sequence_matrix(q, q**2)
    _sequence_matrix.cache_clear()
    rows = dict(zip(_SEQUENCE_IDS, _sequence_matrix(149, 149**2)))
    for i in range(10):
        rng = random.Random(20260800 + i)
        assert rows[f"rand{i}"] == tuple(rng.randint(-9, 9) % 149**2 for _ in range(149)), (order, i)
