"""The sampled sequences of the sequence-quantified families, built reduced in families.py."""

import random

import pytest

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
