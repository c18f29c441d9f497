"""The sampled sequences of the sequence-quantified families."""

import pytest

from supercong.congruences import sequences
from supercong.congruences.sequences import SEQUENCE_IDS, sequence_terms


@pytest.mark.parametrize("lengths", [(0, 7, 60), (60, 7, 0), (7, 60, 0)], ids=["rising", "falling", "mixed"])
def test_every_prefix_is_the_start_of_a_longer_draw(monkeypatch, lengths):
    # a fresh process: no sequence has been drawn yet, whichever length comes first
    monkeypatch.setattr(sequences, "_RANDOM_STREAMS", {})
    for seq_id in SEQUENCE_IDS:
        drawn = {n: sequence_terms(seq_id, n) for n in lengths}
        longest = drawn[max(lengths)]
        assert all(type(t) is int for t in longest)
        for n, terms in drawn.items():
            assert terms == longest[:n], (seq_id, n)


def test_a_returned_prefix_is_the_callers_own(monkeypatch):
    monkeypatch.setattr(sequences, "_RANDOM_STREAMS", {})
    terms = sequence_terms("rand3", 10)
    want = list(terms)
    terms[:] = [0] * 12
    assert sequence_terms("rand3", 10) == want


def test_random_sequences_keep_their_values():
    assert sequence_terms("rand0", 8) == [-6, 0, 6, -1, 6, 9, 6, 1]
    assert sequence_terms("rand9", 8) == [-7, 3, -9, -6, 6, 6, 7, -6]


def test_unknown_id_raises_key_error():
    with pytest.raises(KeyError):
        sequence_terms("fib1", 5)
