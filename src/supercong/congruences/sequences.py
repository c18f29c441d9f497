"""Sampled integer sequences for the sequence-quantified congruence families.

The catalog claims hold for every sequence of p-adic integers; the engine
checks them on a fixed, reproducible sample: geometric and monomial
sequences plus seeded pseudorandom ones. Prefixes are stable: extending the
length never changes earlier terms.
"""

from __future__ import annotations

import random

__all__ = ["SEQUENCE_IDS", "sequence_terms"]

_GEOMETRIC = (1, 2, 3, -1, -2)
_MONOMIAL = (0, 1, 2, 3)
_RANDOM_COUNT = 10
_RANDOM_SEED_BASE = 20260800

SEQUENCE_IDS: tuple[str, ...] = (
    *(f"geom{r}" for r in _GEOMETRIC),
    *(f"pow{j}" for j in _MONOMIAL),
    *(f"rand{i}" for i in range(_RANDOM_COUNT)),
)


# i -> (the generator of rand{i}, the terms drawn from it so far)
_RANDOM_STREAMS: dict[int, tuple[random.Random, list[int]]] = {}


def _random_prefix(i: int, length: int) -> list[int]:
    """The first `length` terms of rand{i}: one stream per sequence, drawn
    further only when a longer prefix is asked for."""
    if i not in _RANDOM_STREAMS:
        _RANDOM_STREAMS[i] = random.Random(_RANDOM_SEED_BASE + i), []
    rng, terms = _RANDOM_STREAMS[i]
    terms.extend(rng.randint(-9, 9) for _ in range(length - len(terms)))
    return terms[:length]


def sequence_terms(seq_id: str, length: int) -> list[int]:
    """First `length` terms of the named sample sequence, exact integers."""
    if seq_id.startswith("geom"):
        r = int(seq_id[4:])
        return [r**k for k in range(length)]
    if seq_id.startswith("pow"):
        j = int(seq_id[3:])
        return [k**j for k in range(length)]
    if seq_id.startswith("rand"):
        return _random_prefix(int(seq_id[4:]), length)
    raise KeyError(f"unknown sequence id {seq_id!r}")
