"""Deterministic RNG: seed expansion, stream pins, and distribution sanity."""

from __future__ import annotations

import pytest

from refactorlab.rng import MASK64, Rng, _splitmix64

# Published reference outputs of the splitmix64 stream for seed 0; the
# state vector of a freshly seeded generator must reproduce them exactly.
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]

# Regression pins: first raw outputs for seed 42, frozen from the initial
# implementation so any accidental algorithm change is loud.
SEED42_U64 = [
    1546998764402558742,
    6990951692964543102,
    12544586762248559009,
]


def test_seed_expansion_matches_published_splitmix64_vectors():
    assert Rng(0)._s == SPLITMIX64_SEED0


def test_splitmix64_chains_state():
    state, first = _splitmix64(0)
    assert first == SPLITMIX64_SEED0[0]
    _, second = _splitmix64(state)
    assert second == SPLITMIX64_SEED0[1]


def test_seed42_stream_pin():
    rng = Rng(42)
    assert [rng.next_u64() for _ in range(3)] == SEED42_U64


def test_same_seed_same_stream():
    a, b = Rng(123), Rng(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_diverge():
    a, b = Rng(1), Rng(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_u64_stays_in_range():
    rng = Rng(9)
    for _ in range(200):
        v = rng.next_u64()
        assert 0 <= v <= MASK64


def test_random_unit_interval():
    rng = Rng(5)
    values = [rng.random() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    assert 0.45 < mean < 0.55  # loose two-sided bound, far beyond noise


def test_randrange_bounds_and_coverage():
    rng = Rng(11)
    seen = set()
    for _ in range(500):
        v = rng.randrange(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(1).randrange(0)


def test_randint_inclusive():
    rng = Rng(3)
    values = {rng.randint(4, 6) for _ in range(200)}
    assert values == {4, 5, 6}


def test_choice_uniform_support():
    rng = Rng(17)
    items = ["a", "b", "c"]
    assert {rng.choice(items) for _ in range(100)} == set(items)
    with pytest.raises(ValueError):
        rng.choice([])


def test_shuffle_is_permutation():
    rng = Rng(8)
    items = list(range(30))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # 30! orderings; identity would be astonishing


def test_shuffle_deterministic():
    a, b = list(range(20)), list(range(20))
    Rng(99).shuffle(a)
    Rng(99).shuffle(b)
    assert a == b
