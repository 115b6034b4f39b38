"""Deterministic pseudo-random numbers with a pinned algorithm.

All sampling in this package flows through :class:`Rng`, a pure-Python
xoshiro256** generator seeded via splitmix64.  Pinning the algorithm (rather
than deferring to whatever ``random`` or numpy ship) makes every seed
reproducible across platforms, Python versions, and reimplementations in
other languages.

References: Blackman & Vigna, "Scrambled linear pseudorandom number
generators" (xoshiro256**), and Steele, Lea & Flood's splitmix64 seeding
scheme.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, (z ^ (z >> 31)) & MASK64


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


class Rng:
    """xoshiro256** generator with splitmix64 seed expansion."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        state = seed & MASK64
        s = []
        for _ in range(4):
            state, out = _splitmix64(state)
            s.append(out)
        self._s = s

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling (no modulo bias)."""
        if n <= 0:
            raise ValueError("randrange requires n > 0")
        span = 1
        while span < n:
            span <<= 1
        # span is the smallest power of two >= n; reject draws >= n
        shift = 64 - span.bit_length() + 1
        while True:
            value = self.next_u64() >> shift
            if value < n:
                return value

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        """Uniform choice from a non-empty sequence."""
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
