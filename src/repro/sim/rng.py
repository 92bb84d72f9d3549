"""Seeded randomness helpers.

Every stochastic component of the reproduction (latency matrices, workload
generators, the Random-routing baseline) draws from a
:class:`SeededRandom`, so a single experiment seed makes the entire run
repeatable.  The class also offers the handful of distributions the paper's
setup needs (uniform bandwidth ranges, Poisson arrivals, Zipf view
popularity).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")


class SeededRandom:
    """A thin wrapper over :class:`random.Random` with domain-specific draws."""

    def __init__(self, seed: Optional[int] = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> Optional[int]:
        """The seed this generator was created with."""
        return self._seed

    def fork(self, salt: int) -> "SeededRandom":
        """Create an independent child generator derived from this seed.

        Forking lets subsystems (workload vs. latency vs. baseline) consume
        randomness without perturbing each other's sequences.
        """
        base = 0 if self._seed is None else self._seed
        return SeededRandom(hash((base, salt)) & 0x7FFFFFFF)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    @property
    def draw(self) -> Callable[[], float]:
        """:meth:`random` as the generator's bound method: one C call a draw."""
        return self._random.random

    def skip(self, count: int) -> None:
        """Advance past the next ``count`` draws of :meth:`random` unmade.

        A draw takes two 32-bit words of the Mersenne Twister state and
        ``getrandbits(k)`` takes ``ceil(k / 32)``, so ``getrandbits(64 *
        n)`` leaves the state where ``n`` draws would; 1024 draws a call
        keep each integer it builds at 8 KiB.
        """
        for start in range(0, count, 1024):
            self._random.getrandbits(64 * min(1024, count - start))

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """Choose ``k`` distinct elements."""
        return self._random.sample(items, k)

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def exponential(self, mean: float) -> float:
        """Exponentially distributed value with the given mean (> 0)."""
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        return self._random.expovariate(1.0 / mean)

    def poisson_interarrival(self, rate_per_second: float) -> float:
        """Interarrival time of a Poisson process with the given rate."""
        if rate_per_second <= 0:
            raise ValueError(f"rate must be > 0, got {rate_per_second}")
        return self._random.expovariate(rate_per_second)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normally distributed value."""
        return self._random.gauss(mu, sigma)

    def zipf_index(self, n: int, alpha: float = 1.0) -> int:
        """Draw an index in ``[0, n)`` with Zipf(alpha) popularity.

        Index 0 is the most popular item.  Used to model view popularity:
        most viewers request a few popular views, with a long tail.
        """
        if n <= 0:
            raise ValueError(f"n must be > 0, got {n}")
        weights = [1.0 / (i + 1) ** alpha for i in range(n)]
        total = sum(weights)
        target = self._random.random() * total
        cumulative = 0.0
        for index, weight in enumerate(weights):
            cumulative += weight
            if target <= cumulative:
                return index
        return n - 1
