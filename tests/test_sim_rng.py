"""Tests for the seeded randomness helpers."""

import pytest

from repro.sim.rng import SeededRandom


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = SeededRandom(42)
        b = SeededRandom(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = SeededRandom(1)
        b = SeededRandom(2)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_fork_is_deterministic(self):
        a = SeededRandom(7).fork(3)
        b = SeededRandom(7).fork(3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_fork_independent_of_parent_consumption(self):
        parent_a = SeededRandom(7)
        parent_b = SeededRandom(7)
        parent_b.random()  # consuming the parent must not change the fork
        assert parent_a.fork(1).random() == parent_b.fork(1).random()

    def test_seed_property(self):
        assert SeededRandom(9).seed == 9


class TestDistributions:
    def test_uniform_within_bounds(self):
        rng = SeededRandom(0)
        for _ in range(100):
            value = rng.uniform(2.0, 10.0)
            assert 2.0 <= value <= 10.0

    def test_randint_within_bounds(self):
        rng = SeededRandom(0)
        assert all(0 <= rng.randint(0, 5) <= 5 for _ in range(100))

    def test_choice_and_sample(self):
        rng = SeededRandom(0)
        items = ["a", "b", "c", "d"]
        sample = rng.sample(items, 2)
        assert len(sample) == 2
        assert len(set(sample)) == 2

    def test_shuffle_preserves_elements(self):
        rng = SeededRandom(0)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_exponential_mean(self):
        rng = SeededRandom(3)
        samples = [rng.exponential(2.0) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.1)

    def test_exponential_rejects_non_positive_mean(self):
        with pytest.raises(ValueError):
            SeededRandom(0).exponential(0.0)

    def test_poisson_interarrival_positive(self):
        rng = SeededRandom(1)
        assert all(rng.poisson_interarrival(5.0) > 0 for _ in range(100))

    def test_poisson_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SeededRandom(0).poisson_interarrival(-1.0)

    def test_zipf_index_range(self):
        rng = SeededRandom(2)
        assert all(0 <= rng.zipf_index(8, 1.0) < 8 for _ in range(200))

    def test_zipf_prefers_low_indexes(self):
        rng = SeededRandom(2)
        draws = [rng.zipf_index(8, 1.2) for _ in range(3000)]
        assert draws.count(0) > draws.count(7)

    def test_zipf_rejects_empty(self):
        with pytest.raises(ValueError):
            SeededRandom(0).zipf_index(0)
