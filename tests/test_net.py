"""Tests for the network substrate: regions, latency matrix, PlanetLab traces."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.latency import DelayModel, LatencyMatrix
from repro.net.planetlab import (
    _MASK64,
    _U2_SALT,
    PlanetLabTraceConfig,
    _mix64,
    _node_key,
    _pair_delay,
    generate_planetlab_matrix,
)
from repro.net.regions import RegionMap
from repro.sim.rng import SeededRandom


class TestRegionMap:
    def test_add_and_assign(self):
        regions = RegionMap()
        europe = regions.add_region("europe")
        regions.assign("node-1", europe)
        assert regions.region_of("node-1") == europe
        assert "node-1" in regions
        assert len(regions) == 1

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            RegionMap().region_of("missing")

    def test_assign_unknown_region_rejected(self):
        regions = RegionMap()
        other = RegionMap().add_region("elsewhere")
        with pytest.raises(ValueError, match=r"unknown region Region\(region_id=0, name='elsewhere'\)"):
            regions.assign("node-1", other)

    def test_len_counts_assignments(self):
        regions = RegionMap()
        region = regions.add_region("r")
        regions.assign("a", region)
        regions.assign("b", region)
        assert len(regions) == 2

    def test_reassignment_moves_node_between_region_indices(self):
        regions = RegionMap()
        east = regions.add_region("east")
        west = regions.add_region("west")
        regions.assign("a", east)
        regions.assign("a", west)
        assert regions.region_of("a") == west
        assert len(regions) == 1
        regions.assign("a", west)  # re-assign to the same region: no-op
        assert regions.region_of("a") == west
        assert "a" in regions and len(regions) == 1


class TestLatencyMatrix:
    def test_symmetric_lookup(self):
        matrix = LatencyMatrix()
        matrix.set_delay("a", "b", 0.02)
        assert matrix.delay("a", "b") == 0.02
        assert matrix.delay("b", "a") == 0.02

    def test_self_delay_is_zero(self):
        assert LatencyMatrix().delay("a", "a") == 0.0

    def test_default_delay_for_unknown_pair(self):
        matrix = LatencyMatrix(default_delay=0.07)
        assert matrix.delay("x", "y") == 0.07
        assert list(matrix.pairs()) == []

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            LatencyMatrix().set_delay("a", "b", -0.01)

    def test_nan_delay_rejected(self):
        # NaN failed no comparison of the validator, was stored, counted
        # as a pair, and never answered by ``delay()``.
        matrix = LatencyMatrix()
        with pytest.raises(ValueError, match="delay must be >= 0"):
            matrix.set_delay("a", "b", math.nan)
        assert matrix.explicit_pair_count() == 0
        assert matrix.delay("a", "b") == matrix.default_delay

    def test_self_pair_rejected(self):
        # ``delay(a, a)`` is 0.0 whatever is stored, so a stored self
        # pair was a value ``pairs()`` yielded and ``delay()`` never did.
        matrix = LatencyMatrix()
        with pytest.raises(ValueError, match="no delay to itself"):
            matrix.set_delay("a", "a", 0.3)
        assert list(matrix.pairs()) == []
        assert matrix.delay("a", "a") == 0.0

    def test_nodes_and_pairs(self):
        matrix = LatencyMatrix()
        matrix.set_delay("a", "b", 0.01)
        matrix.set_delay("a", "c", 0.03)
        assert set(matrix.nodes) == {"a", "b", "c"}
        assert list(matrix.pairs()) == [("a", "b", 0.01), ("a", "c", 0.03)]

    def test_mean_delay_running_aggregate_handles_overwrites(self):
        matrix = LatencyMatrix()
        matrix.set_delay("a", "b", 0.01)
        matrix.set_delay("a", "c", 0.03)
        matrix.set_delay("a", "b", 0.05)  # overwrite must not double-count
        assert matrix.explicit_pair_count() == 2
        delays = [delay for *_pair, delay in matrix.pairs()]
        assert sum(delays) / len(delays) == pytest.approx((0.05 + 0.03) / 2)

    def test_overwrite_updates_lookup(self):
        matrix = LatencyMatrix()
        matrix.set_delay("a", "b", 0.01)
        matrix.set_delay("b", "a", 0.09)
        assert matrix.delay("a", "b") == 0.09
        assert len(list(matrix.pairs())) == 1

    def test_pairs_yield_string_sorted_names(self):
        matrix = LatencyMatrix()
        matrix.set_delay("zeta", "alpha", 0.02)
        assert list(matrix.pairs()) == [("alpha", "zeta", 0.02)]

    def test_add_node_registers_without_pairs(self):
        matrix = LatencyMatrix()
        matrix.add_node("solo")
        assert matrix.nodes == {"solo": None}
        assert list(matrix.pairs()) == []

    def test_tuple_key_delays_shim_is_gone(self):
        # PR 3 left the seed's `{(a, b): delay}` dict behind a deprecated
        # `_delays` property; the migration is complete and the shim (and
        # its test-only escape hatch) must not resurface.
        matrix = LatencyMatrix()
        matrix.set_delay("a", "b", 0.02)
        assert not hasattr(matrix, "_delays")
        assert list(matrix.pairs()) == [("a", "b", 0.02)]

    def test_nodes_in_insertion_order(self):
        matrix = LatencyMatrix()
        matrix.set_delay("b", "a", 0.01)
        matrix.add_node("c")
        assert list(matrix.nodes) == ["b", "a", "c"]
        assert set(matrix.nodes.values()) == {None}  # explicit: no keys


class TestDelayModel:
    def test_rtt_is_twice_propagation(self):
        matrix = LatencyMatrix()
        matrix.set_delay("a", "b", 0.03)
        model = DelayModel(matrix)
        assert model.rtt("a", "b") == pytest.approx(0.06)

    def test_hop_delay_adds_processing(self):
        model = DelayModel(LatencyMatrix(default_delay=0.05), processing_delay=0.1)
        assert model.hop_delay("p", "c") == pytest.approx(0.15)

    def test_end_to_end_via_parent(self):
        model = DelayModel(LatencyMatrix(default_delay=0.05), processing_delay=0.1)
        assert model.end_to_end_via_parent(60.0, "p", "c") == pytest.approx(60.15)

    def test_cdn_end_to_end_is_delta(self):
        model = DelayModel(LatencyMatrix(), cdn_delta=60.0)
        assert model.cdn_end_to_end("anyone") == 60.0

    def test_negative_processing_rejected(self):
        with pytest.raises(ValueError):
            DelayModel(LatencyMatrix(), processing_delay=-0.1)


def _world(nodes, seed):
    """A generated matrix with every pair looked up once.

    Pair delays derive on first lookup, so ``pairs()`` covers the whole
    world only after each pair was asked for.
    """
    matrix = generate_planetlab_matrix(nodes, rng=SeededRandom(seed))
    for a, b in itertools.combinations(nodes, 2):
        matrix.delay(a, b)
    return matrix


class TestPlanetLabGenerator:
    def test_all_pairs_present(self):
        nodes = [f"n{i}" for i in range(10)]
        matrix = _world(nodes, 1)
        assert len(list(matrix.pairs())) == 45
        assert all(node in matrix.regions for node in nodes)

    def test_deterministic_for_seed(self):
        nodes = [f"n{i}" for i in range(8)]
        a = _world(nodes, 5)
        b = _world(nodes, 5)
        assert len(list(a.pairs())) == 28
        assert [round(d, 9) for *_pair, d in a.pairs()] == [
            round(d, 9) for *_pair, d in b.pairs()
        ]

    def test_intra_region_faster_than_inter_region_on_average(self):
        nodes = [f"n{i}" for i in range(60)]
        matrix = _world(nodes, 3)
        intra, inter = [], []
        for a, b, delay in matrix.pairs():
            if matrix.regions.region_of(a) == matrix.regions.region_of(b):
                intra.append(delay)
            else:
                inter.append(delay)
        assert intra and inter
        assert sum(intra) / len(intra) < sum(inter) / len(inter)

    def test_all_delays_positive(self):
        matrix = _world([f"n{i}" for i in range(20)], 4)
        assert len(list(matrix.pairs())) == 190
        assert all(delay > 0 for *_pair, delay in matrix.pairs())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlanetLabTraceConfig(intra_region_median=0.0)
        with pytest.raises(ValueError):
            PlanetLabTraceConfig(region_names=())


#: The 28 nodes of the lazy-vs-eager pin, and what the eager all-pairs
#: build (deleted with the ``lazy=`` parameter) produced for them at seed
#: 7: every node's region and 22 pair delays, captured from that matrix
#: at the parent commit.  The oracle is data, not a copy of the loop.
PINNED_NODES = [f"n{i}" for i in range(25)] + ["GSC", "LSC-0", "CDN"]
EAGER_REGIONS_SEED7 = {
    "n0": "south-america",
    "n1": "us-west",
    "n2": "europe",
    "n3": "us-east",
    "n4": "europe",
    "n5": "us-west",
    "n6": "europe",
    "n7": "asia",
    "n8": "us-west",
    "n9": "south-america",
    "n10": "us-east",
    "n11": "europe",
    "n12": "us-east",
    "n13": "europe",
    "n14": "europe",
    "n15": "us-west",
    "n16": "south-america",
    "n17": "south-america",
    "n18": "europe",
    "n19": "europe",
    "n20": "us-west",
    "n21": "us-east",
    "n22": "us-east",
    "n23": "south-america",
    "n24": "asia",
    "GSC": "asia",
    "LSC-0": "us-west",
    "CDN": "us-west",
}
EAGER_DELAYS_SEED7 = [
    ("n0", "n1", 0.07771113323024957),
    ("n1", "n0", 0.07771113323024957),
    ("n0", "n24", 0.07782828478998696),
    ("n3", "n17", 0.1152701138500117),
    ("n10", "n2", 0.07452763220417519),
    ("n5", "n5", 0.0),
    ("GSC", "n0", 0.09804616444975392),
    ("n7", "GSC", 0.013227320776562183),
    ("LSC-0", "n12", 0.06745665707416683),
    ("n24", "LSC-0", 0.06726459496362394),
    ("CDN", "n0", 0.07492492864337895),
    ("n9", "CDN", 0.08786167550787913),
    ("GSC", "LSC-0", 0.05745610633382826),
    ("CDN", "GSC", 0.11842153729124662),
    ("LSC-0", "CDN", 0.01830595490414443),
    ("n11", "n19", 0.016377050408414622),
    ("n20", "n21", 0.07970507019602766),
    ("n6", "n23", 0.03753183131552091),
    ("n13", "n14", 0.009971626116316334),
    ("n22", "n4", 0.06547078853522233),
    ("n8", "n15", 0.014027464251066738),
    ("n16", "n18", 0.06612608194112517),
]


class TestLazyPlanetLabMatrix:
    def test_every_pair_is_the_pure_function_of_its_keys(self):
        config = PlanetLabTraceConfig()
        matrix = generate_planetlab_matrix(PINNED_NODES, rng=SeededRandom(7))
        keys = {node: _node_key(7, node) for node in PINNED_NODES}
        assert matrix.nodes == keys
        region_of = matrix.regions.region_of
        for a in PINNED_NODES:
            assert matrix.delay(a, a) == 0.0
            for b in PINNED_NODES:
                if a == b:
                    continue
                low, high = sorted((a, b))
                median = (
                    config.intra_region_median
                    if region_of(a) == region_of(b)
                    else config.inter_region_median
                )
                assert matrix.delay(a, b) == _pair_delay(
                    keys[low], keys[high], math.log(median), config.sigma
                )

    @given(
        keys=st.tuples(st.integers(0, _MASK64), st.integers(0, _MASK64)),
        log_median=st.sampled_from([math.log(0.012), math.log(0.065)]),
        sigma=st.sampled_from([0.0, 0.45, 1.3]),
    )
    @example(keys=(0, 0), log_median=math.log(0.065), sigma=0.45)
    @example(keys=(_MASK64, _MASK64), log_median=math.log(0.012), sigma=0.45)
    @settings(max_examples=300, deadline=None)
    def test_the_written_out_derivation_is_box_muller_over_mix64(
        self, keys, log_median, sigma
    ):
        # ``_pair_delay`` writes the integer steps of ``_mix64`` out; this
        # is the composition they replaced, which stays the specification.
        low, high = keys
        base = _mix64(low ^ ((high * 0x9E3779B97F4A7C15) & _MASK64))
        u1 = (_mix64(base) + 1) / 2.0**64
        u2 = (_mix64(base ^ _U2_SALT) + 1) / 2.0**64
        gauss = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        assert _pair_delay(low, high, log_median, sigma) == math.exp(log_median + sigma * gauss)

    def test_delays_and_regions_match_the_captured_eager_matrix(self):
        matrix = generate_planetlab_matrix(PINNED_NODES, rng=SeededRandom(7))
        assert {
            node: matrix.regions.region_of(node).name for node in PINNED_NODES
        } == EAGER_REGIONS_SEED7
        assert len(EAGER_DELAYS_SEED7) >= 16
        for a, b, delay in EAGER_DELAYS_SEED7:
            assert matrix.delay(a, b) == delay

    def test_default_build_materializes_no_pair_at_any_size(self):
        small = generate_planetlab_matrix(["a", "b", "c"], rng=SeededRandom(1))
        assert small.explicit_pair_count() == 0
        nodes = [f"n{i:05d}" for i in range(10_000)]
        large = generate_planetlab_matrix(nodes, rng=SeededRandom(2))
        assert large.explicit_pair_count() == 0

    def test_lazy_materializes_only_queried_pairs(self):
        nodes = [f"n{i}" for i in range(10)]
        lazy = generate_planetlab_matrix(nodes, rng=SeededRandom(2))
        assert lazy.explicit_pair_count() == 0
        lazy.delay("n0", "n1")
        lazy.delay("n0", "n1")  # memoized: still a single stored pair
        assert lazy.delay("n1", "n0") == lazy.delay("n0", "n1")  # one key per pair
        assert lazy.explicit_pair_count() == 1
        delay = lazy.delay("n0", "n1")
        assert list(lazy.pairs()) == [("n0", "n1", delay)]

    def test_lazy_memoization_stays_sparse(self):
        # One lookup between late-interned nodes must not materialize the
        # dense triangle (the O(n^2) storage lazy mode exists to avoid).
        nodes = [f"n{i:04d}" for i in range(3000)]
        lazy = generate_planetlab_matrix(nodes, rng=SeededRandom(2))
        lazy.delay(nodes[0], nodes[-1])
        assert lazy.explicit_pair_count() == 1

    def test_lazy_unknown_nodes_fall_back_to_default(self):
        lazy = generate_planetlab_matrix(["a", "b"], rng=SeededRandom(1))
        assert lazy.delay("a", "ghost") == lazy.default_delay
        assert lazy.explicit_pair_count() == 0

    def test_explicit_set_delay_retires_memoized_value(self):
        lazy = generate_planetlab_matrix(["a", "b"], rng=SeededRandom(1))
        lazy.delay("a", "b")  # memoize the derived value
        lazy.set_delay("b", "a", 0.5)
        assert lazy.delay("a", "b") == lazy.delay("b", "a") == 0.5
        assert lazy.explicit_pair_count() == 1
        assert list(lazy.pairs()) == [("a", "b", 0.5)]


class TestLazyMissPath:
    """``LatencyMatrix.delay`` of a generated world: one probe of the
    stored pairs, and on a miss derive and store.  An explicit
    ``set_delay`` wins in every order of events."""

    NODES = ["a", "b", "c", "d"]

    def _world(self):
        return generate_planetlab_matrix(self.NODES, rng=SeededRandom(5))

    def _derived(self, a, b):
        """The pair's pure draw, read off a world nothing else touched."""
        return self._world().delay(a, b)

    def test_derive_then_override(self):
        lazy = self._world()
        assert lazy.delay("a", "b") == self._derived("a", "b")
        lazy.set_delay("b", "a", 0.25)
        assert lazy.delay("a", "b") == lazy.delay("b", "a") == 0.25
        assert lazy._known == {("a", "b"): 0.25}  # replaced, not shadowed
        assert list(lazy.pairs()) == [("a", "b", 0.25)]

    def test_override_then_read(self):
        lazy = self._world()
        lazy.set_delay("b", "a", 0.25)
        assert lazy.delay("a", "b") == lazy.delay("b", "a") == 0.25
        assert lazy._known == {("a", "b"): 0.25}  # never derived
        assert list(lazy.pairs()) == [("a", "b", 0.25)]
        # The override does not clear the keys: other pairs still derive.
        assert lazy.nodes["a"] is not None and lazy.nodes["b"] is not None

    def test_deriving_other_pairs_while_one_is_overridden(self):
        lazy = self._world()
        lazy.set_delay("c", "d", 0.25)
        # Pairs sharing no node, one node, and both nodes of the override.
        expected = {
            pair: self._derived(*pair) for pair in [("a", "b"), ("a", "d"), ("a", "c")]
        }
        for (low, high), value in expected.items():
            assert lazy.delay(high, low) == value  # miss: derived
            assert lazy.delay(low, high) == value  # hit: the memo
        assert lazy.delay("c", "d") == lazy.delay("d", "c") == 0.25
        assert lazy._known == {("c", "d"): 0.25, **expected}
        # Storage order: the override first, then the derivations.
        assert list(lazy.pairs()) == [("c", "d", 0.25)] + [
            (a, b, v) for (a, b), v in expected.items()
        ]
        assert ("b", "c") not in lazy._known  # never read: not materialized

    @pytest.mark.parametrize("with_override", [False, True])
    def test_unknown_node_gets_the_default_and_is_not_memoized(self, with_override):
        lazy = self._world()
        if with_override:
            lazy.set_delay("c", "d", 0.25)
        stored = lazy.explicit_pair_count()
        assert lazy.delay("a", "ghost") == lazy.delay("ghost", "a") == lazy.default_delay
        assert lazy.delay("ghost", "spectre") == lazy.default_delay
        assert lazy.explicit_pair_count() == stored
        assert "ghost" not in lazy.nodes

    @pytest.mark.parametrize("with_override", [False, True])
    def test_self_delay_is_zero_without_a_memo_entry(self, with_override):
        lazy = self._world()
        if with_override:
            lazy.set_delay("a", "b", 0.25)
        assert lazy.delay("a", "a") == 0.0
        assert lazy.delay("ghost", "ghost") == 0.0
        assert lazy.explicit_pair_count() == (1 if with_override else 0)
