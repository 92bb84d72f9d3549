"""Synthetic PlanetLab-like latency traces.

The paper draws viewer-to-viewer delays from the Harvard "syrah" 4-hour
PlanetLab ping dataset, which is no longer distributable.  This module
generates an all-pairs one-way delay matrix with the same structure
observed in published PlanetLab measurements:

* nodes cluster into a handful of geographic regions,
* intra-region one-way delays are small (median ~10 ms),
* inter-region delays are large (median ~60 ms, heavy upper tail),
* individual pairs deviate log-normally around the regional medians,
* an optional jitter term models the temporal variation captured by a
  multi-hour trace.

Only the *shape* matters for 4D TeleCast: the overlay and layering logic
consume pairwise one-way delays and region labels, nothing else.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.net.latency import LatencyMatrix
from repro.net.regions import RegionMap
from repro.sim.rng import SeededRandom
from repro.util.validation import require_positive

#: Default region names; roughly the continents PlanetLab nodes span.
DEFAULT_REGION_NAMES: Sequence[str] = (
    "us-east",
    "us-west",
    "europe",
    "asia",
    "south-america",
)


@dataclass
class PlanetLabTraceConfig:
    """Parameters of the synthetic PlanetLab trace generator.

    Attributes
    ----------
    intra_region_median:
        Median one-way delay between nodes in the same region (seconds).
    inter_region_median:
        Median one-way delay between nodes in different regions (seconds).
    sigma:
        Log-normal shape parameter for pairwise deviation.
    jitter_fraction:
        Maximum relative jitter applied when sampling time-varying delays.
    region_names:
        Names of the geographic clusters nodes are spread across.
    """

    intra_region_median: float = 0.012
    inter_region_median: float = 0.065
    sigma: float = 0.45
    jitter_fraction: float = 0.15
    region_names: Sequence[str] = DEFAULT_REGION_NAMES

    def __post_init__(self) -> None:
        require_positive(self.intra_region_median, "intra_region_median")
        require_positive(self.inter_region_median, "inter_region_median")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not (0.0 <= self.jitter_fraction < 1.0):
            raise ValueError("jitter_fraction must be in [0, 1)")
        if not self.region_names:
            raise ValueError("at least one region name is required")


@functools.cache
def _numpy():
    """numpy, imported on first use; ``None`` where it is not installed.

    Only the vectorized candidate prefilter needs it, and that runs only
    after a head candidate was rejected for ``d_max``: a process that
    never gets there never pays the import (~100 ms, ~13 MiB).
    """
    try:
        import numpy
    except ImportError:
        return None
    return numpy


_MASK64 = (1 << 64) - 1
#: Distinct stream constants for the two Box-Muller uniforms.
_U2_SALT = 0xD6E8FEB86659FD93


def _mix64(value: int) -> int:
    """splitmix64 finalizer: a fast, well-distributed 64-bit mixer."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _node_key(seed: int, node_id: str) -> int:
    """Stable 64-bit key of one node under one seed.

    Unlike a shared sequential RNG stream, deriving draws from per-node
    keys makes every delay independent of which *other* nodes are in the
    matrix, so adding control nodes (or another LSC) never perturbs the
    delays of existing pairs.
    """
    digest = hashlib.sha256(f"{seed}|node|{node_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def node_keys(seed: int, node_ids: Iterable[str]) -> List[int]:
    """:func:`_node_key` of many nodes at once, in ``node_ids`` order.

    The scenario build derives every viewer's key here exactly once and
    reuses the batch twice: :func:`region_indices` turns it into the
    ownership table, and :func:`generate_planetlab_matrix` takes the
    owned slice as ``known_keys`` instead of hashing those ids again.
    """
    sha256 = hashlib.sha256
    prefix = f"{seed}|node|".encode("utf-8")
    from_bytes = int.from_bytes
    return [
        from_bytes(sha256(prefix + node_id.encode("utf-8")).digest()[:8], "big")
        for node_id in node_ids
    ]


def region_indices(keys: Sequence[int], num_regions: int) -> List[int]:
    """Region index of every node key, without building a matrix.

    This is exactly the assignment :func:`generate_planetlab_matrix`
    makes (``_mix64(node_key) % num_regions``): a pure function of the
    seed and the node id, so viewer ownership can be decided before any
    latency world exists.  The build hands the result back to
    :func:`generate_planetlab_matrix` as ``known_regions``, so every key
    is mixed once.
    """
    if num_regions <= 0:
        raise ValueError("num_regions must be > 0")
    return [_mix64(key) % num_regions for key in keys]


def _pair_delay(
    key_low: int, key_high: int, log_median: float, sigma: float
) -> float:
    """Log-normal pair delay from the two node keys (name-sorted order).

    A Box-Muller standard-normal draw from three splitmix64 mixes, run by
    every lazy miss, so the integer steps of :func:`_mix64` are written
    out: ``base = _mix64(key_low ^ ((key_high * 0x9E3779B97F4A7C15) &
    _MASK64))``, ``u1 = (_mix64(base) + 1) / 2**64``, ``u2 =
    (_mix64(base ^ _U2_SALT) + 1) / 2**64``.
    """
    mask = _MASK64
    value = ((key_low ^ ((key_high * 0x9E3779B97F4A7C15) & mask)) + 0x9E3779B97F4A7C15) & mask
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & mask
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & mask
    base = value ^ (value >> 31)
    value = (base + 0x9E3779B97F4A7C15) & mask
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & mask
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & mask
    u1 = ((value ^ (value >> 31)) + 1) / 2.0**64
    value = ((base ^ _U2_SALT) + 0x9E3779B97F4A7C15) & mask
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & mask
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & mask
    u2 = ((value ^ (value >> 31)) + 1) / 2.0**64
    gauss = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return math.exp(log_median + sigma * gauss)


def _mix64_np(value):
    """Vectorized splitmix64 finalizer over a uint64 array.

    uint64 arithmetic wraps mod 2**64, so the integer mixing is exact
    (bit-identical to :func:`_mix64`); only the float transcendentals in
    the Box-Muller step downstream can differ from ``math.*`` by ulps.
    """
    np = _numpy()
    value = value + np.uint64(0x9E3779B97F4A7C15)
    value = (value ^ (value >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    value = (value ^ (value >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return value ^ (value >> np.uint64(31))


def _pair_delays_np(key_low, key_high, log_median, sigma: float):
    """Vectorized :func:`_pair_delay` over uint64 key arrays.

    ``log_median`` is a per-pair float64 array (intra vs inter region).
    Approximate only in the last-ulp sense: ``np.log``/``np.cos`` etc.
    may round differently from ``math.*``, so callers that need exact
    values must re-verify candidates through the scalar path.
    """
    np = _numpy()
    base = _mix64_np(key_low ^ (key_high * np.uint64(0x9E3779B97F4A7C15)))
    u1 = (_mix64_np(base).astype(np.float64) + 1.0) / 2.0**64
    u2 = (_mix64_np(base ^ np.uint64(_U2_SALT)).astype(np.float64) + 1.0) / 2.0**64
    gauss = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return np.exp(log_median + sigma * gauss)


class LazyPlanetLabMatrix(LatencyMatrix):
    """A PlanetLab matrix that derives pair delays on first access.

    Materializing all ``n*(n-1)/2`` pairs up front is minutes of work and
    hundreds of MB at 10k nodes.  Because every delay is a pure function
    of the per-node digests, it is computed when a pair is first asked
    for; overlay construction only ever touches the O(viewers x streams)
    pairs that actually become tree edges or control hops.  Computed
    delays are memoized in a sparse per-pair map (a dense triangular row
    would have to be materialized up to the higher interned id,
    re-introducing the O(n^2) storage this class exists to avoid), so
    repeated lookups are one dict probe and :meth:`pairs` /
    :meth:`mean_delay` / :meth:`has_pair` reflect the materialized subset
    plus any explicit :meth:`set_delay` override.
    """

    def __init__(self, keys: Dict[str, int], config: PlanetLabTraceConfig) -> None:
        super().__init__(default_delay=config.inter_region_median)
        self._keys = keys
        self._log_intra = math.log(config.intra_region_median)
        self._log_inter = math.log(config.inter_region_median)
        self._sigma = config.sigma
        #: Derived pair delays keyed by the name pair in sorted order.
        #: Never holds a pair with an explicit ``set_delay`` override, so
        #: a hit needs no second look at the triangular rows.
        self._memo: Dict[Tuple[str, str], float] = {}

    def delay(self, a: str, b: str) -> float:
        """One-way delay of the pair: one memo probe once it was derived.

        A miss consults the triangular rows only when an explicit
        :meth:`set_delay` override exists at all (``_rows`` is filled by
        nothing else), then derives and memoizes.
        """
        value = self._memo.get((a, b) if a <= b else (b, a))
        if value is not None:
            return value
        if a == b:
            return 0.0
        if self._rows:
            value = super()._lookup(a, b)
            if value == value:
                return value
        return self._missing_delay(a, b)

    def _lookup(self, a: str, b: str) -> float:
        value = super()._lookup(a, b)  # explicit set_delay overrides win
        if value == value:
            return value
        return self._memo.get((a, b) if a <= b else (b, a), math.nan)

    def set_delay(self, a: str, b: str, delay: float) -> None:
        """Set an explicit delay, retiring any lazily memoized value.

        Without the eviction the memoized draw would keep answering
        :meth:`delay`, be double-counted in the running mean and be
        yielded twice by :meth:`pairs` with conflicting values.
        """
        previous = self._memo.pop((a, b) if a <= b else (b, a), None)
        if previous is not None:
            self._explicit_sum -= previous
            self._explicit_count -= 1
        super().set_delay(a, b, delay)

    def _missing_delay(self, a: str, b: str) -> float:
        keys = self._keys
        key_a = keys.get(a)
        key_b = keys.get(b)
        if key_a is None or key_b is None:
            # Nodes outside the generated world keep the flat default,
            # exactly like unknown pairs of an explicit LatencyMatrix.
            return self.default_delay
        # The regions of one map have distinct ids, so comparing ids is
        # ``Region.__eq__`` without the generated method call.
        region_of = self.regions.region_of
        region_a = region_of(a)
        region_b = region_of(b)
        same_region = region_a is region_b or region_a.region_id == region_b.region_id
        log_median = self._log_intra if same_region else self._log_inter
        if a > b:  # pair draws are symmetric in sorted-name order
            a, b = b, a
            key_a, key_b = key_b, key_a
        delay = _pair_delay(key_a, key_b, log_median, self._sigma)
        self._memo[(a, b)] = delay
        # One newly stored pair in the running mean (``_record_explicit``).
        self._explicit_sum += delay
        self._explicit_count += 1
        return delay

    def approx_delays_to(
        self, sources: Sequence[str], target: str
    ) -> Optional[List[float]]:
        """Approximate delays from every source to ``target``, batched.

        Pairs with an exact stored value (explicit override or memoized
        lazy draw) return that value; the rest get one vectorized
        evaluation of the same per-pair log-normal draw, which may
        differ from the exact scalar path by float ulps.  Nothing is
        memoized, so a caller prefiltering candidates must re-verify the
        survivors through :meth:`delay` -- that keeps accept/reject
        decisions (and the memo) bit-identical to the scalar-only path.

        Returns ``None`` when numpy is unavailable or ``target`` has no
        generator key; callers fall back to the scalar path.
        """
        np = _numpy()
        if np is None:
            return None
        key_target = self._keys.get(target)
        if key_target is None:
            return None
        region_of = self.regions.region_of
        region_target = region_of(target)
        out: List[float] = [0.0] * len(sources)
        miss_indices: List[int] = []
        miss_low: List[int] = []
        miss_high: List[int] = []
        miss_intra: List[bool] = []
        for index, source in enumerate(sources):
            if source == target:
                continue  # out[index] already 0.0, matching delay(a, a)
            exact = self._lookup(source, target)
            if exact == exact:
                out[index] = exact
                continue
            key_source = self._keys.get(source)
            if key_source is None:
                out[index] = self.default_delay
                continue
            if source > target:  # pair draws are symmetric in name order
                low, high = key_target, key_source
            else:
                low, high = key_source, key_target
            miss_indices.append(index)
            miss_low.append(low)
            miss_high.append(high)
            miss_intra.append(region_of(source) == region_target)
        if miss_indices:
            log_median = np.where(
                np.asarray(miss_intra), self._log_intra, self._log_inter
            )
            with np.errstate(over="ignore"):
                delays = _pair_delays_np(
                    np.asarray(miss_low, dtype=np.uint64),
                    np.asarray(miss_high, dtype=np.uint64),
                    log_median,
                    self._sigma,
                )
            for position, index in enumerate(miss_indices):
                out[index] = float(delays[position])
        return out

    def pairs(self) -> Iterable[Tuple[str, str, float]]:
        yield from super().pairs()
        for (a, b), value in self._memo.items():
            yield a, b, value


def generate_planetlab_matrix(
    node_ids: Sequence[str],
    *,
    rng: Optional[SeededRandom] = None,
    config: Optional[PlanetLabTraceConfig] = None,
    known_keys: Optional[Mapping[str, int]] = None,
    known_regions: Optional[Mapping[str, int]] = None,
) -> LazyPlanetLabMatrix:
    """Generate a synthetic one-way delay matrix for ``node_ids``.

    Nodes are assigned to regions and every pair receives a log-normal
    delay around the intra- or inter-region median.  Both draws derive
    from a stable per-node / per-pair digest of the seed, so the result
    is deterministic for a given ``rng`` seed *and* independent of the
    node-set composition: the delay (and region) of any node or pair is
    the same whether the matrix holds 10 viewers or 1000 viewers plus a
    control plane.  Experiments rely on this to compare scenarios that
    differ only in their control-plane layout (e.g. the ``shards``
    sweep) over an identical network world.

    Only the region assignment is materialized up front; each pair's
    delay is derived (and memoized) on first lookup, so construction is
    O(n) and :meth:`~LatencyMatrix.pairs` / ``mean_delay`` / ``has_pair``
    reflect the pairs looked up so far (:class:`LazyPlanetLabMatrix`).

    ``known_keys`` hands over node keys the caller already derived
    (:func:`node_keys`) and ``known_regions`` the region indices it
    derived from them (:func:`region_indices`); only the remaining ids
    are hashed and mixed here.
    """
    if config is None:
        config = PlanetLabTraceConfig()
    if rng is None:
        rng = SeededRandom(0)
    seed = rng.seed if rng.seed is not None else 0

    known = known_keys or {}
    keys = {
        node_id: known[node_id] if node_id in known else _node_key(seed, node_id)
        for node_id in node_ids
    }
    matrix = LazyPlanetLabMatrix(keys, config)
    regions = RegionMap()
    region_objs = [regions.add_region(name) for name in config.region_names]
    region_index_of = (known_regions or {}).get
    for node_id in node_ids:
        matrix.add_node(node_id)
        region_index = region_index_of(node_id)
        if region_index is None:
            region_index = _mix64(keys[node_id]) % len(region_objs)
        regions.assign(node_id, region_objs[region_index])
    matrix.regions = regions
    return matrix


def sample_jittered_delay(
    matrix: LatencyMatrix,
    a: str,
    b: str,
    rng: SeededRandom,
    *,
    jitter_fraction: float = 0.15,
) -> float:
    """Sample a time-varying delay for the pair ``(a, b)``.

    This models the temporal dimension of the 4-hour trace: the base delay
    of the pair is perturbed by a bounded, symmetric relative jitter.
    """
    if not (0.0 <= jitter_fraction < 1.0):
        raise ValueError("jitter_fraction must be in [0, 1)")
    base = matrix.delay(a, b)
    if base == 0.0:
        return 0.0
    factor = 1.0 + rng.uniform(-jitter_fraction, jitter_fraction)
    return base * factor
