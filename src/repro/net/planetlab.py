"""Synthetic PlanetLab-like latency traces.

The paper draws viewer-to-viewer delays from the Harvard "syrah" 4-hour
PlanetLab ping dataset, which is no longer distributable.  This module
generates an all-pairs one-way delay matrix with the same structure
observed in published PlanetLab measurements:

* nodes cluster into a handful of geographic regions,
* intra-region one-way delays are small (median ~10 ms),
* inter-region delays are large (median ~60 ms, heavy upper tail),
* individual pairs deviate log-normally around the regional medians.

Only the *shape* matters for 4D TeleCast: the overlay and layering logic
consume pairwise one-way delays and region labels, nothing else.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence

from repro.util.validation import require_positive

if TYPE_CHECKING:
    from repro.net.latency import LatencyMatrix
    from repro.sim.rng import SeededRandom

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
    region_names:
        Names of the geographic clusters nodes are spread across.
    """

    intra_region_median: float = 0.012
    inter_region_median: float = 0.065
    sigma: float = 0.45
    region_names: Sequence[str] = DEFAULT_REGION_NAMES

    def __post_init__(self) -> None:
        require_positive(self.intra_region_median, "intra_region_median")
        require_positive(self.inter_region_median, "inter_region_median")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not self.region_names:
            raise ValueError("at least one region name is required")


_MASK64 = (1 << 64) - 1
#: A node key: the first eight bytes of its digest, big-endian.
_KEY = struct.Struct(">Q")
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
    return _KEY.unpack_from(hashlib.sha256(f"{seed}|node|{node_id}".encode()).digest())[0]


def node_keys(seed: int, id_format: str, count: int) -> List[int]:
    """:func:`_node_key` of the nodes ``id_format % index``, ``index < count``.

    The scenario build derives every viewer's key here exactly once and
    reuses the batch twice: :func:`region_indices` turns it into the
    ownership table, and :func:`generate_planetlab_matrix` takes the
    owned slice as ``known_keys`` instead of hashing those ids again.
    No id string is made: a key is one format, one SHA-256 and one unpack.
    """
    sha256 = hashlib.sha256
    unpack = _KEY.unpack_from
    template = b"%d|node|" % seed + id_format.encode()
    return [unpack(sha256(template % index).digest())[0] for index in range(count)]


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


def generate_planetlab_matrix(
    node_ids: Sequence[str],
    *,
    rng: Optional[SeededRandom] = None,
    config: Optional[PlanetLabTraceConfig] = None,
    known_keys: Optional[Mapping[str, int]] = None,
    known_regions: Optional[Mapping[str, int]] = None,
) -> LatencyMatrix:
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

    Only the node keys and the region assignment are materialized up
    front; each pair's delay is derived (and stored) on first lookup, so
    construction is O(n) and :meth:`~LatencyMatrix.pairs` reflects the
    pairs looked up so far.

    ``known_keys`` hands over node keys the caller already derived
    (:func:`node_keys`) and ``known_regions`` the region indices it
    derived from them (:func:`region_indices`); only the remaining ids
    are hashed and mixed here.
    """
    if config is None:
        config = PlanetLabTraceConfig()
    seed = 0 if rng is None or rng.seed is None else rng.seed

    # Imported here: the matrix derives its misses with this module's
    # ``_pair_delay``, so ``repro.net.latency`` imports this module (and
    # this module imports nothing of ``repro`` but the validators).
    from repro.net.latency import LatencyMatrix

    known = known_keys or {}
    keys = {
        node_id: known[node_id] if node_id in known else _node_key(seed, node_id)
        for node_id in node_ids
    }
    matrix = LatencyMatrix(
        default_delay=config.inter_region_median, keys=keys, config=config
    )
    regions = matrix.regions
    region_objs = [regions.add_region(name) for name in config.region_names]
    region_index_of = (known_regions or {}).get
    for node_id, key in keys.items():
        region_index = region_index_of(node_id)
        if region_index is None:
            region_index = _mix64(key) % len(region_objs)
        regions.assign(node_id, region_objs[region_index])
    return matrix
