"""Shared domain types: packet indicator vectors, scenario configuration, seeded streams."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

UavId = int
ClusterId = int
PacketId = int

Rng = np.random.Generator


def packet_label(packet: PacketId) -> str:
    """Display label for a packet id: internal ids are 0-based, labels 1-based (w1, w2, ...)."""
    return f"w{packet + 1}"


class Scheme(Enum):
    """Which exchange variant a scenario runs."""

    PROPOSED = "proposed"                # clustering + priority backoff
    MECHANISM_ONLY = "mechanism_only"    # priority backoff, single cluster
    BASELINE_CSMA = "baseline_csma"      # plain uniform backoff, single cluster

    @property
    def uses_priority_backoff(self) -> bool:
        return self is not Scheme.BASELINE_CSMA

    @property
    def uses_clustering(self) -> bool:
        return self is Scheme.PROPOSED


def packet_mask(packets: Iterable[PacketId]) -> int:
    """Bitmask with bit m set for each packet id m."""
    mask = 0
    for p in packets:
        mask |= 1 << p
    return mask


def mask_packets(mask: int) -> tuple[PacketId, ...]:
    """Packet ids of the set bits of a mask, in ascending order."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return tuple(ids)


@dataclass(frozen=True, init=False)
class IndicatorVector:
    """Fixed-length binary vector; position m holds 1 iff packet m is possessed.

    Stored as one Python int, bit m for position m, plus the length, so the
    set algebra of holdings is integer bit arithmetic of any width. Immutable
    value type: the length is the scenario's packet count and never changes;
    combining vectors produces new instances.
    """

    mask: int
    length: int

    def __init__(self, bits: Iterable[int]) -> None:
        bits = tuple(bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("indicator bits must be exactly 0 or 1")
        self._fill(packet_mask(m for m, b in enumerate(bits) if b), len(bits))

    @classmethod
    def from_mask(cls, mask: int, length: int) -> IndicatorVector:
        """Vector of ``length`` positions whose set bits are those of ``mask``."""
        vector = object.__new__(cls)
        vector._fill(mask, length)
        return vector

    def _fill(self, mask: int, length: int) -> None:
        if length < 1:
            raise ValueError("indicator vector must have at least one position")
        if not 0 <= mask < 1 << length:
            raise ValueError(f"mask {mask} does not fit {length} positions")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "length", length)

    @classmethod
    def zeros(cls, length: int) -> IndicatorVector:
        return cls.from_mask(0, length)

    @classmethod
    def ones(cls, length: int) -> IndicatorVector:
        return cls.from_mask((1 << length) - 1, length)

    @classmethod
    def from_packets(cls, packets: Iterable[PacketId], length: int) -> IndicatorVector:
        """Vector with 1s at the given packet ids and 0s elsewhere."""
        held = set(packets)
        bad = [p for p in held if not 0 <= p < length]
        if bad:
            raise ValueError(f"packet ids out of range [0, {length}): {sorted(bad)}")
        return cls.from_mask(packet_mask(held), length)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.mask >> m) & 1 for m in range(self.length))

    def __len__(self) -> int:
        return self.length

    def __or__(self, other: IndicatorVector) -> IndicatorVector:
        """Element-wise logical OR of two equal-length vectors."""
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} vs {other.length}")
        return IndicatorVector.from_mask(self.mask | other.mask, self.length)

    def popcount(self) -> int:
        return self.mask.bit_count()

    def is_full(self) -> bool:
        return self.mask == (1 << self.length) - 1

    def held_packets(self) -> frozenset[PacketId]:
        return frozenset(mask_packets(self.mask))

    def missing_packets(self) -> frozenset[PacketId]:
        """Packet ids whose bit is 0 (the complement of the held set)."""
        return frozenset(mask_packets(((1 << self.length) - 1) & ~self.mask))


@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs of one Monte-Carlo scenario."""

    num_uavs: int
    num_packets: int
    delivery_rate: float
    num_clusters: int
    scheme: Scheme = Scheme.PROPOSED
    seed: int = 0
    runs: int = 500

    def __post_init__(self) -> None:
        if self.num_uavs < 1:
            raise ValueError("num_uavs must be positive")
        if self.num_packets < 1:
            raise ValueError("num_packets must be positive")
        if not 0.0 <= self.delivery_rate <= 1.0:
            raise ValueError("delivery_rate must lie in [0, 1]")
        if not 1 <= self.num_clusters <= self.num_uavs:
            raise ValueError("num_clusters must lie in [1, num_uavs]")
        if not isinstance(self.scheme, Scheme):
            object.__setattr__(self, "scheme", Scheme(self.scheme))
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.runs < 1:
            raise ValueError("runs must be positive")


def _label_entropy(label: str) -> int:
    # Stable across processes and platforms, unlike the built-in hash().
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream(seed: int, run_index: int, label: str) -> Rng:
    """Deterministic generator for one (master seed, run index, purpose) triple.

    Identical triples yield identical streams; distinct run indices or labels
    yield statistically independent streams, so adding a consumer under a new
    label never perturbs existing ones.
    """
    if seed < 0 or run_index < 0:
        raise ValueError("seed and run_index must be non-negative")
    seq = np.random.SeedSequence(entropy=(seed, run_index, _label_entropy(label)))
    return np.random.default_rng(seq)
