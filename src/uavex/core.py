"""Shared domain types: packet indicator vectors, scenario configuration, seeded streams."""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

UavId = int
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


def _check_fit(mask: int, length: int) -> None:
    if length < 1:
        raise ValueError("indicator vector must have at least one position")
    if not 0 <= mask < 1 << length:
        raise ValueError(f"mask {mask} does not fit {length} positions")


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

    @classmethod
    def _from_masks(cls, masks: Sequence[int], length: int) -> list[IndicatorVector]:
        """``from_mask(m, length)`` for each mask, with the fit checked once for all of them."""
        if masks:  # every mask fits when the smallest and the largest do
            _check_fit(min(masks), length)
            _check_fit(max(masks), length)
        vectors = [object.__new__(cls) for _ in masks]
        for vector, mask in zip(vectors, masks):
            vector.__dict__.update(mask=mask, length=length)
        return vectors

    def _fill(self, mask: int, length: int) -> None:
        _check_fit(mask, length)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "length", length)

    @classmethod
    def ones(cls, length: int) -> IndicatorVector:
        return cls.from_mask((1 << length) - 1, length)

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


class InfeasibleClusterCount(ValueError):
    """Raised when the requested cluster count cannot be formed from the fleet."""


def check_cluster_count(num_uavs: int, num_clusters: int) -> None:
    """Raise ``InfeasibleClusterCount`` unless ``num_clusters`` lies in [1, ``num_uavs``]."""
    if not 1 <= num_clusters <= num_uavs:
        raise InfeasibleClusterCount(f"cannot form {num_clusters} clusters from {num_uavs} UAVs")


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte-Carlo scenario; a cluster count outside [1, U] raises InfeasibleClusterCount."""

    num_uavs: int
    num_packets: int
    delivery_rate: float
    num_clusters: int
    scheme: Scheme = Scheme.PROPOSED
    seed: int = 0
    runs: int = 500

    def __post_init__(self) -> None:
        for name in ("num_uavs", "num_packets", "num_clusters", "seed", "runs"):
            value = getattr(self, name)
            if type(value) is not int:  # type, not isinstance: True is refused
                sign = "non-negative" if name == "seed" else "positive"
                raise ValueError(f"{name} must be a {sign} integer, got {value!r}")
        if self.num_uavs < 1:
            raise ValueError("num_uavs must be positive")
        check_cluster_count(self.num_uavs, self.num_clusters)
        if self.num_packets < 1:
            raise ValueError("num_packets must be positive")
        rate = self.delivery_rate
        if not isinstance(rate, numbers.Real) or isinstance(rate, bool):
            raise ValueError(f"delivery_rate must be a real number, got {rate!r}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError("delivery_rate must lie in [0, 1]")
        if not isinstance(self.scheme, Scheme):
            object.__setattr__(self, "scheme", Scheme(self.scheme))
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.runs < 1:
            raise ValueError(f"runs must be a positive integer, got {self.runs!r}")


def _label_entropy(label: str) -> int:
    # Stable across processes and platforms, unlike the built-in hash().
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# numpy's SeedSequence (NEP 19) over a pool of four uint32 words. Its hash
# constants step the same way whatever the data, so each call's pair is fixed:
# call i xors with _HASH_A[i] and multiplies by _HASH_A[i + 1].
_MASK32 = 0xFFFFFFFF


def _constant_chain(init: int, mult: int, count: int) -> np.ndarray:
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


_HASH_A = _constant_chain(0x43B0D7E5, 0x931E8875, 16)  # mix_entropy: 4 fills, 12 cross mixes
_HASH_B = _constant_chain(0x8B51F9DD, 0x58F38DED, 8)   # generate_state: 8 output words
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(value: np.ndarray, chain: np.ndarray, first: int, calls: int) -> np.ndarray:
    """Hash calls ``first`` to ``first + calls - 1`` of ``chain``, one per row of the result."""
    value = (value ^ chain[first:first + calls]) * chain[first + 1:first + calls + 1]
    return value ^ (value >> 16)


def _int_words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, one zero word for 0, as numpy splits it."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def mix_seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy=row).generate_state(4, np.uint64)`` for each row of ``entropy``.

    ``entropy`` is an ``(n, 4)`` uint32 array, each row a word list of at
    most four words padded with zeros, which is exact: numpy hashes a 0 for
    each pool word its entropy does not reach. Returns ``(n, 4)`` uint64.
    """
    pool = _hashmix(entropy.T, _HASH_A, 0, 4)
    # numpy mixes each source word into the other three in turn; the source
    # does not change meanwhile, so its three hash calls run as one.
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = pool[dst] * _MIX_L - _hashmix(pool[src], _HASH_A, 4 + 3 * src, 3) * _MIX_R
        pool[dst] = mixed ^ (mixed >> 16)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B, 0, 8)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Seeds PCG64 with four uint64 words that a ``StreamBlock`` mixed."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError("block seed words serve only PCG64's generate_state(4, uint64)")
        return self.words


class StreamBlock:
    """The seed words of every (run index, label) stream of a block of run indices.

    Mixes what ``SeedSequence(entropy=(seed, run_index, _label_entropy(label)))``
    would for each pair, in one pass of uint32 array arithmetic instead of one
    ``SeedSequence`` per stream, so ``stream(..., block=)`` gives the very
    same generators. Run indices of 2**32 or more, and pairs whose entropy
    exceeds four words (in practice a seed of 2**32 or more), take numpy's
    own ``SeedSequence``.
    """

    def __init__(self, seed: int, run_indices: range, labels: Sequence[str]) -> None:
        if seed < 0 or run_indices.start < 0 or run_indices.step != 1:
            raise ValueError("a block covers non-negative run indices in steps of 1 "
                             "under a non-negative seed")
        self.seed = seed
        self.run_indices = run_indices
        self._columns = {label: j for j, label in enumerate(labels)}
        start, stop = run_indices.start, run_indices.stop
        # Run indices below 2**32 are one entropy word; numpy mixes the others.
        one_word = np.arange(min(start, 1 << 32), min(stop, 1 << 32)).astype(np.uint32)
        entropy = np.zeros((len(run_indices), len(labels), 4), dtype=np.uint32)
        seed_words = _int_words(seed)
        numpy_pairs = []
        for j, label in enumerate(labels):
            words = [*seed_words, one_word, *_int_words(_label_entropy(label))]
            mixed = len(one_word) if len(words) <= 4 else 0
            for c, word in enumerate(words if mixed else []):
                entropy[:mixed, j, c] = word
            numpy_pairs += [(k, j) for k in range(start + mixed, stop)]
        self._words = mix_seed_words(entropy.reshape(-1, 4)).reshape(entropy.shape)
        for k, j in numpy_pairs:
            seq = np.random.SeedSequence(entropy=(seed, k, _label_entropy(labels[j])))
            self._words[k - start, j] = seq.generate_state(4, np.uint64)

    def seed_words(self, seed: int, run_index: int, label: str) -> np.ndarray:
        """The four uint64 seed words of one stream; ValueError for a stream outside the block."""
        column = self._columns.get(label)
        if seed != self.seed or run_index not in self.run_indices or column is None:
            raise ValueError(
                f"stream ({seed}, {run_index}, {label!r}) is outside the block of seed "
                f"{self.seed}, run indices {self.run_indices} and labels {list(self._columns)}"
            )
        return self._words[run_index - self.run_indices.start, column]


def stream(seed: int, run_index: int, label: str, block: StreamBlock | None = None) -> Rng:
    """Deterministic generator for one (master seed, run index, purpose) triple.

    Identical triples yield identical streams; distinct run indices or labels
    yield statistically independent streams, so adding a consumer under a new
    label never perturbs existing ones. A ``block`` covering the triple hands
    over the seed words it mixed in advance; the stream is the same.
    """
    if seed < 0 or run_index < 0:
        raise ValueError("seed and run_index must be non-negative")
    if block is None:
        seq = np.random.SeedSequence(entropy=(seed, run_index, _label_entropy(label)))
    else:
        seq = _SeedWords(block.seed_words(seed, run_index, label))
    return np.random.Generator(np.random.PCG64(seq))
