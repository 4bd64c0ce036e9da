"""MinHash signatures for estimating value-set overlap between columns.

Each distinct value is hashed **once** into a 64-bit base hash: the 8-byte
blake2b digest of its UTF-8 text under an all-zero 8-byte key.  The keyed
state is set up once and copied per value, and every digest is read in one
pass from a single joined buffer.  The ``num_hashes`` per-function hashes
are then derived from the base hash with a vectorised splitmix64 finalizer
over per-function seeds, so a column's signature costs one digest per
distinct value plus a handful of numpy passes, which is what makes
repository profiling cheap.  Signatures persist in profile sidecars, so this
hash definition is fixed.
"""

from __future__ import annotations

import hashlib

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


# keyed once; every value hashes a copy, never this state itself
_KEYED_BLAKE2B = hashlib.blake2b(digest_size=8, key=bytes(8))


def _base_hashes(texts) -> np.ndarray:
    """Each text's 64-bit base hash (its keyed blake2b digest, little-endian)."""
    copy = _KEYED_BLAKE2B.copy
    digests = []
    for text in texts:
        state = copy()
        state.update(text.encode("utf-8"))
        digests.append(state.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer (uint64 in, uint64 out)."""
    z = (x ^ (x >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


class MinHashSignature:
    """MinHash signature of a set of string values."""

    def __init__(self, values, num_hashes: int = 64):
        self.num_hashes = num_hashes
        seen = {
            value if isinstance(value, str) else str(value)
            for value in values
            if value is not None
        }
        self.set_size = len(seen)
        if not seen:
            self.signature = np.full(num_hashes, np.iinfo(np.uint64).max, dtype=np.uint64)
            return
        base = _base_hashes(seen)
        with np.errstate(over="ignore"):
            seeds = _splitmix64(
                _splitmix64(np.arange(1, num_hashes + 1, dtype=np.uint64) * _GOLDEN)
            )
            table = _splitmix64(base[:, None] ^ seeds[None, :])
        self.signature = table.min(axis=0)

    @classmethod
    def from_parts(
        cls, signature: np.ndarray, set_size: int, num_hashes: int
    ) -> "MinHashSignature":
        """Rebuild a signature from its stored parts (no re-hashing)."""
        obj = cls.__new__(cls)
        obj.num_hashes = int(num_hashes)
        obj.set_size = int(set_size)
        obj.signature = np.asarray(signature, dtype=np.uint64)
        return obj

    def to_state(self) -> dict:
        """Plain-types state for sidecar persistence (see profiles.py)."""
        return {
            "num_hashes": self.num_hashes,
            "set_size": self.set_size,
            "signature": self.signature.tobytes(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "MinHashSignature":
        """Inverse of :meth:`to_state`."""
        signature = np.frombuffer(state["signature"], dtype=np.uint64).copy()
        return cls.from_parts(signature, state["set_size"], state["num_hashes"])

    def merge(self, other: "MinHashSignature") -> "MinHashSignature":
        """Signature of the union of the two underlying value sets.

        Because every per-function hash is a pure function of the value, the
        elementwise minimum of two signatures **is** the signature of the
        union — merging partial signatures built over disjoint chunks is
        exact.  The stored ``set_size`` of the merge is estimated from the
        overlap the signatures imply (clamped between the larger input and
        the sum), since the true union cardinality is not recoverable from
        signatures alone; chunk-exact profiling
        (:class:`~repro.discovery.profiles.ColumnProfileAccumulator`) tracks
        distinct values directly and does not rely on this estimate.
        """
        if self.num_hashes != other.num_hashes:
            raise ValueError("signatures must use the same number of hash functions")
        if self.set_size == 0:
            return MinHashSignature.from_parts(
                other.signature.copy(), other.set_size, other.num_hashes
            )
        if other.set_size == 0:
            return MinHashSignature.from_parts(
                self.signature.copy(), self.set_size, self.num_hashes
            )
        merged = np.minimum(self.signature, other.signature)
        jaccard = self.jaccard(other)
        union_estimate = (self.set_size + other.set_size) / (1.0 + jaccard)
        set_size = int(round(union_estimate))
        set_size = max(set_size, self.set_size, other.set_size)
        set_size = min(set_size, self.set_size + other.set_size)
        return MinHashSignature.from_parts(merged, set_size, self.num_hashes)

    def jaccard(self, other: "MinHashSignature") -> float:
        """Estimated Jaccard similarity with another signature."""
        if self.num_hashes != other.num_hashes:
            raise ValueError("signatures must use the same number of hash functions")
        if self.set_size == 0 or other.set_size == 0:
            return 0.0
        return float(np.mean(self.signature == other.signature))

    def containment_in(self, other: "MinHashSignature") -> float:
        """Estimated containment |A ∩ B| / |A| of this set in the other set."""
        jaccard = self.jaccard(other)
        if jaccard == 0.0 or self.set_size == 0:
            return 0.0
        union_estimate = (self.set_size + other.set_size) / (1.0 + jaccard)
        intersection_estimate = jaccard * union_estimate
        return float(min(1.0, intersection_estimate / self.set_size))


def jaccard_estimate(values_a, values_b, num_hashes: int = 64) -> float:
    """Convenience: estimated Jaccard similarity of two value collections."""
    return MinHashSignature(values_a, num_hashes).jaccard(
        MinHashSignature(values_b, num_hashes)
    )
