"""Reproducible counter-based random streams.

Every stochastic routine in the package draws from a substream addressed by
``(seed, label, index)``.  The derivation is fixed so that results are
bit-identical across runs and platforms, however chunks are scheduled:

  key   = first 16 bytes of SHA-256("oulab|<seed>|<label>|<index>"),
          read as two little-endian 64-bit words
  state = Philox 4x64 (10 rounds) counter-based generator keyed by ``key``
  draws = numpy ``Generator`` built on that bit stream

Distinct labels or indices give statistically independent streams; the same
triple always reproduces the same draw sequence.
"""

from __future__ import annotations

import hashlib

import numpy as np

_DOMAIN = b"oulab"


def substream_key(seed: int, label: str, index: int = 0) -> tuple[int, int]:
    """Two 64-bit key words derived by hashing (seed, label, index)."""
    msg = b"|".join((_DOMAIN, str(int(seed)).encode(), label.encode(), str(int(index)).encode()))
    digest = hashlib.sha256(msg).digest()
    lo = int.from_bytes(digest[:8], "little")
    hi = int.from_bytes(digest[8:16], "little")
    return lo, hi


def seed_stream(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Generator for the substream addressed by (seed, label, index)."""
    key = substream_key(seed, label, index)
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


CHUNK = 4096


def chunked_normals(seed: int, label: str, count: int, dim: int) -> np.ndarray:
    """(count, dim) standard normals, assembled chunk by chunk.

    Chunk ``i`` comes entirely from substream (seed, label, i), so the merged
    array does not depend on the order in which chunks are drawn.
    """
    out = np.empty((count, dim))
    for i, lo in enumerate(range(0, count, CHUNK)):
        hi = min(lo + CHUNK, count)
        out[lo:hi] = seed_stream(seed, label, i).standard_normal((hi - lo, dim))
    return out
