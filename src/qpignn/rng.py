"""Deterministic random streams keyed by (seed, tag, index).

Every random draw in the package goes through a counter-based generator
derived from a global seed, a short purpose tag, and an optional integer
index.  Streams are therefore independent of call order: adding or
removing draws in one place can never shift the randomness seen by
another.
"""
from __future__ import annotations

import hashlib
import numbers
from typing import Iterator

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1

_RAW_CHUNK = 1 << 15  # raw words per draw: a 256 KiB buffer


def _tag_entropy(tag: str) -> int:
    # Stable across processes, unlike the builtin salted str hash.
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def check_seed(seed) -> None:
    """Refuse a seed that is not an integer: its streams would be keyed
    by its integer part."""
    if not isinstance(seed, numbers.Integral):
        raise ParameterError(f"seed must be an integer, got {seed!r}")


def keyed_rng(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return a fresh generator for the stream named by (seed, tag, index)."""
    entropy = (int(seed) & _MASK64, _tag_entropy(tag), int(index) & _MASK64)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, tag: str, index: int = 0) -> int:
    """Fold (seed, tag, index) into a single non-negative 64-bit seed.

    Used where an API takes one integer seed but the caller wants it tied
    to the keyed-stream contract (per-epoch dropout masks, per-pass
    stochastic forward evaluations, and so on).
    """
    raw = f"{int(seed)}|{tag}|{int(index)}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(raw).digest()[:8], "little")


def raw_words(rng: np.random.Generator,
              count: int) -> Iterator[tuple[int, np.ndarray]]:
    """The next ``count`` raw 64-bit words of ``rng``'s stream, in order.

    Yields ``(offset, words)``: uint64 chunks of at most ``_RAW_CHUNK``
    words, ``offset`` being the first word's place in the ``count``.  A
    full-range uint64 draw takes exactly one raw word per value, so the
    chunks continue one stream and the memory held is one chunk,
    whatever ``count`` is.  For the Philox generators of ``keyed_rng``
    the other draws are functions of these words: ``random()`` is
    ``(word >> 11) * 2**-53``, and the uint32 stream is each word's low
    half, then its high half, i.e. the words viewed as little-endian
    uint32s, which is ``integers(0, 1 << 32, dtype=np.uint32)`` at about
    half its cost.
    """
    for offset in range(0, count, _RAW_CHUNK):
        size = min(_RAW_CHUNK, count - offset)
        yield offset, rng.integers(0, 1 << 64, size, np.uint64)
