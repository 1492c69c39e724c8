"""Discretized action vocabulary: token bins, chunk layout, and bin distance.

A control action is a frame of 7 tokens, one per action dimension:
``[dpos_x, dpos_y, dpos_z, drot_x, drot_y, drot_z, gripper]``.  Each
dimension is quantized into ``vocab_size`` equal-width bins (256 by
default), and the distance between two tokens of the same dimension is
the absolute difference of their bin IDs.  Tokens are integers, read by
``operator.index`` as everywhere in the engine; chunks and their values
are returned as tuples.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

# One control action = 7 tokens, in this dimension order.
CHUNK_SIZE = 7
DIMENSION_NAMES = (
    "dpos_x",
    "dpos_y",
    "dpos_z",
    "drot_x",
    "drot_y",
    "drot_z",
    "gripper",
)

DEFAULT_VOCAB_SIZE = 256

# Fallback physical ranges: meters for position deltas, radians for rotation
# deltas, unitless for the gripper.  Overridable via config; nothing in the
# engine depends on the specific numbers.
_DEFAULT_LOW = (-0.05, -0.05, -0.05, -0.25, -0.25, -0.25, 0.0)
_DEFAULT_HIGH = (0.05, 0.05, 0.05, 0.25, 0.25, 0.25, 1.0)


def bin_distance(a: int, b: int) -> int:
    """Distance between two action tokens: absolute difference of bin IDs."""
    return abs(operator.index(a) - operator.index(b))


@dataclass(frozen=True)
class DimensionBounds:
    """Per-dimension (low, high) ranges used to map bins to real values."""

    low: tuple[float, ...] = _DEFAULT_LOW
    high: tuple[float, ...] = _DEFAULT_HIGH

    def __post_init__(self) -> None:
        if len(self.low) != CHUNK_SIZE or len(self.high) != CHUNK_SIZE:
            raise ValueError(f"bounds must cover exactly {CHUNK_SIZE} dimensions")
        for i, (lo, hi) in enumerate(zip(self.low, self.high)):
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(
                    f"dimension {i} ({DIMENSION_NAMES[i]}): need finite low {lo} < high {hi}"
                )

    @classmethod
    def from_pairs(cls, pairs: list[list[float]] | list[tuple[float, float]]) -> DimensionBounds:
        if len(pairs) != CHUNK_SIZE or any(len(p) != 2 for p in pairs):
            raise ValueError(f"expected {CHUNK_SIZE} [low, high] pairs, got {pairs!r}")
        return cls(
            low=tuple(float(p[0]) for p in pairs),
            high=tuple(float(p[1]) for p in pairs),
        )

    def as_pairs(self) -> list[list[float]]:
        return [[lo, hi] for lo, hi in zip(self.low, self.high)]


def as_chunk(tokens, vocab_size: int = DEFAULT_VOCAB_SIZE) -> tuple[int, ...]:
    """Validate a 7-token action chunk and return it as a tuple of ints."""
    chunk = tuple(map(operator.index, tokens))
    if len(chunk) != CHUNK_SIZE:
        raise ValueError(f"action chunk must have exactly {CHUNK_SIZE} tokens, got {len(chunk)}")
    if not all(0 <= t < vocab_size for t in chunk):
        raise ValueError(f"chunk contains tokens outside [0, {vocab_size})")
    return chunk


def detokenize(
    chunk,
    bounds: DimensionBounds | None = None,
    vocab_size: int = DEFAULT_VOCAB_SIZE,
) -> tuple[float, ...]:
    """Map a 7-token chunk to the continuous values at its bin centers.

    Bin ``k`` of dimension ``i`` maps to ``low_i + (k + 0.5) * width_i`` with
    ``width_i = (high_i - low_i) / vocab_size``, so each value lies inside
    its own bin, ``[low_i + k * width_i, low_i + (k + 1) * width_i)``.
    """
    bounds = bounds or DimensionBounds()
    return tuple(
        low + (k + 0.5) * ((high - low) / vocab_size)
        for k, low, high in zip(as_chunk(chunk, vocab_size), bounds.low, bounds.high)
    )
