"""A fixed block of work that measures how fast the host runs right now.

The benchmark times a few operations of ``kernel`` after every verifier
round of the engine and rescales its wall times by the result, so that
drifts in the speed of a shared host (they reach 2x between runs, and the
host's speed changes within a second) cancel.  The kernel imports nothing from the engine:
a change to the engine cannot move the unit its own times are measured in.
Its work is of the kinds the engine does: a blake2b digest of a token prefix
of up to 1,000 tokens, a PCG64 draw of 256 scores with numpy, a
normalisation and an argmax (as in scoring), a ranking of the top bins (as
in a draft proposal), many small tuples of floats made from integer mixing
(as in feature vectors), and a heap update in Python (as in tree
ranking).  So it slows and speeds up with the host the
way the engine does.
"""

from __future__ import annotations

import hashlib
import heapq
import struct
from array import array

import numpy as np

MASK = 0xFFFFFFFFFFFFFFFF


def kernel(ops: int) -> int:
    """Run ``ops`` operations; return a checksum of their results."""
    checksum, heap, prefix = 0, [], ()
    for i in range(ops):
        # Score a prefix that grows to 1,000 tokens: hash it, draw, normalise.
        h = hashlib.blake2b(digest_size=8)
        h.update(b"calibrate")
        h.update(struct.pack("<q", i))
        h.update(array("H", prefix).tobytes())
        key = int.from_bytes(h.digest(), "little")
        scores = np.random.Generator(np.random.PCG64(key)).random(256)
        scores = scores / float(scores.sum())
        best = int(np.argmax(scores))
        # Rank the top few bins, as a draft proposal does.
        order = np.argsort(-scores, kind="stable")[:8]
        ranked = [(int(b), float(lp)) for b, lp in zip(order, np.log(scores[order]))]
        prefix = prefix + (best,) * 10 if len(prefix) < 1000 else ()
        # Allocate small tuples of floats from integer mixing.
        vectors = []
        for j in range(24):
            x = ((key ^ j) * 0xBF58476D1CE4E5B9) & MASK
            x ^= x >> 31
            vectors.append(tuple(((x >> (16 * d)) & 0xFFFF) / 65536.0 for d in range(4)))
        # Keep the best few in a heap.
        heapq.heappush(heap, (ranked[0][1], i, best, tuple(vectors)))
        if len(heap) > 8:
            heapq.heappop(heap)
        checksum ^= best
    return checksum
