"""Reservoir-sampled rehearsal buffer.

The n-th sample ever offered (1-based) is inserted directly while the
buffer is filling; afterwards a slot index j is drawn uniformly from
[0, n) and the sample replaces slot j only when j < capacity. That keeps
every offered sample in the buffer with probability capacity / n at all
times (Algorithm R). Retrieval is a uniform draw without replacement.

The buffer is two preallocated int arrays: each sample's row in the
data the stream reads (``rows``; the step reads its features there) and
its label (``y``); the first ``size`` slots are filled. ``seen`` counts
the samples ever offered.
"""

from __future__ import annotations

import numpy as np

from .numeric import Rng


class MemoryBuffer:
    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)
        self.rows = np.zeros(self.capacity, dtype=np.int64)
        self.y = np.zeros(self.capacity, dtype=np.int64)
        self.size = 0
        self.seen = 0

    def __len__(self) -> int:
        return self.size


def buffer_update(buf: MemoryBuffer, batch: np.ndarray, y: np.ndarray, rng: Rng) -> None:
    """Offer a batch of dataset rows with their labels y, in order; sample
    i is the (buf.seen + i + 1)-th sample offered."""
    start, n = buf.seen, len(batch)
    fill = min(n, buf.capacity - buf.size)
    if fill > 0:
        s = buf.size
        buf.rows[s:s + fill] = batch[:fill]
        buf.y[s:s + fill] = y[:fill]
        buf.size += fill
    if fill < n:
        # j_i uniform on [0, n_i), one draw for the rest; a draw j < capacity
        # replaces slot j, in stream order, so a later sample wins a shared slot
        js = rng.integers(0, np.arange(start + fill + 1, start + n + 1))
        for i, j in enumerate(js.tolist(), fill):
            if j < buf.capacity:
                buf.rows[j] = batch[i]
                buf.y[j] = y[i]
    buf.seen = start + n


def buffer_retrieve(buf: MemoryBuffer, k: int, rng: Rng) -> np.ndarray:
    """Slot indices of min(k, size) distinct samples drawn uniformly."""
    if k < 0:
        raise ValueError(f"retrieval size must be non-negative, got {k}")
    m = min(k, buf.size)
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    return rng.choice(buf.size, size=m, replace=False)
