"""Reservoir-sampled rehearsal buffer.

The n-th sample ever offered (1-based) is inserted directly while the
buffer is filling; afterwards a slot index j is drawn uniformly from
[0, n) and the sample replaces slot j only when j < capacity. That keeps
every offered sample in the buffer with probability capacity / n at all
times. Retrieval is a uniform draw without replacement.

The buffer is three preallocated arrays: features ``x`` (capacity, dim),
labels ``y`` and stream positions ``pos`` (the 0-based index at which a
sample was offered); the first ``size`` slots are filled. ``x`` is
allocated at the first offer, once the feature dim is known.
"""

from __future__ import annotations

import numpy as np

from .numeric import Rng
from .stream import LabeledData


class MemoryBuffer:
    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)
        self.x: np.ndarray | None = None
        self.y = np.zeros(self.capacity, dtype=np.int64)
        self.pos = np.zeros(self.capacity, dtype=np.int64)
        self.size = 0
        self.seen = 0

    def __len__(self) -> int:
        return self.size


def buffer_update(buf: MemoryBuffer, batch: LabeledData, rng: Rng) -> None:
    """Offer a batch in order; sample i gets stream position buf.seen + i."""
    start, n = buf.seen, len(batch)
    if buf.x is None:
        buf.x = np.zeros((buf.capacity, batch.x.shape[1]))
    fill = min(n, buf.capacity - buf.size)
    if fill > 0:
        s = buf.size
        buf.x[s:s + fill] = batch.x[:fill]
        buf.y[s:s + fill] = batch.y[:fill]
        buf.pos[s:s + fill] = np.arange(start, start + fill)
        buf.size += fill
    if fill < n:
        # j_i uniform on [0, n_i), one draw for the rest; a draw j < capacity
        # replaces slot j, in stream order, so a later sample wins a shared slot
        js = rng.integers(0, np.arange(start + fill + 1, start + n + 1))
        for i, j in enumerate(js.tolist(), fill):
            if j < buf.capacity:
                buf.x[j] = batch.x[i]
                buf.y[j] = batch.y[i]
                buf.pos[j] = start + i
    buf.seen = start + n


def buffer_retrieve(buf: MemoryBuffer, k: int, rng: Rng) -> np.ndarray:
    """Slot indices of min(k, size) distinct samples drawn uniformly."""
    if k < 0:
        raise ValueError(f"retrieval size must be non-negative, got {k}")
    m = min(k, buf.size)
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    return rng.choice(buf.size, size=m, replace=False)
