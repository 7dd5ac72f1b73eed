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

from .container import read_container, write_container
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
        # one vectorized draw for the rest: j_i uniform on [0, n_i); draws
        # j < capacity replace slot j, and a later sample wins a shared slot
        js = rng.integers(0, np.arange(start + fill + 1, start + n + 1))
        src = np.flatnonzero(js < buf.capacity)
        if len(src):
            slots = js[src]
            src += fill
            if len(src) > 1 and len(set(slots.tolist())) < len(src):
                last = dict(zip(slots.tolist(), src.tolist()))  # each slot's last writer
                slots, src = list(last), np.fromiter(last.values(), np.int64, len(last))
            buf.x[slots] = batch.x[src]
            buf.y[slots] = batch.y[src]
            buf.pos[slots] = start + src
    buf.seen = start + n


def buffer_retrieve(buf: MemoryBuffer, k: int, rng: Rng) -> np.ndarray:
    """Slot indices of min(k, size) distinct samples drawn uniformly."""
    if k < 0:
        raise ValueError(f"retrieval size must be non-negative, got {k}")
    m = min(k, buf.size)
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    return rng.choice(buf.size, size=m, replace=False)


SECTION_META = "BUFMETA"
SECTION_X = "BUFXDATA"
SECTION_YPOS = "BUFYPOS"


def save_buffer(path, buf: MemoryBuffer) -> None:
    n = buf.size
    sections = {
        SECTION_META: [(0, np.array([buf.capacity, buf.seen], dtype=np.float64))],
        SECTION_X: [(i, buf.x[i]) for i in range(n)],
        SECTION_YPOS: [(0, buf.y[:n].astype(np.float64)), (1, buf.pos[:n].astype(np.float64))],
    }
    write_container(path, sections)


def load_buffer(path) -> MemoryBuffer:
    sections = read_container(path)
    meta = sections[SECTION_META][0][1]
    buf = MemoryBuffer(int(meta[0]))
    buf.seen = int(meta[1])
    (_, ys), (_, pos) = sections[SECTION_YPOS]
    rows = [x for _, x in sections[SECTION_X]]
    n = len(rows)
    if n:
        buf.x = np.zeros((buf.capacity, rows[0].shape[0]))
        buf.x[:n] = rows
    buf.y[:n] = ys
    buf.pos[:n] = pos
    buf.size = n
    return buf
