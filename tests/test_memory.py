"""Reservoir buffer: size law, uniformity oracles, snapshots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_step
from uer.memory import (MemoryBuffer, buffer_retrieve, buffer_update, load_buffer,
                        save_buffer)
from uer.numeric import make_rng
from uer.stream import LabeledData


def samples(n, start=0, dim=2):
    # sample i carries its stream position start + i in every feature;
    # callers pass start = samples offered so far, the position the buffer
    # assigns
    pos = np.arange(start, start + n)
    return LabeledData(np.repeat(pos[:, None].astype(float), dim, axis=1), pos % 3)


def positions(buf):
    return sorted(buf.pos[:len(buf)].tolist())


# ------------------------------------------------------------- size law


def test_under_capacity_keeps_everything():
    buf = MemoryBuffer(5)
    buffer_update(buf, samples(3), make_rng(0))
    assert positions(buf) == [0, 1, 2]
    assert buf.seen == 3


def test_capacity_zero_stays_empty():
    buf = MemoryBuffer(0)
    buffer_update(buf, samples(50), make_rng(0))
    assert len(buf) == 0
    assert buf.seen == 50


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        MemoryBuffer(-1)


def test_fill_exactly_then_replace_within_capacity():
    buf = MemoryBuffer(4)
    buffer_update(buf, samples(4), make_rng(1))
    assert positions(buf) == [0, 1, 2, 3]
    buffer_update(buf, samples(10, start=4), make_rng(1))
    assert len(buf) == 4
    assert buf.seen == 14
    assert all(0 <= p < 14 for p in buf.pos[:len(buf)])


@given(
    chunks=st.lists(st.integers(0, 12), min_size=1, max_size=10),
    capacity=st.integers(0, 15),
    seed=st.integers(0, 999),
)
@settings(max_examples=80, deadline=None)
def test_size_law_under_fuzzed_batches(chunks, capacity, seed):
    buf = MemoryBuffer(capacity)
    rng = make_rng(seed)
    offered = 0
    for n in chunks:
        buffer_update(buf, samples(n, start=offered), rng)
        offered += n
        assert len(buf) == min(offered, capacity)
        assert buf.seen == offered
        # no duplicate stream positions can ever exist in the buffer
        assert len(set(buf.pos[:len(buf)].tolist())) == len(buf)


@given(chunks=st.lists(st.integers(0, 60), min_size=1, max_size=10),
       capacity=st.integers(0, 6),
       seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_scatter_writes_what_the_per_row_loop_wrote(chunks, capacity, seed):
    # a small buffer and long chunks: many draws land on one slot, and the
    # last of them must win, as when the rows were written one at a time
    scatter, loop = MemoryBuffer(capacity), MemoryBuffer(capacity)
    rng_s, rng_l = make_rng(seed), make_rng(seed)
    data = make_rng(seed + 1).normal(size=(sum(chunks), 3))
    offered = 0
    for n in chunks:
        batch = LabeledData(data[offered:offered + n], np.arange(offered, offered + n) % 5)
        buffer_update(scatter, batch, rng_s)
        legacy_step.loop_buffer_update(loop, batch, rng_l)
        offered += n
        assert (scatter.size, scatter.seen) == (loop.size, loop.seen)
        for a, b in ((scatter.x, loop.x), (scatter.y, loop.y), (scatter.pos, loop.pos)):
            assert a.tobytes() == b.tobytes()
        assert rng_s.bit_generator.state == rng_l.bit_generator.state


def test_scatter_keeps_the_last_writer_of_a_shared_slot():
    # capacity 1: after the first sample every accepted draw hits slot 0
    buf = MemoryBuffer(1)
    buffer_update(buf, samples(1), make_rng(3))
    rng = make_rng(3)
    js = make_rng(3).integers(0, np.arange(2, 42))
    buffer_update(buf, samples(40, start=1), rng)
    assert buf.pos[0] == 1 + int(np.flatnonzero(js < 1)[-1])


def test_batched_updates_match_one_by_one_distribution():
    # offering [a,b,c] in one call draws the same slots as three calls
    def run(split):
        buf = MemoryBuffer(3)
        rng = make_rng(99)
        items = samples(12)
        if split:
            for i in range(len(items)):
                buffer_update(buf, LabeledData(items.x[i:i + 1], items.y[i:i + 1]), rng)
        else:
            buffer_update(buf, items, rng)
        return positions(buf)

    assert run(True) == run(False)


# ---------------------------------------------------------- reservoir MC


def test_reservoir_inclusion_frequency_small():
    # capacity 10 over a 50-item stream: every item lands with p = 0.2
    trials = 4000
    capacity, stream = 10, 50
    items = samples(stream)
    counts = np.zeros(stream)
    rng = make_rng(1234)
    for _ in range(trials):
        buf = MemoryBuffer(capacity)
        buffer_update(buf, items, rng)
        counts[buf.pos[:len(buf)]] += 1
    freq = counts / trials
    # sigma = sqrt(.2 * .8 / 4000) ~ 0.0063; allow 4 sigma
    assert np.all(np.abs(freq - capacity / stream) < 0.026)


# ------------------------------------------------------------- retrieval


def test_retrieve_underfilled_returns_everything():
    buf = MemoryBuffer(10)
    buffer_update(buf, samples(3), make_rng(0))
    got = buffer_retrieve(buf, 10, make_rng(5))
    assert sorted(buf.pos[got].tolist()) == [0, 1, 2]


def test_retrieve_empty_buffer_gives_empty_list():
    assert buffer_retrieve(MemoryBuffer(10), 5, make_rng(0)).tolist() == []


def test_retrieve_rejects_negative_k():
    with pytest.raises(ValueError):
        buffer_retrieve(MemoryBuffer(1), -1, make_rng(0))


@given(n=st.integers(1, 40), k=st.integers(0, 50), seed=st.integers(0, 999))
@settings(max_examples=80, deadline=None)
def test_retrieve_no_duplicates_and_right_size(n, k, seed):
    buf = MemoryBuffer(40)
    buffer_update(buf, samples(n), make_rng(0))
    got = buffer_retrieve(buf, k, make_rng(seed))
    assert len(got) == min(k, n)
    pos = buf.pos[got].tolist()
    assert len(set(pos)) == len(pos)


def test_retrieve_uniform_frequency():
    # k=10 of 1000 items: per-item selection probability 0.01. 40k trials
    # put the +-0.002 band at 4 sigma, so one fixed seed passes with room.
    buf = MemoryBuffer(1000)
    buffer_update(buf, samples(1000), make_rng(0))
    trials = 40_000
    rng = make_rng(777)
    counts = np.zeros(1000)
    for _ in range(trials):
        for i in buffer_retrieve(buf, 10, rng):
            counts[buf.pos[i]] += 1
    freq = counts / trials
    assert np.all(np.abs(freq - 0.01) < 0.002)


# -------------------------------------------------------------- snapshot


def test_snapshot_round_trip(tmp_path):
    buf = MemoryBuffer(8)
    rng = make_rng(3)
    buffer_update(buf, samples(30, dim=4), rng)
    path = tmp_path / "buffer.bin"
    save_buffer(path, buf)
    back = load_buffer(path)
    assert back.capacity == buf.capacity
    assert back.seen == buf.seen
    assert len(back) == len(buf)
    for i in range(len(buf)):
        assert buf.x[i].tobytes() == back.x[i].tobytes()
        assert buf.y[i] == back.y[i] and buf.pos[i] == back.pos[i]


def test_snapshot_round_trip_continues_identically(tmp_path):
    # a reloaded buffer must replace exactly like the original would
    buf = MemoryBuffer(5)
    buffer_update(buf, samples(20), make_rng(4))
    path = tmp_path / "buf.bin"
    save_buffer(path, buf)
    twin = load_buffer(path)
    more = samples(15, start=20)
    buffer_update(buf, more, make_rng(11))
    buffer_update(twin, more, make_rng(11))
    assert positions(buf) == positions(twin)
