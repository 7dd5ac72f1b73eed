"""The fused train step against the two-pass reference in legacy_step.py.

From identical states, one step of each must give the same gradient tape,
parameters and step losses (allclose 1e-12: stacking [incoming; replayed]
changes BLAS summation order, not the arithmetic), and a bitwise identical
buffer and RNG state (the reservoir makes the same draws in the same
order). The step reads its samples by row from its stream's source, and
the oracle steps the features at those rows. The scoring kernel is checked
row by row against the old losses.
"""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_step
import uer.trainer
from conftest import flat_params, flat_tape, losses_of, row_source, step_alone
from uer import RunGroup, init_run
from uer.logits import CosineScale, PredictorParams, loss_rows
from uer.memory import MemoryBuffer, buffer_retrieve, buffer_update
from uer.net import GradientTape, init_extractor, sgd_step
from uer.numeric import make_rng
from uer.stream import SyntheticSpec, gen_synthetic
from uer.trainer import (er_method, finetune_method, lucir_method, triple_method, uer_a_method,
                         uer_method)

TOL = dict(rtol=1e-12, atol=1e-12)
SCALE = CosineScale(10.0)


def _methods(alpha, capacity):
    kw = dict(hidden_dims=(8,), buffer_capacity=capacity)
    return {
        "uer": uer_method(alpha=alpha, **kw),
        "uer-a": uer_a_method(**kw),
        "er": er_method(**kw),
        "lucir": lucir_method(**kw),
        "finetune": finetune_method(hidden_dims=(8,)),
        "joint-cosine": triple_method("joint-cosine", "cosine", "cosine", "dot",
                                      joint_batch=True, **kw),
    }


def _data(seed):
    means = 3.0 * np.eye(5, 6) - 1.5
    spec = SyntheticSpec(input_dim=6, means=means, stddev=0.8,
                         train_per_class=30, test_per_class=1)
    ds = gen_synthetic(spec, make_rng([seed, 0]))
    perm = make_rng([seed, 2]).permutation(len(ds.train))
    source, (rows,) = row_source([(ds.train.x[perm], ds.train.y[perm])])
    return source, rows


def _sgd_recorder(grads):
    def record(extractor, predictor, tape, lr):
        grads.append(flat_tape(tape))
        sgd_step(extractor, predictor, tape, lr)
    return record


def _assert_buffers_equal(arr_buf, source, list_buf):
    # the samples were offered in row order from row 0 of source, so a
    # kept row is its sample's stream position
    assert arr_buf.seen == list_buf.seen and len(arr_buf) == len(list_buf)
    for i, s in enumerate(list_buf.items):
        assert source.x[arr_buf.rows[i]].tobytes() == s.x.tobytes()
        assert arr_buf.y[i] == s.y and arr_buf.rows[i] == s.stream_position


@given(preset=st.sampled_from(["uer", "uer-a", "er", "lucir", "finetune", "joint-cosine"]),
       alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
       capacity=st.integers(0, 40),
       warmup=st.integers(0, 10),
       n_cur=st.integers(1, 10),
       n_mem=st.integers(0, 12),
       seed=st.integers(0, 50))
@settings(max_examples=120, deadline=None)
def test_fused_step_matches_two_pass_step(preset, alpha, capacity, warmup, n_cur, n_mem,
                                          seed):
    method = _methods(alpha, capacity)[preset]
    source, order = _data(seed)
    rng = make_rng([seed, 1])
    run = init_run(method, source, rng)
    group = RunGroup([run])
    for k in range(warmup):
        rows = order[k * n_cur:(k + 1) * n_cur]
        step_alone(group, rows, source.y[rows], n_mem, rng)

    old = legacy_step.with_tape(copy.deepcopy(run))
    old.stream.buffer = legacy_step.list_buffer_from_arrays(run.stream.buffer, source)
    rng_old = copy.deepcopy(rng)
    rows = order[warmup * n_cur:(warmup + 1) * n_cur]
    x, y = source.x[rows], source.y[rows]

    new_grads, old_grads = [], []
    with mock.patch.object(uer.trainer, "sgd_step", _sgd_recorder(new_grads)):
        got = np.array([step_alone(group, rows, y, n_mem, rng)])
    rec_old = legacy_step.legacy_train_step(old, x, y, method, n_mem, rng_old,
                                            sgd=_sgd_recorder(old_grads))

    np.testing.assert_allclose(new_grads[0], old_grads[0], **TOL)
    np.testing.assert_allclose(flat_params(run.extractor, run.predictor),
                               flat_params(old.extractor, old.predictor), **TOL)
    want = losses_of([rec_old])
    np.testing.assert_allclose(got, want, **TOL)
    np.testing.assert_allclose(got.sum(axis=1), want.sum(axis=1), **TOL)
    _assert_buffers_equal(run.stream.buffer, source, old.stream.buffer)
    assert rng.bit_generator.state == rng_old.bit_generator.state
    assert run.stream.class_order == old.stream.class_order and \
        run.stream.step == old.stream.step


@given(chunks=st.lists(st.integers(0, 15), min_size=1, max_size=12),
       capacity=st.integers(0, 20),
       k=st.integers(0, 25),
       seed=st.integers(0, 999))
@settings(max_examples=80, deadline=None)
def test_array_buffer_retraces_list_buffer(chunks, capacity, k, seed):
    arr_buf, list_buf = MemoryBuffer(capacity), legacy_step.ListBuffer(capacity)
    rng_a, rng_l = make_rng(seed), make_rng(seed)
    data = make_rng(seed + 1).normal(size=(sum(chunks), 3))
    ends = np.cumsum(chunks)
    source, batches = row_source([(data[end - n:end], np.arange(end - n, end) % 4)
                                  for n, end in zip(chunks, ends)])
    for rows in batches:
        buffer_update(arr_buf, rows, source.y[rows], rng_a)
        legacy_step.list_buffer_update(
            list_buf, [legacy_step.StoredSample(source.x[i].copy(), int(source.y[i]), int(i))
                       for i in rows], rng_l)
        _assert_buffers_equal(arr_buf, source, list_buf)
        idx = buffer_retrieve(arr_buf, k, rng_a)
        got = legacy_step.list_buffer_retrieve(list_buf, k, rng_l)
        assert arr_buf.rows[idx].tolist() == [s.stream_position for s in got]
        assert rng_a.bit_generator.state == rng_l.bit_generator.state


def test_capacity_zero_allocates_no_feature_rows():
    # the buffer holds ints only (rows, labels, positions), none at capacity 0
    buf = MemoryBuffer(0)
    buffer_update(buf, np.arange(5), np.zeros(5, dtype=np.int64), make_rng(0))
    arrays = [a for a in vars(buf).values() if isinstance(a, np.ndarray)]
    assert all(a.dtype == np.int64 and a.size == 0 for a in arrays) and buf.seen == 5


# ------------------------------------------------------------ the kernel


def _instance(seed, n, classes=4, dim=5):
    rng = make_rng(seed)
    pp = PredictorParams(rng.normal(size=(classes, dim)), 0.1 * rng.normal(size=classes))
    H = np.abs(rng.normal(size=(n, dim)))
    rows = rng.integers(0, classes, size=n)
    return rng, pp, H, rows


def _tape(pp):
    return GradientTape(init_extractor((1, 1), make_rng(0)), pp)


@given(seed=st.integers(0, 500), n=st.integers(1, 12), mix=st.floats(0.01, 0.99))
@settings(max_examples=80, deadline=None)
def test_kernel_matches_old_losses_row_by_row(seed, n, mix):
    # per-row alpha in {0, mix, 1} and arbitrary positive row weights: row i
    # of the kernel is alpha_i * old dot loss + (1 - alpha_i) * old cosine
    # loss on that row alone, with gradients weighted the same way
    rng, pp, H, rows = _instance(seed, n)
    alpha = rng.choice([0.0, mix, 1.0], size=n)
    weights = rng.uniform(0.05, 1.0, size=n)
    tape = _tape(pp)
    ce, dH = loss_rows(pp, SCALE, alpha, H, rows, weights, tape)

    ref_tape = _tape(pp)
    ref_ce, ref_dH = np.zeros(n), np.zeros_like(H)
    for i in range(n):
        a, w, h, r = alpha[i], weights[i], H[i:i + 1], rows[i:i + 1]
        if a > 0:
            ld, dd = legacy_step.loss_dot(pp, h, r, ref_tape, grad_weight=a * w)
            ref_ce[i] += a * ld
            ref_dH[i] += dd[0]
        if a < 1:
            lc, dc = legacy_step.loss_current(pp, SCALE, h, r, ref_tape,
                                              grad_weight=(1 - a) * w)
            ref_ce[i] += (1 - a) * lc
            ref_dH[i] += dc[0]
    np.testing.assert_allclose(ce, ref_ce, **TOL)
    np.testing.assert_allclose(dH, ref_dH, **TOL)
    np.testing.assert_allclose(tape.pred_w, ref_tape.pred_w, **TOL)
    np.testing.assert_allclose(tape.pred_b, ref_tape.pred_b, **TOL)


@given(seed=st.integers(0, 500), n=st.integers(1, 12),
       alpha=st.sampled_from([0.0, 0.25, 0.5, 1.0]), grad_weight=st.floats(0.1, 2.0))
@settings(max_examples=60, deadline=None)
def test_wrappers_match_old_losses(seed, n, alpha, grad_weight):
    _, pp, H, rows = _instance(seed, n)
    pairs = [
        (lambda t: uer.logits.loss_dot(pp, H, rows, t, grad_weight),
         lambda t: legacy_step.loss_dot(pp, H, rows, t, grad_weight)),
        (lambda t: uer.logits.loss_current(pp, SCALE, H, rows, t, grad_weight),
         lambda t: legacy_step.loss_current(pp, SCALE, H, rows, t, grad_weight)),
        (lambda t: uer.logits.loss_replay(pp, SCALE, alpha, H, rows, t),
         lambda t: legacy_step.loss_replay(pp, SCALE, alpha, H, rows, t)),
    ]
    for new, old in pairs:
        t_new, t_old = _tape(pp), _tape(pp)
        (l_new, d_new), (l_old, d_old) = new(t_new), old(t_old)
        assert l_new == pytest.approx(l_old, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(d_new, d_old, **TOL)
        np.testing.assert_allclose(t_new.pred_w, t_old.pred_w, **TOL)
        np.testing.assert_allclose(t_new.pred_b, t_old.pred_b, **TOL)


def test_dot_endpoint_is_bitwise_the_old_dot_loss():
    # all-one alpha skips the cosine branch, leaving the old arithmetic
    _, pp, H, rows = _instance(3, 7)
    t_new, t_old = _tape(pp), _tape(pp)
    l_new, d_new = uer.logits.loss_dot(pp, H, rows, t_new, 0.7)
    l_old, d_old = legacy_step.loss_dot(pp, H, rows, t_old, 0.7)
    assert l_new == l_old
    assert np.array_equal(d_new, d_old)
    assert np.array_equal(t_new.pred_w, t_old.pred_w)
    assert np.array_equal(t_new.pred_b, t_old.pred_b)


def test_kernel_rejects_bad_alpha_and_weight_shapes():
    _, pp, H, rows = _instance(0, 3)
    for bad in (-0.1, 1.5, float("nan"), np.array([0.0, 0.5, 2.0])):
        with pytest.raises(ValueError, match=r"alpha out of \[0,1\]"):
            loss_rows(pp, SCALE, bad, H, rows, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        loss_rows(pp, SCALE, np.zeros(2), H, rows, 1.0)
    with pytest.raises(ValueError, match="weights"):
        loss_rows(pp, SCALE, 0.5, H, rows, np.ones(4), _tape(pp))
    with pytest.raises(ValueError, match="CosineScale"):
        loss_rows(pp, None, 0.5, H, rows, 1.0)
