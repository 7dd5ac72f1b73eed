"""Feature extractor: init, forward/backward, SGD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_grad_close, conditioned_instance, fd_gradient,
                      flat_params, flat_tape)
from uer.logits import CosineScale, PredictorParams, loss_dot, loss_rows
from uer.net import (FeatureExtractor, GradientTape, LayerParams, backward_batch,
                     forward_batch, init_extractor, sgd_step)
from uer.numeric import ShapeError, make_rng


def single_layer(weight, bias):
    return FeatureExtractor([LayerParams(np.array(weight, dtype=float),
                                         np.array(bias, dtype=float))])


def empty_tape(fe, n_classes=0):
    return GradientTape(fe, PredictorParams.empty(fe.out_dim)
                        if n_classes == 0 else
                        PredictorParams(np.zeros((n_classes, fe.out_dim)),
                                        np.zeros(n_classes)))


# ------------------------------------------------------------------ init


def test_init_shapes_and_zero_biases():
    fe = init_extractor([4, 8, 16], make_rng(1))
    assert [l.weight.shape for l in fe.layers] == [(8, 4), (16, 8)]
    assert all(np.all(l.bias == 0.0) for l in fe.layers)
    assert fe.in_dim == 4 and fe.out_dim == 16


def test_init_respects_uniform_bound():
    bound = np.sqrt(6.0 / 4.0)
    for seed in range(20):
        fe = init_extractor([2, 2], make_rng(seed))
        w = fe.layers[0].weight
        assert np.all(w > -bound) and np.all(w < bound)


def test_init_deterministic():
    a = init_extractor([3, 5, 2], make_rng(42))
    b = init_extractor([3, 5, 2], make_rng(42))
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_extractor([4], make_rng(0))
    with pytest.raises(ValueError):
        init_extractor([4, 0], make_rng(0))


def test_layer_chain_validated():
    with pytest.raises(ShapeError):
        FeatureExtractor([LayerParams(np.zeros((3, 2)), np.zeros(3)),
                          LayerParams(np.zeros((4, 5)), np.zeros(4))])


# --------------------------------------------------------------- forward


def test_forward_relu_clips_negative():
    fe = single_layer([[1, 0], [0, 1]], [0, 0])
    H, _ = forward_batch(fe, np.array([[-1.0, 2.0]]))
    assert np.array_equal(H, [[0.0, 2.0]])


def test_forward_hand_arithmetic():
    fe = single_layer([[2.0]], [1.0])
    H, _ = forward_batch(fe, np.array([[3.0]]))
    assert np.array_equal(H, [[7.0]])


def test_forward_zero_net():
    fe = single_layer(np.zeros((3, 2)), np.zeros(3))
    H, _ = forward_batch(fe, np.array([[5.0, -1.0]]))
    assert np.array_equal(H, np.zeros((1, 3)))


def test_forward_rejects_wrong_dim():
    fe = single_layer([[1.0, 2.0]], [0.0])
    with pytest.raises(ShapeError):
        forward_batch(fe, np.array([[1.0, 2.0, 3.0]]))


def test_forward_batch_matches_forward():
    # a block's rows against one-row blocks: the two shapes may hit
    # different BLAS kernels, so they agree to rounding, not bit for bit
    rng = make_rng(3)
    fe = init_extractor([4, 6, 3], rng)
    X = rng.normal(size=(5, 4))
    H, _ = forward_batch(fe, X)
    for i in range(5):
        h, _ = forward_batch(fe, X[i:i + 1])
        np.testing.assert_allclose(H[i], h[0], rtol=1e-12, atol=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_forward_output_nonnegative(seed):
    rng = make_rng(seed)
    fe = init_extractor([5, 7, 4], rng)
    H, _ = forward_batch(fe, 3.0 * rng.normal(size=(1, 5)))
    assert np.all(H >= 0.0)


# -------------------------------------------------------------- backward


def test_backward_zero_upstream_is_inert():
    rng = make_rng(9)
    fe = init_extractor([3, 4, 2], rng)
    tape = empty_tape(fe)
    _, cache = forward_batch(fe, rng.normal(size=(1, 3)))
    dz = backward_batch(fe, cache, np.zeros((1, 2)), tape)
    assert np.array_equal(dz, np.zeros((1, 4)))
    assert not flat_tape(tape)[:sum(l.weight.size + l.bias.size for l in fe.layers)].any()


def test_backward_linear_layer_outer_product():
    # one layer, all pre-activations positive: dW = upstream (x) input
    fe = single_layer([[1.0, 2.0], [0.5, 1.0]], [5.0, 5.0])
    x = np.array([1.0, 2.0])
    dL_dh = np.array([0.3, -0.7])
    _, cache = forward_batch(fe, x[None, :])
    tape = empty_tape(fe)
    dz = backward_batch(fe, cache, dL_dh[None, :], tape)
    np.testing.assert_allclose(tape.layer_w[0], np.outer(dL_dh, x), atol=1e-15)
    np.testing.assert_allclose(tape.layer_b[0], dL_dh, atol=1e-15)
    # the pre-activation gradient: every unit is active, so it is dL/dh
    np.testing.assert_allclose(dz, dL_dh[None, :], atol=1e-15)


def test_backward_two_layer_matches_finite_differences():
    rng = make_rng(2024)
    for _ in range(5):
        fe, pp, x, y = conditioned_instance(rng)
        tape = GradientTape(fe, pp)

        def value():
            H, _ = forward_batch(fe, x[None, :])
            return loss_dot(pp, H, np.array([y]))[0]

        H, cache = forward_batch(fe, x[None, :])
        _, dH = loss_dot(pp, H, np.array([y]), tape)
        backward_batch(fe, cache, dH, tape)
        assert_grad_close(flat_tape(tape), fd_gradient(value, fe, pp))


def test_backward_rejects_mismatched_upstream():
    fe = single_layer([[1.0, 0.0]], [0.0])
    _, cache = forward_batch(fe, np.array([[1.0, 1.0]]))
    with pytest.raises(ShapeError):
        backward_batch(fe, cache, np.zeros((1, 3)), empty_tape(fe))


# ------------------------------------------------------------- sgd_step


def test_sgd_step_hand_arithmetic():
    fe = single_layer([[1.0]], [1.0])
    pp = PredictorParams.empty(1)
    tape = GradientTape(fe, pp)
    tape.layer_w[0][0, 0] = 0.5
    sgd_step(fe, pp, tape, 0.1)
    assert fe.layers[0].weight[0, 0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_step_zero_gradient_is_identity():
    rng = make_rng(8)
    fe = init_extractor([2, 3], rng)
    pp = PredictorParams(rng.normal(size=(2, 3)), rng.normal(size=2))
    before = flat_params(fe, pp)
    sgd_step(fe, pp, GradientTape(fe, pp), 0.1)
    assert np.array_equal(flat_params(fe, pp), before)


def test_sgd_step_two_steps_accumulate_linearly():
    fe = single_layer([[1.0]], [0.0])
    pp = PredictorParams.empty(1)
    g = 0.25
    for _ in range(2):
        tape = GradientTape(fe, pp)
        tape.layer_w[0][0, 0] = g
        sgd_step(fe, pp, tape, 0.1)
    assert fe.layers[0].weight[0, 0] == pytest.approx(1.0 - 2 * 0.1 * g, abs=1e-15)


@pytest.mark.parametrize("stacked", [False, True], ids=["2d", "two-slices"])
@pytest.mark.parametrize("alpha", [1.0, 0.0, 0.5], ids=["dot", "cosine", "mixed"])
def test_a_step_writes_every_tape_block_over_what_it_held(alpha, stacked):
    # nothing zeroes the tape between steps: loss_rows and backward_batch
    # write each block, so a tape full of nan must come out with the bytes
    # of a fresh one, and a cosine-only step writes its biases as +0
    rng = make_rng(5)
    lead = (2,) if stacked else ()
    dims = (4, 6, 3)
    fe = FeatureExtractor([LayerParams(rng.normal(size=(*lead, o, i)), rng.normal(size=(*lead, o)))
                           for i, o in zip(dims, dims[1:])])
    pp = PredictorParams(rng.normal(size=(*lead, 5, 3)), rng.normal(size=(*lead, 5)))
    X = rng.normal(size=(*lead, 7, 4))
    rows = rng.integers(0, 5, size=(*lead, 7))
    scale = CosineScale(10.0)

    def step(tape):
        H, acts = forward_batch(fe, X)
        _, dH = loss_rows(pp, scale, alpha, H, rows, 0.25, tape)
        backward_batch(fe, acts, dH, tape)
        return tape

    fresh = step(GradientTape(fe, pp))
    stale = GradientTape(fe, pp)
    for g in (*stale.layer_w, *stale.layer_b, stale.pred_w, stale.pred_b):
        g.fill(np.nan)
    step(stale)
    blocks = zip((*stale.layer_w, *stale.layer_b, stale.pred_w, stale.pred_b),
                 (*fresh.layer_w, *fresh.layer_b, fresh.pred_w, fresh.pred_b))
    for k, (got, want) in enumerate(blocks):
        assert got.tobytes() == want.tobytes(), f"tape block {k}"
    if alpha == 0.0:
        assert stale.pred_b.tobytes() == np.zeros_like(pp.b).tobytes()


def test_sgd_step_validates_lr_and_shapes():
    fe = single_layer([[1.0]], [0.0])
    pp = PredictorParams.empty(1)
    tape = GradientTape(fe, pp)
    with pytest.raises(ValueError):
        sgd_step(fe, pp, tape, 0.0)
    grown = PredictorParams(np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ShapeError):
        sgd_step(fe, grown, tape, 0.1)


def test_training_determinism_multi_step():
    def run():
        rng = make_rng(77)
        fe = init_extractor([4, 5, 3], rng)
        pp = PredictorParams(rng.normal(size=(2, 3)), np.zeros(2))
        tape = GradientTape(fe, pp)
        X = rng.normal(size=(30, 4))
        ys = rng.integers(0, 2, size=30)
        for i in range(0, 30, 10):
            H, cache = forward_batch(fe, X[i:i + 10])
            _, dH = loss_dot(pp, H, ys[i:i + 10], tape)
            backward_batch(fe, cache, dH, tape)
            sgd_step(fe, pp, tape, 0.1)
        return flat_params(fe, pp)

    assert np.array_equal(run(), run())

