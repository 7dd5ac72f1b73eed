"""Scoring rules, softmax/cross-entropy, analytic gradients, mixed replay loss.

Every formula has one implementation, on blocks of rows, so a single
sample is scored, lossed and predicted as a one-row block.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_grad_close, fd_gradient_array, sin_angles
from uer.evaluation import score_stages
from uer.logits import (EPS_NORM, CosineScale, LogitMode, PredictorParams, loss_current,
                        loss_dot, loss_replay, score_block)
from uer.net import FeatureExtractor, GradientTape, LayerParams, sgd_step
from uer.numeric import ShapeError, make_rng
from uer.stream import LabeledData

SCALE = CosineScale(10.0)


def dot_logits(pp: PredictorParams, H: np.ndarray) -> np.ndarray:
    """The shared kernel's dot score block."""
    return score_block(pp, H, (LogitMode.DOT,))[0][0]


def cosine_logits(pp: PredictorParams, H: np.ndarray, scale: CosineScale) -> np.ndarray:
    """The shared kernel's cosine score block."""
    return score_block(pp, H, (LogitMode.COSINE,), scale)[0][0]


def tape_for(pp: PredictorParams) -> GradientTape:
    shell = FeatureExtractor([LayerParams(np.zeros((pp.dim, 1)), np.zeros(pp.dim))])
    return GradientTape(shell, pp)


def conditioned_pp_h(rng, classes=4, dim=5, sin_floor=1e-3):
    """Random scorer + feature with no scorer row near-parallel to h."""
    while True:
        pp = PredictorParams(rng.normal(size=(classes, dim)),
                             0.1 * rng.normal(size=classes))
        h = rng.normal(size=dim)
        if np.linalg.norm(h) < 1e-2:
            continue
        if sin_angles(pp.W, h).min() > sin_floor:
            return pp, h


def logit_pp(logits) -> PredictorParams:
    """A scorer whose dot scores for a zero feature are the given logits."""
    b = np.asarray(logits, dtype=np.float64)
    return PredictorParams(np.zeros((len(b), 1)), b)


def dot_ce(logits, y: int) -> float:
    """The dot loss of one sample whose scores are the given logits."""
    return loss_dot(logit_pp(logits), np.zeros((1, 1)), [y])[0]


def probabilities(logits) -> np.ndarray:
    """The dot loss's softmax of the given logits, read from its bias
    gradient, which for one sample of target row 0 is softmax - onehot(0)."""
    pp = logit_pp(logits)
    tape = tape_for(pp)
    loss_dot(pp, np.zeros((1, 1)), [0], tape)
    p = tape.pred_b
    p[0] += 1.0
    return p


def identity(dim: int) -> FeatureExtractor:
    """One layer that passes a non-negative input through its ReLU unchanged."""
    return FeatureExtractor([LayerParams(np.eye(dim), np.zeros(dim))])


def predicted(pp: PredictorParams, h, mode=LogitMode.DOT) -> int:
    """The class row that stage scoring predicts for a feature h >= 0: h is
    scored once per class, labelled with that class as a stage of its own,
    and only the predicted class's stage is right."""
    c = pp.num_classes
    state = SimpleNamespace(extractor=identity(pp.dim), predictor=pp,
                            stream=SimpleNamespace(class_order=list(range(c))))
    test = LabeledData(np.tile(np.asarray(h, dtype=np.float64), (c, 1)), np.arange(c))
    row = score_stages(state, test, np.arange(1, c + 1), mode, SCALE).accuracy_row
    assert sorted(row) == [0.0] * (c - 1) + [1.0]
    return row.index(1.0)


# ------------------------------------------------------------ raw scores


def test_dot_logits_hand_arithmetic():
    pp = PredictorParams(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, -0.5]))
    np.testing.assert_allclose(dot_logits(pp, np.array([[2.0, 3.0]])), [[2.5, 2.5]],
                               atol=1e-15)


def test_dot_logits_zero_feature_returns_bias():
    pp = PredictorParams(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.7, -0.2]))
    np.testing.assert_array_equal(dot_logits(pp, np.zeros((1, 2)))[0], pp.b)


def test_dot_logits_linear_in_feature():
    rng = make_rng(1)
    pp = PredictorParams(rng.normal(size=(3, 4)), rng.normal(size=3))
    H = rng.normal(size=(1, 4))
    np.testing.assert_allclose(dot_logits(pp, 2 * H) - pp.b,
                               2 * (dot_logits(pp, H) - pp.b), atol=1e-12)


def test_dot_logits_dim_mismatch():
    # the loss kernel checks the feature width before it scores
    pp = PredictorParams(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        loss_dot(pp, np.array([[1.0, 2.0]]), [0])


@pytest.mark.parametrize("modes", [(LogitMode.DOT,), (LogitMode.COSINE,),
                                   (LogitMode.DOT, LogitMode.COSINE)],
                         ids=["dot", "cosine", "both"])
def test_score_kernels_name_both_widths_on_a_mismatch(modes):
    pp = PredictorParams(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeError, match="feature dim 2 does not match predictor dim 3"):
        score_block(pp, np.array([[1.0, 2.0]]), modes, SCALE)


def test_cosine_logits_without_a_scale_fail_as_loss_rows_does():
    pp = PredictorParams(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="cosine scoring needs a CosineScale"):
        score_block(pp, np.ones((1, 2)), (LogitMode.COSINE,), None)


def test_cosine_logits_orthogonal_is_zero():
    pp = PredictorParams(np.array([[3.0, 0.0]]), np.array([9.9]))  # bias ignored
    got = cosine_logits(pp, np.array([[0.0, 5.0]]), SCALE)[0, 0]
    assert got == pytest.approx(0.0, abs=1e-12)


def test_cosine_logits_hand_arithmetic():
    pp = PredictorParams(np.array([[1.0, 0.0]]), np.array([0.0]))
    got = cosine_logits(pp, np.array([[1.0, 1.0]]), SCALE)[0, 0]
    assert got == pytest.approx(10.0 / np.sqrt(2.0), abs=1e-12)


def test_cosine_logits_scale_invariant_in_feature():
    rng = make_rng(2)
    pp = PredictorParams(rng.normal(size=(4, 6)), rng.normal(size=4))
    H = rng.normal(size=(1, 6))
    np.testing.assert_allclose(cosine_logits(pp, 2.0 * H, SCALE),
                               cosine_logits(pp, H, SCALE), atol=1e-12)


def test_cosine_logits_zero_feature_finite():
    pp = PredictorParams(np.array([[1.0, 1.0]]), np.array([0.0]))
    out = cosine_logits(pp, np.zeros((1, 2)), SCALE)
    assert np.all(np.isfinite(out))


@given(seed=st.integers(0, 10_000), gamma=st.floats(0.5, 50))
@settings(max_examples=60, deadline=None)
def test_cosine_logits_bounded_by_gamma(seed, gamma):
    rng = make_rng(seed)
    pp = PredictorParams(rng.normal(size=(3, 4)), rng.normal(size=3))
    out = cosine_logits(pp, rng.normal(size=(1, 4)), CosineScale(gamma))
    assert np.all(np.abs(out) <= gamma + 1e-9)


def test_batch_scores_match_single():
    # a block's rows score as one-row blocks do
    rng = make_rng(3)
    pp = PredictorParams(rng.normal(size=(5, 7)), rng.normal(size=5))
    H = rng.normal(size=(6, 7))
    D = dot_logits(pp, H)
    C = cosine_logits(pp, H, SCALE)
    for i in range(6):
        np.testing.assert_allclose(D[i], dot_logits(pp, H[i:i + 1])[0], atol=1e-12)
        np.testing.assert_allclose(C[i], cosine_logits(pp, H[i:i + 1], SCALE)[0],
                                   atol=1e-12)


def test_cosine_scale_validates_gamma():
    with pytest.raises(ValueError):
        CosineScale(0.0)
    with pytest.raises(ValueError):
        CosineScale(-1.0)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="^gamma must be one positive number and finite"):
            CosineScale(bad)


# ----------------------------------------------------- softmax / entropy


def test_softmax_symmetry():
    np.testing.assert_allclose(probabilities([0.0, 0.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_hand_arithmetic():
    np.testing.assert_allclose(probabilities([np.log(2.0), 0.0]), [2 / 3, 1 / 3], atol=1e-12)


@given(
    logits=st.lists(st.floats(-500, 500, allow_nan=False), min_size=1, max_size=8),
    shift=st.floats(-100, 100, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_softmax_shift_invariance_and_simplex(logits, shift):
    p = probabilities(np.array(logits))
    q = probabilities(np.array(logits) + shift)
    np.testing.assert_allclose(p, q, atol=1e-12)
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.all(p >= 0.0)


def test_softmax_extreme_logits_stable():
    p = probabilities([1000.0, 0.0])
    assert p[0] == pytest.approx(1.0) and np.isfinite(p).all()


def test_cross_entropy_hand_values():
    assert dot_ce([0.0, 0.0], 0) == pytest.approx(np.log(2.0), abs=1e-12)
    assert dot_ce(np.log([1e-12, 1.0 - 1e-12]), 1) == pytest.approx(0.0, abs=1e-9)
    for c in (2, 3, 7):
        assert dot_ce(np.zeros(c), 1 % c) == pytest.approx(np.log(c), abs=1e-12)


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(IndexError):
        dot_ce([0.0, 0.0], 2)
    with pytest.raises(IndexError):
        dot_ce([0.0, 0.0], -1)


# ------------------------------------------------- per-sample gradients


def test_grad_dot_hand_example():
    # both rows score 0.6, so p = [0.5, 0.5]
    pp = PredictorParams(np.array([[0.3, 0.1], [0.3, -0.4]]), np.zeros(2))
    tape = tape_for(pp)
    _, dH = loss_dot(pp, np.array([[2.0, 0.0]]), [0], tape)
    np.testing.assert_allclose(tape.pred_w, [[-1.0, 0.0], [1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(tape.pred_b, [-0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(dH[0], -0.5 * pp.W[0] + 0.5 * pp.W[1], atol=1e-15)


def test_grad_dot_one_hot_probability_is_zero():
    # the other rows score 1000 lower: their probabilities underflow to 0
    pp = PredictorParams(np.ones((3, 2)), np.array([-1000.0, 0.0, -1000.0]))
    tape = tape_for(pp)
    _, dH = loss_dot(pp, np.array([[1.0, 2.0]]), [1], tape)
    assert not tape.pred_w.any() and not tape.pred_b.any()
    assert not dH.any()


def test_grad_dot_matches_finite_differences():
    rng = make_rng(11)
    for _ in range(10):
        pp, h = conditioned_pp_h(rng)
        H, rows = h[None, :], [int(rng.integers(pp.num_classes))]
        tape = tape_for(pp)
        _, dH = loss_dot(pp, H, rows, tape)

        def value():
            return loss_dot(pp, H, rows)[0]

        assert_grad_close(tape.pred_w, fd_gradient_array(value, pp.W))
        assert_grad_close(tape.pred_b, fd_gradient_array(value, pp.b))
        assert_grad_close(dH, fd_gradient_array(value, H))


def test_grad_cos_orthogonal_unit_row():
    # row [1,0] against feature [0,1]: the angular direction is the feature itself
    pp = PredictorParams(np.array([[1.0, 0.0]]), np.zeros(1))
    tape = tape_for(pp)
    H = np.array([[0.0, 1.0]])
    loss_current(pp, SCALE, H, [0], tape)  # single class: p - onehot = 0 at y=0
    assert not tape.pred_w.any()  # converged single-class case

    # two classes make the coefficient non-zero; check the direction for row 0
    pp = PredictorParams(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    tape = tape_for(pp)
    loss_current(pp, SCALE, H, [0], tape)
    p = probabilities(cosine_logits(pp, H, SCALE)[0])
    # h_hat for row 0 is (h/|h| - cos*w/|w|)/|w| = [0,1]
    np.testing.assert_allclose(tape.pred_w[0], SCALE.gamma * (p[0] - 1.0) * H[0], atol=1e-12)


def test_grad_cos_parallel_row_gets_zero_angular_gradient():
    pp = PredictorParams(np.array([[2.0, 2.0], [0.0, 1.0]]), np.zeros(2))
    tape = tape_for(pp)
    loss_current(pp, SCALE, np.array([[3.0, 3.0]]), [0], tape)  # parallel to row 0
    np.testing.assert_allclose(tape.pred_w[0], np.zeros(2), atol=1e-12)
    assert tape.pred_w[1].any()


def test_grad_cos_matches_finite_differences():
    rng = make_rng(12)
    for _ in range(10):
        pp, h = conditioned_pp_h(rng)
        H, rows = h[None, :], [int(rng.integers(pp.num_classes))]
        tape = tape_for(pp)
        _, dH = loss_current(pp, SCALE, H, rows, tape)

        def value():
            return loss_current(pp, SCALE, H, rows)[0]

        assert_grad_close(tape.pred_w, fd_gradient_array(value, pp.W))
        assert_grad_close(dH, fd_gradient_array(value, H))
        assert not tape.pred_b.any()  # cosine scores carry no bias term


def test_grad_cos_row_gradient_orthogonal_to_row():
    rng = make_rng(13)
    pp, h = conditioned_pp_h(rng, classes=5, dim=6)
    tape = tape_for(pp)
    loss_current(pp, SCALE, h[None, :], [2], tape)
    for j in range(5):
        assert abs(tape.pred_w[j] @ pp.W[j]) < 1e-9 * np.linalg.norm(pp.W[j]) \
            * max(np.linalg.norm(tape.pred_w[j]), 1e-30) + 1e-12


# ------------------------------------------------------------ batch losses


def test_loss_current_orthogonal_closed_form():
    # two orthogonal rows, feature aligned with the target row:
    # cos scores are (gamma, 0) so the loss is -ln(e^g / (e^g + 1))
    pp = PredictorParams(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    H = np.array([[2.5, 0.0]])
    loss, _ = loss_current(pp, SCALE, H, [0])
    expected = float(np.log1p(np.exp(-10.0)))
    assert loss == pytest.approx(expected, rel=1e-12)
    assert loss == pytest.approx(4.5398899216870535e-05, rel=1e-9)


def test_loss_mean_invariant_under_duplication():
    rng = make_rng(14)
    pp, h = conditioned_pp_h(rng)
    H1 = h[None, :]
    H2 = np.vstack([h, h])
    for fn in (lambda H, r: loss_dot(pp, H, r),
               lambda H, r: loss_current(pp, SCALE, H, r)):
        l1, _ = fn(H1, [1])
        l2, _ = fn(H2, [1, 1])
        assert l2 == pytest.approx(l1, rel=1e-12)


def test_loss_dot_empty_batch_rejected():
    pp = PredictorParams(np.ones((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        loss_dot(pp, np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_loss_label_out_of_range_rejected():
    pp = PredictorParams(np.ones((2, 2)), np.zeros(2))
    with pytest.raises(IndexError):
        loss_dot(pp, np.ones((1, 2)), [5])


def test_loss_gradients_match_finite_differences_batch():
    rng = make_rng(15)
    pp, _ = conditioned_pp_h(rng, classes=4, dim=5)
    H = np.stack([conditioned_pp_h(rng, classes=4, dim=5)[1] for _ in range(3)])
    # use rows of the fixed pp for all three features
    rows = np.array([0, 3, 1])

    for name, run, value in [
        ("dot",
         lambda t: loss_dot(pp, H, rows, t),
         lambda: loss_dot(pp, H, rows)[0]),
        ("cos",
         lambda t: loss_current(pp, SCALE, H, rows, t),
         lambda: loss_current(pp, SCALE, H, rows)[0]),
        ("mixed",
         lambda t: loss_replay(pp, SCALE, 0.3, H, rows, t),
         lambda: loss_replay(pp, SCALE, 0.3, H, rows)[0]),
    ]:
        tape = tape_for(pp)
        _, dH = run(tape)
        assert_grad_close(tape.pred_w, fd_gradient_array(value, pp.W))
        assert_grad_close(tape.pred_b, fd_gradient_array(value, pp.b))
        assert_grad_close(dH, fd_gradient_array(value, H))


def test_loss_replay_alpha_one_is_bitwise_dot():
    rng = make_rng(16)
    pp, _ = conditioned_pp_h(rng)
    H = rng.normal(size=(4, 5))
    rows = rng.integers(0, 4, size=4)
    t1, t2 = tape_for(pp), tape_for(pp)
    l_mix, d_mix = loss_replay(pp, SCALE, 1.0, H, rows, t1)
    l_dot, d_dot = loss_dot(pp, H, rows, t2)
    assert l_mix == l_dot  # bit-for-bit: the cosine branch never runs
    assert np.array_equal(d_mix, d_dot)
    assert np.array_equal(t1.pred_w, t2.pred_w)
    assert np.array_equal(t1.pred_b, t2.pred_b)


def test_loss_replay_alpha_zero_is_bitwise_cosine():
    rng = make_rng(17)
    pp, _ = conditioned_pp_h(rng)
    H = rng.normal(size=(4, 5))
    rows = rng.integers(0, 4, size=4)
    t1, t2 = tape_for(pp), tape_for(pp)
    l_mix, d_mix = loss_replay(pp, SCALE, 0.0, H, rows, t1)
    l_cos, d_cos = loss_current(pp, SCALE, H, rows, t2)
    assert l_mix == l_cos
    assert np.array_equal(d_mix, d_cos)
    assert np.array_equal(t1.pred_w, t2.pred_w)
    assert np.array_equal(t1.pred_b, t2.pred_b)


def test_loss_replay_midpoint_is_arithmetic_mean():
    rng = make_rng(18)
    pp, _ = conditioned_pp_h(rng)
    H = rng.normal(size=(3, 5))
    rows = rng.integers(0, 4, size=3)
    l_half, _ = loss_replay(pp, SCALE, 0.5, H, rows)
    l_dot, _ = loss_dot(pp, H, rows)
    l_cos, _ = loss_current(pp, SCALE, H, rows)
    assert l_half == pytest.approx(0.5 * (l_dot + l_cos), abs=1e-12)


@given(alpha=st.floats(0, 1, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_loss_replay_interpolates_linearly(alpha):
    rng = make_rng(19)
    pp = PredictorParams(rng.normal(size=(3, 4)), rng.normal(size=3))
    H = rng.normal(size=(2, 4))
    rows = np.array([0, 2])
    l_mix, _ = loss_replay(pp, SCALE, alpha, H, rows)
    l_dot, _ = loss_dot(pp, H, rows)
    l_cos, _ = loss_current(pp, SCALE, H, rows)
    assert l_mix == pytest.approx(alpha * l_dot + (1 - alpha) * l_cos, abs=1e-10)


def test_loss_replay_rejects_alpha_outside_range():
    pp = PredictorParams(np.ones((2, 2)), np.zeros(2))
    for bad in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"alpha out of \[0,1\]"):
            loss_replay(pp, SCALE, bad, np.ones((1, 2)), [0])


# --------------------------------------------------------------- predict


def test_predict_tie_break_lowest_index():
    pp = PredictorParams(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, -0.5]))
    assert predicted(pp, [2.0, 3.0]) == 0  # scores tie at 2.5


def test_predict_direct_argmax():
    pp = PredictorParams(np.eye(3), np.zeros(3))
    assert predicted(pp, [1.0, 3.0, 2.0]) == 1


def test_predict_matches_softmax_argmax():
    rng = make_rng(20)
    for _ in range(20):
        pp = PredictorParams(rng.normal(size=(4, 3)), rng.normal(size=4))
        H = np.abs(rng.normal(size=(1, 3)))
        p = probabilities(dot_logits(pp, H)[0])
        assert predicted(pp, H[0]) == int(np.argmax(p))


def test_predict_invariant_under_monotone_transforms():
    rng = make_rng(21)
    pp = PredictorParams(rng.normal(size=(5, 4)), rng.normal(size=5))
    H = np.abs(rng.normal(size=(1, 4)))
    scores = dot_logits(pp, H)[0]
    base = int(np.argmax(scores))
    assert predicted(pp, H[0]) == base
    for transformed in (np.exp(scores / 10), 3.0 * scores + 7.0):
        assert int(np.argmax(transformed)) == base


def test_predict_batch_modes():
    rng = make_rng(22)
    pp = PredictorParams(rng.normal(size=(3, 4)), rng.normal(size=3))
    H = np.abs(rng.normal(size=(6, 4)))
    dot, cos = dot_logits(pp, H), cosine_logits(pp, H, SCALE)
    for i in range(6):
        assert predicted(pp, H[i], LogitMode.DOT) == int(np.argmax(dot[i]))
        assert predicted(pp, H[i], LogitMode.COSINE) == int(np.argmax(cos[i]))


def test_predict_requires_registered_classes():
    state = SimpleNamespace(extractor=identity(3), predictor=PredictorParams.empty(3),
                            stream=SimpleNamespace(class_order=[]))
    test = LabeledData(np.array([[1.0, 2.0, 3.0]]), np.array([0]))
    with pytest.raises(ValueError, match="no registered classes"):
        score_stages(state, test, [1], LogitMode.DOT, SCALE)


# ----------------------------------------------- scorer row bookkeeping


def test_add_class_appends_without_reordering():
    rng = make_rng(23)
    pp = PredictorParams(rng.normal(size=(2, 3)), rng.normal(size=2))
    H = rng.normal(size=(1, 3))
    before = dot_logits(pp, H)[0]
    idx = pp.add_class(rng.normal(size=3), 0.25)
    assert idx == 2 and pp.num_classes == 3
    after = dot_logits(pp, H)[0]
    np.testing.assert_allclose(after[:2], before, atol=1e-12)
    assert pp.b[2] == 0.25


def test_add_class_rejects_wrong_dim():
    pp = PredictorParams.empty(3)
    with pytest.raises(ShapeError):
        pp.add_class(np.ones(2))


def test_gradient_competition_sign_structure():
    # one dot-CE step on a non-negative feature: the target row w_y moves up
    # wherever h > 0, every other row moves down there
    rng = make_rng(24)
    for _ in range(10):
        pp = PredictorParams(rng.normal(size=(4, 6)), rng.normal(size=4))
        H = np.abs(rng.normal(size=(1, 6))) + 0.01  # strictly positive feature
        y = int(rng.integers(4))
        p = probabilities(dot_logits(pp, H)[0])
        assert p[y] < 1.0  # not converged
        tape = tape_for(pp)
        loss_dot(pp, H, [y], tape)
        before = pp.W.copy()
        shell = FeatureExtractor([LayerParams(np.zeros((6, 1)), np.zeros(6))])
        sgd_step(shell, pp, tape, 0.1)
        delta = pp.W - before
        assert np.all(delta[y] > 0.0)
        others = [j for j in range(4) if j != y]
        assert np.all(delta[others] < 0.0)


def test_eps_norm_is_tiny_positive():
    assert 0 < EPS_NORM <= 1e-9
