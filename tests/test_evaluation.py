"""Accuracy, bias diagnostics, posterior summaries, metrics files."""

import json
from dataclasses import fields

import numpy as np
import pytest

from uer.evaluation import (StageMetrics, accuracy, average_accuracy,
                            average_posterior, bias_diagnostics,
                            posterior_group_means, read_metrics, score_stages,
                            stage_metrics_to_dict, write_metrics)
from uer.logits import CosineScale, LogitMode, PredictorParams
from uer.net import FeatureExtractor, LayerParams
from uer.numeric import make_rng
from uer.stream import LabeledData

SCALE = CosineScale(10.0)


class FrozenState:
    """Identity extractor plus a fixed scorer, enough for scoring paths."""

    def __init__(self, W, b, class_order=None):
        dim = np.asarray(W).shape[1]
        self.extractor = FeatureExtractor(
            [LayerParams(np.eye(dim), np.zeros(dim))])
        self.predictor = PredictorParams(np.asarray(W, float), np.asarray(b, float))
        self.class_order = list(range(len(b))) if class_order is None else class_order


def metrics_fixture(stage=2, with_prev=True):
    return StageMetrics(
        stage=stage,
        class_order=[3, 1, 4, 0],
        current_classes=[4, 0],
        accuracy_row=[0.8, 0.6],
        average_accuracy=0.7,
        acc_previous=0.8 if with_prev else None,
        acc_current=0.6,
        norm_prev=2.0 if with_prev else None,
        norm_curr=1.0,
        mean_w_prev=0.1 if with_prev else None,
        std_w_prev=0.05 if with_prev else None,
        mean_w_curr=0.2,
        std_w_curr=0.07,
        mean_b_prev=0.3 if with_prev else None,
        mean_b_curr=-0.3,
        accumulated_param_change=5.5,
        avg_posterior=[0.4, 0.3, 0.2, 0.1],
        consumed_samples=100,
    )


# -------------------------------------------------------------- accuracy


def test_accuracy_degenerate_always_right():
    # one giant bias makes class 0 win every time
    state = FrozenState(np.zeros((2, 3)), [100.0, 0.0])
    test = LabeledData(make_rng(0).normal(size=(20, 3)), np.zeros(20, dtype=int))
    assert accuracy(state, test, LogitMode.DOT, SCALE) == 1.0


def test_accuracy_uses_class_order_mapping():
    # scorer row 0 belongs to dataset label 7, row 1 to label 3
    state = FrozenState(np.array([[5.0, 0.0], [0.0, 5.0]]), [0.0, 0.0],
                        class_order=[7, 3])
    test = LabeledData(np.array([[1.0, 0.0], [0.0, 1.0]]),
                       np.array([7, 3]))
    assert accuracy(state, test, LogitMode.DOT, SCALE) == 1.0
    flipped = LabeledData(test.x, np.array([3, 7]))
    assert accuracy(state, flipped, LogitMode.DOT, SCALE) == 0.0


def test_accuracy_random_scorer_near_half():
    rng = make_rng(31)
    state = FrozenState(rng.normal(size=(2, 8)), rng.normal(size=2))
    x = rng.normal(size=(10_000, 8))
    y = rng.integers(0, 2, size=10_000)
    a = accuracy(state, LabeledData(x, y), LogitMode.DOT, SCALE)
    assert abs(a - 0.5) < 0.02  # Bernoulli bound, fixed seed


def test_accuracy_range_and_modes():
    rng = make_rng(32)
    state = FrozenState(rng.normal(size=(3, 4)), rng.normal(size=3))
    data = LabeledData(rng.normal(size=(50, 4)), rng.integers(0, 3, size=50))
    for mode in (LogitMode.DOT, LogitMode.COSINE):
        a = accuracy(state, data, mode, SCALE)
        assert 0.0 <= a <= 1.0


def test_accuracy_rejects_empty_test_set():
    state = FrozenState(np.ones((1, 2)), [0.0])
    with pytest.raises(ValueError):
        accuracy(state, LabeledData(np.zeros((0, 2)), np.zeros(0, dtype=int)),
                 LogitMode.DOT, SCALE)


def test_average_accuracy_laws():
    assert average_accuracy([0.8, 0.6]) == pytest.approx(0.7, abs=1e-12)
    assert average_accuracy([0.37]) == 0.37
    assert average_accuracy([0.1, 0.5, 0.9]) == \
        pytest.approx(average_accuracy([0.9, 0.1, 0.5]), abs=1e-15)
    with pytest.raises(ValueError):
        average_accuracy([])


# ------------------------------------------------------------ posteriors


def test_average_posterior_uniform_scorer():
    state = FrozenState(np.zeros((4, 3)), np.zeros(4))
    data = LabeledData(make_rng(1).normal(size=(9, 3)), np.zeros(9, dtype=int))
    post = average_posterior(state, data, LogitMode.DOT, SCALE)
    np.testing.assert_allclose(post, 0.25, atol=1e-12)


def test_average_posterior_sums_to_one():
    rng = make_rng(33)
    state = FrozenState(rng.normal(size=(5, 4)), rng.normal(size=5))
    data = LabeledData(rng.normal(size=(40, 4)), rng.integers(0, 5, size=40))
    for mode in (LogitMode.DOT, LogitMode.COSINE):
        post = average_posterior(state, data, mode, SCALE)
        assert post.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(post > 0.0)


# ------------------------------------------------- one-pass stage scoring


def test_score_stages_slices_one_score_matrix_per_stage():
    # scorer row 0 (label 5) wins for x[0] > x[1], row 1 (label 2) otherwise
    state = FrozenState(np.eye(2), [0.0, 0.0], class_order=[5, 2])
    x = np.array([[1.0, 0.0], [0.0, 1.0],                # stage 1: right, wrong
                  [0.0, 2.0],                            # stage 2: right
                  [3.0, 0.0], [3.0, 0.0], [0.0, 3.0]])   # stage 3: right, wrong, right
    y = np.array([5, 5, 2, 5, 2, 2])
    scores = score_stages(state, LabeledData(x, y), [2, 3, 6], LogitMode.DOT, SCALE)
    assert scores.accuracy_row == [0.5, 1.0, 2 / 3]
    assert scores.acc_previous == 2 / 3  # the first 3 rows
    expected = average_posterior(state, LabeledData(x, y), LogitMode.DOT, SCALE)
    assert scores.avg_posterior.tobytes() == expected.tobytes()
    single = score_stages(state, LabeledData(x, y), [6], LogitMode.DOT, SCALE)
    assert single.accuracy_row == [4 / 6] and single.acc_previous is None


def test_score_stages_rejects_empty_stage_and_bad_ends():
    state = FrozenState(np.eye(2), [0.0, 0.0])
    data = LabeledData(np.eye(2), np.array([0, 1]))
    with pytest.raises(ValueError, match="empty test set .stage 2"):
        score_stages(state, data, [1, 1, 2], LogitMode.DOT, SCALE)
    for ends in ([1], [1, 3], []):
        with pytest.raises(ValueError, match="do not end"):
            score_stages(state, data, ends, LogitMode.DOT, SCALE)


def test_score_stages_reports_all_zero_features():
    # every row below the ReLU's kink: the scores are the biases alone
    state = FrozenState(np.eye(2), [0.0, 1.0])
    data = LabeledData(-np.ones((3, 2)), np.array([0, 1, 1]))
    scores = score_stages(state, data, [1, 3], LogitMode.DOT, SCALE)
    assert scores.collapsed and scores.accuracy_row == [0.0, 1.0]
    data.x[2, 0] = 1.0  # one live row is enough
    scores = score_stages(state, data, [1, 3], LogitMode.DOT, SCALE)
    assert not scores.collapsed and scores.accuracy_row == [0.0, 0.5]


def test_posterior_group_means_per_class_average():
    m = metrics_fixture()
    prev_mean, curr_mean = posterior_group_means(m)
    # previous classes are 3 and 1 (order positions 0 and 1)
    assert prev_mean == pytest.approx((0.4 + 0.3) / 2, abs=1e-12)
    assert curr_mean == pytest.approx((0.2 + 0.1) / 2, abs=1e-12)


def test_posterior_group_means_first_stage_has_no_previous():
    m = metrics_fixture()
    m.current_classes = [3, 1, 4, 0]
    prev_mean, curr_mean = posterior_group_means(m)
    assert prev_mean is None
    assert curr_mean == pytest.approx(0.25, abs=1e-12)


# ------------------------------------------------------------ diagnostics


def test_bias_diagnostics_identity_baseline_zero_change():
    rng = make_rng(34)
    pp = PredictorParams(rng.normal(size=(4, 3)), rng.normal(size=4))
    d = bias_diagnostics(pp, [0, 1], [2, 3], pp.copy())
    assert d.accumulated_param_change == 0.0


def test_bias_diagnostics_hand_arithmetic():
    pp = PredictorParams(np.array([[3.0, 4.0], [1.0, 0.0]]), np.array([-0.2, 0.5]))
    d = bias_diagnostics(pp, [0], [1], pp.copy())
    assert d.norm_prev == pytest.approx(5.0, abs=1e-12)
    assert d.mean_b_prev == pytest.approx(-0.2, abs=1e-12)
    assert d.norm_curr == pytest.approx(1.0, abs=1e-12)
    assert d.mean_b_curr == pytest.approx(0.5, abs=1e-12)
    assert d.mean_w_prev == pytest.approx(3.5, abs=1e-12)
    assert d.std_w_prev == pytest.approx(0.5, abs=1e-12)


def test_bias_diagnostics_l1_change():
    pp = PredictorParams(np.array([[1.0, 1.0]]), np.array([2.0]))
    base = PredictorParams(np.array([[0.5, 2.0]]), np.array([1.0]))
    d = bias_diagnostics(pp, [], [0], base)
    assert d.accumulated_param_change == pytest.approx(0.5 + 1.0 + 1.0, abs=1e-12)


def test_bias_diagnostics_empty_group_fields_absent():
    pp = PredictorParams(np.ones((2, 2)), np.zeros(2))
    d = bias_diagnostics(pp, [], [0, 1], pp.copy())
    assert d.norm_prev is None and d.mean_b_prev is None
    assert d.norm_curr is not None


def test_bias_diagnostics_validates_partition():
    pp = PredictorParams(np.ones((3, 2)), np.zeros(3))
    with pytest.raises(ValueError, match="overlap"):
        bias_diagnostics(pp, [0, 1], [1, 2], pp.copy())
    with pytest.raises(ValueError, match="cover"):
        bias_diagnostics(pp, [0], [1], pp.copy())
    small = PredictorParams(np.ones((2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        bias_diagnostics(pp, [0, 1], [2], small)


def test_bias_diagnostics_pure():
    rng = make_rng(35)
    pp = PredictorParams(rng.normal(size=(4, 3)), rng.normal(size=4))
    base = PredictorParams(rng.normal(size=(4, 3)), rng.normal(size=4))
    a = bias_diagnostics(pp, [0, 1], [2, 3], base)
    b = bias_diagnostics(pp, [0, 1], [2, 3], base)
    assert a == b


# ---------------------------------------------------------- metrics files


def test_metrics_round_trip_and_key_order(tmp_path):
    path = tmp_path / "m.jsonl"
    write_metrics(path, [metrics_fixture(stage=1, with_prev=False),
                         metrics_fixture(stage=2)])
    rows = read_metrics(path)
    assert len(rows) == 2
    assert rows[1]["average_accuracy"] == 0.7
    # keys appear in declaration order, None fields dropped
    expected_full = [f.name for f in fields(StageMetrics)]
    assert list(rows[1].keys()) == expected_full
    dropped = {"acc_previous", "norm_prev", "mean_w_prev", "std_w_prev",
               "mean_b_prev"}
    assert list(rows[0].keys()) == [k for k in expected_full if k not in dropped]


def test_metrics_file_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_metrics(a, [metrics_fixture()])
    write_metrics(b, [metrics_fixture()])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_stage_metrics_to_dict_json_types():
    d = stage_metrics_to_dict(metrics_fixture())
    text = json.dumps(d)  # everything must be JSON-serializable
    assert json.loads(text)["consumed_samples"] == 100
    assert "acc_previous" in d
    d0 = stage_metrics_to_dict(metrics_fixture(with_prev=False))
    assert "acc_previous" not in d0


def test_average_recomputes_from_row():
    m = metrics_fixture()
    assert average_accuracy(m.accuracy_row) == pytest.approx(m.average_accuracy,
                                                             abs=1e-12)
