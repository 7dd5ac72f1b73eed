"""One-pass stage scoring against the per-stage reference in legacy_eval.py.

After every stage of a trained run, the metrics from one forward pass over
all test rows seen so far must equal the ones from the old t + 2 passes
exactly: accuracy rows and acc_previous equal, the average posterior
bitwise (it is computed from the very same pooled rows), every other field
unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_eval
from uer.evaluation import accuracy, average_posterior
from uer.logits import CosineScale, LogitMode
from uer.net import forward_batch
from uer.numeric import make_rng
from uer.stream import LabeledData, Stage, StreamConfig, iterate_batches
from uer.trainer import (FeaturesCollapsed, _collect_stage_metrics, init_state, train_step,
                         triple_method)

DIM = 6


def _stages(test_sizes, rng):
    """Two classes per stage, 12 train rows each stage, the given test rows."""
    stages = []
    for j, n_test in enumerate(test_sizes):
        classes = (2 * j, 2 * j + 1)
        means = rng.normal(scale=2.0, size=(2, DIM))
        y_tr = np.repeat(classes, 6)
        y_te = rng.choice(classes, size=n_test)
        stages.append(Stage(
            index=j + 1, class_set=classes,
            train=LabeledData(means[y_tr - 2 * j] + rng.normal(size=(12, DIM)), y_tr),
            test=LabeledData(means[y_te - 2 * j] + rng.normal(size=(n_test, DIM)), y_te)))
    return stages


@given(test_mode=st.sampled_from(["dot", "cosine"]),
       learn=st.sampled_from(["dot", "cosine"]),
       test_sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
       lr=st.sampled_from([0.01, 0.1, 0.3]),
       seed=st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_one_pass_matches_per_stage_passes(test_mode, learn, test_sizes, lr, seed):
    method = triple_method("probe", learn, "mixed", test_mode, alpha=0.5, lr=lr,
                           hidden_dims=(8,), buffer_capacity=20)
    rng = make_rng([seed, 7])
    stages = _stages(test_sizes, rng)
    test = LabeledData(np.concatenate([s.test.x for s in stages]),
                       np.concatenate([s.test.y for s in stages]))
    ends = np.cumsum(test_sizes)
    stream = StreamConfig(stages=len(stages), batch_size_current=4, batch_size_memory=4)
    state = init_state(method, DIM, rng)
    for t, stage in enumerate(stages, 1):
        state.stage_baseline = state.predictor.copy()
        state.consumed_in_stage = 0
        for x_b, y_b in iterate_batches(stage, stream, rng):
            train_step(state, x_b, y_b, method, stream.batch_size_memory, rng)
        if not forward_batch(state.extractor, test.x[:ends[t - 1]])[0].any():
            # no live feature on any scored row: the run fails instead
            with pytest.raises(FeaturesCollapsed, match=f"^stage {t}: features collapsed"):
                _collect_stage_metrics(state, stages, t, method, test, ends)
            return
        new = _collect_stage_metrics(state, stages, t, method, test, ends)
        old = legacy_eval.collect_stage_metrics(state, stages, t, method)
        assert new.accuracy_row == old.accuracy_row
        assert new.acc_previous == old.acc_previous
        assert (np.asarray(new.avg_posterior).tobytes()
                == np.asarray(old.avg_posterior).tobytes())
        assert new == old


@given(mode=st.sampled_from([LogitMode.DOT, LogitMode.COSINE]),
       n=st.integers(1, 30), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_wrappers_match_reference(mode, n, seed):
    rng = make_rng([seed, 8])
    method = triple_method("probe", "cosine", "mixed", mode.value, hidden_dims=(8,))
    state = init_state(method, DIM, rng)
    stage = _stages([n], rng)[0]
    for x_b, y_b in iterate_batches(stage, StreamConfig(stages=1, batch_size_current=5), rng):
        train_step(state, x_b, y_b, method, 0, rng)
    scale = CosineScale(10.0)
    assert accuracy(state, stage.test, mode, scale) == \
        legacy_eval.accuracy(state, stage.test, mode, scale)
    assert average_posterior(state, stage.test, mode, scale).tobytes() == \
        legacy_eval.average_posterior(state, stage.test, mode, scale).tobytes()
