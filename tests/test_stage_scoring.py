"""Stage scoring against the references in legacy_eval.py.

After every stage of a trained run, the metrics from one scoring pass over
all test rows seen so far must equal the ones from the old t + 2 passes
exactly: accuracy rows and acc_previous equal, the average posterior
bitwise (it is computed from the very same pooled rows), every other field
unchanged. The pass runs in row blocks; it must equal the one pass over
all rows at once (legacy_eval.score_stages) bit for bit, at row counts
around the block size, with exact argmax ties, with dead features and
with a non-finite feature in the last block. The premise: the rows of a
row-blocked product, and their row sums, equal those of the full product.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_eval
from conftest import blas_versions, row_source, step_alone
from legacy_step import Stage
from uer import Run, RunGroup, init_state
from uer.evaluation import BLOCK_ROWS, accuracy, average_posterior, row_blocks, score_stages
from uer.logits import CosineScale, LogitMode, PredictorParams
from uer.net import forward_batch, init_extractor
from uer.numeric import NonFiniteError, make_rng
from uer.stream import Dataset, LabeledData, StageRows, StreamConfig, iterate_batches
from uer.trainer import FeaturesCollapsed, _collect_stage_metrics, triple_method

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


def _split(stages):
    """The stages as rows of one dataset, every stage's train and test rows
    stacked in stage order, and each stage's StageRows in it."""
    train, train_rows = row_source([(s.train.x, s.train.y) for s in stages])
    test, test_rows = row_source([(s.test.x, s.test.y) for s in stages])
    return Dataset(train, test, 2 * len(stages), DIM), \
        [StageRows(s.class_set, tr, te) for s, tr, te in zip(stages, train_rows, test_rows)]


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
    # the run reads every stage's training rows from one source
    dataset, splits = _split(stages)
    test = dataset.test
    ends = np.cumsum(test_sizes)
    stream = StreamConfig(stages=len(stages), batch_size_current=4, batch_size_memory=4)
    state = init_state(method, dataset.train, rng)
    group = RunGroup([Run(method, state)])
    for t, split in enumerate(splits, 1):
        state.stage_baseline = state.predictor.copy()
        state.stream.consumed_in_stage = 0
        for rows, y_b in iterate_batches(split, stream, rng, dataset):
            step_alone(group, rows, y_b, stream.batch_size_memory, rng)
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
    stage = _stages([n], rng)[0]
    dataset, (split,) = _split([stage])
    state = init_state(method, dataset.train, rng)
    group = RunGroup([Run(method, state)])
    for rows, y_b in iterate_batches(split, StreamConfig(stages=1, batch_size_current=5), rng,
                                     dataset):
        step_alone(group, rows, y_b, 0, rng)
    scale = CosineScale(10.0)
    assert accuracy(state, stage.test, mode, scale) == \
        legacy_eval.accuracy(state, stage.test, mode, scale)
    assert average_posterior(state, stage.test, mode, scale).tobytes() == \
        legacy_eval.average_posterior(state, stage.test, mode, scale).tobytes()


# ------------------------------------------------------------- row blocks

# below one block, exactly one, and k blocks give or take a row
ROW_COUNTS = st.one_of(
    st.integers(1, BLOCK_ROWS - 1),
    st.builds(lambda k, d: k * BLOCK_ROWS + d, st.integers(1, 3), st.sampled_from([-1, 0, 1])))

PREMISE = ("a row block of a product differs from the same rows of the full product, "
           f"so stage scoring in row blocks is not bitwise exact on this build "
           f"({blas_versions()})")


@given(n=st.integers(1, 5 * BLOCK_ROWS))
def test_row_blocks_tile_the_rows_at_block_multiples(n):
    blocks = row_blocks(n)
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert all(lo % BLOCK_ROWS == 0 for lo, _ in blocks)
    # no block is shorter than a block unless every row fits in one
    assert all(hi - lo >= min(n, BLOCK_ROWS) for lo, hi in blocks)
    assert len(blocks) == max(1, n // BLOCK_ROWS)


# also row counts whose whole product is far from small-matrix sizes, so
# a smaller BLOCK_ROWS cannot pass by making every product small
@given(n=st.one_of(ROW_COUNTS, st.integers(1, 5000)), k=st.sampled_from([1, 6, 20, 64, 256]),
       m=st.sampled_from([1, 2, 3, 8, 40, 64, 256]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_row_blocks_of_a_product_equal_its_rows(n, k, m, seed):
    rng = make_rng(seed)
    A = rng.normal(size=(n, k))
    W = rng.normal(size=(m, k))
    full = A @ W.T
    sums = np.add.reduce(full, axis=1)
    for lo, hi in row_blocks(n):
        block = A[lo:hi] @ W.T
        assert block.tobytes() == full[lo:hi].tobytes(), PREMISE
        assert np.add.reduce(block, axis=1).tobytes() == sums[lo:hi].tobytes(), PREMISE


def _scored_state(rng, in_dim, hidden, classes, tie):
    """A random extractor with negative biases, so an all-zero input row
    has all-zero features, and a scorer over `classes` shuffled labels;
    with tie, scorer row 1 copies row 0, so the two tie exactly."""
    extractor = init_extractor((in_dim, *hidden), rng)
    for layer in extractor.layers:
        layer.bias[:] = -0.05
    W = rng.normal(size=(classes, hidden[-1]))
    b = 0.1 * rng.normal(size=classes)
    if tie and classes > 1:
        W[1], b[1] = W[0], b[0]
    labels = [int(c) for c in 100 + rng.permutation(classes)]
    return SimpleNamespace(extractor=extractor, predictor=PredictorParams(W, b),
                           stream=SimpleNamespace(class_order=labels))


def _stage_ends(rng, n, stages):
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(stages, n) - 1, replace=False))
    return np.append(cuts, n)


@given(n=ROW_COUNTS, mode=st.sampled_from([LogitMode.DOT, LogitMode.COSINE]),
       in_dim=st.sampled_from([6, 20]),
       hidden=st.sampled_from([(1,), (8,), (64,), (8, 16)]),
       classes=st.integers(1, 12), tie=st.booleans(),
       dead=st.sampled_from(["none", "some", "all"]),
       stages=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_blocked_pass_matches_one_pass(n, mode, in_dim, hidden, classes, tie, dead,
                                       stages, seed):
    rng = make_rng([seed, 9])
    state = _scored_state(rng, in_dim, hidden, classes, tie)
    x = 3.0 * rng.normal(size=(n, in_dim))
    if dead == "all":
        x[:] = 0.0
    elif dead == "some":
        # zero the rows of some blocks but not all; with one block, of some rows
        blocks = row_blocks(n)
        if len(blocks) > 1:
            chosen = rng.choice(len(blocks), size=rng.integers(1, len(blocks)), replace=False)
            for j in chosen:
                x[slice(*blocks[j])] = 0.0
        else:
            x[rng.random(n) < 0.5] = 0.0
    # most rows carry the tied label, so which tied class wins matters
    y = np.where(rng.random(n) < 0.5, state.stream.class_order[min(1, classes - 1)],
                 rng.choice(state.stream.class_order, size=n))
    test = LabeledData(x, y)
    ends = _stage_ends(rng, n, stages)
    scale = CosineScale(10.0)
    new = score_stages(state, test, ends, mode, scale)
    old = legacy_eval.score_stages(state, test, ends, mode, scale)
    assert new.accuracy_row == old.accuracy_row
    assert new.acc_previous == old.acc_previous
    assert new.avg_posterior.tobytes() == old.avg_posterior.tobytes()
    assert new.collapsed == old.collapsed
    if dead == "all":
        assert new.collapsed


@given(k=st.integers(1, 3), d=st.sampled_from([0, 1, BLOCK_ROWS - 1]),
       mode=st.sampled_from([LogitMode.DOT, LogitMode.COSINE]),
       bad=st.sampled_from([np.nan, np.inf]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_non_finite_feature_in_the_last_block_raises_as_before(k, d, mode, bad, seed):
    n = (k + 1) * BLOCK_ROWS + d  # at least two blocks
    rng = make_rng([seed, 10])
    state = _scored_state(rng, 6, (8,), 5, False)
    # the last row's features all go non-finite: nan spreads through any
    # weights, +inf through the positive weights set here
    for layer in state.extractor.layers:
        layer.weight[:] = np.abs(layer.weight)
    x = rng.normal(size=(n, 6))
    x[-1] = bad
    test = LabeledData(x, rng.choice(state.stream.class_order, size=n))
    assert row_blocks(n)[-1][0] > 0 and np.isfinite(x[:row_blocks(n)[-1][0]]).all()
    errors = []
    for score in (score_stages, legacy_eval.score_stages):
        with pytest.raises(NonFiniteError) as info:
            score(state, test, [n], mode, CosineScale(10.0))
        errors.append((type(info.value), str(info.value), info.value.seeds))
    assert errors[0] == errors[1]
