"""Seeds trained in lockstep against the same seeds trained one at a time.

The premise: every kernel of the training step (forward_batch, loss_rows,
backward_batch, sgd_step) computes each slice of a block stacked on a
leading axis exactly as its 2-d call on that slice would, bit for bit,
also when each slice carries its own alpha and weight rows, and when the
slices take different loss branches, in any order.
On top of it, one method's seeds trained together (run_trajectories, one
stream per seed) must give the very same metrics bytes and losses as
legacy_step.per_seed_run, which trains each alone, whatever the other
seeds do: split off at a class-count or batch mismatch, fall out of
phase, or diverge. A run alone steps as a part of one, on blocks stacked
like every other part's, and must match the same oracle.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import legacy_step
import uer.trainer
from conftest import blas_versions, losses_of, overflowing_features, overflowing_scores, \
    step_alone, step_start, with_train_row
from uer import RunGroup, init_run
from uer.evaluation import stage_metrics_to_dict
from uer.logits import CosineScale, LogitMode, PredictorParams, _row_starts, _softmax_ce, \
    loss_rows
from uer.net import (FeatureExtractor, GradientTape, LayerParams, backward_batch,
                     forward_batch, sgd_step)
from uer.numeric import NonFiniteError, Workspace, make_rng, require_finite
from uer.stream import Dataset, LabeledData, StreamConfig, gen_synthetic, make_sphere_spec
from uer.trainer import (er_method, finetune_method, lucir_method, run_experiment,
                         run_trajectories, uer_a_method, uer_method)


PREMISE = ("a slice of a stacked call differs from the 2-d call on it, so seeds "
           f"cannot train in lockstep bitwise on this build ({blas_versions()})")


def _same(stacked_slice, alone, what):
    assert stacked_slice.shape == alone.shape, what
    assert stacked_slice.tobytes() == alone.tobytes(), f"{what}: {PREMISE}"


# ------------------------------------------------------------- premise


@given(seeds=st.integers(1, 4), n=st.integers(1, 24),
       dims=st.lists(st.integers(1, 40), min_size=2, max_size=3),
       classes=st.integers(1, 12), alpha=st.sampled_from([0.3, 0.5]),
       seed=st.integers(0, 2**32 - 1))
@example(seeds=1, n=1, dims=[1, 1], classes=1, alpha=0.5, seed=0)
@example(seeds=3, n=1, dims=[5, 1, 7], classes=3, alpha=0.5, seed=1)
@example(seeds=2, n=288, dims=[128, 256, 256], classes=10, alpha=0.5, seed=2)
@example(seeds=1, n=288, dims=[128, 256, 256], classes=10, alpha=0.5, seed=3)
@settings(max_examples=60, deadline=None)
def test_stacked_kernels_equal_2d_calls_bitwise(seeds, n, dims, classes, alpha, seed):
    rng = make_rng(seed)
    weights = [rng.normal(size=(seeds, o, i)) / np.sqrt(i) for i, o in zip(dims, dims[1:])]
    biases = [rng.normal(scale=0.1, size=(seeds, o)) for o in dims[1:]]
    X = rng.normal(size=(seeds, n, dims[0]))
    W, b = rng.normal(size=(seeds, classes, dims[-1])), rng.normal(size=(seeds, classes))
    rows = rng.integers(0, classes, size=(seeds, n))
    a = rng.choice([0.0, alpha, 1.0], size=n)  # per-row mix: dot, mixed, cosine
    w = rng.uniform(0.05, 1.0, size=n)
    scale = CosineScale(10.0)

    alone = [(FeatureExtractor([LayerParams(wk[s].copy(), bk[s].copy())
                                for wk, bk in zip(weights, biases)]),
              PredictorParams(W[s].copy(), b[s].copy())) for s in range(seeds)]
    fe = FeatureExtractor([LayerParams(wk, bk) for wk, bk in zip(weights, biases)])
    pp = PredictorParams(W, b)
    tape = GradientTape(fe, pp)
    H, acts = forward_batch(fe, X)
    ce, dH = loss_rows(pp, scale, a, H, rows, w, tape)
    dz = backward_batch(fe, acts, dH, tape)
    grads = [g.copy() for g in (*tape.layer_w, *tape.layer_b, tape.pred_w, tape.pred_b)]
    sgd_step(fe, pp, tape, 0.1)

    for s, (fe_s, pp_s) in enumerate(alone):
        tape_s = GradientTape(fe_s, pp_s)
        H_s, acts_s = forward_batch(fe_s, X[s])
        _same(H[s], H_s, "forward_batch features")
        for k, (act, act_s) in enumerate(zip(acts, acts_s)):
            _same(act[s], act_s, f"forward_batch activation {k}")
        ce_s, dH_s = loss_rows(pp_s, scale, a, H_s, rows[s], w, tape_s)
        _same(ce[s], ce_s, "loss_rows cross-entropy")
        _same(dH[s], dH_s, "loss_rows dH")
        _same(dz[s], backward_batch(fe_s, acts_s, dH_s, tape_s), "backward_batch dz")
        grads_s = (*tape_s.layer_w, *tape_s.layer_b, tape_s.pred_w, tape_s.pred_b)
        for k, (g, g_s) in enumerate(zip(grads, grads_s)):
            _same(g[s], g_s, f"gradient block {k}")
        sgd_step(fe_s, pp_s, tape_s, 0.1)
        for k, (layer, layer_s) in enumerate(zip(fe.layers, fe_s.layers)):
            _same(layer.weight[s], layer_s.weight, f"sgd_step layer {k} weight")
            _same(layer.bias[s], layer_s.bias, f"sgd_step layer {k} bias")
        _same(pp.W[s], pp_s.W, "sgd_step class rows")
        _same(pp.b[s], pp_s.b, "sgd_step class biases")


@given(kinds=st.lists(st.sampled_from(["dot", "both", "cosine"]), min_size=1, max_size=4),
       n=st.integers(1, 24), dims=st.lists(st.integers(1, 40), min_size=2, max_size=3),
       classes=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(kinds=["both"], n=1, dims=[1, 1], classes=1, seed=0)
@example(kinds=["cosine"] * 3, n=1, dims=[5, 1, 7], classes=3, seed=1)
@example(kinds=["both"] * 4, n=20, dims=[20, 64], classes=10, seed=2)
@example(kinds=["dot", "both", "cosine"], n=1, dims=[5, 1, 7], classes=1, seed=3)
@example(kinds=["dot", "dot", "cosine"], n=3, dims=[4, 6], classes=2, seed=4)
@example(kinds=["both"] * 6 + ["cosine"] * 3, n=20, dims=[20, 64], classes=10, seed=5)
# one class: every entry of the score gradient is a signed zero
@example(kinds=["cosine", "dot"], n=1, dims=[5, 1, 7], classes=1, seed=3)
@settings(max_examples=60, deadline=None)
def test_per_slice_settings_equal_2d_calls_bitwise(kinds, n, dims, classes, seed):
    # each slice is a run with its own alpha and weight rows, sharing one
    # gamma and lr with the others; the slices take dot only, both or
    # cosine only, in any order, as the runs of a part do
    slices = len(kinds)
    rng = make_rng(seed)
    weights = [rng.normal(size=(slices, o, i)) / np.sqrt(i) for i, o in zip(dims, dims[1:])]
    biases = [rng.normal(scale=0.1, size=(slices, o)) for o in dims[1:]]
    X = rng.normal(size=(slices, n, dims[0]))
    W, b = rng.normal(size=(slices, classes, dims[-1])), rng.normal(size=(slices, classes))
    rows = rng.integers(0, classes, size=(slices, n))
    # a mixed first row makes a slice use both branches
    a = rng.choice([0.0, 1.0, 0.5], size=(slices, n))
    a[:, 0] = rng.uniform(0.05, 0.95, size=slices)
    a[[k == "dot" for k in kinds]] = 1.0
    a[[k == "cosine" for k in kinds]] = 0.0
    w = rng.uniform(0.05, 1.0, size=(slices, n))
    gamma, lr = float(rng.uniform(1.0, 16.0)), float(rng.uniform(0.01, 0.5))

    fe = FeatureExtractor([LayerParams(wk.copy(), bk.copy()) for wk, bk in zip(weights, biases)])
    pp = PredictorParams(W.copy(), b.copy())
    tape = GradientTape(fe, pp)
    H, acts = forward_batch(fe, X)
    ce, dH = loss_rows(pp, CosineScale(gamma), a, H, rows, w, tape)
    backward_batch(fe, acts, dH, tape)
    grads = [g.copy() for g in (*tape.layer_w, *tape.layer_b, tape.pred_w, tape.pred_b)]
    sgd_step(fe, pp, tape, lr)

    for s in range(slices):
        fe_s = FeatureExtractor([LayerParams(wk[s].copy(), bk[s].copy())
                                 for wk, bk in zip(weights, biases)])
        pp_s = PredictorParams(W[s].copy(), b[s].copy())
        tape_s = GradientTape(fe_s, pp_s)
        H_s, acts_s = forward_batch(fe_s, X[s])
        ce_s, dH_s = loss_rows(pp_s, CosineScale(gamma), a[s], H_s, rows[s], w[s], tape_s)
        _same(ce[s], ce_s, "loss_rows cross-entropy")
        _same(dH[s], dH_s, "loss_rows dH")
        backward_batch(fe_s, acts_s, dH_s, tape_s)
        grads_s = (*tape_s.layer_w, *tape_s.layer_b, tape_s.pred_w, tape_s.pred_b)
        for k, (g, g_s) in enumerate(zip(grads, grads_s)):
            _same(g[s], g_s, f"gradient block {k}")
        sgd_step(fe_s, pp_s, tape_s, lr)
        for k, (layer, layer_s) in enumerate(zip(fe.layers, fe_s.layers)):
            _same(layer.weight[s], layer_s.weight, f"sgd_step layer {k} weight")
            _same(layer.bias[s], layer_s.bias, f"sgd_step layer {k} bias")
        _same(pp.W[s], pp_s.W, "sgd_step class rows")
        _same(pp.b[s], pp_s.b, "sgd_step class biases")


@pytest.mark.parametrize("alpha", [
    [[1.0, 1.0], [1.0, 0.5]],  # pure dot, then mixed
    [[0.0, 0.0], [0.5, 0.5]],  # pure cosine ahead of mixed
    [[1.0, 1.0], [0.0, 0.0]],  # pure dot, then pure cosine
    [[0.0, 0.0], [1.0, 1.0]],  # pure cosine ahead of pure dot
], ids=["dot-then-mixed", "cosine-then-mixed", "dot-then-cosine", "cosine-then-dot"])
def test_slices_that_take_different_branches_need_branch_order(alpha):
    # the name dates from when a stack out of branch order was rejected;
    # it is kept so the cases keep their ids. Now each branch runs over
    # both slices, so a pure-dot slice meets 0 * cosine and a pure-cosine
    # one 0 * dot: exact zeros, which leave every slice with its 2-d
    # call's bits whichever slice comes first
    rng = make_rng(0)
    pp = PredictorParams(rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3)))
    H = np.abs(rng.normal(size=(2, 2, 4)))
    rows, alpha = np.array([[0, 2], [1, 0]]), np.array(alpha)
    gamma = 4.0
    tape = GradientTape(FeatureExtractor([LayerParams(np.zeros((2, 4, 1)), np.zeros((2, 4)))]),
                        pp)
    ce, dH = loss_rows(pp, CosineScale(gamma), alpha, H, rows, 0.5, tape)
    for s in range(2):
        pp_s = PredictorParams(pp.W[s], pp.b[s])
        tape_s = GradientTape(FeatureExtractor([LayerParams(np.zeros((4, 1)), np.zeros(4))]),
                              pp_s)
        ce_s, dH_s = loss_rows(pp_s, CosineScale(gamma), alpha[s], H[s], rows[s], 0.5, tape_s)
        _same(ce[s], ce_s, "loss_rows cross-entropy")
        _same(dH[s], dH_s, "loss_rows dH")
        _same(tape.pred_w[s], tape_s.pred_w, "class row gradient")
        _same(tape.pred_b[s], tape_s.pred_b, "class bias gradient")


def test_per_slice_settings_are_checked():
    rng = make_rng(0)
    pp = PredictorParams(rng.normal(size=(2, 3, 4)), np.zeros((2, 3)))
    H, rows = np.abs(rng.normal(size=(2, 2, 4))), np.zeros((2, 2), dtype=np.int64)
    # alpha may be per slice; gamma and lr are one number for every slice
    with pytest.raises(ValueError, match="alpha has shape"):
        loss_rows(pp, None, np.ones((3, 2)), H, rows, 0.5)
    for gamma in (np.array([1.0, 2.0]), np.array([1.0, 0.0]), np.array(2.0), 0.0):
        with pytest.raises(ValueError, match="^gamma must be one positive number"):
            CosineScale(gamma)
    fe = FeatureExtractor([LayerParams(np.ones((2, 4, 4)), np.zeros((2, 4)))])
    tape = GradientTape(fe, pp)
    for lr in (np.array([0.1, 0.1]), np.array([0.1, -0.1]), np.array(0.1), -0.1):
        with pytest.raises(ValueError, match="^learning rate must be one positive number"):
            sgd_step(fe, pp, tape, lr)


def test_stacked_finiteness_check_names_the_seed():
    # forward_batch hands non-finite features back as they are; the check
    # a failed step makes of them names the slices that hold one
    fe = FeatureExtractor([LayerParams(np.ones((3, 2, 2)), np.zeros((3, 2)))])
    X = np.ones((3, 1, 2))
    X[1, 0, 0] = np.inf
    H = forward_batch(fe, X)[0]
    assert np.isinf(H[1]).all() and np.isfinite(H[[0, 2]]).all()
    with pytest.raises(NonFiniteError, match="^features contains non-finite entries$") as info:
        require_finite(H, "features", stacked=True)
    assert info.value.seeds == [1]
    H = forward_batch(FeatureExtractor([LayerParams(np.ones((2, 2)), np.zeros(2))]), X[1])[0]
    with pytest.raises(NonFiniteError) as info:
        require_finite(H, "features")
    assert info.value.seeds is None


TAPE_PREMISE = ("a gradient written straight into the tape differs from a zeroed tape plus "
                f"it, so a step that skips the zeroing changes bits on this build "
                f"({blas_versions()})")


def _signed_zeros(rng, shape, share):
    """Normal entries of which about share are zeros, each entry's sign at
    random, so the zeros are +0 and -0 alike."""
    x = np.abs(rng.normal(size=shape))
    x[rng.random(shape) < share] = 0.0
    return np.copysign(x, rng.choice([-1.0, 1.0], size=shape))


@given(slices=st.integers(0, 3), n=st.integers(1, 24), classes=st.integers(1, 12),
       dim=st.integers(1, 64), share=st.sampled_from([0.5, 0.9, 1.0]),
       negative=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(slices=0, n=1, classes=1, dim=1, share=1.0, negative=True, seed=0)
@example(slices=2, n=20, classes=10, dim=64, share=0.5, negative=True, seed=1)
@example(slices=1, n=288, classes=10, dim=256, share=0.9, negative=True, seed=2)
@example(slices=0, n=288, classes=10, dim=256, share=0.9, negative=False, seed=3)
@settings(max_examples=60, deadline=None)
def test_tape_writes_equal_a_zeroed_tape_plus_them(slices, n, classes, dim, share, negative,
                                                   seed):
    # loss_rows and backward_batch write each gradient into its tape block
    # (a stale tape is never zeroed), which holds the bits of the old
    # `+0 += product` only if no product of a Gᵀ·H or G·W shape comes out
    # -0 and a bias sum started from +0 (initial=0.0) equals +0 plus the
    # sum. The score gradient G holds ±0 wherever a branch gives a row no
    # weight; with negative, it is -0 at every zero of H and at its own,
    # so whole dot products are -0 term by term
    rng = make_rng(seed)
    lead = (slices,) if slices else ()
    G = _signed_zeros(rng, (*lead, n, classes), share)
    H = _signed_zeros(rng, (*lead, n, dim), share)
    W = _signed_zeros(rng, (*lead, classes, dim), share)
    if negative:
        G[G == 0.0] = -0.0
        H = np.abs(H)
        W = np.abs(W)
    for a, b, shape in ((G.swapaxes(-1, -2), H, (*lead, classes, dim)),
                        (G, W, (*lead, n, dim))):
        written = np.full(shape, np.nan)
        np.matmul(a, b, out=written)
        zeroed = np.zeros(shape)
        zeroed += np.matmul(a, b)
        assert written.tobytes() == zeroed.tobytes(), TAPE_PREMISE
    for x in (G, H):
        written = np.full(x.shape[:-2] + x.shape[-1:], np.nan)
        np.add.reduce(x, axis=-2, out=written, initial=0.0)
        zeroed = np.zeros_like(written)
        zeroed += np.add.reduce(x, axis=-2)
        assert written.tobytes() == zeroed.tobytes(), TAPE_PREMISE


ARGMAX_PREMISE = ("the row max read at the argmax differs from np.maximum.reduce's, so the "
                  f"softmax and cross-entropy change bits on this build ({blas_versions()})")


def _softmax_ce_by_maximum(L, pick):
    """loss_rows' softmax and cross-entropy as they took the row max, with
    np.maximum.reduce."""
    m = np.maximum.reduce(L, -1)
    picked = L.reshape(-1)[pick]
    E = np.exp(L - m[..., None])
    s = np.add.reduce(E, -1)
    ce = np.log(s)
    ce += m
    ce -= picked
    return E / s[..., None], ce


@given(lead=st.lists(st.integers(1, 3), max_size=2), n=st.integers(1, 24),
       classes=st.integers(1, 12), share=st.sampled_from([0.0, 0.3, 0.9]),
       seed=st.integers(0, 2**32 - 1))
@example(lead=[1, 9], n=20, classes=10, share=0.3, seed=0)
@example(lead=[2, 3], n=20, classes=10, share=0.9, seed=1)
@example(lead=[1], n=768, classes=40, share=0.3, seed=2)
@settings(max_examples=60, deadline=None)
def test_the_row_max_read_at_the_argmax_gives_maximum_reduce_bits(lead, n, classes, share,
                                                                   seed):
    # _softmax_ce subtracts the entry at each row's argmax, which must be
    # the max np.maximum.reduce takes, to the bit: rows holding nan, +-inf
    # and ties of +0 and -0 included
    rng = make_rng(seed)
    shape = (*lead, n, classes)
    L = rng.normal(scale=10.0, size=shape)
    special = rng.random(shape) < share
    L[special] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0], size=special.sum())
    starts = _row_starts(shape[:-1], classes)
    pick = starts + rng.integers(0, classes, size=shape[:-1])
    P = L.copy()
    with np.errstate(invalid="ignore"):
        want_P, want_ce = _softmax_ce_by_maximum(L, pick)
        ce = _softmax_ce(P, starts, pick, Workspace())
    assert P.tobytes() == want_P.tobytes(), ARGMAX_PREMISE
    assert ce.tobytes() == want_ce.tobytes(), ARGMAX_PREMISE


# ---------------------------------------------------------- equivalence


SEEDS = (0, 1, 2)
STREAM = StreamConfig(stages=3, classes_per_stage=2, batch_size_current=10,
                      batch_size_memory=10)


def _presets():
    kw = dict(hidden_dims=(16,), buffer_capacity=30)
    return {"uer": uer_method(**kw), "uer-a": uer_a_method(**kw), "er": er_method(**kw),
            "lucir": lucir_method(**kw), "finetune": finetune_method(hidden_dims=(16,))}


def _datasets(classes=6, train_per_class=40):
    """One synthetic dataset per seed, as the command line builds them."""
    out = {}
    for seed in SEEDS:
        rng = make_rng([seed, 9])
        out[seed] = gen_synthetic(make_sphere_spec(classes, 8, 3.0, 1.0, train_per_class, 10,
                                                   rng), rng)
    return out


def run_seed_group(dataset_for, method, stream, seeds):
    """One method's seeds in lockstep: a run per seed, each on its own stream."""
    return run_trajectories(dataset_for, [(method, seed) for seed in seeds], stream)


def _metrics_bytes(result) -> bytes:
    return "".join(json.dumps(stage_metrics_to_dict(m)) + "\n"
                   for m in result.metrics).encode("utf-8")


def _assert_same_run(result, alone):
    # alone: the oracle's result, or a run of this trainer's
    assert result.method == alone.method and result.seed == alone.seed
    assert _metrics_bytes(result) == _metrics_bytes(alone)
    assert result.metrics == alone.metrics
    want = losses_of(alone.steps) if isinstance(alone, legacy_step.ExperimentResult) \
        else alone.losses
    assert result.losses.tobytes() == want.tobytes()


def _blocks(monkeypatch):
    """Record a copy of every training forward block, (slices, rows, dim)."""
    blocks = []
    real = uer.trainer.forward_batch

    def recording(fe, X, *rest):
        blocks.append(np.array(X))
        return real(fe, X, *rest)
    monkeypatch.setattr(uer.trainer, "forward_batch", recording)
    return blocks


def _slices(blocks) -> list[int]:
    """The slice count of each block; every block must be stacked (rank 3)."""
    assert blocks and {X.ndim for X in blocks} == {3}
    return [len(X) for X in blocks]


@pytest.mark.parametrize("preset", list(_presets()))
def test_seed_in_a_group_of_three_matches_its_run_alone(preset, monkeypatch):
    method, datasets = _presets()[preset], _datasets()
    blocks = _blocks(monkeypatch)
    outcomes = run_seed_group(datasets.__getitem__, method, STREAM, SEEDS)
    monkeypatch.undo()
    assert set(_slices(blocks)) == {3}  # every step ran all three seeds stacked
    for seed, outcome in zip(SEEDS, outcomes):
        _assert_same_run(outcome, legacy_step.per_seed_run(datasets[seed], method, STREAM, seed))


@pytest.mark.parametrize("preset", ["uer", "er", "finetune"])
def test_class_count_split_keeps_every_seed_byte_identical(preset, monkeypatch):
    # five classes per stage reach a batch of two at different steps in
    # different seeds, so registered class counts differ and groups split
    stream = StreamConfig(stages=2, classes_per_stage=5, batch_size_current=2,
                          batch_size_memory=2)
    method, datasets = _presets()[preset], _datasets(classes=10, train_per_class=12)
    blocks = _blocks(monkeypatch)
    outcomes = run_seed_group(datasets.__getitem__, method, stream, SEEDS)
    monkeypatch.undo()
    slices = _slices(blocks)  # split or not, every part steps stacked
    # the three seeds split at their first step, into parts of one and two
    # slices, and the part of two splits later
    assert sum(slices[:2]) == 3 and max(slices) == 2 and slices[-1] == 1
    for seed, outcome in zip(SEEDS, outcomes):
        _assert_same_run(outcome, legacy_step.per_seed_run(datasets[seed], method, stream, seed))


def test_seeds_out_of_phase_on_shared_data_stay_byte_identical():
    # one dataset for every seed (as for csv input) whose classes differ in
    # size: each seed's stages have their own lengths and short last batches
    rng = make_rng(4)
    sizes = [23, 41, 30, 17, 36, 28]
    y = np.repeat(np.arange(6), sizes)
    means = 3.0 * rng.normal(size=(6, 8))
    y_test = np.repeat(np.arange(6), 7)
    shared = Dataset(LabeledData(means[y] + rng.normal(size=(len(y), 8)), y),
                     LabeledData(means[y_test] + rng.normal(size=(len(y_test), 8)), y_test),
                     num_classes=6, input_dim=8)
    method = _presets()["uer"]
    outcomes = run_seed_group(lambda _seed: shared, method, STREAM, SEEDS)
    for seed, outcome in zip(SEEDS, outcomes):
        _assert_same_run(outcome, legacy_step.per_seed_run(shared, method, STREAM, seed))
    # the seeds' stages differ in length, so they end stages at different steps
    assert len({tuple(m.consumed_samples for m in o.metrics) for o in outcomes}) > 1


# each failure is forced through the data: a source row that the failing
# seed reads at that step, whose features overflow, or whose features stay
# finite while its scores overflow; ids name the module whose output goes
# non-finite
DIVERGE = pytest.mark.parametrize("what", ["features", "cross-entropy"],
                                  ids=["uer.net-features", "uer.logits-cross-entropy"])


def _diverging(dataset, method, seed, step, what, stream=STREAM):
    """dataset with one row that seed's run of method reads at step made
    to fail the step with a non-finite what."""
    rows, fe, pp, labels = step_start(dataset, method, stream, seed, step)
    if what == "features":
        x = overflowing_features(fe)
    else:  # the dot score runs if the learn or the replay rule weights it
        triple = method.triple
        x = overflowing_scores(fe, pp, labels.index(dataset.train.y[rows[0]]),
                               dot=triple.learn is LogitMode.DOT or
                               triple.replay.alpha > 0.0)
    return with_train_row(dataset, rows[0], x)


@DIVERGE
def test_a_diverging_seed_fails_alone(what, monkeypatch):
    # seed 1 (second in the group) goes non-finite at its seventh step;
    # the others redo that step's arithmetic without it
    method, datasets = _presets()["uer"], _datasets()
    poisoned = {**datasets, SEEDS[1]: _diverging(datasets[SEEDS[1]], method, SEEDS[1], 7,
                                                 what)}
    blocks = _blocks(monkeypatch)
    outcomes = run_seed_group(poisoned.__getitem__, method, STREAM, SEEDS)
    monkeypatch.undo()
    slices = _slices(blocks)
    assert slices[6] == 3 and slices[7] == 2  # the redo ran without seed 1
    failed = outcomes[1]
    assert isinstance(failed, FloatingPointError)
    assert str(failed) == f"stage 1, step 7: {what} contains non-finite entries"
    assert failed.__cause__.seeds == [1]
    for i in (0, 2):
        _assert_same_run(outcomes[i], legacy_step.per_seed_run(datasets[SEEDS[i]], method,
                                                               STREAM, SEEDS[i]))


def test_the_last_seed_left_redoes_the_step_alone(monkeypatch):
    # a group of two whose first seed fails: the second redoes the step on
    # a 1-slice block of its own rows, and steps as a part of one after
    method, datasets = _presets()["uer"], _datasets()
    poisoned = {**datasets, SEEDS[0]: _diverging(datasets[SEEDS[0]], method, SEEDS[0], 1,
                                                 "features")}
    blocks = _blocks(monkeypatch)
    outcomes = run_seed_group(poisoned.__getitem__, method, STREAM, SEEDS[:2])
    monkeypatch.undo()
    assert str(outcomes[0]) == "stage 1, step 1: features contains non-finite entries"
    slices = _slices(blocks)
    assert slices[0] == 2 and set(slices[1:]) == {1}
    assert blocks[1][0].tobytes() == blocks[0][1].tobytes()  # the survivor's own rows
    _assert_same_run(outcomes[1], legacy_step.per_seed_run(datasets[SEEDS[1]], method,
                                                           STREAM, SEEDS[1]))


def test_every_seed_of_a_part_can_fail_at_once():
    method, datasets = _presets()["er"], _datasets()
    poisoned = {seed: _diverging(datasets[seed], method, seed, 1, "features") for seed in SEEDS}
    outcomes = run_seed_group(poisoned.__getitem__, method, STREAM, SEEDS)
    assert [str(o) for o in outcomes] == \
        ["stage 1, step 1: features contains non-finite entries"] * 3
    assert [o.__cause__.seeds for o in outcomes] == [[0, 1, 2]] * 3


@pytest.mark.parametrize("preset", list(_presets()))
def test_a_non_finite_slice_of_a_stacked_part_fails_alone_as_its_kind(preset, monkeypatch):
    # each preset's three seeds step as one stacked part; seed 1 reads, at
    # step 7, a row whose features overflow or one whose features stay
    # finite while a class score overflows. Only seed 1 fails, with the
    # error of what went non-finite, and the other seeds run on exactly as
    # in a group where nothing fails
    method, datasets = _presets()[preset], _datasets()
    clean = run_seed_group(datasets.__getitem__, method, STREAM, SEEDS)
    for what in ("features", "cross-entropy"):
        poisoned = {**datasets, SEEDS[1]: _diverging(datasets[SEEDS[1]], method, SEEDS[1], 7,
                                                     what)}
        blocks = _blocks(monkeypatch)
        outcomes = run_seed_group(poisoned.__getitem__, method, STREAM, SEEDS)
        monkeypatch.undo()
        assert _slices(blocks)[6:8] == [3, 2]
        assert str(outcomes[1]) == f"stage 1, step 7: {what} contains non-finite entries"
        for i in (0, 2):
            _assert_same_run(outcomes[i], clean[i])


def test_one_train_step_call_per_group_step(monkeypatch):
    method, datasets = _presets()["uer"], _datasets()
    calls = []
    real = uer.trainer.train_step

    def counted(group, *args):
        calls.append(len(group.runs))
        return real(group, *args)
    monkeypatch.setattr(uer.trainer, "train_step", counted)
    outcomes = run_seed_group(datasets.__getitem__, method, STREAM, SEEDS)
    assert calls == [3] * len(outcomes[0].losses)
    assert all(len(o.losses) == len(outcomes[0].losses) for o in outcomes)


def test_a_seed_whose_data_fails_to_build_leaves_the_others_untouched():
    datasets = _datasets()

    def dataset_for(seed):
        if seed == 1:
            raise ValueError("no data for seed 1")
        return datasets[seed]
    method = _presets()["lucir"]
    outcomes = run_seed_group(dataset_for, method, STREAM, SEEDS)
    assert isinstance(outcomes[1], ValueError)
    for i in (0, 2):
        _assert_same_run(outcomes[i], legacy_step.per_seed_run(datasets[SEEDS[i]], method,
                                                               STREAM, SEEDS[i]))


def test_seeds_with_different_network_shapes_step_apart():
    # dataset_for may hand seeds data of different widths: their networks
    # cannot be stacked, so each shape forms its own part
    datasets = _datasets()
    rng = make_rng(7)
    wide = gen_synthetic(make_sphere_spec(6, 11, 3.0, 1.0, 40, 10, rng), rng)
    by_seed = {0: datasets[0], 1: wide, 2: datasets[2]}
    method = _presets()["uer"]
    outcomes = run_seed_group(by_seed.__getitem__, method, STREAM, SEEDS)
    for seed, outcome in zip(SEEDS, outcomes):
        _assert_same_run(outcome, legacy_step.per_seed_run(by_seed[seed], method, STREAM, seed))


@pytest.mark.parametrize("setting", ["gamma", "lr"])
def test_runs_step_in_one_part_per_gamma_and_lr(setting):
    # a part holds one gamma and one lr: runs that differ only in one of
    # them step apart, one part per value in order of first appearance,
    # and runs that agree share a part whatever their loss rules
    source = _datasets()[0].train
    values = [0.5, 0.25, 0.5, 0.125, 0.25]
    runs = [init_run(uer_method(hidden_dims=(16,), **{setting: v}), source, make_rng(0))
            for v in values]
    group = RunGroup(runs)
    assert [part.runs for part in group.parts] == \
        [[runs[0], runs[2]], [runs[1], runs[4]], [runs[3]]]
    for part in group.parts:
        method = part.runs[0].method
        assert (part.scale.gamma, part.lr) == (method.gamma, method.lr)
    agree = [init_run(method, source, make_rng(0)) for method in _presets().values()]
    (part,) = RunGroup(agree).parts
    assert part.runs == agree


# ------------------------------------------------------- parts of one run


@pytest.mark.parametrize("preset", list(_presets()))
def test_a_seed_alone_steps_one_slice_stacked_and_matches_its_run_alone(preset, monkeypatch):
    method, datasets = _presets()[preset], _datasets()
    blocks = _blocks(monkeypatch)
    (outcome,) = run_seed_group(datasets.__getitem__, method, STREAM, SEEDS[1:2])
    monkeypatch.undo()
    assert set(_slices(blocks)) == {1}
    _assert_same_run(outcome, legacy_step.per_seed_run(datasets[SEEDS[1]], method, STREAM,
                                                       SEEDS[1]))


@DIVERGE
def test_a_seed_alone_that_diverges_names_its_stage_and_step(what, monkeypatch):
    # the lone run's 1-slice block goes non-finite at its seventh step
    method = _presets()["uer"]
    dataset = _diverging(_datasets()[0], method, 0, 7, what)
    blocks = _blocks(monkeypatch)
    with pytest.raises(FloatingPointError) as info:
        run_experiment(dataset, method, STREAM, 0)
    monkeypatch.undo()
    assert _slices(blocks) == [1] * 7
    assert str(info.value) == f"stage 1, step 7: {what} contains non-finite entries"


def test_a_lone_train_state_steps_as_the_per_seed_step_does(monkeypatch):
    # train_step on a group of one run returns its loss pair, step for
    # step the oracle's, with the same parameters after; a non-finite step
    # ends it (the run steps rows of the dataset, the oracle their
    # features)
    method, data = _presets()["uer"], _datasets()[0]
    order = make_rng(5).permutation(len(data.train.y))
    run = init_run(method, data.train, make_rng(6))
    group = RunGroup([run])
    alone = legacy_step.init_state(method, data.input_dim, make_rng(6))
    rng, rng_alone = make_rng(7), make_rng(7)
    blocks = _blocks(monkeypatch)
    for lo in range(0, 120, 10):
        rows = order[lo:lo + 10]
        x, y = data.train.x[rows], data.train.y[rows]
        pair = np.array([step_alone(group, rows, y, 10, rng)])
        want = legacy_step.per_seed_train_step(alone, x, y, method, 10, rng_alone)
        assert pair.tobytes() == losses_of([want]).tobytes()
        params = (*run.extractor.layers, run.predictor)
        for got, want in zip(params, (*alone.extractor.layers, alone.predictor)):
            for a, b in zip(vars(got).values(), vars(want).values()):
                assert a.tobytes() == b.tobytes()
    assert set(_slices(blocks)) == {1}
    # a row of the next batch whose features overflow
    rows = order[120:130]
    data.train.x[rows[0]] = overflowing_features(run.extractor)
    with pytest.raises(NonFiniteError, match="^features contains non-finite entries$"):
        step_alone(group, rows, data.train.y[rows], 10, rng)
