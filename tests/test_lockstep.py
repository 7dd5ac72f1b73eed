"""Seeds trained in lockstep against the same seeds trained one at a time.

The premise: every kernel of the training step (forward_batch, loss_rows,
backward_batch, sgd_step) computes each slice of a block stacked on a
leading axis exactly as its 2-d call on that slice would, bit for bit,
also when each slice carries its own alpha and weight rows, gamma and lr.
On top of it, one method's seeds trained together (run_trajectories, one
stream per seed) must give the very same metrics bytes and StepRecords as
legacy_step.per_seed_run, which trains each alone, whatever the other
seeds do: split off at a class-count or batch mismatch, fall out of
phase, or diverge.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import legacy_step
import uer.logits
import uer.net
import uer.trainer
from uer.evaluation import stage_metrics_to_dict
from uer.logits import CosineScale, PredictorParams, loss_rows
from uer.net import (FeatureExtractor, GradientTape, LayerParams, backward_batch,
                     forward_batch, sgd_step)
from uer.numeric import NonFiniteError, make_rng
from uer.stream import Dataset, LabeledData, StreamConfig, gen_synthetic, make_sphere_spec
from uer.trainer import (er_method, finetune_method, lucir_method, run_trajectories,
                         uer_a_method, uer_method)


def _versions() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older NumPy has no dict form
        blas = "unknown"
    return f"NumPy {np.__version__}, BLAS {blas}"


PREMISE = ("a slice of a stacked call differs from the 2-d call on it, so seeds "
           f"cannot train in lockstep bitwise on this build ({_versions()})")


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
    H, cache = forward_batch(fe, X)
    ce, dH = loss_rows(pp, scale, a, H, rows, w, tape)
    dz = backward_batch(fe, cache, dH, tape)
    grads = [g.copy() for g in (*tape.layer_w, *tape.layer_b, tape.pred_w, tape.pred_b)]
    sgd_step(fe, pp, tape, 0.1)

    for s, (fe_s, pp_s) in enumerate(alone):
        tape_s = GradientTape(fe_s, pp_s)
        H_s, cache_s = forward_batch(fe_s, X[s])
        _same(H[s], H_s, "forward_batch features")
        for k, (z, z_s) in enumerate(zip(cache.preacts, cache_s.preacts)):
            _same(z[s], z_s, f"forward_batch pre-activation {k}")
        ce_s, dH_s = loss_rows(pp_s, scale, a, H_s, rows[s], w, tape_s)
        _same(ce[s], ce_s, "loss_rows cross-entropy")
        _same(dH[s], dH_s, "loss_rows dH")
        _same(dz[s], backward_batch(fe_s, cache_s, dH_s, tape_s), "backward_batch dz")
        grads_s = (*tape_s.layer_w, *tape_s.layer_b, tape_s.pred_w, tape_s.pred_b)
        for k, (g, g_s) in enumerate(zip(grads, grads_s)):
            _same(g[s], g_s, f"gradient block {k}")
        sgd_step(fe_s, pp_s, tape_s, 0.1)
        for k, (layer, layer_s) in enumerate(zip(fe.layers, fe_s.layers)):
            _same(layer.weight[s], layer_s.weight, f"sgd_step layer {k} weight")
            _same(layer.bias[s], layer_s.bias, f"sgd_step layer {k} bias")
        _same(pp.W[s], pp_s.W, "sgd_step class rows")
        _same(pp.b[s], pp_s.b, "sgd_step class biases")


@given(slices=st.integers(1, 4), n=st.integers(1, 24),
       dims=st.lists(st.integers(1, 40), min_size=2, max_size=3),
       classes=st.integers(1, 12), branches=st.sampled_from(["dot", "cosine", "both"]),
       seed=st.integers(0, 2**32 - 1))
@example(slices=1, n=1, dims=[1, 1], classes=1, branches="both", seed=0)
@example(slices=3, n=1, dims=[5, 1, 7], classes=3, branches="cosine", seed=1)
@example(slices=4, n=20, dims=[20, 64], classes=10, branches="both", seed=2)
@settings(max_examples=60, deadline=None)
def test_per_slice_settings_equal_2d_calls_bitwise(slices, n, dims, classes, branches, seed):
    # each slice is a run with its own alpha and weight rows, gamma and lr;
    # all slices take the same loss branches, as the runs of a part do
    rng = make_rng(seed)
    weights = [rng.normal(size=(slices, o, i)) / np.sqrt(i) for i, o in zip(dims, dims[1:])]
    biases = [rng.normal(scale=0.1, size=(slices, o)) for o in dims[1:]]
    X = rng.normal(size=(slices, n, dims[0]))
    W, b = rng.normal(size=(slices, classes, dims[-1])), rng.normal(size=(slices, classes))
    rows = rng.integers(0, classes, size=(slices, n))
    if branches == "dot":
        a = np.ones((slices, n))
    elif branches == "cosine":
        a = np.zeros((slices, n))
    else:  # a mixed first row makes every slice use both branches
        a = rng.choice([0.0, 1.0, 0.5], size=(slices, n))
        a[:, 0] = rng.uniform(0.05, 0.95, size=slices)
    w = rng.uniform(0.05, 1.0, size=(slices, n))
    gamma, lr = rng.uniform(1.0, 16.0, size=slices), rng.uniform(0.01, 0.5, size=slices)

    fe = FeatureExtractor([LayerParams(wk.copy(), bk.copy()) for wk, bk in zip(weights, biases)])
    pp = PredictorParams(W.copy(), b.copy())
    tape = GradientTape(fe, pp)
    H, cache = forward_batch(fe, X)
    ce, dH = loss_rows(pp, CosineScale(gamma), a, H, rows, w, tape)
    backward_batch(fe, cache, dH, tape)
    grads = [g.copy() for g in (*tape.layer_w, *tape.layer_b, tape.pred_w, tape.pred_b)]
    sgd_step(fe, pp, tape, lr)

    for s in range(slices):
        fe_s = FeatureExtractor([LayerParams(wk[s].copy(), bk[s].copy())
                                 for wk, bk in zip(weights, biases)])
        pp_s = PredictorParams(W[s].copy(), b[s].copy())
        tape_s = GradientTape(fe_s, pp_s)
        H_s, cache_s = forward_batch(fe_s, X[s])
        ce_s, dH_s = loss_rows(pp_s, CosineScale(float(gamma[s])), a[s], H_s, rows[s], w[s],
                               tape_s)
        _same(ce[s], ce_s, "loss_rows cross-entropy")
        _same(dH[s], dH_s, "loss_rows dH")
        backward_batch(fe_s, cache_s, dH_s, tape_s)
        grads_s = (*tape_s.layer_w, *tape_s.layer_b, tape_s.pred_w, tape_s.pred_b)
        for k, (g, g_s) in enumerate(zip(grads, grads_s)):
            _same(g[s], g_s, f"gradient block {k}")
        sgd_step(fe_s, pp_s, tape_s, float(lr[s]))
        for k, (layer, layer_s) in enumerate(zip(fe.layers, fe_s.layers)):
            _same(layer.weight[s], layer_s.weight, f"sgd_step layer {k} weight")
            _same(layer.bias[s], layer_s.bias, f"sgd_step layer {k} bias")
        _same(pp.W[s], pp_s.W, "sgd_step class rows")
        _same(pp.b[s], pp_s.b, "sgd_step class biases")


@pytest.mark.parametrize("alpha", [[[1.0, 1.0], [1.0, 0.5]],  # pure dot next to mixed
                                   [[0.0, 0.0], [0.5, 0.5]],  # pure cosine next to mixed
                                   [[1.0, 1.0], [0.0, 0.0]]])
def test_slices_that_take_different_branches_are_rejected(alpha):
    # stepping them together would add 0 * cosine to a pure-dot slice (or
    # 0 * dot to a pure-cosine one), which is not its 2-d arithmetic
    rng = make_rng(0)
    pp = PredictorParams(rng.normal(size=(2, 3, 4)), np.zeros((2, 3)))
    H = np.abs(rng.normal(size=(2, 2, 4)))
    with pytest.raises(ValueError, match="different branches"):
        loss_rows(pp, CosineScale(np.array([10.0, 10.0])), np.array(alpha), H,
                  np.zeros((2, 2), dtype=np.int64), 0.5)


def test_per_slice_settings_are_checked():
    rng = make_rng(0)
    pp = PredictorParams(rng.normal(size=(2, 3, 4)), np.zeros((2, 3)))
    H, rows = np.abs(rng.normal(size=(2, 2, 4))), np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ValueError, match="gamma has shape"):
        loss_rows(pp, CosineScale(np.array([1.0, 2.0, 3.0])), 0.0, H, rows, 0.5)
    with pytest.raises(ValueError, match="alpha has shape"):
        loss_rows(pp, None, np.ones((3, 2)), H, rows, 0.5)
    with pytest.raises(ValueError, match="gamma must be positive"):
        CosineScale(np.array([1.0, 0.0]))
    fe = FeatureExtractor([LayerParams(np.ones((2, 4, 4)), np.zeros((2, 4)))])
    tape = GradientTape(fe, pp)
    with pytest.raises(ValueError, match="learning rates"):
        sgd_step(fe, pp, tape, np.array([0.1, 0.1, 0.1]))
    with pytest.raises(ValueError, match="must be positive"):
        sgd_step(fe, pp, tape, np.array([0.1, -0.1]))


def test_stacked_finiteness_check_names_the_seed():
    fe = FeatureExtractor([LayerParams(np.ones((3, 2, 2)), np.zeros((3, 2)))])
    X = np.ones((3, 1, 2))
    X[1, 0, 0] = np.inf
    with pytest.raises(NonFiniteError, match="^features contains non-finite entries$") as info:
        forward_batch(fe, X)
    assert info.value.seeds == [1]
    with pytest.raises(NonFiniteError) as info:
        forward_batch(FeatureExtractor([LayerParams(np.ones((2, 2)), np.zeros(2))]), X[1])
    assert info.value.seeds is None


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
    assert result.method == alone.method and result.seed == alone.seed
    assert _metrics_bytes(result) == _metrics_bytes(alone)
    assert result.metrics == alone.metrics
    assert result.steps == alone.steps


def _block_ranks(monkeypatch):
    """Record the ndim of every training forward block (3 = stacked seeds)."""
    ranks = []
    real = uer.trainer.forward_batch

    def recording(fe, X):
        ranks.append(np.ndim(X))
        return real(fe, X)
    monkeypatch.setattr(uer.trainer, "forward_batch", recording)
    return ranks


@pytest.mark.parametrize("preset", list(_presets()))
def test_seed_in_a_group_of_three_matches_its_run_alone(preset, monkeypatch):
    method, datasets = _presets()[preset], _datasets()
    ranks = _block_ranks(monkeypatch)
    outcomes = run_seed_group(datasets.__getitem__, method, STREAM, SEEDS)
    monkeypatch.undo()
    assert ranks and set(ranks) == {3}  # every step ran all three seeds stacked
    for seed, outcome in zip(SEEDS, outcomes):
        _assert_same_run(outcome, legacy_step.per_seed_run(datasets[seed], method, STREAM, seed))


@pytest.mark.parametrize("preset", ["uer", "er", "finetune"])
def test_class_count_split_keeps_every_seed_byte_identical(preset, monkeypatch):
    # five classes per stage reach a batch of two at different steps in
    # different seeds, so registered class counts differ and groups split
    stream = StreamConfig(stages=2, classes_per_stage=5, batch_size_current=2,
                          batch_size_memory=2)
    method, datasets = _presets()[preset], _datasets(classes=10, train_per_class=12)
    ranks = _block_ranks(monkeypatch)
    outcomes = run_seed_group(datasets.__getitem__, method, stream, SEEDS)
    monkeypatch.undo()
    assert {2, 3} <= set(ranks)  # stacked at first, split later
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


@pytest.mark.parametrize("module, what", [(uer.net, "features"),
                                          (uer.logits, "cross-entropy")])
def test_a_diverging_seed_fails_alone(module, what, monkeypatch):
    # the seventh stacked check reports seed 1 (second in the group) as
    # non-finite; the others redo that step's arithmetic without it
    real, checks = module.require_finite, []

    def forced(arr, name="array", stacked=False):
        if stacked and name == what:
            checks.append(arr.shape)
            if len(checks) == 7:
                raise NonFiniteError(f"{name} contains non-finite entries", [1])
        return real(arr, name, stacked)
    monkeypatch.setattr(module, "require_finite", forced)
    method, datasets = _presets()["uer"], _datasets()
    outcomes = run_seed_group(datasets.__getitem__, method, STREAM, SEEDS)
    monkeypatch.undo()
    assert checks[6][0] == 3 and checks[7][0] == 2  # the redo ran without seed 1
    failed = outcomes[1]
    assert isinstance(failed, FloatingPointError)
    assert str(failed) == f"stage 1, step 7: {what} contains non-finite entries"
    for i in (0, 2):
        _assert_same_run(outcomes[i], legacy_step.per_seed_run(datasets[SEEDS[i]], method,
                                                               STREAM, SEEDS[i]))


def test_the_last_seed_left_redoes_the_step_alone(monkeypatch):
    # a group of two whose first seed fails: the second redoes the step on
    # 2-d blocks of its own rows
    real = uer.net.require_finite

    def forced(arr, name="array", stacked=False):
        if stacked:
            raise NonFiniteError(f"{name} contains non-finite entries", [0])
        return real(arr, name, stacked)
    monkeypatch.setattr(uer.net, "require_finite", forced)
    method, datasets = _presets()["uer"], _datasets()
    outcomes = run_seed_group(datasets.__getitem__, method, STREAM, SEEDS[:2])
    monkeypatch.undo()
    assert str(outcomes[0]) == "stage 1, step 1: features contains non-finite entries"
    _assert_same_run(outcomes[1], legacy_step.per_seed_run(datasets[SEEDS[1]], method,
                                                           STREAM, SEEDS[1]))


def test_every_seed_of_a_part_can_fail_at_once(monkeypatch):
    real = uer.net.require_finite

    def forced(arr, name="array", stacked=False):
        if stacked:
            raise NonFiniteError(f"{name} contains non-finite entries", [0, 1, 2])
        return real(arr, name, stacked)
    monkeypatch.setattr(uer.net, "require_finite", forced)
    outcomes = run_seed_group(_datasets().__getitem__, _presets()["er"], STREAM, SEEDS)
    assert [str(o) for o in outcomes] == \
        ["stage 1, step 1: features contains non-finite entries"] * 3


def test_one_train_step_call_per_group_step(monkeypatch):
    method, datasets = _presets()["uer"], _datasets()
    calls = []
    real = uer.trainer.train_step

    def counted(group, *args):
        calls.append(len(group.runs))
        return real(group, *args)
    monkeypatch.setattr(uer.trainer, "train_step", counted)
    outcomes = run_seed_group(datasets.__getitem__, method, STREAM, SEEDS)
    assert calls == [3] * len(outcomes[0].steps)
    assert all(len(o.steps) == len(outcomes[0].steps) for o in outcomes)


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
