"""Training loop: presets, step mechanics, method equivalences."""

import numpy as np
import pytest

from conftest import flat_params
from uer.logits import LogitMode, dot_logits, loss_dot
from uer.memory import MemoryBuffer
from uer.net import backward_batch, forward_batch, init_extractor, sgd_step
from uer.numeric import make_rng
from uer.stream import StreamConfig, SyntheticSpec, gen_synthetic
from uer.trainer import (MethodConfig, StreamState, TABLE1_GRID, _follow, er_method,
                         finetune_method, init_state, lucir_method, register_classes,
                         run_experiment, train_step, triple_method, uer_a_method,
                         uer_method)

STREAM_2x5 = StreamConfig(stages=2, classes_per_stage=5)
STREAM_5x2 = StreamConfig(stages=5, classes_per_stage=2)


def small_gauss(seed=0, classes=4, per_class=40):
    rng = make_rng([seed, 0])
    means = 3.0 * np.eye(classes, 6) - 1.5
    spec = SyntheticSpec(input_dim=6, means=means, stddev=0.8,
                         train_per_class=per_class, test_per_class=10)
    return gen_synthetic(spec, rng)


# ---------------------------------------------------------------- presets


def test_preset_triples():
    uer = uer_method()
    assert uer.triple.learn is LogitMode.COSINE
    assert uer.triple.replay.kind == "mixed" and uer.alpha == 0.5
    assert uer.triple.test is LogitMode.DOT

    uer_a = uer_a_method()
    assert uer_a.alpha == 1.0 and uer_a.triple.replay.alpha == 1.0

    er = er_method()
    assert (er.triple.learn, er.triple.replay.kind, er.triple.test) == \
        (LogitMode.DOT, "dot", LogitMode.DOT)
    assert er.joint_batch

    lucir = lucir_method()
    assert (lucir.triple.learn, lucir.triple.replay.kind, lucir.triple.test) == \
        (LogitMode.COSINE, "cosine", LogitMode.COSINE)

    ft = finetune_method()
    assert not ft.replay_enabled and ft.buffer_capacity == 0


def test_preset_pins_enforced():
    with pytest.raises(ValueError, match="pins alpha"):
        uer_a_method(alpha=0.5)
    with pytest.raises(ValueError, match="pins replay_enabled"):
        finetune_method(replay_enabled=True)


def test_method_config_validation():
    with pytest.raises(ValueError, match=r"alpha out of \[0,1\]"):
        uer_method(alpha=1.2)
    with pytest.raises(ValueError, match="gamma"):
        uer_method(gamma=0.0)
    with pytest.raises(ValueError, match="lr"):
        uer_method(lr=-0.1)
    with pytest.raises(ValueError, match="buffer"):
        uer_method(buffer_capacity=-5)
    with pytest.raises(ValueError, match="hidden"):
        uer_method(hidden_dims=())
    with pytest.raises(ValueError, match="joint_batch"):
        MethodConfig(name="bad",
                     triple=uer_method().triple,
                     joint_batch=True)


def test_triple_method_effective_alpha():
    assert triple_method("a", "dot", "dot", "dot").triple.replay.effective_alpha() == 1.0
    assert triple_method("b", "dot", "cosine", "dot").triple.replay.effective_alpha() == 0.0
    m = triple_method("c", "cosine", "mixed", "dot", alpha=0.3)
    assert m.triple.replay.effective_alpha() == 0.3


# ------------------------------------------------------- class registration


def test_register_classes_growth_law():
    state = init_state(uer_method(), input_dim=6, rng=make_rng(0))
    assert state.predictor.num_classes == 0
    added = register_classes(state, np.array([0, 1, 1, 0]), make_rng(1))
    assert added == [0, 1]
    assert state.predictor.num_classes == 2
    assert register_classes(state, np.array([1, 0]), make_rng(2)) == []
    assert state.predictor.num_classes == 2


def test_register_classes_append_only_scores_stable():
    rng = make_rng(3)
    state = init_state(uer_method(hidden_dims=(5,)), input_dim=4, rng=rng)
    register_classes(state, np.array([2, 7]), rng)
    h = np.abs(make_rng(9).normal(size=5))
    before = dot_logits(state.predictor, h).copy()
    register_classes(state, np.array([5]), rng)
    after = dot_logits(state.predictor, h)
    np.testing.assert_allclose(after[:2], before, atol=1e-12)
    assert state.class_order == [2, 7, 5]
    assert state.label_to_row == {2: 0, 7: 1, 5: 2}


def test_register_classes_row_init_matches_layer_rule():
    # new rows are uniform(-s, s) with s = sqrt(6 / (dim + 1)), bias zero
    state = init_state(uer_method(hidden_dims=(24,)), input_dim=4, rng=make_rng(0))
    s = np.sqrt(6.0 / 25.0)
    for seed in range(10):
        register_classes(state, np.array([seed]), make_rng(seed))
    assert np.all(np.abs(state.predictor.W) < s)
    assert np.all(state.predictor.b == 0.0)


def test_register_extends_tape_and_baseline():
    state = init_state(uer_method(), input_dim=6, rng=make_rng(1))
    register_classes(state, np.array([0, 1, 2]), make_rng(1))
    assert state.tape.pred_w.shape == state.predictor.W.shape
    assert state.stage_baseline.W.shape == state.predictor.W.shape
    # baseline carries the same fresh-row values, so registering is motionless
    np.testing.assert_array_equal(state.stage_baseline.W, state.predictor.W)


@pytest.mark.parametrize("labels", [[3, 0, 3], [0], [5, 1], [7], [-1], [0, -2]])
def test_register_classes_fast_path_agrees_with_the_loop(labels):
    # a batch of known labels returns at once and draws nothing; anything
    # else (new labels, labels past the lookup, negative labels) takes the
    # per-label loop exactly as before
    state = init_state(uer_method(hidden_dims=(4,)), input_dim=3, rng=make_rng(0))
    register_classes(state, np.array([3, 0]), make_rng(1))
    rng = make_rng(2)
    before = rng.bit_generator.state
    if min(labels) < 0:
        with pytest.raises(ValueError, match="non-negative"):
            register_classes(state, np.array(labels), rng)
        return
    added = register_classes(state, np.array(labels), rng)
    new = [c for c in dict.fromkeys(labels) if c not in (3, 0)]
    assert added == new
    assert (rng.bit_generator.state == before) == (not new)
    assert state.class_order == [3, 0, *new]
    assert state.predictor.num_classes == len(state.class_order)


def test_runs_on_one_stream_get_the_same_rows():
    # the stream draws a new row once; every run's scorer and stage
    # baseline catch up with the same values
    stream = StreamState(MemoryBuffer(5), 4)
    runs = [_follow(stream, init_extractor((3, 4), make_rng(k))) for k in range(2)]
    assert register_classes(stream, np.array([2, 6]), make_rng(5)) == [2, 6]
    lone = init_state(uer_method(hidden_dims=(4,)), input_dim=3, rng=make_rng(0))
    register_classes(lone, np.array([2, 6]), make_rng(5))
    for state in [*runs, _follow(stream, init_extractor((3, 4), make_rng(9)))]:
        register_classes(state, np.array([6]), make_rng(7))  # known: only catches up
        assert state.predictor.W.tobytes() == lone.predictor.W.tobytes()
        assert state.stage_baseline.W.tobytes() == lone.predictor.W.tobytes()
        assert state.tape.pred_w.shape == lone.predictor.W.shape
        assert state.label_to_row == {2: 0, 6: 1}


# ------------------------------------------------------------- train_step


def test_train_step_loss_additivity():
    ds = small_gauss()
    perm = make_rng(23).permutation(len(ds.train.x))
    xs, ys = ds.train.x[perm], ds.train.y[perm]
    method = uer_method(buffer_capacity=50, hidden_dims=(8,))
    rng = make_rng([0, 1])
    state = init_state(method, ds.input_dim, rng)
    for lo in range(0, 120, 10):
        rec = train_step(state, xs[lo:lo + 10], ys[lo:lo + 10], method, 10, rng)
        assert rec.loss_total == pytest.approx(rec.loss_current + rec.loss_replay,
                                               abs=1e-12)
        assert rec.loss_current > 0.0


def test_train_step_cold_start_has_no_replay_loss():
    ds = small_gauss()
    method = uer_method(hidden_dims=(8,))
    rng = make_rng([0, 1])
    state = init_state(method, ds.input_dim, rng)
    rec = train_step(state, ds.train.x[:10], ds.train.y[:10], method, 10, rng)
    assert rec.loss_replay == 0.0
    assert len(state.buffer) == 10  # the batch was offered after the step


def test_replay_disabled_equals_plain_ce_step():
    ds = small_gauss()
    x, y = ds.train.x[:10], ds.train.y[:10]

    ft = finetune_method(hidden_dims=(8,))
    rng_a = make_rng(7)
    state_a = init_state(ft, ds.input_dim, rng_a)
    train_step(state_a, x, y, ft, 10, rng_a)

    # hand-rolled: register rows with the same rng, then one dot-CE step
    rng_b = make_rng(7)
    state_b = init_state(ft, ds.input_dim, rng_b)
    register_classes(state_b, y, rng_b)
    rows = np.array([state_b.label_to_row[int(v)] for v in y])
    H, cache = forward_batch(state_b.extractor, x)
    _, dH = loss_dot(state_b.predictor, H, rows, state_b.tape)
    backward_batch(state_b.extractor, cache, dH, state_b.tape)
    sgd_step(state_b.extractor, state_b.predictor, state_b.tape, ft.lr)

    np.testing.assert_allclose(flat_params(state_a.extractor, state_a.predictor),
                               flat_params(state_b.extractor, state_b.predictor),
                               atol=1e-12)
    assert len(state_a.buffer) == 0  # replay-disabled runs never store


def test_finetune_never_touches_buffer_rng():
    # with replay off, the only draws are registration rows, so two streams
    # that differ later in buffer usage stay aligned step for step
    ds = small_gauss()
    ft = finetune_method(hidden_dims=(8,))
    rng = make_rng(13)
    state = init_state(ft, ds.input_dim, rng)
    before = rng.bit_generator.state["state"]["state"]
    train_step(state, ds.train.x[:10], ds.train.y[:10], ft, 10, rng)
    mid = rng.bit_generator.state["state"]["state"]
    assert mid != before  # registration drew rows
    train_step(state, ds.train.x[:10], ds.train.y[:10], ft, 10, rng)
    assert rng.bit_generator.state["state"]["state"] == mid  # nothing new drawn


def test_joint_batch_matches_union_mean():
    # the er preset reports partial sums of one union mean; shuffle so every
    # batch mixes classes and the cross-entropy terms stay strictly positive
    ds = small_gauss()
    perm = make_rng(17).permutation(len(ds.train.x))
    xs, ys = ds.train.x[perm], ds.train.y[perm]
    method = er_method(buffer_capacity=50, hidden_dims=(8,))
    rng = make_rng([3, 1])
    state = init_state(method, ds.input_dim, rng)
    recs = []
    for lo in range(0, 160, 10):
        recs.append(train_step(state, xs[lo:lo + 10], ys[lo:lo + 10],
                               method, 10, rng))
    assert recs[0].loss_replay == 0.0  # nothing in the buffer yet
    assert all(r.loss_replay > 0.0 for r in recs[1:])
    assert all(r.loss_current > 0.0 for r in recs)
    for r in recs:
        assert r.loss_total == pytest.approx(r.loss_current + r.loss_replay,
                                             abs=1e-12)


def test_all_table1_triples_run(gauss_datasets):
    assert len(TABLE1_GRID) == 8
    assert len(set(TABLE1_GRID)) == 8
    ds = gauss_datasets[0]
    for learn, replay, test in TABLE1_GRID:
        m = triple_method(f"{learn}-{replay}-{test}", learn, replay, test,
                          buffer_capacity=100, hidden_dims=(16,))
        result = run_experiment(ds, m, STREAM_5x2, 0)
        assert len(result.metrics) == 5
        assert all(0.0 <= v <= 1.0 for row in result.metrics
                   for v in row.accuracy_row)


# --------------------------------------------------------- equivalences


def test_uer_alpha_zero_matches_pure_cosine_triple(gauss_datasets):
    ds = gauss_datasets[1]
    a = run_experiment(ds, uer_method(alpha=0.0, buffer_capacity=100,
                                      hidden_dims=(16,)), STREAM_5x2, 1)
    b = run_experiment(ds, triple_method("ccc", "cosine", "cosine", "cosine",
                                         buffer_capacity=100, hidden_dims=(16,)),
                       STREAM_5x2, 1)
    # same parameter trajectory; only the test-time scoring differs
    for ma, mb in zip(a.metrics, b.metrics):
        assert ma.accumulated_param_change == pytest.approx(
            mb.accumulated_param_change, abs=1e-9)
        assert ma.norm_prev == pytest.approx(mb.norm_prev, abs=1e-9) \
            if ma.norm_prev is not None else mb.norm_prev is None
        assert ma.norm_curr == pytest.approx(mb.norm_curr, abs=1e-9)


def test_uer_a_trajectory_is_uer_alpha_one_bitwise(gauss_datasets):
    ds = gauss_datasets[2]
    a = run_experiment(ds, uer_a_method(buffer_capacity=100, hidden_dims=(16,)),
                       STREAM_2x5, 2)
    b = run_experiment(ds, uer_method(alpha=1.0, buffer_capacity=100,
                                      hidden_dims=(16,)), STREAM_2x5, 2)
    assert len(a.steps) == len(b.steps)
    for ra, rb in zip(a.steps, b.steps):
        assert ra.loss_current == rb.loss_current  # bit-for-bit
        assert ra.loss_replay == rb.loss_replay
    for ma, mb in zip(a.metrics, b.metrics):
        assert ma.accuracy_row == mb.accuracy_row
        assert ma.avg_posterior == mb.avg_posterior
        assert ma.accumulated_param_change == mb.accumulated_param_change


def test_run_determinism_bitwise(gauss_datasets):
    ds = gauss_datasets[3]
    m = uer_method(buffer_capacity=100, hidden_dims=(16,))
    a = run_experiment(ds, m, STREAM_5x2, 3)
    b = run_experiment(ds, m, STREAM_5x2, 3)
    assert a == b  # dataclass equality covers every float in the bundle


# ------------------------------------------------------------ experiment


def test_single_pass_consumed_counts(gauss_datasets):
    ds = gauss_datasets[4]
    result = run_experiment(ds, uer_method(hidden_dims=(16,)), STREAM_5x2, 4)
    for m in result.metrics:
        assert m.consumed_samples == 1000  # 2 classes x 500 train samples
    total_streamed = sum(m.consumed_samples for m in result.metrics)
    assert total_streamed == len(ds.train.x)


def test_one_stage_separable_problem_is_learned():
    means = np.zeros((2, 20))
    means[0, 0], means[1, 0] = 3.0, -3.0
    spec = SyntheticSpec(input_dim=20, means=means, stddev=1.0,
                         train_per_class=2500, test_per_class=200)
    ds = gen_synthetic(spec, make_rng([0, 0]))
    cfg = StreamConfig(stages=1, classes_per_stage=2)
    result = run_experiment(ds, finetune_method(hidden_dims=(16,)), cfg, 0)
    assert result.metrics[-1].accuracy_row[0] > 0.95


def test_finetune_forgets_early_stages(gauss_datasets):
    ds = gauss_datasets[5]
    result = run_experiment(ds, finetune_method(hidden_dims=(16,)), STREAM_5x2, 5)
    last = result.metrics[-1]
    current = last.accuracy_row[-1]
    for j in range(4):
        assert last.accuracy_row[j] < current


def test_stage_metrics_fields_coherent(gauss_datasets):
    ds = gauss_datasets[6]
    result = run_experiment(ds, uer_method(buffer_capacity=100,
                                           hidden_dims=(16,)), STREAM_5x2, 6)
    for t, m in enumerate(result.metrics, 1):
        assert m.stage == t
        assert len(m.accuracy_row) == t
        assert m.average_accuracy == pytest.approx(np.mean(m.accuracy_row),
                                                   abs=1e-12)
        assert m.acc_current == m.accuracy_row[-1]
        assert (m.acc_previous is None) == (t == 1)
        assert (m.norm_prev is None) == (t == 1)
        assert len(m.avg_posterior) == 2 * t
        assert sum(m.avg_posterior) == pytest.approx(1.0, abs=1e-9)
        assert len(m.class_order) == 2 * t
        assert sorted(m.current_classes) == sorted(m.class_order[-2:])
        assert m.accumulated_param_change > 0.0


def test_experiment_steps_counted(gauss_datasets):
    ds = gauss_datasets[7]
    result = run_experiment(ds, uer_method(hidden_dims=(16,)), STREAM_5x2, 7)
    assert len(result.steps) == 500  # 5 stages x 1000 samples / batch 10
    assert result.method == "uer" and result.seed == 7


def test_divergence_names_stage_and_step_without_warnings(gauss_datasets, recwarn):
    # lr = 100 overflows in stage 2; the finiteness check still raises, now
    # with the stage and step, and NumPy's overflow warnings stay silent
    with pytest.raises(FloatingPointError, match=r"^stage \d+, step \d+: .*non-finite"):
        run_experiment(gauss_datasets[0], uer_method(lr=100.0, hidden_dims=(16,)),
                       STREAM_5x2, 0)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
