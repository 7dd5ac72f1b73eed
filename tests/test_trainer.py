"""Training loop: presets, step mechanics, method equivalences."""

import numpy as np
import pytest

from conftest import flat_params, row_source, step_alone
from uer import Run, RunGroup, catch_up, init_run
from uer.logits import LogitMode, loss_dot, score_block
from uer.memory import MemoryBuffer
from uer.net import GradientTape, backward_batch, forward_batch, init_extractor, sgd_step
from uer.numeric import make_rng
from uer.stream import StreamConfig, SyntheticSpec, gen_synthetic
from uer.trainer import (MethodConfig, ReplayRule, StreamState, TABLE1_GRID, er_method,
                         finetune_method, lucir_method, register_classes, run_experiment,
                         run_trajectories, train_step, trajectory_key, triple_method,
                         uer_a_method, uer_method)

STREAM_2x5 = StreamConfig(stages=2, classes_per_stage=5)
STREAM_5x2 = StreamConfig(stages=5, classes_per_stage=2)


def small_gauss(seed=0, classes=4, per_class=40):
    rng = make_rng([seed, 0])
    means = 3.0 * np.eye(classes, 6) - 1.5
    spec = SyntheticSpec(input_dim=6, means=means, stddev=0.8,
                         train_per_class=per_class, test_per_class=10)
    return gen_synthetic(spec, rng)


def no_samples(dim):
    """A source of dim features and no rows, for runs that step nothing."""
    return row_source([(np.zeros((0, dim)), np.zeros(0))])[0]


def register(run, labels, rng):
    """register_classes on the run's stream, then the run catches up."""
    added = register_classes(run.stream, labels, rng)
    catch_up(run)
    return added


def label_to_row(run) -> dict[int, int]:
    """The run's registered labels and their scorer rows, in registration
    order."""
    return {label: row for row, label in enumerate(run.stream.class_order)}


# ---------------------------------------------------------------- presets


def test_preset_triples():
    uer = uer_method()
    assert uer.triple.learn is LogitMode.COSINE
    assert uer.triple.replay.kind == "mixed" and uer.triple.replay.alpha == 0.5
    assert uer.triple.test is LogitMode.DOT

    uer_a = uer_a_method()
    assert uer_a.triple.replay.alpha == 1.0

    er = er_method()
    assert (er.triple.learn, er.triple.replay.kind, er.triple.test) == \
        (LogitMode.DOT, "dot", LogitMode.DOT)
    assert er.joint_batch

    lucir = lucir_method()
    assert (lucir.triple.learn, lucir.triple.replay.kind, lucir.triple.test) == \
        (LogitMode.COSINE, "cosine", LogitMode.COSINE)
    assert lucir_method(name="x") == triple_method("x", "cosine", "cosine", "cosine")

    ft = finetune_method()
    assert ft.buffer_capacity == 0
    assert ft == triple_method("finetune", "dot", "dot", "dot", buffer_capacity=0)


def test_preset_pins_enforced():
    with pytest.raises(ValueError, match="pins alpha"):
        uer_a_method(alpha=0.5)
    with pytest.raises(ValueError, match=r"^finetune pins buffer_capacity = 0, got 5$"):
        finetune_method(buffer_capacity=5)


def test_method_config_validation():
    with pytest.raises(ValueError, match=r"alpha out of \[0,1\]"):
        uer_method(alpha=1.2)
    with pytest.raises(ValueError, match="gamma"):
        uer_method(gamma=0.0)
    with pytest.raises(ValueError, match="lr"):
        uer_method(lr=-0.1)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="^gamma must be positive and finite"):
            uer_method(gamma=bad)
        with pytest.raises(ValueError, match="^lr must be positive and finite"):
            uer_method(lr=bad)
    with pytest.raises(ValueError, match="buffer"):
        uer_method(buffer_capacity=-5)
    with pytest.raises(ValueError, match="hidden"):
        uer_method(hidden_dims=())
    with pytest.raises(ValueError, match="joint_batch"):
        MethodConfig(name="bad",
                     triple=uer_method().triple,
                     joint_batch=True)


def test_triple_method_effective_alpha():
    assert triple_method("a", "dot", "dot", "dot").triple.replay.alpha == 1.0
    assert triple_method("b", "dot", "cosine", "dot").triple.replay.alpha == 0.0
    m = triple_method("c", "cosine", "mixed", "dot", alpha=0.3)
    assert m.triple.replay.alpha == 0.3
    with pytest.raises(ValueError, match="takes no alpha"):
        triple_method("d", "dot", "cosine", "dot", alpha=0.3)
    # a rule holds the weight it trains with; only a mixed rule takes one,
    # so one rule has one spelling and equal rules compare equal
    assert [ReplayRule(kind).alpha for kind in ("dot", "cosine", "mixed")] == [1.0, 0.0, 0.5]
    for kind in ("dot", "cosine"):
        with pytest.raises(ValueError, match=rf"^replay rule '{kind}' takes no alpha, got 1.0$"):
            ReplayRule(kind, 1.0)


# ------------------------------------------------------- class registration


def test_register_classes_growth_law():
    run = init_run(uer_method(), no_samples(6), make_rng(0))
    assert run.predictor.num_classes == 0
    added = register(run, np.array([0, 1, 1, 0]), make_rng(1))
    assert added == [0, 1]
    assert run.predictor.num_classes == 2
    assert register(run, np.array([1, 0]), make_rng(2)) == []
    assert run.predictor.num_classes == 2


def test_register_classes_append_only_scores_stable():
    rng = make_rng(3)
    run = init_run(uer_method(hidden_dims=(5,)), no_samples(4), rng)
    register(run, np.array([2, 7]), rng)
    H = np.abs(make_rng(9).normal(size=(1, 5)))
    before = score_block(run.predictor, H, (LogitMode.DOT,))[0][0, 0]
    register(run, np.array([5]), rng)
    after = score_block(run.predictor, H, (LogitMode.DOT,))[0][0, 0]
    np.testing.assert_allclose(after[:2], before, atol=1e-12)
    assert run.stream.class_order == [2, 7, 5]
    assert label_to_row(run) == {2: 0, 7: 1, 5: 2}


def test_register_classes_row_init_matches_layer_rule():
    # new rows are uniform(-s, s) with s = sqrt(6 / (dim + 1)), bias zero
    run = init_run(uer_method(hidden_dims=(24,)), no_samples(4), make_rng(0))
    s = np.sqrt(6.0 / 25.0)
    for seed in range(10):
        register(run, np.array([seed]), make_rng(seed))
    assert np.all(np.abs(run.predictor.W) < s)
    assert np.all(run.predictor.b == 0.0)


def test_register_extends_tape_and_baseline():
    source, (rows,) = row_source([(make_rng(2).normal(size=(4, 6)), np.array([0, 1, 2, 3]))])
    method = uer_method()
    run = init_run(method, source, make_rng(1))
    group = RunGroup([run])
    register(run, np.array([0, 1, 2]), make_rng(1))
    assert run.stage_baseline.W.shape == run.predictor.W.shape
    # baseline carries the same fresh-row values, so registering is motionless
    np.testing.assert_array_equal(run.stage_baseline.W, run.predictor.W)
    # a step that registers label 3 gives the part, whose tape is the
    # run's only one, a tape of the grown scorer's shape
    step_alone(group, rows, source.y, 10, make_rng(3))
    assert run.predictor.num_classes == 4
    assert group.parts[0].tape.pred_w.shape == (1, *run.predictor.W.shape)


@pytest.mark.parametrize("labels", [[3, 0, 3], [0], [5, 1], [7], [-1], [0, -2]])
def test_register_classes_fast_path_agrees_with_the_loop(labels):
    # a batch of known labels returns at once and draws nothing; anything
    # else (new labels, labels past the lookup, negative labels) takes the
    # per-label loop exactly as before
    run = init_run(uer_method(hidden_dims=(4,)), no_samples(3), make_rng(0))
    register(run, np.array([3, 0]), make_rng(1))
    rng = make_rng(2)
    before = rng.bit_generator.state
    if min(labels) < 0:
        with pytest.raises(ValueError, match="non-negative"):
            register(run, np.array(labels), rng)
        return
    added = register(run, np.array(labels), rng)
    new = [c for c in dict.fromkeys(labels) if c not in (3, 0)]
    assert added == new
    assert (rng.bit_generator.state == before) == (not new)
    assert run.stream.class_order == [3, 0, *new]
    assert run.predictor.num_classes == len(run.stream.class_order)


def test_runs_on_one_stream_get_the_same_rows():
    # the stream draws a new row once; every run's scorer and stage
    # baseline catch up with the same values
    source, (rows,) = row_source([(make_rng(4).normal(size=(2, 3)), np.array([6, 2]))])
    stream = StreamState(MemoryBuffer(5), 4, source)
    method = uer_method(hidden_dims=(4,))
    runs = [Run(method, init_extractor((3, 4), make_rng(k)), stream) for k in range(2)]
    assert register_classes(stream, np.array([2, 6]), make_rng(5)) == [2, 6]
    lone = init_run(method, no_samples(3), make_rng(0))
    register(lone, np.array([2, 6]), make_rng(5))
    runs.append(Run(method, init_extractor((3, 4), make_rng(9)), stream))
    for run in runs:
        register(run, np.array([6]), make_rng(7))  # known: only catches up
        assert run.predictor.W.tobytes() == lone.predictor.W.tobytes()
        assert run.stage_baseline.W.tobytes() == lone.predictor.W.tobytes()
        assert label_to_row(run) == {2: 0, 6: 1}
    # after one step the runs' part tape holds a slice of that shape per run
    group = RunGroup(runs)
    train_step(group, [rows], [source.y], 0, [make_rng(8)])
    assert group.parts[0].tape.pred_w.shape == (3, *lone.predictor.W.shape)


# ------------------------------------------------------------- train_step


def test_train_step_loss_additivity():
    ds = small_gauss()
    perm = make_rng(23).permutation(len(ds.train.x))
    method = uer_method(buffer_capacity=50, hidden_dims=(8,))
    rng = make_rng([0, 1])
    group = RunGroup([init_run(method, ds.train, rng)])
    pairs = [step_alone(group, perm[lo:lo + 10], ds.train.y[perm[lo:lo + 10]], 10, rng)
             for lo in range(0, 120, 10)]
    losses = np.array(pairs)  # a run's loss history: (loss_current, loss_replay) rows
    assert losses.shape == (12, 2) and losses.dtype == np.float64
    # the total loss is the row sum, the very sum of the pair
    assert losses.sum(axis=1).tobytes() == np.array([c + p for c, p in pairs]).tobytes()
    assert (losses[:, 0] > 0.0).all()


def test_train_step_cold_start_has_no_replay_loss():
    ds = small_gauss()
    method = uer_method(hidden_dims=(8,))
    rng = make_rng([0, 1])
    run = init_run(method, ds.train, rng)
    _, loss_replay = step_alone(RunGroup([run]), np.arange(10), ds.train.y[:10], 10, rng)
    assert loss_replay == 0.0
    assert len(run.stream.buffer) == 10  # the batch was offered after the step


def test_replay_disabled_equals_plain_ce_step():
    ds = small_gauss()
    x, y = ds.train.x[:10], ds.train.y[:10]

    ft = finetune_method(hidden_dims=(8,))
    rng_a = make_rng(7)
    run_a = init_run(ft, ds.train, rng_a)
    step_alone(RunGroup([run_a]), np.arange(10), y, 10, rng_a)

    # hand-rolled: register rows with the same rng, then one dot-CE step
    rng_b = make_rng(7)
    run_b = init_run(ft, ds.train, rng_b)
    register(run_b, y, rng_b)
    rows = np.array([label_to_row(run_b)[int(v)] for v in y])
    tape = GradientTape(run_b.extractor, run_b.predictor)
    H, cache = forward_batch(run_b.extractor, x)
    _, dH = loss_dot(run_b.predictor, H, rows, tape)
    backward_batch(run_b.extractor, cache, dH, tape)
    sgd_step(run_b.extractor, run_b.predictor, tape, ft.lr)

    np.testing.assert_allclose(flat_params(run_a.extractor, run_a.predictor),
                               flat_params(run_b.extractor, run_b.predictor),
                               atol=1e-12)
    assert len(run_a.stream.buffer) == 0  # replay-disabled runs never store


def test_finetune_never_touches_buffer_rng():
    # with replay off, the only draws are registration rows, so two streams
    # that differ later in buffer usage stay aligned step for step
    ds = small_gauss()
    ft = finetune_method(hidden_dims=(8,))
    rng = make_rng(13)
    group = RunGroup([init_run(ft, ds.train, rng)])
    before = rng.bit_generator.state["state"]["state"]
    step_alone(group, np.arange(10), ds.train.y[:10], 10, rng)
    mid = rng.bit_generator.state["state"]["state"]
    assert mid != before  # registration drew rows
    step_alone(group, np.arange(10), ds.train.y[:10], 10, rng)
    assert rng.bit_generator.state["state"]["state"] == mid  # nothing new drawn


def test_joint_batch_matches_union_mean():
    # the er preset reports partial sums of one union mean; shuffle so every
    # batch mixes classes and the cross-entropy terms stay strictly positive
    ds = small_gauss()
    perm = make_rng(17).permutation(len(ds.train.x))
    method = er_method(buffer_capacity=50, hidden_dims=(8,))
    rng = make_rng([3, 1])
    group = RunGroup([init_run(method, ds.train, rng)])
    pairs = [step_alone(group, perm[lo:lo + 10], ds.train.y[perm[lo:lo + 10]], 10, rng)
             for lo in range(0, 160, 10)]
    losses = np.array(pairs)
    assert losses[0, 1] == 0.0  # nothing in the buffer yet
    assert (losses[1:, 1] > 0.0).all()
    assert (losses[:, 0] > 0.0).all()
    assert losses.sum(axis=1).tobytes() == np.array([c + p for c, p in pairs]).tobytes()


def _snapshot(group, rngs) -> list:
    """Every run's parameters, its stream's buffer, label map and counters,
    and every rng's state."""
    out = [r.bit_generator.state for r in rngs]
    for run in group.runs:
        stream = run.stream
        buf = stream.buffer
        out += [flat_params(run.extractor, run.predictor).tobytes(), buf.rows.tobytes(),
                buf.y.tobytes(), buf.size, buf.seen,
                list(stream.class_order), stream.row_of_label.tobytes(), stream.step,
                stream.consumed_in_stage]
    return out


def _stepped_lone_and_group():
    """A group of one run and a RunGroup of two streams, stepped
    directly over the first 40 rows of a shuffled small_gauss, so that
    their buffers replay: (dataset, method, row order, lone group, its
    rng, group, its rngs)."""
    ds = small_gauss()
    method = uer_method(buffer_capacity=20, hidden_dims=(8,))
    perm = make_rng(23).permutation(len(ds.train))
    rng = make_rng(5)
    lone = RunGroup([init_run(method, ds.train, rng)])
    streams = [StreamState(MemoryBuffer(20), 8, ds.train) for _ in range(2)]
    group = RunGroup([Run(method, init_extractor((6, 8), make_rng(k)), stream)
                      for k, stream in enumerate(streams)])
    rngs = [make_rng(6), make_rng(7)]
    for lo in range(0, 40, 10):  # the buffers fill and replay
        rows = perm[lo:lo + 10]
        step_alone(lone, rows, ds.train.y[rows], 10, rng)
        train_step(group, [rows, rows[::-1]], [ds.train.y[rows], ds.train.y[rows[::-1]]],
                   10, rngs)
    return ds, method, perm, lone, rng, group, rngs


@pytest.mark.parametrize("bad", [-1, -2 ** 40, 160, 2 ** 62],
                         ids=["minus-one", "far-negative", "one-past-the-end", "far-past-the-end"])
def test_a_row_outside_the_source_raises_and_changes_nothing(bad):
    # a step reads its samples from its stream's source by row: a negative
    # row, or one past the source's 160, raises IndexError before the step
    # draws or writes anything, in a group of one run and in a group
    # of two streams whose second batch holds it
    ds, method, perm, lone, rng, group, rngs = _stepped_lone_and_group()
    good, rows = perm[40:50], perm[50:60].copy()
    rows[3] = bad
    y = ds.train.y[perm[50:60]]

    before = _snapshot(lone, [rng])
    with pytest.raises(IndexError, match="outside the 160 samples"):
        step_alone(lone, rows, y, 10, rng)
    assert _snapshot(lone, [rng]) == before

    before = _snapshot(group, rngs)
    with pytest.raises(IndexError, match="outside the 160 samples"):
        train_step(group, [good, rows], [ds.train.y[good], y], 10, rngs)
    assert _snapshot(group, rngs) == before


def test_an_empty_batch_raises_and_changes_nothing():
    # a step learns the mean over its incoming batch: an empty one raises
    # ValueError naming it before the step draws or writes anything, in a
    # group of one run and in a group of two streams whose second
    # batch is empty (it once divided by zero after the replay draw)
    ds, method, perm, lone, rng, group, rngs = _stepped_lone_and_group()
    empty, good = np.zeros(0, dtype=np.int64), perm[40:50]

    before = _snapshot(lone, [rng])
    with pytest.raises(ValueError, match="^an empty batch: "):
        step_alone(lone, empty, empty, 10, rng)
    assert _snapshot(lone, [rng]) == before

    before = _snapshot(group, rngs)
    with pytest.raises(ValueError, match="^an empty batch: "):
        train_step(group, [good, empty], [ds.train.y[good], empty], 10, rngs)
    assert _snapshot(group, rngs) == before


@pytest.mark.parametrize("n_rows,n_labels", [(10, 9), (9, 10)])
def test_rows_and_labels_of_other_lengths_raise_and_change_nothing(n_rows, n_labels):
    # each incoming row needs its label: a batch whose rows and labels
    # differ in length raises ValueError naming both counts before the
    # step draws or writes anything (it once raised only after the replay
    # draw), in a group of one run and in a group of two streams
    # whose second batch is the odd one
    ds, method, perm, lone, rng, group, rngs = _stepped_lone_and_group()
    good, rows, y = perm[40:50], perm[50:50 + n_rows], ds.train.y[perm[50:50 + n_labels]]
    message = f"^a batch of {n_rows} rows but {n_labels} labels$"

    before = _snapshot(lone, [rng])
    with pytest.raises(ValueError, match=message):
        step_alone(lone, rows, y, 10, rng)
    assert _snapshot(lone, [rng]) == before

    before = _snapshot(group, rngs)
    with pytest.raises(ValueError, match=message):
        train_step(group, [good, rows], [ds.train.y[good], y], 10, rngs)
    assert _snapshot(group, rngs) == before


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
    assert a.losses.shape == b.losses.shape
    assert a.losses.tobytes() == b.losses.tobytes()  # bit-for-bit
    for ma, mb in zip(a.metrics, b.metrics):
        assert ma.accuracy_row == mb.accuracy_row
        assert ma.avg_posterior == mb.avg_posterior
        assert ma.accumulated_param_change == mb.accumulated_param_change


def test_finetune_is_dot_replay_from_an_empty_buffer(gauss_datasets):
    # ER with an empty episodic memory is finetuning: both follow one
    # trajectory and train bit for bit alike
    ds = gauss_datasets[7]
    empty = triple_method("x", "dot", "dot", "dot", buffer_capacity=0, hidden_dims=(16,))
    finetune = finetune_method(name="x", hidden_dims=(16,))
    assert trajectory_key(empty, 7) == trajectory_key(finetune, 7)
    (a,), (b,) = (run_trajectories(lambda _seed: ds, [(m, 7)], STREAM_5x2)
                  for m in (empty, finetune))
    assert a.metrics == b.metrics
    assert a.losses.tobytes() == b.losses.tobytes()
    assert not a.losses[:, 1].any()  # nothing was replayed


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
    assert result.losses.shape == (500, 2)  # 5 stages x 1000 samples / batch 10
    assert result.method == "uer" and result.seed == 7


def test_divergence_names_stage_and_step_without_warnings(gauss_datasets, recwarn):
    # lr = 100 overflows in stage 2; the finiteness check still raises, now
    # with the stage and step, and NumPy's overflow warnings stay silent
    with pytest.raises(FloatingPointError, match=r"^stage \d+, step \d+: .*non-finite"):
        run_experiment(gauss_datasets[0], uer_method(lr=100.0, hidden_dims=(16,)),
                       STREAM_5x2, 0)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
