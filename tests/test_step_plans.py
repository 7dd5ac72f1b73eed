"""Per-stage and per-shape work of the training step, done once.

A part builds the StepPlan of a step shape (its runs, n incoming, n
replayed, registered classes) on the shape's first step and reuses it;
a trajectory stops looking batches up in register_classes once its stage's
classes are all registered; a stage's training rows are gathered once. A
step checks finiteness once, a scored block reduces its features once, and
a trajectory's steps do not check their rows against the source.
The call counts below keep that work from moving back into every step,
and the runs that exercise the skipped lookups match the per-method
oracle (legacy_step) byte for byte.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import legacy_step
from conftest import losses_of, row_source, step_alone
import uer.logits
import uer.trainer
from uer import RunGroup, init_run
from uer.evaluation import BLOCK_ROWS, row_blocks, score_stages, stage_metrics_to_dict
from uer.logits import CosineScale, LogitMode, PredictorParams, loss_rows, step_plan
from uer.net import GradientTape, FeatureExtractor, LayerParams, init_extractor
from uer.numeric import ShapeError, Workspace, make_rng
from uer.stream import Dataset, LabeledData, StreamConfig, gen_synthetic, make_sphere_spec
from uer.trainer import (er_method, lucir_method, run_trajectories, train_step, uer_a_method,
                         uer_method)

STREAM = StreamConfig(stages=2, classes_per_stage=2, batch_size_current=10,
                      batch_size_memory=10)


def _dataset(seed, sizes, dim=8):
    """One class per entry of sizes (its train rows), 7 test rows each."""
    rng = make_rng([seed, 9])
    data = gen_synthetic(make_sphere_spec(len(sizes), dim, 3.0, 1.0, max(sizes), 7, rng), rng)
    keep = np.concatenate([np.flatnonzero(data.train.y == c)[:n] for c, n in enumerate(sizes)])
    return Dataset(LabeledData(data.train.x[keep], data.train.y[keep]), data.test,
                   num_classes=len(sizes), input_dim=dim)


def _metrics_bytes(result) -> bytes:
    return "".join(json.dumps(stage_metrics_to_dict(m)) + "\n"
                   for m in result.metrics).encode("utf-8")


def _assert_matches_oracle(outcomes, runs, datasets, stream=STREAM):
    for (method, seed), outcome in zip(runs, outcomes):
        alone = legacy_step.per_seed_run(datasets[seed], method, stream, seed)
        assert _metrics_bytes(outcome) == _metrics_bytes(alone)
        assert outcome.losses.tobytes() == losses_of(alone.steps).tobytes()


def _methods():
    kw = dict(hidden_dims=(16,), buffer_capacity=30)
    return [uer_method(**kw), uer_a_method(**kw), lucir_method(**kw), er_method(**kw)]


# ---------------------------------------------------------- call counts


def test_a_two_stage_run_builds_one_plan_per_step_shape(monkeypatch):
    builds, steps = [], []
    real_plan, real_descend = uer.trainer.step_plan, uer.trainer._descend

    def counted(*args):
        builds.append(args[3:])  # (shape, classes)
        return real_plan(*args)

    def recording(part, ws, X, rows, plan):
        steps.append((part, plan))  # the part is kept, so its id is not reused
        return real_descend(part, ws, X, rows, plan)
    monkeypatch.setattr(uer.trainer, "step_plan", counted)
    monkeypatch.setattr(uer.trainer, "_descend", recording)
    datasets = {seed: _dataset(seed, [60] * 4) for seed in (0, 1)}
    runs = [(method, seed) for seed in (0, 1) for method in _methods()]
    outcomes = run_trajectories(datasets.__getitem__, runs, STREAM)
    monkeypatch.undo()
    _assert_matches_oracle(outcomes, runs, datasets)
    shapes = {(id(part), plan.shape, plan.classes) for part, plan in steps}
    assert len(builds) == len({id(plan) for _, plan in steps}) == len(shapes)
    # per part: (10 incoming, nothing replayed, 2 classes), then (10, 10, 2)
    # and (10, 10, 4), over 12 steps a stage
    assert len(shapes) == 3 * len({id(part) for part, _ in steps})
    assert len(steps) == 24 * len({id(part) for part, _ in steps})


def test_register_classes_is_skipped_once_the_stage_classes_are_registered(monkeypatch):
    calls = []
    real = uer.trainer.register_classes

    def counted(stream, labels, rng):
        assert stream.unregistered, "a batch of a registered stage was looked up"
        added = real(stream, labels, rng)
        calls.append((stream, added))
        return added
    monkeypatch.setattr(uer.trainer, "register_classes", counted)
    # one class of 60 rows and one of 3 per stage: the small class usually
    # arrives after the first batch, so a stage takes several lookups
    datasets = {seed: _dataset(seed, [60, 3, 60, 3]) for seed in (0, 1)}
    runs = [(method, seed) for seed in (0, 1) for method in _methods()]
    outcomes = run_trajectories(datasets.__getitem__, runs, STREAM)
    monkeypatch.undo()
    _assert_matches_oracle(outcomes, runs, datasets)
    streams = {id(stream) for stream, _ in calls}
    assert len(streams) == 2  # the four methods of a seed share one stream
    for key in streams:
        added = [label for stream, new in calls if id(stream) == key for label in new]
        assert sorted(added) == [0, 1, 2, 3]
    # 7 steps a stage; a lookup per step would make 2 x 2 x 7
    assert len(calls) < 2 * 2 * 7


def test_a_step_checks_finiteness_once(monkeypatch):
    # loss_rows checks the cross-entropy, which a non-finite feature makes
    # non-finite on its row: that is a step's one finiteness check, and the
    # features are checked only once it fails
    checks, steps = [], []
    real_descend = uer.trainer._descend
    for module in (uer.logits, uer.trainer):
        def counted(arr, name="array", stacked=False, _real=module.require_finite):
            if steps and steps[-1] is not None:
                checks.append((len(steps), name))
            return _real(arr, name, stacked)
        monkeypatch.setattr(module, "require_finite", counted)

    def recording(*args):
        steps.append(args[0])
        try:
            return real_descend(*args)
        finally:
            steps.append(None)
    monkeypatch.setattr(uer.trainer, "_descend", recording)
    datasets = {0: _dataset(0, [40] * 4)}
    run_trajectories(datasets.__getitem__, [(m, 0) for m in _methods()], STREAM)
    monkeypatch.undo()
    n_steps = len(steps) // 2
    assert n_steps == 2 * 8  # the uer, uer-a and lucir part, and er's
    assert checks == [(2 * k + 1, "cross-entropy") for k in range(n_steps)]


class _Watched(np.ndarray):
    """An activation block that records each reduction taken of it."""
    reductions: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kw):
        if method == "reduce":
            _Watched.reductions.append(ufunc.__name__)
        plain = [x.view(np.ndarray) if isinstance(x, _Watched) else x for x in inputs]
        if out is not None:
            kw["out"] = tuple(x.view(np.ndarray) if isinstance(x, _Watched) else x for x in out)
        result = getattr(ufunc, method)(*plain, **kw)
        return out[0] if out is not None and len(out) == 1 else result


class _WatchedWorkspace(Workspace):
    """A Workspace whose activation buffers record their reductions."""
    __slots__ = ()

    def __call__(self, name, shape, dtype=np.float64):
        buf = super().__call__(name, shape, dtype)
        return buf.view(_Watched) if isinstance(name, tuple) and name[0] == "a" else buf


@pytest.mark.parametrize("mode", [LogitMode.DOT, LogitMode.COSINE])
def test_a_scored_block_reduces_its_features_once(mode, monkeypatch):
    # the max that finds collapsed features also checks them finite: no
    # other reduction of a block's features, in the forward pass or after
    rng = make_rng(3)
    extractor = init_extractor((6, 8), rng)
    state = SimpleNamespace(extractor=extractor, predictor=PredictorParams(
        rng.normal(size=(4, 8)), np.zeros(4)), stream=SimpleNamespace(class_order=[0, 1, 2, 3]))
    n = 2 * BLOCK_ROWS + 5
    test = LabeledData(rng.normal(size=(n, 6)), rng.integers(0, 4, size=n))
    monkeypatch.setattr(_Watched, "reductions", [])
    scores = score_stages(state, test, [n // 2, n], mode, CosineScale(10.0),
                          ws=_WatchedWorkspace())
    assert _Watched.reductions == ["maximum"] * len(row_blocks(n)) == ["maximum"] * 2
    assert not scores.collapsed


def _counted_row_checks(monkeypatch) -> list:
    """The row reductions uer.trainer makes (np.maximum.reduce, the row
    check's only use), by the shape reduced."""
    calls = []

    class Maximum:
        def reduce(self, rows, *args, **kw):
            calls.append(rows.shape)
            return np.maximum.reduce(rows, *args, **kw)
    numpy = SimpleNamespace(**vars(np))
    numpy.maximum = Maximum()
    monkeypatch.setattr(uer.trainer, "np", numpy)
    return calls


def test_a_trajectory_step_makes_no_row_check(monkeypatch):
    # a trajectory's rows are its own stage split of its source: its steps
    # reduce none of them. A direct train_step caller's rows are still
    # checked, one reduction per stream, in a group of one run and in a
    # group of two (tests/test_trainer.py pins the IndexError before any
    # draw)
    datasets = {0: _dataset(0, [40] * 4)}
    calls = _counted_row_checks(monkeypatch)
    outcomes = run_trajectories(datasets.__getitem__, [(m, 0) for m in _methods()], STREAM)
    assert calls == [] and all(len(o.losses) for o in outcomes)
    data, method = datasets[0], _methods()[0]
    lone = RunGroup([init_run(method, data.train, make_rng(1))])
    step_alone(lone, np.arange(10), data.train.y[:10], 10, make_rng(2))
    assert calls == [(10,)]
    group = RunGroup([init_run(method, data.train, make_rng(k)) for k in (3, 4)])
    train_step(group, [np.arange(10), np.arange(10, 20)],
               [data.train.y[:10], data.train.y[10:20]], 10, [make_rng(5), make_rng(6)])
    assert calls == [(10,), (10,), (10,)]


# --------------------------------------------------- lookups left out


def test_a_direct_train_step_registers_a_new_label():
    # a run stepped directly (in a group of its own) is on no
    # trajectory: every batch is looked up, so a label first seen late
    # still gets its row
    data = _dataset(3, [30, 30, 30])
    order = make_rng(4).permutation(60)  # classes 0 and 1 only
    xs, ys = data.train.x[order], data.train.y[order]
    late = np.flatnonzero(data.train.y == 2)[:10]
    batches = [(xs[lo:lo + 10], ys[lo:lo + 10]) for lo in range(0, 40, 10)]
    batches.insert(2, (data.train.x[late[:5]], data.train.y[late[:5]]))
    batches.append((np.concatenate([xs[40:45], data.train.x[late[5:]]]),
                    np.concatenate([ys[40:45], data.train.y[late[5:]]])))
    # (the run steps the batches' rows in a source, the oracle their features)
    source, rows = row_source(batches)
    method = uer_method(hidden_dims=(16,), buffer_capacity=30)
    ours, theirs = make_rng(8), make_rng(8)
    run = init_run(method, source, ours)
    group = RunGroup([run])
    oracle = legacy_step.init_state(method, data.input_dim, theirs)
    for (x, y), batch_rows in zip(batches, rows):
        got = np.array([step_alone(group, batch_rows, y, 10, ours)])
        want = legacy_step.per_seed_train_step(oracle, x, y, method, 10, theirs)
        assert got.tobytes() == losses_of([want]).tobytes()
        assert run.predictor.W.tobytes() == oracle.predictor.W.tobytes()
        assert run.extractor.layers[0].weight.tobytes() == \
            oracle.extractor.layers[0].weight.tobytes()
    assert run.stream.class_order == oracle.stream.class_order and \
        sorted(run.stream.class_order) == [0, 1, 2]


def test_a_class_first_seen_in_a_stage_last_batch_gets_its_row(monkeypatch):
    # a class of 1 row next to one of 29 lands in its stage's last batch
    # of 10 in about a third of the stages; each such run must register it
    # there and match the oracle
    seen = []
    real = uer.trainer.iterate_batches

    def recording(*args):
        batches = []
        seen.append(batches)
        for batch in real(*args):
            batches.append(batch[1])
            yield batch
    monkeypatch.setattr(uer.trainer, "iterate_batches", recording)
    stream = StreamConfig(stages=3, classes_per_stage=2, batch_size_current=10,
                          batch_size_memory=10)
    datasets = {seed: _dataset(seed, [29, 1, 29, 1, 29, 1]) for seed in range(6)}
    runs = [(uer_method(hidden_dims=(16,), buffer_capacity=30), seed) for seed in range(6)]
    outcomes = run_trajectories(datasets.__getitem__, runs, stream)
    monkeypatch.undo()
    late = 0
    for batches in seen:
        earlier = set(np.concatenate(batches[:-1]).tolist()) if len(batches) > 1 else set()
        late += bool(set(batches[-1].tolist()) - earlier)
    assert late >= 2  # the case this test is about occurs
    _assert_matches_oracle(outcomes, runs, datasets, stream)
    for outcome in outcomes:
        assert sorted(outcome.metrics[-1].class_order) == list(range(6))


# ----------------------------------------------------------- the plan


def test_a_plan_gives_the_bits_of_a_call_without_one():
    rng = make_rng(2)
    pp = PredictorParams(rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5)))
    H = np.abs(rng.normal(size=(3, 6, 4)))
    rows = rng.integers(0, 5, size=(3, 6))
    alpha = np.repeat([[1.0], [0.5], [0.0]], 6, axis=1)  # dot, both, cosine
    w = np.full((3, 6), 1 / 6)
    scale = CosineScale(5.0)
    fe = FeatureExtractor([LayerParams(np.ones((3, 4, 2)), np.zeros((3, 4)))])
    plan = step_plan(scale, alpha, w, rows.shape, 5)
    for _ in range(2):  # the plan's blocks are read, not written
        tape_a, tape_b = GradientTape(fe, pp), GradientTape(fe, pp)
        ce_a, dH_a = loss_rows(pp, scale, alpha, H, rows, w, tape_a)
        ce_b, dH_b = loss_rows(pp, scale, alpha, H, rows, w, tape_b, plan=plan)
        assert ce_a.tobytes() == ce_b.tobytes() and dH_a.tobytes() == dH_b.tobytes()
        assert tape_a.pred_w.tobytes() == tape_b.pred_w.tobytes()
        assert tape_a.pred_b.tobytes() == tape_b.pred_b.tobytes()
    assert not plan.grad.flags.writeable
    with pytest.raises(ShapeError, match="a plan for rows"):
        loss_rows(pp, scale, alpha, H[:, :5], rows[:, :5], w, plan=plan)
    with pytest.raises(ValueError, match="without weights"):
        loss_rows(pp, scale, alpha, H, rows, w, GradientTape(fe, pp),
                  plan=step_plan(scale, alpha, None, rows.shape, 5))
