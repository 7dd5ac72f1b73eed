"""Test-only references for the training step.

``legacy_train_step`` is the per-call step the fused step replaced, kept
verbatim in behaviour, so the fused path in ``uer.trainer`` /
``uer.logits`` / ``uer.memory`` can be checked against it: a
list-of-samples reservoir, three separate scoring losses, and a train step
that runs one forward/backward for the incoming batch and a second one for
the replayed batch.

``per_seed_train_step`` and ``per_seed_run`` are the fused step and the
experiment loop as they ran before a method's seeds trained in lockstep:
one seed at a time, on 2-d blocks, with every stage's rows copied out of
the dataset. A seed trained in a seed group must match them byte for
byte.

``run_seed_group`` is the runner as it was before runs shared
trajectories: one method's seeds in lockstep, each seed with a stream,
buffer and scorer rows of its own (``seed_group_step`` is its step). A run
on a shared trajectory must match it byte for byte.

These oracles step feature batches, as the trainer did before its batches
and buffer named samples by their dataset row: ``MemoryBuffer``,
``buffer_update``, ``iterate_batches`` and ``init_state`` are the
feature-copying buffer, batching and run set-up of that trainer, kept
verbatim. ``gen_synthetic`` is the synthetic data generator as it was
before it wrote its draws in place: per-class blocks, concatenated. Every
step here runs the forward pass that checked its own features
(``legacy_eval.forward_batch``). ``StepRecord`` and ``ExperimentResult``
are a step's losses and a run's result as they were before a run kept
its losses as one float array: a record per step, with the total.
``Stage``, ``gather`` and ``build_stages`` are the gathered copies of a
stage's rows, and ``TrainState``, ``_follow``, ``catch_up`` and
``GradientTape.add_class_rows`` the run with a gradient tape of its own
(grown row by row as classes register), as that trainer had them;
``split_stages`` is ``uer.stream.build_stages``, the row split.
Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from legacy_eval import forward_batch
from uer.evaluation import StageMetrics
from uer.logits import (CosineScale, EPS_NORM, LogitMode, PredictorParams, _batch_targets,
                        cosine_logits_batch, dot_logits_batch, loss_rows)
from uer.memory import buffer_retrieve
from uer.net import FeatureExtractor, LayerParams, backward_batch, init_extractor, sgd_step
from uer.net import GradientTape as _Tape
from uer.numeric import NonFiniteError, Rng, make_rng, require_finite
from uer.stream import Dataset, LabeledData, StageRows, StreamConfig, SyntheticSpec
from uer.stream import build_stages as split_stages
from uer.trainer import MethodConfig, StreamState, _collect_stage_metrics, _row_mix, \
    register_classes


@dataclass
class StepRecord:
    loss_current: float
    loss_replay: float
    loss_total: float


@dataclass
class ExperimentResult:
    method: str
    seed: int
    metrics: list[StageMetrics]
    steps: list[StepRecord]


def _replays(method: MethodConfig) -> bool:
    """A method replays exactly when its buffer capacity is above 0."""
    return method.buffer_capacity > 0


def softmax_rows(L: np.ndarray) -> np.ndarray:
    e = np.exp(L - L.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------- gathered stages, run state


@dataclass
class Stage:
    index: int  # 1-based
    class_set: tuple[int, ...]
    train: LabeledData
    test: LabeledData


def gather(stage: StageRows, index: int, dataset: Dataset) -> Stage:
    return Stage(index=index, class_set=stage.class_set,
                 train=LabeledData(dataset.train.x[stage.train_rows],
                                   dataset.train.y[stage.train_rows]),
                 test=LabeledData(dataset.test.x[stage.test_rows],
                                  dataset.test.y[stage.test_rows]))


def build_stages(dataset: Dataset, cfg: StreamConfig, rng: Rng) -> list[Stage]:
    """Shuffle class ids, partition them, and slice the dataset per stage
    (split_stages, each stage gathered)."""
    return [gather(rows, t, dataset)
            for t, rows in enumerate(split_stages(dataset, cfg, rng), 1)]


class GradientTape(_Tape):
    """The tape of one run, grown a zero row per class it registers."""

    def add_class_rows(self, n: int) -> None:
        if n < 0:
            raise ValueError("cannot remove class rows")
        self.pred_w = np.vstack([self.pred_w, np.zeros((n, self.pred_w.shape[1]))])
        self.pred_b = np.append(self.pred_b, np.zeros(n))


@dataclass
class TrainState:
    """One run's parameters, gradient tape and the scorer as the stage
    began, on the stream it follows."""
    extractor: FeatureExtractor
    predictor: PredictorParams
    tape: GradientTape
    stream: StreamState
    stage_baseline: PredictorParams | None = None


def _follow(stream: StreamState, extractor: FeatureExtractor) -> TrainState:
    """A run with its own extractor and an empty scorer on a stream; the
    scorer then catches up with the rows the stream has registered."""
    predictor = PredictorParams.empty(stream.dim)
    state = TrainState(extractor, predictor, GradientTape(extractor, predictor), stream,
                       predictor.copy())
    catch_up(state)
    return state


def with_tape(state) -> TrainState:
    """The run of a ``uer.trainer.TrainState`` (which holds no tape, its
    part's tape taking its gradients) with a zero tape of its own."""
    return TrainState(state.extractor, state.predictor,
                      GradientTape(state.extractor, state.predictor), state.stream,
                      state.stage_baseline)


def catch_up(state: TrainState) -> None:
    """Append to the run's scorer the rows its stream registered since it
    last looked, at their initial values. The stage baseline gets the same
    values, so parameter movement excludes initialization."""
    for row in state.stream.init_rows[state.predictor.num_classes:]:
        state.predictor.add_class(row, 0.0)
        state.tape.add_class_rows(1)
        if state.stage_baseline is not None:
            state.stage_baseline.add_class(row.copy(), 0.0)


# ------------------------------------------------- feature-copying buffer


class MemoryBuffer:
    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)
        self.x: np.ndarray | None = None
        self.y = np.zeros(self.capacity, dtype=np.int64)
        self.pos = np.zeros(self.capacity, dtype=np.int64)
        self.size = 0
        self.seen = 0

    def __len__(self) -> int:
        return self.size


def buffer_update(buf: MemoryBuffer, batch: LabeledData, rng: Rng) -> None:
    """Offer a batch in order; sample i gets stream position buf.seen + i."""
    start, n = buf.seen, len(batch)
    if buf.x is None:
        buf.x = np.zeros((buf.capacity, batch.x.shape[1]))
    fill = min(n, buf.capacity - buf.size)
    if fill > 0:
        s = buf.size
        buf.x[s:s + fill] = batch.x[:fill]
        buf.y[s:s + fill] = batch.y[:fill]
        buf.pos[s:s + fill] = np.arange(start, start + fill)
        buf.size += fill
    if fill < n:
        # j_i uniform on [0, n_i), one draw for the rest; a draw j < capacity
        # replaces slot j, in stream order, so a later sample wins a shared slot
        js = rng.integers(0, np.arange(start + fill + 1, start + n + 1))
        for i, j in enumerate(js.tolist(), fill):
            if j < buf.capacity:
                buf.x[j] = batch.x[i]
                buf.y[j] = batch.y[i]
                buf.pos[j] = start + i
    buf.seen = start + n


def iterate_batches(stage: Stage | StageRows, cfg: StreamConfig, rng: Rng,
                    dataset: Dataset | None = None):
    """Single pass over the stage's training split in shuffled batches.

    stage is a Stage, or a StageRows whose rows are read from dataset. The
    shuffled rows are gathered in one read-only block as the first batch
    is asked for, and each batch is a view of it. The final batch may be
    short; every sample is yielded exactly once.
    """
    if isinstance(stage, StageRows):
        source, rows = dataset.train, stage.train_rows
        order = rows[rng.permutation(len(rows))]
    else:
        source = stage.train
        order = rng.permutation(len(source))
    x, y = source.x[order], source.y[order]
    x.flags.writeable = y.flags.writeable = False
    for lo in range(0, len(y), cfg.batch_size_current):
        yield x[lo:lo + cfg.batch_size_current], y[lo:lo + cfg.batch_size_current]


def init_state(method: MethodConfig, input_dim: int, rng: Rng) -> TrainState:
    """A run on a stream of its own, its extractor drawn from rng; its
    buffer copies features, and its steps never read the stream's source."""
    extractor = init_extractor((input_dim, *method.hidden_dims), rng)
    return _follow(StreamState(MemoryBuffer(method.buffer_capacity), extractor.out_dim, None),
                   extractor)


def gen_synthetic(spec: SyntheticSpec, rng: Rng) -> Dataset:
    """Isotropic Gaussian blobs, one per class, class-major sample order."""
    classes = spec.means.shape[0]
    train_x, train_y, test_x, test_y = [], [], [], []
    for c in range(classes):
        train_x.append(spec.means[c] + spec.stddev * rng.standard_normal(
            (spec.train_per_class, spec.input_dim)))
        train_y.append(np.full(spec.train_per_class, c, dtype=np.int64))
        test_x.append(spec.means[c] + spec.stddev * rng.standard_normal(
            (spec.test_per_class, spec.input_dim)))
        test_y.append(np.full(spec.test_per_class, c, dtype=np.int64))
    return Dataset(
        train=LabeledData(np.concatenate(train_x), np.concatenate(train_y)),
        test=LabeledData(np.concatenate(test_x), np.concatenate(test_y)),
        num_classes=classes,
        input_dim=spec.input_dim,
    )


# ------------------------------------------------------------ list buffer


@dataclass
class StoredSample:
    x: np.ndarray
    y: int
    stream_position: int


class ListBuffer:
    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.items: list[StoredSample] = []
        self.seen = 0

    def __len__(self) -> int:
        return len(self.items)


def list_buffer_update(buf: ListBuffer, batch, rng) -> None:
    start = buf.seen
    fill = 0
    while fill < len(batch) and len(buf.items) < buf.capacity:
        buf.items.append(batch[fill])
        fill += 1
    rest = batch[fill:]
    if rest:
        ns = np.arange(start + fill + 1, start + len(batch) + 1)
        js = rng.integers(0, ns)
        for sample, j in zip(rest, js):
            if j < buf.capacity:
                buf.items[j] = sample
    buf.seen = start + len(batch)


def list_buffer_retrieve(buf: ListBuffer, k: int, rng) -> list[StoredSample]:
    if k < 0:
        raise ValueError(f"retrieval size must be non-negative, got {k}")
    m = min(k, len(buf.items))
    if m == 0:
        return []
    idx = rng.choice(len(buf.items), size=m, replace=False)
    return [buf.items[i] for i in idx]


def list_buffer_from_arrays(buf, source: LabeledData) -> ListBuffer:
    """A list-buffer twin of a ``uer.memory.MemoryBuffer`` whose rows index
    source."""
    twin = ListBuffer(buf.capacity)
    twin.seen = buf.seen
    twin.items = [StoredSample(source.x[buf.rows[i]].copy(), int(buf.y[i]), int(buf.pos[i]))
                  for i in range(len(buf))]
    return twin


def loop_buffer_update(buf, batch, rng) -> None:
    """``buffer_update`` as it wrote replacements: one accepted draw at a
    time, in stream order, so a later sample wins a shared slot."""
    start, n = buf.seen, len(batch)
    if buf.x is None:
        buf.x = np.zeros((buf.capacity, batch.x.shape[1]))
    fill = min(n, buf.capacity - buf.size)
    if fill > 0:
        s = buf.size
        buf.x[s:s + fill] = batch.x[:fill]
        buf.y[s:s + fill] = batch.y[:fill]
        buf.pos[s:s + fill] = np.arange(start, start + fill)
        buf.size += fill
    if fill < n:
        js = rng.integers(0, np.arange(start + fill + 1, start + n + 1))
        for i, j in enumerate(js.tolist(), fill):
            if j < buf.capacity:
                buf.x[j] = batch.x[i]
                buf.y[j] = batch.y[i]
                buf.pos[j] = start + i
    buf.seen = start + n


# ---------------------------------------------------------------- losses


def _ce_rows(L: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # stable -log softmax picked at the target row
    m = L.max(axis=1)
    lse = m + np.log(np.exp(L - m[:, None]).sum(axis=1))
    return lse - L[np.arange(L.shape[0]), rows]


def loss_dot(pp, H, rows, tape=None, grad_weight: float = 1.0):
    H, rows = _batch_targets(pp, H, rows)
    L = dot_logits_batch(pp, H)
    ce = _ce_rows(L, rows)
    loss = float(ce.mean())
    require_finite(np.asarray(loss), "dot cross-entropy")
    if tape is None:
        return loss, None
    D = softmax_rows(L)
    D[np.arange(len(rows)), rows] -= 1.0
    D *= grad_weight / len(rows)
    tape.pred_w += D.T @ H
    tape.pred_b += D.sum(axis=0)
    return loss, D @ pp.W


def loss_current(pp, scale: CosineScale, H, rows, tape=None, grad_weight: float = 1.0):
    H, rows = _batch_targets(pp, H, rows)
    hn = np.maximum(np.linalg.norm(H, axis=1), EPS_NORM)
    wn = np.maximum(np.linalg.norm(pp.W, axis=1), EPS_NORM)
    U = H / hn[:, None]
    V = pp.W / wn[:, None]
    C = U @ V.T
    L = scale.gamma * C
    ce = _ce_rows(L, rows)
    loss = float(ce.mean())
    require_finite(np.asarray(loss), "cosine cross-entropy")
    if tape is None:
        return loss, None
    D = softmax_rows(L)
    D[np.arange(len(rows)), rows] -= 1.0
    D *= scale.gamma * grad_weight / len(rows)
    tape.pred_w += (D.T @ U - (D * C).sum(axis=0)[:, None] * V) / wn[:, None]
    dH = (D @ V - (D * C).sum(axis=1)[:, None] * U) / hn[:, None]
    return loss, dH


def loss_replay(pp, scale: CosineScale, alpha: float, H, rows, tape=None):
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha out of [0,1]: {alpha}")
    loss = 0.0
    dH = None
    if alpha > 0.0:
        ld, dd = loss_dot(pp, H, rows, tape, grad_weight=alpha)
        loss += alpha * ld
        dH = dd
    if alpha < 1.0:
        lc, dc = loss_current(pp, scale, H, rows, tape, grad_weight=1.0 - alpha)
        loss += (1.0 - alpha) * lc
        dH = dc if dH is None else dH + dc
    return loss, dH


# ------------------------------------------------------------ train step


def _rows_for(state, labels) -> np.ndarray:
    label_to_row = {label: i for i, label in enumerate(state.stream.class_order)}
    return np.array([label_to_row[int(y)] for y in labels], dtype=np.int64)


def _batch_loss(mode, state, scale, H, rows, weight=1.0):
    if mode is LogitMode.DOT:
        return loss_dot(state.predictor, H, rows, state.tape, grad_weight=weight)
    return loss_current(state.predictor, scale, H, rows, state.tape, grad_weight=weight)


def _joint_partials(state, method, scale, H, rows, n_cur):
    if method.triple.learn is LogitMode.DOT:
        L = dot_logits_batch(state.predictor, H)
    else:
        L = cosine_logits_batch(state.predictor, H, scale)
    ce = _ce_rows(L, rows)
    total = len(rows)
    return float(ce[:n_cur].sum() / total), float(ce[n_cur:].sum() / total)


def legacy_train_step(state, x_batch, y_batch, method, memory_batch_size, rng,
                      sgd=sgd_step) -> StepRecord:
    """One step of the two-pass trainer; ``state.stream.buffer`` is a ListBuffer.

    ``sgd`` is called in place of ``uer.net.sgd_step`` so a test can look
    at the gradient tape before the update zeroes it.
    """
    register_classes(state.stream, y_batch, rng)
    catch_up(state)
    scale = method.scale()
    rows_cur = _rows_for(state, y_batch)

    replayed: list[StoredSample] = []
    if _replays(method):
        replayed = list_buffer_retrieve(state.stream.buffer, memory_batch_size, rng)

    if method.joint_batch:
        n_cur = len(y_batch)
        if replayed:
            X = np.concatenate([x_batch, np.stack([s.x for s in replayed])])
            rows = np.concatenate([rows_cur,
                                   _rows_for(state, np.array([s.y for s in replayed]))])
        else:
            X, rows = x_batch, rows_cur
        H, cache = forward_batch(state.extractor, X)
        if method.triple.learn is LogitMode.DOT:
            _, dH = loss_dot(state.predictor, H, rows, state.tape)
        else:
            _, dH = loss_current(state.predictor, scale, H, rows, state.tape)
        backward_batch(state.extractor, cache, dH, state.tape)
        l_c, l_p = _joint_partials(state, method, scale, H, rows, n_cur)
    else:
        H_cur, cache_cur = forward_batch(state.extractor, x_batch)
        l_c, dH_cur = _batch_loss(method.triple.learn, state, scale, H_cur, rows_cur)
        backward_batch(state.extractor, cache_cur, dH_cur, state.tape)
        l_p = 0.0
        if replayed:
            X_mem = np.stack([s.x for s in replayed])
            rows_mem = _rows_for(state, np.array([s.y for s in replayed]))
            H_mem, cache_mem = forward_batch(state.extractor, X_mem)
            l_p, dH_mem = loss_replay(state.predictor, scale,
                                      method.triple.replay.alpha,
                                      H_mem, rows_mem, state.tape)
            backward_batch(state.extractor, cache_mem, dH_mem, state.tape)

    l_total = l_c + l_p
    sgd(state.extractor, state.predictor, state.tape, method.lr)

    if _replays(method):
        # the old TrainState.stream_position counter equalled buffer.seen
        # whenever the buffer was offered samples
        offered = [StoredSample(x_batch[i].copy(), int(y_batch[i]), state.stream.buffer.seen + i)
                   for i in range(len(y_batch))]
        list_buffer_update(state.stream.buffer, offered, rng)

    state.stream.consumed_in_stage += len(y_batch)
    state.stream.step += 1
    return StepRecord(l_c, l_p, l_total)


# ------------------------------------------------------ one seed at a time


def per_seed_train_step(state, x_batch, y_batch, method, memory_batch_size, rng) -> StepRecord:
    """The fused step for one seed on 2-d blocks, as it ran before lockstep."""
    register_classes(state.stream, y_batch, rng)
    catch_up(state)
    buf = state.stream.buffer
    n_cur = len(y_batch)
    X, rows = x_batch, state.stream.row_of_label[y_batch]
    idx = buffer_retrieve(buf, memory_batch_size, rng) if _replays(method) else ()
    n_mem = len(idx)
    if n_mem:
        X = np.concatenate([x_batch, buf.x[idx]])
        rows = np.concatenate([rows, state.stream.row_of_label[buf.y[idx]]])
    learn_alpha = 1.0 if method.triple.learn is LogitMode.DOT else 0.0
    alpha, weights = _row_mix(learn_alpha, method.triple.replay.alpha,
                              method.joint_batch, n_cur, n_mem)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        H, cache = forward_batch(state.extractor, X)
        ce, dH = loss_rows(state.predictor, method.scale(), alpha, H, rows, weights,
                           state.tape)
        backward_batch(state.extractor, cache, dH, state.tape)
        sgd_step(state.extractor, state.predictor, state.tape, method.lr)
    part = ce * weights
    l_c = float(part[:n_cur].sum())
    l_p = float(part[n_cur:].sum())
    if _replays(method):
        buffer_update(buf, LabeledData(x_batch, y_batch), rng)
    state.stream.consumed_in_stage += n_cur
    state.stream.step += 1
    return StepRecord(l_c, l_p, l_c + l_p)


def per_seed_run(dataset, method, stream_cfg, seed) -> ExperimentResult:
    """run_experiment as it ran before lockstep: one seed, stage rows copied."""
    rng = make_rng([int(seed), 1])
    stages = build_stages(dataset, stream_cfg, rng)
    test = LabeledData(np.concatenate([s.test.x for s in stages]),
                       np.concatenate([s.test.y for s in stages]))
    ends = np.cumsum([len(s.test) for s in stages])
    state = init_state(method, dataset.input_dim, rng)
    metrics, steps = [], []
    for t, stage in enumerate(stages, 1):
        state.stage_baseline = state.predictor.copy()
        state.stream.consumed_in_stage = 0
        for x_b, y_b in iterate_batches(stage, stream_cfg, rng):
            try:
                steps.append(per_seed_train_step(state, x_b, y_b, method,
                                                 stream_cfg.batch_size_memory, rng))
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"stage {t}, step {state.stream.step + 1}: {err}") from err
        metrics.append(_collect_stage_metrics(state, stages, t, method, test, ends))
    return ExperimentResult(method=method.name, seed=int(seed), metrics=metrics, steps=steps)


# ------------------------------------------- one method's seeds, per seed


class _SeedPart:
    """Seeds of a group that take their steps together.

    With several seeds, the part keeps their parameters stacked on a
    leading seed axis and each seed's TrainState holds views into them; a
    part of one seed steps on that seed's own arrays. Each seed keeps its
    own (zero) tape; a stacked part has one of its own.
    """

    def __init__(self, states: list[TrainState]):
        self.states = states
        if len(states) == 1:
            state = states[0]
            self.extractor, self.predictor, self.tape = \
                state.extractor, state.predictor, state.tape
            return
        stacked = []
        for k in range(len(states[0].extractor.layers)):
            layers = [s.extractor.layers[k] for s in states]
            both = LayerParams(np.stack([layer.weight for layer in layers]),
                               np.stack([layer.bias for layer in layers]))
            for i, layer in enumerate(layers):
                layer.weight, layer.bias = both.weight[i], both.bias[i]
            stacked.append(both)
        self.extractor = FeatureExtractor(stacked)
        self.stack_predictors()

    def stack_predictors(self) -> None:
        """Restack the seeds' class scorers (after registration grew them)."""
        if len(self.states) == 1:
            return  # the part shares the seed's own PredictorParams
        self.predictor = PredictorParams(np.stack([s.predictor.W for s in self.states]),
                                         np.stack([s.predictor.b for s in self.states]))
        for i, s in enumerate(self.states):
            s.predictor.W, s.predictor.b = self.predictor.W[i], self.predictor.b[i]
        self.tape = GradientTape(self.extractor, self.predictor)

    def without(self, gone: set[int]) -> "_SeedPart | None":
        """The part minus the seeds whose id() is in gone, or None if empty."""
        keep = [s for s in self.states if id(s) not in gone]
        if len(keep) == len(self.states):
            return self
        return _SeedPart(keep) if keep else None

    def split(self, keys: list[tuple]) -> list["_SeedPart"]:
        """One part per distinct step shape, in order of first appearance."""
        if len(set(keys)) > 1:
            by_key: dict[tuple, list[TrainState]] = {}
            for state, key in zip(self.states, keys):
                by_key.setdefault(key, []).append(state)
            return [_SeedPart(states) for states in by_key.values()]
        if self.predictor.num_classes != keys[0][2]:
            self.stack_predictors()
        return [self]


class SeedGroup:
    """The seeds of one method, trained in lockstep.

    Seeds whose next step has the same shape (batch length, replay count,
    registered class count) step together in one part: one forward pass,
    one loss_rows, one backward pass and one SGD step over parameters
    stacked on a leading seed axis. When shapes diverge, a part splits by
    shape and the pieces go on separately; they are not merged again. A
    seed's bytes do not depend on which seeds share its part.
    """

    def __init__(self, states):
        # seeds can only be stacked if their networks have the same shape
        by_shape: dict[tuple, list[TrainState]] = {}
        for state in states:
            shape = tuple(layer.weight.shape for layer in state.extractor.layers)
            by_shape.setdefault(shape, []).append(state)
        self.parts = [_SeedPart(group) for group in by_shape.values()]

    @property
    def states(self) -> list[TrainState]:
        """The seeds still stepping, in the order train_step takes them."""
        return [s for part in self.parts for s in part.states]

    def remove(self, states) -> None:
        """Take seeds out of the group; the parts they leave restack."""
        gone = {id(s) for s in states}
        if gone:
            self.parts = [p for p in (part.without(gone) for part in self.parts) if p]


_NO_ROWS = np.zeros(0, dtype=np.int64)


def seed_group_step(group, x_batch, y_batch, method: MethodConfig, memory_batch_size: int, rng):
    """One training step of every seed in a SeedGroup.

    x_batch, y_batch and rng hold one entry per seed, in group.states
    order. Each seed registers new labels and draws its replay batch from
    its own rng, the parts take their fused steps, and each seed then
    offers its batch to its buffer. Returns, per seed, its StepRecord or
    the NonFiniteError that ended it; such a seed leaves the group, and
    the rest of its part redo the step's arithmetic without it from the
    draws already made.

    A lone TrainState is a group of one: pass its batch and rng directly,
    and get its StepRecord back (or its error raised).
    """
    if isinstance(group, TrainState):
        (record,) = _group_step(SeedGroup([group]), [x_batch], [y_batch], method,
                                memory_batch_size, [rng])
        if isinstance(record, Exception):
            raise record
        return record
    return _group_step(group, x_batch, y_batch, method, memory_batch_size, rng)


def _group_step(group: SeedGroup, x_batch, y_batch, method: MethodConfig,
                memory_batch_size: int, rng) -> list:
    states = group.states
    if not len(states) == len(x_batch) == len(y_batch) == len(rng):
        raise ValueError(f"{len(states)} seeds but {len(x_batch)} x batches, "
                         f"{len(y_batch)} y batches and {len(rng)} rngs")
    idx = []
    for state, y, r in zip(states, y_batch, rng):
        register_classes(state.stream, y, r)
        catch_up(state)
        idx.append(buffer_retrieve(state.stream.buffer, memory_batch_size, r)
                   if _replays(method) else _NO_ROWS)
    at = {id(s): i for i, s in enumerate(states)}
    records: list = [None] * len(states)
    parts = []
    for part in group.parts:
        keys = [(len(y_batch[i]), len(idx[i]), states[i].predictor.num_classes)
                for i in (at[id(s)] for s in part.states)]
        for piece in part.split(keys):
            piece = _fused_step(piece, [at[id(s)] for s in piece.states], x_batch, y_batch,
                                idx, method, records)
            if piece is not None:
                parts.append(piece)
    group.parts = parts

    for state, x, y, r, record in zip(states, x_batch, y_batch, rng, records):
        if isinstance(record, StepRecord):
            if _replays(method):
                buffer_update(state.stream.buffer, LabeledData(x, y), r)
            state.stream.consumed_in_stage += len(y)
            state.stream.step += 1
    return records


def _fused_step(part: _SeedPart, members: list[int], x_batch, y_batch, idx,
                method: MethodConfig, records: list) -> _SeedPart | None:
    """The arithmetic of one part's step over [incoming; replayed]; fills
    records at the members' positions and returns the part that survives."""
    first = members[0]
    n_cur, n_mem = len(y_batch[first]), len(idx[first])
    learn_alpha = 1.0 if method.triple.learn is LogitMode.DOT else 0.0
    alpha, weights = _row_mix(learn_alpha, method.triple.replay.alpha,
                              method.joint_batch, n_cur, n_mem)
    xs, labels = [], []
    for state, i in zip(part.states, members):
        xs.append(x_batch[i])
        labels.append(state.stream.row_of_label[y_batch[i]])
        if n_mem:
            buf = state.stream.buffer
            xs.append(buf.x[idx[i]])
            labels.append(state.stream.row_of_label[buf.y[idx[i]]])
    # one seed steps on 2-d blocks, exactly as it would alone
    lead = (len(members),) if len(members) > 1 else ()
    X = np.concatenate(xs).reshape(*lead, n_cur + n_mem, -1)
    rows = np.concatenate(labels).reshape(*lead, n_cur + n_mem)
    while True:
        try:
            ce = _descend(part, X, rows, alpha, weights, method)
            break
        except NonFiniteError as err:
            bad = set(range(len(members)) if err.seeds is None else err.seeds)
            for j in bad:
                records[members[j]] = err
            part = part.without({id(part.states[j]) for j in bad})
            if part is None:
                return None
            keep = [j for j in range(len(members)) if j not in bad]
            members = [members[j] for j in keep]
            X, rows = (X[keep], rows[keep]) if len(keep) > 1 else (X[keep[0]], rows[keep[0]])
    part_ce = (ce * weights).reshape(len(members), -1)
    l_c = part_ce[:, :n_cur].sum(axis=-1).tolist()
    l_p = part_ce[:, n_cur:].sum(axis=-1).tolist()
    for i, c, p in zip(members, l_c, l_p):
        records[i] = StepRecord(c, p, c + p)
    return part


def _descend(part: _SeedPart, X: np.ndarray, rows: np.ndarray, alpha: np.ndarray,
             weights: np.ndarray, method: MethodConfig) -> np.ndarray:
    # a diverging run overflows here; the finiteness checks in
    # forward_batch and loss_rows raise, so NumPy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        H, cache = forward_batch(part.extractor, X)
        ce, dH = loss_rows(part.predictor, method.scale(), alpha, H, rows, weights, part.tape)
        backward_batch(part.extractor, cache, dH, part.tape)
        sgd_step(part.extractor, part.predictor, part.tape, method.lr)
    return ce


class _SeedRun:
    """One seed's stream, state and results inside run_seed_group.

    The seed's stages are row indices into its dataset (shared by every
    seed for csv data): a stage's training rows are gathered when it
    starts, and the test rows scored so far when it ends.
    """

    def __init__(self, dataset: Dataset, method: MethodConfig, stream_cfg: StreamConfig,
                 seed: int):
        self.seed = int(seed)
        self.rng = make_rng([self.seed, 1])
        self.dataset, self.method, self.stream_cfg = dataset, method, stream_cfg
        self.stages = split_stages(dataset, stream_cfg, self.rng)
        self.test_rows = np.concatenate([s.test_rows for s in self.stages])
        self.ends = np.cumsum([len(s.test_rows) for s in self.stages])
        self.state = init_state(method, dataset.input_dim, self.rng)
        self.metrics: list[StageMetrics] = []
        self.steps: list[StepRecord] = []
        self.t = 0
        self.batches = iter(())

    def next_batch(self):
        """The stream's next (x, y) batch, scoring each stage as it ends;
        None once the last stage is scored."""
        while (batch := next(self.batches, None)) is None:
            if self.t:
                rows = self.test_rows[:self.ends[self.t - 1]]
                seen = LabeledData(self.dataset.test.x[rows], self.dataset.test.y[rows])
                self.metrics.append(_collect_stage_metrics(
                    self.state, self.stages, self.t, self.method, seen, self.ends))
            if self.t == len(self.stages):
                return None
            self.t += 1
            self.state.stage_baseline = self.state.predictor.copy()
            self.state.stream.consumed_in_stage = 0
            self.batches = iterate_batches(gather(self.stages[self.t - 1], self.t,
                                                  self.dataset),
                                           self.stream_cfg, self.rng)
        return batch

    def result(self) -> ExperimentResult:
        return ExperimentResult(method=self.method.name, seed=self.seed,
                                metrics=self.metrics, steps=self.steps)


def run_seed_group(dataset_for: Callable[[int], Dataset], method: MethodConfig,
                   stream_cfg: StreamConfig, seeds: Sequence[int]) -> list:
    """Train one method over several seeds in lockstep (a SeedGroup).

    dataset_for(seed) gives each seed's dataset. Every seed's run is
    exactly what it would be alone: its seed fully determines
    initialization, stage partition, batch order, retrieval and buffer
    replacement, and the stacked arithmetic computes each seed's slice
    bitwise as its own 2-d step would. Returns, per seed in order, its
    ExperimentResult or the exception that ended its run. A step whose
    values go non-finite ends only that seed, with a FloatingPointError
    naming the stage and the step (1-based, counted over the whole run).
    """
    outcomes: list = [None] * len(seeds)
    live: dict[int, tuple[int, _SeedRun]] = {}  # id(run.state) -> (position, run)
    for i, seed in enumerate(seeds):
        try:
            run = _SeedRun(dataset_for(seed), method, stream_cfg, seed)
        except Exception as err:  # noqa: BLE001 - isolate per-seed failures
            outcomes[i] = err
        else:
            live[id(run.state)] = i, run

    def end(state: TrainState, outcome) -> None:
        i, _ = live.pop(id(state))
        outcomes[i] = outcome

    group = SeedGroup([run.state for _, run in live.values()])
    while group.parts:
        ended, batches = [], []
        for state in group.states:
            run = live[id(state)][1]
            try:
                batch = run.next_batch()
                if batch is None:
                    end(state, run.result())
            except Exception as err:  # noqa: BLE001 - e.g. a stage that cannot be scored
                batch = None
                end(state, err)
            if batch is None:
                ended.append(state)
            else:
                batches.append(batch)
        group.remove(ended)
        states = group.states
        if not states:
            break
        try:
            records = seed_group_step(group, [x for x, _ in batches], [y for _, y in batches],
                                 method, stream_cfg.batch_size_memory,
                                 [live[id(s)][1].rng for s in states])
        except Exception as err:  # noqa: BLE001 - a fault no single seed owns
            for state in states:
                end(state, err)
            break
        for state, record in zip(states, records):
            run = live[id(state)][1]
            if isinstance(record, StepRecord):
                run.steps.append(record)
            else:
                failure = FloatingPointError(
                    f"stage {run.t}, step {state.stream.step + 1}: {record}")
                failure.__cause__ = record
                end(state, failure)
    return outcomes
