"""Single-pass training loop over a class-incremental stream.

Each step follows the same order: register any labels not seen before,
retrieve a replay batch from the buffer, score the incoming and replayed
samples together, take one SGD step on the summed loss, and only then
offer the incoming batch to the buffer.

A method is a triple of scoring rules: how incoming samples are learned
(dot or cosine), how replayed samples are learned (dot, cosine, or the
alpha-mix of both cross-entropies), and how test samples are scored. The
stock methods:

    uer       cosine learn, mixed replay (alpha, default 0.5), dot test
    uer-a     uer with alpha pinned to 1 (pure dot replay)
    er        dot everywhere, one combined mean over incoming + replayed
    lucir     cosine everywhere
    finetune  dot learn, replay disabled

A step runs one forward and one backward pass over the stacked batch
[incoming; replayed] and scores it with one call of logits.loss_rows. Each
row carries its own mix weight alpha (1 for dot learning, 0 for cosine
learning, the replay rule's weight for replayed rows) and its own loss
weight (1/n_incoming and 1/n_replayed, so each batch contributes its
mean). The reported loss_current and loss_replay are the weighted
cross-entropies summed over each part, and the total is their sum. The er
preset instead weights every row 1/(n_incoming + n_replayed), one mean
over the union scored with the learn rule, so its reported pair is the
per-batch partial sums of that one mean.

The seeds of one method train in lockstep (run_seed_group): each step
gathers every seed's [incoming; replayed] rows into one (seeds, rows, dim)
block and runs the forward pass, loss_rows, the backward pass and the SGD
step once over parameters stacked on a leading seed axis. Registration,
retrieval, the buffer update and stage evaluation stay per seed, each on
the seed's own rng, so a seed's bytes do not depend on the other seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

# accuracy, average_posterior, build_stages, loss_current, loss_dot and
# loss_replay are not called here: they stay importable from this module
# because the perfbench span tracer wraps them by this module's name
from .evaluation import StageMetrics, accuracy, average_accuracy, average_posterior, \
    bias_diagnostics, score_stages  # noqa: F401
from .logits import CosineScale, LogitMode, PredictorParams, loss_current, loss_dot, \
    loss_replay, loss_rows  # noqa: F401
from .memory import MemoryBuffer, buffer_retrieve, buffer_update
from .net import FeatureExtractor, GradientTape, LayerParams, backward_batch, forward_batch, \
    init_extractor, sgd_step
from .numeric import NonFiniteError, Rng, make_rng
from .stream import Dataset, LabeledData, Stage, StageRows, StreamConfig, build_stages, \
    iterate_batches, split_stages  # noqa: F401


@dataclass(frozen=True)
class ReplayRule:
    kind: str  # "dot" | "cosine" | "mixed"
    alpha: float = 1.0  # only meaningful for "mixed"

    def __post_init__(self):
        if self.kind not in ("dot", "cosine", "mixed"):
            raise ValueError(f"unknown replay rule {self.kind!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha out of [0,1]: {self.alpha}")

    def effective_alpha(self) -> float:
        """Weight on the dot cross-entropy; cosine is the complement."""
        if self.kind == "dot":
            return 1.0
        if self.kind == "cosine":
            return 0.0
        return self.alpha


@dataclass(frozen=True)
class LogitTriple:
    learn: LogitMode
    replay: ReplayRule
    test: LogitMode


@dataclass(frozen=True)
class MethodConfig:
    name: str
    triple: LogitTriple
    replay_enabled: bool = True
    alpha: float = 0.5
    gamma: float = 10.0
    lr: float = 0.1
    buffer_capacity: int = 500
    joint_batch: bool = False
    hidden_dims: tuple[int, ...] = (64,)
    seeds: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha out of [0,1]: {self.alpha}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.buffer_capacity < 0:
            raise ValueError(f"buffer capacity must be non-negative, got {self.buffer_capacity}")
        if not self.hidden_dims or any(d < 1 for d in self.hidden_dims):
            raise ValueError(f"hidden dims must be positive, got {self.hidden_dims}")
        if self.joint_batch:
            if self.triple.replay.kind != self.triple.learn.value:
                raise ValueError("joint_batch needs matching learn and replay rules")

    def scale(self) -> CosineScale:
        return CosineScale(self.gamma)


def uer_method(alpha: float = 0.5, **kw) -> MethodConfig:
    return MethodConfig(name=kw.pop("name", "uer"),
                        triple=LogitTriple(LogitMode.COSINE, ReplayRule("mixed", alpha),
                                           LogitMode.DOT),
                        alpha=alpha, **kw)


def uer_a_method(**kw) -> MethodConfig:
    if kw.pop("alpha", 1.0) != 1.0:
        raise ValueError("uer-a pins alpha = 1")
    return MethodConfig(name=kw.pop("name", "uer-a"),
                        triple=LogitTriple(LogitMode.COSINE, ReplayRule("mixed", 1.0),
                                           LogitMode.DOT),
                        alpha=1.0, **kw)


def er_method(**kw) -> MethodConfig:
    return MethodConfig(name=kw.pop("name", "er"),
                        triple=LogitTriple(LogitMode.DOT, ReplayRule("dot"), LogitMode.DOT),
                        joint_batch=kw.pop("joint_batch", True), **kw)


def lucir_method(**kw) -> MethodConfig:
    return MethodConfig(name=kw.pop("name", "lucir"),
                        triple=LogitTriple(LogitMode.COSINE, ReplayRule("cosine"),
                                           LogitMode.COSINE), **kw)


def finetune_method(**kw) -> MethodConfig:
    if kw.pop("replay_enabled", False):
        raise ValueError("finetune pins replay_enabled = false")
    return MethodConfig(name=kw.pop("name", "finetune"),
                        triple=LogitTriple(LogitMode.DOT, ReplayRule("dot"), LogitMode.DOT),
                        replay_enabled=False,
                        buffer_capacity=kw.pop("buffer_capacity", 0), **kw)


def triple_method(name: str, learn: str, replay: str, test: str,
                  alpha: float = 0.5, **kw) -> MethodConfig:
    """A bare scoring triple; replay "mixed" takes the alpha weight."""
    rule = ReplayRule(replay, alpha if replay == "mixed" else
                      (1.0 if replay == "dot" else 0.0))
    return MethodConfig(name=name,
                        triple=LogitTriple(LogitMode(learn), rule, LogitMode(test)),
                        alpha=alpha, **kw)


PRESET_BUILDERS = {
    "uer": uer_method,
    "uer-a": uer_a_method,
    "er": er_method,
    "lucir": lucir_method,
    "finetune": finetune_method,
}

# the eight learn/replay/test combinations, dot and cosine only
TABLE1_GRID = [
    ("dot", "dot", "dot"),
    ("dot", "dot", "cosine"),
    ("cosine", "cosine", "cosine"),
    ("cosine", "cosine", "dot"),
    ("dot", "cosine", "dot"),
    ("dot", "cosine", "cosine"),
    ("cosine", "dot", "cosine"),
    ("cosine", "dot", "dot"),
]


@dataclass
class StepRecord:
    loss_current: float
    loss_replay: float
    loss_total: float


@dataclass
class TrainState:
    extractor: FeatureExtractor
    predictor: PredictorParams
    buffer: MemoryBuffer
    tape: GradientTape
    class_order: list[int] = field(default_factory=list)  # label of each scorer row
    # dense label -> scorer row lookup, -1 for labels not registered
    row_of_label: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    stage_baseline: PredictorParams | None = None
    step: int = 0
    consumed_in_stage: int = 0

    @property
    def label_to_row(self) -> dict[int, int]:
        """Registered labels and their scorer rows, in registration order."""
        return {label: row for row, label in enumerate(self.class_order)}


@dataclass
class ExperimentResult:
    method: str
    seed: int
    metrics: list[StageMetrics]
    steps: list[StepRecord]


def init_state(method: MethodConfig, input_dim: int, rng: Rng) -> TrainState:
    extractor = init_extractor((input_dim, *method.hidden_dims), rng)
    predictor = PredictorParams.empty(extractor.out_dim)
    return TrainState(
        extractor=extractor,
        predictor=predictor,
        buffer=MemoryBuffer(method.buffer_capacity if method.replay_enabled else 0),
        tape=GradientTape(extractor, predictor),
        stage_baseline=predictor.copy(),
    )


def register_classes(state: TrainState, labels, rng: Rng) -> list[int]:
    """Append a fresh scorer row for every label not seen before.

    Rows use the same uniform init as a single-output net layer over the
    feature dim; biases start at zero. The stage baseline is extended with
    the same initial values so parameter movement excludes initialization.
    Labels must be non-negative integers.
    """
    added = []
    for label in np.asarray(labels).ravel().tolist():
        label = int(label)
        if label < 0:
            raise ValueError(f"labels must be non-negative, got {label}")
        if label < len(state.row_of_label) and state.row_of_label[label] >= 0:
            continue
        d = state.predictor.dim
        s = np.sqrt(6.0 / (d + 1))
        row = rng.uniform(-s, s, size=d)
        idx = state.predictor.add_class(row, 0.0)
        if label >= len(state.row_of_label):
            grown = np.full(label + 1, -1, dtype=np.int64)
            grown[:len(state.row_of_label)] = state.row_of_label
            state.row_of_label = grown
        state.row_of_label[label] = idx
        state.class_order.append(label)
        state.tape.add_class_rows(1)
        if state.stage_baseline is not None:
            state.stage_baseline.add_class(row.copy(), 0.0)
        added.append(label)
    return added


@lru_cache(maxsize=64)
def _row_mix(learn_alpha: float, replay_alpha: float, joint: bool,
             n_cur: int, n_mem: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mix weight alpha and loss weight for [incoming; replayed]."""
    alpha = np.repeat([learn_alpha, learn_alpha if joint else replay_alpha], [n_cur, n_mem])
    if joint:
        weights = np.full(n_cur + n_mem, 1.0 / (n_cur + n_mem))
    else:
        weights = np.repeat([1.0 / n_cur, 1.0 / max(n_mem, 1)], [n_cur, n_mem])
    alpha.flags.writeable = weights.flags.writeable = False
    return alpha, weights


class _Part:
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

    def without(self, gone: set[int]) -> "_Part | None":
        """The part minus the seeds whose id() is in gone, or None if empty."""
        keep = [s for s in self.states if id(s) not in gone]
        if len(keep) == len(self.states):
            return self
        return _Part(keep) if keep else None

    def split(self, keys: list[tuple]) -> list["_Part"]:
        """One part per distinct step shape, in order of first appearance."""
        if len(set(keys)) > 1:
            by_key: dict[tuple, list[TrainState]] = {}
            for state, key in zip(self.states, keys):
                by_key.setdefault(key, []).append(state)
            return [_Part(states) for states in by_key.values()]
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
        self.parts = [_Part(group) for group in by_shape.values()]

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


def train_step(group, x_batch, y_batch, method: MethodConfig, memory_batch_size: int, rng):
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
        register_classes(state, y, r)
        idx.append(buffer_retrieve(state.buffer, memory_batch_size, r)
                   if method.replay_enabled else _NO_ROWS)
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
            if method.replay_enabled:
                buffer_update(state.buffer, LabeledData(x, y), r)
            state.consumed_in_stage += len(y)
            state.step += 1
    return records


def _fused_step(part: _Part, members: list[int], x_batch, y_batch, idx,
                method: MethodConfig, records: list) -> _Part | None:
    """The arithmetic of one part's step over [incoming; replayed]; fills
    records at the members' positions and returns the part that survives."""
    first = members[0]
    n_cur, n_mem = len(y_batch[first]), len(idx[first])
    learn_alpha = 1.0 if method.triple.learn is LogitMode.DOT else 0.0
    alpha, weights = _row_mix(learn_alpha, method.triple.replay.effective_alpha(),
                              method.joint_batch, n_cur, n_mem)
    xs, labels = [], []
    for state, i in zip(part.states, members):
        xs.append(x_batch[i])
        labels.append(state.row_of_label[y_batch[i]])
        if n_mem:
            buf = state.buffer
            xs.append(buf.x[idx[i]])
            labels.append(state.row_of_label[buf.y[idx[i]]])
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


def _descend(part: _Part, X: np.ndarray, rows: np.ndarray, alpha: np.ndarray,
             weights: np.ndarray, method: MethodConfig) -> np.ndarray:
    # a diverging run overflows here; the finiteness checks in
    # forward_batch and loss_rows raise, so NumPy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        H, cache = forward_batch(part.extractor, X)
        ce, dH = loss_rows(part.predictor, method.scale(), alpha, H, rows, weights, part.tape)
        backward_batch(part.extractor, cache, dH, part.tape)
        sgd_step(part.extractor, part.predictor, part.tape, method.lr)
    return ce


def _collect_stage_metrics(state: TrainState, stages: Sequence[Stage | StageRows], t: int,
                           method: MethodConfig, test: LabeledData,
                           ends: np.ndarray) -> StageMetrics:
    """Metrics after stage t; test holds the test rows of stages 1..t (or
    more) in stage order and ends[j] is where stage j+1's rows end."""
    seen = LabeledData(test.x[:ends[t - 1]], test.y[:ends[t - 1]])
    scores = score_stages(state, seen, ends[:t], method.triple.test, method.scale())
    row = scores.accuracy_row
    label_to_row = state.label_to_row
    prev_rows = [label_to_row[c] for j in range(t - 1) for c in stages[j].class_set
                 if c in label_to_row]
    curr_rows = [label_to_row[c] for c in stages[t - 1].class_set if c in label_to_row]
    diag = bias_diagnostics(state.predictor, prev_rows, curr_rows, state.stage_baseline)
    return StageMetrics(
        stage=t,
        class_order=list(state.class_order),
        current_classes=[int(c) for c in stages[t - 1].class_set],
        accuracy_row=row,
        average_accuracy=average_accuracy(row),
        acc_previous=scores.acc_previous,
        acc_current=row[-1],
        norm_prev=diag.norm_prev,
        norm_curr=diag.norm_curr,
        mean_w_prev=diag.mean_w_prev,
        std_w_prev=diag.std_w_prev,
        mean_w_curr=diag.mean_w_curr,
        std_w_curr=diag.std_w_curr,
        mean_b_prev=diag.mean_b_prev,
        mean_b_curr=diag.mean_b_curr,
        accumulated_param_change=diag.accumulated_param_change,
        avg_posterior=scores.avg_posterior.tolist(),
        consumed_samples=state.consumed_in_stage,
    )


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
            self.state.consumed_in_stage = 0
            self.batches = iterate_batches(self.stages[self.t - 1].gather(self.dataset),
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
            records = train_step(group, [x for x, _ in batches], [y for _, y in batches],
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
                failure = FloatingPointError(f"stage {run.t}, step {state.step + 1}: {record}")
                failure.__cause__ = record
                end(state, failure)
    return outcomes


def run_experiment(dataset: Dataset, method: MethodConfig, stream_cfg: StreamConfig,
                   seed: int) -> ExperimentResult:
    """One full pass over the stream for one seed: run_seed_group with a
    single seed, its error raised.

    The seed fully determines initialization, stage partition, batch
    order, retrieval, and buffer replacement, so identical calls produce
    identical results bit for bit. A step whose values go non-finite
    raises FloatingPointError naming the stage and the step.
    """
    (outcome,) = run_seed_group(lambda _seed: dataset, method, stream_cfg, [seed])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
