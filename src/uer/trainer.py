"""Single-pass training loop over a class-incremental stream.

Each step follows the same order: register any labels not seen before,
retrieve a replay batch from the buffer, score the incoming and replayed
samples together, take one SGD step on the summed loss, and only then
offer the incoming batch to the buffer. Batches and the buffer name
samples by their row in the stream's source (a LabeledData): only the
step's gathered block holds copies of features.

A method is a triple of scoring rules: how incoming samples are learned
(dot or cosine), how replayed samples are learned (dot, cosine, or the
alpha-mix of both cross-entropies), and how test samples are scored. The
stock methods:

    uer       cosine learn, mixed replay (alpha, default 0.5), dot test
    uer-a     uer with alpha pinned to 1 (pure dot replay)
    er        dot everywhere, one combined mean over incoming + replayed
    lucir     cosine everywhere
    finetune  dot everywhere, buffer capacity pinned to 0

A method replays exactly when its buffer capacity is above 0, so a
finetune run is the dot triple with an empty memory.

A step runs one forward and one backward pass over the stacked batch
[incoming; replayed] and scores it with one call of logits.loss_rows. Each
row carries its own mix weight alpha (1 for dot learning, 0 for cosine
learning, the replay rule's weight for replayed rows) and its own loss
weight (1/n_incoming and 1/n_replayed, so each batch contributes its
mean). A run's loss history (ExperimentResult.losses) holds one
(loss_current, loss_replay) row per step: the weighted cross-entropies
summed over each part, so the step's total loss is the row sum. The er
preset instead weights every row 1/(n_incoming + n_replayed), one mean
over the union scored with the learn rule, so its pair is the per-batch
partial sums of that one mean.

No draw depends on a method's scoring rules, alpha, gamma or lr: the
seed, the network widths and the buffer capacity fix them all. Runs that
agree on these follow one trajectory (run_trajectories): one stream
shuffles each stage's training rows, registers labels, draws the replay
batch, finds the [incoming; replayed] source rows and updates its one
buffer, and every run on it reuses them. Only the parameters are per
run. The runs step in parts: runs whose step and network shapes agree
run the forward pass, loss_rows, the backward pass and the SGD step
once, over parameters and one gradient tape stacked on a leading axis,
with per-run alpha, weights, gamma and lr, whatever each run's rule: a
loss branch that some run uses runs over the whole part. Each run's
slice is computed exactly as its run alone would compute it.

A run (Run) is a method and its parameters (TrainState); its stream
(StreamState) holds the buffer, the label map and the counters, and its
part (_Part) the tape its gradients accumulate in.
train_step steps the runs of a RunGroup, and a caller that steps one run
holds a group of that one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

# accuracy, average_posterior, loss_current, loss_dot and loss_replay are
# not called here: they stay importable from this module because the
# perfbench span tracer wraps them by this module's name
from .evaluation import StageMetrics, accuracy, average_accuracy, average_posterior, \
    bias_diagnostics, score_stages  # noqa: F401
from .logits import CosineScale, LogitMode, PredictorParams, StepPlan, loss_current, loss_dot, \
    loss_replay, loss_rows, step_plan  # noqa: F401
from .memory import MemoryBuffer, buffer_retrieve, buffer_update
from .net import FeatureExtractor, GradientTape, LayerParams, backward_batch, forward_batch, \
    init_extractor, sgd_step
from .numeric import NonFiniteError, Rng, Workspace, make_rng, require_finite
from .stream import Dataset, LabeledData, StageRows, StreamConfig, build_stages, iterate_batches


@dataclass(frozen=True)
class ReplayRule:
    """How replayed samples are learned. alpha is the weight training puts
    on their dot cross-entropy (cosine takes the complement): 1 for "dot",
    0 for "cosine", and for "mixed" the weight given (default 0.5). Only a
    mixed rule takes an alpha."""
    kind: str  # "dot" | "cosine" | "mixed"
    alpha: float | None = None  # None: the rule's own weight

    def __post_init__(self):
        if self.kind not in ("dot", "cosine", "mixed"):
            raise ValueError(f"unknown replay rule {self.kind!r}")
        if self.kind != "mixed":
            if self.alpha is not None:
                raise ValueError(f"replay rule {self.kind!r} takes no alpha, got {self.alpha!r}")
            object.__setattr__(self, "alpha", 1.0 if self.kind == "dot" else 0.0)
        elif self.alpha is None:
            object.__setattr__(self, "alpha", 0.5)
        elif not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha out of [0,1]: {self.alpha}")


@dataclass(frozen=True)
class LogitTriple:
    learn: LogitMode
    replay: ReplayRule
    test: LogitMode


@dataclass(frozen=True)
class MethodConfig:
    name: str
    triple: LogitTriple
    gamma: float = 10.0
    lr: float = 0.1
    buffer_capacity: int = 500
    joint_batch: bool = False
    hidden_dims: tuple[int, ...] = (64,)
    seeds: tuple[int, ...] | None = None

    def __post_init__(self):
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
                                           LogitMode.DOT), **kw)


def uer_a_method(**kw) -> MethodConfig:
    if (alpha := kw.pop("alpha", 1.0)) != 1.0:
        raise ValueError(f"uer-a pins alpha = 1, got {alpha!r}")
    return MethodConfig(name=kw.pop("name", "uer-a"),
                        triple=LogitTriple(LogitMode.COSINE, ReplayRule("mixed", 1.0),
                                           LogitMode.DOT), **kw)


def er_method(**kw) -> MethodConfig:
    return MethodConfig(name=kw.pop("name", "er"),
                        triple=LogitTriple(LogitMode.DOT, ReplayRule("dot"), LogitMode.DOT),
                        joint_batch=kw.pop("joint_batch", True), **kw)


def lucir_method(**kw) -> MethodConfig:
    return MethodConfig(name=kw.pop("name", "lucir"),
                        triple=LogitTriple(LogitMode.COSINE, ReplayRule("cosine"),
                                           LogitMode.COSINE), **kw)


def finetune_method(**kw) -> MethodConfig:
    if (capacity := kw.pop("buffer_capacity", 0)) != 0:
        raise ValueError(f"finetune pins buffer_capacity = 0, got {capacity!r}")
    return MethodConfig(name=kw.pop("name", "finetune"),
                        triple=LogitTriple(LogitMode.DOT, ReplayRule("dot"), LogitMode.DOT),
                        buffer_capacity=0, **kw)


def triple_method(name: str, learn: str, replay: str, test: str,
                  alpha: float | None = None, **kw) -> MethodConfig:
    """A bare scoring triple; only replay "mixed" takes the alpha weight
    (default 0.5)."""
    return MethodConfig(name=name, triple=LogitTriple(LogitMode(learn), ReplayRule(replay, alpha),
                                                      LogitMode(test)), **kw)


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


class FeaturesCollapsed(ValueError):
    """A run's features are zero on every scored test row: its extractor's
    ReLUs have all died, so its scores no longer depend on the input."""


@dataclass(eq=False)
class StreamState:
    """What every run on one trajectory shares.

    The samples' source (batches and the buffer name samples by their row
    in it), the buffer, the label -> scorer row map (class_order and its
    dense inverse row_of_label), the value each scorer row had when it was
    registered, and the step counters. register_classes draws new rows
    once per stream; each run's scorer then catches up by appending them.
    A trajectory sets unregistered as a stage starts: once it is empty,
    no batch of the stage can hold a new label, and steps skip
    register_classes. None (any other stream) looks every batch up and
    checks its rows against the source; a trajectory's rows are its own
    stage split of the source, so its steps do not.
    """
    buffer: MemoryBuffer
    dim: int  # feature dim: the width of a scorer row
    source: LabeledData  # the samples, by row
    class_order: list[int] = field(default_factory=list)  # label of each scorer row
    # dense label -> scorer row lookup, -1 for labels not registered
    row_of_label: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    init_rows: np.ndarray | None = None  # (rows, dim), each row's value at registration
    step: int = 0
    consumed_in_stage: int = 0
    unregistered: set[int] | None = None  # the stage's labels not registered yet

    def __post_init__(self):
        if self.init_rows is None:
            self.init_rows = np.zeros((0, self.dim))


@dataclass
class TrainState:
    """One run's parameters: its extractor, class scorer and the scorer as
    the stage began, on the stream (StreamState) it follows, which holds
    its buffer, label map and counters. Once the run steps, its extractor
    and scorer arrays are views of one slice of its part's stacks (_Part);
    the gradients accumulate in the part's tape."""
    extractor: FeatureExtractor
    predictor: PredictorParams
    stream: StreamState
    stage_baseline: PredictorParams | None = None


@dataclass
class ExperimentResult:
    """A finished run: its metrics per stage and its loss history, a
    (steps, 2) float64 array of (loss_current, loss_replay) per step (the
    step's total loss is the row sum)."""
    method: str
    seed: int
    metrics: list[StageMetrics]
    losses: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, ExperimentResult):
            return NotImplemented
        return (self.method, self.seed, self.metrics) == (other.method, other.seed,
                                                          other.metrics) \
            and np.array_equal(self.losses, other.losses)


def _follow(stream: StreamState, extractor: FeatureExtractor) -> TrainState:
    """A run with its own extractor and an empty scorer on a stream; the
    scorer then catches up with the rows the stream has registered."""
    predictor = PredictorParams.empty(stream.dim)
    state = TrainState(extractor, predictor, stream, predictor.copy())
    catch_up(state)
    return state


def init_state(method: MethodConfig, source: LabeledData, rng: Rng) -> TrainState:
    """A run on a stream of its own that reads its samples from source,
    its extractor drawn from rng; RunGroup([Run(method, state)]) steps it."""
    extractor = init_extractor((source.x.shape[1], *method.hidden_dims), rng)
    return _follow(StreamState(MemoryBuffer(method.buffer_capacity), extractor.out_dim, source),
                   extractor)


def register_classes(stream: StreamState, labels, rng: Rng) -> list[int]:
    """Register on stream every label not seen before; returns those labels.

    A new label gets the next scorer row, drawn with the same uniform init
    as a single-output net layer over the feature dim; biases start at
    zero. Each run on the stream takes the new rows with catch_up. One
    lookup finds batches whose labels are all registered, so they draw
    nothing. Labels must be non-negative integers.
    """
    labels = np.asarray(labels, dtype=np.int64).ravel()
    added, rows = [], []
    try:
        known = len(labels) and labels.min() >= 0 and stream.row_of_label[labels].min() >= 0
    except IndexError:  # a label past the lookup
        known = False
    if not known:
        for label in labels.tolist():
            if label < 0:
                raise ValueError(f"labels must be non-negative, got {label}")
            if label < len(stream.row_of_label) and stream.row_of_label[label] >= 0:
                continue
            s = np.sqrt(6.0 / (stream.dim + 1))
            rows.append(rng.uniform(-s, s, size=stream.dim))
            if label >= len(stream.row_of_label):
                grown = np.full(label + 1, -1, dtype=np.int64)
                grown[:len(stream.row_of_label)] = stream.row_of_label
                stream.row_of_label = grown
            stream.row_of_label[label] = len(stream.class_order)
            stream.class_order.append(label)
            added.append(label)
    if rows:
        stream.init_rows = np.vstack([stream.init_rows, *rows])
    return added


def catch_up(state: TrainState) -> None:
    """Append to the run's scorer the rows its stream registered since it
    last looked, at their initial values. The stage baseline gets the same
    values, so parameter movement excludes initialization."""
    for row in state.stream.init_rows[state.predictor.num_classes:]:
        state.predictor.add_class(row, 0.0)
        if state.stage_baseline is not None:
            state.stage_baseline.add_class(row.copy(), 0.0)


@lru_cache(maxsize=256)
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


@dataclass(eq=False)
class Run:
    """A method's run: its parameters (state) and what it has produced,
    its metrics per stage and, on a trajectory, its loss history: a
    (steps, 2) float64 array of (loss_current, loss_replay) per step."""
    method: MethodConfig
    state: TrainState
    index: int = 0  # the run's position in the caller's list
    metrics: list[StageMetrics] = field(default_factory=list)
    losses: np.ndarray | None = None

    def __post_init__(self):
        triple = self.method.triple
        # the _row_mix key of the method
        self.mix = (1.0 if triple.learn is LogitMode.DOT else 0.0,
                    triple.replay.alpha, self.method.joint_batch)


def _shared(values: list):
    """values[0] if every value is the same (equal floats, or one cached
    row), else the values stacked on a leading axis, read-only."""
    first = values[0]
    if all(v is first or (np.ndim(v) == 0 and v == first) for v in values):
        return first
    stacked = np.stack(values) if np.ndim(first) else np.array(values)
    stacked.flags.writeable = False
    return stacked


class _Part:
    """Runs that take their steps together.

    A part's runs agree on the network shape and on the step shape (batch
    length, replay count, registered class count), and are kept in the
    order they were given. Whatever their loss branches, each slice gets
    the bits of its run alone (see loss_rows). The part keeps their
    parameters and its gradient tape (the only one) stacked on a leading
    axis, one slice per run (a part of one run has one slice); each run's
    TrainState holds views of its parameter slices. Alpha and weight
    rows, gamma and lr are per slice. A part's step writes into its
    RunGroup's one workspace. The part keeps the StepPlan of each step
    shape of its current class count (plan).
    """

    def __init__(self, runs: list[Run]):
        self.runs = runs
        self._plans: dict[tuple[int, int, int], StepPlan] = {}
        stacked = []
        for k in range(len(runs[0].state.extractor.layers)):
            layers = [run.state.extractor.layers[k] for run in runs]
            both = LayerParams(np.stack([layer.weight for layer in layers]),
                               np.stack([layer.bias for layer in layers]))
            for i, layer in enumerate(layers):
                layer.weight, layer.bias = both.weight[i], both.bias[i]
            stacked.append(both)
        self.extractor = FeatureExtractor(stacked)
        # one value serves every slice when the runs agree (the same
        # arithmetic, one operand instead of a stack of equal ones)
        self.scale = CosineScale(_shared([run.method.gamma for run in runs]))
        self.lr = _shared([run.method.lr for run in runs])
        self.stack_predictors()

    def stack_predictors(self) -> None:
        """Restack the runs' class scorers (after registration grew them)
        and give the part a new tape of the new shape."""
        states = [run.state for run in self.runs]
        self.predictor = PredictorParams(np.stack([s.predictor.W for s in states]),
                                         np.stack([s.predictor.b for s in states]))
        self.tape = GradientTape(self.extractor, self.predictor)
        for i, s in enumerate(states):
            s.predictor.W, s.predictor.b = self.predictor.W[i], self.predictor.b[i]

    def plan(self, n_cur: int, n_mem: int, classes: int) -> StepPlan:
        """The loss plan of a step of this shape: the part's alpha and
        weight rows ((rows,) when every run has the same, else (runs,
        rows)), its gammas and the class count, built on the shape's first
        step. Class counts only grow, so a new one drops the older plans."""
        key = (n_cur, n_mem, classes)
        plan = self._plans.get(key)
        if plan is None:
            if any(k[2] != classes for k in self._plans):
                self._plans.clear()
            mixes = [_row_mix(*run.mix, n_cur, n_mem) for run in self.runs]
            alpha, weights = (_shared([m[j] for m in mixes]) for j in (0, 1))
            plan = self._plans[key] = step_plan(self.scale, alpha, weights,
                                                (len(self.runs), n_cur + n_mem), classes)
        return plan

    def without(self, gone: set[Run]) -> "_Part | None":
        """The part minus the runs in gone, or None if empty."""
        keep = [run for run in self.runs if run not in gone]
        if len(keep) == len(self.runs):
            return self
        return _Part(keep) if keep else None

    def split(self, keys: list[tuple]) -> list["_Part"]:
        """One part per distinct step key, in order of first appearance."""
        if len(set(keys)) > 1:
            by_key: dict[tuple, list[Run]] = {}
            for run, key in zip(self.runs, keys):
                by_key.setdefault(key, []).append(run)
            return [_Part(runs) for runs in by_key.values()]
        if self.predictor.num_classes != keys[0][2]:
            self.stack_predictors()
        return [self]


class RunGroup:
    """Runs trained in lockstep, on one or more streams.

    Runs whose next step has the same step shape and whose networks have
    the same shape step together in one part, whatever their loss
    branches: one forward pass, one loss_rows, one backward pass and one
    SGD step over parameters stacked on a leading axis, each loss branch
    over every slice if any slice uses it. When step shapes diverge, a
    part splits and the pieces go on separately; they are not merged
    again. A run's bytes do not depend on which runs share its part, nor
    on their order. runs (in the order train_step reports them) and
    streams (in order of first appearance) are rebuilt only when the
    parts change (set_parts).

    Every part's step writes its large results into the group's one
    Workspace: the gathered [incoming; replayed] block and its scorer
    rows, the activations, the score blocks, dH, the backward masks and
    the gradient products. Parts step one after another and nothing of a
    step outlives it, so a step of the same shape as the last allocates
    none of these; a part with fewer slices or rows gets prefix views of
    the buffers, one of another shape replaces them. Stage scoring writes
    into a workspace too: a new one starts whenever the use switches
    (workspace), so step and scoring buffers are never held at once.
    """

    def __init__(self, runs):
        by_shape: dict[tuple, list[Run]] = {}
        for run in runs:
            shape = tuple(layer.weight.shape for layer in run.state.extractor.layers)
            by_shape.setdefault(shape, []).append(run)
        self.set_parts([_Part(group) for group in by_shape.values()])
        self._ws, self._scoring = Workspace(), False

    def set_parts(self, parts: list[_Part]) -> None:
        self.parts = parts
        self.runs = [run for part in parts for run in part.runs]
        self.streams = list(dict.fromkeys(run.state.stream for run in self.runs))

    def remove(self, runs) -> None:
        """Take runs out of the group; the parts they leave restack."""
        gone = set(runs)
        if gone:
            self.set_parts([p for p in (part.without(gone) for part in self.parts) if p])

    def workspace(self, scoring: bool = False) -> Workspace:
        """The workspace for a step, or with scoring for a stage end's
        scoring: the last one while the use stays the same, else a new one."""
        if scoring != self._scoring:
            self._ws, self._scoring = Workspace(), scoring
        return self._ws


def train_step(group: RunGroup, row_batch, y_batch, memory_batch_size: int, rng) -> list:
    """One training step of every run in a RunGroup.

    row_batch, y_batch and rng hold one entry per stream, in group.streams
    order (a batch is its samples' rows in the stream's source); each run
    steps with its own method. An empty batch or one whose rows and labels
    differ in length raises ValueError, and a row outside a stream's
    source IndexError, before anything is drawn or changed; a trajectory's
    batches are rows of its own stage split, so only streams on no
    trajectory (unregistered None, as in a RunGroup of the caller's) have
    their rows checked. Each stream registers new labels, draws its replay
    batch from its own rng and finds its [incoming; replayed] source rows
    once for all of its runs; the parts take their fused steps; each
    stream that still has a run then offers its batch to its buffer,
    unless the buffer's capacity is 0: such a buffer never holds a
    sample, so it draws no reservoir slots.
    Returns, per run in group.runs order, its (loss_current, loss_replay)
    pair or the NonFiniteError that ended it; such a run leaves the group,
    and the rest of its part redo the step's arithmetic without it from
    the draws already made. To step one run, hold a
    RunGroup([Run(method, state)]) across its steps.
    """
    runs, streams = group.runs, group.streams
    if not len(streams) == len(row_batch) == len(y_batch) == len(rng):
        raise ValueError(f"{len(streams)} streams but {len(row_batch)} row batches, "
                         f"{len(y_batch)} y batches and {len(rng)} rngs")
    row_batch = [np.asarray(rows, dtype=np.int64) for rows in row_batch]
    for stream, rows, y in zip(streams, row_batch, y_batch):
        if not len(y):
            raise ValueError("an empty batch: a step needs at least one incoming sample")
        if len(rows) != len(y):
            raise ValueError(f"a batch of {len(rows)} rows but {len(y)} labels")
        # one reduction, in which a negative row reads as a huge one
        if stream.unregistered is None and \
                np.maximum.reduce(rows.view(np.uint64), None) >= len(stream.source):
            raise IndexError(f"a row outside the {len(stream.source)} samples of its source")
    # per stream: its features and the source rows of [incoming; replayed],
    # their scorer rows and the step shape (n incoming, n replayed,
    # registered classes); each part gathers the samples themselves
    blocks = {}
    grown = False
    for stream, x_rows, y, r in zip(streams, row_batch, y_batch, rng):
        if stream.unregistered is None or stream.unregistered:
            added = register_classes(stream, y, r)
            grown |= bool(added)
            if stream.unregistered:
                stream.unregistered.difference_update(added)
        idx = buffer_retrieve(stream.buffer, memory_batch_size, r)
        rows, samples = stream.row_of_label[y], x_rows
        if len(idx):
            rows = np.concatenate([rows, stream.row_of_label[stream.buffer.y[idx]]])
            samples = np.concatenate([x_rows, stream.buffer.rows[idx]])
        blocks[stream] = ((stream.source.x, samples), rows,
                          (len(y), len(idx), len(stream.class_order)))

    records: dict[Run, object] = {}
    parts = []
    ws = group.workspace()
    for part in group.parts:
        if grown:
            for run in part.runs:
                catch_up(run.state)
        for piece in part.split([blocks[run.state.stream][2] for run in part.runs]):
            piece = _fused_step(piece, [blocks[run.state.stream] for run in piece.runs],
                                records, ws)
            if piece is not None:
                parts.append(piece)
    if parts != group.parts:
        group.set_parts(parts)

    stepped = {run.state.stream for run in runs if isinstance(records[run], tuple)}
    for stream, x_rows, y, r in zip(streams, row_batch, y_batch, rng):
        if stream in stepped:
            if stream.buffer.capacity:
                buffer_update(stream.buffer, x_rows, y, r)
            stream.consumed_in_stage += len(y)
            stream.step += 1
    return [records[run] for run in runs]


def _fused_step(part: _Part, blocks: list[tuple], records: dict,
                ws: Workspace) -> _Part | None:
    """The arithmetic of one part's step over [incoming; replayed], written
    into ws; blocks holds each run's stream block. Fills records with each
    run's (loss_current, loss_replay) pair or error and returns the part
    that survives."""
    n_cur, n_mem, classes = blocks[0][2]
    while True:
        X = _gather(ws, [b[0] for b in blocks])
        rows = ws("rows", (len(blocks), n_cur + n_mem), np.int64)
        np.concatenate([b[1] for b in blocks], out=rows.reshape(-1))
        plan = part.plan(n_cur, n_mem, classes)
        try:
            ce = _descend(part, ws, X, rows, plan)
            break
        except NonFiniteError as err:
            for j in err.seeds:
                records[part.runs[j]] = err
            part = part.without({part.runs[j] for j in err.seeds})
            if part is None:
                return None
            blocks = [b for j, b in enumerate(blocks) if j not in err.seeds]
    part_ce = ce * plan.weights
    l_c = np.add.reduce(part_ce[:, :n_cur], axis=-1).tolist()
    l_p = np.add.reduce(part_ce[:, n_cur:], axis=-1).tolist()
    records.update(zip(part.runs, zip(l_c, l_p)))
    return part


def _gather(ws: Workspace, sources: list[tuple]) -> np.ndarray:
    """The (runs, rows, dim) block of a step's [incoming; replayed] input
    rows, read from the source features straight into ws; sources holds
    one (features, source rows) pair per run."""
    x, rows = sources[0]
    X = ws("x", (len(sources), len(rows), x.shape[1]))
    for out, (x, rows) in zip(X, sources):
        # mode="clip" takes the rows straight into out ("raise" goes through
        # a temporary); incoming rows are a trajectory's split of the source
        # or checked against it, and the buffer holds earlier incoming
        # rows: none clips
        x.take(rows, axis=0, out=out, mode="clip")
    return X


def _descend(part: _Part, ws: Workspace, X: np.ndarray, rows: np.ndarray,
             plan: StepPlan) -> np.ndarray:
    """One part's forward pass, loss_rows, backward pass and SGD step;
    returns the per-row cross-entropies.

    The step's one finiteness check is loss_rows' check of the
    cross-entropy. A non-finite feature makes its row's cross-entropy
    non-finite under either score, so the features are looked at only
    when that check raises: if some slices' features are not finite, the
    NonFiniteError names those slices as features, else the cross-entropy
    error stands. Either way nothing reaches the backward pass or the SGD
    step."""
    # a diverging run overflows here; the checks raise, so NumPy's
    # warnings add nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        H, acts = forward_batch(part.extractor, X, ws)
        try:
            ce, dH = loss_rows(part.predictor, part.scale, plan.alpha, H, rows, plan.weights,
                               part.tape, ws, plan)
        except NonFiniteError as err:
            failed = err
        else:
            backward_batch(part.extractor, acts, dH, part.tape, ws)
            sgd_step(part.extractor, part.predictor, part.tape, part.lr)
            return ce
    require_finite(H, "features", stacked=True)
    raise failed


def _collect_stage_metrics(state: TrainState, stages: Sequence[StageRows], t: int,
                           method: MethodConfig, test: LabeledData, ends: np.ndarray,
                           rows: np.ndarray | None = None,
                           ws: Workspace | None = None) -> StageMetrics:
    """Metrics after stage t; test's rows at the indices rows (test's own
    rows without it) hold the test rows of stages 1..t (or more) in stage
    order, and ends[j] is where stage j+1's rows end. Scoring writes its
    blocks into ws if given. A run whose features have collapsed fails
    here, naming the stage."""
    n = int(ends[t - 1])
    rows = np.arange(n) if rows is None else rows[:n]
    scores = score_stages(state, test, ends[:t], method.triple.test, method.scale(), rows, ws)
    if scores.collapsed:
        raise FeaturesCollapsed(f"stage {t}: features collapsed: all {n} scored test "
                                f"rows have zero features")
    row = scores.accuracy_row
    stream = state.stream
    label_to_row = {label: r for r, label in enumerate(stream.class_order)}
    prev_rows = [label_to_row[c] for j in range(t - 1) for c in stages[j].class_set
                 if c in label_to_row]
    curr_rows = [label_to_row[c] for c in stages[t - 1].class_set if c in label_to_row]
    diag = bias_diagnostics(state.predictor, prev_rows, curr_rows, state.stage_baseline)
    return StageMetrics(
        stage=t,
        class_order=list(stream.class_order),
        current_classes=[int(c) for c in stages[t - 1].class_set],
        accuracy_row=row,
        average_accuracy=average_accuracy(row),
        acc_previous=scores.acc_previous,
        acc_current=row[-1],
        **vars(diag),
        avg_posterior=scores.avg_posterior.tolist(),
        consumed_samples=stream.consumed_in_stage,
    )


def trajectory_key(method: MethodConfig, seed: int) -> tuple:
    """What fixes a run's draws: its seed, network widths and buffer
    capacity (the dataset and stream settings are the caller's)."""
    return int(seed), tuple(method.hidden_dims), method.buffer_capacity


class _Trajectory:
    """One stream: a seed's rng, stage split and batch order, its buffer and
    scorer rows (a StreamState), and the runs that follow it.

    Every draw is made here once, in the order a run alone makes it: the
    stage split, the extractor init (each run starts from a copy), then
    per step the new scorer rows, the replay indices and the reservoir
    slots. The stages are row indices into the dataset (shared by every
    stream for csv data), read by row: a stage's training rows are
    shuffled into their batch order when it starts (iterate_batches), the
    stream's source is dataset.train, and the test rows scored at a stage
    end are read block by block by each of the stream's runs. As a stage
    starts, the stream's unregistered labels become the stage's classes it
    has not registered, so its steps stop looking batches up once they are
    all registered.
    """

    def __init__(self, dataset: Dataset, stream_cfg: StreamConfig, seed: int,
                 members: list[tuple[int, MethodConfig]]):
        self.seed = int(seed)
        self.rng = make_rng([self.seed, 1])
        self.dataset, self.stream_cfg = dataset, stream_cfg
        self.stages = build_stages(dataset, stream_cfg, self.rng)
        self.test_rows = np.concatenate([s.test_rows for s in self.stages])
        self.ends = np.cumsum([len(s.test_rows) for s in self.stages])
        first = members[0][1]
        init = init_extractor((dataset.input_dim, *first.hidden_dims), self.rng)
        self.state = StreamState(MemoryBuffer(first.buffer_capacity), init.out_dim, dataset.train)
        # the first run takes the drawn extractor, the others start from copies
        copies = [FeatureExtractor([LayerParams(layer.weight.copy(), layer.bias.copy())
                                    for layer in init.layers]) for _ in members[1:]]
        # one step per batch; each run's loss history is allocated whole
        # here, before any step: a history that grew as the run stepped
        # would sit among the step workspace's blocks on the heap and keep
        # their freed space from being returned
        steps = sum(-(-len(s.train_rows) // stream_cfg.batch_size_current)
                    for s in self.stages)
        self.runs = [Run(method, _follow(self.state, extractor), index,
                         losses=np.empty((steps, 2)))
                     for (index, method), extractor in zip(members, [init, *copies])]
        self.t = 0
        self.batches = iter(())

    def next_batch(self, fail: Callable[[Run, Exception], None],
                   scoring: Callable[[], Workspace]):
        """The stream's next (rows, y) batch, scoring every run as a stage
        ends; fail(run, error) takes out a run whose scoring raises. None
        once the last stage is scored or no run is left. Scoring writes
        its blocks into the workspace scoring() returns."""
        while (batch := next(self.batches, None)) is None:
            if self.t:
                ws = scoring()
                for run in list(self.runs):
                    try:
                        run.metrics.append(_collect_stage_metrics(
                            run.state, self.stages, self.t, run.method, self.dataset.test,
                            self.ends, self.test_rows, ws))
                    except Exception as err:  # noqa: BLE001 - e.g. collapsed features
                        fail(run, err)
            if self.t == len(self.stages) or not self.runs:
                return None
            self.t += 1
            for run in self.runs:
                run.state.stage_baseline = run.state.predictor.copy()
            stage = self.stages[self.t - 1]
            self.state.consumed_in_stage = 0
            self.state.unregistered = set(stage.class_set).difference(self.state.class_order)
            self.batches = iterate_batches(stage, self.stream_cfg, self.rng, self.dataset)
        return batch


def run_trajectories(dataset_for: Callable[[int], Dataset], runs: Sequence[tuple],
                     stream_cfg: StreamConfig) -> list:
    """Train runs, each a (method, seed) pair, in lockstep on shared streams.

    Runs whose seed, network widths and buffer capacity agree follow one
    trajectory: one rng, one stage split, one batch order, one buffer and
    one set of scorer row inits. A method replays exactly when its buffer
    capacity is above 0, so every capacity-0 run of a seed follows
    finetune's stream. No draw depends on a method's scoring rules,
    alpha, gamma or lr, so every run is exactly what it would be alone,
    and the runs of one seed are compared under common random numbers.
    dataset_for(seed) gives a seed's dataset; it is called once per seed
    (again only after a build that raised).
    Returns, per run in order, its ExperimentResult or the exception that
    ended it. A step whose values go non-finite ends only that run, with
    a FloatingPointError naming the stage and the step (1-based, counted
    over the whole run).
    """
    outcomes: list = [None] * len(runs)
    members: dict[tuple, list[tuple[int, MethodConfig]]] = {}
    for i, (method, seed) in enumerate(runs):
        members.setdefault(trajectory_key(method, seed), []).append((i, method))
    datasets: dict[int, Dataset] = {}
    live: list[_Trajectory] = []
    for (seed, *_), group_members in members.items():
        try:
            if seed not in datasets:
                datasets[seed] = dataset_for(seed)
            live.append(_Trajectory(datasets[seed], stream_cfg, seed, group_members))
        except Exception as err:  # noqa: BLE001 - isolate per-trajectory failures
            for i, _ in group_members:
                outcomes[i] = err
    del datasets  # a dataset lives as long as the streams on it
    trajectory_of = {run: traj for traj in live for run in traj.runs}
    group = RunGroup([run for traj in live for run in traj.runs])
    ended: list[Run] = []

    def end(run: Run, outcome) -> None:
        outcomes[run.index] = outcome
        trajectory_of.pop(run).runs.remove(run)
        ended.append(run)

    while live:
        batches = {}
        for traj in live:
            batch = traj.next_batch(end, lambda: group.workspace(scoring=True))
            if batch is None:
                for run in list(traj.runs):
                    end(run, ExperimentResult(method=run.method.name, seed=traj.seed,
                                              metrics=run.metrics, losses=run.losses))
            else:
                batches[traj.state] = traj, batch
        group.remove(ended)
        ended.clear()
        live = [traj for traj, _ in batches.values()]
        if not live:
            break
        stepping = [batches[stream] for stream in group.streams]
        runs_now = group.runs
        step_no = {traj: traj.state.step + 1 for traj in live}
        try:
            records = train_step(group, [rows for _, (rows, _) in stepping],
                                 [y for _, (_, y) in stepping], stream_cfg.batch_size_memory,
                                 [traj.rng for traj, _ in stepping])
        except Exception as err:  # noqa: BLE001 - a fault no single run owns
            for run in runs_now:
                end(run, err)
            break
        for run, record in zip(runs_now, records):
            if isinstance(record, tuple):
                run.losses[run.state.stream.step - 1] = record  # step counts the one just taken
            else:
                traj = trajectory_of[run]
                failure = FloatingPointError(
                    f"stage {traj.t}, step {step_no[traj]}: {record}")
                failure.__cause__ = record
                end(run, failure)
        group.remove(ended)
        ended.clear()
        live = [traj for traj in live if traj.runs]
    return outcomes


def run_experiment(dataset: Dataset, method: MethodConfig, stream_cfg: StreamConfig,
                   seed: int) -> ExperimentResult:
    """One full pass over the stream for one seed: run_trajectories with a
    single run, its error raised.

    The seed fully determines initialization, stage partition, batch
    order, retrieval, and buffer replacement, so identical calls produce
    identical results bit for bit. A step whose values go non-finite
    raises FloatingPointError naming the stage and the step.
    """
    (outcome,) = run_trajectories(lambda _seed: dataset, [(method, seed)], stream_cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
