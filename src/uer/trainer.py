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

No draw depends on a method's scoring rules, alpha, gamma or lr: the
seed, the network widths, the buffer capacity and the replay switch fix
them all. Runs that agree on these follow one trajectory
(run_trajectories): one stream registers labels, draws the replay batch,
gathers the [incoming; replayed] rows, updates its one buffer and
gathers the stage test rows, and every run on it reuses them. Only the
parameters are per run. The runs step in parts: runs whose alpha rows
take the same loss branches and whose step and network shapes agree run
the forward pass, loss_rows, the backward pass and the SGD step once,
over parameters stacked on a leading axis, with per-run alpha, weights,
gamma and lr. Each run's slice is computed exactly as its run alone
would compute it.
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


class FeaturesCollapsed(ValueError):
    """A run's features are zero on every scored test row: its extractor's
    ReLUs have all died, so its scores no longer depend on the input."""


@dataclass
class StepRecord:
    loss_current: float
    loss_replay: float
    loss_total: float


@dataclass(eq=False)
class StreamState:
    """What every run on one trajectory shares.

    The buffer, the label -> scorer row map (class_order and its dense
    inverse row_of_label), the value each scorer row had when it was
    registered, and the step counters. register_classes draws new rows
    once per stream; each run's scorer then catches up by appending them.
    """
    buffer: MemoryBuffer
    dim: int  # feature dim: the width of a scorer row
    class_order: list[int] = field(default_factory=list)  # label of each scorer row
    # dense label -> scorer row lookup, -1 for labels not registered
    row_of_label: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    init_rows: np.ndarray | None = None  # (rows, dim), each row's value at registration
    step: int = 0
    consumed_in_stage: int = 0

    def __post_init__(self):
        if self.init_rows is None:
            self.init_rows = np.zeros((0, self.dim))


def _on_stream(name: str) -> property:
    return property(lambda self: getattr(self.stream, name),
                    lambda self, value: setattr(self.stream, name, value),
                    doc=f"The stream's {name}, shared by every run on it.")


@dataclass
class TrainState:
    """One run's parameters: its extractor, class scorer, gradient tape and
    the scorer as the stage began, on the stream (StreamState) it follows.
    The stream's buffer, label map and counters read through."""
    extractor: FeatureExtractor
    predictor: PredictorParams
    tape: GradientTape
    stream: StreamState
    stage_baseline: PredictorParams | None = None

    buffer = _on_stream("buffer")
    class_order = _on_stream("class_order")
    row_of_label = _on_stream("row_of_label")
    step = _on_stream("step")
    consumed_in_stage = _on_stream("consumed_in_stage")

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


def _capacity(method: MethodConfig) -> int:
    return method.buffer_capacity if method.replay_enabled else 0


def _follow(stream: StreamState, extractor: FeatureExtractor) -> TrainState:
    """A run with its own extractor and an empty scorer on a stream; the
    scorer then catches up with the rows the stream has registered."""
    predictor = PredictorParams.empty(stream.dim)
    state = TrainState(extractor, predictor, GradientTape(extractor, predictor), stream,
                       predictor.copy())
    catch_up(state)
    return state


def init_state(method: MethodConfig, input_dim: int, rng: Rng) -> TrainState:
    """A run on a stream of its own, its extractor drawn from rng."""
    extractor = init_extractor((input_dim, *method.hidden_dims), rng)
    return _follow(StreamState(MemoryBuffer(_capacity(method)), extractor.out_dim), extractor)


def register_classes(state, labels, rng: Rng) -> list[int]:
    """Register every label not seen before; returns those labels.

    state is a StreamState, or a TrainState: its stream registers, and its
    scorer then catches up. A new label gets the next scorer row, drawn
    with the same uniform init as a single-output net layer over the
    feature dim; biases start at zero. One lookup finds batches whose
    labels are all registered, so they draw nothing. Labels must be
    non-negative integers.
    """
    stream = state.stream if isinstance(state, TrainState) else state
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
    if isinstance(state, TrainState):
        catch_up(state)
    return added


def catch_up(state: TrainState) -> None:
    """Append to the run's scorer the rows its stream registered since it
    last looked, at their initial values. The stage baseline gets the same
    values, so parameter movement excludes initialization."""
    for row in state.stream.init_rows[state.predictor.num_classes:]:
        state.predictor.add_class(row, 0.0)
        state.tape.add_class_rows(1)
        if state.stage_baseline is not None:
            state.stage_baseline.add_class(row.copy(), 0.0)


@lru_cache(maxsize=256)
def _row_mix(learn_alpha: float, replay_alpha: float, joint: bool,
             n_cur: int, n_mem: int) -> tuple[np.ndarray, np.ndarray, tuple[bool, bool]]:
    """Per-row mix weight alpha and loss weight for [incoming; replayed],
    and the (dot, cosine) branches that alpha makes loss_rows run."""
    alpha = np.repeat([learn_alpha, learn_alpha if joint else replay_alpha], [n_cur, n_mem])
    if joint:
        weights = np.full(n_cur + n_mem, 1.0 / (n_cur + n_mem))
    else:
        weights = np.repeat([1.0 / n_cur, 1.0 / max(n_mem, 1)], [n_cur, n_mem])
    alpha.flags.writeable = weights.flags.writeable = False
    return alpha, weights, (bool(alpha.max() > 0.0), bool(alpha.min() < 1.0))


@dataclass(eq=False)
class _Run:
    """A method's run: its parameters (state) and what it has produced."""
    method: MethodConfig
    state: TrainState
    index: int = 0  # the run's position in the caller's list
    metrics: list[StageMetrics] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)

    def __post_init__(self):
        triple = self.method.triple
        # the _row_mix key of the method
        self.mix = (1.0 if triple.learn is LogitMode.DOT else 0.0,
                    triple.replay.effective_alpha(), self.method.joint_batch)


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

    A part's runs agree on the network shape, on the step shape (batch
    length, replay count, registered class count) and on the loss
    branches their own alpha rows take, so each slice runs exactly the
    arithmetic of its run alone. With several runs, the part keeps their
    parameters stacked on a leading axis, one slice per run, and each
    run's TrainState holds views into them; alpha and weight rows, gamma
    and lr are per slice. A part of one run steps on that run's own
    arrays. Each run keeps its own (zero) tape; a stacked part has one of
    its own.
    """

    def __init__(self, runs: list[_Run]):
        self.runs = runs
        self._mix: dict[tuple[int, int], tuple] = {}
        if len(runs) == 1:
            run = runs[0]
            self.extractor, self.predictor, self.tape = \
                run.state.extractor, run.state.predictor, run.state.tape
            self.scale, self.lr = run.method.scale(), run.method.lr
            return
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
        """Restack the runs' class scorers (after registration grew them)."""
        if len(self.runs) == 1:
            return  # the part shares the run's own PredictorParams
        states = [run.state for run in self.runs]
        self.predictor = PredictorParams(np.stack([s.predictor.W for s in states]),
                                         np.stack([s.predictor.b for s in states]))
        for i, s in enumerate(states):
            s.predictor.W, s.predictor.b = self.predictor.W[i], self.predictor.b[i]
        self.tape = GradientTape(self.extractor, self.predictor)

    def mix(self, n_cur: int, n_mem: int) -> tuple[np.ndarray, np.ndarray]:
        """The part's alpha and weight rows: (rows,) when every run has the
        same, else (runs, rows)."""
        key = (n_cur, n_mem)
        if key not in self._mix:
            mixes = [_row_mix(*run.mix, n_cur, n_mem) for run in self.runs]
            self._mix[key] = tuple(_shared([m[j] for m in mixes]) for j in (0, 1))
        return self._mix[key]

    def without(self, gone: set[_Run]) -> "_Part | None":
        """The part minus the runs in gone, or None if empty."""
        keep = [run for run in self.runs if run not in gone]
        if len(keep) == len(self.runs):
            return self
        return _Part(keep) if keep else None

    def split(self, keys: list[tuple]) -> list["_Part"]:
        """One part per distinct step key, in order of first appearance."""
        if len(set(keys)) > 1:
            by_key: dict[tuple, list[_Run]] = {}
            for run, key in zip(self.runs, keys):
                by_key.setdefault(key, []).append(run)
            return [_Part(runs) for runs in by_key.values()]
        if self.predictor.num_classes != keys[0][2]:
            self.stack_predictors()
        return [self]


class RunGroup:
    """Runs trained in lockstep, on one or more streams.

    Runs whose next step has the same key (loss branches and step shape)
    and whose networks have the same shape step together in one part: one
    forward pass, one loss_rows, one backward pass and one SGD step over
    parameters stacked on a leading axis. When keys diverge, a part splits
    and the pieces go on separately; they are not merged again. A run's
    bytes do not depend on which runs share its part.
    """

    def __init__(self, runs):
        by_shape: dict[tuple, list[_Run]] = {}
        for run in runs:
            shape = tuple(layer.weight.shape for layer in run.state.extractor.layers)
            by_shape.setdefault(shape, []).append(run)
        self.parts = [_Part(group) for group in by_shape.values()]

    @property
    def runs(self) -> list[_Run]:
        """The runs still stepping, in the order train_step reports them."""
        return [run for part in self.parts for run in part.runs]

    @property
    def streams(self) -> list[StreamState]:
        """The streams of those runs, in order of first appearance."""
        return list(dict.fromkeys(run.state.stream for run in self.runs))

    def remove(self, runs) -> None:
        """Take runs out of the group; the parts they leave restack."""
        gone = set(runs)
        if gone:
            self.parts = [p for p in (part.without(gone) for part in self.parts) if p]


def train_step(group, x_batch, y_batch, method: MethodConfig | None, memory_batch_size: int,
               rng):
    """One training step of every run in a RunGroup.

    x_batch, y_batch and rng hold one entry per stream, in group.streams
    order, and method is None: each run steps with its own. Each stream
    registers new labels, draws its replay batch from its own rng and
    gathers its [incoming; replayed] rows once for all of its runs; the
    parts take their fused steps; each stream that still has a run then
    offers its batch to its buffer. Returns, per run in group.runs order,
    its StepRecord or the NonFiniteError that ended it; such a run leaves
    the group, and the rest of its part redo the step's arithmetic
    without it from the draws already made.

    A lone TrainState is a group of one run of method: pass its batch and
    rng directly, and get its StepRecord back (or its error raised).
    """
    if isinstance(group, TrainState):
        (record,) = _group_step(RunGroup([_Run(method, group)]), [x_batch], [y_batch],
                                memory_batch_size, [rng])
        if isinstance(record, Exception):
            raise record
        return record
    return _group_step(group, x_batch, y_batch, memory_batch_size, rng)


_NO_ROWS = np.zeros(0, dtype=np.int64)


def _group_step(group: RunGroup, x_batch, y_batch, memory_batch_size: int, rng) -> list:
    runs, streams = group.runs, group.streams
    if not len(streams) == len(x_batch) == len(y_batch) == len(rng):
        raise ValueError(f"{len(streams)} streams but {len(x_batch)} x batches, "
                         f"{len(y_batch)} y batches and {len(rng)} rngs")
    replay = {run.state.stream: run.method.replay_enabled for run in runs}
    # per stream: [incoming; replayed] rows, their scorer rows, and the
    # step shape (n incoming, n replayed, registered classes)
    blocks = {}
    grown = False
    for stream, x, y, r in zip(streams, x_batch, y_batch, rng):
        grown |= bool(register_classes(stream, y, r))
        idx = buffer_retrieve(stream.buffer, memory_batch_size, r) if replay[stream] else _NO_ROWS
        rows = stream.row_of_label[y]
        if len(idx):
            buf = stream.buffer
            x = np.concatenate([x, buf.x[idx]])
            rows = np.concatenate([rows, stream.row_of_label[buf.y[idx]]])
        blocks[stream] = x, rows, (len(y), len(idx), len(stream.class_order))

    records: dict[_Run, object] = {}
    parts = []
    for part in group.parts:
        keys = []
        for run in part.runs:
            if grown:
                catch_up(run.state)
            shape = blocks[run.state.stream][2]
            keys.append((*shape, _row_mix(*run.mix, shape[0], shape[1])[2]))
        for piece in part.split(keys):
            piece = _fused_step(piece, [blocks[run.state.stream] for run in piece.runs],
                                records)
            if piece is not None:
                parts.append(piece)
    group.parts = parts

    stepped = {run.state.stream for run in runs if isinstance(records[run], StepRecord)}
    for stream, x, y, r in zip(streams, x_batch, y_batch, rng):
        if stream in stepped:
            if replay[stream]:
                buffer_update(stream.buffer, LabeledData(x, y), r)
            stream.consumed_in_stage += len(y)
            stream.step += 1
    return [records[run] for run in runs]


def _fused_step(part: _Part, blocks: list[tuple], records: dict) -> _Part | None:
    """The arithmetic of one part's step over [incoming; replayed]; blocks
    holds each run's stream block. Fills records by run and returns the
    part that survives."""
    n_cur, n_mem, _ = blocks[0][2]
    while True:
        if len(part.runs) == 1:  # one run steps on 2-d blocks, exactly as it would alone
            X, rows = blocks[0][:2]
        else:
            X = np.concatenate([b[0] for b in blocks]).reshape(len(blocks), n_cur + n_mem, -1)
            rows = np.concatenate([b[1] for b in blocks]).reshape(len(blocks), n_cur + n_mem)
        alpha, weights = part.mix(n_cur, n_mem)
        try:
            ce = _descend(part, X, rows, alpha, weights)
            break
        except NonFiniteError as err:
            bad = set(range(len(part.runs)) if err.seeds is None else err.seeds)
            for j in bad:
                records[part.runs[j]] = err
            part = part.without({part.runs[j] for j in bad})
            if part is None:
                return None
            blocks = [b for j, b in enumerate(blocks) if j not in bad]
    part_ce = (ce * weights).reshape(len(part.runs), -1)
    l_c = np.add.reduce(part_ce[:, :n_cur], axis=-1).tolist()
    l_p = np.add.reduce(part_ce[:, n_cur:], axis=-1).tolist()
    for run, c, p in zip(part.runs, l_c, l_p):
        records[run] = StepRecord(c, p, c + p)
    return part


def _descend(part: _Part, X: np.ndarray, rows: np.ndarray, alpha: np.ndarray,
             weights: np.ndarray) -> np.ndarray:
    # a diverging run overflows here; the finiteness checks in
    # forward_batch and loss_rows raise, so NumPy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        H, cache = forward_batch(part.extractor, X)
        ce, dH = loss_rows(part.predictor, part.scale, alpha, H, rows, weights, part.tape)
        backward_batch(part.extractor, cache, dH, part.tape)
        sgd_step(part.extractor, part.predictor, part.tape, part.lr)
    return ce


def _collect_stage_metrics(state: TrainState, stages: Sequence[Stage | StageRows], t: int,
                           method: MethodConfig, test: LabeledData,
                           ends: np.ndarray) -> StageMetrics:
    """Metrics after stage t; test holds the test rows of stages 1..t (or
    more) in stage order and ends[j] is where stage j+1's rows end. A run
    whose features have collapsed fails here, naming the stage."""
    seen = LabeledData(test.x[:ends[t - 1]], test.y[:ends[t - 1]])
    scores = score_stages(state, seen, ends[:t], method.triple.test, method.scale())
    if scores.collapsed:
        raise FeaturesCollapsed(f"stage {t}: features collapsed: all {len(seen)} scored test "
                                f"rows have zero features")
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


def trajectory_key(method: MethodConfig, seed: int) -> tuple:
    """What fixes a run's draws: its seed, network widths, buffer capacity
    and replay switch (the dataset and stream settings are the caller's)."""
    return int(seed), tuple(method.hidden_dims), _capacity(method), method.replay_enabled


class _Trajectory:
    """One stream: a seed's rng, stage split and batch order, its buffer and
    scorer rows (a StreamState), and the runs that follow it.

    Every draw is made here once, in the order a run alone makes it: the
    stage split, the extractor init (each run starts from a copy), then
    per step the new scorer rows, the replay indices and the reservoir
    slots. The stages are row indices into the dataset (shared by every
    stream for csv data): a stage's training rows are gathered when it
    starts, and the test rows scored so far once per stage end for all of
    the stream's runs.
    """

    def __init__(self, dataset: Dataset, stream_cfg: StreamConfig, seed: int,
                 members: list[tuple[int, MethodConfig]]):
        self.seed = int(seed)
        self.rng = make_rng([self.seed, 1])
        self.dataset, self.stream_cfg = dataset, stream_cfg
        self.stages = split_stages(dataset, stream_cfg, self.rng)
        self.test_rows = np.concatenate([s.test_rows for s in self.stages])
        self.ends = np.cumsum([len(s.test_rows) for s in self.stages])
        first = members[0][1]
        init = init_extractor((dataset.input_dim, *first.hidden_dims), self.rng)
        self.state = StreamState(MemoryBuffer(_capacity(first)), init.out_dim)
        # the first run takes the drawn extractor, the others start from copies
        copies = [FeatureExtractor([LayerParams(layer.weight.copy(), layer.bias.copy())
                                    for layer in init.layers]) for _ in members[1:]]
        self.runs = [_Run(method, _follow(self.state, extractor), index)
                     for (index, method), extractor in zip(members, [init, *copies])]
        self.t = 0
        self.batches = iter(())

    def next_batch(self, fail: Callable[[_Run, Exception], None]):
        """The stream's next (x, y) batch, scoring every run as a stage
        ends; fail(run, error) takes out a run whose scoring raises. None
        once the last stage is scored or no run is left."""
        while (batch := next(self.batches, None)) is None:
            if self.t:
                rows = self.test_rows[:self.ends[self.t - 1]]
                seen = LabeledData(self.dataset.test.x[rows], self.dataset.test.y[rows])
                for run in list(self.runs):
                    try:
                        run.metrics.append(_collect_stage_metrics(
                            run.state, self.stages, self.t, run.method, seen, self.ends))
                    except Exception as err:  # noqa: BLE001 - e.g. collapsed features
                        fail(run, err)
            if self.t == len(self.stages) or not self.runs:
                return None
            self.t += 1
            for run in self.runs:
                run.state.stage_baseline = run.state.predictor.copy()
            self.state.consumed_in_stage = 0
            self.batches = iterate_batches(self.stages[self.t - 1].gather(self.dataset),
                                           self.stream_cfg, self.rng)
        return batch


def run_trajectories(dataset_for: Callable[[int], Dataset], runs: Sequence[tuple],
                     stream_cfg: StreamConfig) -> list:
    """Train runs, each a (method, seed) pair, in lockstep on shared streams.

    Runs whose seed, network widths, buffer capacity and replay switch
    agree follow one trajectory: one rng, one stage split, one batch
    order, one buffer and one set of scorer row inits. No draw depends on
    a method's scoring rules, alpha, gamma or lr, so every run is exactly
    what it would be alone, and the runs of one seed are compared under
    common random numbers. dataset_for(seed) gives a seed's dataset; it
    is called once per seed (again only after a build that raised).
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
    ended: list[_Run] = []

    def end(run: _Run, outcome) -> None:
        outcomes[run.index] = outcome
        trajectory_of.pop(run).runs.remove(run)
        ended.append(run)

    while live:
        batches = {}
        for traj in live:
            batch = traj.next_batch(end)
            if batch is None:
                for run in list(traj.runs):
                    end(run, ExperimentResult(method=run.method.name, seed=traj.seed,
                                              metrics=run.metrics, steps=run.steps))
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
            records = train_step(group, [x for _, (x, _) in stepping],
                                 [y for _, (_, y) in stepping], None,
                                 stream_cfg.batch_size_memory,
                                 [traj.rng for traj, _ in stepping])
        except Exception as err:  # noqa: BLE001 - a fault no single run owns
            for run in runs_now:
                end(run, err)
            break
        for run, record in zip(runs_now, records):
            if isinstance(record, StepRecord):
                run.steps.append(record)
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
