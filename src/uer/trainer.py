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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# accuracy, average_posterior, loss_current, loss_dot and loss_replay are
# not called here: they stay importable from this module because the
# perfbench span tracer wraps them by this module's name
from .evaluation import StageMetrics, accuracy, average_accuracy, average_posterior, \
    bias_diagnostics, score_stages  # noqa: F401
from .logits import CosineScale, LogitMode, PredictorParams, loss_current, loss_dot, \
    loss_replay, loss_rows  # noqa: F401
from .memory import MemoryBuffer, buffer_retrieve, buffer_update
from .net import FeatureExtractor, GradientTape, backward_batch, forward_batch, \
    init_extractor, sgd_step
from .numeric import Rng, make_rng
from .stream import Dataset, LabeledData, Stage, StreamConfig, build_stages, iterate_batches


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
    d = state.predictor.dim
    s = np.sqrt(6.0 / (d + 1))
    for label in np.asarray(labels).ravel().tolist():
        label = int(label)
        if label < 0:
            raise ValueError(f"labels must be non-negative, got {label}")
        if label < len(state.row_of_label) and state.row_of_label[label] >= 0:
            continue
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


def train_step(state: TrainState, x_batch: np.ndarray, y_batch: np.ndarray,
               method: MethodConfig, memory_batch_size: int, rng: Rng) -> StepRecord:
    register_classes(state, y_batch, rng)
    buf = state.buffer
    n_cur = len(y_batch)
    X, rows = x_batch, state.row_of_label[y_batch]
    idx = buffer_retrieve(buf, memory_batch_size, rng) if method.replay_enabled else ()
    n_mem = len(idx)
    if n_mem:
        X = np.concatenate([x_batch, buf.x[idx]])
        rows = np.concatenate([rows, state.row_of_label[buf.y[idx]]])
    learn_alpha = 1.0 if method.triple.learn is LogitMode.DOT else 0.0
    alpha, weights = _row_mix(learn_alpha, method.triple.replay.effective_alpha(),
                              method.joint_batch, n_cur, n_mem)

    # a diverging run overflows here; the finiteness checks in
    # forward_batch and loss_rows raise, so NumPy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        H, cache = forward_batch(state.extractor, X)
        ce, dH = loss_rows(state.predictor, method.scale(), alpha, H, rows, weights,
                           state.tape)
        backward_batch(state.extractor, cache, dH, state.tape)
        sgd_step(state.extractor, state.predictor, state.tape, method.lr)

    part = ce * weights
    l_c = float(part[:n_cur].sum())
    l_p = float(part[n_cur:].sum())
    if method.replay_enabled:
        buffer_update(buf, LabeledData(x_batch, y_batch), rng)

    state.consumed_in_stage += n_cur
    state.step += 1
    return StepRecord(l_c, l_p, l_c + l_p)


def _collect_stage_metrics(state: TrainState, stages: list[Stage], t: int,
                           method: MethodConfig, test: LabeledData,
                           ends: np.ndarray) -> StageMetrics:
    """Metrics after stage t; test holds every stage's test rows in stage
    order and ends[j] is where stage j+1's rows end."""
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


def run_experiment(dataset: Dataset, method: MethodConfig, stream_cfg: StreamConfig,
                   seed: int) -> ExperimentResult:
    """One full pass over the stream: train each stage once, then score it.

    The seed fully determines initialization, stage partition, batch order,
    retrieval, and buffer replacement, so identical calls produce identical
    results bit for bit. A step whose values go non-finite raises
    FloatingPointError naming the stage and the step (1-based, counted
    over the whole run).
    """
    rng = make_rng([int(seed), 1])
    stages = build_stages(dataset, stream_cfg, rng)
    test = LabeledData(np.concatenate([s.test.x for s in stages]),
                       np.concatenate([s.test.y for s in stages]))
    ends = np.cumsum([len(s.test) for s in stages])
    state = init_state(method, dataset.input_dim, rng)
    metrics: list[StageMetrics] = []
    steps: list[StepRecord] = []
    for t, stage in enumerate(stages, 1):
        state.stage_baseline = state.predictor.copy()
        state.consumed_in_stage = 0
        for x_b, y_b in iterate_batches(stage, stream_cfg, rng):
            try:
                steps.append(train_step(state, x_b, y_b, method,
                                        stream_cfg.batch_size_memory, rng))
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"stage {t}, step {state.step + 1}: {err}") from err
        metrics.append(_collect_stage_metrics(state, stages, t, method, test, ends))
    return ExperimentResult(method=method.name, seed=int(seed), metrics=metrics, steps=steps)
