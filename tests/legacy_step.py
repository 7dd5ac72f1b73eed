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
byte. Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from uer.logits import (CosineScale, EPS_NORM, LogitMode, _batch_targets,
                        cosine_logits_batch, dot_logits_batch, loss_rows, softmax_rows)
from uer.memory import buffer_retrieve, buffer_update
from uer.net import backward_batch, forward_batch, sgd_step
from uer.numeric import make_rng, require_finite
from uer.stream import LabeledData, build_stages, iterate_batches
from uer.trainer import (ExperimentResult, StepRecord, _collect_stage_metrics, _row_mix,
                         init_state, register_classes)


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


def list_buffer_from_arrays(buf) -> ListBuffer:
    """A list-buffer twin of an array-backed ``uer.memory.MemoryBuffer``."""
    twin = ListBuffer(buf.capacity)
    twin.seen = buf.seen
    twin.items = [StoredSample(buf.x[i].copy(), int(buf.y[i]), int(buf.pos[i]))
                  for i in range(len(buf))]
    return twin


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
    return np.array([state.label_to_row[int(y)] for y in labels], dtype=np.int64)


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
    """One step of the two-pass trainer; ``state.buffer`` is a ListBuffer.

    ``sgd`` is called in place of ``uer.net.sgd_step`` so a test can look
    at the gradient tape before the update zeroes it.
    """
    register_classes(state, y_batch, rng)
    scale = method.scale()
    rows_cur = _rows_for(state, y_batch)

    replayed: list[StoredSample] = []
    if method.replay_enabled:
        replayed = list_buffer_retrieve(state.buffer, memory_batch_size, rng)

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
                                      method.triple.replay.effective_alpha(),
                                      H_mem, rows_mem, state.tape)
            backward_batch(state.extractor, cache_mem, dH_mem, state.tape)

    l_total = l_c + l_p
    sgd(state.extractor, state.predictor, state.tape, method.lr)

    if method.replay_enabled:
        # the old TrainState.stream_position counter equalled buffer.seen
        # whenever the buffer was offered samples
        offered = [StoredSample(x_batch[i].copy(), int(y_batch[i]), state.buffer.seen + i)
                   for i in range(len(y_batch))]
        list_buffer_update(state.buffer, offered, rng)

    state.consumed_in_stage += len(y_batch)
    state.step += 1
    return StepRecord(l_c, l_p, l_total)


# ------------------------------------------------------ one seed at a time


def per_seed_train_step(state, x_batch, y_batch, method, memory_batch_size, rng) -> StepRecord:
    """The fused step for one seed on 2-d blocks, as it ran before lockstep."""
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
        state.consumed_in_stage = 0
        for x_b, y_b in iterate_batches(stage, stream_cfg, rng):
            try:
                steps.append(per_seed_train_step(state, x_b, y_b, method,
                                                 stream_cfg.batch_size_memory, rng))
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"stage {t}, step {state.step + 1}: {err}") from err
        metrics.append(_collect_stage_metrics(state, stages, t, method, test, ends))
    return ExperimentResult(method=method.name, seed=int(seed), metrics=metrics, steps=steps)
