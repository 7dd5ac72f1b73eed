"""Accuracy, scorer-bias diagnostics, and newline-delimited metrics records.

One StageMetrics is collected after every stage: the accuracy row over all
stages seen so far, its mean, and a set of diagnostics that make scorer
bias visible (per-group weight norms, weight and bias means, accumulated
parameter movement since the stage began, and the average posterior
assigned to each class over the test samples seen so far).

The diagnostics split the registered classes into "previous" (earlier
stages) and "current" (the stage just trained). When a group is empty its
fields are omitted entirely rather than set to zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .logits import CosineScale, LogitMode, PredictorParams, cosine_logits_batch, \
    dot_logits_batch, softmax_rows
from .net import forward_batch
from .stream import LabeledData


@dataclass
class DiagnosticsRecord:
    norm_prev: float | None
    norm_curr: float | None
    mean_w_prev: float | None
    std_w_prev: float | None
    mean_w_curr: float | None
    std_w_curr: float | None
    mean_b_prev: float | None
    mean_b_curr: float | None
    accumulated_param_change: float


@dataclass
class StageMetrics:
    stage: int
    class_order: list[int]
    current_classes: list[int]
    accuracy_row: list[float]
    average_accuracy: float
    acc_previous: float | None
    acc_current: float
    norm_prev: float | None
    norm_curr: float | None
    mean_w_prev: float | None
    std_w_prev: float | None
    mean_w_curr: float | None
    std_w_curr: float | None
    mean_b_prev: float | None
    mean_b_curr: float | None
    accumulated_param_change: float
    avg_posterior: list[float]
    consumed_samples: int


def _scores(predictor: PredictorParams, H: np.ndarray, mode: LogitMode,
            scale: CosineScale) -> np.ndarray:
    if mode is LogitMode.DOT:
        return dot_logits_batch(predictor, H)
    return cosine_logits_batch(predictor, H, scale)


@dataclass
class StageScores:
    """What one scoring pass over the test rows of stages 1..t yields."""
    accuracy_row: list[float]  # one accuracy per stage, in stage order
    acc_previous: float | None  # stages 1..t-1 pooled; None when t = 1
    avg_posterior: np.ndarray  # mean softmax over every row, indexed in class_order
    collapsed: bool = False  # every row's features are zero: scores ignore the input


def score_stages(state, test: LabeledData, ends: Sequence[int], mode: LogitMode,
                 scale: CosineScale) -> StageScores:
    """Score the test rows of stages 1..t with one forward pass.

    test holds the stages' rows in stage order and ends[j] is the offset
    where stage j+1's rows end, so ends[-1] == len(test). One score matrix
    S gives the accuracy of each stage's slice of argmax(S), the accuracy
    of every row before the last stage, and softmax_rows(S).mean(axis=0).
    Every stage must hold at least one row. When every row's features are
    zero (the extractor's ReLUs all died), the scores say nothing about the
    input; collapsed reports that.
    """
    ends = np.asarray(ends, dtype=np.int64)
    if ends.ndim != 1 or not len(ends) or ends[-1] != len(test):
        raise ValueError(f"stage ends {ends.tolist()} do not end at the "
                         f"{len(test)} test rows")
    starts = np.concatenate([[0], ends[:-1]])
    if np.any(ends <= starts):
        empty = int(np.argmax(ends <= starts)) + 1
        raise ValueError(f"accuracy over an empty test set (stage {empty})")
    if state.predictor.num_classes == 0:
        raise ValueError("predict with no registered classes")
    H = forward_batch(state.extractor, test.x)[0]  # the forward cache goes at once
    collapsed = not H.any()
    S = _scores(state.predictor, H, mode, scale)
    del H  # before the softmax, which keeps a stage evaluation's peak memory down
    labels = np.asarray(state.class_order, dtype=np.int64)[np.argmax(S, axis=1)]
    # hits[i] counts the correct rows among the first i
    hits = np.concatenate([[0], np.cumsum(labels == test.y)])
    row = (hits[ends] - hits[starts]) / (ends - starts)
    prev = int(starts[-1])
    return StageScores(accuracy_row=row.tolist(),
                       acc_previous=float(hits[prev] / prev) if prev else None,
                       avg_posterior=softmax_rows(S).mean(axis=0), collapsed=collapsed)


def accuracy(state, test: LabeledData, mode: LogitMode, scale: CosineScale) -> float:
    """Fraction of test samples whose argmax class matches the label."""
    return score_stages(state, test, [len(test)], mode, scale).accuracy_row[0]


def average_accuracy(row: Sequence[float]) -> float:
    row = list(row)
    if not row:
        raise ValueError("average over an empty accuracy row")
    return float(np.mean(row))


def average_posterior(state, test: LabeledData, mode: LogitMode, scale: CosineScale) -> np.ndarray:
    """Mean softmax vector over the test samples, indexed in class_order."""
    return score_stages(state, test, [len(test)], mode, scale).avg_posterior


def bias_diagnostics(predictor: PredictorParams, prev_rows: Sequence[int],
                     curr_rows: Sequence[int],
                     baseline: PredictorParams) -> DiagnosticsRecord:
    """Group statistics of the class rows plus total L1 movement since baseline.

    prev_rows and curr_rows must be disjoint and cover all registered rows;
    baseline must have the same shape as the predictor (rows registered
    after the snapshot are expected to be patched in at their initial
    values by the caller).
    """
    prev_rows = [int(r) for r in prev_rows]
    curr_rows = [int(r) for r in curr_rows]
    if set(prev_rows) & set(curr_rows):
        raise ValueError("previous and current class groups overlap")
    if set(prev_rows) | set(curr_rows) != set(range(predictor.num_classes)):
        raise ValueError("class groups must cover every registered row")
    if baseline.W.shape != predictor.W.shape:
        raise ValueError(f"baseline shape {baseline.W.shape} does not match "
                         f"predictor shape {predictor.W.shape}")

    def group(rows):
        if not rows:
            return (None,) * 4
        W = predictor.W[rows]
        norms = np.linalg.norm(W, axis=1)
        return (float(norms.mean()), float(W.mean()), float(W.std()),
                float(predictor.b[rows].mean()))

    norm_prev, mean_w_prev, std_w_prev, mean_b_prev = group(prev_rows)
    norm_curr, mean_w_curr, std_w_curr, mean_b_curr = group(curr_rows)
    change = float(np.abs(predictor.W - baseline.W).sum()
                   + np.abs(predictor.b - baseline.b).sum())
    return DiagnosticsRecord(
        norm_prev=norm_prev, norm_curr=norm_curr,
        mean_w_prev=mean_w_prev, std_w_prev=std_w_prev,
        mean_w_curr=mean_w_curr, std_w_curr=std_w_curr,
        mean_b_prev=mean_b_prev, mean_b_curr=mean_b_curr,
        accumulated_param_change=change,
    )


def posterior_group_means(metrics: StageMetrics) -> tuple[float | None, float]:
    """Per-class mean posterior within the previous and current groups."""
    post = dict(zip(metrics.class_order, metrics.avg_posterior))
    curr = [post[c] for c in metrics.current_classes]
    prev = [post[c] for c in metrics.class_order if c not in set(metrics.current_classes)]
    prev_mean = float(np.mean(prev)) if prev else None
    return prev_mean, float(np.mean(curr))


def _jsonable(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    return value


def stage_metrics_to_dict(m: StageMetrics) -> dict:
    """Field-ordered dict; fields holding None are dropped, not zeroed."""
    out = {}
    for f in fields(StageMetrics):
        value = getattr(m, f.name)
        if value is None:
            continue
        out[f.name] = _jsonable(value)
    return out


def write_metrics(path, metrics: Sequence[StageMetrics]) -> None:
    """One JSON object per stage per line, keys in declaration order."""
    lines = [json.dumps(stage_metrics_to_dict(m)) for m in metrics]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def read_metrics(path) -> list[dict]:
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    return [json.loads(line) for line in text.splitlines() if line]
