"""Test-only reference: the per-stage evaluation the one-pass scoring replaced.

This is the earlier implementation kept verbatim in behaviour, so
``uer.trainer._collect_stage_metrics`` and ``uer.evaluation.score_stages``
can be checked against it: one forward pass per stage for the accuracy
row, one over the pooled earlier stages for ``acc_previous`` and one over
every stage seen so far for the average posterior (t + 2 passes after
stage t). Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from uer.evaluation import StageMetrics, average_accuracy, bias_diagnostics
from uer.logits import LogitMode, cosine_logits_batch, dot_logits_batch, predict_batch, \
    softmax_rows
from uer.net import forward_batch
from uer.stream import LabeledData


def _scores(state, test, mode, scale):
    H, _ = forward_batch(state.extractor, test.x)
    if mode is LogitMode.DOT:
        return dot_logits_batch(state.predictor, H)
    return cosine_logits_batch(state.predictor, H, scale)


def accuracy(state, test, mode, scale) -> float:
    if len(test) == 0:
        raise ValueError("accuracy over an empty test set")
    H, _ = forward_batch(state.extractor, test.x)
    rows = predict_batch(state.predictor, H, mode, scale)
    labels = np.asarray(state.class_order, dtype=np.int64)[rows]
    return float(np.mean(labels == test.y))


def average_posterior(state, test, mode, scale) -> np.ndarray:
    P = softmax_rows(_scores(state, test, mode, scale))
    return P.mean(axis=0)


def _pooled(parts):
    return LabeledData(np.concatenate([p.x for p in parts]),
                       np.concatenate([p.y for p in parts]))


def collect_stage_metrics(state, stages, t, method) -> StageMetrics:
    scale = method.scale()
    mode = method.triple.test
    row = [accuracy(state, stages[j].test, mode, scale) for j in range(t)]
    prev_sets = [stages[j].test for j in range(t - 1)]
    acc_prev = accuracy(state, _pooled(prev_sets), mode, scale) if prev_sets else None
    label_to_row = state.label_to_row
    prev_rows = [label_to_row[c] for j in range(t - 1) for c in stages[j].class_set
                 if c in label_to_row]
    curr_rows = [label_to_row[c] for c in stages[t - 1].class_set if c in label_to_row]
    diag = bias_diagnostics(state.predictor, prev_rows, curr_rows, state.stage_baseline)
    posterior = average_posterior(state, _pooled([stages[j].test for j in range(t)]),
                                  mode, scale)
    return StageMetrics(
        stage=t,
        class_order=list(state.class_order),
        current_classes=[int(c) for c in stages[t - 1].class_set],
        accuracy_row=row,
        average_accuracy=average_accuracy(row),
        acc_previous=acc_prev,
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
        avg_posterior=[float(v) for v in posterior],
        consumed_samples=state.consumed_in_stage,
    )
