"""Test-only references: the stage evaluations that score_stages replaced.

collect_stage_metrics is the per-stage evaluation kept verbatim in
behaviour, so ``uer.trainer._collect_stage_metrics`` and
``uer.evaluation.score_stages`` can be checked against it: one forward
pass per stage for the accuracy row, one over the pooled earlier stages
for ``acc_previous`` and one over every stage seen so far for the average
posterior (t + 2 passes after stage t). score_stages is the one-pass
scoring that came next: one forward pass and one softmax over every row at
once, with full-size temporaries; the row-blocked pass must match it bit
for bit. forward_batch is the forward pass that checked its own features,
which both oracles here and in legacy_step call. scores is one mode's
score block from the live kernel, ``uer.logits.score_block``, which the
oracles here and in legacy_step score with; cosine_logits_batch is the
cosine block stage scoring took before it shared that kernel, which
rounded in another order. Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from uer.evaluation import StageMetrics, StageScores, average_accuracy, bias_diagnostics
from uer.logits import EPS_NORM, CosineScale, LogitMode, PredictorParams, score_block
from uer import net
from uer.numeric import Workspace, filled, require_finite
from uer.stream import LabeledData


def forward_batch(fe, X, ws=None):
    """net.forward_batch as it was when it checked the features itself:
    the forward pass, then require_finite on the features, which names the
    non-finite slices of a stacked block."""
    H, acts = net.forward_batch(fe, X, ws)
    require_finite(H, "features", stacked=bool(fe.layers[0].weight.shape[:-2]))
    return H, acts


def scores(pp: PredictorParams, H: np.ndarray, mode: LogitMode,
           scale: CosineScale | None = None) -> np.ndarray:
    """The (rows, classes) block of one mode's scores, from the live kernel."""
    return score_block(pp, H, (mode,), scale)[0][0]


def cosine_logits_batch(pp: PredictorParams, H: np.ndarray, scale: CosineScale,
                        ws: Workspace | None = None) -> np.ndarray:
    """Stage scoring's cosine block as it was before it shared training's
    kernel, verbatim: (gamma * S) / (|h| |w|), where training's order is
    gamma * (S / (|h| |w|)), a few ulp away."""
    if scale is None:
        raise ValueError("cosine scoring needs a CosineScale")
    out = ws or Workspace()
    scores = (len(H), pp.num_classes)
    hn = np.add.reduce(np.multiply(H, H, out=out(("t", H.shape[-1]), H.shape)), -1,
                       out=out("hn", scores[:1]))
    np.maximum(np.sqrt(hn, out=hn), EPS_NORM, out=hn)
    wn = np.maximum(np.linalg.norm(pp.W, axis=1), EPS_NORM)
    den = filled(out("den", scores), wn)
    np.multiply(filled(out("spread", scores), hn[:, None]), den, out=den)
    S = np.matmul(H, pp.W.T, out=out("s", scores))
    np.multiply(scale.gamma, S, out=S)
    return np.divide(S, den, out=S)


def softmax_rows(L: np.ndarray) -> np.ndarray:
    e = np.exp(L - L.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def predict_batch(pp: PredictorParams, H: np.ndarray, mode: LogitMode,
                  scale: CosineScale | None = None) -> np.ndarray:
    if pp.num_classes == 0:
        raise ValueError("predict with no registered classes")
    if mode is LogitMode.COSINE and scale is None:
        raise ValueError("cosine prediction needs a CosineScale")
    return np.argmax(scores(pp, H, mode, scale), axis=1)


def _scores(state, test, mode, scale):
    H, _ = forward_batch(state.extractor, test.x)
    return scores(state.predictor, H, mode, scale)


def accuracy(state, test, mode, scale) -> float:
    if len(test) == 0:
        raise ValueError("accuracy over an empty test set")
    H, _ = forward_batch(state.extractor, test.x)
    rows = predict_batch(state.predictor, H, mode, scale)
    labels = np.asarray(state.stream.class_order, dtype=np.int64)[rows]
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
    label_to_row = {label: i for i, label in enumerate(state.stream.class_order)}
    prev_rows = [label_to_row[c] for j in range(t - 1) for c in stages[j].class_set
                 if c in label_to_row]
    curr_rows = [label_to_row[c] for c in stages[t - 1].class_set if c in label_to_row]
    diag = bias_diagnostics(state.predictor, prev_rows, curr_rows, state.stage_baseline)
    posterior = average_posterior(state, _pooled([stages[j].test for j in range(t)]),
                                  mode, scale)
    return StageMetrics(
        stage=t,
        class_order=list(state.stream.class_order),
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
        consumed_samples=state.stream.consumed_in_stage,
    )


def score_stages(state, test, ends, mode, scale) -> StageScores:
    """One forward pass over every row of stages 1..t, then one score
    matrix S: each stage's slice of argmax(S) gives its accuracy, and
    softmax_rows(S).mean(axis=0) the average posterior."""
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
    H = forward_batch(state.extractor, test.x)[0]
    collapsed = not H.any()
    S = scores(state.predictor, H, mode, scale)
    labels = np.asarray(state.stream.class_order, dtype=np.int64)[np.argmax(S, axis=1)]
    hits = np.concatenate([[0], np.cumsum(labels == test.y)])
    row = (hits[ends] - hits[starts]) / (ends - starts)
    prev = int(starts[-1])
    return StageScores(accuracy_row=row.tolist(),
                       acc_previous=float(hits[prev] / prev) if prev else None,
                       avg_posterior=softmax_rows(S).mean(axis=0), collapsed=collapsed)
