"""Accuracy, scorer-bias diagnostics, and newline-delimited metrics records.

One StageMetrics is collected after every stage: the accuracy row over all
stages seen so far, its mean, and a set of diagnostics that make scorer
bias visible (per-group weight norms, weight and bias means, accumulated
parameter movement since the stage began, and the average posterior
assigned to each class over the test samples seen so far).

The diagnostics split the registered classes into "previous" (earlier
stages) and "current" (the stage just trained). When a group is empty its
fields are omitted entirely rather than set to zero.

score_stages scores the test rows with logits.score_block, the kernel the
training losses call, so a run is tested on the scores it trained on, bit
for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from math import isfinite
from typing import Sequence

import numpy as np

from .logits import CosineScale, LogitMode, PredictorParams, _row_starts, _softmax_at, \
    score_block
from .net import forward_batch
from .numeric import NonFiniteError, Workspace
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


@dataclass
class StageScores:
    """What one scoring pass over the test rows of stages 1..t yields."""
    accuracy_row: list[float]  # one accuracy per stage, in stage order
    acc_previous: float | None  # stages 1..t-1 pooled; None when t = 1
    avg_posterior: np.ndarray  # mean softmax over every row, indexed in class_order
    collapsed: bool = False  # every row's features are zero: scores ignore the input


# Rows scored per block. 768 rows of width-64 activations take 384 KiB, so
# a block's forward pass, scores and softmax stay in a core's L2 cache.
# Blocks start at multiples of BLOCK_ROWS and the last one takes the
# tail, so no block is shorter than BLOCK_ROWS unless all the rows are:
# OpenBLAS 0.3.31 takes a small-matrix kernel, which sums in another
# order, for products of at most ~1200 entries, and a block's rows must
# come out bitwise as the rows of one product over all rows
# (tests/test_stage_scoring.py checks that premise). The tail cannot go
# first: a one-column product (one class, or a layer of width 1) is
# computed a few rows at a time, so a block that starts or ends off a
# multiple of that group changes some rows' bits.
BLOCK_ROWS = 768


def row_blocks(n: int) -> list[tuple[int, int]]:
    """The [lo, hi) row ranges score_stages scores n rows in."""
    starts = list(range(0, max(n - BLOCK_ROWS, 0) + 1, BLOCK_ROWS))
    return list(zip(starts, starts[1:] + [n]))


def score_stages(run, test: LabeledData, ends: Sequence[int], mode: LogitMode,
                 scale: CosineScale, rows: np.ndarray | None = None,
                 ws: Workspace | None = None) -> StageScores:
    """Score the test rows of stages 1..t in one pass over row blocks.

    run is a trainer Run: its extractor and class scorer score the rows,
    and its stream's class_order gives each scorer row's label.
    The rows scored are test's rows at the indices rows (all of test's
    rows without it), read block by block, never gathered whole; they are
    in stage order and ends[j] is the offset where stage j+1's rows end,
    so ends[-1] is the number of rows scored. Each block of rows
    (row_blocks) is gathered, then goes through the forward pass, the
    scores, the argmax and a softmax written in place, all into the
    buffers of one Workspace (ws, or one of this call's own), sized for
    the largest block: after the first block nothing of a block's size is
    allocated. The accuracy of each stage's slice of the argmax and the
    accuracy of every row before the last stage follow; the average
    posterior is the running column sum of the softmax rows over the
    blocks, divided by the row count, with no (rows, classes) array.

    Every step is a per-row computation whose rows come out bitwise as
    from the whole matrix at once, and the row max that the softmax
    subtracts is read off at the argmax, which is the max itself. The
    running sum reduces [sum so far; block rows] over its first axis,
    which with two or more classes NumPy sums row by row in order, the
    additions of one mean over all rows; with one class every softmax
    entry is 1.0 (or nan), which any order sums alike. So the results
    equal one pass over all rows, bit for bit. Every stage must hold at
    least one row. When every row's features are zero (the extractor's
    ReLUs all died), the scores say nothing about the input; collapsed
    reports that. A non-finite feature raises NonFiniteError ("features
    contains non-finite entries"): features are ReLU outputs, >= 0 or
    nan or +inf, so the one max taken of each block's features is finite
    exactly when every feature is, and serves both checks.
    """
    rows = np.arange(len(test)) if rows is None else rows
    n = len(rows)
    ends = np.asarray(ends, dtype=np.int64)
    if ends.ndim != 1 or not len(ends) or ends[-1] != n:
        raise ValueError(f"stage ends {ends.tolist()} do not end at the {n} test rows")
    starts = np.concatenate([[0], ends[:-1]])
    if np.any(ends <= starts):
        empty = int(np.argmax(ends <= starts)) + 1
        raise ValueError(f"accuracy over an empty test set (stage {empty})")
    if run.predictor.num_classes == 0:
        raise ValueError("predict with no registered classes")
    if not (0 <= rows.min() and rows.max() < len(test)):
        raise IndexError(f"test rows outside the {len(test)} of the test set")
    blocks = row_blocks(n)
    largest = max(hi - lo for lo, hi in blocks)  # the tail block
    ws = ws or Workspace()
    classes = run.predictor.num_classes
    class_order = np.asarray(run.stream.class_order, dtype=np.int64)
    correct = np.empty(n, dtype=bool)
    total = np.empty(classes)  # the running column sum of the softmax rows
    collapsed = True
    with ws.sized(largest):
        # each block's softmax rows go after the carried sum row
        carried = ws("post", (largest + 1, classes))
        for lo, hi in blocks:
            size = hi - lo
            # mode="clip" takes the rows straight into the buffer ("raise"
            # goes through a temporary); the rows were checked above
            x = np.take(test.x, rows[lo:hi], axis=0, out=ws("x", (size, test.x.shape[1])),
                        mode="clip")
            y = np.take(test.y, rows[lo:hi], out=ws("y", (size,), np.int64), mode="clip")
            H = forward_batch(run.extractor, x, ws)[0]
            # features are ReLU outputs: all finite iff the max is, all zero
            # iff it is 0
            top = np.maximum.reduce(H, axis=None)
            if not isfinite(top):
                raise NonFiniteError("features contains non-finite entries")
            collapsed = collapsed and not top > 0.0
            S = score_block(run.predictor, H, (mode,), scale, ws)[0][0]
            best = np.argmax(S, axis=1, out=ws("best", (size,), np.int64))
            label = np.take(class_order, best, out=ws("label", (size,), np.int64), mode="clip")
            np.equal(label, y, out=correct[lo:hi])
            # the row softmax, into the rows after the carried sum
            carry = carried[:size + 1]
            P = carry[1:]
            _softmax_at(S, np.add(_row_starts((size,), classes), best, out=best), P, ws)
            if lo:
                carry[0] = total
            np.add.reduce(carry if lo else P, axis=0, out=total)
    hits = np.array([np.count_nonzero(correct[a:b]) for a, b in zip(starts, ends)])
    row = hits / (ends - starts)
    prev = int(starts[-1])
    return StageScores(accuracy_row=row.tolist(),
                       acc_previous=float(hits[:-1].sum() / prev) if prev else None,
                       avg_posterior=np.divide(total, n, out=total), collapsed=collapsed)


def accuracy(run, test: LabeledData, mode: LogitMode, scale: CosineScale) -> float:
    """Fraction of test samples whose argmax class matches the label."""
    return score_stages(run, test, [len(test)], mode, scale).accuracy_row[0]


def average_accuracy(row: Sequence[float]) -> float:
    row = list(row)
    if not row:
        raise ValueError("average over an empty accuracy row")
    return float(np.mean(row))


def average_posterior(run, test: LabeledData, mode: LogitMode, scale: CosineScale) -> np.ndarray:
    """Mean softmax vector over the test samples, indexed in class_order."""
    return score_stages(run, test, [len(test)], mode, scale).avg_posterior


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


def stage_metrics_to_dict(m: StageMetrics) -> dict:
    """Field-ordered dict; fields holding None are dropped, not zeroed.
    Every value is already a plain int, float or list, as JSON writes it."""
    values = ((f.name, getattr(m, f.name)) for f in fields(StageMetrics))
    return {name: value for name, value in values if value is not None}


def write_metrics(path, metrics: Sequence[StageMetrics]) -> None:
    """One JSON object per stage per line, keys in declaration order."""
    lines = [json.dumps(stage_metrics_to_dict(m)) for m in metrics]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def read_metrics(path) -> list[dict]:
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    return [json.loads(line) for line in text.splitlines() if line]
