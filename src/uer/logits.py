"""Class scoring and losses on top of extracted features.

A raw (dot) score for class i is w_i . h + b_i. It factors into a magnitude
part (||w_i|| ||h|| + b_i) and an angle part cos(w_i, h); the cosine score
keeps only the angle, rescaled by a fixed gamma: gamma * cos(w_i, h). The
gradient of cos(w, h) with respect to w is

    h_hat = (h / ||h|| - cos(w, h) * w / ||w||) / ||w||

which is orthogonal to w and shrinks as ||w|| grows. The same expression
with the roles of w and h swapped is the gradient with respect to h. Norms
are floored at EPS_NORM so all-zero features or rows stay finite.

Each formula has one implementation, and it works on a (rows, dim) block
of features; one sample is a one-row block. score_block computes the
scores, and both stage scoring and training call it: one product
S = H W^T gives the dot scores S + b and the cosine scores
gamma * (S / (||h|| ||w||)), so a run is tested on the very scores it
trained on. Every training loss is one kernel, loss_rows, which mixes the
two cross-entropies per sample with a per-row weight alpha:

    alpha * ce_dot + (1 - alpha) * ce_cos

The endpoints alpha in {0, 1} reduce bitwise to the pure losses because a
branch no row weights is skipped rather than multiplied by zero. loss_dot,
loss_current and loss_replay are its batch-mean forms. Like the network,
loss_rows accepts a predictor and features stacked on a leading axis, one
slice per run, and computes each slice exactly as the 2-d call would;
each slice may carry its own alpha and weight rows, and the slices share
one gamma. Slices may take different branches, in any order: a branch
that some row weights runs over the whole call, and a row that gives it
no weight gets its terms times an exact 0, which leaves its bits as its
2-d call has them (loss_rows names the one overflow edge). What loss_rows
derives from its scale, alpha and weights depends only on the step shape;
a caller whose steps repeat a shape builds it once as a StepPlan
(step_plan) and passes it to every call of that shape.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .numeric import ShapeError, Workspace, as_vector, filled, require_finite

EPS_NORM = 1e-12

# the reductions behind ndarray.sum/min/max, called without the method
# wrappers: the same arithmetic, less dispatch on the hot path
_sum, _min, _max = np.add.reduce, np.minimum.reduce, np.maximum.reduce


class LogitMode(enum.Enum):
    DOT = "dot"
    COSINE = "cosine"


@dataclass(frozen=True)
class CosineScale:
    """The cosine score's gamma: one positive finite number, which every
    slice of a stacked block shares."""
    gamma: float = 10.0

    def __post_init__(self):
        if not (isinstance(self.gamma, numbers.Real) and 0 < self.gamma < np.inf):
            raise ValueError(f"gamma must be one positive number and finite, got "
                             f"{self.gamma!r}")


@dataclass
class PredictorParams:
    """Append-only class rows: W is (classes, dim), b is (classes,); stacked
    over slices (one per run), W is (slices, classes, dim) and b (slices,
    classes)."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim not in (2, 3) or self.b.ndim != self.W.ndim - 1:
            raise ShapeError(f"predictor wants 2-d W and 1-d b (or both with a slice axis), "
                             f"got {self.W.shape}, {self.b.shape}")
        if self.W.shape[:-1] != self.b.shape:
            raise ShapeError(f"W has {self.W.shape[-2]} rows but b has {self.b.shape[-1]}")

    @classmethod
    def empty(cls, dim: int) -> "PredictorParams":
        return cls(np.zeros((0, dim)), np.zeros(0))

    @property
    def num_classes(self) -> int:
        return self.W.shape[-2]

    @property
    def dim(self) -> int:
        return self.W.shape[-1]

    def add_class(self, row: np.ndarray, bias: float = 0.0) -> int:
        row = as_vector(row)
        if row.shape[0] != self.dim:
            raise ShapeError(f"new row has dim {row.shape[0]}, predictor wants {self.dim}")
        self.W = np.vstack([self.W, row[None, :]])
        self.b = np.append(self.b, float(bias))
        return self.num_classes - 1

    def copy(self) -> "PredictorParams":
        return PredictorParams(self.W.copy(), self.b.copy())


def score_block(pp: PredictorParams, H: np.ndarray, modes: tuple[LogitMode, ...],
                scale: CosineScale | None = None, ws: Workspace | None = None):
    """The scores of a block of rows under each mode of modes (DOT first,
    COSINE last), as one (len(modes), ..., rows, classes) block in ws's
    "l" buffer: dot scores S + b and cosine scores gamma * (S / den), from
    one product S = H W^T, where den = |h| |w| with both norms floored at
    EPS_NORM. H is a (rows, dim) block, or stacked (slices, rows, dim)
    against a stacked predictor.

    Returns the block and, when COSINE is scored, the factors the cosine
    gradient reads, (|h|, |w|, den, S / den), else None. With COSINE, S
    goes into ws's "s" buffer and S / den over it; "den", "hn", ("t", dim)
    and "dw" (W's shape) hold the rest."""
    if H.shape[-1] != pp.dim:
        raise ShapeError(f"feature dim {H.shape[-1]} does not match predictor dim {pp.dim}")
    out = ws or Workspace()
    rows, classes = H.shape[:-1], pp.num_classes
    scores = (*rows, classes)
    # asked for with rows leading, as Workspace.sized expects
    L = out("l", (len(modes) * prod(rows), classes)).reshape(len(modes), *scores)
    cosine = modes[-1] is LogitMode.COSINE
    # S / den, which the cosine gradient reads, is kept apart from the
    # scores; dot scores alone are S + b written over S
    S = np.matmul(H, pp.W.swapaxes(-1, -2), out=out("s", scores) if cosine else L[0])
    if modes[0] is LogitMode.DOT:
        # the bias is added as forward_batch adds a layer's: spread over a
        # block for a stacked block, broadcast for a plain one
        bias = pp.b[..., None, :]
        np.add(S, filled(out("den", scores), bias) if H.ndim > 2 else bias, out=L[0])
    if not cosine:
        return L, None
    if scale is None:
        raise ValueError("cosine scoring needs a CosineScale")
    # row norms as np.linalg.norm computes them, without its dispatch
    HH = np.multiply(H, H, out=out(("t", H.shape[-1]), H.shape))
    hn = _sum(HH, -1, out=out("hn", rows))
    np.sqrt(hn, out=hn)
    np.maximum(hn, EPS_NORM, out=hn)
    WW = np.multiply(pp.W, pp.W, out=out("dw", pp.W.shape))
    wn = np.maximum(np.sqrt(_sum(WW, -1)), EPS_NORM)
    # hn_i * wn_j, the outer product, spread over two full blocks (the
    # cosine scores' own block is the second, until they are written)
    den = filled(out("den", scores), wn[..., None, :])
    np.multiply(filled(L[-1], hn[..., None]), den, out=den)
    C = np.divide(S, den, out=S)
    np.multiply(scale.gamma, C, out=L[-1])
    return L, (hn, wn, den, C)


def _batch_targets(pp: PredictorParams, H: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    H = np.asarray(H, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    if H.ndim != pp.W.ndim or H.shape[-2] == 0 or H.shape[:-2] != pp.W.shape[:-2]:
        raise ValueError(f"expected a non-empty (batch, dim) feature block, got shape {H.shape}")
    if rows.shape != H.shape[:-1]:
        raise ShapeError(f"{H.shape[-2]} samples but {rows.shape} labels")
    # one reduction: a negative row reads as a huge unsigned one
    if rows.size and _max(rows.view(np.uint64), None) >= pp.num_classes:
        raise IndexError("label row outside registered classes")
    return H, rows


@lru_cache(maxsize=64)
def _row_starts(shape: tuple[int, ...], classes: int) -> np.ndarray:
    """The flat offset of each row of a C-ordered (..., batch, classes)
    block, shaped (..., batch): adding a row's target class picks its
    entry with one flat index, which builds no per-axis index arrays."""
    starts = np.arange(0, int(np.prod(shape)) * classes, classes).reshape(shape)
    starts.flags.writeable = False
    return starts


def _softmax_at(L: np.ndarray, at: np.ndarray, P: np.ndarray, ws: Workspace):
    """The row softmax exp(L - rowmax) / rowsum of a C-contiguous block L,
    written into P (L itself will do), where at holds the flat index of
    each row's max (its argmax): the max read there is the one
    np.maximum.reduce takes, nan and signed zeros included. Returns the
    row max and the row sum, in ws's "top" and "rowsum" buffers; ws's
    "spread" buffer, of L's shape, spreads them (see numeric.filled)."""
    top = L.reshape(-1).take(at, out=ws("top", at.shape), mode="clip")
    spread = ws("spread", L.shape)
    np.subtract(L, filled(spread, top[..., None]), out=P)
    np.exp(P, out=P)
    rowsum = _sum(P, -1, out=ws("rowsum", at.shape))
    np.divide(P, filled(spread, rowsum[..., None]), out=P)
    return top, rowsum


def _softmax_ce(L: np.ndarray, starts: np.ndarray, pick: np.ndarray,
                ws: Workspace) -> np.ndarray:
    """Row softmax of L written over L, and the stable cross-entropy
    -log softmax at the entries of L whose flat indices pick holds, sharing
    one exp; starts is _row_starts of L's rows. The returned block is ws's
    "rowsum" buffer."""
    picked = L.reshape(-1)[pick]
    at = L.argmax(-1, out=ws("at", pick.shape, np.int64))
    m, ce = _softmax_at(L, np.add(starts, at, out=at), L, ws)
    np.log(ce, out=ce)
    ce += m  # m + log(s), the same sum
    ce -= picked
    return ce


def _per_row(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A scalar, one value per row, or (stacked) one row of values per slice."""
    v = np.asarray(value, dtype=np.float64)
    if v.ndim and v.shape not in (shape, shape[-1:]):
        raise ShapeError(f"{shape[-1]} samples but {what} has shape {v.shape}")
    return v


@dataclass(frozen=True, eq=False)
class StepPlan:
    """What loss_rows derives from its scale, alpha and weights for one
    step shape (the rows' shape and the class count), checked and computed
    once: which branches run, each row's flat offset into their score
    block, and the per-branch factors of the alpha mix and the gradient,
    stacked on a leading branch axis as the score block is. A caller whose
    steps repeat a shape builds it once (step_plan) and passes it to every
    loss_rows call of that shape.

    The gradient factors are kept as columns, which each call spreads over
    the workspace block it multiplies. Kept spread over whole score blocks
    instead, they saved two copies a step but, held from step to step
    between the workspace's blocks, raised a widereplay run's peak RSS by
    about 1.4 MiB through the heap's layout.
    """
    shape: tuple[int, ...]  # the rows' shape: (batch,) or (slices, batch)
    classes: int
    alpha: np.ndarray  # checked, spread to shape
    weights: np.ndarray | None  # checked, a scalar or per row; None: no gradients
    # the branches that run on every row, DOT if some row has alpha > 0,
    # COSINE if some row has alpha < 1
    modes: tuple[LogitMode, ...]
    scale: CosineScale | None  # read only when COSINE runs
    starts: np.ndarray  # _row_starts((branches, *shape), classes)
    mix: np.ndarray | None  # [alpha; 1 - alpha], (2, *shape), when both branches run
    # read-only columns, (branches, *shape, 1): alpha * w for DOT,
    # gamma * (1 - alpha) * w for COSINE
    grad: np.ndarray | None


def step_plan(scale: CosineScale | None, alpha, weights, shape: tuple[int, ...],
              classes: int) -> StepPlan:
    """The StepPlan of loss_rows calls whose rows have this shape and whose
    predictor has this many classes. Checks alpha, weights (None: a plan
    for calls without a tape) as loss_rows does, with its errors."""
    shape = tuple(shape)
    a = np.broadcast_to(_per_row(alpha, shape, "alpha"), shape)
    lo, hi = _min(a, None), _max(a, None)
    # a nan anywhere makes both bounds nan, which fails the check
    if not (0.0 <= lo and hi <= 1.0):
        raise ValueError(f"alpha out of [0,1]: {alpha}")
    modes = (LogitMode.DOT,) * bool(hi > 0.0) + (LogitMode.COSINE,) * bool(lo < 1.0)
    if modes[-1] is LogitMode.COSINE and scale is None:
        raise ValueError("cosine scoring needs a CosineScale")
    a_cos = 1.0 - a
    w = grad = None
    if weights is not None:
        w = _per_row(weights, shape, "weights")
        grad = np.stack([a * w if mode is LogitMode.DOT else scale.gamma * a_cos * w
                         for mode in modes])[..., None]
        grad.flags.writeable = False
    return StepPlan(shape, classes, a, w, modes, scale,
                    _row_starts((len(modes), *shape), classes),
                    np.stack([a, a_cos]) if len(modes) == 2 else None, grad)


def loss_rows(pp: PredictorParams, scale: CosineScale | None, alpha, H: np.ndarray, rows,
              weights, tape=None, ws: Workspace | None = None, plan: StepPlan | None = None):
    """Per-row mixed cross-entropy alpha_i * ce_dot_i + (1 - alpha_i) * ce_cos_i.

    alpha and weights are scalars or one value per row. Returns the per-row
    cross-entropies and, when a tape is given, writes the gradient of
    sum_i weights_i * ce_i into its class-row and bias blocks (over what
    they held; a cosine-only call writes +0 biases) and returns the
    matching d/dH block (otherwise dH is None). The scores of both
    branches come from one score_block call. A branch runs, over every
    row, only if some row weights it (some alpha > 0 for dot, some
    alpha < 1 for cosine), so all-one or all-zero alpha give the pure
    losses exactly. The branches that run go through the softmax, the
    target pick, the gradient scaling and the alpha mix together, as one
    block with a leading branch axis.

    With a predictor stacked over slices (one per run), H is (slices,
    batch, dim) and rows (slices, batch); alpha and weights are shared by
    every slice or given as (slices, batch), every slice shares the one
    scale.gamma, and the per-row results come back as (slices, batch). The
    slices may take different branches, in any order: a branch that some
    slice uses runs over them all, and a slice that gives it no weight
    gets its terms times an exact 0, which leaves every bit of that
    slice's 2-d result as it was. The one exception: a slice whose alpha
    is 0 on every row, stacked with slices that use the dot branch, meets
    0 * ce_dot; if its largest dot score lies within a factor 2 of the
    largest double while its cosine scores stay finite, its cross-entropy
    is nan (a NonFiniteError) where its 2-d call would go on. Features
    must grow far past any diverging run seen so far for that.

    plan is step_plan(scale, alpha, weights, rows' shape, class count),
    built once by a caller whose steps repeat a shape; scale, alpha and
    weights are then read from it, not checked again. Without one, each
    call builds its own.

    Every score block and every block of H's shape (H * H, dH and its
    cosine correction) is written into the buffers of ws (of a Workspace
    of the call's own without one), so the cross-entropies and the dH
    returned are overwritten by the next call with the same workspace.
    """
    H, rows = _batch_targets(pp, H, rows)
    if plan is None:
        plan = step_plan(scale, alpha, None if tape is None else weights, rows.shape,
                         pp.num_classes)
    elif plan.shape != rows.shape or plan.classes != pp.num_classes:
        raise ShapeError(f"a plan for rows {plan.shape} and {plan.classes} classes, "
                         f"called with rows {rows.shape} and {pp.num_classes} classes")
    out = ws or Workspace()
    P, cos = score_block(pp, H, plan.modes, plan.scale, out)
    # each row's target entry, per branch, as a flat index into P
    pick = np.add(plan.starts, rows, out=out("pick", plan.starts.shape, np.int64))
    ce = _softmax_ce(P, plan.starts, pick, out)  # P now holds the softmax
    if plan.mix is not None:  # alpha * ce_dot + (1 - alpha) * ce_cos, in place
        ce *= plan.mix
        np.add(ce[0], ce[1], out=ce[0])
    ce = ce[0]
    require_finite(ce, "cross-entropy", stacked=ce.ndim > 1)
    if tape is None:
        return ce, None
    if plan.weights is None:
        raise ValueError("a plan built without weights gives no gradients")
    P.reshape(-1)[pick] -= 1.0
    P *= filled(out("spread", P.shape), plan.grad)
    if plan.modes[0] is LogitMode.DOT:
        G = P[0]  # becomes the score gradient
        _sum(G, -2, out=tape.pred_b, initial=0.0)
    else:
        tape.pred_b.fill(0.0)  # cosine scores carry no bias term
    if cos:
        # the closed form at module top, per row, with Q = Pc / (|h| |w|)
        # and R = Pc * cos:
        #   dW = Q^T H - colsum(R) / |w|^2 * W,  dH = Q W - rowsum(R) / |h|^2 * H
        # Q joins the dot part, so each product runs once
        hn, wn, den, C = cos
        R = np.multiply(P[-1], C, out=C)  # neither C nor den is read again
        Q = np.divide(P[-1], den, out=den)
        G = np.add(G, Q, out=G) if len(plan.modes) == 2 else Q
    np.matmul(G.swapaxes(-1, -2), H, out=tape.pred_w)
    dH = np.matmul(G, pp.W, out=out(("g", H.shape[-1]), H.shape))
    if cos:
        dw = out("dw", pp.W.shape)  # scratch: W * W in score_block, the correction here
        tape.pred_w -= np.multiply(filled(dw, (_sum(R, -2) / (wn * wn))[..., None]), pp.W, out=dw)
        corr = filled(out(("t", H.shape[-1]), H.shape), (_sum(R, -1) / (hn * hn))[..., None])
        dH -= np.multiply(corr, H, out=corr)
    return ce, dH


def loss_dot(pp: PredictorParams, H: np.ndarray, rows, tape=None,
             grad_weight: float = 1.0):
    """Mean dot-score cross-entropy over a batch; with a tape, writes the
    gradient of grad_weight * mean into it and returns d/dH (else dH is
    None)."""
    # max(.., 1): loss_rows itself rejects an empty batch
    ce, dH = loss_rows(pp, None, 1.0, H, rows, grad_weight / max(len(H), 1), tape)
    return float(ce.mean()), dH


def loss_current(pp: PredictorParams, scale: CosineScale, H: np.ndarray, rows,
                 tape=None, grad_weight: float = 1.0):
    """Mean cosine-score cross-entropy over a batch (the new-sample loss)."""
    ce, dH = loss_rows(pp, scale, 0.0, H, rows, grad_weight / max(len(H), 1), tape)
    return float(ce.mean()), dH


def loss_replay(pp: PredictorParams, scale: CosineScale, alpha: float,
                H: np.ndarray, rows, tape=None):
    """Replayed-sample loss: alpha * ce_dot + (1 - alpha) * ce_cos, batch mean."""
    ce, dH = loss_rows(pp, scale, alpha, H, rows, 1.0 / max(len(H), 1), tape)
    return float(ce.mean()), dH
