"""Class scoring and losses on top of extracted features.

A raw (dot) score for class i is w_i . h + b_i. It factors into a magnitude
part (||w_i|| ||h|| + b_i) and an angle part cos(w_i, h); the cosine score
keeps only the angle, rescaled by a fixed gamma: gamma * cos(w_i, h). The
gradient of cos(w, h) with respect to w is

    h_hat = (h / ||h|| - cos(w, h) * w / ||w||) / ||w||

which is orthogonal to w and shrinks as ||w|| grows. The same expression
with the roles of w and h swapped is the gradient with respect to h. Norms
are floored at EPS_NORM so all-zero features or rows stay finite.

Every training loss is one kernel, loss_rows, which mixes the two
cross-entropies per sample with a per-row weight alpha:

    alpha * ce_dot + (1 - alpha) * ce_cos

Both scores come from one product S = H W^T. The endpoints alpha in {0, 1}
reduce bitwise to the pure losses because a branch no row weights is
skipped rather than multiplied by zero. loss_dot, loss_current and
loss_replay are its batch-mean forms. Like the network, loss_rows accepts
a predictor and features stacked on a leading axis, one slice per run, and
computes each slice exactly as the 2-d call would; each slice may carry its
own alpha and weight rows and its own gamma, as long as every slice takes
the same branches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numeric import ShapeError, as_vector, require_finite

EPS_NORM = 1e-12

# the reductions behind ndarray.sum/min/max, called without the method
# wrappers: the same arithmetic, less dispatch on the hot path
_sum, _min, _max = np.add.reduce, np.minimum.reduce, np.maximum.reduce


class LogitMode(enum.Enum):
    DOT = "dot"
    COSINE = "cosine"


@dataclass(frozen=True)
class CosineScale:
    gamma: float | np.ndarray = 10.0  # or one gamma per slice of a stacked block

    def __post_init__(self):
        if not np.all(np.asarray(self.gamma) > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")


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


def _check_features(pp: PredictorParams, h: np.ndarray) -> np.ndarray:
    h = as_vector(h)
    if h.shape[0] != pp.dim:
        raise ShapeError(f"feature dim {h.shape[0]} does not match predictor dim {pp.dim}")
    return h


def dot_logits(pp: PredictorParams, h: np.ndarray) -> np.ndarray:
    h = _check_features(pp, h)
    return pp.W @ h + pp.b


def cosine_logits(pp: PredictorParams, h: np.ndarray, scale: CosineScale) -> np.ndarray:
    h = _check_features(pp, h)
    hn = max(float(np.linalg.norm(h)), EPS_NORM)
    wn = np.maximum(np.linalg.norm(pp.W, axis=1), EPS_NORM)
    return scale.gamma * (pp.W @ h) / (wn * hn)


def dot_logits_batch(pp: PredictorParams, H: np.ndarray) -> np.ndarray:
    return H @ pp.W.T + pp.b


def cosine_logits_batch(pp: PredictorParams, H: np.ndarray, scale: CosineScale) -> np.ndarray:
    hn = np.maximum(np.linalg.norm(H, axis=1), EPS_NORM)
    wn = np.maximum(np.linalg.norm(pp.W, axis=1), EPS_NORM)
    return scale.gamma * (H @ pp.W.T) / (hn[:, None] * wn[None, :])


def softmax(logits: np.ndarray) -> np.ndarray:
    v = as_vector(logits)
    if v.shape[0] == 0:
        raise ValueError("softmax of an empty logit vector")
    e = np.exp(v - v.max())
    return e / e.sum()


def softmax_rows(L: np.ndarray) -> np.ndarray:
    e = np.exp(L - L.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(p: np.ndarray, y: int) -> float:
    p = as_vector(p)
    if not 0 <= y < p.shape[0]:
        raise IndexError(f"label {y} outside {p.shape[0]} classes")
    return float(-np.log(p[y]))


def predictor_grad_dot(pp: PredictorParams, p: np.ndarray, h: np.ndarray, y: int,
                       tape, weight: float = 1.0) -> np.ndarray:
    """Accumulate d(ce_dot)/dW and d/db for one sample; return d(ce_dot)/dh."""
    h = _check_features(pp, h)
    g = np.asarray(p, dtype=np.float64).copy()
    g[y] -= 1.0
    g *= weight
    tape.pred_w += np.outer(g, h)
    tape.pred_b += g
    return g @ pp.W


def predictor_grad_cos(pp: PredictorParams, p: np.ndarray, h: np.ndarray,
                       scale: CosineScale, y: int, tape, weight: float = 1.0) -> np.ndarray:
    """Accumulate d(ce_cos)/dW for one sample; return d(ce_cos)/dh.

    Row j receives gamma * (p_j - [j == y]) * h_hat_j with h_hat_j the
    norm-scaled orthogonal direction documented at module top. The bias is
    untouched: cosine scores have no bias term.
    """
    h = _check_features(pp, h)
    hn = max(float(np.linalg.norm(h)), EPS_NORM)
    u = h / hn
    wn = np.maximum(np.linalg.norm(pp.W, axis=1), EPS_NORM)
    V = pp.W / wn[:, None]
    c = V @ u
    g = np.asarray(p, dtype=np.float64).copy()
    g[y] -= 1.0
    g *= scale.gamma * weight
    tape.pred_w += (g / wn)[:, None] * (u[None, :] - c[:, None] * V)
    return (V.T @ g - float(g @ c) * u) / hn


def _batch_targets(pp: PredictorParams, H: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    H = np.asarray(H, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    if H.ndim != pp.W.ndim or H.shape[-2] == 0 or H.shape[:-2] != pp.W.shape[:-2]:
        raise ValueError(f"expected a non-empty (batch, dim) feature block, got shape {H.shape}")
    if rows.shape != H.shape[:-1]:
        raise ShapeError(f"{H.shape[-2]} samples but {rows.shape} labels")
    if H.shape[-1] != pp.dim:
        raise ShapeError(f"feature dim {H.shape[-1]} does not match predictor dim {pp.dim}")
    # one reduction: a negative row reads as a huge unsigned one
    if rows.size and _max(rows.view(np.uint64), None) >= pp.num_classes:
        raise IndexError("label row outside registered classes")
    return H, rows


@lru_cache(maxsize=64)
def _grid(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Broadcasting index arrays over every axis of a (..., batch) block."""
    grid = np.indices(shape, sparse=True)
    for g in grid:
        g.flags.writeable = False
    return tuple(grid)


def _softmax_ce(L: np.ndarray, pick) -> tuple[np.ndarray, np.ndarray]:
    """Row softmax of L (the arithmetic of softmax_rows) and the stable
    cross-entropy -log softmax at the picked entries, sharing one exp."""
    m = _max(L, -1, keepdims=True)
    E = np.exp(L - m)
    s = _sum(E, -1, keepdims=True)
    ce = (m[..., 0] + np.log(s[..., 0])) - L[pick]
    return E / s, ce


def _per_row(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A scalar, one value per row, or (stacked) one row of values per slice."""
    v = np.asarray(value, dtype=np.float64)
    if v.ndim and v.shape not in (shape, shape[-1:]):
        raise ShapeError(f"{shape[-1]} samples but {what} has shape {v.shape}")
    return v


def _col(v: np.ndarray) -> np.ndarray:
    return v[..., None] if v.ndim else v


def _branches(a: np.ndarray, alpha) -> tuple[bool, bool]:
    """(use_dot, use_cos): some alpha > 0, some alpha < 1. Every slice of a
    stacked alpha must agree, so that each slice runs the branches its own
    2-d call would run (a pure-dot slice never meets 0 * cosine)."""
    if a.ndim == 2:
        lo, hi = _min(a, -1).tolist(), _max(a, -1).tolist()
    else:
        lo, hi = [_min(a, None)], [_max(a, None)]
    # per-slice bounds, so a nan in any slice fails the check
    if not (all(0.0 <= v for v in lo) and all(v <= 1.0 for v in hi)):
        raise ValueError(f"alpha out of [0,1]: {alpha}")
    use_dot, use_cos = hi[0] > 0.0, lo[0] < 1.0
    if any((v > 0.0) != use_dot for v in hi) or any((v < 1.0) != use_cos for v in lo):
        raise ValueError("the slices of a stacked alpha take different branches "
                         "(some alpha > 0 for dot, some alpha < 1 for cosine)")
    return use_dot, use_cos


def loss_rows(pp: PredictorParams, scale: CosineScale | None, alpha, H: np.ndarray, rows,
              weights, tape=None):
    """Per-row mixed cross-entropy alpha_i * ce_dot_i + (1 - alpha_i) * ce_cos_i.

    alpha and weights are scalars or one value per row. Returns the per-row
    cross-entropies and, when a tape is given, adds the gradient of
    sum_i weights_i * ce_i to it and returns the matching d/dH block
    (otherwise dH is None). Both scores come from one product S = H W^T:
    dot logits are S + b, cosine logits gamma * S / (||h|| ||w||). A branch
    runs only if some row weights it (some alpha > 0 for dot, some
    alpha < 1 for cosine), so all-one or all-zero alpha give the pure
    losses exactly.

    With a predictor stacked over slices (one per run), H is (slices,
    batch, dim) and rows (slices, batch); alpha and weights are shared by
    every slice or given as (slices, batch), scale.gamma is one value or
    (slices,), and the per-row results come back as (slices, batch). The
    slices must agree on which branches run (ValueError otherwise); each
    slice is then computed exactly as its 2-d call would compute it.
    """
    H, rows = _batch_targets(pp, H, rows)
    a = _per_row(alpha, rows.shape, "alpha")
    use_dot, use_cos = _branches(a, alpha)
    pick = (*_grid(rows.shape), rows)
    S = H @ pp.W.swapaxes(-1, -2)
    if use_dot:
        Pd, ce = _softmax_ce(S + pp.b[..., None, :], pick)
    if use_cos:
        if scale is None:
            raise ValueError("cosine scoring needs a CosineScale")
        gamma = g_rows = scale.gamma
        if np.ndim(gamma):
            gamma = np.asarray(gamma, dtype=np.float64)
            if H.ndim != 3 or gamma.shape != H.shape[:1]:
                raise ShapeError(f"{len(H)} slices but gamma has shape {gamma.shape}")
            g_rows, gamma = gamma[:, None], gamma[:, None, None]
        # row norms as np.linalg.norm computes them, without its dispatch
        hn = np.maximum(np.sqrt(_sum(H * H, -1)), EPS_NORM)
        wn = np.maximum(np.sqrt(_sum(pp.W * pp.W, -1)), EPS_NORM)
        den = hn[..., :, None] * wn[..., None, :]
        C = S / den
        Pc, ce_cos = _softmax_ce(gamma * C, pick)
        a_cos = 1.0 - a
        ce = a * ce + a_cos * ce_cos if use_dot else ce_cos
    require_finite(ce, "cross-entropy", stacked=ce.ndim > 1)
    if tape is None:
        return ce, None
    w = _per_row(weights, rows.shape, "weights")
    if use_dot:
        Pd[pick] -= 1.0
        Pd *= _col(a * w)
        tape.pred_b += _sum(Pd, -2)
        G = Pd
    if use_cos:
        # the closed form at module top, per row, with Q = Pc / (|h| |w|)
        # and R = Pc * cos:
        #   dW = Q^T H - colsum(R) / |w|^2 * W,  dH = Q W - rowsum(R) / |h|^2 * H
        # Q joins the dot part, so each product runs once
        Pc[pick] -= 1.0
        Pc *= _col(g_rows * a_cos * w)
        R = Pc * C
        Q = Pc / den
        G = Pd + Q if use_dot else Q
    tape.pred_w += G.swapaxes(-1, -2) @ H
    dH = G @ pp.W
    if use_cos:
        tape.pred_w -= (_sum(R, -2) / (wn * wn))[..., None] * pp.W
        dH -= (_sum(R, -1) / (hn * hn))[..., None] * H
    return ce, dH


def loss_dot(pp: PredictorParams, H: np.ndarray, rows, tape=None,
             grad_weight: float = 1.0):
    """Mean dot-score cross-entropy over a batch; with a tape, adds the
    gradient of grad_weight * mean and returns d/dH (else dH is None)."""
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


def predict(pp: PredictorParams, h: np.ndarray) -> int:
    """Highest dot score wins; ties go to the lowest class index."""
    if pp.num_classes == 0:
        raise ValueError("predict with no registered classes")
    return int(np.argmax(dot_logits(pp, h)))


def predict_batch(pp: PredictorParams, H: np.ndarray, mode: LogitMode,
                  scale: CosineScale | None = None) -> np.ndarray:
    if pp.num_classes == 0:
        raise ValueError("predict with no registered classes")
    if mode is LogitMode.DOT:
        L = dot_logits_batch(pp, H)
    else:
        if scale is None:
            raise ValueError("cosine prediction needs a CosineScale")
        L = cosine_logits_batch(pp, H, scale)
    return np.argmax(L, axis=1)
