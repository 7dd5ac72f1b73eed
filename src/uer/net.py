"""Small dense feature extractor with hand-rolled reverse-mode gradients.

ReLU follows every layer, the last one included, so the feature vector
handed to the scoring layer is elementwise non-negative. Updates are plain
SGD; gradients accumulate in a GradientTape that mirrors the extractor
layers and the class scorer, and the tape is zeroed after each step.

Parameters may carry a leading axis: a weight (slices, out, in) and a
bias (slices, out) hold one network per slice (per run). forward_batch,
backward_batch and sgd_step then take (slices, batch, dim) blocks and run
every slice with the same calls; each slice is computed exactly as its
2-d call would compute it, because a stacked product or a reduction over
the last two axes is the 2-d one per slice. sgd_step takes one learning
rate per slice.

forward_batch and backward_batch write every rows x width result into
the buffers of a Workspace: the activations (ReLU is applied in place),
the backward masks, Dz, the gradient passed down and the weight-gradient
products. Given one, the features forward_batch returns live in it and
the next call overwrites them; without one, a call uses a Workspace of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .logits import PredictorParams
from .numeric import Rng, ShapeError, Workspace, filled


@dataclass
class LayerParams:
    weight: np.ndarray  # (out, in), or (slices, out, in)
    bias: np.ndarray  # (out,), or (slices, out)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim not in (2, 3) or self.bias.ndim != self.weight.ndim - 1:
            raise ShapeError(
                f"layer wants 2-d weight and 1-d bias (or both with a slice axis), got "
                f"{self.weight.shape}, {self.bias.shape}")
        if self.weight.shape[:-1] != self.bias.shape:
            raise ShapeError(
                f"weight has {self.weight.shape[-2]} output rows but bias has "
                f"{self.bias.shape[-1]}")


@dataclass
class FeatureExtractor:
    layers: list[LayerParams]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("extractor needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if b.weight.shape[-1] != a.weight.shape[-2]:
                raise ShapeError(
                    f"layer output {a.weight.shape[-2]} feeds layer input {b.weight.shape[-1]}")
            if b.weight.shape[:-2] != a.weight.shape[:-2]:
                raise ShapeError("layers disagree on the slice axis")

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[-2]


class GradientTape:
    """Per-parameter gradient buffers for one extractor plus one predictor."""

    def __init__(self, extractor: FeatureExtractor, predictor: PredictorParams):
        self.layer_w = [np.zeros_like(l.weight) for l in extractor.layers]
        self.layer_b = [np.zeros_like(l.bias) for l in extractor.layers]
        self.pred_w = np.zeros_like(predictor.W)
        self.pred_b = np.zeros_like(predictor.b)

    def zero(self) -> None:
        for g in self.layer_w:
            g.fill(0.0)
        for g in self.layer_b:
            g.fill(0.0)
        self.pred_w.fill(0.0)
        self.pred_b.fill(0.0)


def init_extractor(dims: Sequence[int], rng: Rng) -> FeatureExtractor:
    """Layers sized dims[k] -> dims[k+1], weights uniform in +-sqrt(6/(fan_in+fan_out)),
    biases zero."""
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise ValueError(f"need an input and an output dim, got {dims}")
    if any(d < 1 for d in dims):
        raise ValueError(f"layer dims must be positive, got {dims}")
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append(LayerParams(rng.uniform(-s, s, size=(fan_out, fan_in)), np.zeros(fan_out)))
    return FeatureExtractor(layers)


def forward_batch(fe: FeatureExtractor, X: np.ndarray,
                  ws: Workspace | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Features of a (batch, dim) block, or of a (slices, batch, dim) block
    when the layers carry a slice axis, written into ws's buffers, and the
    activations backward_batch reads: the input block, then each layer's
    output (after its ReLU), so layer k reads acts[k] and writes acts[k + 1].

    The features are not checked: an overflow or a nan comes back as it
    is (+inf or nan; the ReLU maps -inf to 0), and each caller checks
    what it needs. A training step checks the cross-entropy, which a
    non-finite feature makes non-finite on its row; stage scoring checks
    the max it already takes of each block's features."""
    X = np.asarray(X, dtype=np.float64)
    seeds = fe.layers[0].weight.shape[:-2]
    if X.ndim != 2 + len(seeds) or X.shape[:-2] != seeds:
        raise ShapeError(f"expected {'(slices, batch, dim)' if seeds else '(batch, dim)'} "
                         f"input, got shape {X.shape}")
    if X.shape[-1] != fe.in_dim:
        raise ShapeError(f"input dim {X.shape[-1]} does not match extractor dim {fe.in_dim}")
    out = ws or Workspace()
    acts = [X]
    A = X
    for k, layer in enumerate(fe.layers):
        shape = (*A.shape[:-1], layer.weight.shape[-2])
        Z = np.matmul(A, layer.weight.swapaxes(-1, -2), out=out(("a", k), shape))
        # NumPy buffers a broadcast add of the whole of a stacked block (a
        # step's), so its bias is spread over a ("t", width) block first;
        # a plain block (scoring's) adds it broadcast, through a buffer of
        # at most 8192 entries. An add is elementwise: the bits agree
        bias = layer.bias[..., None, :]
        Z += filled(out(("t", shape[-1]), shape), bias) if seeds else bias
        # ReLU in place: acts keeps activations only, and backward
        # masks with A > 0, which is Z > 0 (nan and -0 fail both)
        A = np.maximum(Z, 0.0, out=Z)
        acts.append(A)
    return A, acts


def backward_batch(fe: FeatureExtractor, acts: list[np.ndarray], dH: np.ndarray,
                   tape: GradientTape, ws: Workspace | None = None) -> np.ndarray:
    """Add every layer's weight and bias gradient to the tape and return the
    first layer's pre-activation gradient; acts is what forward_batch
    returned with the features. The gradient with respect to the input
    itself is not formed (training never needs it). Every rows x width
    block is written into ws's buffers."""
    dH = np.asarray(dH, dtype=np.float64)
    if dH.shape != acts[-1].shape:
        raise ShapeError(f"upstream grad {dH.shape} does not match features "
                         f"{acts[-1].shape}")
    out = ws or Workspace()
    D = dH
    for k in range(len(fe.layers) - 1, -1, -1):
        width = D.shape[-1]
        mask = np.greater(acts[k + 1], 0.0, out=out(("mask", width), D.shape, np.bool_))
        Dz = filled(out(("t", width), D.shape), mask)  # the mask as a float block
        np.multiply(D, Dz, out=Dz)
        tape.layer_w[k] += np.matmul(Dz.swapaxes(-1, -2), acts[k],
                                     out=out(("gw", k), tape.layer_w[k].shape))
        # Dz.sum(axis=-2) without its wrapper
        gb = out(("gb", width), tape.layer_b[k].shape)
        tape.layer_b[k] += np.add.reduce(Dz, axis=-2, out=gb)
        if k:
            W = fe.layers[k].weight
            D = np.matmul(Dz, W, out=out(("g", W.shape[-1]), (*D.shape[:-1], W.shape[-1])))
    return Dz


def sgd_step(extractor: FeatureExtractor, predictor: PredictorParams,
             tape: GradientTape, lr) -> None:
    """θ <- θ - lr * grad for every parameter, then zero the tape. With
    parameters stacked over slices, lr is one value or one per slice."""
    lr_w = lr_b = lr
    if np.ndim(lr):
        lr = np.asarray(lr, dtype=np.float64)
        if predictor.W.ndim != 3 or lr.shape != predictor.W.shape[:1]:
            raise ShapeError(f"{lr.shape} learning rates for predictor {predictor.W.shape}")
        positive = bool((lr > 0).all())
        lr_w, lr_b = lr[:, None, None], lr[:, None]  # against (slices, out, in) and (slices, out)
    else:
        positive = lr > 0
    if not positive:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if tape.pred_w.shape != predictor.W.shape:
        raise ShapeError(f"tape predictor block {tape.pred_w.shape} does not match "
                         f"{predictor.W.shape}")
    # each gradient is scaled in place (g * lr, the same product as lr * g),
    # then subtracted; the tape is zeroed after
    for layer, gw, gb in zip(extractor.layers, tape.layer_w, tape.layer_b):
        if gw.shape != layer.weight.shape:
            raise ShapeError(f"tape layer block {gw.shape} does not match {layer.weight.shape}")
        layer.weight -= np.multiply(gw, lr_w, out=gw)
        layer.bias -= np.multiply(gb, lr_b, out=gb)
    predictor.W -= np.multiply(tape.pred_w, lr_w, out=tape.pred_w)
    predictor.b -= np.multiply(tape.pred_b, lr_b, out=tape.pred_b)
    tape.zero()
