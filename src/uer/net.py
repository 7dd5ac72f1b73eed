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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .container import read_container, write_container
from .logits import PredictorParams
from .numeric import Rng, ShapeError, require_finite


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


@dataclass
class ForwardCache:
    inputs: list[np.ndarray]  # row-batch input to each layer
    preacts: list[np.ndarray]  # pre-activation of each layer


class GradientTape:
    """Per-parameter gradient buffers for one extractor plus one predictor."""

    def __init__(self, extractor: FeatureExtractor, predictor: PredictorParams):
        self.layer_w = [np.zeros_like(l.weight) for l in extractor.layers]
        self.layer_b = [np.zeros_like(l.bias) for l in extractor.layers]
        self.pred_w = np.zeros_like(predictor.W)
        self.pred_b = np.zeros_like(predictor.b)

    def add_class_rows(self, n: int) -> None:
        if n < 0:
            raise ValueError("cannot remove class rows")
        self.pred_w = np.vstack([self.pred_w, np.zeros((n, self.pred_w.shape[1]))])
        self.pred_b = np.append(self.pred_b, np.zeros(n))

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


def forward_batch(fe: FeatureExtractor, X: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Features of a (batch, dim) block, or of a (slices, batch, dim) block
    when the layers carry a slice axis."""
    X = np.asarray(X, dtype=np.float64)
    seeds = fe.layers[0].weight.shape[:-2]
    if X.ndim != 2 + len(seeds) or X.shape[:-2] != seeds:
        raise ShapeError(f"expected {'(slices, batch, dim)' if seeds else '(batch, dim)'} "
                         f"input, got shape {X.shape}")
    if X.shape[-1] != fe.in_dim:
        raise ShapeError(f"input dim {X.shape[-1]} does not match extractor dim {fe.in_dim}")
    inputs, preacts = [], []
    A = X
    for layer in fe.layers:
        inputs.append(A)
        Z = A @ layer.weight.swapaxes(-1, -2) + layer.bias[..., None, :]
        preacts.append(Z)
        A = np.maximum(Z, 0.0)
    require_finite(A, "features", stacked=bool(seeds))
    return A, ForwardCache(inputs, preacts)


def forward(fe: FeatureExtractor, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-d input, got shape {x.shape}")
    H, cache = forward_batch(fe, x[None, :])
    return H[0], cache


def backward_batch(fe: FeatureExtractor, cache: ForwardCache, dH: np.ndarray,
                   tape: GradientTape) -> np.ndarray:
    """Add every layer's weight and bias gradient to the tape and return the
    first layer's pre-activation gradient; the gradient with respect to the
    input itself is not formed (training never needs it)."""
    dH = np.asarray(dH, dtype=np.float64)
    if dH.shape != cache.preacts[-1].shape:
        raise ShapeError(f"upstream grad {dH.shape} does not match features "
                         f"{cache.preacts[-1].shape}")
    D = dH
    for k in range(len(fe.layers) - 1, -1, -1):
        Dz = D * (cache.preacts[k] > 0.0)
        tape.layer_w[k] += Dz.swapaxes(-1, -2) @ cache.inputs[k]
        tape.layer_b[k] += np.add.reduce(Dz, axis=-2)  # Dz.sum(axis=-2) without its wrapper
        if k:
            D = Dz @ fe.layers[k].weight
    return Dz


def backward(fe: FeatureExtractor, cache: ForwardCache, dh: np.ndarray,
             tape: GradientTape) -> np.ndarray:
    """Single-sample backward pass; returns the gradient with respect to the input."""
    dz = backward_batch(fe, cache, np.asarray(dh, dtype=np.float64)[None, :], tape)
    return (dz @ fe.layers[0].weight)[0]


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
    for layer, gw, gb in zip(extractor.layers, tape.layer_w, tape.layer_b):
        if gw.shape != layer.weight.shape:
            raise ShapeError(f"tape layer block {gw.shape} does not match {layer.weight.shape}")
        layer.weight -= lr_w * gw
        layer.bias -= lr_b * gb
    predictor.W -= lr_w * tape.pred_w
    predictor.b -= lr_b * tape.pred_b
    tape.zero()


SECTION_NET = "NETPARAM"
SECTION_PRED = "PREDICTR"


def save_checkpoint(path, extractor: FeatureExtractor,
                    predictor: PredictorParams | None = None) -> None:
    records = []
    for k, layer in enumerate(extractor.layers):
        records.append((k, layer.weight))
        records.append((k, layer.bias))
    sections = {SECTION_NET: records}
    if predictor is not None:
        sections[SECTION_PRED] = [(0, predictor.W), (0, predictor.b)]
    write_container(path, sections)


def load_checkpoint(path) -> tuple[FeatureExtractor, PredictorParams | None]:
    sections = read_container(path)
    records = sections.get(SECTION_NET)
    if not records:
        raise ValueError(f"checkpoint {path} has no extractor section")
    if len(records) % 2:
        raise ValueError(f"checkpoint {path} has a dangling layer record")
    layers = []
    for i in range(0, len(records), 2):
        (_, weight), (_, bias) = records[i], records[i + 1]
        layers.append(LayerParams(weight, bias))
    predictor = None
    if SECTION_PRED in sections:
        (_, W), (_, b) = sections[SECTION_PRED]
        predictor = PredictorParams(W, b)
    return FeatureExtractor(layers), predictor
