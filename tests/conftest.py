"""Shared fixtures and oracle helpers for the test suite.

The heavy artillery lives here: a finite-difference gradient oracle over
the full parameter vector (every extractor layer plus the class scorer),
a generator of numerically well-conditioned random instances for gradient
checks, and session-cached benchmark datasets so the behavioral tests do
not rebuild the same Gaussians over and over.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import uer
from uer import DatasetSpec, build_dataset
from uer.logits import PredictorParams
from uer.net import FeatureExtractor, GradientTape, forward, init_extractor


# --------------------------------------------------------------------------
# flat parameter vector <-> model, in a fixed traversal order


def flat_params(fe: FeatureExtractor, pp: PredictorParams) -> np.ndarray:
    parts = []
    for layer in fe.layers:
        parts.append(layer.weight.ravel())
        parts.append(layer.bias.ravel())
    parts.append(pp.W.ravel())
    parts.append(pp.b.ravel())
    return np.concatenate(parts)


def set_params(fe: FeatureExtractor, pp: PredictorParams, theta: np.ndarray) -> None:
    off = 0
    for layer in fe.layers:
        n = layer.weight.size
        layer.weight[...] = theta[off:off + n].reshape(layer.weight.shape)
        off += n
        n = layer.bias.size
        layer.bias[...] = theta[off:off + n]
        off += n
    n = pp.W.size
    pp.W[...] = theta[off:off + n].reshape(pp.W.shape)
    off += n
    pp.b[...] = theta[off:off + pp.b.size]


def flat_tape(tape: GradientTape) -> np.ndarray:
    parts = []
    for gw, gb in zip(tape.layer_w, tape.layer_b):
        parts.append(gw.ravel())
        parts.append(gb.ravel())
    parts.append(tape.pred_w.ravel())
    parts.append(tape.pred_b.ravel())
    return np.concatenate(parts)


def fd_gradient(loss_fn, fe: FeatureExtractor, pp: PredictorParams,
                step: float = 1e-6) -> np.ndarray:
    """Central finite differences of loss_fn() over every parameter."""
    theta0 = flat_params(fe, pp)
    grad = np.empty_like(theta0)
    for i in range(theta0.size):
        theta = theta0.copy()
        theta[i] = theta0[i] + step
        set_params(fe, pp, theta)
        up = loss_fn()
        theta[i] = theta0[i] - step
        set_params(fe, pp, theta)
        down = loss_fn()
        grad[i] = (up - down) / (2.0 * step)
    set_params(fe, pp, theta0)
    return grad


def fd_gradient_array(loss_fn, arr: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of loss_fn() over the entries of arr,
    mutating arr in place around each evaluation."""
    base = arr.copy()
    grad = np.empty_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        arr[idx] = base[idx] + step
        up = loss_fn()
        arr[idx] = base[idx] - step
        down = loss_fn()
        grad[idx] = (up - down) / (2.0 * step)
        arr[idx] = base[idx]
        it.iternext()
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray,
                      rtol: float = 1e-5, atol: float = 1e-8) -> None:
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


# --------------------------------------------------------------------------
# well-conditioned random instances for gradient checks


def sin_angles(W: np.ndarray, h: np.ndarray) -> np.ndarray:
    hn = np.linalg.norm(h)
    wn = np.linalg.norm(W, axis=1)
    cos = (W @ h) / np.maximum(wn * hn, 1e-300)
    return np.sqrt(np.maximum(1.0 - cos ** 2, 0.0))


def conditioned_instance(rng, d_in=6, hidden=7, d_feat=5, classes=4,
                         kink_margin=1e-3, feat_floor=1e-2, sin_floor=1e-3):
    """An extractor + scorer + sample where central differences at 1e-6 are
    trustworthy: pre-activations clear the ReLU kink, the feature vector is
    not vanishing, and no scorer row is near-parallel to the feature."""
    while True:
        fe = init_extractor((d_in, hidden, d_feat), rng)
        x = rng.normal(size=d_in)
        h, cache = forward(fe, x)
        if min(float(np.abs(z).min()) for z in cache.preacts) <= kink_margin:
            continue
        if float(np.linalg.norm(h)) <= feat_floor:
            continue
        pp = PredictorParams(rng.normal(size=(classes, d_feat)),
                             0.1 * rng.normal(size=classes))
        if sin_angles(pp.W, h).min() <= sin_floor:
            continue
        y = int(rng.integers(classes))
        return fe, pp, x, y


def conditioned_batch(rng, fe: FeatureExtractor, pp: PredictorParams, n: int,
                      kink_margin=1e-3, feat_floor=1e-2, sin_floor=1e-3):
    """A batch of inputs individually conditioned like conditioned_instance."""
    xs, ys = [], []
    while len(xs) < n:
        x = rng.normal(size=fe.in_dim)
        h, cache = forward(fe, x)
        if min(float(np.abs(z).min()) for z in cache.preacts) <= kink_margin:
            continue
        if float(np.linalg.norm(h)) <= feat_floor:
            continue
        if sin_angles(pp.W, h).min() <= sin_floor:
            continue
        xs.append(x)
        ys.append(int(rng.integers(pp.num_classes)))
    return np.stack(xs), np.array(ys, dtype=np.int64)


# --------------------------------------------------------------------------
# session-cached benchmark data


@pytest.fixture(scope="session")
def gauss_datasets():
    """split-gauss-10 instances for seeds 0..9, built once per session."""
    return {seed: build_dataset(DatasetSpec(kind="split-gauss-10"), seed)
            for seed in range(10)}


# --------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    """The environment for a child Python that must import this uer: the
    directory holding the imported package goes first on PYTHONPATH, as an
    absolute path, so it resolves from any working directory (pytest's
    own pythonpath setting reaches this process only)."""
    package_root = str(Path(uer.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
