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
import uer.trainer
from uer import DatasetSpec, build_dataset
from uer.logits import PredictorParams
from uer.net import FeatureExtractor, GradientTape, LayerParams, forward_batch, init_extractor
from uer.stream import Dataset, LabeledData


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


def kink_distance(fe: FeatureExtractor, acts) -> float:
    """The smallest |pre-activation| over every layer of a forward pass:
    each layer's x @ W^T + b, recomputed from the input the pass gave it
    (forward_batch returns the activations only)."""
    return min(float(np.abs(a @ layer.weight.T + layer.bias).min())
               for a, layer in zip(acts, fe.layers))


def conditioned_instance(rng, d_in=6, hidden=7, d_feat=5, classes=4,
                         kink_margin=1e-3, feat_floor=1e-2, sin_floor=1e-3):
    """An extractor + scorer + sample where central differences at 1e-6 are
    trustworthy: pre-activations clear the ReLU kink, the feature vector is
    not vanishing, and no scorer row is near-parallel to the feature."""
    while True:
        fe = init_extractor((d_in, hidden, d_feat), rng)
        x = rng.normal(size=d_in)
        H, acts = forward_batch(fe, x[None, :])
        h = H[0]
        if kink_distance(fe, acts) <= kink_margin:
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
        H, acts = forward_batch(fe, x[None, :])
        h = H[0]
        if kink_distance(fe, acts) <= kink_margin:
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
# samples by row


def row_source(batches) -> tuple[LabeledData, list[np.ndarray]]:
    """(x, y) feature batches as rows of one source: the LabeledData that
    stacks them in order, and each batch's rows in it. A training step and
    the buffer name samples by their row in a stream's source, so a test
    that holds features steps their rows."""
    source = LabeledData(np.concatenate([x for x, _ in batches]),
                         np.concatenate([y for _, y in batches]))
    ends = np.cumsum([len(y) for _, y in batches])
    return source, [np.arange(end - len(y), end) for (_, y), end in zip(batches, ends)]


def step_alone(group, rows, y, memory_batch_size: int, rng):
    """train_step on a RunGroup of one run (RunGroup([init_run(...)]),
    held across its steps): the run's (loss_current, loss_replay) pair, or
    the error that ended it raised."""
    (record,) = uer.trainer.train_step(group, [rows], [y], memory_batch_size, [rng])
    if isinstance(record, Exception):
        raise record
    return record


def losses_of(records) -> np.ndarray:
    """An oracle's StepRecords as a run's loss history: the (steps, 2)
    float64 array of their (loss_current, loss_replay) pairs. Each record's
    loss_total must be its pair's sum, which is how the history gives the
    total."""
    losses = np.array([(r.loss_current, r.loss_replay) for r in records],
                      dtype=np.float64).reshape(-1, 2)
    totals = np.array([r.loss_total for r in records], dtype=np.float64)
    assert losses.sum(axis=1).tobytes() == totals.tobytes()
    return losses


# --------------------------------------------------------------------------
# divergence through the data


def step_start(dataset, method, stream_cfg, seed: int, step: int):
    """What the run of method and seed alone on dataset meets at its
    step-th step (1-based, over the whole run): the step's incoming rows
    in dataset.train, copies of the run's extractor and class scorer as
    the step starts, and the labels of the scorer rows. A run's draws
    depend on no run beside it, so it reads the same rows in any group."""
    seen = []
    real = uer.trainer.train_step

    def recording(group, row_batch, *rest):
        run = group.runs[0]
        if run.stream.step + 1 == step:
            seen.append((np.array(row_batch[0]),
                         FeatureExtractor([LayerParams(layer.weight.copy(), layer.bias.copy())
                                           for layer in run.extractor.layers]),
                         run.predictor.copy(), list(run.stream.class_order)))
        return real(group, row_batch, *rest)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(uer.trainer, "train_step", recording)
        uer.trainer.run_trajectories(lambda _seed: dataset, [(method, seed)], stream_cfg)
    (start,) = seen
    return start


def with_train_row(dataset: Dataset, row: int, x: np.ndarray) -> Dataset:
    """dataset with training row row's features replaced by x."""
    features = dataset.train.x.copy()
    features[row] = x
    return Dataset(LabeledData(features, dataset.train.y), dataset.test,
                   dataset.num_classes, dataset.input_dim)


def overflowing_features(fe: FeatureExtractor) -> np.ndarray:
    """An input row whose features overflow: the largest double, signed
    like the first-layer weight row of largest L1 norm, so that unit's
    pre-activation sums past the largest double to +inf."""
    weight = fe.layers[0].weight
    unit = weight[np.argmax(np.abs(weight).sum(axis=1))]
    assert np.abs(unit).sum() > 1.0
    return np.finfo(np.float64).max * np.sign(unit)


def overflowing_scores(fe: FeatureExtractor, pp: PredictorParams, label_row: int,
                       dot: bool) -> np.ndarray:
    """A finite input row whose features are finite but whose scores
    overflow the cross-entropy of a sample of scorer row label_row: some
    score H W^T is +inf, which makes it nan under either score, or, when
    the step runs the dot score (dot), the dot cross-entropy's
    max(L) - L[label_row] is. Far from the origin the features grow
    linearly along a direction, so one whose overflowing quantity exceeds
    both its input and its features by a factor r has all three scaled to
    lie around the largest double. The directions tried are W1^T w for
    each class row w, W1^T (w - w[label_row]) (the ones that raise a score,
    or a score above the label's, fastest through one layer) and fixed
    random ones, best factor first."""
    top, probe = np.finfo(np.float64).max, 1e300
    W1 = fe.layers[0].weight

    def overflow(x):
        H = forward_batch(fe, x[None])[0]
        L = H @ pp.W.T + pp.b
        spread = L.max() - L[0, label_row] if dot else -np.inf
        return max(L.max(), spread), max(H.max(), np.abs(x).max())

    directions = [W1.T @ w for w in pp.W] + [W1.T @ (w - pp.W[label_row]) for w in pp.W] + \
        list(np.random.default_rng(0).normal(size=(256, W1.shape[1])))
    with np.errstate(over="ignore", invalid="ignore"):
        found = []
        for v in directions:
            score, size = overflow(probe * v)
            if score > 0.0:
                found.append((score / size, size / probe, v))
        for r, size, v in sorted(found, key=lambda f: -f[0]):
            if r < 1.05:
                break
            x = v * ((1.0 + 1.0 / r) / 2 * top / size)
            score, size = overflow(x)
            if np.isfinite(x).all() and np.isfinite(forward_batch(fe, x[None])[0]).all() and \
                    score == np.inf:
                return x
    raise AssertionError("no input row overflows the scores with finite features")


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


# --------------------------------------------------------------------------
# bitwise premises


def blas_versions() -> str:
    """NumPy's version and its BLAS, for the message of a failed bitwise premise."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older NumPy has no dict form
        blas = "unknown"
    return f"NumPy {np.__version__}, BLAS {blas}"
