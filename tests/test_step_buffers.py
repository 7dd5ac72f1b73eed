"""The training step's buffers: reused from step to step, bit for bit.

A part's fused step writes its large results into its RunGroup's
Workspace: the gathered [incoming; replayed] block, the activations (ReLU
in place), the score blocks, dH, the backward masks and the gradient
products. The premise: NumPy's out= forms used for that give the bits of
the allocating forms, into a buffer whatever it held before, and a mask
taken from the activation (A > 0) is the mask taken from the
pre-activation (Z > 0). On top of it, runs whose workspace must reallocate
or hand out prefix views (a short last batch, a stage that registers
classes, a run that diverges and leaves its part) still give legacy_step's
bytes, and a step after the first allocates nothing large (tracemalloc
sees NumPy's data buffers).
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_step
import uer.trainer
from conftest import blas_versions, losses_of, overflowing_features, row_source, step_start, \
    with_train_row
from uer import Run, RunGroup
from uer.evaluation import stage_metrics_to_dict
from uer.memory import MemoryBuffer
from uer.net import init_extractor
from uer.numeric import make_rng
from uer.stream import Dataset, LabeledData, StreamConfig, gen_synthetic, make_sphere_spec
from uer.trainer import (StreamState, er_method, lucir_method, run_trajectories,
                         train_step, uer_a_method, uer_method)

PREMISE = ("an out= form differs from the allocating form, so the training step's "
           f"reused buffers are not bitwise exact on this build ({blas_versions()})")

# (rows, layer widths, classes): widereplay's step (32 incoming + 256
# replayed, 128 -> 256 -> 256) and gauss5x2's (10 + 10, 20 -> 64)
SHAPES = {"widereplay": (288, (128, 256, 256), 10), "gauss5x2": (20, (20, 64), 10)}


def _same(got, want, what):
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), f"{what}: {PREMISE}"


def _stale(shape, rng, dtype=np.float64):
    """A buffer holding what an earlier step might have left: values of
    every kind, nan and infinities included."""
    if dtype == np.bool_:
        return rng.random(shape) < 0.5
    buf = rng.normal(size=shape) * 1e3
    buf.reshape(-1)[::7] = np.nan
    buf.reshape(-1)[::11] = -np.inf
    return buf


def _edge_values(shape, rng):
    """Normal values with signed zeros and infinities mixed in."""
    v = rng.normal(size=shape)
    flat = v.reshape(-1)
    flat[::5], flat[1::13], flat[2::17], flat[3::19] = 0.0, -0.0, np.inf, -np.inf
    return v


@pytest.mark.parametrize("slices", [1, 3])
@pytest.mark.parametrize("workload", list(SHAPES))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_out_forms_give_the_allocating_bits(workload, slices, seed):
    n, dims, classes = SHAPES[workload]
    rng = make_rng(seed)
    lead = (slices,) if slices > 1 else ()
    X = rng.normal(size=(*lead, n, dims[0]))
    for d_in, d_out in zip(dims, dims[1:]):
        W = rng.normal(size=(*lead, d_out, d_in)) / np.sqrt(d_in)
        b = rng.normal(scale=0.1, size=(*lead, d_out))
        # the forward product against a transposed view, into a stale buffer
        Z = _stale((*lead, n, d_out), rng)
        np.matmul(X, W.swapaxes(-1, -2), out=Z)
        Z_ref = X @ W.swapaxes(-1, -2)
        _same(Z, Z_ref, "matmul into a buffer, transposed weight")
        # the bias: in place, and spread over a stale block first
        spread = _stale(Z.shape, rng)
        np.copyto(spread, b[..., None, :])
        Z_spread = Z.copy()
        Z_spread += spread
        Z += b[..., None, :]
        Z_ref = Z_ref + b[..., None, :]
        _same(Z, Z_ref, "in-place bias add")
        _same(Z_spread, Z_ref, "bias add from a spread block")
        # ReLU in place
        A = np.maximum(Z, 0.0, out=Z)
        _same(A, np.maximum(Z_ref, 0.0), "in-place np.maximum")
        # the backward mask from the activation, made a float block, times D
        D = _edge_values(A.shape, rng)
        mask = np.greater(A, 0.0, out=_stale(A.shape, rng, np.bool_))
        Dz = _stale(A.shape, rng)
        np.copyto(Dz, mask)
        with np.errstate(invalid="ignore"):  # inf * 0 is nan in both forms
            np.multiply(D, Dz, out=Dz)
            Dz_ref = D * (Z_ref > 0.0)
        _same(Dz, Dz_ref, "np.greater/np.multiply masking")
        Dz[~np.isfinite(Dz)] = 1.0  # finite operands for the products below
        # the gradient products: Dz^T A_in (a transposed view) and Dz W
        gW = np.matmul(Dz.swapaxes(-1, -2), X, out=_stale(W.shape, rng))
        _same(gW, Dz.swapaxes(-1, -2) @ X, "matmul into a buffer, transposed Dz")
        gX = np.matmul(Dz, W, out=_stale(X.shape, rng))
        _same(gX, Dz @ W, "matmul into a buffer, D passed down")
        X = A
    # the scorer's products, a gather into a slice of a buffer and a row
    # factor spread over a block
    P = rng.random(size=(*lead, n, classes))
    Wc = rng.normal(size=(*lead, classes, dims[-1]))
    _same(np.matmul(P, Wc, out=_stale(X.shape, rng)), P @ Wc, "matmul of scores")
    _same(np.matmul(P.swapaxes(-1, -2), X, out=_stale(Wc.shape, rng)),
          P.swapaxes(-1, -2) @ X, "matmul of scores, transposed")
    col = rng.normal(size=(*lead, n))
    spread = _stale(X.shape, rng)
    np.copyto(spread, col[..., None])
    _same(np.multiply(spread, X, out=spread), col[..., None] * X, "row factor spread")
    rows = rng.integers(0, 1000, size=n // 2)
    source = rng.normal(size=(1000, dims[0]))
    block = _stale((n, dims[0]), rng)
    np.take(source, rows, axis=0, out=block[n - len(rows):], mode="clip")
    _same(block[n - len(rows):], source[rows], "np.take into a buffer")


def test_the_activation_mask_is_the_pre_activation_mask():
    # ReLU in place leaves only A = max(Z, 0): A > 0 must select exactly
    # the entries Z > 0 does, at nan, signed zeros and infinities too
    Z = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, 5e-324,
                  -5e-324, 1.0, -1.0])
    for Z in (Z, Z[::-1].copy(), np.tile(Z, 50)):  # short (scalar loops) and long (SIMD)
        with np.errstate(invalid="ignore"):
            A = np.maximum(Z, 0.0)
            A_in_place = np.maximum(Z.copy(), 0.0, out=np.empty_like(Z))
        assert (A > 0.0).tolist() == (Z > 0.0).tolist(), PREMISE
        assert A_in_place.tobytes() == A.tobytes(), PREMISE


# ------------------------------------------------------------ allocations


def _group(methods, sources, seed):
    rng = make_rng(seed)
    runs = []
    for method, source in zip(methods, sources):
        extractor = init_extractor((source.x.shape[1], *method.hidden_dims), rng)
        stream = StreamState(MemoryBuffer(method.buffer_capacity), extractor.out_dim, source)
        runs.append(Run(method, extractor, stream))
    return RunGroup(runs)


def _step_peak(methods, input_dim, n_cur, n_mem, classes, warmup=40):
    """The tracemalloc peak of one train_step after warmup steps, each
    stream on its own rng and source, its batches drawn beforehand."""
    rngs = [make_rng([i, 3]) for i in range(len(methods))]
    means = make_rng(1).normal(scale=2.0, size=(classes, input_dim))
    sources, rows = [], []  # per stream: its source, and its rows at each step
    for r in rngs:
        ys = [r.integers(0, classes, size=n_cur) for _ in range(warmup + 1)]
        source, steps = row_source([(means[y] + r.normal(size=(n_cur, input_dim)), y)
                                    for y in ys])
        sources.append(source)
        rows.append(steps)
    group = _group(methods, sources, 0)

    def batches(k):
        return [steps[k] for steps in rows], [s.y[steps[k]] for s, steps in zip(sources, rows)]

    for k in range(warmup):
        train_step(group, *batches(k), n_mem, rngs)
    step_rows, ys = batches(warmup)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = train_step(group, step_rows, ys, n_mem, rngs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(records) == len(methods) and not any(isinstance(r, Exception) for r in records)
    return peak


@pytest.mark.parametrize("classes", [2, 10])
def test_a_widereplay_step_allocates_nothing_large(classes):
    # one run: a part of one slice, stacked like any other part
    method = uer_method(hidden_dims=(256, 256), buffer_capacity=5000)
    block = 288 * 256 * 8  # one rows x hidden float64 block
    # the step before the workspace took ~5 MiB (ten such blocks and more)
    assert _step_peak([method], 128, 32, 256, classes) < block / 4


@pytest.mark.parametrize("preset", [uer_method, lucir_method, er_method,
                                    pytest.param((uer_method, uer_a_method, lucir_method),
                                                 id="uer,uer-a,lucir")])
def test_a_stacked_gauss5x2_step_allocates_nothing_large(preset):
    # three seeds of a method, or three methods whose slices take different
    # loss branches, each on its stream, stacked in one part
    presets = preset if isinstance(preset, tuple) else (preset,) * 3
    methods = [p(hidden_dims=(64,), buffer_capacity=500) for p in presets]
    block = 3 * 20 * 64 * 8  # the stacked rows x hidden float64 block
    assert _step_peak(methods, 20, 10, 10, 2) < block / 4


def test_a_run_holds_no_copy_of_its_samples():
    # a whole run, dataset generation included: its heap peak stays below
    # the dataset plus one buffer's worth of feature rows. Generating the
    # data copies nothing, and the buffer and batches hold dataset rows; a
    # buffer of feature copies (capacity x dim floats) next to a stage's
    # feature block breaks the bound (the feature-copying trainer peaked at
    # 5.74 MB here against a 4.20 MB bound, this one at 2.68 MB)
    classes, dim, per_class, test_per_class, capacity = 4, 128, 500, 25, 2000
    spec = make_sphere_spec(classes, dim, 3.0, 1.0, per_class, test_per_class, make_rng(0))
    stream = StreamConfig(stages=2, classes_per_stage=2, batch_size_current=32,
                          batch_size_memory=64)
    method = uer_method(hidden_dims=(32,), buffer_capacity=capacity)
    tracemalloc.start()
    try:
        (outcome,) = run_trajectories(lambda seed: gen_synthetic(spec, make_rng(seed)),
                                      [(method, 0)], stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not isinstance(outcome, Exception), outcome
    data = classes * (per_class + test_per_class) * dim * 8
    assert peak < data + capacity * dim * 8


# ------------------------------------------------------ workspace changes


STREAM = StreamConfig(stages=3, classes_per_stage=2, batch_size_current=10,
                      batch_size_memory=10)


def _dataset(seed, sizes):
    """One class per entry of sizes (its train rows), 8 dims, 7 test rows each."""
    rng = make_rng([seed, 9])
    spec = make_sphere_spec(len(sizes), 8, 3.0, 1.0, max(sizes), 7, rng)
    data = gen_synthetic(spec, rng)
    keep = np.concatenate([np.flatnonzero(data.train.y == c)[:n] for c, n in enumerate(sizes)])
    return Dataset(LabeledData(data.train.x[keep], data.train.y[keep]), data.test,
                   num_classes=len(sizes), input_dim=8)


def _metrics_bytes(result) -> bytes:
    return "".join(json.dumps(stage_metrics_to_dict(m)) + "\n"
                   for m in result.metrics).encode("utf-8")


def _assert_matches_oracle(outcomes, methods, datasets, seeds, stream=STREAM):
    for method, seed, outcome in zip(methods, seeds, outcomes):
        if isinstance(outcome, Exception):
            continue
        alone = legacy_step.per_seed_run(datasets[seed], method, stream, seed)
        assert _metrics_bytes(outcome) == _metrics_bytes(alone)
        assert outcome.losses.tobytes() == losses_of(alone.steps).tobytes()


def _record_steps(monkeypatch):
    """(workspace, input block shape, registered classes) of every fused step."""
    seen = []
    real = uer.trainer._descend

    def recording(part, ws, X, *rest):
        seen.append((ws, X.shape, part.predictor.num_classes))
        return real(part, ws, X, *rest)
    monkeypatch.setattr(uer.trainer, "_descend", recording)
    return seen


def test_short_last_batches_and_new_classes_reshape_the_workspace(monkeypatch):
    # class sizes of 1 mod 10, so every stage of two classes ends on a
    # batch of 2 (12 rows with replay); every stage start registers two
    # more classes. A stage's steps share one workspace, reshaped for its
    # short last batch; scoring a stage drops it.
    datasets = {0: _dataset(0, [21, 31, 41, 11, 51, 21])}
    methods = [uer_method(hidden_dims=(16,), buffer_capacity=30)]
    seen = _record_steps(monkeypatch)
    outcomes = run_trajectories(datasets.__getitem__, [(methods[0], 0)], STREAM)
    monkeypatch.undo()
    _assert_matches_oracle(outcomes, methods, datasets, (0,))
    stages: dict[int, list] = {}
    for ws, shape, classes in seen:
        stages.setdefault(id(ws), []).append((shape[-2], classes))
    assert len(stages) == 3
    for t, steps in enumerate(stages.values(), 1):
        rows = [r for r, _ in steps]
        assert {c for _, c in steps} == {2 * t}
        assert rows[-1] == 12 and rows.count(12) == 1 and len(rows) > 1


def test_a_run_diverging_mid_step_leaves_a_new_workspace_to_the_rest(monkeypatch):
    # run 1 of 3 reads a row whose features overflow at its seventh step,
    # inside the fused step: the part is rebuilt without it and redoes the
    # step from the draws already made, in prefix views of the group's
    # workspace
    datasets = {seed: _dataset(seed, [40] * 6) for seed in (0, 1, 2)}
    methods = [uer_method(hidden_dims=(16,), buffer_capacity=30)] * 3
    rows, fe, _, _ = step_start(datasets[1], methods[1], STREAM, 1, 7)
    poisoned = {**datasets, 1: with_train_row(datasets[1], rows[0], overflowing_features(fe))}
    seen = _record_steps(monkeypatch)
    outcomes = run_trajectories(poisoned.__getitem__, list(zip(methods, (0, 1, 2))), STREAM)
    monkeypatch.undo()
    assert str(outcomes[1]) == "stage 1, step 7: features contains non-finite entries"
    assert outcomes[1].__cause__.seeds == [1]
    _assert_matches_oracle(outcomes, methods, datasets, (0, 1, 2))
    first, redo, last = seen[6], seen[7], seen[8]  # steps 7 and 8 of stage 1
    assert first[1][0] == 3 and redo[1][0] == 2 and redo[0] is first[0]
    assert last[1][0] == 2 and last[0] is redo[0]
