"""Stage scoring from row indices through one reused workspace, bit for bit.

score_stages reads the scored rows by index, block by block, and writes
every block-sized result (the gathered rows, the activations, the score
block, the argmax and the softmax) into one Workspace; the average
posterior is a running column sum carried from block to block, with no
(rows, classes) array. The premises: reducing [sum so far; block rows]
over the first axis, block after block, gives the bits of
posterior.mean(axis=0) over all rows; and the workspace forms of the dot
and cosine score blocks give the bits of the allocating expressions,
into buffers whatever they held before. On top of them, scoring by index
through a stale workspace equals the one-pass reference, a stage's
scoring allocates nothing of a block's size after its first block, and
a stage end's runs share one scoring workspace that training drops.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_eval
import uer.evaluation
import uer.logits
import uer.trainer
from conftest import blas_versions
from uer.evaluation import BLOCK_ROWS, row_blocks, score_stages
from uer.logits import EPS_NORM, CosineScale, LogitMode, PredictorParams, score_block
from uer.net import init_extractor
from uer.numeric import Workspace, make_rng
from uer.stream import Dataset, LabeledData, StreamConfig, gen_synthetic, make_sphere_spec
from uer.trainer import run_trajectories, uer_method

PREMISE = ("a carried row-block column sum or a workspace score block differs from the "
           f"allocating form, so blocked stage scoring is not bitwise exact on this build "
           f"({blas_versions()})")

# below one block, exactly one, and k blocks give or take a row
ROW_COUNTS = st.one_of(
    st.integers(1, BLOCK_ROWS - 1),
    st.builds(lambda k, d: k * BLOCK_ROWS + d, st.integers(1, 3),
              st.sampled_from([-1, 0, 1, BLOCK_ROWS // 2, BLOCK_ROWS - 1])))


def _stale(ws: Workspace, rng, names_shapes):
    """Fill the workspace's buffers with values an earlier user might have
    left: nan, infinities and large normals."""
    for name, shape in names_shapes:
        buf = ws(name, shape)
        buf[...] = rng.normal(size=shape) * 1e3
        buf.reshape(-1)[::7] = np.nan
        buf.reshape(-1)[::11] = -np.inf


# ---------------------------------------------------------------- premises


def _carried_mean(P: np.ndarray, spare_rows: int) -> np.ndarray:
    """score_stages' average posterior: P's rows copied block by block
    into a carry buffer (a prefix view of a larger one, as a workspace
    hands out) after the running sum, and reduced over the first axis."""
    n, classes = P.shape
    big = np.full((max(hi - lo for lo, hi in row_blocks(n)) + 1 + spare_rows, classes), np.nan)
    total = np.empty(classes)
    for lo, hi in row_blocks(n):
        carry = big[:hi - lo + 1]
        carry[1:] = P[lo:hi]
        if lo:
            carry[0] = total
        np.add.reduce(carry if lo else carry[1:], axis=0, out=total)
    return np.divide(total, n, out=total)


@given(n=ROW_COUNTS, classes=st.integers(1, 48), spare=st.sampled_from([0, 1, 37]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_carried_block_sums_give_the_mean_of_all_rows(n, classes, spare, seed):
    rng = make_rng(seed)
    if classes == 1:
        # a softmax over one class is 1.0, or nan where its score is not finite
        P = np.where(rng.random((n, 1)) < 0.01, np.nan, 1.0)
    else:
        # softmax rows whose entries span many magnitudes, so that another
        # summation order rounds differently
        S = rng.normal(scale=rng.choice([1.0, 10.0, 40.0]), size=(n, classes))
        E = np.exp(S - S.max(axis=1, keepdims=True))
        P = E / E.sum(axis=1, keepdims=True)
    want = P.mean(axis=0)
    assert _carried_mean(P, spare).tobytes() == want.tobytes(), PREMISE


def test_the_carried_sum_premise_has_teeth():
    # pairwise summation (the order NumPy takes along a contiguous axis)
    # differs from the row-by-row order: a test that accepted any order
    # would not see a wrong one
    rng = make_rng(4)
    S = rng.normal(scale=10.0, size=(3 * BLOCK_ROWS + 5, 2))
    P = np.exp(S - S.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    pairwise = np.array([np.add.reduce(np.ascontiguousarray(P[:, j])) for j in range(2)])
    assert pairwise.tobytes() != np.add.reduce(P, axis=0).tobytes()


def _reference_scores(pp, H, mode, gamma):
    """The allocating score expressions the workspace forms replace."""
    if mode is LogitMode.DOT:
        L = H @ pp.W.T
        L += pp.b
        return L
    hn = np.maximum(np.linalg.norm(H, axis=1), EPS_NORM)
    wn = np.maximum(np.linalg.norm(pp.W, axis=1), EPS_NORM)
    return gamma * ((H @ pp.W.T) / (hn[:, None] * wn[None, :]))


@given(n=ROW_COUNTS, width=st.sampled_from([1, 8, 64, 256]), classes=st.integers(1, 40),
       mode=st.sampled_from([LogitMode.DOT, LogitMode.COSINE]),
       gamma=st.sampled_from([1.0, 10.0, 16.0]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_workspace_score_blocks_give_the_allocating_bits(n, width, classes, mode, gamma,
                                                         seed):
    rng = make_rng(seed)
    H = np.maximum(rng.normal(size=(n, width)), 0.0)
    H[rng.random(n) < 0.05] = 0.0  # rows whose norm is floored
    pp = PredictorParams(rng.normal(size=(classes, width)), rng.normal(size=classes))
    scale = CosineScale(gamma)
    want = _reference_scores(pp, H, mode, gamma)
    # a workspace sized for a larger block hands out stale prefix views
    ws = Workspace()
    with ws.sized(n + 3):
        _stale(ws, rng, [("l", (n, classes)), ("s", (n, classes)), ("den", (n, classes)),
                         ("hn", (n,)), (("t", width), (n, width)), ("dw", (classes, width))])
    for got in (score_block(pp, H, (mode,), scale, ws)[0][0],
                score_block(pp, H, (mode,), scale)[0][0]):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), PREMISE


def _recorded(monkeypatch, module, name, seen):
    """Wrap module.name so a copy of the score block each call reads (its
    first argument, or the block it returns) goes into seen."""
    real = getattr(module, name)

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.append((args[0] if name == "_softmax_at" else result[0]).copy())
        return result
    monkeypatch.setattr(module, name, recording)


@pytest.mark.parametrize("slices", [0, 3])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_stage_scoring_scores_the_cosine_logits_training_reads(monkeypatch, slices, alpha):
    # the block score_stages scores a cosine-tested run with is, bit for
    # bit, the cosine block loss_rows trains on, for a 2-d call and each
    # slice of a stacked one, rows whose norm is floored at EPS_NORM
    # included (all-zero rows, and rows far below the floor)
    rng = make_rng([slices, int(10 * alpha)])
    lead = (slices,) if slices else ()
    n, dim, classes = 40, 16, 7
    H = np.abs(rng.normal(size=(*lead, n, dim)))
    H[..., :4, :] = 0.0
    H[..., 4:8, :] *= 1e-15
    assert np.all(np.linalg.norm(H[..., :8, :], axis=-1) < EPS_NORM)
    pp = PredictorParams(rng.normal(size=(*lead, classes, dim)),
                         rng.normal(size=(*lead, classes)))
    scale = CosineScale(10.0)
    trained, scored = [], []
    _recorded(monkeypatch, uer.logits, "score_block", trained)
    _recorded(monkeypatch, uer.evaluation, "_softmax_at", scored)
    uer.logits.loss_rows(pp, scale, alpha, H, rng.integers(0, classes, size=(*lead, n)), None)
    (L,) = trained
    assert L.shape == ((2 if alpha else 1), *lead, n, classes)
    for i in range(slices or 1):
        part = PredictorParams(pp.W[i], pp.b[i]) if slices else pp
        state = SimpleNamespace(extractor=init_extractor((dim, dim), rng), predictor=part,
                                stream=SimpleNamespace(class_order=list(range(classes))))
        state.extractor.layers[0].weight[...] = np.eye(dim)  # passes H >= 0 through
        state.extractor.layers[0].bias[...] = 0.0
        h = H[i] if slices else H
        score_stages(state, LabeledData(h, np.zeros(n, dtype=np.int64)), [n], LogitMode.COSINE,
                     scale)
        want = L[-1][i] if slices else L[-1]
        assert scored[-1].shape == (n, classes)
        assert scored[-1].tobytes() == want.tobytes()
        assert want.tobytes() == _reference_scores(part, h, LogitMode.COSINE, 10.0).tobytes()


def test_workspace_hands_out_prefix_views_and_sizes_new_buffers():
    ws = Workspace()
    a = ws("a", (5, 3))
    b = ws("a", (2, 3))
    assert b.base is a and b.flags.c_contiguous
    assert ws("a", (5, 3)) is a  # the buffer itself, not a view
    assert ws("a", (6, 3)).shape == (6, 3)  # more rows: a new buffer replaces it
    assert ws("a", (6, 4)).shape == (6, 4)  # other trailing dims: likewise
    with ws.sized(10):
        c = ws("c", (4,), np.int64)
    assert c.shape == (4,) and len(c.base) == 10 and c.dtype == np.int64
    assert ws("d", (4,)).base is None  # the sizing ends with the block


# ------------------------------------------------------- scoring by index


def _scored_state(rng, in_dim, hidden, classes):
    extractor = init_extractor((in_dim, *hidden), rng)
    for layer in extractor.layers:
        layer.bias[:] = -0.05  # so an all-zero input row has all-zero features
    W = rng.normal(size=(classes, hidden[-1]))
    return SimpleNamespace(extractor=extractor,
                           predictor=PredictorParams(W, 0.1 * rng.normal(size=classes)),
                           stream=SimpleNamespace(
                               class_order=[int(c) for c in 100 + rng.permutation(classes)]))


@given(n=ROW_COUNTS, extra=st.integers(0, 300),
       mode=st.sampled_from([LogitMode.DOT, LogitMode.COSINE]),
       hidden=st.sampled_from([(1,), (8,), (64,), (8, 16)]), classes=st.integers(1, 12),
       stages=st.integers(1, 4), reuse=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_scoring_by_index_matches_one_pass_over_the_gathered_rows(n, extra, mode, hidden,
                                                                  classes, stages, reuse,
                                                                  seed):
    rng = make_rng([seed, 11])
    state = _scored_state(rng, 6, hidden, classes)
    pool = n + extra
    x = 3.0 * rng.normal(size=(pool, 6))
    x[rng.random(pool) < 0.1] = 0.0
    test = LabeledData(x, rng.choice(state.stream.class_order, size=pool))
    rows = rng.permutation(pool)[:n]
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(stages, n) - 1, replace=False))
    ends = np.append(cuts, n)
    scale = CosineScale(10.0)
    ws = Workspace()
    if reuse:
        # a workspace another run (of other shapes) has just used
        other = _scored_state(rng, 6, hidden, classes + 3)
        score_stages(other, test, [pool], mode, scale, np.arange(pool), ws)
    new = score_stages(state, test, ends, mode, scale, rows, ws)
    old = legacy_eval.score_stages(state, LabeledData(x[rows], test.y[rows]), ends, mode,
                                   scale)
    assert new.accuracy_row == old.accuracy_row
    assert new.acc_previous == old.acc_previous
    assert new.avg_posterior.tobytes() == old.avg_posterior.tobytes()
    assert new.collapsed == old.collapsed


def test_scoring_rejects_rows_outside_the_test_set():
    rng = make_rng(2)
    state = _scored_state(rng, 6, (8,), 3)
    test = LabeledData(rng.normal(size=(10, 6)), np.full(10, 100))
    for rows in (np.array([0, 10]), np.array([-1, 3])):
        with pytest.raises(IndexError, match="outside the 10"):
            score_stages(state, test, [2], LogitMode.DOT, CosineScale(10.0), rows)


# ------------------------------------------------------------ allocations


@pytest.mark.parametrize("mode", [LogitMode.DOT, LogitMode.COSINE])
@pytest.mark.parametrize("n", [3 * BLOCK_ROWS, 4 * BLOCK_ROWS + 500])
def test_scoring_allocates_nothing_large_after_its_first_block(monkeypatch, mode, n):
    # manystage-csv's shapes: 20 input dims, 64 features, 40 classes, rows
    # read by index from a larger test set; the tail block is the largest
    rng = make_rng(5)
    state = _scored_state(rng, 20, (64,), 40)
    test = LabeledData(rng.normal(size=(n + 1000, 20)), rng.choice(state.stream.class_order,
                                                                   size=n + 1000))
    rows = rng.permutation(n + 1000)[:n]
    block = BLOCK_ROWS * 64 * 8  # one block's float64 activations
    real = uer.evaluation.forward_batch
    seen = []

    def measured(*args, **kwargs):
        if len(seen) == 1:  # the second block starts: count from here
            seen.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        else:
            seen.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(uer.evaluation, "forward_batch", measured)
    ends = np.arange(n // 4, n + 1, n // 4)
    ends[-1] = n
    ws = Workspace()
    tracemalloc.start()
    try:
        score_stages(state, test, ends, mode, CosineScale(10.0), rows, ws)
        peak = tracemalloc.get_traced_memory()[1] - seen[1]
    finally:
        tracemalloc.stop()
    assert len(seen) == len(row_blocks(n)) >= 3
    # the pass before the workspace took several blocks' worth per block
    assert peak < block / 4
    # scoring sized the workspace's buffers for its tail block only
    assert ws("after", (2,)).base is None


@pytest.mark.parametrize("mode", [LogitMode.DOT, LogitMode.COSINE])
@pytest.mark.parametrize("n", [3 * BLOCK_ROWS, 4 * BLOCK_ROWS + 500])
def test_a_whole_scoring_call_peaks_at_a_few_blocks(mode, n):
    # the first block sizes every workspace buffer, so it is counted too: a
    # buffer asked for with a branch or slice axis leading would be padded
    # to the block's row count along that axis (Workspace.sized), about
    # BLOCK_ROWS times its size, and 40 classes make that over 180 MiB
    rng = make_rng(6)
    state = _scored_state(rng, 20, (64,), 40)
    test = LabeledData(rng.normal(size=(n + 1000, 20)), rng.choice(state.stream.class_order,
                                                                   size=n + 1000))
    rows = rng.permutation(n + 1000)[:n]
    ends = np.arange(n // 4, n + 1, n // 4)
    ends[-1] = n
    largest = max(hi - lo for lo, hi in row_blocks(n))
    tracemalloc.start()
    try:
        score_stages(state, test, ends, mode, CosineScale(10.0), rows, Workspace())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured: 3.4 (dot) to 6.7 (cosine) times one block's activations
    assert peak < 16 * largest * 64 * 8


def test_a_stage_end_shares_one_scoring_workspace_that_training_drops(monkeypatch):
    # two seeds (two streams) of two methods: at each stage end all four
    # runs score into one workspace; the next step takes new step buffers,
    # and the next stage end a new scoring workspace
    spec = make_sphere_spec(4, 6, 3.0, 1.0, 30, 9, make_rng(3))
    data = gen_synthetic(spec, make_rng(4))
    dataset = Dataset(data.train, data.test, num_classes=4, input_dim=6)
    events = []
    real_score, real_descend = uer.trainer.score_stages, uer.trainer._descend

    def score(*args):
        events.append(("score", args[-1]))
        return real_score(*args)

    def descend(part, ws, *rest):
        events.append(("step", ws))
        return real_descend(part, ws, *rest)

    monkeypatch.setattr(uer.trainer, "score_stages", score)
    monkeypatch.setattr(uer.trainer, "_descend", descend)
    methods = [uer_method(hidden_dims=(8,), buffer_capacity=20),
               uer_method(name="uer2", alpha=0.2, hidden_dims=(8,), buffer_capacity=20)]
    stream = StreamConfig(stages=2, classes_per_stage=2, batch_size_current=10,
                          batch_size_memory=10)
    outcomes = run_trajectories(lambda seed: dataset,
                                [(m, s) for m in methods for s in (0, 1)], stream)
    assert not any(isinstance(o, Exception) for o in outcomes)
    # runs of events of one kind, in order: steps, scores, steps, scores
    phases = []
    for kind, ws in events:
        if not phases or phases[-1][0] != kind:
            phases.append((kind, []))
        phases[-1][1].append(ws)
    assert [kind for kind, _ in phases] == ["step", "score", "step", "score"]
    scoring = [group for kind, group in phases if kind == "score"]
    assert all(len(group) == 4 and len({id(ws) for ws in group}) == 1 for group in scoring)
    assert scoring[0][0] is not scoring[1][0]
    steps = {id(ws) for kind, group in phases if kind == "step" for ws in group}
    assert not steps & {id(group[0]) for group in scoring}
