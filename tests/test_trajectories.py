"""Runs on shared trajectories against the per-method runner they replace.

run_grid puts the runs of one seed whose methods agree on the network
widths, buffer capacity and replay switch on one stream: one rng, one
buffer, one registration and retrieval per step, with only the parameters
per run. No draw depends on a method's scoring rules, so every run must
give the very same metrics bytes and StepRecords as
legacy_step.run_seed_group, which trains each method's seeds with streams
of their own, and every failure must read the same.
"""

import json

import pytest

import legacy_step
import uer.cli
import uer.trainer
from uer.cli import run_grid, sweep_jobs, table1_jobs
from uer.config import build_dataset, parse_config_text
from uer.evaluation import stage_metrics_to_dict
from uer.trainer import StepRecord, er_method, run_trajectories, uer_method

SEEDS = "0,1,2"

# 6 classes in 3 stages of 2, 40 train rows per class: 24 steps per stream
CONFIG = """\
dataset.kind = synthetic
dataset.classes = 6
dataset.input_dim = 8
dataset.train_per_class = 40
dataset.test_per_class = 10
stream.stages = 3
stream.classes_per_stage = 2
run.methods = {methods}
run.seeds = {seeds}
run.out = {out}
"""
STEPS = 24


def _config(tmp_path, methods, seeds=SEEDS, extra=""):
    out = tmp_path / "out" if tmp_path else "out"
    text = CONFIG.format(methods=",".join(methods), seeds=seeds, out=out)
    text += "".join(f"method.{m}.hidden = 16\n" for m in methods)
    text += "".join(f"method.{m}.buffer = 30\n" for m in methods if m != "finetune")
    return parse_config_text(text + extra)


def _jobs(cfg):
    return [(m, m.seeds if m.seeds is not None else cfg.seeds) for m in cfg.methods]


def _metrics_bytes(result) -> bytes:
    return "".join(json.dumps(stage_metrics_to_dict(m)) + "\n"
                   for m in result.metrics).encode("utf-8")


def _assert_grid_matches_oracle(cfg, jobs):
    """run_grid over jobs against legacy_step.run_seed_group per job."""
    grid = list(run_grid(cfg, jobs, echo=lambda *a, **k: None))
    assert [method for method, _, _ in grid] == [method for method, _ in jobs]
    for (method, seeds), (_, passed, failed) in zip(jobs, grid):
        oracle = legacy_step.run_seed_group(lambda seed: build_dataset(cfg.dataset, seed),
                                            method, cfg.stream, seeds)
        assert failed == [f"{method.name} seed {seed}: {outcome}"
                          for seed, outcome in zip(seeds, oracle)
                          if isinstance(outcome, Exception)]
        alone = [outcome for outcome in oracle if not isinstance(outcome, Exception)]
        assert len(passed) == len(alone)
        for result, want in zip(passed, alone):
            assert (result.method, result.seed) == (want.method, want.seed)
            assert _metrics_bytes(result) == _metrics_bytes(want)
            assert result.steps == want.steps
    return grid


def _count(monkeypatch, module, attr):
    calls = []
    real = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, attr, counted)
    return calls


def test_all_five_presets_match_per_method_groups(tmp_path, monkeypatch):
    cfg = _config(tmp_path, ["uer", "uer-a", "er", "lucir", "finetune"])
    registrations = _count(monkeypatch, uer.trainer, "register_classes")
    builds = _count(monkeypatch, uer.cli, "build_dataset")
    _assert_grid_matches_oracle(cfg, _jobs(cfg))
    monkeypatch.undo()
    # uer, uer-a and lucir share a stream per seed; er and finetune keep
    # their own: 9 streams instead of 15, each registering once per step
    assert len(registrations) == 9 * STEPS
    assert [args[1] for args in builds] == [0, 1, 2] * 3


def test_table1_grid_matches_per_method_groups(tmp_path, monkeypatch):
    cfg = _config(tmp_path, ["uer"])
    registrations = _count(monkeypatch, uer.trainer, "register_classes")
    _assert_grid_matches_oracle(cfg, table1_jobs(cfg, 30))
    monkeypatch.undo()
    assert len(registrations) == 3 * STEPS  # 8 triples x 3 seeds on 3 streams


def test_eleven_value_alpha_sweep_matches_per_method_groups(tmp_path, monkeypatch):
    cfg = _config(tmp_path, ["uer"])
    registrations = _count(monkeypatch, uer.trainer, "register_classes")
    _assert_grid_matches_oracle(cfg, sweep_jobs(cfg.methods[0], cfg,
                                                [a / 10 for a in range(11)]))
    monkeypatch.undo()
    assert len(registrations) == 3 * STEPS  # 33 runs on 3 streams


def test_a_run_diverging_mid_stream_leaves_the_others_on_its_stream(tmp_path):
    text = ("dataset.kind = split-gauss-10\nstream.stages = 5\nstream.classes_per_stage = 2\n"
            f"run.methods = uer,uer-a,lucir\nrun.seeds = 0\nrun.out = {tmp_path / 'out'}\n"
            "method.uer.lr = 100\n"
            + "".join(f"method.{m}.hidden = 16\n" for m in ("uer", "uer-a", "lucir")))
    cfg = parse_config_text(text)
    grid = _assert_grid_matches_oracle(cfg, _jobs(cfg))
    (_, passed, failed), *others = grid
    assert passed == [] and len(failed) == 1
    assert "non-finite" in failed[0] and ", step " in failed[0]
    assert all(len(passed) == 1 and not failed for _, passed, failed in others)


def test_runs_of_different_methods_share_one_stream(monkeypatch):
    # at the trainer level any runs whose draws agree share a stream; er
    # and uer on one seed make one registration, one retrieval and one
    # buffer update per step
    cfg = _config(None, ["uer"])
    dataset = build_dataset(cfg.dataset, 0)
    methods = [uer_method(hidden_dims=(16,), buffer_capacity=30),
               er_method(hidden_dims=(16,), buffer_capacity=30)]
    updates = _count(monkeypatch, uer.trainer, "buffer_update")
    retrievals = _count(monkeypatch, uer.trainer, "buffer_retrieve")
    outcomes = run_trajectories(lambda _seed: dataset, [(m, 0) for m in methods], cfg.stream)
    monkeypatch.undo()
    assert len(updates) == len(retrievals) == STEPS
    for method, outcome in zip(methods, outcomes):
        (alone,) = legacy_step.run_seed_group(lambda _seed: dataset, method, cfg.stream, [0])
        assert _metrics_bytes(outcome) == _metrics_bytes(alone)
        assert outcome.steps == alone.steps
        assert all(isinstance(s, StepRecord) for s in outcome.steps)


def test_a_failed_build_fails_every_run_of_its_stream_and_is_retried():
    cfg = _config(None, ["uer"])
    methods = [uer_method(hidden_dims=(16,), buffer_capacity=30, name=n) for n in "ab"]
    methods.append(uer_method(hidden_dims=(8,), buffer_capacity=30, name="c"))
    calls = []

    def dataset_for(seed):
        calls.append(seed)
        if len(calls) == 1:
            raise ValueError("flaky build")
        return build_dataset(cfg.dataset, seed)
    outcomes = run_trajectories(dataset_for, [(m, 0) for m in methods], cfg.stream)
    assert [str(o) for o in outcomes[:2]] == ["flaky build"] * 2
    assert outcomes[2].method == "c" and calls == [0, 0]


@pytest.mark.parametrize("order", [["uer", "er", "uer-a", "finetune"],
                                   ["finetune", "er", "lucir", "uer"]])
def test_run_grid_yields_jobs_in_job_order(tmp_path, monkeypatch, order):
    cfg = _config(tmp_path, order, seeds="0,1")
    builds = _count(monkeypatch, uer.cli, "build_dataset")
    grid = list(run_grid(cfg, _jobs(cfg), echo=lambda *a, **k: None))
    assert [method.name for method, _, _ in grid] == order
    assert all([r.seed for r in passed] == [0, 1] and not failed for _, passed, failed in grid)
    assert len(builds) == 2 * 3  # three rounds of two seeds
