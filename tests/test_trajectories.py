"""Runs on shared trajectories against the per-method runner they replace.

run_grid puts the runs of one seed whose methods agree on the network
widths, buffer capacity and replay switch on one stream: one rng, one
buffer, one registration and retrieval per step, with only the parameters
per run. No draw depends on a method's scoring rules, so every run must
give the very same metrics bytes and losses as
legacy_step.run_seed_group, which trains each method's seeds with streams
of their own, and every failure must read the same.
"""

import json

import numpy as np
import pytest

import legacy_step
from conftest import losses_of
import uer.cli
import uer.trainer
from uer import RunGroup, init_run
from uer.cli import run_grid, sweep_jobs, table1_jobs
from uer.config import build_dataset, parse_config_text
from uer.evaluation import stage_metrics_to_dict
from uer.numeric import make_rng
from uer.trainer import er_method, run_trajectories, uer_method

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
            assert result.losses.tobytes() == losses_of(want.steps).tobytes()
    return grid


def _count(monkeypatch, module, attr):
    calls = []
    real = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, attr, counted)
    return calls


def _registrations(monkeypatch):
    """(stream, count of labels added) of every register_classes call."""
    calls = []
    real = uer.trainer.register_classes

    def counted(stream, labels, rng):
        added = real(stream, labels, rng)
        calls.append((stream, len(added)))
        return added
    monkeypatch.setattr(uer.trainer, "register_classes", counted)
    return calls


def _assert_lookups_stop_once_registered(registrations, streams, stages=3, per_stage=2):
    """Each of the streams registers every class, and looks a batch up only
    while its stage has a class left to register: a stage's first call
    adds a class, and a call that adds none comes before its last one."""
    by_stream: dict[int, list[int]] = {}
    for stream, added in registrations:
        by_stream.setdefault(id(stream), []).append(added)
    assert len(by_stream) == streams
    for counts in by_stream.values():
        registered = 0
        for added in counts:
            assert added or registered % per_stage, "a registered stage's batch was looked up"
            registered += added
        assert registered == stages * per_stage


def test_all_five_presets_match_per_method_groups(tmp_path, monkeypatch):
    cfg = _config(tmp_path, ["uer", "uer-a", "er", "lucir", "finetune"])
    registrations = _registrations(monkeypatch)
    builds = _count(monkeypatch, uer.cli, "build_dataset")
    _assert_grid_matches_oracle(cfg, _jobs(cfg))
    monkeypatch.undo()
    # uer, uer-a and lucir share a stream per seed; er and finetune keep
    # their own: 9 streams instead of 15, each registering its classes once
    _assert_lookups_stop_once_registered(registrations, 9)
    assert [args[1] for args in builds] == [0, 1, 2] * 3


def _parts(monkeypatch, cfg):
    """run_grid over cfg's jobs: the method names of each train_step's
    group and of each part's fused step, in run order."""
    rounds, parts = [], []
    for name, names in (("train_step", rounds), ("_descend", parts)):
        def named(group, *args, _real=getattr(uer.trainer, name), _names=names):
            _names.append(tuple(run.method.name for run in group.runs))
            return _real(group, *args)
        monkeypatch.setattr(uer.trainer, name, named)
    list(run_grid(cfg, _jobs(cfg), echo=lambda *a, **k: None))
    monkeypatch.undo()
    return rounds, parts


def test_each_round_takes_one_fused_step_per_group_step(tmp_path, monkeypatch):
    # uer, uer-a and lucir take different loss branches, yet each step of
    # their round is one part, its runs in the order they were built. er
    # (joint batch) and finetune (no replay) train in rounds of their own.
    rounds, parts = _parts(monkeypatch, _config(tmp_path,
                                                ["uer", "uer-a", "er", "lucir", "finetune"]))
    assert parts == rounds  # one part per step, holding every run of the round
    assert len(rounds) == 3 * STEPS
    assert set(rounds) == {("uer", "uer-a", "lucir") * 3, ("er",) * 3, ("finetune",) * 3}


def test_presets_in_reverse_match_per_method_groups(tmp_path, monkeypatch):
    # the shared round's part starts with lucir's cosine-only slices, and
    # every run still matches the oracle byte for byte
    cfg = _config(tmp_path, ["finetune", "lucir", "er", "uer-a", "uer"])
    rounds, _ = _parts(monkeypatch, cfg)
    assert ("lucir", "uer-a", "uer") * 3 in rounds
    _assert_grid_matches_oracle(cfg, _jobs(cfg))


# uer, lucir at lr 0.05, and two custom methods: g4 at gamma 4, and g16 at
# gamma 16 with lr 0.02
MIXED_GAMMA_LR = """\
method.lucir.lr = 0.05
method.g4.learn = cosine
method.g4.replay = mixed
method.g4.test = dot
method.g4.gamma = 4
method.g16.learn = dot
method.g16.replay = cosine
method.g16.test = cosine
method.g16.gamma = 16
method.g16.lr = 0.02
"""


def test_methods_apart_in_gamma_or_lr_step_apart_and_match_per_method_groups(tmp_path,
                                                                              monkeypatch):
    # the four methods share each seed's stream and round, but a part holds
    # one gamma and one lr, so each method's seeds take a fused step of
    # their own
    cfg = _config(tmp_path, ["uer", "lucir", "g4", "g16"], seeds="0,1", extra=MIXED_GAMMA_LR)
    rounds, parts = _parts(monkeypatch, cfg)
    assert set(rounds) == {("uer", "uer", "lucir", "lucir", "g4", "g4", "g16", "g16")}
    assert len(rounds) == STEPS
    assert parts == [(name, name) for name in ("uer", "lucir", "g4", "g16")] * STEPS
    _assert_grid_matches_oracle(cfg, _jobs(cfg))


def test_presets_and_subcommand_grids_share_one_gamma_and_lr(tmp_path):
    # every preset, table1 triple and sweep-alpha job of a default config
    # steps in one part with the others of its stream; a job with its own
    # gamma or lr would split the parts the benchmark workloads run
    cfg = _config(tmp_path, ["uer", "uer-a", "er", "lucir", "finetune"])
    methods = [*cfg.methods, *(m for m, _ in table1_jobs(cfg, 30)),
               *(m for m, _ in sweep_jobs(cfg.methods[0], cfg, [a / 10 for a in range(11)]))]
    assert {(m.gamma, m.lr) for m in methods} == {(10.0, 0.1)}
    source = build_dataset(cfg.dataset, 0).train
    runs = [init_run(m, source, make_rng(0)) for m in methods]
    (part,) = RunGroup(runs).parts
    assert part.runs == runs


def test_table1_grid_matches_per_method_groups(tmp_path, monkeypatch):
    cfg = _config(tmp_path, ["uer"])
    registrations = _registrations(monkeypatch)
    _assert_grid_matches_oracle(cfg, table1_jobs(cfg, 30))
    monkeypatch.undo()
    _assert_lookups_stop_once_registered(registrations, 3)  # 8 triples x 3 seeds


def test_the_built_in_table1_grid_splits_a_part_and_matches_per_method_groups(tmp_path,
                                                                             monkeypatch):
    # table1's own config (seeds 0-2, 5 classes per stage): the step shapes
    # of its seeds diverge inside a part, so the multi-part split runs
    text = uer.cli._TABLE1_CONFIG.replace("results/table1", str(tmp_path / "out"))
    cfg = parse_config_text(text)
    assert cfg.out_dir == str(tmp_path / "out")
    parts = []
    real = uer.trainer._Part.split

    def split(self, keys):
        pieces = real(self, keys)
        parts.append(len(pieces))
        return pieces
    monkeypatch.setattr(uer.trainer._Part, "split", split)
    _assert_grid_matches_oracle(cfg, table1_jobs(cfg, 200))
    assert max(parts) > 1


def test_eleven_value_alpha_sweep_matches_per_method_groups(tmp_path, monkeypatch):
    cfg = _config(tmp_path, ["uer"])
    registrations = _registrations(monkeypatch)
    _assert_grid_matches_oracle(cfg, sweep_jobs(cfg.methods[0], cfg,
                                                [a / 10 for a in range(11)]))
    monkeypatch.undo()
    _assert_lookups_stop_once_registered(registrations, 3)  # 33 runs


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
        assert outcome.losses.dtype == np.float64 and outcome.losses.shape == (STEPS, 2)
        assert outcome.losses.tobytes() == losses_of(alone.steps).tobytes()


def test_each_trajectory_splits_its_stages_once_through_the_traced_name(monkeypatch):
    # the benchmark's tracer wraps uer.trainer.build_stages: every
    # trajectory makes its one stage split through that name
    cfg = _config(None, ["uer"])
    datasets = {seed: build_dataset(cfg.dataset, seed) for seed in (0, 1)}
    runs = [(method, seed) for seed in (0, 1)
            for method in (uer_method(hidden_dims=(16,), buffer_capacity=30),
                           er_method(hidden_dims=(16,), buffer_capacity=30))]
    splits = _count(monkeypatch, uer.trainer, "build_stages")
    outcomes = run_trajectories(datasets.__getitem__, runs, cfg.stream)
    monkeypatch.undo()
    assert all(isinstance(o, uer.trainer.ExperimentResult) for o in outcomes)
    assert len({uer.trainer.trajectory_key(method, seed) for method, seed in runs}) == 2
    assert len(splits) == 2
    assert all(args[0] is datasets[seed] for args, seed in zip(splits, (0, 1)))


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
