"""Command-line driver: subcommands, outputs, exit codes, overrides."""

import argparse
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import legacy_eval
import uer.cli
import uer.config
import uer.evaluation
from conftest import blas_versions, child_env
from uer.cli import _apply_flag_overrides, build_parser, main, run_config, sweep_jobs, \
    table1_jobs
from uer.config import build_dataset, parse_config_text
from uer.evaluation import read_metrics, stage_metrics_to_dict
from uer.logits import LogitMode, score_block
from uer.stream import LabeledData, save_csv_dataset
from uer.trainer import TABLE1_GRID, run_experiment, triple_method

SMALL = """\
dataset.kind = synthetic
dataset.classes = 4
dataset.input_dim = 6
dataset.train_per_class = 40
dataset.test_per_class = 10
stream.stages = 2
stream.classes_per_stage = 2
run.methods = uer,finetune
run.seeds = 0,1
run.out = {out}
method.uer.hidden = 8
method.uer.buffer = 50
method.finetune.hidden = 8
"""

UER_ONLY = """\
dataset.kind = synthetic
dataset.classes = 4
dataset.input_dim = 6
dataset.train_per_class = 40
dataset.test_per_class = 10
stream.stages = 2
stream.classes_per_stage = 2
run.methods = uer
run.seeds = 0
run.out = {out}
method.uer.hidden = 8
method.uer.buffer = 50
"""

FIVE_PRESETS = SMALL.replace("uer,finetune", "uer,uer-a,er,lucir,finetune") + "".join(
    f"method.{m}.hidden = 8\nmethod.{m}.buffer = 50\n" for m in ("uer-a", "er", "lucir"))


CSV = """\
dataset.kind = csv
dataset.train_csv = {data}/train.csv
dataset.test_csv = {data}/test.csv
stream.stages = {stages}
stream.classes_per_stage = {per_stage}
run.methods = {methods}
run.seeds = {seeds}
run.out = {out}
"""


def write_csv_config(tmp_path, methods="uer,er", seeds="0,1", stages=2, name="csv.cfg",
                     test_classes=(0, 1, 2, 3)):
    """Four classes in 3 dimensions, 20 train and 5 test rows per class;
    the test file holds only test_classes."""
    rng = np.random.default_rng(5)
    means = 3.0 * rng.standard_normal((4, 3))
    for file, per_class, classes in (("train.csv", 20, range(4)),
                                     ("test.csv", 5, test_classes)):
        y = np.repeat(list(classes), per_class)
        save_csv_dataset(tmp_path / file, LabeledData(means[y] + rng.standard_normal((len(y), 3)), y))
    out = tmp_path / f"{name}.out"
    path = tmp_path / name
    path.write_text(CSV.format(data=tmp_path, stages=stages, per_stage=4 // stages,
                               methods=methods, seeds=seeds, out=out)
                    + "".join(f"method.{m}.hidden = 8\nmethod.{m}.buffer = 50\n"
                              for m in methods.split(",")))
    return path, out


def count_calls(monkeypatch, module, attr):
    """Wrap module.attr so every call is counted; returns the count list."""
    calls = []
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, attr, counted)
    return calls


def write_config(tmp_path, text=SMALL, name="exp.cfg"):
    out = tmp_path / "results"
    path = tmp_path / name
    path.write_text(text.format(out=out))
    return path, out


# ----------------------------------------------------------------- run


def test_run_writes_metrics_and_summary(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "finetune_seed0.metrics.jsonl",
        "finetune_seed1.metrics.jsonl",
        "summary.json",
        "uer_seed0.metrics.jsonl",
        "uer_seed1.metrics.jsonl",
    ]
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["methods"]) == {"uer", "finetune"}
    uer_info = summary["methods"]["uer"]
    assert set(uer_info["per_seed"]) == {"0", "1"}
    values = list(uer_info["per_seed"].values())
    assert uer_info["mean"] == pytest.approx(sum(values) / 2)
    assert len(uer_info["files"]) == 2
    # metrics files parse and hold one record per stage
    for name in files:
        if name.endswith(".jsonl"):
            assert len(read_metrics(out / name)) == 2
    shown = capsys.readouterr().out
    assert "uer" in shown and "finetune" in shown


def test_run_reproduces_every_output_byte(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["run", "--config", str(cfg_path)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


# sha256 of each metrics file an invocation writes, keyed by command and
# file name: the five presets on SMALL's stream, and table1 on UER_ONLY's
# with --buffer 50. Pinned on NumPy 2.4.6 with scipy-openblas 0.3.31,
# where the bitwise premises hold.
PINNED_METRICS = {
    "run/er_seed0.metrics.jsonl":
        "76d27ae5167733aee8533168a37a5a2916910c94729cc6be451e79de9d95db04",
    "run/er_seed1.metrics.jsonl":
        "dd83c324dc6696b418c560a6b7507fab953e28b4ea785c63356d1c488d9242e6",
    "run/finetune_seed0.metrics.jsonl":
        "f22dc1441d3b7704b2fa6bf77fb737e63716f10fd157eebff3f0a80c7d264a30",
    "run/finetune_seed1.metrics.jsonl":
        "76b5a2adb7461833db8bc88af0b572123ddbd8d17fcd7e337e54f3b02cae0f90",
    "run/lucir_seed0.metrics.jsonl":
        "37f9342e79b09b18f50c2293911f1f5486c3514708c1692f876db564cd2f9d03",
    "run/lucir_seed1.metrics.jsonl":
        "12b140c939efa31738ff98826585ea94a2275a525ff05f44899cd0a22a71486d",
    "run/uer-a_seed0.metrics.jsonl":
        "10cbc9d994b9763c6be3a2c5f10b445c0000062c066b5737c0238a0996034517",
    "run/uer-a_seed1.metrics.jsonl":
        "f45c9fb9d4dfbf9edcc999cac73b654328d782390e8b15e116b3be7a6829de10",
    "run/uer_seed0.metrics.jsonl":
        "73ba870dc4df1cf0c6e91b151bb8bbc50048c0979870ca00a28a5bfaf8ee665c",
    "run/uer_seed1.metrics.jsonl":
        "5db50f91f039a950266ccab80d157a42b60af1c063725febdc21229e5125a2e9",
    "table1/cosine-cosine-cosine_seed0.metrics.jsonl":
        "37f9342e79b09b18f50c2293911f1f5486c3514708c1692f876db564cd2f9d03",
    "table1/cosine-cosine-dot_seed0.metrics.jsonl":
        "b2fc175f6056340f2bfe70ca79efaf69371ea0f89b89fad5c4f63d507f16ac1d",
    "table1/cosine-dot-cosine_seed0.metrics.jsonl":
        "a3bfe2b57443b5cebec73a9da710edde2169200380e10d9dbce82e1adc31a417",
    "table1/cosine-dot-dot_seed0.metrics.jsonl":
        "10cbc9d994b9763c6be3a2c5f10b445c0000062c066b5737c0238a0996034517",
    "table1/dot-cosine-cosine_seed0.metrics.jsonl":
        "8a61b1c984e1a69c1acdd8065507f7b72733efba1066fe46951c38f42dd6ff61",
    "table1/dot-cosine-dot_seed0.metrics.jsonl":
        "5b530576f0aff1011c9875c5ea18b9c7e9c556c32a0050c53f63c6b4064fa088",
    "table1/dot-dot-cosine_seed0.metrics.jsonl":
        "02ae31733d1ccf1ae4b90a221fc006743dc6e163012840962c105ce8aab5cc42",
    "table1/dot-dot-dot_seed0.metrics.jsonl":
        "c710d6a30d8b6522a5c88788431ca986a0f8130afdc268b543f4d15f98266c99",
}


def test_metrics_bytes_equal_pinned_digests(tmp_path, capsys):
    # every oracle steps through the live loss_rows, so a change that moved
    # its bits would pass them all: absolute bytes catch it
    got = {}
    for command, text, flags in (("run", FIVE_PRESETS, []),
                                 ("table1", UER_ONLY, ["--buffer", "50"])):
        (tmp_path / command).mkdir()
        cfg_path, out = write_config(tmp_path / command, text)
        assert main([command, "--config", str(cfg_path), *flags]) == 0
        for path in sorted(out.glob("*.metrics.jsonl")):
            got[f"{command}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    capsys.readouterr()
    assert got == PINNED_METRICS, f"metrics bytes moved on this build ({blas_versions()})"


# Three stages of two classes, ten seeds of uer and er; seed 9 fails to
# build its data, so every table averages nine passing runs, the count
# from which NumPy's pairwise mean sums in another order than a loop.
OUTPUT_CONFIG = """\
dataset.kind = synthetic
dataset.classes = 6
dataset.input_dim = 6
dataset.train_per_class = 20
dataset.test_per_class = 5
stream.stages = 3
stream.classes_per_stage = 2
run.methods = uer,er
run.seeds = 0,1,2,3,4,5,6,7,8,9
run.out = {out}
method.uer.hidden = 8
method.uer.buffer = 30
method.er.hidden = 8
method.er.buffer = 30
"""

# sha256 of what each subcommand prints and of each summary file it
# writes on OUTPUT_CONFIG, with the output directory written as <out>.
# Pinned on NumPy 2.4.6 with scipy-openblas 0.3.31, as PINNED_METRICS is.
PINNED_OUTPUTS = {
    "diag/stderr":
        "b9b05d61010c9d595a44e610e7726655451e0d42c58a9fe258c2761a684f939e",
    "diag/stdout":
        "95942643343f7d2f5edc388c41e5c20a370923a640cc96b3165ff4ae24aa2c3f",
    "diag/summary.json":
        "caa795ed80bf98d17dab260dfb7983c01f46c8854a219f5ccfbe88a16ee96b3d",
    "run/stderr":
        "b9b05d61010c9d595a44e610e7726655451e0d42c58a9fe258c2761a684f939e",
    "run/stdout":
        "510f65739993bf437b27e3b9d81bed294767def5ebf3b6cd31c568850d895969",
    "run/summary.json":
        "caa795ed80bf98d17dab260dfb7983c01f46c8854a219f5ccfbe88a16ee96b3d",
    "sweep-alpha/alpha_sweep.json":
        "5cd617fb45ba2db602a788de5c8c3b820b1d9272b58162371ba8f3ed06b90826",
    "sweep-alpha/stderr":
        "b06eab5eeefb4d921d8dcf0b2613c0f5be8547149d98f6134f162a9a816fb4a7",
    "sweep-alpha/stdout":
        "ceb569857f32a6ef5a51441317e11664e1bb433fe1a23188be0068cf165e8ba2",
    "table1/stderr":
        "c9268e2bbfdb40dbceaedcab2536734076421ea4756481dd1a9c5e6d4fa1a875",
    "table1/stdout":
        "46fe0d0e503db5a69af16206b0aca0a9955d532bf141caba82f1b019b676a99a",
}


def test_subcommand_outputs_equal_pinned_digests(tmp_path, capsys, monkeypatch):
    real = uer.cli.build_dataset

    def build(spec, seed):
        if seed == 9:
            raise ValueError("no data for seed 9")
        return real(spec, seed)
    monkeypatch.setattr(uer.cli, "build_dataset", build)
    got = {}
    for command, flags in (("run", []), ("diag", []), ("sweep-alpha", ["--alpha", "0,0.5,1"]),
                           ("table1", ["--buffer", "30"])):
        (tmp_path / command).mkdir()
        cfg_path, out = write_config(tmp_path / command, OUTPUT_CONFIG)
        assert main([command, "--config", str(cfg_path), *flags]) == 2
        captured = capsys.readouterr()
        texts = {"stdout": captured.out, "stderr": captured.err}
        texts.update((p.name, p.read_text()) for p in out.glob("*.json"))
        for name, text in texts.items():
            text = text.replace(str(out), "<out>")
            got[f"{command}/{name}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert got == PINNED_OUTPUTS, f"output bytes moved on this build ({blas_versions()})"


def _cosine_in_the_old_order(pp, H, modes, scale=None, ws=None):
    """score_block with its cosine block rounded as stage scoring rounded
    it before it shared training's kernel: (gamma * S) / den."""
    if modes == (LogitMode.COSINE,):
        return legacy_eval.cosine_logits_batch(pp, H, scale, ws)[None], None
    return score_block(pp, H, modes, scale, ws)


def test_cosine_scores_in_training_order_move_only_cosine_tested_posteriors(
        tmp_path, capsys, monkeypatch):
    # every output byte of the five presets and of table1 is as the old
    # cosine rounding order gave it, except in cosine-tested runs (lucir,
    # the *-cosine triples), where only avg_posterior may move, and by at
    # most 1e-15 per entry
    moved = set()
    for command, text, flags in (("run", FIVE_PRESETS, []),
                                 ("table1", UER_ONLY, ["--buffer", "50"])):
        (tmp_path / command).mkdir()
        cfg_path, out = write_config(tmp_path / command, text)
        with monkeypatch.context() as patch:
            patch.setattr(uer.evaluation, "score_block", _cosine_in_the_old_order)
            assert main([command, "--config", str(cfg_path), *flags]) == 0
        old = {path.name: path.read_bytes() for path in out.iterdir()}
        assert main([command, "--config", str(cfg_path), *flags]) == 0
        new = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(new) == sorted(old)
        for name, data in new.items():
            if data == old[name]:
                continue
            assert name.startswith("lucir_") or name.endswith("-cosine_seed0.metrics.jsonl"), name
            moved.add(f"{command}/{name}")
            assert data.count(b"\n") == old[name].count(b"\n")
            for got, want in zip(*(map(json.loads, d.splitlines()) for d in (data, old[name]))):
                post, was = got.pop("avg_posterior"), want.pop("avg_posterior")
                assert got == want
                assert np.max(np.abs(np.subtract(post, was))) <= 1e-15
    capsys.readouterr()
    assert moved  # the two orders differ on these runs, so the check has teeth


def test_run_failure_exit_code(tmp_path, capsys):
    # 4-class dataset cannot fill 5 stages x 2 classes: every run fails
    text = SMALL.replace("stream.stages = 2", "stream.stages = 5")
    cfg_path, out = write_config(tmp_path, text)
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "FAILED" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["methods"]["uer"]["mean"] is None
    assert summary["methods"]["uer"]["per_seed"] == {}


def test_stage_without_test_rows_fails_before_training(tmp_path, capsys, monkeypatch):
    # 4 stages x 1 class; the test file has no rows of class 2
    cfg_path, out = write_csv_config(tmp_path, stages=4, test_classes=(0, 1, 3))
    steps = count_calls(monkeypatch, uer.trainer, "train_step")
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    failed = [line for line in err.splitlines() if line.startswith("FAILED")]
    assert len(failed) == 4, err
    for line in failed:
        assert re.search(r": stage \d \(classes 2\) has no test rows$", line), line
    assert steps == []
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


@pytest.mark.parametrize("command", [["run"], ["table1"], ["sweep-alpha", "--alpha", "0,1"]])
def test_non_finite_config_value_exits_1_before_any_step(tmp_path, capsys, monkeypatch,
                                                         command):
    # gamma = inf used to parse, then fail every run at its first step
    text = SMALL + "method.uer.gamma = inf\n"
    cfg_path, out = write_config(tmp_path, text)
    builds = count_calls(monkeypatch, uer.cli, "build_dataset")
    steps = count_calls(monkeypatch, uer.trainer, "train_step")
    assert main([command[0], "--config", str(cfg_path), *command[1:]]) == 1
    lineno = text.format(out=out).count("\n")
    assert capsys.readouterr().err == (f"config error: line {lineno}: key method.uer.gamma: "
                                       "must be finite, got 'inf'\n")
    assert builds == [] and steps == []
    assert not out.exists()


# ------------------------------------------------------------- csv reuse


def test_csv_runs_in_one_invocation_match_separate_invocations(tmp_path):
    cfg_path, out = write_csv_config(tmp_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    for method in ("uer", "er"):
        for seed in (0, 1):
            alone, alone_out = write_csv_config(tmp_path, methods=method, seeds=str(seed),
                                                name=f"{method}{seed}.cfg")
            assert main(["run", "--config", str(alone)]) == 0
            name = f"{method}_seed{seed}.metrics.jsonl"
            assert (out / name).read_bytes() == (alone_out / name).read_bytes()


@pytest.mark.parametrize("command", [["run"], ["sweep-alpha", "--alpha", "0,1"],
                                     ["table1"]])
def test_csv_input_is_parsed_once_per_invocation(tmp_path, monkeypatch, command):
    cfg_path, _ = write_csv_config(tmp_path)
    loads = count_calls(monkeypatch, uer.config, "load_csv_dataset")
    assert main([command[0], "--config", str(cfg_path), *command[1:]]) == 0
    assert [Path(args[0]).name for args in loads] == ["train.csv", "test.csv"]


def test_synthetic_data_is_built_once_per_stream(tmp_path, monkeypatch):
    # synthetic data depends on the seed: uer and lucir share each seed's
    # stream and its one build, finetune (no replay) has streams of its own
    text = SMALL.replace("run.methods = uer,finetune", "run.methods = uer,lucir,finetune") \
        + "method.lucir.hidden = 8\nmethod.lucir.buffer = 50\n"
    cfg_path, _ = write_config(tmp_path, text)
    builds = count_calls(monkeypatch, uer.cli, "build_dataset")
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert [args[1] for args in builds] == [0, 1, 0, 1]


def test_malformed_csv_fails_every_run(tmp_path, capsys, monkeypatch):
    cfg_path, out = write_csv_config(tmp_path)
    with open(tmp_path / "train.csv", "a", encoding="utf-8") as fh:
        fh.write("1,0.5,oops,0.5\n")
    loads = count_calls(monkeypatch, uer.config, "load_csv_dataset")
    assert main(["run", "--config", str(cfg_path)]) == 2
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("FAILED")]
    assert len(failed) == 4
    assert all("train.csv:81: invalid feature value" in line for line in failed)
    assert len(loads) == 4  # a failed parse is not reused: one attempt per stream


@pytest.mark.parametrize("case", ["wider", "new label"])
def test_test_csv_that_does_not_match_train_csv_fails_every_run(tmp_path, capsys, monkeypatch,
                                                                case):
    # a wider test file trained a whole stage and then failed at scoring;
    # a label only the test file has made a stage train on one class
    cfg_path, out = write_csv_config(tmp_path)
    test_csv = tmp_path / "test.csv"
    lines = test_csv.read_text().splitlines()
    if case == "wider":
        lines = [line + ",0.5" for line in lines]
        bad, reason = 1, "expected 3 features, got 4"
    else:
        lines[6] = "7" + lines[6][lines[6].index(","):]
        bad, reason = 7, "label 7 does not occur in the training data"
    test_csv.write_text("\n".join(lines) + "\n")
    steps = count_calls(monkeypatch, uer.trainer, "train_step")
    assert main(["run", "--config", str(cfg_path)]) == 2
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("FAILED")]
    assert len(failed) == 4
    assert all(line.endswith(f"{test_csv}:{bad}: {reason}") for line in failed), failed
    assert steps == []
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


def test_run_config_collects_results(tmp_path):
    cfg_path, out = write_config(tmp_path)
    cfg = parse_config_text(cfg_path.read_text())
    outcome = run_config(cfg, echo=lambda *a, **k: None)
    assert not outcome.failures
    assert set(outcome.results) == {("uer", 0), ("uer", 1),
                                    ("finetune", 0), ("finetune", 1)}
    for (name, seed), result in outcome.results.items():
        assert result.method == name and result.seed == seed


# ------------------------------------------------------------ overrides


def test_flag_overrides():
    cfg = parse_config_text(SMALL.format(out="results/x"))
    args = argparse.Namespace(seed="5,6", out="elsewhere", buffer=7)
    cfg2 = _apply_flag_overrides(cfg, args)
    assert cfg2.seeds == (5, 6)
    assert all(m.seeds is None for m in cfg2.methods)
    assert cfg2.out_dir == "elsewhere"
    by_name = {m.name: m for m in cfg2.methods}
    assert by_name["uer"].buffer_capacity == 7
    assert by_name["finetune"].buffer_capacity == 0  # replay-off methods keep 0


def test_seed_and_out_flags_drive_run(tmp_path):
    cfg_path, out = write_config(tmp_path)
    other = tmp_path / "override"
    assert main(["run", "--config", str(cfg_path), "--seed", "3",
                 "--out", str(other)]) == 0
    files = sorted(p.name for p in other.iterdir())
    assert files == ["finetune_seed3.metrics.jsonl", "summary.json",
                     "uer_seed3.metrics.jsonl"]
    assert not out.exists()  # the configured directory was never used


@pytest.mark.parametrize("command,flag,value", [
    ("run", "--seed", "a"), ("run", "--seed", "1,,2"), ("run", "--seed", "-1"),
    ("run", "--buffer", "-5"), ("table1", "--buffer", "-5"), ("diag", "--seed", "")])
def test_bad_flag_fails_early_with_exit_1(tmp_path, capsys, monkeypatch, command, flag, value):
    # these used to end in a traceback and exit 2, or fail every run at its first draw
    built = []
    monkeypatch.setattr(uer.cli, "build_dataset", lambda *a: built.append(a))
    cfg_path, out = write_config(tmp_path)
    assert main([command, "--config", str(cfg_path), flag, value]) == 1
    err = capsys.readouterr().err
    assert re.match(f"config error: {flag}: expected (a )?non-negative ", err), err
    assert "Traceback" not in err
    assert built == [] and not out.exists()


@pytest.mark.parametrize("line", ["run.seeds = -1", "method.uer.seeds = 0,-2"])
def test_negative_config_seed_fails_early_with_exit_1(tmp_path, capsys, monkeypatch, line):
    built = []
    monkeypatch.setattr(uer.cli, "build_dataset", lambda *a: built.append(a))
    text = SMALL.replace("run.seeds = 0,1", "") + line + "\n"
    lineno = text.rstrip("\n").count("\n") + 1
    cfg_path, out = write_config(tmp_path, text)
    assert main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {lineno}: key {line.split()[0]}: "), err
    assert built == [] and not out.exists()


@pytest.mark.parametrize("args,where", [
    ([], "line 9: key run.seeds"), ([], "line 14: key method.uer.seeds"),
    (["--seed", "3,1,3"], "--seed")])
def test_repeated_seed_fails_early_with_exit_1(tmp_path, capsys, monkeypatch, args, where):
    # run.seeds = 0,0,1 trained seed 0 twice, wrote its metrics file twice
    # and counted it twice in summary.json
    built = []
    monkeypatch.setattr(uer.cli, "build_dataset", lambda *a: built.append(a))
    text = SMALL
    if "run.seeds" in where:
        text = text.replace("run.seeds = 0,1", "run.seeds = 0,0,1")
    elif "method" in where:
        text += "method.uer.seeds = 2,5,2\n"
    cfg_path, out = write_config(tmp_path, text)
    assert main(["run", "--config", str(cfg_path), *args]) == 1
    err = capsys.readouterr().err
    repeated = {"--seed": 3, "line 9: key run.seeds": 0}.get(where, 2)
    assert err.startswith(f"config error: {where}: seed {repeated} appears more than once"), err
    assert built == [] and not out.exists()


# ---------------------------------------------------------- sweep-alpha


def test_sweep_alpha_outputs(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path, UER_ONLY)
    assert main(["sweep-alpha", "--config", str(cfg_path),
                 "--alpha", "0,0.5,1"]) == 0
    rows = json.loads((out / "alpha_sweep.json").read_text())
    assert [r["alpha"] for r in rows] == [0.0, 0.5, 1.0]
    for r in rows:
        assert set(r) == {"alpha", "mean_average_accuracy",
                          "mean_acc_previous", "mean_acc_current"}
    for alpha_tag in ("0", "0.5", "1"):
        assert (out / f"uer_alpha{alpha_tag}_seed0.metrics.jsonl").exists()
    shown = capsys.readouterr().out
    assert "alpha" in shown and shown.count("\n") >= 4


def test_sweep_alpha_zero_equals_pure_cosine_replay(tmp_path):
    # mixing weight 0 must reproduce a plain cosine-replay triple bit for bit
    cfg_path, out = write_config(tmp_path, UER_ONLY)
    assert main(["sweep-alpha", "--config", str(cfg_path), "--alpha", "0"]) == 0
    swept = read_metrics(out / "uer_alpha0_seed0.metrics.jsonl")

    cfg = parse_config_text(cfg_path.read_text())
    dataset = build_dataset(cfg.dataset, 0)
    method = triple_method("ccd", "cosine", "cosine", "dot",
                           buffer_capacity=50, hidden_dims=(8,))
    direct = run_experiment(dataset, method, cfg.stream, 0)
    assert swept == [stage_metrics_to_dict(m) for m in direct.metrics]


def test_sweep_alpha_needs_uer(tmp_path, capsys):
    text = UER_ONLY.replace("run.methods = uer", "run.methods = finetune") \
                   .replace("method.uer.hidden = 8\n", "") \
                   .replace("method.uer.buffer = 50\n", "")
    cfg_path, _ = write_config(tmp_path, text)
    assert main(["sweep-alpha", "--config", str(cfg_path), "--alpha", "0.5"]) == 1
    assert "uer" in capsys.readouterr().err


def test_sweep_alpha_bad_list(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    assert main(["sweep-alpha", "--config", str(cfg_path), "--alpha", "0,x"]) == 1
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("alphas", ["0.5,2", "nan", "0.5,-0.1", "inf"])
def test_sweep_alpha_out_of_range_is_usage_error_before_training(tmp_path, capsys, alphas):
    # the valid 0.5 must not train and write files before the bad value
    cfg_path, out = write_config(tmp_path, UER_ONLY)
    assert main(["sweep-alpha", "--config", str(cfg_path), "--alpha", alphas]) == 1
    assert "alpha" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("alphas,first,second,run", [
    ("0.5,0.5", "0.5", "0.5", "uer_alpha0.5"),
    ("0,0.3,0.30", "0.3", "0.30", "uer_alpha0.3"),
    ("0.1234567,0.1234568", "0.1234567", "0.1234568", "uer_alpha0.123457")])
def test_sweep_alpha_values_that_name_one_run_are_rejected(tmp_path, capsys, monkeypatch,
                                                          alphas, first, second, run):
    # both wrote one metrics file, the second over the first
    built = []
    monkeypatch.setattr(uer.cli, "build_dataset", lambda *a: built.append(a))
    cfg_path, out = write_config(tmp_path, UER_ONLY)
    assert main(["sweep-alpha", "--config", str(cfg_path), "--alpha", alphas]) == 1
    err = capsys.readouterr().err
    assert f"--alpha values '{first}' and '{second}' both name the run {run}" in err, err
    assert built == [] and not out.exists()


def _append_malformed_row(tmp_path):
    with open(tmp_path / "train.csv", "a", encoding="utf-8") as fh:
        fh.write("1,0.5,oops,0.5\n")


def _fail_seed_one(monkeypatch):
    """Make building the data of seed 1 fail; seed 0 builds as usual."""
    real = uer.cli.build_dataset

    def build(spec, seed):
        if seed == 1:
            raise ValueError("no data for seed 1")
        return real(spec, seed)
    monkeypatch.setattr(uer.cli, "build_dataset", build)


def test_sweep_alpha_reports_each_failed_run(tmp_path, capsys):
    cfg_path, out = write_csv_config(tmp_path, methods="uer")
    _append_malformed_row(tmp_path)
    assert main(["sweep-alpha", "--config", str(cfg_path), "--alpha", "0,1"]) == 2
    err = capsys.readouterr().err
    failed = [line for line in err.splitlines() if line.startswith("FAILED")]
    assert failed == [f"FAILED uer_alpha{a} seed {s}: {tmp_path / 'train.csv'}:81: "
                      f"invalid feature value" for a in (0, 1) for s in (0, 1)]
    assert "Traceback" not in err
    assert json.loads((out / "alpha_sweep.json").read_text()) == []


def test_sweep_alpha_averages_the_runs_that_passed(tmp_path, capsys, monkeypatch):
    cfg_path, out = write_config(tmp_path, UER_ONLY.replace("run.seeds = 0", "run.seeds = 0,1"))
    _fail_seed_one(monkeypatch)
    assert main(["sweep-alpha", "--config", str(cfg_path), "--alpha", "0.5"]) == 2
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("FAILED")]
    assert failed == ["FAILED uer_alpha0.5 seed 1: no data for seed 1"]
    last = read_metrics(out / "uer_alpha0.5_seed0.metrics.jsonl")[-1]
    (row,) = json.loads((out / "alpha_sweep.json").read_text())
    assert row == {"alpha": 0.5, "mean_average_accuracy": last["average_accuracy"],
                   "mean_acc_previous": last["acc_previous"],
                   "mean_acc_current": last["acc_current"]}
    assert not (out / "uer_alpha0.5_seed1.metrics.jsonl").exists()



def _reject_nan(constant):
    raise AssertionError(f"{constant} is not JSON")


def test_a_one_stage_stream_writes_null_and_prints_na(tmp_path, capsys):
    # one stage has no previous classes: alpha_sweep.json held NaN, which a
    # strict JSON parser rejects, and the sweep-alpha and table1 tables printed nan
    text = UER_ONLY.replace("stream.stages = 2", "stream.stages = 1") \
        .replace("stream.classes_per_stage = 2", "stream.classes_per_stage = 4")
    cfg_path, out = write_config(tmp_path, text)
    assert main(["sweep-alpha", "--config", str(cfg_path), "--alpha", "0.5"]) == 0
    (row,) = json.loads((out / "alpha_sweep.json").read_text(), parse_constant=_reject_nan)
    last = read_metrics(out / "uer_alpha0.5_seed0.metrics.jsonl")[-1]
    assert "acc_previous" not in last
    assert row == {"alpha": 0.5, "mean_average_accuracy": last["average_accuracy"],
                   "mean_acc_previous": None, "mean_acc_current": last["acc_current"]}
    assert capsys.readouterr().out.splitlines()[1].split() == [
        "0.5", f"{last['average_accuracy']:.4f}", "n/a", f"{last['acc_current']:.4f}"]
    assert main(["table1", "--config", str(cfg_path), "--buffer", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == len(TABLE1_GRID)
    # A_prev, |W_p|, w_p and b_p have no previous classes to average
    assert all([line.split()[i] for i in (4, 6, 8, 10)] == ["n/a"] * 4 for line in lines)


def test_run_divergence_names_stage_and_step(tmp_path, capsys):
    # the tiny synthetic configs above do not diverge (their ReLUs die)
    text = ("dataset.kind = split-gauss-10\nstream.stages = 5\nstream.classes_per_stage = 2\n"
            "run.methods = uer\nrun.seeds = 0\nrun.out = {out}\n"
            "method.uer.hidden = 16\nmethod.uer.lr = 100\n")
    cfg_path, out = write_config(tmp_path, text)
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"FAILED uer seed 0: stage \d+, step \d+: .*non-finite", err), err


def test_collapsed_features_fail_the_run_and_spare_its_stream(tmp_path, capsys):
    # with two hidden layers of 8, the step size 100 leaves uer with zero
    # features on every stage-1 test row: its scores no longer depend on
    # the input. (With one layer of 8 the features blow up instead, and
    # never all reach zero.) lucir follows the same stream, untouched.
    lucir = "method.lucir.hidden = 8,8\nmethod.lucir.buffer = 50\n"
    text = UER_ONLY.replace("run.methods = uer", "run.methods = uer,lucir") \
        .replace("method.uer.hidden = 8", "method.uer.hidden = 8,8") \
        + "method.uer.lr = 100\n" + lucir
    cfg_path, out = write_config(tmp_path, text)
    assert main(["run", "--config", str(cfg_path)]) == 2
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("FAILED")]
    assert failed == ["FAILED uer seed 0: stage 1: features collapsed: all 20 scored test "
                      "rows have zero features"]
    assert not (out / "uer_seed0.metrics.jsonl").exists()
    alone = UER_ONLY.split("method.")[0].replace("run.methods = uer", "run.methods = lucir")
    alone_path, _ = write_config(tmp_path, alone + lucir, "alone.cfg")
    alone_out = tmp_path / "alone"
    assert main(["run", "--config", str(alone_path), "--out", str(alone_out)]) == 0
    assert (out / "lucir_seed0.metrics.jsonl").read_bytes() == \
        (alone_out / "lucir_seed0.metrics.jsonl").read_bytes()


# --------------------------------------------------------------- table1


def test_table1_prints_grid(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path, UER_ONLY)
    assert main(["table1", "--config", str(cfg_path), "--buffer", "50"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 1 + len(TABLE1_GRID)
    assert lines[0].split()[:3] == ["learn", "replay", "test"]
    for (learn, replay, test), line in zip(TABLE1_GRID, lines[1:]):
        assert line.split()[:3] == [learn, replay, test]
    for learn, replay, test in TABLE1_GRID:
        name = f"{learn}-{replay}-{test}"
        assert (out / f"{name}_seed0.metrics.jsonl").exists()


def test_table1_uses_configured_uer_settings(tmp_path, monkeypatch, capsys):
    text = UER_ONLY.replace("method.uer.hidden = 8", "method.uer.hidden = 5,3") \
        + "method.uer.lr = 0.05\nmethod.uer.gamma = 4.0\n"
    cfg_path, _ = write_config(tmp_path, text)
    calls = count_calls(monkeypatch, uer.cli, "run_trajectories")
    assert main(["table1", "--config", str(cfg_path), "--buffer", "30"]) == 0
    capsys.readouterr()
    methods = [method for args in calls for method, _seed in args[1]]
    assert [m.name for m in methods] == ["-".join(row) for row in TABLE1_GRID]
    for m in methods:
        assert (m.hidden_dims, m.lr, m.gamma, m.buffer_capacity) == ((5, 3), 0.05, 4.0, 30)


def test_table1_takes_the_uer_methods_seeds_as_sweep_alpha_does():
    # run.seeds = 0 and method.uer.seeds = 3,4: both grids train seeds 3
    # and 4, --seed overrides both, and with no uer method table1 takes
    # run.seeds
    cfg = parse_config_text(UER_ONLY.format(out="results/x") + "method.uer.seeds = 3,4\n")
    assert {seeds for _, seeds in table1_jobs(cfg, 30)} == {(3, 4)}
    assert {seeds for _, seeds in sweep_jobs(cfg.methods[0], cfg, [0.0, 1.0])} == {(3, 4)}
    flagged = _apply_flag_overrides(cfg, argparse.Namespace(seed="7", out=None, buffer=None))
    assert {seeds for _, seeds in table1_jobs(flagged, 30)} == {(7,)}
    assert {seeds for _, seeds in sweep_jobs(flagged.methods[0], flagged, [0.0])} == {(7,)}
    er_only = parse_config_text(UER_ONLY.replace("method.uer.", "method.er.")
                                .replace("run.methods = uer", "run.methods = er")
                                .format(out="results/x") + "method.er.seeds = 3,4\n")
    assert {seeds for _, seeds in table1_jobs(er_only, 30)} == {(0,)}


def test_table1_reports_each_failed_run(tmp_path, capsys):
    cfg_path, _ = write_csv_config(tmp_path, methods="uer")
    _append_malformed_row(tmp_path)
    assert main(["table1", "--config", str(cfg_path), "--buffer", "30"]) == 2
    captured = capsys.readouterr()
    failed = [line for line in captured.err.splitlines() if line.startswith("FAILED")]
    assert len(failed) == 2 * len(TABLE1_GRID)
    assert all(line.endswith("train.csv:81: invalid feature value") for line in failed)
    assert "Traceback" not in captured.err
    lines = [line for line in captured.out.splitlines() if line.strip()]
    assert len(lines) == 1 and lines[0].split()[:3] == ["learn", "replay", "test"]


def test_table1_averages_the_runs_that_passed(tmp_path, capsys, monkeypatch):
    cfg_path, out = write_config(tmp_path, UER_ONLY.replace("run.seeds = 0", "run.seeds = 0,1"))
    _fail_seed_one(monkeypatch)
    assert main(["table1", "--config", str(cfg_path), "--buffer", "30"]) == 2
    captured = capsys.readouterr()
    failed = [line for line in captured.err.splitlines() if line.startswith("FAILED")]
    assert failed == [f"FAILED {'-'.join(row)} seed 1: no data for seed 1"
                      for row in TABLE1_GRID]
    lines = [line for line in captured.out.splitlines() if line.strip()][1:]
    assert len(lines) == len(TABLE1_GRID)
    for row, line in zip(TABLE1_GRID, lines):
        m = read_metrics(out / f"{'-'.join(row)}_seed0.metrics.jsonl")[-1]
        expected = [m["average_accuracy"], m["acc_previous"], m["acc_current"]]
        assert line.split()[3:6] == [f"{v:.3f}" for v in expected]


# ----------------------------------------------------------------- diag


def test_diag_prints_per_stage_table(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    assert main(["diag", "--config", str(cfg_path)]) == 0
    shown = capsys.readouterr().out
    assert "uer (seed 0)" in shown
    assert "finetune (seed 0)" in shown
    assert "dW_L1" in shown
    assert "n/a" in shown  # stage 1 has no earlier-stage group


# ------------------------------------------------------------ exit codes


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_usage_error_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    assert main(["sweep-alpha", "--config", "x"]) == 1  # --alpha missing
    capsys.readouterr()


def test_config_error_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "config error" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("dataset.kind = nope\nrun.methods = uer\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_parser_rejects_unknown_flag():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--config", "x", "--frobnicate"])


def test_console_entry_wiring(tmp_path):
    # entry() wires argv through main() and exits with its return code
    cfg_path, out = write_config(tmp_path)
    # the child runs in tmp_path, where a relative PYTHONPATH (such as
    # "src" in a source checkout) no longer resolves
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-c", "from uer.cli import entry; entry()",
         "run", "--config", str(cfg_path)],
        capture_output=True, text=True, cwd=str(tmp_path), env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()
    proc = subprocess.run(
        [sys.executable, "-c", "from uer.cli import entry; entry()", "--help"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "sweep-alpha" in proc.stdout


@pytest.mark.parametrize("module", ["uer", "uer.cli"])
def test_python_dash_m_runs_the_command_line(tmp_path, module):
    env = child_env()
    proc = subprocess.run([sys.executable, "-m", module, "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "sweep-alpha" in proc.stdout
    bad = tmp_path / "bad.cfg"
    bad.write_text("dataset.kind = split-gauss-10\nrun.methods = uer\nrun.seeds = -1\n")
    proc = subprocess.run([sys.executable, "-m", module, "run", "--config", str(bad)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert "config error: line 3: key run.seeds" in proc.stderr


# the child reports, after a whole run, whether NumPy's lazily loaded
# masked-array module was imported (about a MiB of peak RSS)
_RUN_THEN_LIST_MODULES = """\
import sys
import uer.cli
code = uer.cli.main(["run", "--config", sys.argv[1]])
print(f"exit {code}, numpy.ma imported: {'numpy.ma' in sys.modules}")
"""


@pytest.mark.parametrize("text", [
    UER_ONLY,
    "dataset.kind = split-gauss-10\nstream.stages = 5\nstream.classes_per_stage = 2\n"
    "run.methods = uer\nrun.seeds = 0\nrun.out = {out}\nmethod.uer.hidden = 8\n",
], ids=["synthetic", "split-gauss-10"])
def test_a_synthetic_run_never_imports_numpy_ma(tmp_path, text):
    cfg_path, out = write_config(tmp_path, text)
    proc = subprocess.run([sys.executable, "-c", _RUN_THEN_LIST_MODULES, str(cfg_path)],
                          capture_output=True, text=True, cwd=str(tmp_path), env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit 0, numpy.ma imported: False", proc.stdout
    assert (out / "summary.json").exists()
