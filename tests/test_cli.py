"""Command-line driver: subcommands, outputs, exit codes, overrides."""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uer.cli
import uer.config
from conftest import child_env
from uer.cli import _apply_flag_overrides, build_parser, main, run_config
from uer.config import build_dataset, parse_config_text
from uer.evaluation import read_metrics, stage_metrics_to_dict
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
