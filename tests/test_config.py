"""Config grammar: parsing, validation, round-trip serialization."""

from dataclasses import fields

import numpy as np
import pytest

from uer.cli import main
from uer.config import (ConfigError, DatasetSpec, build_dataset, parse_config,
                        parse_config_text, serialize_config)
from uer.logits import LogitMode
from uer.trainer import PRESET_BUILDERS, MethodConfig, triple_method

MINIMAL = """\
dataset.kind = split-gauss-10
stream.stages = 5
stream.classes_per_stage = 2
run.methods = uer
run.seeds = 0
run.out = results/demo
"""

SYNTH = """\
dataset.kind = synthetic
dataset.classes = 4
dataset.input_dim = 6
dataset.train_per_class = 40
dataset.test_per_class = 10
stream.stages = 2
stream.classes_per_stage = 2
run.methods = uer
run.seeds = 0
run.out = results/demo
"""


def test_minimal_config_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.dataset.kind == "split-gauss-10"
    assert cfg.dataset.classes == 10 and cfg.dataset.input_dim == 20
    assert cfg.stream.stages == 5
    assert cfg.stream.batch_size_current == 10
    assert cfg.seeds == (0,)
    assert cfg.out_dir == "results/demo"
    [m] = cfg.methods
    assert m.name == "uer"
    assert m.triple.replay.alpha == 0.5 and m.gamma == 10.0 and m.lr == 0.1
    assert m.buffer_capacity == 500
    assert m.hidden_dims == (64,)
    assert not m.joint_batch
    assert m.seeds == (0,)  # inherits run.seeds


def test_run_section_defaults():
    text = "dataset.kind = split-gauss-10\nrun.methods = uer\n"
    cfg = parse_config_text(text)
    assert cfg.seeds == (0,)
    assert cfg.out_dir == "results"
    assert cfg.stream.stages == 5 and cfg.stream.classes_per_stage == 2


def test_full_overrides_parse():
    text = SYNTH + """\
dataset.radius = 2.5
dataset.stddev = 0.4
method.uer.alpha = 0.25
method.uer.gamma = 8
method.uer.lr = 0.05
method.uer.buffer = 200
method.uer.hidden = 32, 16
method.uer.seeds = 3, 4
stream.batch_current = 20
stream.batch_memory = 5
stream.shuffle_seed = 9
"""
    cfg = parse_config_text(text)
    assert cfg.dataset.classes == 4 and cfg.dataset.input_dim == 6
    assert cfg.dataset.radius == 2.5 and cfg.dataset.stddev == 0.4
    assert cfg.dataset.train_per_class == 40
    [m] = cfg.methods
    assert m.triple.replay.alpha == 0.25 and m.gamma == 8.0 and m.lr == 0.05
    assert m.buffer_capacity == 200 and m.hidden_dims == (32, 16)
    assert m.seeds == (3, 4)
    assert cfg.stream.batch_size_current == 20
    assert cfg.stream.batch_size_memory == 5
    assert cfg.stream.shuffle_seed == 9


def test_custom_triple_method():
    text = MINIMAL.replace("run.methods = uer", "run.methods = uer,probe") + """\
method.probe.learn = cosine
method.probe.replay = dot
method.probe.test = dot
"""
    cfg = parse_config_text(text)
    probe = [m for m in cfg.methods if m.name == "probe"][0]
    assert probe.triple.learn is LogitMode.COSINE
    assert probe.triple.replay.kind == "dot"
    assert probe.triple.test is LogitMode.DOT


def test_custom_method_requires_all_three_rules():
    text = MINIMAL.replace("run.methods = uer", "run.methods = probe") \
        + "method.probe.learn = cosine\n"
    with pytest.raises(ConfigError, match="method.probe.replay"):
        parse_config_text(text)


def test_all_presets_resolve():
    text = MINIMAL.replace("run.methods = uer",
                           "run.methods = uer,uer-a,er,lucir,finetune")
    cfg = parse_config_text(text)
    names = [m.name for m in cfg.methods]
    assert names == ["uer", "uer-a", "er", "lucir", "finetune"]
    by_name = {m.name: m for m in cfg.methods}
    assert by_name["uer-a"].triple.replay.alpha == 1.0
    assert by_name["er"].joint_batch
    assert by_name["finetune"].buffer_capacity == 0
    # every other preset replays from the default buffer
    assert {m.buffer_capacity for m in cfg.methods if m.name != "finetune"} == {500}
    assert by_name["lucir"].triple.test is LogitMode.COSINE


def test_alpha_out_of_range_message():
    text = MINIMAL + "method.uer.alpha = 1.5\n"
    with pytest.raises(ConfigError, match=r"alpha out of \[0,1\]"):
        parse_config_text(text)


@pytest.mark.parametrize("name, rules", [
    ("er", ""), ("lucir", ""), ("finetune", ""),
    ("probe", "method.probe.learn = cosine\nmethod.probe.replay = dot\n"
              "method.probe.test = dot\n"),
])
def test_alpha_without_mixed_replay_names_its_line(name, rules):
    # only a mixed replay rule reads alpha; anywhere else the key would
    # be accepted and then ignored
    base = MINIMAL.replace("run.methods = uer", f"run.methods = {name}") + rules
    lineno = base.count("\n") + 1
    with pytest.raises(ConfigError) as info:
        parse_config_text(base + f"method.{name}.alpha = 0.3\n")
    kind = "cosine" if name == "lucir" else "dot"
    assert str(info.value) == (f"line {lineno}: key method.{name}.alpha: method {name} "
                               f"replays by {kind}, which takes no alpha")


@pytest.mark.parametrize("line, message", [
    ("method.uer.buffer = -5", "must be non-negative, got '-5'"),
    ("method.uer.hidden = 0", "layer widths must be positive, got '0'"),
    ("method.uer.lr = -1", "must be positive, got '-1'"),
    ("stream.batch_current = 0", "must be at least 1, got '0'"),
    ("stream.shuffle_seed = -1", "must be non-negative, got '-1'"),
    ("dataset.classes = 0", "must be at least 1, got '0'"),
    ("dataset.input_dim = 0", "must be at least 1, got '0'"),
    ("dataset.train_per_class = 0", "must be at least 1, got '0'"),
    ("dataset.test_per_class = 0", "must be at least 1, got '0'"),
    ("dataset.stddev = -1", "must be positive, got '-1'"),
    # a float key takes finite values only; each of these used to parse,
    # then fail the run at its first step
    ("method.uer.gamma = inf", "must be finite, got 'inf'"),
    ("method.uer.lr = inf", "must be finite, got 'inf'"),
    ("dataset.radius = nan", "must be finite, got 'nan'"),
    ("dataset.radius = inf", "must be finite, got 'inf'"),
    ("dataset.stddev = inf", "must be finite, got 'inf'"),
    ("method.uer.alpha = -inf", "must be finite, got '-inf'"),
])
def test_range_errors_name_the_line_and_key(tmp_path, capsys, line, message):
    key = line.split(" = ")[0]
    base = MINIMAL
    if key.startswith("dataset."):  # read for synthetic data only
        base = "".join(s for s in SYNTH.splitlines(True) if not s.startswith(key + " "))
    lineno = base.count("\n") + 1
    with pytest.raises(ConfigError) as info:
        parse_config_text(base + line + "\n")
    assert str(info.value) == f"line {lineno}: key {key}: {message}"
    path = tmp_path / "bad.cfg"
    path.write_text(base + line + "\n", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: line {lineno}: key {key}: {message}\n"


def test_uer_a_alpha_pin_rejected():
    text = MINIMAL.replace("run.methods = uer", "run.methods = uer-a")
    assert parse_config_text(text).methods[0].triple.replay.alpha == 1.0
    with pytest.raises(ConfigError, match="pins alpha"):
        parse_config_text(text + "method.uer-a.alpha = 0.5\n")
    # explicitly writing the pinned value is allowed
    cfg = parse_config_text(text + "method.uer-a.alpha = 1.0\n")
    assert cfg.methods[0].triple.replay.alpha == 1.0


def test_finetune_replay_pin_rejected():
    # finetune replays nothing: its buffer capacity is pinned to 0
    text = MINIMAL.replace("run.methods = uer", "run.methods = finetune")
    assert parse_config_text(text).methods[0].buffer_capacity == 0
    with pytest.raises(ConfigError, match=r"^method finetune: finetune pins "
                                          r"buffer_capacity = 0, got 5$"):
        parse_config_text(text + "method.finetune.buffer = 5\n")
    # explicitly writing the pinned value is allowed
    assert parse_config_text(text + "method.finetune.buffer = 0\n").methods[0].buffer_capacity == 0


def test_replay_enabled_is_an_unknown_key():
    # a method replays exactly when its buffer is above 0
    text = MINIMAL + "method.uer.replay_enabled = false\n"
    lineno = text.rstrip("\n").count("\n") + 1
    with pytest.raises(ConfigError, match=rf"^line {lineno}: unknown key "
                                          r"method.uer.replay_enabled$"):
        parse_config_text(text)


def test_preset_triple_override_rejected():
    with pytest.raises(ConfigError, match="stock preset"):
        parse_config_text(MINIMAL + "method.uer.learn = dot\n")


def test_duplicate_key_line_number():
    text = MINIMAL + "run.seeds = 1\n"
    lineno = text.rstrip("\n").count("\n") + 1
    with pytest.raises(ConfigError, match=rf"line {lineno}: .*duplicate"):
        parse_config_text(text)


def test_unknown_key_line_number():
    text = MINIMAL + "method.uer.momentum = 0.9\n"
    lineno = text.rstrip("\n").count("\n") + 1
    with pytest.raises(ConfigError, match=rf"line {lineno}: unknown key "
                                          "method.uer.momentum"):
        parse_config_text(text)


@pytest.mark.parametrize("key", ["method.finetune.hidden", "method.er.lr", "method.mine.learn"])
def test_key_of_a_method_that_does_not_run_names_run_methods(key):
    # a known method key, finetune a known preset: "unknown key" misled
    name = key.split(".")[1]
    text = MINIMAL + f"{key} = 8\n"
    lineno = text.rstrip("\n").count("\n") + 1
    with pytest.raises(ConfigError, match=rf"^line {lineno}: key {key}: method {name} "
                                          r"is not in run.methods$"):
        parse_config_text(text)


def test_method_key_without_a_method_name_is_unknown():
    with pytest.raises(ConfigError, match=r"^line 7: unknown key method.lr$"):
        parse_config_text(MINIMAL + "method.lr = 8\n")


def test_dataset_keys_rejected_for_fixed_kind():
    # per-class counts only mean something for the synthetic generator
    with pytest.raises(ConfigError, match="unknown key dataset.train_per_class"):
        parse_config_text(MINIMAL + "dataset.train_per_class = 5\n")


@pytest.mark.parametrize("value", ["-1", "0,-3", "1,,2", "a"])
def test_bad_run_seeds_name_their_line(value):
    # a negative seed parsed once, then failed every run at its first draw
    text = MINIMAL.replace("run.seeds = 0", f"run.seeds = {value}")
    with pytest.raises(ConfigError, match=rf"^line 5: key run.seeds: expected non-negative "
                                          rf"integer seeds, got '{value}'$"):
        parse_config_text(text)


def test_bad_method_seeds_name_their_line():
    text = MINIMAL + "method.uer.seeds = 2,-1\n"
    lineno = text.rstrip("\n").count("\n") + 1
    with pytest.raises(ConfigError, match=rf"^line {lineno}: key method.uer.seeds: "
                                          "expected non-negative integer seeds"):
        parse_config_text(text)
    assert parse_config_text(MINIMAL + "method.uer.seeds = 0, 7\n").methods[0].seeds == (0, 7)


def test_malformed_line_reported():
    with pytest.raises(ConfigError, match="line 1: expected"):
        parse_config_text("this is not a key value pair\n")


def test_malformed_key_reported():
    with pytest.raises(ConfigError, match="line 1: malformed key"):
        parse_config_text("data set.kind = x\n")


@pytest.mark.parametrize("key", ["method.uér.lr", "method.uer².lr", "dataset.kïnd"])
def test_non_ascii_key_reported(key):
    # a segment is [A-Za-z0-9_-]+: letters and digits outside ASCII are malformed
    lines = MINIMAL.count("\n")
    with pytest.raises(ConfigError, match=f"line {lines + 1}: malformed key"):
        parse_config_text(MINIMAL + f"{key} = 0.1\n")


def test_empty_value_reported():
    with pytest.raises(ConfigError, match="empty value"):
        parse_config_text("dataset.kind =\n")


def test_bad_number_reported():
    text = MINIMAL + "method.uer.lr = fast\n"
    with pytest.raises(ConfigError, match="expected float, got 'fast'"):
        parse_config_text(text)


def test_bad_bool_reported():
    text = MINIMAL + "method.uer.joint_batch = yes\n"
    with pytest.raises(ConfigError, match="expected bool"):
        parse_config_text(text)


def test_comments_and_blank_lines_ignored():
    text = "# top comment\n\n" + MINIMAL.replace(
        "run.seeds = 0", "run.seeds = 0  # inline comment") + "\n# trailing\n"
    cfg = parse_config_text(text)
    assert cfg.seeds == (0,)
    assert cfg.out_dir == "results/demo"


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="dataset.kind"):
        parse_config_text("run.methods = uer\n")
    with pytest.raises(ConfigError, match="run.methods"):
        parse_config_text("dataset.kind = split-gauss-10\n")


def test_unknown_dataset_kind():
    with pytest.raises(ConfigError, match="unknown dataset kind"):
        parse_config_text(MINIMAL.replace("split-gauss-10", "imagenet"))


def test_duplicate_method_names():
    with pytest.raises(ConfigError, match="duplicate method"):
        parse_config_text(MINIMAL.replace("run.methods = uer",
                                          "run.methods = uer,uer"))


def test_csv_kind_requires_paths():
    text = "dataset.kind = csv\nrun.methods = uer\n"
    with pytest.raises(ConfigError, match="dataset.train_csv"):
        parse_config_text(text)


def test_round_trip_identity():
    text = MINIMAL.replace("run.methods = uer",
                           "run.methods = uer,er,probe") + """\
method.probe.learn = dot
method.probe.replay = mixed
method.probe.test = cosine
method.probe.alpha = 0.75
method.er.buffer = 300
"""
    cfg = parse_config_text(text)
    dumped = serialize_config(cfg)
    cfg2 = parse_config_text(dumped)
    assert cfg2 == cfg
    assert serialize_config(cfg2) == dumped  # canonical form is a fixed point


def test_every_method_field_round_trips():
    # each stock preset and a custom method, with every field its builder
    # leaves free set away from the builder's default: a field that
    # serialize_config forgets comes back at its default
    text = MINIMAL.replace("run.methods = uer",
                           "run.methods = uer,uer-a,er,lucir,finetune,probe") + """\
method.probe.learn = dot
method.probe.replay = mixed
method.probe.test = cosine
"""
    for name in ("uer", "uer-a", "er", "lucir", "finetune", "probe"):
        text += (f"method.{name}.gamma = 4.5\nmethod.{name}.lr = 0.25\n"
                 f"method.{name}.hidden = 12,6\nmethod.{name}.seeds = 3,1\n")
        if name != "finetune":
            text += f"method.{name}.buffer = 70\n"
    text += ("method.uer.alpha = 0.125\nmethod.probe.alpha = 0.875\n"
             "method.er.joint_batch = false\nmethod.lucir.joint_batch = true\n"
             "method.finetune.joint_batch = true\n")
    cfg = parse_config_text(text)
    assert parse_config_text(serialize_config(cfg)) == cfg
    # the fields a builder pins, or that the method's replay rule rules out
    # (a joint batch needs learn and replay to match)
    fixed = {"uer": {"joint_batch"}, "uer-a": {"triple", "joint_batch"}, "er": {"triple"},
             "lucir": {"triple"}, "finetune": {"triple", "buffer_capacity"},
             "probe": {"joint_batch"}}
    free = {f.name for f in fields(MethodConfig)} - {"name"}
    for m in cfg.methods:
        default = (PRESET_BUILDERS[m.name]() if m.name in PRESET_BUILDERS else
                   triple_method(m.name, m.triple.learn.value, m.triple.replay.kind,
                                 m.triple.test.value))
        moved = {f for f in free if getattr(m, f) != getattr(default, f)}
        assert moved == free - fixed[m.name], m.name


def test_round_trip_synthetic_and_csv(tmp_path):
    cfg = parse_config_text(SYNTH)
    assert parse_config_text(serialize_config(cfg)) == cfg

    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text("0,1.0\n1,2.0\n")
    test.write_text("0,1.5\n1,2.5\n")
    csv_text = (f"dataset.kind = csv\ndataset.train_csv = {train}\n"
                f"dataset.test_csv = {test}\nstream.stages = 1\n"
                "stream.classes_per_stage = 2\nrun.methods = uer\n")
    cfg = parse_config_text(csv_text)
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_parse_config_reads_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL)
    assert parse_config(path) == parse_config_text(MINIMAL)


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config("/no/such/file.cfg")


def test_seeds_list_order_kept():
    cfg = parse_config_text(MINIMAL.replace("run.seeds = 0",
                                            "run.seeds = 4, 1, 3"))
    assert cfg.seeds == (4, 1, 3)


# ------------------------------------------------------------ datasets


def test_build_dataset_split_gauss():
    ds = build_dataset(DatasetSpec(kind="split-gauss-10"), seed=0)
    assert ds.num_classes == 10 and ds.input_dim == 20
    assert ds.train.x.shape == (5000, 20)
    assert ds.test.x.shape == (1000, 20)


def test_build_dataset_seed_protocol():
    a = build_dataset(DatasetSpec(kind="split-gauss-10"), seed=5)
    b = build_dataset(DatasetSpec(kind="split-gauss-10"), seed=5)
    c = build_dataset(DatasetSpec(kind="split-gauss-10"), seed=6)
    np.testing.assert_array_equal(a.train.x, b.train.x)
    assert not np.array_equal(a.train.x, c.train.x)


def test_build_dataset_synthetic_overrides():
    spec = DatasetSpec(kind="synthetic", classes=4, input_dim=8,
                       radius=2.0, stddev=0.5, train_per_class=50,
                       test_per_class=10)
    ds = build_dataset(spec, seed=1)
    assert ds.num_classes == 4 and ds.input_dim == 8
    assert ds.train.x.shape == (200, 8)
    assert ds.test.x.shape == (40, 8)


def test_build_dataset_csv(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text("5,1.0,2.0\n9,3.0,4.0\n")
    test.write_text("9,0.5,0.5\n5,1.5,1.5\n")
    spec = DatasetSpec(kind="csv", train_csv=str(train), test_csv=str(test))
    ds = build_dataset(spec, seed=0)
    assert ds.num_classes == 2 and ds.input_dim == 2
    # the label map is shared: 5 -> 0 everywhere, 9 -> 1 everywhere
    assert ds.train.y.tolist() == [0, 1]
    assert ds.test.y.tolist() == [1, 0]


def test_build_dataset_csv_ignores_seed(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text("0,1.0\n1,2.0\n")
    test.write_text("0,1.5\n1,2.5\n")
    spec = DatasetSpec(kind="csv", train_csv=str(train), test_csv=str(test))
    a, b = build_dataset(spec, seed=0), build_dataset(spec, seed=99)
    np.testing.assert_array_equal(a.train.x, b.train.x)
    np.testing.assert_array_equal(a.test.y, b.test.y)


def test_build_dataset_unknown_kind():
    with pytest.raises(ConfigError, match="unknown dataset kind"):
        build_dataset(DatasetSpec(kind="imagenet"), seed=0)
