"""Self-tests of the benchmark: span arithmetic, tracer hygiene, metric
names, the host-speed probe and the correctness gate. Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import importlib
import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import uer.cli  # noqa: E402
from child import Probe  # noqa: E402
from run import check_run  # noqa: E402
from spantrace import TARGETS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import GAUSS5X2  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = """\
dataset.kind = synthetic
dataset.classes = 4
dataset.input_dim = 5
dataset.train_per_class = 20
dataset.test_per_class = 10
stream.stages = 2
stream.classes_per_stage = 2
run.methods = uer,er
run.seeds = 0
run.out = {out}
"""


def _span(name, start, end, parent, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": 1, **counts}


def _traced_run(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY.format(out=tmp_path / "out"))
    with Tracer() as tracer:
        assert uer.cli.main(["run", "--config", str(config)]) == 0
    return tracer


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.run_config", 0.0, 10.0, None),
        _span("trainer.run_experiment", 1.0, 9.0, 0),
        _span("trainer.train_step", 2.0, 5.0, 1),
        _span("net.forward_batch.train", 2.5, 3.0, 2, rows=4),
        _span("logits.loss_dot", 3.0, 4.0, 2, rows=4),
        _span("trainer.train_step", 5.0, 8.0, 1),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.5, 0.5, 1.0, 3.0])
    values, missing = layer_metrics(spans)
    assert values["trainer.train_step.calls"] == 2
    assert values["trainer.train_step.s"] == pytest.approx(6.0)
    assert values["trainer.train_step.self_s"] == pytest.approx(4.5)
    assert values["trainer.self_share"] == pytest.approx(0.65)
    assert values["net.forward_batch.train.rows"] == 4
    assert values["stream.load_csv_dataset.calls"] == 0
    assert values["memory.buffer_retrieve.fill_ratio"] == 0.0
    assert missing == []


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    originals = {(t.module, t.attr): getattr(importlib.import_module(t.module), t.attr)
                 for t in TARGETS}
    tracer = _traced_run(tmp_path)
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original, f"{module}.{attr}"
    assert tracer.missing == []
    values, missing = layer_metrics(tracer.spans)
    # 2 methods x 2 stages x 40 samples, batches of 10
    assert values["trainer.train_step.calls"] == 16
    assert values["stream.iterate_batches.batches"] == 16
    assert values["config.build_dataset.calls"] == 2
    assert values["memory.buffer_update.offered"] == 160
    assert {s["run"] for s in tracer.spans if s["name"] == "trainer.train_step"} == {1, 2}


def test_metric_names_are_well_formed_and_all_measured(tmp_path):
    values, missing = layer_metrics(_traced_run(tmp_path).spans)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names + list(values):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)
    assert missing == []
    unmeasured = [m["name"] for m in spec["per_layer"]
                  if m["name"] not in values and not m["name"].startswith("trace.")]
    assert unmeasured == []


def test_missing_wrapped_name_is_reported_missing_not_zero(tmp_path, monkeypatch):
    monkeypatch.delattr(uer.trainer, "loss_replay")
    monkeypatch.setattr(uer.trainer, "loss_dot", lambda pp, Hs, rows, tape=None: (0.0, None))
    tracer = Tracer([t for t in TARGETS if t.span in ("logits.loss_replay", "logits.loss_dot")])
    with tracer:
        pass
    assert sorted(tracer.missing) == ["logits.loss_dot.rows", "logits.loss_replay"]
    values, missing = layer_metrics([], tracer.missing)
    for field in ("calls", "s", "rows"):
        assert f"logits.loss_replay.{field}" in missing
        assert f"logits.loss_replay.{field}" not in values
    assert "logits.loss_dot.rows" in missing and "logits.loss_dot.rows" not in values
    assert values["logits.loss_dot.calls"] == 0


def test_check_run_rejects_bad_metrics_files():
    def stage(t, acc):
        row = [acc] * t
        return {"stage": t, "accuracy_row": row, "average_accuracy": acc,
                "consumed_samples": 1000}

    good = "".join(json.dumps(stage(t, 0.5)) + "\n" for t in range(1, 6)).encode()
    stages, error = check_run(GAUSS5X2, good, [0.5] * 5)
    assert error is None and len(stages) == 5
    assert check_run(GAUSS5X2, None, None)[1] == "metrics file missing"
    assert "malformed" in check_run(GAUSS5X2, b"{not json\n", None)[1]
    assert "reference" in check_run(GAUSS5X2, good, [0.5, 0.5, 0.5, 0.5, 0.25])[1]
    assert "consumed" in check_run(GAUSS5X2, good.replace(b"1000", b"999", 1), None)[1]


def test_probe_samples_during_a_call_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with Probe(2, 1) as probe:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(probe.wall) >= 2 and all(t > 0 for t in probe.wall)
    assert 0 < probe.cpu
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
