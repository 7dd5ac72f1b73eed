"""The paper's two claims, checked on the benchmark's three streams.

At the final stage of every pinned seed, read from the metrics files that
`uer run` writes:

- the norm factor remembers: uer's previous-class scorer rows are longer
  on average than its current-class rows (norm_prev > norm_curr);
- uer beats experience replay: its average accuracy is above er's on the
  same stream (the runs of one seed share every draw).

The configs and the CSV draw are copies of perfbench/workloads.py's
workloads (the CSV data at workload seed 0), kept here so that an edit to
the benchmark cannot move what these tests pin. The seeds are pinned too:
a change that breaks a claim must not re-pick them.
"""

import numpy as np
import pytest

from uer.cli import main
from uer.evaluation import read_metrics
from uer.stream import LabeledData, save_csv_dataset


def _method_lines(**keys) -> str:
    return "".join(f"method.{m}.{k} = {v}\n" for m in ("uer", "er") for k, v in keys.items())


GAUSS5X2 = ("dataset.kind = split-gauss-10\n"
            "stream.stages = 5\n"
            "stream.classes_per_stage = 2\n"
            "stream.batch_current = 10\n"
            "stream.batch_memory = 10\n"
            + _method_lines(buffer=500, hidden=64))

MANYSTAGE_CSV = ("dataset.kind = csv\n"
                 "dataset.train_csv = {data}/train.csv\n"
                 "dataset.test_csv = {data}/test.csv\n"
                 "stream.stages = 20\n"
                 "stream.classes_per_stage = 2\n"
                 "stream.batch_current = 10\n"
                 "stream.batch_memory = 10\n"
                 + _method_lines(buffer=500, hidden=64))

WIDEREPLAY = ("dataset.kind = synthetic\n"
              "dataset.classes = 10\n"
              "dataset.input_dim = 128\n"
              "dataset.train_per_class = 1000\n"
              "dataset.test_per_class = 100\n"
              "stream.stages = 5\n"
              "stream.classes_per_stage = 2\n"
              "stream.batch_current = 32\n"
              "stream.batch_memory = 256\n"
              + _method_lines(buffer=5000, hidden="256,256"))


def _write_csv_inputs(workdir) -> None:
    """40 isotropic Gaussians in 20 dimensions (means on a sphere of
    radius 3, stddev 1), 50 train and 250 test rows per class."""
    classes, dim = 40, 20
    rng = np.random.default_rng([0, 40])
    z = rng.standard_normal((classes, dim))
    means = 3.0 * z / np.linalg.norm(z, axis=1, keepdims=True)
    for name, per_class in (("train.csv", 50), ("test.csv", 250)):
        x = np.concatenate([m + rng.standard_normal((per_class, dim)) for m in means])
        save_csv_dataset(workdir / name, LabeledData(x, np.repeat(np.arange(classes), per_class)))


# stream -> (config, pinned seeds, input writer)
STREAMS = {
    "gauss5x2": (GAUSS5X2, (0, 1, 2, 3, 4), None),
    "manystage-csv": (MANYSTAGE_CSV, (0, 1, 2), _write_csv_inputs),
    "widereplay": (WIDEREPLAY, (0, 1), None),
}


@pytest.mark.parametrize("stream", list(STREAMS))
def test_uer_keeps_longer_previous_rows_and_beats_er(tmp_path, capsys, stream):
    text, seeds, prepare = STREAMS[stream]
    if prepare:
        prepare(tmp_path)
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text.format(data=tmp_path) + "run.methods = uer,er\n"
                        + f"run.seeds = {','.join(map(str, seeds))}\nrun.out = {out}\n")
    assert main(["run", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    broken = []
    for seed in seeds:
        records = [read_metrics(out / f"{m}_seed{seed}.metrics.jsonl") for m in ("uer", "er")]
        # at every stage end the current stage's classes are the scorer's
        # last rows, so their scores are the last columns of a score block
        for record in records[0] + records[1]:
            current = record["current_classes"]
            assert sorted(record["class_order"][-len(current):]) == sorted(current), \
                (seed, record["stage"])
        uer, er = (stages[-1] for stages in records)
        if not uer["norm_prev"] > uer["norm_curr"]:
            broken.append(f"seed {seed}: uer |W| prev {uer['norm_prev']} <= cur {uer['norm_curr']}")
        if not uer["average_accuracy"] > er["average_accuracy"]:
            broken.append(f"seed {seed}: uer A {uer['average_accuracy']} <= "
                          f"er A {er['average_accuracy']}")
    assert not broken, broken
