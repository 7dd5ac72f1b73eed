"""The benchmark's workloads: one `uer run` config each, made from a seed.

A workload seed n sets ``run.seeds`` to the k seeds k*n .. k*n+k-1, where
k is the workload's runs per method, so seed 0 starts at run seed 0. The
shape of each workload is fixed; only the data and the per-run randomness
change with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]
    runs_per_method: int
    stages: int
    classes_per_stage: int
    train_per_class: int
    config: str  # body of the config file; run.seeds and run.out are appended
    # child.Probe counts (small MLP steps, wide products), chosen to slow
    # down with the host as this workload does
    probe: tuple[int, int]
    # the probe's time inside a run on a fast, quiet host: times are
    # reported as measured * probe_reference_s / mean probe time
    probe_reference_s: float
    prepare: Callable[[int, Path], None] | None = None  # writes input files

    def seeds(self, seed: int) -> list[int]:
        return [self.runs_per_method * seed + i for i in range(self.runs_per_method)]

    @property
    def train_samples(self) -> int:
        """Stream samples one (method, seed) run consumes."""
        return self.stages * self.classes_per_stage * self.train_per_class

    def config_text(self, seed: int, workdir: Path, out_dir: Path) -> str:
        return (self.config.format(data=workdir)
                + f"run.methods = {','.join(self.methods)}\n"
                + f"run.seeds = {','.join(str(s) for s in self.seeds(seed))}\n"
                + f"run.out = {out_dir}\n")


def _method_lines(methods, **keys) -> str:
    return "".join(f"method.{m}.{k} = {v}\n" for m in methods for k, v in keys.items())


def write_csv_inputs(seed: int, workdir: Path) -> None:
    """Write the manystage-csv train and test files for a workload seed.

    40 isotropic Gaussians in 20 dimensions (means on a sphere of radius 3,
    stddev 1), 50 train and 250 test rows per class, class-major. The data
    is drawn here rather than by the package, so a change to the package's
    own generators cannot change this workload's input.
    """
    import numpy as np
    from uer.stream import LabeledData, save_csv_dataset

    classes, dim, train_n, test_n = 40, 20, 50, 250
    rng = np.random.default_rng([int(seed), 40])
    z = rng.standard_normal((classes, dim))
    means = 3.0 * z / np.linalg.norm(z, axis=1, keepdims=True)
    for name, per_class in (("train.csv", train_n), ("test.csv", test_n)):
        x = np.concatenate([m + rng.standard_normal((per_class, dim)) for m in means])
        y = np.repeat(np.arange(classes), per_class)
        save_csv_dataset(workdir / name, LabeledData(x, y))


# Host slowdowns hit small-step dispatch and wide matrix products
# differently; each workload's probe (child.Probe: small MLP steps, wide
# products) mixes them as its own time does.
DISPATCH_PROBE = (20, 0)
MIXED_PROBE = (6, 1)


# The paper's canonical setting. Steps are tiny (batch 10, width 20 -> 64,
# at most 10 classes), so time goes to per-call NumPy dispatch and Python
# glue: this is the workload a dispatch-saving change should speed up.
# Replay reads and writes the buffer 1:1; finetune never touches it.
GAUSS5X2 = Workload(
    name="gauss5x2",
    methods=("uer", "uer-a", "er", "lucir", "finetune"),
    runs_per_method=3, stages=5, classes_per_stage=2, train_per_class=500,
    probe=DISPATCH_PROBE, probe_reference_s=0.0015,
    config=("dataset.kind = split-gauss-10\n"
            "stream.stages = 5\n"
            "stream.classes_per_stage = 2\n"
            "stream.batch_current = 10\n"
            "stream.batch_memory = 10\n"
            + _method_lines(("uer", "uer-a", "er", "lucir"), buffer=500, hidden=64)
            + _method_lines(("finetune",), hidden=64)),
)

# Twenty stages with five times more test than train data: stage
# evaluation re-scores every test set seen so far, so it grows as O(t^2)
# and dominates. The input arrives as CSV files, so parsing them is on the
# path too (build_dataset reloads them for every (method, seed) run).
MANYSTAGE_CSV = Workload(
    name="manystage-csv",
    methods=("uer", "er"),
    runs_per_method=3, stages=20, classes_per_stage=2, train_per_class=50,
    probe=MIXED_PROBE, probe_reference_s=0.002,
    config=("dataset.kind = csv\n"
            "dataset.train_csv = {data}/train.csv\n"
            "dataset.test_csv = {data}/test.csv\n"
            "stream.stages = 20\n"
            "stream.classes_per_stage = 2\n"
            "stream.batch_current = 10\n"
            "stream.batch_memory = 10\n"
            + _method_lines(("uer", "er"), buffer=500, hidden=64)),
    prepare=write_csv_inputs,
)

# Wide layers and a large replay batch: matrix products dominate, so a
# dispatch-only change should leave this workload flat. Replay reads 8
# buffer samples (256) per sample written (32) into a 5000-slot buffer.
WIDEREPLAY = Workload(
    name="widereplay",
    methods=("uer", "er"),
    runs_per_method=1, stages=5, classes_per_stage=2, train_per_class=1000,
    probe=MIXED_PROBE, probe_reference_s=0.002,
    config=("dataset.kind = synthetic\n"
            "dataset.classes = 10\n"
            "dataset.input_dim = 128\n"
            "dataset.train_per_class = 1000\n"
            "dataset.test_per_class = 100\n"
            "stream.stages = 5\n"
            "stream.classes_per_stage = 2\n"
            "stream.batch_current = 32\n"
            "stream.batch_memory = 256\n"
            + _method_lines(("uer", "er"), buffer=5000, hidden="256,256")),
)

WORKLOADS = {w.name: w for w in (GAUSS5X2, MANYSTAGE_CSV, WIDEREPLAY)}
