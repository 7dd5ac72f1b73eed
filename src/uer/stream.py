"""Class-incremental data streams and the synthetic Gaussian benchmark.

A dataset's classes are shuffled once, partitioned into equally sized
stages, and each stage's training split is consumed exactly once in
shuffled batches. The canonical benchmark, split-gauss-10, is ten isotropic
Gaussians in 20 dimensions whose means sit on a sphere of radius 3
(stddev 1.0, 500 train and 100 test samples per class).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .numeric import Rng, ShapeError


class CsvFormatError(ValueError):
    pass


@dataclass
class LabeledData:
    x: np.ndarray  # (n, dim)
    y: np.ndarray  # (n,) int64

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ShapeError(f"labeled data wants (n, dim) x and (n,) y, "
                             f"got {self.x.shape} and {self.y.shape}")

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class Dataset:
    train: LabeledData
    test: LabeledData
    num_classes: int
    input_dim: int


@dataclass
class Stage:
    index: int  # 1-based
    class_set: tuple[int, ...]
    train: LabeledData
    test: LabeledData


@dataclass
class StageRows:
    """A stage's classes and where its rows sit in the dataset; gathering
    them gives the Stage."""
    index: int  # 1-based
    class_set: tuple[int, ...]
    train_rows: np.ndarray  # (n,) int64 indices into dataset.train
    test_rows: np.ndarray  # (m,) int64 indices into dataset.test

    def gather(self, dataset: "Dataset") -> Stage:
        return Stage(index=self.index, class_set=self.class_set,
                     train=LabeledData(dataset.train.x[self.train_rows],
                                       dataset.train.y[self.train_rows]),
                     test=LabeledData(dataset.test.x[self.test_rows],
                                      dataset.test.y[self.test_rows]))


@dataclass
class StreamConfig:
    stages: int = 5
    classes_per_stage: int = 2
    batch_size_current: int = 10
    batch_size_memory: int = 10
    shuffle_seed: int | None = None

    def __post_init__(self):
        if self.stages < 1 or self.classes_per_stage < 1:
            raise ValueError("stages and classes_per_stage must be at least 1")
        if self.batch_size_current < 1:
            raise ValueError("batch_size_current must be at least 1")
        if self.batch_size_memory < 0:
            raise ValueError("batch_size_memory must be non-negative")


@dataclass
class SyntheticSpec:
    input_dim: int
    means: np.ndarray  # (classes, input_dim)
    stddev: float
    train_per_class: int
    test_per_class: int

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        if self.means.ndim != 2 or self.means.shape[1] != self.input_dim:
            raise ShapeError(f"means must be (classes, {self.input_dim}), got {self.means.shape}")
        if not self.stddev > 0:
            raise ValueError(f"stddev must be positive, got {self.stddev}")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ValueError("per-class sample counts must be at least 1")
        if len(np.unique(self.means, axis=0)) != self.means.shape[0]:
            raise ValueError("class means must be distinct")


def build_stages(dataset: Dataset, cfg: StreamConfig, rng: Rng) -> list[Stage]:
    """Shuffle class ids, partition them, and slice the dataset per stage
    (split_stages, each stage gathered)."""
    return [rows.gather(dataset) for rows in split_stages(dataset, cfg, rng)]


def split_stages(dataset: Dataset, cfg: StreamConfig, rng: Rng) -> list[StageRows]:
    """Shuffle class ids, partition them, and find each stage's rows.

    A stage whose classes have no test rows is rejected here, before any
    training: its accuracy would be undefined.
    """
    total = cfg.stages * cfg.classes_per_stage
    if total != dataset.num_classes:
        raise ValueError(f"{cfg.stages} stages x {cfg.classes_per_stage} classes "
                         f"need {total} classes, dataset has {dataset.num_classes}")
    shuffle_rng = np.random.default_rng(cfg.shuffle_seed) if cfg.shuffle_seed is not None else rng
    order = shuffle_rng.permutation(dataset.num_classes)
    stages = []
    for t in range(cfg.stages):
        class_set = tuple(int(c) for c in order[t * cfg.classes_per_stage:
                                                (t + 1) * cfg.classes_per_stage])
        te = np.flatnonzero(np.isin(dataset.test.y, class_set))
        if not len(te):
            raise ValueError(f"stage {t + 1} (classes {', '.join(map(str, class_set))}) "
                             f"has no test rows")
        stages.append(StageRows(index=t + 1, class_set=class_set,
                                train_rows=np.flatnonzero(np.isin(dataset.train.y, class_set)),
                                test_rows=te))
    return stages


def iterate_batches(stage: Stage, cfg: StreamConfig, rng: Rng) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Single pass over the stage's training split in shuffled batches.

    The final batch may be short; every sample is yielded exactly once.
    """
    n = len(stage.train)
    order = rng.permutation(n)
    for lo in range(0, n, cfg.batch_size_current):
        idx = order[lo:lo + cfg.batch_size_current]
        yield stage.train.x[idx], stage.train.y[idx]


def gen_synthetic(spec: SyntheticSpec, rng: Rng) -> Dataset:
    """Isotropic Gaussian blobs, one per class, class-major sample order."""
    classes = spec.means.shape[0]
    train_x, train_y, test_x, test_y = [], [], [], []
    for c in range(classes):
        train_x.append(spec.means[c] + spec.stddev * rng.standard_normal(
            (spec.train_per_class, spec.input_dim)))
        train_y.append(np.full(spec.train_per_class, c, dtype=np.int64))
        test_x.append(spec.means[c] + spec.stddev * rng.standard_normal(
            (spec.test_per_class, spec.input_dim)))
        test_y.append(np.full(spec.test_per_class, c, dtype=np.int64))
    return Dataset(
        train=LabeledData(np.concatenate(train_x), np.concatenate(train_y)),
        test=LabeledData(np.concatenate(test_x), np.concatenate(test_y)),
        num_classes=classes,
        input_dim=spec.input_dim,
    )


def sphere_means(classes: int, dim: int, radius: float, rng: Rng) -> np.ndarray:
    """Class means drawn uniformly on the sphere of the given radius."""
    z = rng.standard_normal((classes, dim))
    return radius * z / np.linalg.norm(z, axis=1, keepdims=True)


def make_sphere_spec(classes: int, dim: int, radius: float, stddev: float,
                     train_per_class: int, test_per_class: int, rng: Rng) -> SyntheticSpec:
    return SyntheticSpec(
        input_dim=dim,
        means=sphere_means(classes, dim, radius, rng),
        stddev=stddev,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
    )


def split_gauss_10(rng: Rng) -> Dataset:
    """The canonical 10-class benchmark (see module docstring)."""
    spec = make_sphere_spec(classes=10, dim=20, radius=3.0, stddev=1.0,
                            train_per_class=500, test_per_class=100, rng=rng)
    return gen_synthetic(spec, rng)


def load_csv_dataset(path, label_map: dict[int, int] | None = None) -> LabeledData:
    """Rows of "label,feat,feat,...". Labels are remapped to dense ids
    0..C-1 in order of first occurrence; every row must have the same
    feature count, and every feature must be finite (nan and inf are
    rejected with the line they are on). Pass the same label_map to
    several loads (train and test files, say) to share one remapping
    across them."""
    xs: list[list[float]] = []
    raw_labels: list[int] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise CsvFormatError(f"{path}:{lineno}: need a label and at least one feature")
            try:
                label = int(parts[0])
            except ValueError:
                raise CsvFormatError(f"{path}:{lineno}: invalid label {parts[0]!r}") from None
            try:
                feats = [float(p) for p in parts[1:]]
            except ValueError:
                raise CsvFormatError(f"{path}:{lineno}: invalid feature value") from None
            if width is None:
                width = len(feats)
            elif len(feats) != width:
                raise CsvFormatError(f"{path}:{lineno}: expected {width} features, "
                                     f"got {len(feats)}")
            raw_labels.append(label)
            xs.append(feats)
    if not xs:
        raise CsvFormatError(f"{path}: dataset is empty")
    x = np.array(xs, dtype=np.float64)
    if not np.isfinite(x).all():
        lineno = _data_lineno(path, int(np.argmin(np.isfinite(x).all(axis=1))))
        raise CsvFormatError(f"{path}:{lineno}: non-finite feature value")
    remap = label_map if label_map is not None else {}
    for label in raw_labels:
        if label not in remap:
            remap[label] = len(remap)
    y = np.array([remap[label] for label in raw_labels], dtype=np.int64)
    return LabeledData(x, y)


def _data_lineno(path, row: int) -> int:
    """1-based line number of the row-th (0-based) non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        data_lines = (lineno for lineno, line in enumerate(fh, 1) if line.strip())
        return next(itertools.islice(data_lines, row, None))


def save_csv_dataset(path, data: LabeledData) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(data.x, data.y):
            fh.write(f"{int(label)}," + ",".join(repr(float(v)) for v in row) + "\n")
