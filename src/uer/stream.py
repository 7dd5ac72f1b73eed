"""Class-incremental data streams and the synthetic Gaussian benchmark.

A dataset's classes are shuffled once, partitioned into equally sized
stages, and each stage's training split is consumed exactly once in
shuffled batches. The canonical benchmark, split-gauss-10, is ten isotropic
Gaussians in 20 dimensions whose means sit on a sphere of radius 3
(stddev 1.0, 500 train and 100 test samples per class).
"""

from __future__ import annotations

import math
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
class StageRows:
    """A stage's classes and where its rows sit in the dataset."""
    class_set: tuple[int, ...]
    train_rows: np.ndarray  # (n,) int64 indices into dataset.train
    test_rows: np.ndarray  # (m,) int64 indices into dataset.test


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
        # rows compare as floats (-0.0 equals 0.0, a row holding nan equals
        # none), and float-equal rows sit next to each other in
        # lexicographic order (rows of no columns are all equal);
        # np.unique(axis=0) would import numpy.ma
        ordered = self.means[np.lexsort(self.means.T[::-1])] if self.input_dim else self.means
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise ValueError("class means must be distinct")


def build_stages(dataset: Dataset, cfg: StreamConfig, rng: Rng) -> list[StageRows]:
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
        stages.append(StageRows(class_set=class_set,
                                train_rows=np.flatnonzero(np.isin(dataset.train.y, class_set)),
                                test_rows=te))
    return stages


def iterate_batches(stage: StageRows, cfg: StreamConfig, rng: Rng,
                    dataset: Dataset) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Single pass over the stage's training rows in shuffled (rows, y)
    batches, rows indexing dataset.train. The shuffled rows and their
    labels are gathered in two read-only blocks as the first batch is
    asked for, and each batch is a view of them; no features are copied.
    The final batch may be short; every sample is yielded exactly once.
    """
    rows = stage.train_rows
    order = rows[rng.permutation(len(rows))]
    y = dataset.train.y[order]
    order.flags.writeable = y.flags.writeable = False
    for lo in range(0, len(y), cfg.batch_size_current):
        yield order[lo:lo + cfg.batch_size_current], y[lo:lo + cfg.batch_size_current]


def gen_synthetic(spec: SyntheticSpec, rng: Rng) -> Dataset:
    """Isotropic Gaussian blobs, one per class, class-major sample order;
    each class's train then test draws are written in place (mean + stddev * z)."""
    classes, dim = spec.means.shape
    sizes = (spec.train_per_class, spec.test_per_class)
    splits = [np.empty((classes * n, dim)) for n in sizes]
    for c in range(classes):
        for x, n in zip(splits, sizes):
            block = x[c * n:(c + 1) * n]
            rng.standard_normal(out=block)
            np.multiply(spec.stddev, block, out=block)
            np.add(spec.means[c], block, out=block)
    train, test = (LabeledData(x, np.repeat(np.arange(classes, dtype=np.int64), n))
                   for x, n in zip(splits, sizes))
    return Dataset(train=train, test=test, num_classes=classes, input_dim=spec.input_dim)


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


def load_csv_dataset(path, label_map: dict[int, int] | None = None, width: int | None = None,
                     known_labels: bool = False) -> LabeledData:
    """Rows of "label,feat,feat,...". Labels are remapped to dense ids
    0..C-1 in order of first occurrence; every row must have the same
    feature count (width, if given; else the first row's), and every
    feature must be finite (nan and inf are rejected with the line they
    are on). Pass the same label_map to several loads (train and test
    files, say) to share one remapping across them; with known_labels (a
    test file loaded after its training file), a label not already in it
    is rejected with its line instead of added.

    The file is parsed in one vectorised call (_parse_whole); a file that
    call does not read exactly as these rules say is read again line by
    line (_parse_lines), which gives every error its text and line."""
    remap = label_map if label_map is not None else {}
    parsed = _parse_whole(path, width, remap, known_labels)
    x, raw_labels = parsed if parsed is not None else \
        _parse_lines(path, width, remap, known_labels)
    for label in raw_labels:
        if label not in remap:
            remap[label] = len(remap)
    y = np.array([remap[label] for label in raw_labels], dtype=np.int64)
    return LabeledData(x, y)


# whitespace to np.loadtxt but not to float(): a field holding one would
# read as a number in one parse and fail in the other
_LOADTXT_ONLY_SPACE = ("\x1c", "\x1d", "\x1e", "\x1f")


def _parse_whole(path, width: int | None, remap: dict[int, int],
                 known_labels: bool) -> tuple[np.ndarray, list[int]] | None:
    """The features and raw labels of a valid file, from int() of each
    non-blank line's first field and one np.loadtxt call over the others;
    None for a file _parse_lines must read (it then fails there).

    On ASCII text without the separators above, np.loadtxt strips the
    whitespace float() strips and converts the rest with the function
    float() uses, so the two agree on every field both accept; a field
    only float() accepts (1_0) makes the call fail. Rows are checked for
    one field count up front, because np.loadtxt reads only the feature
    columns: a table with the label column, copied and freed, would leave
    glibc's mmap threshold above the size of stage scoring's blocks and
    slow every later step down."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in map(str.strip, fh) if line]
    if not (lines and all(map(str.isascii, lines))) or \
            any(c in line for line in lines for c in _LOADTXT_ONLY_SPACE):
        return None
    found = lines[0].count(",")
    if not found or width not in (None, found) or any(line.count(",") != found for line in lines):
        return None
    try:
        labels = [int(line.partition(",")[0]) for line in lines]
        x = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2,
                       usecols=range(1, found + 1))
    except ValueError:
        return None
    if not np.isfinite(x).all() or (known_labels and not remap.keys() >= set(labels)):
        return None
    return x, labels


def _parse_lines(path, width: int | None, remap: dict[int, int],
                 known_labels: bool) -> tuple[np.ndarray, list[int]]:
    """The features and raw labels of the file, read line by line; raises
    CsvFormatError naming the first bad line."""
    xs: list[list[float]] = []
    raw_labels: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            parts = line.split(",")
            if len(parts) < 2:
                raise CsvFormatError(f"{where}: need a label and at least one feature")
            try:
                label = int(parts[0])
            except ValueError:
                raise CsvFormatError(f"{where}: invalid label {parts[0]!r}") from None
            try:
                feats = [float(p) for p in parts[1:]]
            except ValueError:
                raise CsvFormatError(f"{where}: invalid feature value") from None
            if width is None:
                width = len(feats)
            elif len(feats) != width:
                raise CsvFormatError(f"{where}: expected {width} features, got {len(feats)}")
            if known_labels and label not in remap:
                raise CsvFormatError(f"{where}: label {label} does not occur in the training data")
            if not all(map(math.isfinite, feats)):
                raise CsvFormatError(f"{where}: non-finite feature value")
            raw_labels.append(label)
            xs.append(feats)
    if not xs:
        raise CsvFormatError(f"{path}: dataset is empty")
    return np.array(xs, dtype=np.float64), raw_labels


def save_csv_dataset(path, data: LabeledData) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(data.x, data.y):
            fh.write(f"{int(label)}," + ",".join(repr(float(v)) for v in row) + "\n")
