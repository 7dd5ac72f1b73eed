"""Flat key-value experiment configuration.

Grammar (one assignment per line):

    config   = { line }
    line     = [ key "=" value ] [ "#" comment ]
    key      = segment { "." segment }        segment = [A-Za-z0-9_-]+
    value    = scalar { "," scalar }          scalars never contain "," or "#"

Scalars are parsed by the expected type of the key: int, float (finite:
inf and nan are rejected), bool ("true"/"false"), or bare string. Lists
are comma separated. Keys:

    dataset.kind              split-gauss-10 | synthetic | csv   (required)
    dataset.classes           int, synthetic only (default 10)
    dataset.input_dim         int, synthetic only (default 20)
    dataset.radius            float, synthetic only (default 3.0)
    dataset.stddev            float, synthetic only (default 1.0)
    dataset.train_per_class   int, synthetic only (default 500)
    dataset.test_per_class    int, synthetic only (default 100)
    dataset.train_csv         path, csv only (required)
    dataset.test_csv          path, csv only (required)
    stream.stages             int (default 5)
    stream.classes_per_stage  int (default 2)
    stream.batch_current      int (default 10)
    stream.batch_memory       int (default 10)
    stream.shuffle_seed       int (default: derived from the run seed)
    run.methods               list of method names (required)
    run.seeds                 list of ints >= 0 (default 0)
    run.out                   output directory (default "results")
    method.NAME.learn         dot | cosine
    method.NAME.replay        dot | cosine | mixed
    method.NAME.test          dot | cosine
    method.NAME.alpha         float in [0,1] (default 0.5), mixed replay only
    method.NAME.gamma         float > 0 (default 10.0)
    method.NAME.lr            float > 0 (default 0.1)
    method.NAME.buffer        int >= 0 (default 500); 0: no replay
    method.NAME.joint_batch   true | false
    method.NAME.hidden        list of ints (default 64)
    method.NAME.seeds         list of ints >= 0 (default: run.seeds)

Method names appearing in run.methods are either stock presets (uer,
uer-a, er, lucir, finetune) or custom names that must define learn,
replay, and test. Preset knobs may be overridden per key except where a
preset pins them (uer-a keeps alpha = 1, finetune keeps buffer = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from math import isfinite

from .numeric import make_rng
from .stream import Dataset, StreamConfig, gen_synthetic, load_csv_dataset, \
    make_sphere_spec, split_gauss_10
from .trainer import MethodConfig, PRESET_BUILDERS, triple_method


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    classes: int = 10
    input_dim: int = 20
    radius: float = 3.0
    stddev: float = 1.0
    train_per_class: int = 500
    test_per_class: int = 100
    train_csv: str | None = None
    test_csv: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    stream: StreamConfig
    methods: tuple[MethodConfig, ...]
    seeds: tuple[int, ...]
    out_dir: str


# Value ranges, checked as each key is read so that a bad value is
# reported with its line and key (MethodConfig and StreamConfig check the
# same ranges for callers that build them directly)
_ALPHA = (lambda v: 0.0 <= v <= 1.0, "alpha out of [0,1]")
_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
_DIMS = (lambda v: min(v) >= 1, "layer widths must be positive")

_METHOD_KEYS = {"learn", "replay", "test", "alpha", "gamma", "lr", "buffer",
                "joint_batch", "hidden", "seeds"}


def _parse_lines(text: str) -> dict[str, tuple[int, str]]:
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        # str.isalnum alone also takes letters and digits outside ASCII (é, ²)
        if not key.isascii() or not all(seg and all(c.isalnum() or c in "_-" for c in seg)
                                        for seg in key.split(".")):
            raise ConfigError(f"line {lineno}: malformed key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: key {key}: empty value")
        if key in entries:
            raise ConfigError(f"line {lineno}: key {key}: duplicate assignment "
                              f"(first on line {entries[key][0]})")
        entries[key] = (lineno, value)
    return entries


def parse_seeds(value: str, where: str) -> tuple[int, ...]:
    """A comma-separated list of distinct run seeds. A seed is a
    non-negative int (NumPy's generators take no negative seed); where
    names the source, e.g. "line 3: key run.seeds" or "--seed"."""
    try:
        seeds = tuple(int(v.strip()) for v in value.split(","))
        valid = min(seeds) >= 0
    except ValueError:
        valid = False
    if not valid:
        raise ConfigError(f"{where}: expected non-negative integer seeds, got {value!r}")
    # a repeated seed would train the same run twice, write its metrics
    # file twice and count it twice in the summary
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"{where}: seed {seed} appears more than once in {value!r}")
    return seeds


def _convert(key: str, lineno: int, value: str, kind: str):
    if kind == "seeds":
        return parse_seeds(value, f"line {lineno}: key {key}")
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "bool":
            if value not in ("true", "false"):
                raise ValueError
            return value == "true"
        if kind == "ints":
            return tuple(int(v.strip()) for v in value.split(","))
        if kind == "strs":
            return tuple(v.strip() for v in value.split(","))
        return value
    except ValueError:
        raise ConfigError(f"line {lineno}: key {key}: expected {kind}, got {value!r}") from None


class _Entries:
    def __init__(self, entries: dict[str, tuple[int, str]]):
        self.entries = entries
        self.used: set[str] = set()

    def take(self, key: str, kind: str, default=None, valid=None):
        """The key's value converted to kind, or default if it is not set;
        valid, a (predicate, message) pair, rejects a value out of range."""
        if key not in self.entries:
            return default
        self.used.add(key)
        lineno, text = self.entries[key]
        value = _convert(key, lineno, text, kind)
        if kind == "float" and not isfinite(value):
            raise ConfigError(f"line {lineno}: key {key}: must be finite, got {text!r}")
        if valid is not None and not valid[0](value):
            raise ConfigError(f"line {lineno}: key {key}: {valid[1]}, got {text!r}")
        return value

    def require(self, key: str, kind: str):
        if key not in self.entries:
            raise ConfigError(f"missing required key {key}")
        return self.take(key, kind)

    def line_of(self, key: str) -> int:
        return self.entries[key][0]

    def unused(self) -> list[str]:
        return [k for k in self.entries if k not in self.used]


def _build_method(name: str, e: _Entries, run_seeds: tuple[int, ...]) -> MethodConfig:
    def k(suffix):
        return f"method.{name}.{suffix}"

    overrides = {}
    alpha = e.take(k("alpha"), "float", valid=_ALPHA)
    if (v := e.take(k("gamma"), "float", valid=_POSITIVE)) is not None:
        overrides["gamma"] = v
    if (v := e.take(k("lr"), "float", valid=_POSITIVE)) is not None:
        overrides["lr"] = v
    if (v := e.take(k("buffer"), "int", valid=_NON_NEGATIVE)) is not None:
        overrides["buffer_capacity"] = v
    if (v := e.take(k("joint_batch"), "bool")) is not None:
        overrides["joint_batch"] = v
    if (v := e.take(k("hidden"), "ints", valid=_DIMS)) is not None:
        overrides["hidden_dims"] = v
    if (v := e.take(k("seeds"), "seeds")) is not None:
        overrides["seeds"] = v

    learn = e.take(k("learn"), "str")
    replay = e.take(k("replay"), "str")
    test = e.take(k("test"), "str")

    try:
        if name in PRESET_BUILDERS:
            if any(v is not None for v in (learn, replay, test)):
                raise ConfigError(f"method {name} is a stock preset; its scoring "
                                  f"triple cannot be overridden")
            build = PRESET_BUILDERS[name]
        else:
            missing = [s for s, v in (("learn", learn), ("replay", replay), ("test", test))
                       if v is None]
            if missing:
                raise ConfigError(f"custom method {name} needs keys "
                                  + ", ".join(f"method.{name}.{m}" for m in missing))
            build = partial(triple_method, name, learn, replay, test)
        cfg = build(**overrides)
        if alpha is not None:
            # only a mixed replay rule weighs its two cross-entropies
            if (kind := cfg.triple.replay.kind) != "mixed":
                raise ConfigError(f"line {e.line_of(k('alpha'))}: key {k('alpha')}: method "
                                  f"{name} replays by {kind}, which takes no alpha")
            cfg = build(alpha=alpha, **overrides)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"method {name}: {err}") from None
    if cfg.seeds is None:
        cfg = replace(cfg, seeds=run_seeds)
    return cfg


def parse_config_text(text: str) -> ExperimentConfig:
    e = _Entries(_parse_lines(text))

    kind = e.require("dataset.kind", "str")
    if kind not in ("split-gauss-10", "synthetic", "csv"):
        raise ConfigError(f"line {e.line_of('dataset.kind')}: key dataset.kind: "
                          f"unknown dataset kind {kind!r}")
    spec_kw = {"kind": kind}
    if kind == "synthetic":
        for key, typ, valid in (("classes", "int", _AT_LEAST_1),
                                ("input_dim", "int", _AT_LEAST_1), ("radius", "float", None),
                                ("stddev", "float", _POSITIVE),
                                ("train_per_class", "int", _AT_LEAST_1),
                                ("test_per_class", "int", _AT_LEAST_1)):
            if (v := e.take(f"dataset.{key}", typ, valid=valid)) is not None:
                spec_kw[key] = v
    elif kind == "csv":
        spec_kw["train_csv"] = e.require("dataset.train_csv", "str")
        spec_kw["test_csv"] = e.require("dataset.test_csv", "str")
    dataset = DatasetSpec(**spec_kw)

    stream = StreamConfig(
        stages=e.take("stream.stages", "int", 5, _AT_LEAST_1),
        classes_per_stage=e.take("stream.classes_per_stage", "int", 2, _AT_LEAST_1),
        batch_size_current=e.take("stream.batch_current", "int", 10, _AT_LEAST_1),
        batch_size_memory=e.take("stream.batch_memory", "int", 10, _NON_NEGATIVE),
        shuffle_seed=e.take("stream.shuffle_seed", "int", valid=_NON_NEGATIVE),
    )

    names = e.require("run.methods", "strs")
    if len(set(names)) != len(names):
        raise ConfigError(f"line {e.line_of('run.methods')}: key run.methods: "
                          f"duplicate method names")
    seeds = e.take("run.seeds", "seeds", (0,))
    out_dir = e.take("run.out", "str", "results")
    methods = tuple(_build_method(name, e, seeds) for name in names)

    for key in e.unused():
        # every method key of a method in run.methods has been read, so a
        # method key left over belongs to a method that does not run
        head, _, rest = key.partition(".")
        name, _, suffix = rest.rpartition(".")
        if head == "method" and name and suffix in _METHOD_KEYS:
            raise ConfigError(f"line {e.line_of(key)}: key {key}: "
                              f"method {name} is not in run.methods")
        raise ConfigError(f"line {e.line_of(key)}: unknown key {key}")

    return ExperimentConfig(dataset=dataset, stream=stream, methods=methods, seeds=seeds,
                            out_dir=out_dir)


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    try:
        return parse_config_text(text)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from None


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it yields an equal ExperimentConfig."""
    lines = [f"dataset.kind = {cfg.dataset.kind}"]
    if cfg.dataset.kind == "synthetic":
        for key in ("classes", "input_dim", "radius", "stddev",
                    "train_per_class", "test_per_class"):
            lines.append(f"dataset.{key} = {getattr(cfg.dataset, key)!r}"
                         if isinstance(getattr(cfg.dataset, key), float)
                         else f"dataset.{key} = {getattr(cfg.dataset, key)}")
    elif cfg.dataset.kind == "csv":
        lines.append(f"dataset.train_csv = {cfg.dataset.train_csv}")
        lines.append(f"dataset.test_csv = {cfg.dataset.test_csv}")
    lines.append(f"stream.stages = {cfg.stream.stages}")
    lines.append(f"stream.classes_per_stage = {cfg.stream.classes_per_stage}")
    lines.append(f"stream.batch_current = {cfg.stream.batch_size_current}")
    lines.append(f"stream.batch_memory = {cfg.stream.batch_size_memory}")
    if cfg.stream.shuffle_seed is not None:
        lines.append(f"stream.shuffle_seed = {cfg.stream.shuffle_seed}")
    lines.append("run.methods = " + ",".join(m.name for m in cfg.methods))
    lines.append("run.seeds = " + ",".join(str(s) for s in cfg.seeds))
    lines.append(f"run.out = {cfg.out_dir}")
    for m in cfg.methods:
        prefix = f"method.{m.name}"
        if m.name not in PRESET_BUILDERS:
            lines.append(f"{prefix}.learn = {m.triple.learn.value}")
            lines.append(f"{prefix}.replay = {m.triple.replay.kind}")
            lines.append(f"{prefix}.test = {m.triple.test.value}")
        if m.triple.replay.kind == "mixed" and m.name != "uer-a":
            lines.append(f"{prefix}.alpha = {m.triple.replay.alpha!r}")
        lines.append(f"{prefix}.gamma = {m.gamma!r}")
        lines.append(f"{prefix}.lr = {m.lr!r}")
        lines.append(f"{prefix}.buffer = {m.buffer_capacity}")
        lines.append(f"{prefix}.joint_batch = {'true' if m.joint_batch else 'false'}")
        lines.append(f"{prefix}.hidden = " + ",".join(str(d) for d in m.hidden_dims))
        if m.seeds is not None:
            lines.append(f"{prefix}.seeds = " + ",".join(str(s) for s in m.seeds))
    return "\n".join(lines) + "\n"


def build_dataset(spec: DatasetSpec, seed: int) -> Dataset:
    """Materialize the dataset a run trains on; synthetic data depends on
    the seed, csv data does not."""
    rng = make_rng([int(seed), 0])
    if spec.kind == "split-gauss-10":
        return split_gauss_10(rng)
    if spec.kind == "synthetic":
        synth = make_sphere_spec(spec.classes, spec.input_dim, spec.radius, spec.stddev,
                                 spec.train_per_class, spec.test_per_class, rng)
        return gen_synthetic(synth, rng)
    if spec.kind == "csv":
        label_map: dict[int, int] = {}
        train = load_csv_dataset(spec.train_csv, label_map)
        # the test rows must fit the network and the scorer that train.csv fixes
        test = load_csv_dataset(spec.test_csv, label_map, width=train.x.shape[1],
                                known_labels=True)
        return Dataset(train=train, test=test, num_classes=len(label_map),
                       input_dim=train.x.shape[1])
    raise ConfigError(f"unknown dataset kind {spec.kind!r}")
