"""In-memory span tracer for the benchmark's traced run.

The uer modules import their collaborators by name (``from .net import
forward_batch``), so a call is intercepted by replacing the attribute in
the module that makes it: ``uer.trainer.forward_batch`` sees the training
forwards, ``uer.evaluation.forward_batch`` the evaluation ones. Every
wrapped call records one span (name, start, end, parent, run id) plus
counts read from its arguments or its result. Spans stay in memory while
the program runs and are written out as JSON lines when it ends.

A wrapped name that no longer exists is recorded as missing; every metric
of that span is then reported as missing, never as zero.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    module: str  # module whose attribute is replaced, e.g. "uer.trainer"
    attr: str  # attribute name in that module
    span: str  # span name, "<layer>.<function>[.<role>]"
    # (counter, source): source is "result" (len of the return value),
    # "len:ARG" (len of an argument), "value:ARG" (an integer argument) or
    # "file:ARG" (size in bytes of the file an argument names, after the call)
    counts: tuple[tuple[str, str], ...] = ()
    generator: bool = False  # time each next() of the returned generator
    run_start: bool = False  # each call starts the next (method, seed) run


TARGETS = (
    Target("uer.cli", "run_config", "cli.run_config"),
    Target("uer.cli", "parse_config", "config.parse_config"),
    Target("uer.cli", "build_dataset", "config.build_dataset", run_start=True),
    Target("uer.config", "load_csv_dataset", "stream.load_csv_dataset", (("rows", "result"),)),
    Target("uer.trainer", "build_stages", "stream.build_stages"),
    Target("uer.trainer", "iterate_batches", "stream.iterate_batches", generator=True),
    Target("uer.cli", "run_experiment", "trainer.run_experiment"),
    Target("uer.trainer", "train_step", "trainer.train_step"),
    Target("uer.trainer", "register_classes", "trainer.register_classes"),
    Target("uer.trainer", "forward_batch", "net.forward_batch.train", (("rows", "len:X"),)),
    Target("uer.evaluation", "forward_batch", "net.forward_batch.eval", (("rows", "len:X"),)),
    Target("uer.trainer", "backward_batch", "net.backward_batch", (("rows", "len:dH"),)),
    Target("uer.trainer", "sgd_step", "net.sgd_step"),
    Target("uer.trainer", "loss_current", "logits.loss_current", (("rows", "len:H"),)),
    Target("uer.trainer", "loss_dot", "logits.loss_dot", (("rows", "len:H"),)),
    Target("uer.trainer", "loss_replay", "logits.loss_replay", (("rows", "len:H"),)),
    Target("uer.trainer", "buffer_retrieve", "memory.buffer_retrieve",
           (("requested", "value:k"), ("returned", "result"))),
    Target("uer.trainer", "buffer_update", "memory.buffer_update", (("offered", "len:batch"),)),
    Target("uer.trainer", "accuracy", "evaluation.accuracy", (("rows", "len:test"),)),
    Target("uer.trainer", "average_posterior", "evaluation.average_posterior",
           (("rows", "len:test"),)),
    Target("uer.trainer", "bias_diagnostics", "evaluation.bias_diagnostics"),
    Target("uer.cli", "write_metrics", "evaluation.write_metrics", (("bytes", "file:path"),)),
)


class Tracer:
    """Replaces the targets' attributes while installed; restores them on exit.

    Use as a context manager. ``spans`` holds one dict per call:
    name, start, end (perf_counter seconds), parent (index or None), run,
    and the target's counts.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._run = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        original = getattr(module, target.attr, None)
        if original is None:
            self.missing.append(target.span)
            return
        sources = []
        params = list(inspect.signature(original).parameters)
        for counter, source in target.counts:
            kind, _, arg = source.partition(":")
            if arg and arg not in params:
                self.missing.append(f"{target.span}.{counter}")
                continue
            sources.append((counter, kind, arg, params.index(arg) if arg else -1))
        wrapper = (self._generator_wrapper if target.generator else self._wrapper)(
            target, original, tuple(sources))
        self._saved.append((module, target.attr, original))
        setattr(module, target.attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, target: Target) -> int:
        if target.run_start:
            self._run += 1
        index = len(self.spans)
        self.spans.append({"name": target.span,
                           "parent": self._stack[-1] if self._stack else None,
                           "run": self._run, "start": perf_counter(), "end": None})
        self._stack.append(index)
        return index

    def _close(self, index: int) -> dict:
        span = self.spans[index]
        span["end"] = perf_counter()
        self._stack.pop()
        return span

    def _wrapper(self, target, original, sources):
        def traced(*args, **kwargs):
            index = self._open(target)
            try:
                result = original(*args, **kwargs)
            finally:
                span = self._close(index)
            for counter, kind, arg, pos in sources:
                if kind == "result":
                    span[counter] = len(result)
                    continue
                value = args[pos] if pos < len(args) else kwargs[arg]
                if kind == "len":
                    span[counter] = len(value)
                elif kind == "value":
                    span[counter] = int(value)
                else:
                    span[counter] = os.path.getsize(value)
            return result
        traced.__wrapped__ = original
        return traced

    def _generator_wrapper(self, target, original, sources):
        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                index = self._open(target)
                try:
                    item = next(inner)
                except StopIteration:
                    self._close(index)["batches"] = 0
                    return
                except BaseException:
                    self._close(index)
                    raise
                self._close(index)["batches"] = 1
                yield item
        traced.__wrapped__ = original
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


_SPAN_NAMES = tuple(t.span for t in TARGETS)
_COUNTERS = {t.span: tuple(c for c, _ in t.counts) + (("batches",) if t.generator else ())
             for t in TARGETS}


def layer_metrics(spans: list[dict], missing=()) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced invocation, and the names missing.

    For every span name: ``.calls``, ``.s`` (total duration), ``.self_s``,
    ``.p50_us``, ``.p99_us`` and the sum of each counter. For every layer:
    ``<layer>.self_share``, its spans' self time over the traced total.
    Derived: ``memory.buffer_retrieve.fill_ratio`` (returned / requested).
    A metric whose span or counter is in ``missing`` is left out of the
    values and named in the returned list instead.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {name: [] for name in _SPAN_NAMES}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)
    total = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    values: dict[str, float] = {}
    gone: list[str] = []
    layer_self = dict.fromkeys((name.split(".", 1)[0] for name in _SPAN_NAMES), 0.0)
    for name, idx in by_name.items():
        fields = ["calls", "s", "self_s", "p50_us", "p99_us",
                  *_COUNTERS.get(name, ())]
        if name in missing:
            gone.extend(f"{name}.{f}" for f in fields)
            continue
        durations = sorted((spans[i]["end"] - spans[i]["start"]) * 1e6 for i in idx)
        values[f"{name}.calls"] = len(idx)
        values[f"{name}.s"] = sum(durations) / 1e6
        values[f"{name}.self_s"] = sum(own[i] for i in idx)
        values[f"{name}.p50_us"] = _percentile(durations, 50) if idx else 0.0
        values[f"{name}.p99_us"] = _percentile(durations, 99) if idx else 0.0
        for counter in _COUNTERS.get(name, ()):
            key = f"{name}.{counter}"
            if key in missing:
                gone.append(key)
            else:
                values[key] = sum(spans[i].get(counter, 0) for i in idx)
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + values[f"{name}.self_s"]
    for layer, seconds in layer_self.items():
        values[f"{layer}.self_share"] = seconds / total if total > 0 else 0.0
    retrieve = "memory.buffer_retrieve"
    if f"{retrieve}.requested" in values and f"{retrieve}.returned" in values:
        values[f"{retrieve}.fill_ratio"] = (values[f"{retrieve}.returned"]
                                            / max(values[f"{retrieve}.requested"], 1))
    else:
        gone.append(f"{retrieve}.fill_ratio")
    return values, gone
