"""Benchmark of the uer command line on one workload.

    python3 perfbench/run.py --workload gauss5x2 --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. Each invocation is one ``uer run`` in a
fresh child process (perfbench/child.py) with BLAS pinned to one thread;
invocations repeat until ``--seconds`` is used up (at least a few always
run) and the medians are reported. Times are in reference seconds: scaled
by the probe kernel the child runs during the call (child.Probe), which
removes most of the host's speed drift. With ``--trace 0`` the last line holds
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1``,
traced and untraced invocations alternate and it holds the per-layer
metrics, including the tracing overhead.

Every (method, seed) run's metrics file is checked: well formed, a
consistent accuracy table, every stream sample consumed, byte-identical
across the invocations, and on the default seed its last accuracy row
equal to perfbench/reference.json. A run that breaks any rule counts as
failed. ``--write-reference`` records the reference rows instead (default
seed only). Inputs and outputs live in .perfbench_tmp/ in the checkout and
are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from spantrace import layer_metrics, read_spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
BLAS_THREADS = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"), "1")
MIN_INVOCATIONS = {0: 3, 1: 4}  # by --trace; tracing alternates untraced and traced
DEADLINE_S = 165.0  # start no invocation that would end after this


class BenchmarkError(Exception):
    pass


def run_child(args: list[str], timeout: float) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_THREADS)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child {args[0]} ran longer than {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")


def run_files(workload, seed: int) -> list[str]:
    return [f"{m}_seed{s}.metrics.jsonl" for m in workload.methods for s in workload.seeds(seed)]


def invoke(workload, seed: int, data: Path, tmp: Path, traced: bool, timeout: float) -> dict:
    """One ``uer run``: the child's record plus each run's metrics bytes."""
    work = Path(tempfile.mkdtemp(dir=tmp))
    try:
        config = work / "run.cfg"
        config.write_text(workload.config_text(seed, data, work / "out"), encoding="utf-8")
        spans = [str(work / "spans.jsonl")] if traced else []
        run_child(["invoke", workload.name, str(config), str(work / "result.json"), *spans],
                  timeout)
        record = json.loads((work / "result.json").read_text(encoding="utf-8"))
        record["traced"] = traced
        record["files"] = {}
        for name in run_files(workload, seed):
            path = work / "out" / name
            record["files"][name] = path.read_bytes() if path.is_file() else None
        if traced:
            record["layers"] = layer_metrics(read_spans(spans[0]), record["missing"])
        return record
    finally:
        shutil.rmtree(work)


def check_run(workload, raw: bytes | None, reference_row) -> tuple[list[dict] | None, str | None]:
    """Parsed stages of one metrics file, or the reason it fails."""
    if raw is None:
        return None, "metrics file missing"
    try:
        stages = [json.loads(line) for line in raw.decode("utf-8").splitlines() if line]
        if [s["stage"] for s in stages] != list(range(1, workload.stages + 1)):
            return None, "stage numbering is not 1..stages"
        for s in stages:
            row = s["accuracy_row"]
            if len(row) != s["stage"] or not all(0.0 <= a <= 1.0 for a in row):
                return None, f"stage {s['stage']}: bad accuracy row {row}"
            if abs(s["average_accuracy"] - sum(row) / len(row)) > 1e-9:
                return None, f"stage {s['stage']}: average_accuracy is not the row mean"
        consumed = sum(s["consumed_samples"] for s in stages)
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as err:
        return None, f"malformed metrics file: {err!r}"
    if consumed != workload.train_samples:
        return None, f"consumed {consumed} samples, the stream has {workload.train_samples}"
    if reference_row is not None and stages[-1]["accuracy_row"] != reference_row:
        return None, "last-stage accuracy row differs from perfbench/reference.json"
    return stages, None


def score(workload, records: list[dict], reference: dict | None):
    """Check every run of every invocation and store each invocation's
    trained samples in it. Returns the first invocation's final accuracies,
    the fingerprint of its metrics bytes, and one line per failure."""
    first = records[0]["files"]
    digest = hashlib.sha256()
    for name in sorted(first):
        digest.update(name.encode() + b"\0" + (first[name] or b"") + b"\0")
    failures: list[str] = []
    final_acc: list[float] = []
    for i, record in enumerate(records):
        samples = 0
        failed_before = len(failures)
        for name, raw in record["files"].items():
            stages, error = check_run(workload, raw,
                                      None if reference is None else reference.get(name))
            if error is None and raw != first[name]:
                error = "metrics bytes differ from the first invocation"
            if error is not None:
                failures.append(f"invocation {i}: {name}: {error}")
                continue
            samples += sum(s["consumed_samples"] for s in stages)
            if i == 0:
                final_acc.append(stages[-1]["average_accuracy"])
        if record["exit_code"] != 0 and len(failures) == failed_before:
            failures.append(f"invocation {i}: uer run exited {record['exit_code']}")
        record["samples"] = samples
    return final_acc, "sha256:" + digest.hexdigest(), failures


def environment(records: list[dict]) -> dict:
    cpu_model = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {"numpy": records[0]["numpy"], "blas": records[0]["blas"],
            "blas_version": records[0]["blas_version"], "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu_model": cpu_model}


def load_average() -> float:
    with open("/proc/loadavg", encoding="utf-8") as fh:
        return float(fh.read().split()[0])


def reference_seconds(workload, record: dict, key: str) -> float:
    """A time of one invocation, scaled to the workload's reference host
    speed by the probes: set-up by those run right after it, the call by
    those run during it."""
    probe = record["setup_probe_s" if key == "setup_s" else "probe_s"]
    return record[key] * workload.probe_reference_s / probe


def end_to_end(workload, records: list[dict], final_acc: list[float], attempted: int,
               failed: int) -> dict[str, float]:
    def median(key):
        return statistics.median(reference_seconds(workload, r, key) for r in records)

    return {
        "wall_s": median("wall_s"),
        "samples_per_s": statistics.median(
            r["samples"] / reference_seconds(workload, r, "wall_s") for r in records),
        "cpu_s": median("cpu_s"),
        "setup_s": median("setup_s"),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in records),
        "pass_rate": 1.0 - failed / attempted,
        "final_avg_acc": statistics.fmean(final_acc) if final_acc else 0.0,
    }


def per_layer(workload, records: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Medians of the span metrics over the traced invocations, and the
    traced and untraced wall times (reference seconds) with their ratio."""
    traced = [r for r in records if r["traced"]]
    values = {name: statistics.median(r["layers"][0][name] for r in traced)
              for name in traced[0]["layers"][0]}
    wall = statistics.median(reference_seconds(workload, r, "wall_s") for r in traced)
    untraced = statistics.median(reference_seconds(workload, r, "wall_s")
                                 for r in records if not r["traced"])
    values.update({"trace.wall_s": wall, "trace.untraced_wall_s": untraced,
                   "trace.overhead_ratio": wall / untraced})
    return values, traced[0]["layers"][1]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record the last accuracy rows of the default seed")
    return p.parse_args(argv)


def measure(workload, args, started: float) -> list[dict]:
    """Invocations until ``--seconds`` is used up (at least the minimum),
    each in its own directory under .perfbench_tmp/, removed at the end."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=base))
    try:
        data = tmp / "data"
        data.mkdir()
        if workload.prepare is not None:
            run_child(["prepare", workload.name, str(args.seed), str(data)], DEADLINE_S)
        records: list[dict] = []
        t0, last = perf_counter(), 0.0
        while (len(records) < MIN_INVOCATIONS[args.trace]
               or perf_counter() - t0 + last <= args.seconds):
            left = DEADLINE_S - (perf_counter() - started)
            if left < last:
                if len(records) >= MIN_INVOCATIONS[args.trace]:
                    break
                raise BenchmarkError(f"{len(records)} invocations used the time limit")
            i0 = perf_counter()
            traced = bool(args.trace) and len(records) % 2 == 1
            records.append(invoke(workload, args.seed, data, tmp, traced, left))
            last = perf_counter() - i0
        return records
    finally:
        shutil.rmtree(tmp)
        if not any(base.iterdir()):
            base.rmdir()


def bench(args) -> int:
    started = perf_counter()
    load_1m = load_average()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    if args.write_reference and args.seed != DEFAULT_SEED:
        raise BenchmarkError(f"--write-reference needs the default seed {DEFAULT_SEED}")
    reference = None
    if args.seed == DEFAULT_SEED and not args.write_reference:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(args.workload)
        if reference is None:
            raise BenchmarkError(f"{REFERENCE} has no rows for {args.workload}")

    t0 = perf_counter()
    records = measure(workload, args, started)
    final_acc, fingerprint, failures = score(workload, records, reference)
    attempted = len(records) * len(run_files(workload, args.seed))
    failed = len(failures)
    if args.write_reference:
        if failures:
            raise BenchmarkError("runs failed, not recording them as reference:\n"
                                 + "\n".join(failures))
        rows = {name: json.loads(raw.decode().splitlines()[-1])["accuracy_row"]
                for name, raw in records[0]["files"].items()}
        saved = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
        saved[args.workload] = rows
        REFERENCE.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    if args.trace:
        values, missing = per_layer(workload, records)
    else:
        values, missing = end_to_end(workload, records, final_acc, attempted, failed), []
    env = environment(records)
    env["loadavg_1m"] = load_1m
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"invocations {len(records)}  took {perf_counter() - t0:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"fingerprint {fingerprint}")
    print("measured wall_s " + " ".join(
        f"{r['wall_s']:.3f}{'T' if r['traced'] else ''}" for r in records))
    print("probe_ms " + " ".join(f"{1000 * r['probe_s']:.3f}/{r['probes']}" for r in records))
    for failure in failures:
        print(f"FAILED {failure}")
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
        elif m["name"] in missing:
            print(f"  {m['name']:<40} {'missing':>14}")
        else:
            raise BenchmarkError(f"BENCHMARK.json names {m['name']}, which is never measured")
    if not args.trace:
        print(f"  {'fail_rate':<40} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # exit through the normal unwinding on SIGTERM, so subprocess.run kills
    # and reaps the running child and the temp directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return bench(args)
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
