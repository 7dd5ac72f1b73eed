"""Command-line driver.

Subcommands:

    run          train every configured method across its seeds
    sweep-alpha  rerun the uer method once per requested alpha
    table1       the 8-way learn/replay/test grid on a 2-stage split
    diag         per-stage bias diagnostics for the configured methods

Exit codes: 0 success, 1 bad configuration or flags, 2 at least one run
failed. Every subcommand trains its (method, seed) runs on shared
trajectories (run_grid): the runs of one seed whose methods agree on the
network widths, buffer capacity and joint batch follow one stream and
train in lockstep; a method replays exactly when its buffer capacity is
above 0. A failed run prints one "FAILED <method> seed <s>: <error>" line
and the others go on. Per-run metrics land in
"<out>/<method>_seed<seed>.metrics.jsonl" with a "summary.json" next to
them; reruns with the same config and seeds reproduce every output byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, DatasetSpec, ExperimentConfig, build_dataset, parse_config, \
    parse_seeds
from .evaluation import posterior_group_means, write_metrics
from .stream import Dataset
# run_experiment is not called here: it stays importable from this module
# because the perfbench span tracer wraps it by this module's name
from .trainer import ExperimentResult, MethodConfig, TABLE1_GRID, run_experiment, \
    run_trajectories, trajectory_key, triple_method, uer_method  # noqa: F401


@dataclass
class RunSummary:
    """Final average accuracy per method per seed, plus file locations."""
    methods: dict  # name -> {"per_seed": {seed: A}, "mean": .., "std": .., "files": [..]}

    def to_json(self) -> str:
        return json.dumps({"methods": self.methods}, indent=2) + "\n"


@dataclass
class RunOutcome:
    summary: RunSummary
    failures: list[str]
    results: dict  # (method name, seed) -> ExperimentResult


def _final_accuracy(result: ExperimentResult) -> float:
    return result.metrics[-1].average_accuracy


def _seed_std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def _datasets(spec: DatasetSpec):
    """build_dataset for one invocation's runs, as a function of the seed.

    csv data does not depend on the seed, so the first csv Dataset that
    builds is reused by every later run; a build that raises is not kept,
    so each run still reports its own failure. Other kinds build on each
    call: run_trajectories calls once per seed of a round, and a round's
    data is dropped when the round ends.
    """
    built: list[Dataset] = []

    def dataset_for(seed: int) -> Dataset:
        if built:
            return built[0]
        dataset = build_dataset(spec, seed)
        if spec.kind == "csv":
            built.append(dataset)
        return dataset
    return dataset_for


def _metrics_path(out: Path, name: str, seed: int) -> Path:
    return out / f"{name}_seed{seed}.metrics.jsonl"


def _round_key(method: MethodConfig) -> tuple:
    """Jobs whose methods agree on this train in one round: the network
    widths and buffer capacity (the trajectory key without the seed) and
    the joint batch.

    Within a round, the runs of one seed share a trajectory. The joint
    batch changes no draw, yet it splits rounds, so an er-style method
    keeps streams and per-seed data builds of its own:
    perfbench/test_perfbench.py's traced run of one seed of uer and er
    still counts one stream per method (two data builds, 16 batches, 160
    offered samples).
    """
    return trajectory_key(method, 0)[1:] + (method.joint_batch,)


def run_grid(cfg: ExperimentConfig, jobs, echo=print):
    """Train (method, seeds) jobs on shared trajectories; yield per job.

    The jobs of a round (_round_key) train together in one
    run_trajectories call, each seed's runs on one stream; a round runs
    when the first of its jobs is due, and its data is built per seed
    then. Writes every passing run's metrics file and prints one FAILED
    line per failed run; yields (method, passing results, failure texts)
    per job in job order, results in seed order.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = list(jobs)
    dataset_for = _datasets(cfg.dataset)
    rounds: dict[tuple, list[int]] = {}
    for i, (method, _) in enumerate(jobs):
        rounds.setdefault(_round_key(method), []).append(i)
    outcomes: dict[int, list] = {}
    for i, (method, seeds) in enumerate(jobs):
        if i not in outcomes:
            members = rounds[_round_key(method)]
            done = iter(run_trajectories(dataset_for, [(jobs[j][0], seed) for j in members
                                                       for seed in jobs[j][1]], cfg.stream))
            for j in members:
                outcomes[j] = [next(done) for _ in jobs[j][1]]
        passed, failed = [], []
        for seed, outcome in zip(seeds, outcomes.pop(i)):
            if isinstance(outcome, Exception):
                failed.append(f"{method.name} seed {seed}: {outcome}")
                echo(f"FAILED {failed[-1]}", file=sys.stderr)
            else:
                write_metrics(_metrics_path(out, method.name, seed), outcome.metrics)
                passed.append(outcome)
        yield method, passed, failed


def _mean_or_nan(values) -> float:
    return float(np.mean([float("nan") if v is None else v for v in values]))


def run_config(cfg: ExperimentConfig, echo=print) -> RunOutcome:
    """Run methods x seeds, write metrics files, and collect the summary.

    A failing run is reported and skipped; the remaining runs still go.
    """
    out = Path(cfg.out_dir)
    methods_summary: dict = {}
    failures: list[str] = []
    results: dict = {}
    jobs = [(m, m.seeds if m.seeds is not None else cfg.seeds) for m in cfg.methods]
    for method, passed, failed in run_grid(cfg, jobs, echo):
        failures += failed
        results.update(((method.name, r.seed), r) for r in passed)
        values = [_final_accuracy(r) for r in passed]
        methods_summary[method.name] = {
            "per_seed": {str(r.seed): a for r, a in zip(passed, values)},
            "mean": float(np.mean(values)) if values else None,
            "std": _seed_std(values),
            "files": [str(_metrics_path(out, method.name, r.seed)) for r in passed],
        }
    summary = RunSummary(methods=methods_summary)
    with open(out / "summary.json", "wb") as fh:
        fh.write(summary.to_json().encode("utf-8"))
    return RunOutcome(summary=summary, failures=failures, results=results)


def _print_summary(summary: RunSummary, echo=print) -> None:
    echo(f"{'method':<14} {'mean A':>8} {'std':>8}  per-seed")
    for name, info in summary.methods.items():
        mean = "n/a" if info["mean"] is None else f"{info['mean']:.4f}"
        per_seed = " ".join(f"{s}:{a:.4f}" for s, a in info["per_seed"].items())
        echo(f"{name:<14} {mean:>8} {info['std']:>8.4f}  {per_seed}")


def _apply_flag_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """The --seed, --out and --buffer overrides; a bad value raises
    ConfigError naming its flag before any data is built. --buffer resizes
    every method that replays; a method of capacity 0 (finetune) keeps 0."""
    if getattr(args, "seed", None) is not None:
        seeds = parse_seeds(args.seed, "--seed")
        cfg = replace(cfg, seeds=seeds,
                      methods=tuple(replace(m, seeds=None) for m in cfg.methods))
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "buffer", None) is not None:
        if args.buffer < 0:
            raise ConfigError(f"--buffer: expected a non-negative capacity, got {args.buffer}")
        cfg = replace(cfg, methods=tuple(
            replace(m, buffer_capacity=args.buffer) if m.buffer_capacity else m
            for m in cfg.methods))
    return cfg


def cmd_run(args) -> int:
    cfg = _apply_flag_overrides(parse_config(args.config), args)
    outcome = run_config(cfg)
    _print_summary(outcome.summary)
    return 2 if outcome.failures else 0


def _parse_alphas(text: str) -> list[float]:
    """The whole --alpha list, checked before any training starts."""
    try:
        alphas = [float(a) for a in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad --alpha list {text!r}") from None
    bad = [a for a in alphas if not 0.0 <= a <= 1.0]  # nan fails too
    if bad:
        raise ConfigError(f"--alpha values must be finite and in [0, 1], got {bad[0]!r}")
    # two values that name one run would write one metrics file twice
    given: dict[str, str] = {}
    for value, alpha in zip(text.split(","), alphas):
        name = _alpha_run_name(alpha)
        if name in given:
            raise ConfigError(f"--alpha values {given[name]!r} and {value.strip()!r} both "
                              f"name the run {name}")
        given[name] = value.strip()
    return alphas


def _alpha_run_name(alpha: float) -> str:
    return f"uer_alpha{alpha:g}"


def sweep_jobs(base: MethodConfig, cfg: ExperimentConfig, alphas) -> list[tuple]:
    """sweep-alpha's (method, seeds) jobs: the uer method base at each alpha."""
    seeds = base.seeds if base.seeds is not None else cfg.seeds
    return [(uer_method(alpha=alpha, name=_alpha_run_name(alpha), gamma=base.gamma, lr=base.lr,
                        buffer_capacity=base.buffer_capacity, hidden_dims=base.hidden_dims),
             seeds) for alpha in alphas]


def cmd_sweep_alpha(args) -> int:
    cfg = _apply_flag_overrides(parse_config(args.config), args)
    base = next((m for m in cfg.methods if m.name == "uer"), None)
    if base is None:
        raise ConfigError("sweep-alpha needs the uer method in run.methods")
    alphas = _parse_alphas(args.alpha)
    rows, failures = [], []
    # a row averages the runs that passed; an alpha with none has no row
    for alpha, (_, passed, failed) in zip(alphas, run_grid(cfg, sweep_jobs(base, cfg, alphas))):
        failures += failed
        last = [r.metrics[-1] for r in passed]
        if last:
            rows.append({
                "alpha": alpha,
                "mean_average_accuracy": _mean_or_nan(m.average_accuracy for m in last),
                "mean_acc_previous": _mean_or_nan(m.acc_previous for m in last),
                "mean_acc_current": _mean_or_nan(m.acc_current for m in last),
            })
    with open(Path(cfg.out_dir) / "alpha_sweep.json", "wb") as fh:
        fh.write((json.dumps(rows, indent=2) + "\n").encode("utf-8"))
    print(f"{'alpha':>6} {'A':>8} {'prev':>8} {'curr':>8}")
    for r in rows:
        print(f"{r['alpha']:>6g} {r['mean_average_accuracy']:>8.4f} "
              f"{r['mean_acc_previous']:>8.4f} {r['mean_acc_current']:>8.4f}")
    return 2 if failures else 0


_TABLE1_CONFIG = """
dataset.kind = split-gauss-10
stream.stages = 2
stream.classes_per_stage = 5
run.methods = uer
run.seeds = 0,1,2
run.out = results/table1
"""


def table1_jobs(cfg: ExperimentConfig, buffer: int) -> list[tuple]:
    """table1's (method, seeds) jobs, one per TABLE1_GRID triple. The grid
    keeps the configured uer method's network and step settings."""
    base = next((m for m in cfg.methods if m.name == "uer"), None) or uer_method()
    return [(triple_method(f"{learn}-{replay}-{test}", learn, replay, test,
                           buffer_capacity=buffer, gamma=base.gamma, lr=base.lr,
                           hidden_dims=base.hidden_dims), cfg.seeds)
            for learn, replay, test in TABLE1_GRID]


def cmd_table1(args) -> int:
    if args.config:
        cfg = parse_config(args.config)
    else:
        from .config import parse_config_text
        cfg = parse_config_text(_TABLE1_CONFIG)
    cfg = _apply_flag_overrides(cfg, args)
    buffer = args.buffer if args.buffer is not None else 200
    header = (f"{'learn':<8} {'replay':<8} {'test':<8} {'A_all':>7} {'A_prev':>7} "
              f"{'A_curr':>7} {'|W_p|':>7} {'|W_c|':>7} {'w_p':>7} {'w_c':>7} "
              f"{'b_p':>7} {'b_c':>7}")
    print(header)
    failures = []
    # a row averages the runs that passed; a triple with none has no row
    for (learn, replay, test), (_, passed, failed) in zip(TABLE1_GRID,
                                                          run_grid(cfg, table1_jobs(cfg, buffer))):
        failures += failed
        if not passed:
            continue
        cols = [[m.average_accuracy, m.acc_previous, m.acc_current, m.norm_prev, m.norm_curr,
                 m.mean_w_prev, m.mean_w_curr, m.mean_b_prev, m.mean_b_curr]
                for m in (r.metrics[-1] for r in passed)]
        mean = np.mean(np.asarray(cols, dtype=np.float64), axis=0)
        print(f"{learn:<8} {replay:<8} {test:<8} " + " ".join(f"{v:>7.3f}" for v in mean))
    return 2 if failures else 0


def cmd_diag(args) -> int:
    cfg = _apply_flag_overrides(parse_config(args.config), args)
    outcome = run_config(cfg)
    for method in cfg.methods:
        seeds = method.seeds if method.seeds is not None else cfg.seeds
        seed = int(seeds[0])
        if (method.name, seed) not in outcome.results:
            continue
        result = outcome.results[(method.name, seed)]
        print(f"\n{method.name} (seed {seed})")
        print(f"{'stage':>5} {'dW_L1':>10} {'|W_p|':>7} {'|W_c|':>7} {'b_p':>8} "
              f"{'b_c':>8} {'post_p':>8} {'post_c':>8}")
        for m in result.metrics:
            prev_post, curr_post = posterior_group_means(m)
            fmt = lambda v, w=7: " " * (w - 3) + "n/a" if v is None else f"{v:>{w}.3f}"
            print(f"{m.stage:>5} {m.accumulated_param_change:>10.3f} "
                  f"{fmt(m.norm_prev)} {fmt(m.norm_curr)} "
                  f"{fmt(m.mean_b_prev, 8)} {fmt(m.mean_b_curr, 8)} "
                  f"{fmt(prev_post, 8)} {curr_post:>8.3f}")
    return 2 if outcome.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uer", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="experiment config file" + ("" if config_required
                                                        else " (optional)"))
        p.add_argument("--seed", help="comma-separated seed override")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--buffer", type=int, help="buffer capacity override")

    common(sub.add_parser("run", help="train configured methods"))
    p = sub.add_parser("sweep-alpha", help="rerun uer across replay mix weights")
    common(p)
    p.add_argument("--alpha", required=True, help="comma-separated alpha values")
    common(sub.add_parser("table1", help="8-way scoring grid"), config_required=False)
    common(sub.add_parser("diag", help="per-stage bias diagnostics"))
    return parser


COMMANDS = {
    "run": cmd_run,
    "sweep-alpha": cmd_sweep_alpha,
    "table1": cmd_table1,
    "diag": cmd_diag,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; fold --help into success
        return 0 if exc.code in (0, None) else 1
    try:
        return COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports, not raises
        traceback.print_exc()
        print(f"run failed: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
