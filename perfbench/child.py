"""One benchmark invocation, run in a fresh process by run.py.

    python3 perfbench/child.py prepare WORKLOAD SEED WORKDIR
    python3 perfbench/child.py invoke WORKLOAD CONFIG RESULT [SPANS]

``prepare`` writes a workload's input files. ``invoke`` times
``import uer`` plus ``parse_config`` (set-up), then one in-process
``uer run --config CONFIG`` (wall and CPU time) while the workload's probe
samples the host's speed, and writes the timings, probe times, peak RSS
and library versions to RESULT as JSON. With SPANS, the run is traced and
its spans are written there.

run.py starts this with PYTHONPATH naming the checkout's ``src`` and the
BLAS thread variables set to 1; numpy reads them at import.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter, process_time

PROBE_INTERVAL_S = 0.1
SETUP_PROBES = 20


def _blas() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


class Probe:
    """Samples how fast the host runs this process while a call is timed.

    While entered, a timer signal interrupts the interpreter every
    ``PROBE_INTERVAL_S`` to run a fixed kernel and record its wall and CPU
    time. The kernel is ``steps`` SGD steps of a small MLP with softmax
    cross-entropy on a batch of 10 gathered from a 500-row buffer (the
    kind of work uer's small steps do), then ``big`` 288x256 by 256x256
    matrix products. It uses only NumPy, never uer. The mean probe time
    tracks the host's speed during the call; the probes' own time is
    subtracted from the call's.
    """

    def __init__(self, steps: int, big: int):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._rng = rng
        self._buffer = rng.standard_normal((500, 20))
        self._labels = rng.integers(0, 10, 500)
        self._w1, self._w2 = 0.1 * rng.standard_normal((20, 64)), 0.1 * rng.standard_normal((64, 10))
        self._wide = rng.standard_normal((288, 256)), rng.standard_normal((256, 256))
        self._steps, self._big = steps, big
        self.wall: list[float] = []
        self.cpu = 0.0

    def sample(self, *_) -> None:
        np = self._np
        w0, c0 = perf_counter(), process_time()
        for _ in range(self._steps):
            idx = self._rng.choice(500, size=10, replace=False)
            x, y = self._buffer[idx], self._labels[idx]
            h = np.maximum(x @ self._w1, 0.0)
            z = h @ self._w2
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(10), y] -= 1.0
            dh = (p @ self._w2.T) * (h > 0)
            self._w2 -= 1e-3 * (h.T @ p)
            self._w1 -= 1e-3 * (x.T @ dh)
        x, w = self._wide
        for _ in range(self._big):
            np.maximum(x @ w, 0.0)
        self.wall.append(perf_counter() - w0)
        self.cpu += process_time() - c0

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def invoke(workload: str, config: str, result: str, spans: str | None) -> None:
    t0 = perf_counter()
    import uer.cli
    from uer.config import parse_config
    parse_config(config)
    setup_s = perf_counter() - t0

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(uer.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported uer from {uer.__file__}, not from {src}")

    from workloads import WORKLOADS

    mix = WORKLOADS[workload].probe
    # the set-up is too short to probe while it runs: probe right after it
    after_setup = Probe(*mix)
    for _ in range(SETUP_PROBES):
        after_setup.sample()
    probe = Probe(*mix)
    trace = contextlib.nullcontext()
    if spans is not None:
        from spantrace import Tracer
        trace = Tracer()
    with trace as tracer, contextlib.redirect_stdout(io.StringIO()):
        w0, c0 = perf_counter(), process_time()
        with probe:
            code = uer.cli.main(["run", "--config", config])
        wall_s, cpu_s = perf_counter() - w0, process_time() - c0
    if tracer is not None:
        tracer.write(spans)
    record = {
        "exit_code": code,
        "setup_s": setup_s,
        "setup_probe_s": sum(after_setup.wall) / SETUP_PROBES,
        "wall_s": wall_s - sum(probe.wall),
        "cpu_s": cpu_s - probe.cpu,
        "probe_s": (sum(probe.wall) / len(probe.wall) if probe.wall
                    else sum(after_setup.wall) / SETUP_PROBES),
        "probes": len(probe.wall),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing": tracer.missing if tracer is not None else [],
        **_blas(),
    }
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def prepare(workload: str, seed: int, workdir: str) -> None:
    from workloads import WORKLOADS

    WORKLOADS[workload].prepare(seed, Path(workdir))


def main(argv: list[str]) -> int:
    if argv[:1] == ["prepare"] and len(argv) == 4:
        prepare(argv[1], int(argv[2]), argv[3])
    elif argv[:1] == ["invoke"] and len(argv) in (4, 5):
        invoke(argv[1], argv[2], argv[3], argv[4] if len(argv) == 5 else None)
    else:
        print(__doc__, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
