"""Run one workload of the end-to-end benchmark in this process.

``run.py`` starts a fresh interpreter with this script for every
workload, so that process-wide state (the planner's ``plan.STATS`` and
caches, the peak resident set) never leaks from one workload into
another. The result is one JSON object on the last line of standard
output::

    PYTHONPATH=src python benchmarks/e2e/worker.py --workload iot_ingest \\
        --seed 0 --seconds 10 --workdir .bench_tmp/x [--trace] [--smoke]

A run sets the workload up ``SETUPS`` times (``setup_s`` is the median),
drives its ops in a closed loop for ``--seconds``, recovers its WAL
``RECOVERIES`` times (``recover_s`` is the median), and only then checks
the outputs, outside every timer.

Times are reported at a reference interpreter speed (see :class:`Speed`);
the raw wall-clock values are kept under ``wall`` in the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import threading
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time, thread_time

ROOT = Path(__file__).resolve().parents[2]

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: timed recoveries per run; ``recover_s`` is their median
RECOVERIES = 3
#: failure messages kept in a result
MAX_MESSAGES = 20
#: thread CPU seconds :func:`calibrate` takes at the reference speed
REFERENCE_SECONDS = 0.0013
#: during the timed phase, each client recalibrates this often (seconds)
CALIBRATE_EVERY = 0.1


def calibrate() -> float:
    """Thread CPU seconds of one fixed unit of interpreter work.

    Integer arithmetic and dict stores only: nothing it allocates is
    tracked by the cyclic garbage collector, so no collection lands in
    it, and thread CPU time leaves out waits for the interpreter lock.
    """
    started = thread_time()
    total = 0
    table = {}
    for i in range(10_000):
        total += i * i
        table[i & 255] = total
    return thread_time() - started


class Speed:
    """The interpreter's current speed, from interleaved calibration.

    On a shared machine the effective CPU speed drifts by tens of percent
    over minutes, far more than the bounds the benchmark gates on, and
    longer runs do not average it out. So the harness calibrates next to
    what it times and reports an interval of *wall* seconds in which the
    process used *cpu* CPU seconds as ``wall - cpu + cpu * factor``, with
    ``factor = REFERENCE_SECONDS / (median of the latest 3 samples)``:
    time spent computing is rescaled to the reference speed, time spent
    waiting (fsync, sleeps, commit waits) is kept as measured.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.samples.append(calibrate())

    def factor(self) -> float:
        return REFERENCE_SECONDS / statistics.median(self.samples[-3:])

    def normalize(self, wall: float, cpu: float) -> float:
        cpu = min(cpu, wall)
        return wall - cpu + cpu * self.factor()


def percentile(values: list[float], q: float) -> float:
    """The nearest-rank *q*-th percentile of *values*."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def _add(into: dict, values: dict) -> dict:
    for name, value in values.items():
        into[name] = into.get(name, 0) + value
    return into


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _no_span(name: str):
    return nullcontext()


def drive(workload, seconds: float, speed: Speed, span=_no_span):
    """The timed phase: every client runs ops back to back (a closed
    loop) until *seconds* have passed, recalibrating *speed* between ops.

    Returns ``(elapsed, latencies, walls, attempted, errors)``:
    *latencies* are normalized op times, *walls* the same ops' wall
    times, and *errors* holds ``(op id, traceback)`` for every op that
    raised. Op ids number the ops of all clients:
    ``index * clients + client``.
    """
    clients = workload.clients
    latencies: list[list[float]] = [[] for _ in range(clients)]
    walls: list[list[float]] = [[] for _ in range(clients)]
    attempted = [0] * clients
    errors: list[list[tuple[int, str]]] = [[] for _ in range(clients)]
    crashed: list[BaseException] = []
    deadline = perf_counter() + seconds

    def client(number: int) -> None:
        index = 0
        calibrated = perf_counter()
        try:
            while perf_counter() < deadline:
                if perf_counter() - calibrated >= CALIBRATE_EVERY:
                    speed.sample()
                    calibrated = perf_counter()
                started, cpu = perf_counter(), process_time()
                try:
                    with span("bench.op"):
                        output = workload.op(number, index)
                except Exception:  # a raising op fails; the load goes on
                    errors[number].append(
                        (index * clients + number, traceback.format_exc())
                    )
                else:
                    wall = perf_counter() - started
                    walls[number].append(wall)
                    latencies[number].append(
                        speed.normalize(wall, process_time() - cpu)
                    )
                    workload.record(number, index, output)
                index += 1
        except BaseException as error:  # re-raised by the caller below
            crashed.append(error)
        attempted[number] = index

    started = perf_counter()
    if clients == 1:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(number,), name=f"e2e-client-{number}")
            for number in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = perf_counter() - started
    if crashed:
        raise crashed[0]
    return (
        elapsed,
        [value for per in latencies for value in per],
        [value for per in walls for value in per],
        sum(attempted),
        [error for per in errors for error in per],
    )


def _timed(speed: Speed, thunk):
    """Run *thunk* after calibrating; ``(result, normalized s, wall s)``."""
    speed.sample(3)
    started, cpu = perf_counter(), process_time()
    result = thunk()
    wall = perf_counter() - started
    return result, speed.normalize(wall, process_time() - cpu), wall


def run_workload(
    name: str, seed: int, seconds: float, *, traced: bool, scale: str, workdir: str
) -> dict:
    """Set up, drive, recover and check one workload; the result dict."""
    from e2e_workloads import WORKLOADS
    from layers import per_layer_metrics

    from repro.engine import plan, wal
    from repro.stats import stats_delta

    tracer = None
    span = _no_span
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        span = tracer.span

    speed = Speed()
    setups: list[tuple[float, float]] = []
    workload = None

    def set_up():
        with span("bench.setup"):
            return WORKLOADS[name](seed, scale, workdir)

    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        workload, normalized, wall = _timed(speed, set_up)
        setups.append((normalized, wall))

    def counters() -> dict:
        values = {f"plan.{key}": value for key, value in plan.STATS.to_dict().items()}
        _add(values, workload.counters())
        if tracer is not None:
            _add(values, tracer.counters())
        return values

    gc.collect()
    setup_rss_mb = _peak_rss_mb()
    before = counters()
    speed.sample(3)
    elapsed, latencies, walls, attempted, errors = drive(workload, seconds, speed, span)
    workload.finish()
    run_rss_mb = _peak_rss_mb()
    moved = stats_delta(before, counters())
    # The phase at the reference speed: closed-loop clients spend it in ops.
    scaled_elapsed = elapsed * (sum(latencies) / sum(walls) if walls else 1.0)

    recovered = None
    recoveries: list[tuple[float, float]] = []
    reports = []

    def recover():
        with span("bench.recover"):
            return wal.recover_database(workload.log_path, schema=workload.schema)

    if workload.log_path is not None:
        for _ in range(RECOVERIES):
            recovered = None
            recovery, normalized, wall = _timed(speed, recover)
            recoveries.append((normalized, wall))
            reports.append(recovery.report)
            recovered = recovery.database

    with span("bench.check"):
        try:
            failed_ops, messages = workload.check(recovered)
        except Exception:  # a check that crashes fails the whole run
            failed_ops, messages = {-1}, [traceback.format_exc()]
    failed_ops |= {op_id for op_id, _ in errors}
    messages = [message for _, message in errors] + messages
    failed = attempted if -1 in failed_ops else len(failed_ops)

    def timings(index: int) -> dict[str, tuple[float, str]]:
        """The time metrics: index 0 at the reference speed, 1 as walled."""
        ops = (latencies, walls)[index]
        span_s = (scaled_elapsed, elapsed)[index]
        values = {"setup_s": (statistics.median(s[index] for s in setups), "s")}
        if ops:
            values["lat_p50_ms"] = (percentile(ops, 50) * 1000, "ms")
        for q in (90, 99):
            # A tail percentile is reported only with >= 10 samples beyond it.
            if len(ops) * (100 - q) >= 1000:
                values[f"lat_p{q}_ms"] = (percentile(ops, q) * 1000, "ms")
        values["ops_per_s"] = (len(ops) / span_s, "1/s")
        if recoveries:
            values["recover_s"] = (statistics.median(r[index] for r in recoveries), "s")
        if "explore.states" in moved:
            values["states_per_s"] = (moved["explore.states"] / span_s, "1/s")
        return values

    metrics = timings(0)
    metrics["peak_rss_mb"] = (setup_rss_mb, "MB")
    metrics["peak_rss_run_mb"] = (run_rss_mb, "MB")
    if "server.commits" in moved:
        attempts = moved["server.commits"] + moved["server.retries"]
        metrics["retry_frac"] = (moved["server.retries"] / max(attempts, 1), "ratio")
    metrics["failed_frac"] = (failed / max(attempted, 1), "ratio")

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "traced": traced,
        "sizes": workload.sizes,
        "clients": workload.clients,
        "flush_policy": workload.flush_policy,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "failures": messages[:MAX_MESSAGES],
        "samples": len(latencies),
        "elapsed_s": elapsed,
        "speed_factor": REFERENCE_SECONDS / statistics.median(speed.samples),
        "calibrations": len(speed.samples),
        "metrics": {key: {"value": value, "unit": u} for key, (value, u) in metrics.items()},
        "wall": {key: {"value": value, "unit": u} for key, (value, u) in timings(1).items()},
    }
    if tracer is not None:
        layers = per_layer_metrics(tracer.tree(), moved, attempted, reports)
        result["layers"] = {
            key: {"value": value, "unit": u} for key, (value, u) in sorted(layers.items())
        }
        result["spans"] = [
            {"path": "/".join(path), "count": count, "total_s": total, "self_s": self_time}
            for path, (count, total, self_time) in sorted(tracer.tree().items())
        ]
    workload.close()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True, help="directory for the run's files")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--smoke", action="store_true", help="seconds-long sizes")
    args = parser.parse_args(argv)

    import repro

    source = (ROOT / "src").resolve()
    if source not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {source}", file=sys.stderr)
        return 2
    result = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        traced=args.trace,
        scale="smoke" if args.smoke else "full",
        workdir=args.workdir,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
