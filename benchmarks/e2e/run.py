"""End-to-end benchmark of rule processing: every workload, one command.

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed N] [--workload W ...]
        [--seconds S] [--trace [0|1]] [--out FILE]

Each workload runs in its own fresh interpreter (``worker.py``), so
process-wide counters, caches and the peak resident set never leak from
one workload into the next. The program receives only the inputs
generated from ``--seed``. Outputs are checked after each timed phase.

The command prints every metric by name with its unit and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
whose metrics are ``BENCHMARK.json``'s ``end_to_end`` metrics, or with
``--trace`` its ``per_layer`` metrics (metric names are prefixed with
the workload when more than one workload runs). ``--trace`` reruns each
workload with span wrappers and reports the tracing overhead; end-to-end
numbers always come from the untraced run. ``--out`` writes the full
result: environment fingerprint, seed, sizes, op counts, flush policy,
every metric, and the span table of traced runs.

Exit status: 0 when every output check passed, 1 when an output check
failed or a workload could not finish, 2 when the benchmark cannot run
here (no ``src/repro`` next to it, or bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: longest a worker may take, set-up and checks included (a traced
#: single-workload run starts two workers and must end within 180 s)
WORKER_TIMEOUT = 80


class WorkerFailed(Exception):
    """A workload's worker crashed or timed out."""


def fingerprint() -> dict:
    """Where the numbers were measured."""
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            sha = subprocess.run(
                git + ["rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    git + ["status", "--porcelain", "--untracked-files=no"],
                    capture_output=True, text=True, check=True, timeout=30,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            sha = dirty = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def run_worker(
    workload: str, seed: int, seconds: float, workdir: str, *, traced: bool, smoke: bool
) -> dict:
    """One workload in a fresh interpreter; its result dict."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--workdir", workdir,
    ]
    if traced:
        command.append("--trace")
    if smoke:
        command.append("--smoke")
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", TMPDIR=workdir
    )
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT,
        )
    except subprocess.TimeoutExpired as error:
        raise WorkerFailed(f"{workload}: worker timed out after {error.timeout}s") from None
    if completed.returncode != 0 or not completed.stdout.strip():
        raise WorkerFailed(
            f"{workload}: worker exited {completed.returncode}\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"{workload:<16} {name:<40} {metric['value']:>16.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of rule processing."
    )
    parser.add_argument("--workload", action="extend", nargs="+", help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed phase length (default: BENCHMARK.json run_seconds)")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run traced and report per-layer metrics",
    )
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--smoke", action="store_true", help="seconds-long sizes (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    chosen = args.workload or known
    unknown = sorted(set(chosen) - set(known))
    if unknown:
        print(f"unknown workload(s) {', '.join(unknown)}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    results: dict[str, dict] = {}
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch, prefix="e2e-") as workdir:
            for name in chosen:
                entry = {
                    "untraced": run_worker(
                        name, args.seed, seconds, workdir, traced=False, smoke=args.smoke
                    )
                }
                if args.trace:
                    traced = run_worker(
                        name, args.seed, seconds, workdir, traced=True, smoke=args.smoke
                    )
                    plain = entry["untraced"]["metrics"].get("lat_p50_ms")
                    slowed = traced["metrics"].get("lat_p50_ms")
                    if plain and slowed:
                        traced["layers"]["bench.trace_overhead"] = {
                            "value": slowed["value"] / plain["value"], "unit": "ratio"
                        }
                    entry["traced"] = traced
                results[name] = entry
    except WorkerFailed as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    key = "per_layer" if args.trace else "end_to_end"
    wanted = [metric["name"] for metric in spec[key]]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, entry in results.items():
        for run in entry.values():
            summary["correct"] = summary["correct"] and run["correct"]
            summary["attempted"] += run["attempted"]
            summary["failed"] += run["failed"]
            for message in run["failures"]:
                print(f"{name}: FAILED {message.strip()}")
        untraced = entry["untraced"]
        print(
            f"{name:<16} {untraced['attempted']} ops attempted, {untraced['failed']} failed, "
            f"{untraced['samples']} latency samples over {untraced['elapsed_s']:.1f} s"
        )
        _print_metrics(name, untraced["metrics"])
        source = untraced["metrics"]
        if args.trace:
            _print_metrics(name, entry["traced"]["layers"])
            source = entry["traced"]["layers"]
        prefix = f"{name}." if len(results) > 1 else ""
        summary["metrics"].update(
            {prefix + metric: source[metric] for metric in wanted if metric in source}
        )

    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {
                    "env": fingerprint(),
                    "seed": args.seed,
                    "seconds": seconds,
                    "smoke": args.smoke,
                    "workloads": results,
                },
                indent=1,
            )
        )
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
