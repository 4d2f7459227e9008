"""A/B comparison of two versions of the program on the end-to-end benchmark.

    python benchmarks/e2e/compare.py PARENT CHANGE [--workload W ...]
        [--pairs 10] [--claim METRIC@WORKLOAD ...] [--seconds S]
        [--seed N] [--workdir DIR]

PARENT and CHANGE are git revisions of this repository or directories
holding a checkout. Each side's ``src/`` is exported (``git archive``
for a revision) into its own directory under ``--workdir``, next to a
copy of *this* benchmark, so both sides run identical benchmark code
and differ only in the program. (Exports rather than ``git worktree``s:
an export holds exactly the files git would commit, as the benchmark's
own checkouts do, and leaves no worktree metadata behind.)

The script runs ``--pairs`` pairs (at least 10) per workload, one seed
per pair, alternating which side runs first, and prints one row per
(workload, metric) with each side's median and quartiles:

* a claimed (metric, workload) is met when the change wins at least
  nine tenths of the pairs (ties count for neither side) and the
  medians differ by more than the parent's own quartile spread;
* every other (metric, workload) is checked against its bound — from
  ``BENCHMARK.json`` for the end-to-end metrics every workload reports,
  from ``metrics.json`` for the workload-specific ones — and reads
  ``unresolved`` when the parent's own spread is wider than the bound,
  unless every run of the change is better than every run of the parent.

Every run is written to ``compare.json`` in the work directory. Exit
status 1 when a bound is exceeded or a claim is not met.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def export(side: str, destination: Path) -> Path:
    """*side*'s program plus this benchmark, in *destination*."""
    if Path(side).is_dir():
        shutil.copytree(Path(side) / "src", destination / "src")
    else:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", side, "src"],
            capture_output=True, check=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(destination, filter="data")
    shutil.copytree(
        HERE, destination / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", destination / "BENCHMARK.json")
    return destination


def run_once(side: Path, workload: str, seed: int, seconds: float | None, out: Path) -> dict:
    """One untraced benchmark run of *workload* on *side*; its result."""
    command = [
        sys.executable, "benchmarks/e2e/run.py",
        "--workload", workload, "--seed", str(seed), "--out", str(out),
    ]
    if seconds is not None:
        command += ["--seconds", repr(seconds)]
    completed = subprocess.run(command, cwd=side, capture_output=True, text=True)
    if not out.exists():
        raise RuntimeError(f"{side.name} {workload} seed {seed}: {completed.stderr}")
    return json.loads(out.read_text())["workloads"][workload]["untraced"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(metric: dict, parent: list[float], change: list[float], claimed: bool) -> str:
    """The verdict on one (metric, workload) from paired runs."""
    lower = metric["better"] == "lower"
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    if claimed:
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(parent, change)
        )
        met = wins >= 0.9 * len(parent) and abs(change_median - parent_median) > q3 - q1
        return f"claim {'met' if met else 'NOT MET'} ({wins}/{len(parent)} wins)"
    if "bound_abs" in metric:
        worse = statistics.mean(change) - statistics.mean(parent)
        worse = worse if lower else -worse
        return "REGRESSION" if worse > metric["bound_abs"] else "ok"
    bound = metric["bound"]
    if parent_median and (q3 - q1) / abs(parent_median) > bound:
        better_everywhere = (
            max(change) < min(parent) if lower else min(change) > max(parent)
        )
        return "better" if better_everywhere else "unresolved"
    worse = (change_median - parent_median) / abs(parent_median or 1)
    worse = worse if lower else -worse
    return "REGRESSION" if worse > bound else "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="A/B comparison on the end-to-end benchmark.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="extend", nargs="+", help="default: all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", action="append", default=[], help="METRIC@WORKLOAD claimed to improve")
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    parser.add_argument("--workdir", help="where the exports and results go (default: a new temp dir)")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    extra = json.loads((HERE / "metrics.json").read_text())["workload_metrics"]
    workloads = args.workload or [workload["name"] for workload in bench["workloads"]]
    claims = set(args.claim)

    def metrics_of(workload: str) -> list[dict]:
        return list(bench["end_to_end"]) + [
            metric for metric in extra if workload in metric["workloads"]
        ]

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="e2e-compare-"))
    workdir.mkdir(parents=True, exist_ok=True)
    sides = {
        "parent": export(args.parent, workdir / "parent"),
        "change": export(args.change, workdir / "change"),
    }
    runs: list[dict] = []
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                out = workdir / f"{side}-{workload}-{seed}.json"
                result = run_once(sides[side], workload, seed, args.seconds, out)
                runs.append(
                    {"side": side, "workload": workload, "seed": seed, "pair": pair,
                     "correct": result["correct"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
                )
                print(f"pair {pair} {side:<6} {workload:<16} correct={result['correct']}", flush=True)
    (workdir / "compare.json").write_text(json.dumps(runs, indent=1))

    failed = False
    print(f"\n{'workload':<16} {'metric':<14} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}  verdict")
    for workload in workloads:
        for metric in metrics_of(workload):
            name = metric["name"]
            series = {
                side: [
                    run["metrics"][name]
                    for run in sorted(runs, key=lambda run: run["pair"])
                    if run["side"] == side and run["workload"] == workload and name in run["metrics"]
                ]
                for side in sides
            }
            if len(series["parent"]) != args.pairs or len(series["change"]) != args.pairs:
                print(f"{workload:<16} {name:<14} {'missing in some runs':>61}  unresolved")
                continue
            verdict = judge(metric, series["parent"], series["change"], f"{name}@{workload}" in claims)
            failed |= verdict.startswith(("REGRESSION", "claim NOT"))
            cells = [
                "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(series[side])) for side in sides
            ]
            print(f"{workload:<16} {name:<14} {cells[0]:>30} {cells[1]:>30}  {verdict}")
    print(f"\nall runs: {workdir / 'compare.json'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
