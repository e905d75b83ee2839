"""Run the benchmark's three workloads and write their results to ``BENCH_<label>.json``.

Usage::

    python3 tools/benchpair.py LABEL [--base DIR] [--runs K] [--seed N] [--seconds S]

For each workload of ``bench/workloads.py`` this runs::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0

in this checkout and writes the JSON result line of each workload, keyed
by workload name, to ``BENCH_<LABEL>.json`` at the root of the checkout.
With ``--base DIR`` (a checkout of another commit, usually the parent)
the same runs are made in that tree, each with its own ``bench/`` and
``src/``, in pairs with this one's runs, and written to
``BENCH_<LABEL>_parent.json`` here. The tree that runs first changes from
pair to pair (the base tree first in the first pair), so that whatever
favours the first or the second run of a pair falls on both trees alike.
With ``--runs K`` each tree runs every workload K times; the file keeps
the run of median ``wall_s``. Every run's end-to-end metrics (the
``end_to_end`` list of ``BENCHMARK.json``: ``setup_s``, ``wall_s``,
``profiles_per_s`` and ``peak_rss_mb``) are printed to standard error in
run order. After the runs, standard error gets a summary of each metric
of each workload per tree: the median and the quartiles (inclusive
method of :func:`statistics.quantiles`), and with ``--base`` the number
of pairs in which this checkout read better, the difference of the
medians against the base tree's interquartile range, and whether this
checkout's median is worse than the base's by more than the metric's
``BENCHMARK.json`` bound (a share of the base's median). The bounds are
read, never written.

Place the base clone at an absolute path of the same length as this
checkout's: ``peak_rss_mb`` on ``cli-report`` moves by up to about 1 MB
with the length of the directory a tree sits in, more than the spread
between pairs. Standard error gets a warning when the lengths differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite-1d", "grid-2d", "cli-report")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in ``tree``."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchpair: {workload} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def wall(result: dict) -> float:
    return metric(result, "wall_s")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(workload: str, runs: dict[str, list[dict]], end_to_end: list[dict]) -> None:
    """Print, for each end-to-end metric of one workload, its medians,
    quartiles and pairs won, and whether this checkout's median is worse
    than the base's by more than the metric's bound."""
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {tree: [metric(r, name) for r in results] for tree, results in runs.items()}
        for tree, vs in values.items():
            q1, q2, q3 = quartiles(vs)
            print(f"{workload} {tree}: {name} median {q2:.3f}, quartiles {q1:.3f}-{q3:.3f}",
                  file=sys.stderr)
        if len(values) == 2:
            (_, base), (_, head) = values.items()
            won = sum(h < b if lower else h > b for b, h in zip(base, head))
            b1, b2, b3 = quartiles(base)
            h2 = quartiles(head)[1]
            change = (h2 - b2) / b2
            worse = change > spec["bound"] if lower else -change > spec["bound"]
            print(f"{workload}: {name} better here in {won} of {len(head)} pairs; "
                  f"median {b2:.3f} -> {h2:.3f} {spec['unit']} ({h2 - b2:+.3f}, {change:+.1%}) "
                  f"against the base's interquartile range {b3 - b1:.3f}; "
                  f"{'WORSE than' if worse else 'within'} the bound {spec['bound']:.0%}",
                  file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--base", type=Path, default=None, metavar="DIR")
    parser.add_argument("--runs", type=int, default=1, metavar="K")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = {f"BENCH_{args.label}.json": ROOT}
    if args.base is not None:
        trees = {f"BENCH_{args.label}_parent.json": args.base.resolve(), **trees}
        if len(str(args.base.resolve())) != len(str(ROOT)):
            print(f"benchpair: warning: {ROOT} and {args.base.resolve()} differ in length; "
                  "peak_rss_mb depends on it, so place the base at a path of the same length",
                  file=sys.stderr)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    chosen: dict[str, dict[str, dict]] = {name: {} for name in trees}
    every: dict[str, dict[str, list[dict]]] = {}
    for workload in WORKLOADS:
        runs: dict[str, list[dict]] = {name: [] for name in trees}
        for run in range(args.runs):
            pair = list(trees.items())
            for name, tree in pair[::-1] if run % 2 else pair:
                runs[name].append(run_once(tree, workload, args.seed, args.seconds))
        every[workload] = runs
        for name, results in runs.items():
            for spec in end_to_end:
                text = ", ".join(f"{metric(r, spec['name']):.3f}" for r in results)
                print(f"{workload} {name}: {spec['name']} {text}", file=sys.stderr)
            chosen[name][workload] = sorted(results, key=wall)[(len(results) - 1) // 2]
    for name, doc in chosen.items():
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        (ROOT / name).write_text(text, encoding="utf-8")
        print(f"wrote {name}", file=sys.stderr)
    for workload, runs in every.items():
        summarize(workload, runs, end_to_end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
