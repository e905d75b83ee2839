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
the run of median ``wall_s``, and every run's ``wall_s`` is printed to
standard error in run order.
"""

from __future__ import annotations

import argparse
import json
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


def wall(result: dict) -> float:
    return result["metrics"]["wall_s"]["value"]


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
    chosen: dict[str, dict[str, dict]] = {name: {} for name in trees}
    for workload in WORKLOADS:
        runs: dict[str, list[dict]] = {name: [] for name in trees}
        for run in range(args.runs):
            pair = list(trees.items())
            for name, tree in pair[::-1] if run % 2 else pair:
                runs[name].append(run_once(tree, workload, args.seed, args.seconds))
        for name, results in runs.items():
            walls = ", ".join(f"{wall(r):.3f}" for r in results)
            print(f"{workload} {name}: wall_s {walls}", file=sys.stderr)
            chosen[name][workload] = sorted(results, key=wall)[(len(results) - 1) // 2]
    for name, doc in chosen.items():
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        (ROOT / name).write_text(text, encoding="utf-8")
        print(f"wrote {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
