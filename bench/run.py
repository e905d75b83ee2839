"""Benchmark of the ehrhard library: seeded workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload suite-1d --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with no instrument installed.
``--trace 1`` is the separate traced run: untraced and span-traced passes
alternate (their ratio is ``trace.overhead_pct``), spans are written to
``.bench_out/``, and then two ``cProfile`` passes count calls, which must
repeat exactly. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``. ``--smoke`` runs every workload at a
tiny size in both modes and checks that output.

The library is imported from ``src/`` of the checkout and from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"

# Setup is repeated in this many fresh child processes; with the run's own
# setup that gives five samples, whose median is setup_s.
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 150
SMOKE_SEED = 7


def _locate_library() -> None:
    if not (SRC / "ehrhard" / "__init__.py").is_file():
        raise SystemExit(f"bench: library source not found under {SRC}")
    sys.path.insert(0, str(SRC))


def _spec() -> dict:
    try:
        return json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bench: cannot read {SPEC_FILE}: {exc}")


class Tally:
    """Operations attempted and failed, with the first few failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(f"{label}: {why}")


def run_pass(jobs, tally: Tally, tracer=None):
    """One pass over the jobs. Returns the summed time of the calls into the
    library (checks excluded) and the pass's deterministic work totals."""
    total = 0.0
    work = [0, 0, 0]  # partitions priced, JSON bytes out, SVG bytes out
    clock = time.perf_counter
    for job in jobs:
        tally.attempted += 1
        raised = None
        t0 = clock()
        try:
            if tracer is None:
                result = job.call()
            else:
                result = tracer.span("bench.op", "bench", job.call)
        except Exception:
            raised = traceback.format_exc(limit=3)
        total += clock() - t0
        if raised is not None:
            tally.fail(job.label, raised)
            continue
        try:
            outcome = job.check(result)
        except Exception:
            tally.fail(job.label, "check raised: " + traceback.format_exc(limit=3))
            continue
        if not outcome.ok:
            tally.fail(job.label, "output differs from the expected result")
            continue
        work[0] += outcome.partitions
        work[1] += outcome.bytes_json
        work[2] += outcome.bytes_svg
    return total, tuple(work)


def _setup(workload: str, seed: int, size: str, workdir: Path):
    from workloads import Workload

    t0 = time.perf_counter()
    w = Workload(workload, seed, size, workdir)
    return w, time.perf_counter() - t0


class _Child:
    """A fresh interpreter running one probe of this script; the last line
    of its standard output is a JSON value."""

    def __init__(self, args, mode: str) -> None:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), mode,
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        ]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )

    def result(self):
        try:
            out, err = self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise SystemExit("bench: a probe process timed out")
        if self.proc.returncode != 0:
            raise SystemExit(f"bench: a probe process failed: {err[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def _probe(args) -> int:
    """Child side: time one setup, or count calls over one pass."""
    w, seconds = _setup(args.workload, args.seed, args.size, OUT_DIR / f"probe-{os.getpid()}")
    try:
        if args.setup_probe:
            print(json.dumps(seconds))
            return 0
        from tracing import count_calls

        tally = Tally()
        (_, work), counts = count_calls(lambda: run_pass(w.jobs, tally))
    finally:
        w.close()
    print(
        json.dumps(
            {
                "counts": counts,
                "work": work,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "notes": tally.notes,
            }
        )
    )
    return 0


def _child_setups(args) -> list[float]:
    runs = SETUP_CHILDREN if args.size == "full" else 1
    return [_Child(args, "--setup-probe").result() for _ in range(runs)]


def _measure(w, seconds: float, tally: Tally) -> dict:
    """Whole passes until ``seconds`` have elapsed.

    The pass time is a mean, not a median: on a shared host the speed drifts
    in phases of seconds to minutes rather than in single outlier passes,
    and the mean over the whole run follows that drift least.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t, _ = run_pass(w.jobs, tally)
        passes.append(t)
        if time.perf_counter() - start >= seconds:
            break
    wall = sum(passes) / len(passes)
    return {"wall_s": wall, "profiles_per_s": len(w.jobs) / wall, "_passes": len(passes)}


def _trace(w, args, tally: Tally) -> tuple[dict, bool]:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    untraced, traced, work = [], [], set()
    start = time.perf_counter()
    while True:
        t, wk = run_pass(w.jobs, tally)
        untraced.append(t)
        work.add(wk)
        tracer.install()
        try:
            t, wk = run_pass(w.jobs, tally, tracer=tracer)
        finally:
            tracer.uninstall()
        traced.append(t)
        work.add(wk)
        if time.perf_counter() - start >= args.seconds / 2:
            break
    metrics = layer_metrics(tracer.spans, len(traced))
    mean_traced = sum(traced) / len(traced)
    module_self = sum(
        v for k, v in metrics.items() if k.endswith(".self_s") and not k.startswith("bench.")
    )
    metrics["trace.layers_pct"] = 100.0 * module_self / mean_traced
    ratio = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
    _write_spans(args, tracer.spans, len(traced))

    # The two counting passes run side by side, each in a fresh process, so
    # the counts cannot depend on state an earlier pass left behind.
    probes = [_Child(args, "--count-probe") for _ in range(2)]
    try:
        results = [p.result() for p in probes]
    finally:
        for p in probes:
            p.stop()
    for r in results:
        tally.attempted += r["attempted"]
        tally.failed += r["failed"]
        tally.notes.extend(r["notes"])
        work.add(tuple(r["work"]))
    repeat_ok = results[0]["counts"] == results[1]["counts"] and len(work) == 1
    if not repeat_ok:
        print(f"bench: work counts differ between passes: {results} {work}", file=sys.stderr)
    metrics.update(results[0]["counts"])
    partitions, bytes_json, bytes_svg = next(iter(work))
    metrics["rigidity.partitions"] = partitions
    metrics["jsonio.bytes_out"] = bytes_json
    metrics["render.bytes_out"] = bytes_svg
    return metrics, repeat_ok


def _write_spans(args, spans: list, passes: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_passes": passes,
        "fields": ["name", "layer", "parent", "start_s", "end_s"],
        "spans": spans,
    }
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}", file=sys.stderr)


def _emit(spec: dict, key: str, metrics: dict, tally: Tally, correct: bool) -> None:
    wanted = {m["name"]: m["unit"] for m in spec[key]}
    missing = wanted.keys() - metrics.keys()
    if missing:
        raise SystemExit(f"bench: metrics not computed: {sorted(missing)}")
    for name, unit in wanted.items():
        print(f"{name:28s} {metrics[name]:>16.6f} {unit}")
    for note in tally.notes:
        print(f"bench: failed {note}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in wanted.items()},
            }
        )
    )


def _run(args) -> int:
    spec = _spec()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    w, own_setup = _setup(args.workload, args.seed, args.size, workdir)
    tally = Tally()
    try:
        if args.trace:
            metrics, correct = _trace(w, args, tally)
            metrics["error_rate"] = tally.failed / tally.attempted
            key = "per_layer"
        else:
            metrics = _measure(w, args.seconds, tally)
            print(f"passes: {metrics.pop('_passes')}", file=sys.stderr)
            metrics["setup_s"] = statistics.median([own_setup] + _child_setups(args))
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            correct = True
            key = "end_to_end"
    finally:
        w.close()
    _emit(spec, key, metrics, tally, correct and tally.failed == 0)
    return 0


def _smoke() -> int:
    spec = _spec()
    from workloads import WORKLOADS

    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(SMOKE_SEED), "--seconds", "1", "--trace", str(trace),
                "--size", "tiny",
            ]
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {n: m.get("unit") for n, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if got != wanted:
                problems.append(f"{tag}: metric names or units differ from BENCHMARK.json")
            values = [m.get("value") for m in result["metrics"].values()]
            if not all(isinstance(v, (int, float)) for v in values):
                problems.append(f"{tag}: a metric value is not a number")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            if trace and result["metrics"]["error_rate"]["value"] != 0:
                problems.append(f"{tag}: error_rate is not 0")
            print(f"smoke {tag}: {result['attempted']} operations, ok", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=20260817)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--count-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _locate_library()
    if args.smoke:
        return _smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe or args.count_probe:
        return _probe(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
