"""mpstk benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; mpstk is imported from `src/`.  The
workloads (see README.md) are `qbf-refute`, `qbf-verify`,
`paper-families` and `random-pipeline`; `--workload all` runs each in turn.

With `--trace 0` run.py runs fixed-size batches of distinct seeded
queries, each batch in a fresh worker process, then times the same batches
twice more, again in fresh processes.  It runs as many batches as three
passes took `--seconds` over at the reference speed when the benchmark was
defined (`workloads.batch_count`).  A query's latency is the median of its
passes, each scaled to the reference speed by a probe timed around it
(probe.py).  `setup_s`, a fresh interpreter importing
mpstk and building the CLI's argument parser, is timed between the passes
and scaled the same way.  With
`--trace 1` it runs the seed's first batch twice, untraced and traced, and
reports the per-layer metrics of the traced run and the tracing overhead.
Every answer is checked against an oracle.  The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`; the lines before it print
each metric with its unit, the workload's mix (query kinds, verdicts and
input sizes) and the failures by kind.
The exit code is 0 only if every query was answered and every answer
matched its oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from probe import REFERENCE_S, at_reference, probe
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_RUNS = 12           # interpreter start-ups timed per run; median reported
PASSES = 3                # timed passes over each batch
QUERY_LIMIT_S = 20.0      # per-query time limit; a query over it fails
WORKER_LIMIT_S = 150      # one worker process
TAIL_PERCENTILES = (50, 90, 99)



def declared(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics that
    BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(Exception):
    pass


def import_mpstk():
    """Import mpstk from this checkout's sources, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mpstk", "__init__.py")):
        raise BenchError(f"no mpstk sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import mpstk

    if not os.path.abspath(mpstk.__file__).startswith(src + os.sep):
        raise BenchError(f"mpstk imported from {mpstk.__file__}, not from {src}")


def measure_setup(runs: int, warm: bool = False) -> list[tuple[float, float]]:
    """Start `runs` fresh interpreters that import mpstk and build the CLI's
    parser, the fixed cost of every `mpstk` invocation.  Returns (wall
    time, probe time) per start-up; the probe time is the mean of probes
    run here just before and just after it.  With `warm`, one untimed
    start-up first, so bytecode caches exist as they do for users."""
    code = ("import sys; sys.path.insert(0, 'src'); import mpstk, mpstk.cli; "
            "mpstk.cli.build_parser()")
    times = []
    for i in range(runs + warm):
        before = _timed_probe()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"setup failed: {proc.stderr.decode()[-500:]}")
        if i or not warm:
            times.append((elapsed, (before + _timed_probe()) / 2))
    return times


def _timed_probe() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def run_worker(queries, trace: bool, env=None) -> dict:
    """Run one batch in a fresh worker process and return its result."""
    job = {"queries": [q.job for q in queries], "trace": trace, "limit_s": QUERY_LIMIT_S}
    proc = subprocess.run([sys.executable, WORKER], cwd=ROOT, input=json.dumps(job),
                          capture_output=True, text=True, timeout=WORKER_LIMIT_S, env=env)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def check_answers(queries, result, failures: Counter, mix: Counter) -> int:
    """Oracle-check one worker's answers; returns the number that failed."""
    from workloads import outcome

    failed = 0
    for q, answer, failure in zip(queries, result["answers"], result["failures"]):
        if failure is None:
            try:
                failure = q.check(answer)
            except Exception as e:  # a malformed answer is a failed query
                failure = f"oracle-error:{type(e).__name__}"
        mix[(q.kind, "failed" if failure else outcome(answer))] += 1
        if failure:
            failures[failure] += 1
            failed += 1
    return failed


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it
    (nearest rank), and its value."""
    xs = sorted(latencies)
    n = len(xs)
    best = (100, xs[-1])  # fewer than 20 samples: the maximum
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            best = (p, xs[rank - 1])
    return best


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work_dir: str):
    """One run: (metrics, queries attempted, queries failed, report lines)."""
    failures, mix = Counter(), Counter()
    run = _traced_run if trace else _timed_run
    metrics, lines, attempted, failed = run(workload, seed, seconds, work_dir, failures, mix)
    lines.append(f"failed_ratio = {failed / attempted:.6f} ({failed} of {attempted})")
    for kind, count in sorted(failures.items()):
        lines.append(f"  failure {kind}: {count}")
    lines.append("mix: " + ", ".join(f"{k}[{o}]={n}" for (k, o), n in sorted(mix.items())))
    return metrics, attempted, failed, lines


def size_line(batches) -> str:
    """Input sizes per query kind: smallest, median and largest.  Sizes
    are AST nodes, gadget states, or a family point's parameter."""
    sizes: dict[str, list] = {}
    for queries in batches:
        for q in queries:
            sizes.setdefault(q.kind, []).append(q.size)
    return "sizes: " + ", ".join(f"{k} {min(v)}/{statistics.median(v):g}/{max(v)}"
                                 for k, v in sorted(sizes.items()))


def _traced_run(workload, seed, seconds, work_dir, failures, mix):
    """The seed's first batch, untraced and then traced, each in a fresh
    process; the per-layer metrics come from the traced pass."""
    from workloads import Store, make_batch

    queries = make_batch(workload, seed, 0, Store(os.path.join(work_dir, "b0")))
    plain = run_worker(queries, trace=False)
    traced = run_worker(queries, trace=True)
    failed = sum(check_answers(queries, r, failures, mix) for r in (plain, traced))
    layers = traced["layers"]
    layers["ast.memo_entries"] = plain["memo_entries"]
    layers["trace.untraced_query_s"] = plain["loop_s"]
    layers["trace.overhead_s"] = traced["loop_s"] - plain["loop_s"]
    metrics = {name: {"value": layers.get(name, 0), "unit": unit}
               for name, unit in declared("per_layer").items()}
    attributed = sum(layers.get(f"{layer}.self_s", 0) for layer in LAYERS)
    lines = [f"traced query time {layers['trace.query_s']:.4f} s = layer self times "
             f"{attributed:.4f} s + unattributed {layers['trace.unattributed_s']:.4f} s; "
             f"untraced {plain['loop_s']:.4f} s, tracing overhead "
             f"{layers['trace.overhead_s']:.4f} s over {len(queries)} queries",
             size_line([queries])]
    return metrics, lines, 2 * len(queries), failed


def _timed_run(workload, seed, seconds, work_dir, failures, mix):
    """PASSES passes over the same batches, each batch in a fresh process
    every time, the passes seconds apart.  A query's latency is its median
    over the passes, each pass's time scaled to the reference speed by the
    probe timed around it (probe.py); setup_s is scaled the same way.  The
    wall-clock figures are printed beside them."""
    from workloads import Store, batch_count, make_batch

    setup = [measure_setup(SETUP_RUNS // (PASSES + 1), warm=True)]
    batches = []  # (queries, [result per pass])
    attempted = failed = 0
    measured = 0.0
    for index in range(batch_count(workload, seconds, PASSES)):
        queries = make_batch(workload, seed, index, Store(os.path.join(work_dir, f"b{index}")))
        result = run_worker(queries, trace=False)
        attempted += len(queries)
        failed += check_answers(queries, result, failures, mix)
        measured += result["loop_s"]
        batches.append((queries, [result]))
    for _ in range(1, PASSES):
        setup.append(measure_setup(SETUP_RUNS // (PASSES + 1)))
        for queries, results in batches:
            result = run_worker(queries, trace=False)
            attempted += len(queries)
            failed += check_repeat(results[0], result, failures)
            measured += result["loop_s"]
            results.append(result)
    setup.append(measure_setup(SETUP_RUNS - sum(len(t) for t in setup)))

    # per query: its median over the passes at the reference speed, and
    # its fastest wall time
    latencies, wall = [], []
    for _, results in batches:
        for i in range(len(results[0]["latencies"])):
            latencies.append(statistics.median(
                at_reference(r["latencies"][i], r["probe_s"][i]) for r in results))
            wall.append(min(r["latencies"][i] for r in results))
    setup = [t for times in setup for t in times]
    rss = [r["rss_kb"] / 1024 for _, results in batches for r in results]
    memo = [results[0]["memo_entries"] for _, results in batches]
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": statistics.median(at_reference(*t) for t in setup),
        "queries_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail_s * 1000,
        "peak_rss_mb": statistics.median(rss),
    }
    metrics = {name: {"value": metrics[name], "unit": unit}
               for name, unit in declared("end_to_end").items()}
    probes = [p for _, results in batches for r in results for p in r["probe_s"]]
    wall_pct, wall_tail = tail(wall)
    lines = [
        f"latency_tail_ms is p{pct} of {len(latencies)} samples "
        f"({len(latencies) - math.ceil(pct / 100 * len(latencies))} beyond it)",
        f"{len(batches)} batches x {PASSES} passes in fresh worker processes, "
        f"{measured:.3f} s timed; ast.memo_entries per batch (median) "
        f"{statistics.median(memo):.0f} beside peak_rss_mb",
        f"times are at the reference speed (probe {REFERENCE_S * 1000:g} ms); the probe took "
        f"{statistics.median(probes) * 1000:.4f} ms (median), "
        f"{min(probes) * 1000:.4f}-{max(probes) * 1000:.4f} ms",
        f"wall clock, fastest pass per query: queries_per_s {len(wall) / sum(wall):.6g}, "
        f"latency_p50_ms {statistics.median(wall) * 1000:.6g}, "
        f"latency_tail_ms {wall_tail * 1000:.6g} (p{wall_pct}); "
        f"setup_s {statistics.median(t for t, _ in setup):.6g}",
        size_line(q for q, _ in batches),
    ]
    return metrics, lines, attempted, failed


def check_repeat(first, again, failures: Counter) -> int:
    """A repeated batch must give the same answers as its first pass."""
    failed = 0
    for a, b, failure in zip(first["answers"], again["answers"], again["failures"]):
        if failure is None and a is not None and _stable(a) != _stable(b):
            failure = "nondeterministic-answer"
        if failure:
            failures[failure] += 1
            failed += 1
    return failed


def _stable(answer: str):
    """An answer without its wall-clock fields (pipeline stage millis)."""
    a = json.loads(answer)
    for stage in a.get("stages", ()):
        stage.pop("millis", None)
    return a


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="ignored with --workload all, which runs both")
    args = ap.parse_args(argv)
    try:
        import_mpstk()
        from workloads import WORKLOADS

        if args.workload == "all":
            runs = [(w, t) for t in (False, True) for w in WORKLOADS]
        elif args.workload in WORKLOADS:
            runs = [(args.workload, bool(args.trace))]
        else:
            raise BenchError(f"unknown workload {args.workload!r}; one of {WORKLOADS} or all")
        work_dir = os.path.join(ROOT, ".perfbench", str(os.getpid()))
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        try:
            for w, trace in runs:
                metrics, attempted, failed, lines = run_workload(
                    w, args.seed, args.seconds, trace, work_dir)
                shutil.rmtree(work_dir, ignore_errors=True)
                print(f"== {w} (seed {args.seed}, trace {int(trace)})")
                for line in lines:
                    print(line)
                for name, m in metrics.items():
                    print(f"{w} {name} = {m['value']:.6g} {m['unit']}")
                summary["attempted"] += attempted
                summary["failed"] += failed
                if len(runs) == 1:
                    summary["metrics"] = metrics
                else:
                    summary["metrics"].update({f"{w}.{k}": v for k, v in metrics.items()})
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(work_dir))
            except OSError:  # another run still uses it
                pass
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
