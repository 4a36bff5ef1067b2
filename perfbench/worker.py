"""Timed worker: runs one batch of queries in a fresh interpreter.

Reads a job from stdin, `{"queries": [...], "trace": bool, "limit_s": s}`,
and writes one JSON result to stdout.  Run from the root of a checkout;
mpstk is imported from its `src` directory.

A query is either a CLI subcommand line (`argv`) or a worst-case family
point (`family`, `params`).  A subcommand line is parsed by the CLI's own
argument parser before the timed loop and then dispatched to the
subcommand function, so each query makes exactly the library calls that
`mpstk <argv>` makes, in the same order, up to the rendered output, without
paying for interpreter start-up and argument parsing each time (that cost
is the benchmark's `setup_s`).  A family point runs the calls `mpstk bench`
makes for it, on an AST the public generators build before the loop, and
renders its work counter and any resulting type.

Queries run one at a time in a closed loop.  A query fails if it raises,
exceeds a budget or the per-query time limit; ProjUndefined and Untypable
are answers, reported by the subcommands themselves.
"""

from __future__ import annotations

import io
import json
import os
import resource
import signal
import sys
import time
from contextlib import redirect_stdout

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from mpstk import ast as mp_ast, context as mp_context, subtyping as mp_subtyping  # noqa: E402
from mpstk.cli import build_parser  # noqa: E402
from mpstk.inference import branch_cycle_length, infer  # noqa: E402
from mpstk.printer import show_local  # noqa: E402
from mpstk.projection import (  # noqa: E402
    FULL, PLAIN, WorkCounter, project_inductive, project_subset, project_tirore,
)
from mpstk.subtyping import subtype_inductive, subtype_sim  # noqa: E402

import tracing  # noqa: E402
from probe import probe  # noqa: E402
from workloads import FAMILY_ROLE, family_input  # noqa: E402

# Every budget error of the library: the subtyping and the context layers
# each define one.
BUDGET_ERRORS = tuple({m.BudgetExceeded for m in (mp_ast, mp_subtyping, mp_context)
                       if hasattr(m, "BudgetExceeded")})


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout()


def peak_rss_kb() -> int:
    """Peak resident set of this process's own address space (VmHWM).
    ru_maxrss is not used: Linux carries it over from the parent across
    fork and exec, so it reports at least the size of run.py's process."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# A query's latency is reported with the probe time around it (see
# probe.py): the mean of the probes on either side of it.  The probe runs
# before the first query and then whenever PROBE_EVERY_S has passed.
PROBE_EVERY_S = 0.02


def run_cli(ns) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        ns.fn(ns)
    return buf.getvalue()


def run_family(point) -> str:
    family, inp, budget = point
    if family in ("coprime", "exp-sim"):
        r = subtype_sim(*inp)
        out = {"result": r.result, "work": r.nodes_visited}
    elif family == "inductive-blowup":
        r = subtype_inductive(*inp, budget=budget)
        out = {"result": r.result, "work": r.judgements}
    elif family == "subset-primes":
        out = {"work": len(project_subset(inp, FAMILY_ROLE[family]).real_nodes())}
    elif family == "tirore":
        t = project_tirore(inp, FAMILY_ROLE[family])
        out = {"work": mp_ast.size(t), "type": show_local(t)}
    elif family == "lcm":
        r = infer(inp)
        out = {"work": branch_cycle_length(r.graph), "type": show_local(r.min_type)}
    else:
        counter = WorkCounter()
        kind = PLAIN if family == "plain-nlogn" else FULL
        t = project_inductive(inp, FAMILY_ROLE[family], kind, counter)
        out = {"work": counter.ops, "type": show_local(t)}
    return json.dumps(out)


def main() -> int:
    job = json.load(sys.stdin)
    parser = build_parser()
    budget = parser.get_default("budget")  # what `mpstk bench` passes on
    prepared = []
    for q in job["queries"]:
        if "argv" in q:
            prepared.append((run_cli, parser.parse_args(q["argv"])))
        else:
            inp = family_input(q["family"], q["params"])
            prepared.append((run_family, (q["family"], inp, budget)))

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install(extra_namespaces=[globals()])

    limit = float(job["limit_s"])
    signal.signal(signal.SIGALRM, _on_alarm)
    latencies, answers, failures = [], [], []
    probes, probe_before = [], []  # probe times; the probe before each query
    clock = time.perf_counter

    def timed_probe():
        start = clock()
        probe()
        end = clock()
        probes.append(end - start)
        return end

    last_probe = timed_probe()
    probing_s = 0.0
    loop_start = clock()
    for i, (fn, arg) in enumerate(prepared):
        if tracer is not None:
            tracer.query = i
            fn = tracer.wrap("query", fn)
        answer = failure = None
        start = clock()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            answer = fn(arg)
        except BUDGET_ERRORS:
            failure = "budget"
        except QueryTimeout:
            failure = "timeout"
        except Exception as e:  # any other error is counted, never fatal
            failure = f"error:{type(e).__name__}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latencies.append(clock() - start)
        if tracer is not None:
            tracer.open.clear()
        answers.append(answer)
        failures.append(failure)
        probe_before.append(len(probes) - 1)
        if clock() - last_probe >= PROBE_EVERY_S or i == len(prepared) - 1:
            start = clock()
            last_probe = timed_probe()
            probing_s += last_probe - start
    loop_s = clock() - loop_start - probing_s

    result = {
        "latencies": latencies,
        "answers": answers,
        "failures": failures,
        "loop_s": loop_s,
        "probe_s": [(probes[j] + probes[j + 1]) / 2 for j in probe_before],
        "rss_kb": peak_rss_kb(),
        "memo_entries": tracing.memo_entries(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
