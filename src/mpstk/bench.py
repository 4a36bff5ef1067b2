"""Benchmark harness over the worst-case families.

Work counters are the algorithm-reported statistics (product nodes,
judgements, tree operations, reachable states); wall time is recorded but
informational only.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

from .ast import BudgetExceeded, size
from .inference import branch_cycle_length, gen_lcm_process, infer
from .projection import (
    _LOCAL_MK, FULL, PLAIN, WorkCounter, _project, gen_lowerbound_family,
    merge_full_naive, project_inductive, project_subset, project_tirore,
)
from .subtyping import (
    gen_coprime_pair, gen_exponential_pair, subtype_inductive, subtype_sim,
)


@dataclass
class BenchRecord:
    family: str
    n: object
    size: int
    time_ns: int
    work: int
    outcome: str

    def row(self):
        return [self.family, self.n, self.size, self.time_ns, self.work, self.outcome]


CSV_COLUMNS = ["family", "n", "size", "time_ns", "work", "outcome"]


def _record(family, n, sz, fn) -> BenchRecord:
    t0 = time.perf_counter_ns()
    try:
        work, outcome = fn()
    except BudgetExceeded:
        work, outcome = -1, "budget"
    dt = time.perf_counter_ns() - t0
    return BenchRecord(family, n, sz, dt, work, outcome)


def bench_family(family: str, params, budget: int = 10_000_000) -> list[BenchRecord]:
    out = []
    if family == "coprime":
        for n1, n2 in params:
            t1, t2 = gen_coprime_pair(n1, n2)

            def run(t1=t1, t2=t2):
                r = subtype_sim(t1, t2)
                return r.nodes_visited, "true" if r.result else "false"

            out.append(_record(family, f"{n1}x{n2}", size(t1) + size(t2), run))
    elif family == "inductive-blowup":
        for k in params:
            t1, t2 = gen_exponential_pair(k)

            def run(t1=t1, t2=t2):
                r = subtype_inductive(t1, t2, budget)
                return r.judgements, "true" if r.result else "false"

            out.append(_record(family, k, size(t1) + size(t2), run))
    elif family == "plain-nlogn":
        for n in params:
            g = gen_lowerbound_family("plain_nlogn", n)

            def run(g=g):
                c = WorkCounter()
                project_inductive(g, "r", PLAIN, c)
                return c.ops, "defined"

            out.append(_record(family, n, size(g), run))
    elif family in ("fullmerge-naive", "fullmerge-opt"):
        for n in params:
            g = gen_lowerbound_family("fullmerge_quadratic", n)

            def run(g=g):
                if family == "fullmerge-opt":
                    c = WorkCounter()
                    project_inductive(g, "p", FULL, c)
                    return c.ops, "defined"
                ops = _naive_merge_ops(g, "p")
                return ops, "defined"

            out.append(_record(family, n, size(g), run))
    elif family == "fullmerge-nlog2":
        for k in params:
            g = gen_lowerbound_family("fullmerge_nlog2", k)

            def run(g=g):
                c = WorkCounter()
                project_inductive(g, "r", FULL, c)
                return c.ops, "defined"

            out.append(_record(family, k, size(g), run))
    elif family == "subset-primes":
        for k in params:
            primes = _first_primes(k)
            g = gen_lowerbound_family("cf_primes", primes)

            def run(g=g):
                graph = project_subset(g, "q", budget)
                return len(graph.real_nodes()), "defined"

            out.append(_record(family, k, size(g), run))
    elif family == "tirore":
        for n in params:
            g = gen_lowerbound_family("tirore_quadratic", n)

            def run(g=g):
                t = project_tirore(g, "p")
                return size(t), "defined"

            out.append(_record(family, n, size(g), run))
    elif family == "lcm":
        for divisors in params:
            p = gen_lcm_process(list(divisors))

            def run(p=p):
                r = infer(p, budget)
                if not r.typable:
                    return 0, "untypable"
                return branch_cycle_length(r.graph), "typable"

            out.append(_record(family, "x".join(map(str, divisors)), size(p), run))
    else:
        raise ValueError(f"unknown family {family!r}")
    return out


def _naive_merge_ops(g, p) -> int:
    """Projection with the naive (plain-AST) full merge, counting visited
    nodes during merging."""
    c = WorkCounter()

    def naive_merge(a, b):
        c.tick(min(size(a), size(b)))
        return merge_full_naive(a, b)

    _project(g, p, _LOCAL_MK, naive_merge)
    return c.ops


def _first_primes(k: int) -> list[int]:
    out, n = [], 2
    while len(out) < k:
        if all(n % d for d in range(2, int(math.isqrt(n)) + 1)):
            out.append(n)
        n += 1
    return out


def write_csv(records: list[BenchRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow(r.row())
