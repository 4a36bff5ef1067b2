"""Benchmark harness over the worst-case families.

Work counters are the algorithm-reported statistics (product nodes,
judgements, tree operations, reachable states); wall time is recorded but
informational only.
"""

from __future__ import annotations

import csv
import math
import time
from collections.abc import Callable
from typing import NamedTuple

from .ast import BudgetExceeded, size
from .context import check_liveness
from .hardness import LIVE, QBF, gen_qbf_context
from .inference import branch_cycle_length, gen_lcm_process, infer
from .projection import (
    FULL, PLAIN, WorkCounter, _project, gen_lowerbound_family,
    merge_full_naive, project_inductive, project_subset, project_tirore,
)
from .subtyping import (
    gen_coprime_pair, gen_exponential_pair, subtype_inductive, subtype_sim,
)


class BenchRecord(NamedTuple):
    """One CSV row."""

    family: str
    n: object
    size: int
    time_ns: int
    work: int
    outcome: str


CSV_COLUMNS = BenchRecord._fields


def _record(family, n, sz, fn) -> BenchRecord:
    t0 = time.perf_counter_ns()
    try:
        work, outcome = fn()
    except BudgetExceeded:
        work, outcome = -1, "budget"
    dt = time.perf_counter_ns() - t0
    return BenchRecord(family, n, sz, dt, work, outcome)


def _coprime(point, budget):
    if len(point) != 2:
        raise ValueError(f"coprime points are n1xn2, not {'x'.join(map(str, point))}")
    n1, n2 = point
    t1, t2 = gen_coprime_pair(n1, n2)

    def run():
        r = subtype_sim(t1, t2, budget)
        return r.nodes_visited, "true" if r.result else "false"

    return f"{n1}x{n2}", size(t1) + size(t2), run


def _inductive_blowup(k, budget):
    t1, t2 = gen_exponential_pair(k)

    def run():
        r = subtype_inductive(t1, t2, budget)
        return r.judgements, "true" if r.result else "false"

    return k, size(t1) + size(t2), run


def _merge_ops(name, role, kind):
    """A projection family whose work is the merge counter of
    project_inductive onto `role`."""

    def point(n, budget):
        g = gen_lowerbound_family(name, n)

        def run():
            c = WorkCounter()
            project_inductive(g, role, kind, c)
            return c.ops, "defined"

        return n, size(g), run

    return point


def _fullmerge_naive(n, budget):
    g = gen_lowerbound_family("fullmerge_quadratic", n)
    return n, size(g), lambda: (_naive_merge_ops(g, "p"), "defined")


def _subset_primes(k, budget):
    g = gen_lowerbound_family("cf_primes", _first_primes(k))
    return k, size(g), lambda: (len(project_subset(g, "q", budget).real_nodes()), "defined")


def _tirore(n, budget):
    g = gen_lowerbound_family("tirore_quadratic", n)
    return n, size(g), lambda: (size(project_tirore(g, "p", budget)), "defined")


def _lcm(divisors, budget):
    p = gen_lcm_process(list(divisors))

    def run():
        r = infer(p, budget)
        if not r.typable:
            return 0, "untypable"
        return branch_cycle_length(r.graph), "typable"

    return "x".join(map(str, divisors)), size(p), run


def _live_tautology(n, budget):
    """The liveness gadget of `A x0 ... A x(n-1). (xi | ~xi | x0) & ...`,
    one clause per variable: a true formula, so every barb's starting set
    is searched for a fair cycle and none is found."""
    if n < 1:
        raise ValueError("live-tautology: n must be >= 1")
    xs = [f"x{i}" for i in range(n)]
    ctx = gen_qbf_context(QBF(tuple(("A", x) for x in xs),
                              tuple(((x, True), (x, False), ("x0", True)) for x in xs)), LIVE)

    def run():
        v = check_liveness(ctx, budget)
        return v.states, "true" if v.holds else "false"

    return n, size(ctx), run


def _product(chunk: str) -> tuple[int, ...]:
    return tuple(int(x) for x in chunk.split("x"))


class Family(NamedTuple):
    """`read` reads one point of the CLI's --params text, written in `form`;
    `point(x, budget)` builds point x's input and returns (n, size, run),
    where the timed `run()` returns (work, outcome)."""

    read: Callable[[str], object]
    point: Callable
    form: str = "n"


# the bench families, in the order of the CLI's --family choices
FAMILIES = {
    "coprime": Family(_product, _coprime, "n1xn2"),
    "inductive-blowup": Family(int, _inductive_blowup),
    "plain-nlogn": Family(int, _merge_ops("plain_nlogn", "r", PLAIN)),
    "fullmerge-naive": Family(int, _fullmerge_naive),
    "fullmerge-opt": Family(int, _merge_ops("fullmerge_quadratic", "p", FULL)),
    "fullmerge-nlog2": Family(int, _merge_ops("fullmerge_nlog2", "r", FULL)),
    "subset-primes": Family(int, _subset_primes),
    "tirore": Family(int, _tirore),
    "lcm": Family(_product, _lcm, "d1xd2x..."),
    "live-tautology": Family(int, _live_tautology),
}


def read_params(family: str, raw: str) -> list:
    """The comma-separated points of `raw` for `family`; one not in the
    family's form raises ValueError naming the family, the form and it."""
    f, points = FAMILIES[family], []
    for chunk in raw.split(","):
        try:
            points.append(f.read(chunk))
        except ValueError:
            bad = chunk or "an empty point"
            raise ValueError(f"{family} points are {f.form}, not {bad}") from None
    return points


def bench_family(family: str, params, budget: int = 10_000_000) -> list[BenchRecord]:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    point = FAMILIES[family].point
    return [_record(family, *point(x, budget)) for x in params]


def _naive_merge_ops(g, p) -> int:
    """Projection with the naive (plain-AST) full merge, counting visited
    nodes during merging, sized from one table as merge_plain's are."""
    c = WorkCounter()
    sizes: dict = {}

    def naive_merge(a, b):
        c.tick(min(size(a, sizes), size(b, sizes)))
        return merge_full_naive(a, b)

    _project(g, p, naive_merge)
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
        w.writerows(records)
