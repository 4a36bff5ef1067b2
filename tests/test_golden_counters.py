"""Exact work counters of the deciders and projections.

The values were captured from the implementation and pin it: a refactor
that keeps the answers but changes how much work the algorithms do, or in
which order they do it, fails here.  Growth alone is checked by acceptance
criterion 13.
"""

import pytest

from mpstk.ast import BOOL, INT, NAT, SortVar, TBra, TEnd, TIn, TOut, TRec, TVar
from mpstk.bench import bench_family
from mpstk.parse import parse
from mpstk.subtyping import subtype_sim, subtype_sim_matching

GOLDEN_WORK = [
    ("coprime", [(3, 4), (8, 9)], [12, 72]),
    ("inductive-blowup", [2, 3, 4], [288, 3841, 51566]),
    ("plain-nlogn", [3, 5, 7], [91, 1643, 27051]),
    ("fullmerge-naive", [4, 8, 16, 40], [8, 16, 32, 80]),
    ("fullmerge-opt", [4, 8, 16, 40], [17, 34, 99, 272]),
    ("fullmerge-nlog2", [2, 4, 6], [14, 134, 845]),
    ("subset-primes", [1, 2, 3], [4, 8, 32]),
    ("tirore", [2, 4, 8], [4, 6, 10]),
    ("lcm", [[2], [2, 3], [2, 3, 5]], [2, 6, 30]),
    ("live-tautology", [5, 6], [2846, 7934]),
]

# the projection points of the benchmark's paper-families ladder
# (perfbench/workloads.py; its fullmerge-quadratic is fullmerge-opt here),
# and plain-nlogn at 8, past the ladder, whose tree has 131,071 nodes
GOLDEN_BENCH_POINTS = [
    ("plain-nlogn", [4, 5, 6, 8], [395, 1643, 6699, 108715]),
    ("fullmerge-nlog2", [7, 8, 9], [2122, 5140, 11912]),
    ("fullmerge-opt", [100, 170, 250], [718, 1906, 3302]),
    ("fullmerge-naive", [100, 170, 250], [200, 340, 500]),
]


@pytest.mark.parametrize("family,params,work", GOLDEN_WORK + GOLDEN_BENCH_POINTS,
                         ids=[f for f, _, _ in GOLDEN_WORK]
                         + [f"{f}-bench" for f, _, _ in GOLDEN_BENCH_POINTS])
def test_bench_family_work_is_exact(family, params, work):
    records = bench_family(family, params)
    assert [r.work for r in records] == work
    assert "budget" not in {r.outcome for r in records}


def test_sim_rejection_stops_at_first_inconsistent_node():
    # cycles of 6 and 5 inputs: a full walk would visit 30 product nodes
    t1 = parse("local", "rec t. p?(int); p?(int); p?(int); p?(int); p?(int); p?(int); t")
    t2 = parse("local", "rec t. p?(int); p?(int); p?(int); p?(int); p?(bool); t")
    r = subtype_sim(t1, t2)
    assert (r.result, r.nodes_visited, r.edges_visited) == (False, 5, 4)


def test_sim_matching_binding_is_exact():
    a, b, c = SortVar("a"), SortVar("b"), SortVar("c")
    t1 = TRec("t", TIn("p", a, TBra("q", (
        ("l", TOut("r", b, TVar("t"))),
        ("m", TOut("r", a, TOut("p", c, TEnd()))),
    ))))
    good = parse("local", "rec t. p?(int); q&{l: r!(bool); t, m: r!(int); p!(nat); end}")
    assert subtype_sim_matching(t1, good) == (True, {a: INT, b: BOOL, c: NAT})
    # the walk takes branch m first, so only a is bound when r!(bool) fails
    bad = parse("local", "rec t. p?(int); q&{l: r!(bool); t, m: r!(bool); p!(nat); end}")
    assert subtype_sim_matching(t1, bad) == (False, {a: INT})
