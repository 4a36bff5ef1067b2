"""Subtyping: paper fixtures, preorder laws, variance, algorithm agreement."""

import random

import pytest

from conftest import rand_local, rand_local_pair

from mpstk.ast import (
    INT, BudgetExceeded, SortVar, TBra, TEnd, TIn, TOut, TRec, TSel, is_closed, size, unfold,
)
from mpstk.parse import parse
from mpstk.printer import show
from mpstk import subtyping
from mpstk.subtyping import (
    _product_walk, gen_coprime_pair, gen_exponential_pair, graph_equiv, subtype_inductive,
    subtype_sim, subtype_sim_matching,
)

T1 = parse("local", "rec t. p+{l1: p+{l1: t}, l2: end}")
T2 = parse("local", "rec t. p+{l1: t, l2: end}")


def test_paper_type_simulation_example():
    assert subtype_sim(T1, T2).result
    assert subtype_inductive(T1, T2).result
    assert not subtype_sim(T2, T1).result


def test_end_vs_prefix():
    a = parse("local", "end")
    b = parse("local", "p!(int); end")
    assert not subtype_sim(a, b).result
    assert not subtype_inductive(a, b).result


def test_reflexivity(rng):
    for _ in range(300):
        t = rand_local(rng, 10)
        if not is_closed(t):
            continue
        assert subtype_sim(t, t).result


def test_transitivity(rng):
    found = 0
    for _ in range(3000):
        a = rand_local(rng, 7)
        if not is_closed(a):
            continue
        from conftest import mutate_local

        b, c = mutate_local(rng, a), mutate_local(rng, a)
        if subtype_sim(a, b).result and subtype_sim(b, c).result:
            found += 1
            assert subtype_sim(a, c).result
    assert found >= 30


def test_selection_covariance_branching_contravariance(rng):
    for _ in range(300):
        cont = rand_local(rng, 5)
        if not is_closed(cont):
            continue
        sel1 = TSel("p", (("l1", cont),))
        sel2 = TSel("p", (("l1", cont), ("l2", TEnd())))
        assert subtype_sim(sel1, sel2).result  # adding a branch on the right
        bra1 = TBra("p", (("l1", cont), ("l2", TEnd())))
        bra2 = TBra("p", (("l1", cont),))
        assert subtype_sim(bra1, bra2).result  # adding a branch on the left


def test_sorts_not_subsorted():
    a = parse("local", "p!(nat); end")
    b = parse("local", "p!(int); end")
    assert not subtype_sim(a, b).result


def test_sim_inductive_agreement(rng):
    for _ in range(300):
        t1, t2 = rand_local_pair(rng, 9)
        if not (is_closed(t1) and is_closed(t2)):
            continue
        s = subtype_sim(t1, t2)
        i = subtype_inductive(t1, t2, budget=2_000_000)
        assert s.result == i.result, (show(t1), show(t2))


def test_product_bound(rng):
    for _ in range(300):
        t1, t2 = rand_local_pair(rng, 9)
        if not (is_closed(t1) and is_closed(t2)):
            continue
        r = subtype_sim(t1, t2)
        assert r.nodes_visited <= size(t1) * size(t2)


# ---------------------------------------------------------------------------
# Families


def test_coprime_pairs():
    for (a, b), expected in [((3, 4), 12), ((5, 7), 35), ((8, 9), 72), ((1, 1), 1)]:
        t1, t2 = gen_coprime_pair(a, b)
        r = subtype_sim(t1, t2)
        assert r.result and r.nodes_visited == expected
    t1, t2 = gen_coprime_pair(4, 6)
    assert subtype_sim(t1, t2).nodes_visited < 24


def test_exponential_family_shape():
    # T^bf_0 is the bare outer variable, so k=1 carries a vacuous binder on
    # its l2 leaf; the 2-label self-looping closing type appears from k=2 on
    t1, t2 = gen_exponential_pair(1)
    assert show(t1) == "rec t. p+{l1: t, l2: rec u0. t}"
    assert "rec w0. p+{l1: w0, l2: w0}" in show(t2)
    assert subtype_sim(t1, t2).result


def test_exponential_family_holds_and_blows_up():
    for k in range(1, 9):
        t1, t2 = gen_exponential_pair(k)
        assert subtype_sim(t1, t2).result
    r3 = subtype_inductive(*gen_exponential_pair(3))
    assert r3.result and r3.judgements > 6  # more than 3! proof-tree nodes


def test_exponential_family_size_quadratic():
    sizes = [size(gen_exponential_pair(k)[0]) for k in (4, 8, 16)]
    # doubling k should roughly quadruple the size
    assert 2.5 < sizes[1] / sizes[0] < 6
    assert 2.5 < sizes[2] / sizes[1] < 6


def test_graph_equiv_fixtures():
    a = parse("local", "rec t. p!(int); t")
    b = parse("local", "rec t. p!(int); p!(int); t")
    assert graph_equiv(a, b)
    c = parse("local", "p+{l1: end}")
    d = parse("local", "p+{l1: end, l2: end}")
    assert not graph_equiv(c, d)
    assert subtype_sim(c, d).result


def test_equiv_unfold(rng):
    for _ in range(500):
        t = rand_local(rng, 9)
        if not is_closed(t):
            continue
        assert graph_equiv(t, unfold(t))


def test_budget_cap():
    from mpstk.subtyping import BudgetExceeded

    t1, t2 = gen_exponential_pair(6)
    with pytest.raises(BudgetExceeded):
        subtype_inductive(t1, t2, budget=1000)


def test_matching_subtype():
    from mpstk.ast import SortVar, TIn, TOut, TRec, TVar

    tmin = TRec("t", TIn("p", SortVar("a"), TOut("p", SortVar("a"), TVar("t"))))
    cand = parse("local", "rec t. p?(int); p!(int); t")
    ok, binding = subtype_sim_matching(tmin, cand)
    assert ok and binding[SortVar("a")] == INT
    bad = parse("local", "rec t. p?(int); p!(bool); t")
    assert not subtype_sim_matching(tmin, bad)[0]


def test_handed_in_graphs_are_checked():
    """A TypeGraph handed to the simulation deciders is validated where it
    enters, like one handed to graph_to_type or ContextLTS: a malformed
    root is refused, on either side, never answered or crashed on."""
    from mpstk.typegraph import END_ACT, IN, SEL, Action, MalformedGraph, TypeGraph

    t = parse("local", "q?(int); end")
    mixed = TypeGraph(0, [[(Action(IN, "q", INT), 1), (Action(SEL, "q", "l"), 1)],
                          [(END_ACT, 2)], []], 2)
    edgeless = TypeGraph(0, [[]], None)
    for left, right in ((t, mixed), (edgeless, t), (t, edgeless)):
        for decide in (subtype_sim, subtype_sim_matching):
            with pytest.raises(MalformedGraph):
                decide(left, right)


# ---------------------------------------------------------------------------
# The product walk against the walk through the graphs' methods


def _reference_product_walk(g1, g2, step1, step2, budget: int):
    """_product_walk as it read each node through `TypeGraph.kind` and
    `TypeGraph.out`, kept verbatim as the reference for the walk that reads
    the graphs' edge lists and Skip nodes directly."""
    from mpstk.subtyping import _LEFT_KINDS, _RIGHT_KINDS
    from mpstk.typegraph import BRA

    start = (g1.init, g2.init)
    visited = {start}
    stack = [start]
    edges = 0
    while stack:
        n1, n2 = stack.pop()
        # a branching node is only consistent facing another branching:
        # neither simulation clause constrains it against an active head
        if g1.kind(n1) == BRA and g2.kind(n2) != BRA:
            return False, visited, edges
        succs = []
        for a, m1 in g1.out(n1):
            if a.kind in _LEFT_KINDS:
                m2 = step2(n2, a)
                if m2 is None:
                    return False, visited, edges
                succs.append((m1, m2))
        for a, m2 in g2.out(n2):
            if a.kind in _RIGHT_KINDS:
                m1 = step1(n1, a)
                if m1 is None:
                    return False, visited, edges
                succs.append((m1, m2))
        for pair in succs:
            edges += 1
            if pair not in visited:
                if len(visited) >= budget:
                    raise BudgetExceeded(f"more than {budget} product nodes")
                visited.add(pair)
                stack.append(pair)
    return True, visited, edges


def test_product_walk_equals_the_reference(rng):
    """The same verdict, product nodes and edge count on 2,000 random pairs,
    and on each random graph against a graph whose root is its Skip node,
    either way round; and the same least passing budget: the reference's
    node count."""
    from mpstk.typegraph import TypeGraph, local_graph

    skip = TypeGraph(0, [[]], 0)
    verdicts = set()
    for _ in range(2_000):
        t1, t2 = rand_local_pair(rng, rng.randint(2, 12))
        g1, g2 = local_graph(t1), local_graph(t2)
        for h1, h2 in ((g1, g2), (g1, skip), (skip, g1)):
            want = _reference_product_walk(h1, h2, h1.step, h2.step, 1_000_000)
            nodes = len(want[1])
            assert _product_walk(h1, h2, h1.step, h2.step, nodes) == want, (show(t1), show(t2))
            if nodes > 1:
                with pytest.raises(BudgetExceeded):
                    _product_walk(h1, h2, h1.step, h2.step, nodes - 1)
            verdicts.add(want[0])
    assert verdicts == {True, False}


def _lift_sorts(t, names):
    """t with each payload sort a sort variable drawn from `names`, so that
    some variables occur more than once."""
    if type(t) in (TIn, TOut):
        return type(t)(t.peer, SortVar(next(names)), _lift_sorts(t.cont, names))
    if type(t) in (TSel, TBra):
        return type(t)(t.peer, tuple((l, _lift_sorts(b, names)) for l, b in t.branches))
    if type(t) is TRec:
        return TRec(t.var, _lift_sorts(t.body, names))
    return t


def test_matching_binds_as_the_reference(rng, monkeypatch):
    """subtype_sim_matching gives the same verdict and binding through the
    reference walk, on 2,000 random pairs with sort variables on the left."""
    runs = []
    for _ in range(2_000):
        t1, t2 = rand_local_pair(rng, rng.randint(2, 12))
        t1 = _lift_sorts(t1, iter(lambda: rng.choice("abc"), None))
        runs.append((t1, t2, subtype_sim_matching(t1, t2)))
    assert {ok for _, _, (ok, _) in runs} == {True, False}
    assert any(binding for _, _, (_, binding) in runs)
    monkeypatch.setattr(subtyping, "_product_walk", _reference_product_walk)
    for t1, t2, got in runs:
        assert subtype_sim_matching(t1, t2) == got, (show(t1), show(t2))
