"""Type graphs: construction bounds, extraction round trip, balancedness."""

import random

import pytest
from hypothesis import given, strategies as st

from conftest import balanced_globals, rand_global, rand_local, rand_process, rand_qbf

from mpstk.ast import BOOL, INT, GChoice, GMsg, GEnd, TEnd, is_closed, participants, size, unfold
from mpstk.parse import parse
from mpstk.printer import show, show_local
from mpstk.subtyping import graph_equiv
from mpstk.typegraph import (
    Action, BRA, END_ACT, ENDK, IN, OUT, SEL, MalformedGraph, TypeGraph,
    _extract_type, explore, dot_type_graph, global_graph, graph_text, graph_to_type,
    is_balanced, local_graph, quotient, text_rows, validate_type_graph,
)


def test_local_graph_paper_example():
    t1 = parse("local", "rec t. p+{l1: p+{l1: t}, l2: end}")
    g = local_graph(t1)
    # T1 --(+)p l1--> Sel(p,{l1:T1}) --(+)p l1--> T1, T1 --(+)p l2--> end --end--> Skip
    n_mid = g.step(g.init, Action(SEL, "p", "l1"))
    assert n_mid is not None and n_mid != g.init
    assert g.step(n_mid, Action(SEL, "p", "l1")) == g.init
    n_end = g.step(g.init, Action(SEL, "p", "l2"))
    assert g.step(n_end, Action(ENDK)) == g.skip
    assert len(g.real_nodes()) == 3


def test_local_graph_end():
    g = local_graph(TEnd())
    assert g.edges[g.init] == [(Action(ENDK), g.skip)]


def test_graph_bounds(rng):
    for _ in range(500):
        t = rand_local(rng, 12)
        if not is_closed(t):
            continue
        g = local_graph(t)
        n = size(t)
        assert len(g.real_nodes()) <= n
        assert sum(len(e) for e in g.edges) <= 2 * n
        validate_type_graph(g)


def test_graph_determinism(rng):
    for _ in range(300):
        t = rand_local(rng, 10)
        if not is_closed(t):
            continue
        g = local_graph(t)
        for edges in g.edges:
            acts = [a for a, _ in edges]
            assert len(set(acts)) == len(acts)


def test_graph_to_type_end():
    g = local_graph(TEnd())
    assert graph_to_type(g) == TEnd()


def test_graph_to_type_roundtrip(rng):
    for _ in range(500):
        t = rand_local(rng, 10)
        if not is_closed(t):
            continue
        back = graph_to_type(local_graph(t))
        assert graph_equiv(back, t), (show(t), show(back))


def test_graph_to_type_subset_example():
    from mpstk.projection import project_subset

    g = parse(
        "global",
        "p->q{l1: q->r(int); q->r{l3: r->p(int); end},"
        " l2: q->r(int); q->r{l4: r->p(bool); end}}",
    )
    t = graph_to_type(project_subset(g, "r"))
    assert show(t) == "q?(int); q&{l3: p!(int); end, l4: p!(bool); end}"


def _text_corpus():
    """Well-formed graphs of every origin: random local types, the
    participants of 30 QBF gadgets, minimum type graphs with a Skip node
    and subset projections."""
    from mpstk.context import ContextLTS
    from mpstk.hardness import gen_qbf_context
    from mpstk.inference import infer
    from mpstk.projection import ProjUndefined, project_subset

    rng = random.Random(2024)
    graphs = {"local": [], "qbf": [], "infer": [], "subset": []}
    while len(graphs["local"]) < 300:
        t = rand_local(rng, rng.randint(3, 14))
        if is_closed(t):
            graphs["local"].append(local_graph(t))
    for k in range(30):
        f = rand_qbf(rng, rng.randint(1, 3), rng.randint(1, 2))
        graphs["qbf"] += ContextLTS(gen_qbf_context(f, ("safety", "df", "live")[k % 3])).graphs
    while len(graphs["infer"]) < 100:
        r = infer(rand_process(rng, rng.randint(3, 10)))
        if r.typable and r.graph.skip is not None:
            graphs["infer"].append(r.graph)
    for g in balanced_globals(rng, 60, 8):
        for p in sorted(participants(g)):
            try:
                graphs["subset"].append(project_subset(g, p))
            except ProjUndefined:
                continue
    return graphs


@pytest.fixture(scope="module")
def built():
    """What the well-formed-by-construction builders return, built once:
    `infer`'s minimum graph and its `quotient` for 1,000 random processes,
    and `project_subset` onto every participant of 300 balanced globals;
    and the name of each refusal's error (`infer` catches its Untypable).
    Any other error, MalformedGraph included, fails the fixture."""
    from mpstk.inference import infer
    from mpstk.projection import ProjUndefined, project_subset

    rng = random.Random(22)
    graphs, refused = {"infer": [], "quotient": [], "subset": []}, []
    for _ in range(1000):
        r = infer(rand_process(rng, rng.randint(3, 10)))
        if r.typable:
            graphs["infer"].append(r.graph)
            graphs["quotient"].append(quotient(r.graph))
        else:
            refused.append("Untypable")
    for g in balanced_globals(rng, 300, 8):
        for p in sorted(participants(g)):
            try:
                graphs["subset"].append(project_subset(g, p))
            except ProjUndefined:
                refused.append("ProjUndefined")
    return graphs, refused


def test_builders_return_well_formed_graphs(built):
    """The contract that lets `infer`, `quotient` and `project_subset` skip
    `validate_type_graph`: every graph they return passes it, and every
    refusal is the builder's own answer, never MalformedGraph."""
    graphs, refused = built
    for gs in graphs.values():
        for g in gs:
            validate_type_graph(g)
    assert min(map(len, graphs.values())) > 400
    assert sum(g.skip is not None for g in graphs["quotient"]) > 400
    merged = [q.node_count() < g.node_count() for g, q in zip(graphs["infer"], graphs["quotient"])]
    assert sum(merged) > 50
    assert set(refused) == {"Untypable", "ProjUndefined"}


def test_graph_text_equals_printed_extraction():
    """graph_text renders every node's type exactly as show_local prints the
    type _extract_type builds: binder names, label order, rec placement.
    Label order is part of well-formedness: each graph with every node's
    edges reversed is rejected if a node of it has two labels or more."""
    seen, reversed_graphs = {}, 0
    for origin, graphs in _text_corpus().items():
        for g in graphs:
            validate_type_graph(g)
            rows = text_rows(g)
            for n in g.real_nodes():
                assert graph_text(g, n, rows) == show_local(_extract_type(g, n)), (origin, n)
            if any(len(out) > 1 for out in g.edges):
                reversed_graphs += 1
                with pytest.raises(MalformedGraph, match="labels out of order"):
                    validate_type_graph(TypeGraph(g.init, [out[::-1] for out in g.edges], g.skip))
        seen[origin] = sum(len(g.real_nodes()) for g in graphs)
    assert min(seen.values()) > 250 and reversed_graphs > 250
    # binders are numbered in the order of first use along the edges
    g = local_graph(parse("local", "rec a. p&{x: rec b. p&{u: a, v: b}, y: end}"))
    assert graph_text(g, g.init) == "rec t0. p&{x: rec t1. p&{u: t0, v: t1}, y: end}"
    back = TypeGraph(g.init, [out[::-1] for out in g.edges], g.skip)
    with pytest.raises(MalformedGraph):
        graph_to_type(back)


def _rand_graph(rng, n):
    """The part reachable from node 0 of a random deterministic graph on n
    nodes over a small alphabet, so that many nodes are bisimilar."""
    spec = []
    for _ in range(n):
        kind = rng.choice([OUT, OUT, SEL, ENDK])
        if kind == ENDK:
            spec.append([(END_ACT, None)])
        elif kind == OUT:
            spec.append([(Action(OUT, "p", rng.choice([BOOL, INT])), rng.randrange(n))])
        else:
            labels = sorted(rng.sample(["l1", "l2"], rng.randint(1, 2)))
            spec.append([(Action(SEL, "p", l), rng.randrange(n)) for l in labels])
    init, edges, states, skip = explore(0, lambda m, s: spec[s])
    return TypeGraph(init, edges, skip, states)


def _bisimilarity_classes(g) -> int:
    """The oracle: Moore's refinement, each node keyed by its edges into the
    classes of the last round, until the number of classes is stable."""
    cls, count = [0] * len(g.edges), 1
    while True:
        keys = [frozenset((a, cls[m]) for a, m in out) for out in g.edges]
        ids = {k: i for i, k in enumerate(dict.fromkeys(keys))}
        cls = [ids[k] for k in keys]
        if len(ids) == count:
            return count
        count = len(ids)


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_quotient_is_the_least_equivalent_graph(seed, size):
    """For a random local type's graph, a random graph and a random
    process's minimum graph: the quotient is well formed, graph-equivalent
    to the graph, a fixpoint, has one node per bisimilarity class, and is
    no larger than the graph of the graph's extracted type."""
    from mpstk.inference import Untypable, infer

    rng = random.Random(seed)
    graphs = [_rand_graph(rng, size)]
    t = rand_local(rng, size)
    if is_closed(t):
        graphs.append(local_graph(t))
    try:
        r = infer(rand_process(rng, size))
    except Untypable:
        r = None
    if r is not None and r.typable:
        graphs.append(r.graph)
    for g in graphs:
        q = quotient(g)
        validate_type_graph(q)
        assert graph_equiv(q, g)
        assert quotient(q).node_count() == q.node_count() == _bisimilarity_classes(g)
        assert q.node_count() <= local_graph(graph_to_type(g)).node_count()


def test_quotient_merges_bisimilar_nodes():
    """Nodes merge whatever their syntax: an unrolled loop is one node, and
    each block keeps its first node's edges and state, in node order."""
    g = local_graph(parse("local", "rec t. p!(int); p!(int); t"))
    assert g.node_count() == 2
    q = quotient(g)
    assert (q.init, q.edges, q.skip) == (0, [[(Action(OUT, "p", INT), 0)]], None)
    assert q.desc == g.desc[:1]
    g = local_graph(parse("local", "p+{l1: rec t. q!(int); q!(int); t, l2: rec u. q!(int); u}"))
    q = quotient(g)
    assert (g.node_count(), q.node_count()) == (4, 2)
    assert graph_text(q, q.init) == "p+{l1: rec t0. q!(int); t0, l2: rec t1. q!(int); t1}"


def test_malformed_graph_rejected():
    # a node mixing an input edge and a selection edge
    g = TypeGraph(0, [[(Action(IN, "p", INT), 1), (Action(SEL, "p", "l"), 1)],
                      [(Action(ENDK), 2)], []], 2, ["a", "b", "Skip"])
    with pytest.raises(MalformedGraph):
        validate_type_graph(g)


_END = (Action(ENDK), 1)  # node 1 is Skip in the graphs below


@pytest.mark.parametrize("edges, message", [
    ([[_END], [_END]], "Skip must be a sink"),
    ([[], []], "node 0 has no outgoing edges"),
    ([[(Action(IN, "p", INT), 1), (Action(SEL, "p", "l"), 1)], []],
     "node 0 mixes edge kinds ['in', 'sel']"),
    ([[(Action(ENDK), 0)], []], "node 0: end edge must target Skip"),
    ([[(Action(OUT, "p", INT), 2), (Action(OUT, "p", BOOL), 2)], [], [_END]],
     "node 0: out node must have one edge"),
    ([[(Action(SEL, "p", "l"), 2), (Action(SEL, "q", "m"), 2)], [], [_END]],
     "node 0: several peers ['p', 'q']"),
    ([[(Action(BRA, "p", "l"), 2), (Action(BRA, "p", "l"), 2)], [], [_END]],
     "node 0: duplicate labels"),
    ([[(Action(SEL, "p", "m"), 2), (Action(SEL, "p", "l"), 2)], [], [_END]],
     "node 0: labels out of order"),
])
def test_malformed_graph_messages(edges, message):
    with pytest.raises(MalformedGraph) as e:
        validate_type_graph(TypeGraph(0, edges, 1))
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# Global graphs and balancedness


def test_global_graph_msg():
    gg = global_graph(GMsg("p", "q", INT, GEnd()))
    assert gg.succ[gg.init] and len(gg.succ[gg.init]) == 1


def test_global_graph_self_loop():
    g = parse("global", "rec t. p->q{l: t, l2: q->r{l3: end}}")
    gg = global_graph(g)
    assert gg.init in gg.succ[gg.init]


def test_global_graph_nodes_are_subformulas(rng):
    from mpstk.ast import alpha_canon, subformulas

    for _ in range(200):
        g = rand_global(rng, 10)
        if not is_closed(g):
            continue
        gg = global_graph(g)
        subs = {alpha_canon(s) for s in subformulas(g)}
        for node in gg.nodes:
            assert alpha_canon(node) in subs


def test_balanced_fixtures():
    unb = parse("global", "rec t. p->q{l: t, l2: q->r{l3: end}}")
    assert not is_balanced(unb)
    assert is_balanced(GMsg("p", "q", INT, GEnd()))
    g_if = parse("global", "rec t. q->r{l1: r->p{l1: t}, l2: r->p{l2: end}}")
    assert is_balanced(g_if)


def involves(g, p) -> bool:
    """Whether p takes part in the head of the global type g, read off the
    AST, independently of the heads the global graph stores."""
    h = unfold(g)
    return isinstance(h, (GMsg, GChoice)) and p in (h.frm, h.to)


def oracle_balanced(g) -> bool:
    """Literal cycle enumeration: some participant reachable from a cycle
    that avoids it makes the type unbalanced."""
    gg = global_graph(g)
    n = gg.node_count()
    reach = [set() for _ in range(n)]
    for u in range(n):
        stack, seen = [u], {u}
        while stack:
            v = stack.pop()
            for w in gg.succ[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach[u] = seen
    for p in participants(g):
        avoid = [u for u in range(n) if not involves(gg.nodes[u], p)]
        # enumerate simple cycles within `avoid` by DFS up to n steps
        for start in avoid:
            stack = [(start, [start])]
            while stack:
                v, path = stack.pop()
                for w in gg.succ[v]:
                    if w not in avoid:
                        continue
                    if w == start:
                        if any(involves(gg.nodes[x], p) for u in path for x in reach[u]):
                            return False
                        continue
                    if w not in path and len(path) <= n:
                        stack.append((w, path + [w]))
    return True


def test_balanced_oracle_agreement(rng):
    for _ in range(400):
        g = rand_global(rng, 10)
        if not is_closed(g):
            continue
        assert is_balanced(g) == oracle_balanced(g), show(g)


def test_plain_projectable_implies_balanced(rng):
    from mpstk.projection import PLAIN, ProjUndefined, project_inductive

    checked = 0
    tries = 0
    while checked < 500 and tries < 20000:
        tries += 1
        g = rand_global(rng, 9)
        if not is_closed(g):
            continue
        try:
            for p in participants(g):
                project_inductive(g, p, PLAIN)
        except ProjUndefined:
            continue
        checked += 1
        assert is_balanced(g), show(g)
    assert checked >= 200


def test_dot_export_smoke():
    t1 = parse("local", "rec t. p+{l1: p+{l1: t}, l2: end}")
    dot = dot_type_graph(local_graph(t1))
    assert dot.startswith("digraph") and "Skip" in dot


def _refined(g):
    """The quotient by Hopcroft's refinement, run on every graph: the
    reference for the graphs whose partition by actions is already stable."""
    preds = [[] for _ in g.edges]
    for n, out in enumerate(g.edges):
        for a, m in out:
            preds[m].append((a, n))
    first = {}
    block_of = [first.setdefault(frozenset(a for a, _ in out), len(first)) for out in g.edges]
    blocks = [set() for _ in first]
    for n, b in enumerate(block_of):
        blocks[b].add(n)
    work, waiting = list(range(len(blocks))), set(range(len(blocks)))
    while work:
        splitter = work.pop()
        waiting.discard(splitter)
        by_action = {}
        for m in blocks[splitter]:
            for a, n in preds[m]:
                by_action.setdefault(a, []).append(n)
        for sources in by_action.values():
            hit = {}
            for n in sources:
                hit.setdefault(block_of[n], []).append(n)
            for b, moved in hit.items():
                if len(moved) < len(blocks[b]):
                    new = len(blocks)
                    blocks.append(set(moved))
                    blocks[b].difference_update(moved)
                    for n in moved:
                        block_of[n] = new
                    work.append(new if b in waiting or len(moved) <= len(blocks[b]) else b)
                    waiting.add(work[-1])
    ids = {b: i for i, b in enumerate(dict.fromkeys(block_of))}
    node, reps = [ids[b] for b in block_of], [min(blocks[b]) for b in ids]
    return TypeGraph(node[g.init], [[(a, node[m]) for a, m in g.edges[r]] for r in reps],
                     None if g.skip is None else node[g.skip], [g.desc[r] for r in reps])


def _fields(g):
    return g.init, g.edges, g.skip, list(g.desc)


_OUT_INT = Action(OUT, "p", INT)
HAND_BUILT = [
    # discrete: no two nodes enable the same actions
    (local_graph(parse("local", "rec t. p!(int); q?(bool); t")), True, 2),
    # stable: the two `end` nodes merge, and nothing else can
    (TypeGraph(0, [[(Action(BRA, "p", "l1"), 1), (Action(BRA, "p", "l2"), 2)],
                   [(END_ACT, 3)], [(END_ACT, 3)], []], 3, (*"abc", None)), False, 3),
    # stable: a cycle of three equal outputs is one node
    (TypeGraph(0, [[(_OUT_INT, 1)], [(_OUT_INT, 2)], [(_OUT_INT, 0)]], None, "abc"), False, 1),
    # refined: the nodes enabling !p(int) split by what follows
    (TypeGraph(0, [[(_OUT_INT, 1)], [(_OUT_INT, 2)], [(END_ACT, 3)], []], 3, (*"abc", None)),
     False, 4),
    (local_graph(parse("local", "p+{l1: rec t. q!(int); q!(int); t, l2: rec u. q!(int); u}")),
     False, 2),
]


@pytest.mark.parametrize("g, discrete, size", HAND_BUILT)
def test_quotient_equals_the_refinement_loop(g, discrete, size):
    """Hand-built graphs: a discrete partition by actions returns the graph
    itself; every quotient equals the refinement loop's, field by field."""
    q = quotient(g)
    assert (q is g) == discrete
    assert _fields(q) == _fields(_refined(g))
    assert q.node_count() == size


def test_quotient_of_minimum_graphs_equals_the_refinement_loop(rng):
    """`infer` graphs of random processes: the same fields as the refinement
    loop's quotient, and the graph itself whenever no two nodes enable the
    same actions."""
    from mpstk.inference import Untypable, infer

    kinds = {"discrete": 0, "merged": 0, "kept": 0}
    for _ in range(1500):
        try:
            r = infer(rand_process(rng, rng.randint(2, 10)))
        except Untypable:
            continue
        if not r.typable:
            continue
        g, q = r.graph, quotient(r.graph)
        assert _fields(q) == _fields(_refined(g))
        discrete = len({frozenset(a for a, _ in out) for out in g.edges}) == g.node_count()
        assert (q is g) == discrete
        kinds["discrete" if discrete else "merged" if q.node_count() < g.node_count()
              else "kept"] += 1
    assert min(kinds.values()) >= 10, kinds
