"""How `typegraph.explore` interns type states: by identity, then by shape
hash, with `alpha_canon` only where two shapes collide.

`_reference_explore` is the reference: an earlier `explore`, kept verbatim
but for its name, that interns every state by `key(s)`, which is
`alpha_canon` for types.  Graphs must be the reference's node for node."""

import random
from collections import Counter

from conftest import rand_global, rand_local, rand_qbf

from mpstk import typegraph
from mpstk.ast import (
    INT, BudgetExceeded, GChoice, GlobalT, GMsg, GRec, GVar, TRec, TSel, TOut, TVar, fold,
    rebuild, unfold,
)
from mpstk.hardness import gen_qbf_context
from mpstk.parse import parse
from mpstk.subtyping import gen_exponential_pair
from mpstk.typegraph import END_ACT, Action, children, global_graph, head_actions, local_graph


def _reference_explore(start, expand, key=None, budget=None):
    """Intern every state reachable from `start` as a dense node id.

    `expand(n, s)` yields the (Action, successor) pairs of state `s`, which
    is node `n`.  Nodes are numbered in the order they are first seen from a
    last-in first-out worklist; every END_ACT edge goes to one shared Skip
    sink, created on first use, whose state is None.  States are interned by
    `key(s)` (alpha-canonical form for types), or by themselves when `key`
    is None.  More than `budget` nodes, Skip included, raise BudgetExceeded.
    Returns (init, edges, states, skip)."""
    ids: dict = {}
    edges: list[list[tuple[Action, int]]] = []
    states: list = []
    todo: list = []
    skip = None

    def new(s) -> int:
        if budget is not None and len(states) >= budget:
            raise BudgetExceeded(f"more than {budget} graph nodes")
        states.append(s)
        edges.append([])
        return len(states) - 1

    def nid(s) -> int:
        k = s if key is None else key(s)
        n = ids.get(k)
        if n is None:
            n = ids[k] = new(s)
            todo.append((n, s))
        return n

    init = nid(start)
    while todo:
        n, s = todo.pop()
        out = edges[n]
        for act, succ in expand(n, s):
            if act is END_ACT:
                if skip is None:
                    skip = new(None)
                out.append((act, skip))
            else:
                out.append((act, nid(succ)))
    return init, edges, states, skip


def _check_local(t):
    init, edges, states, skip = _reference_explore(
        t, lambda n, u: head_actions(u), typegraph.alpha_canon)
    g = local_graph(t)
    assert (g.init, g.skip, g.edges) == (init, skip, edges)
    assert len(g.desc) == len(states) and all(map(lambda a, b: a is b, g.desc, states))
    return g


def _check_global(t):
    heads = {}

    def expand(n, u):
        heads[n] = unfold(u)
        return [(None, c) for c in children(heads[n])]

    init, edges, states, _ = _reference_explore(t, expand, typegraph.alpha_canon)
    gg = global_graph(t)
    assert gg.init == init
    assert gg.succ == [[m for _, m in out] for out in edges]
    assert len(gg.nodes) == len(states) and all(map(lambda a, b: a is b, gg.nodes, states))
    return gg


def _renamed(t, names):
    """t with each binder and variable v named names[v]: a closed type
    stays closed, and a `conftest` type, whose binders all sit right above
    a prefix, stays guarded."""

    def leave(u, vals, env):
        if type(u) in (TVar, GVar):
            return type(u)(names[u.var])
        if type(u) in (TRec, GRec):
            return type(u)(names[u.var], vals[0])
        return rebuild(u, vals)

    return fold(t, leave)


def _binders(t):
    found = set()

    def leave(u, vals, env):
        if type(u) in (TRec, GRec):
            found.add(u.var)

    fold(t, leave)
    return sorted(found)


def _variants(rng, t, pool):
    """t with its binders renamed from `pool`, which names few binders, so
    shadowing and alpha-equivalent subterms under other names are common;
    and, each under one selection or choice next to t, a copy of t renamed
    apart (alpha-equivalent to t) and that renaming from `pool` (of t's
    shape, but often binding its variables elsewhere)."""
    vs = _binders(t)
    crowded = _renamed(t, {v: rng.choice(pool) for v in vs})
    apart = _renamed(t, {v: v + "_" for v in vs})
    if isinstance(t, GlobalT):
        return crowded, *(GChoice("p", "q", (("a", t), ("b", u))) for u in (apart, crowded))
    return crowded, *(TSel("p", (("a", t), ("b", u))) for u in (apart, crowded))


def test_local_graphs_equal_the_reference_on_random_types(rng):
    merged = 0  # graphs with fewer nodes than interning by identity gives
    for i in range(2_000):
        t = rand_local(rng, 4 + i % 16)
        for u in (t, *_variants(rng, t, ("x", "y"))):
            g = _check_local(u)
            by_identity = _reference_explore(u, lambda n, v: head_actions(v), budget=10_000)
            merged += len(g.desc) < len(by_identity[2])
    assert merged > 500


def test_global_graphs_equal_the_reference_on_random_types(rng):
    for i in range(1_000):
        t = rand_global(rng, 4 + i % 14)
        for u in (t, *_variants(rng, t, ("x", "y"))):
            _check_global(u)


HAND = [
    "p+{a: rec x. q!(int); x, b: rec y. q!(int); y}",
    "rec x. p!(int); rec y. p!(int); x",
    "rec x. p!(int); rec y. p!(int); y",
    "rec x. p+{a: rec y. p!(int); x, b: rec y. p!(int); y}",
    "rec x. p+{a: rec x. q?(bool); x, b: rec z. q?(bool); x}",
    "rec x. rec y. p&{a: x, b: y}",
    "p&{a: rec x. rec y. q!(nat); x, b: rec y. rec x. q!(nat); y, c: rec x. rec y. q!(nat); y}",
]


def test_alpha_equivalent_branches_share_a_node():
    g = _check_local(parse("local", HAND[0]))
    a, b = (m for _, m in g.edges[g.init])
    assert a == b
    assert len(g.desc) == 2
    assert g.desc[a] is parse("local", "rec x. q!(int); x")


def test_hand_built_types_equal_the_reference():
    for text in HAND:
        _check_local(parse("local", text))
    t = parse("local", HAND[-1])
    g = local_graph(t)
    # branches a and b are alpha-equivalent; c loops on its inner binder
    a, b, c = (m for _, m in g.edges[g.init])
    assert a == b != c
    gl = parse("global", "p->q{a: rec x. q->p(int); x, b: rec y. q->p(int); y}")
    gg = _check_global(gl)
    assert gg.succ[gg.init][0] == gg.succ[gg.init][1]
    loops = GRec("x", GRec("y", GMsg("p", "q", INT, GVar("x"))))
    _check_global(GChoice("p", "q", (("a", loops), ("b", _renamed(loops, {"x": "y", "y": "x"})))))


def _counting(monkeypatch):
    """The `alpha_canon` calls interning makes, by argument."""
    calls = Counter()
    canon = typegraph.alpha_canon

    def counted(t):
        calls[t] += 1
        return canon(t)

    monkeypatch.setattr(typegraph, "alpha_canon", counted)
    return calls


def test_qbf_context_graphs_canonicalise_nothing(monkeypatch):
    calls = _counting(monkeypatch)
    rng = random.Random(7)
    nodes = 0
    for i in range(20):
        ctx = gen_qbf_context(rand_qbf(rng, 2 + i % 3, 1 + i % 4), ("safety", "df", "live")[i % 3])
        for _, t in ctx.entries:
            nodes += local_graph(t).node_count()
    assert nodes > 1_000
    assert not calls


def test_each_state_is_canonicalised_at_most_once(monkeypatch):
    calls = _counting(monkeypatch)
    for t in gen_exponential_pair(40):
        calls.clear()
        local_graph(t)
        assert calls, "the family's loops are alpha-equivalent under other names"
        assert max(calls.values()) == 1
    loop = TRec("x", TOut("p", INT, TVar("x")))
    calls.clear()
    loops = tuple((f"l{i:02}", _renamed(loop, {"x": f"x{i}"})) for i in range(50))
    g = local_graph(TSel("p", loops))
    assert len(g.desc) == 2  # the selection and one loop
    assert max(calls.values()) == 1 and len(calls) == 50
