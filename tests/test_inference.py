"""Minimum type inference: paper examples, tr, graph rules, minimality."""

import random

import pytest

from conftest import rand_local, rand_process

from mpstk.ast import (
    BOOL, INT, SortVar, TEnd, TIn, TOut, TRec, TVar, is_closed, size,
)
from mpstk.inference import (
    CHead, CSortEq, CVarLe, MinGraphBuilder, SortUnsat,
    Untypable, branch_cycle_length, branch_cycle_process, derive_constraints,
    eliminate_transitive, gen_lcm_process, infer, infer_min_type, solve_sorts,
)
from mpstk.parse import parse
from mpstk.printer import show
from mpstk.subtyping import graph_equiv, subtype_sim_matching
from mpstk.typegraph import BRA, END_ACT, ENDK, IN, OUT, SEL, Action, explore, graph_to_type

EX1 = parse("process",
            "if true then p&{l1: q(+)l2; 0, l3: 0} else p&{l1: q(+)l4; 0, l5: 0}")
EX2 = parse("process", "rec X. p?(x); p!<x>; X")
UNTYPABLE = parse("process", "p(+)l; if false then p!<1>; 0 else p?(x); 0")


def test_example1_constraints():
    d = derive_constraints(EX1)
    assert len(d.constraints) == 11
    kinds = [c.kind if type(c) is CHead else type(c) for c in d.constraints]
    assert kinds.count(ENDK) == 4
    assert kinds.count(SEL) == 2
    assert kinds.count(BRA) == 2
    assert kinds.count(CVarLe) == 2
    assert kinds.count(CSortEq) == 1
    assert d.judgements <= size(EX1)


def test_example2_constraints():
    d = derive_constraints(EX2)
    shapes = sorted(c.kind if type(c) is CHead else type(c).__name__ for c in d.constraints)
    assert shapes == ["CVarLe", IN, OUT]
    for c in d.constraints:
        if type(c) is CHead:  # one unlabelled successor and a payload sort variable
            assert len(c.succ) == 1 and c.succ[0][0] is None and c.payload is not None
    (link,) = [c for c in d.constraints if isinstance(c, CVarLe)]
    # the recursion variable flows into the fresh variable of its use
    assert link.lhs != link.rhs


def test_inact_constraint():
    d = derive_constraints(parse("process", "0"))
    assert d.constraints == [CHead(ENDK, None, None, (), d.root)]


def test_example1_min_type():
    assert show(infer_min_type(EX1)) == "p&{l1: q+{l2: end, l4: end}}"


def test_example1_graph_shape():
    r = infer(EX1)
    g = r.graph
    sets = r.min_graph.graph.desc
    assert len(sets[g.init]) == 1
    (succ,) = [m for _, m in g.out(g.init)]
    assert len(sets[succ]) == 2  # the two conditional arms joined
    labels = sorted(a.arg for a, _ in g.out(succ))
    assert labels == ["l2", "l4"]  # selection union


def test_example2_min_type():
    t = infer_min_type(EX2)
    assert isinstance(t, TRec)
    assert show(t) == "rec t0. p?('a); p!('a); t0"
    # exactly the two-node loop of the paper figure
    r = infer(EX2)
    assert len(r.graph.real_nodes()) == 2


def test_untypable_example():
    r = infer(UNTYPABLE)
    assert not r.typable
    assert r.error.node is not None and len(r.error.node) == 1
    with pytest.raises(Untypable):
        infer_min_type(UNTYPABLE)


def test_infer_min_type_raises_the_failure_once():
    """The library says "untypable" once and keeps the failure's node."""
    with pytest.raises(Untypable) as e:
        infer_min_type(parse("process", "p?(x); p!<x + 1>; 0"))
    assert str(e.value) == "untypable: sorts nat and int forced equal"
    assert e.value.reason == "sorts nat and int forced equal" and e.value.node is None
    with pytest.raises(Untypable) as e:
        infer_min_type(UNTYPABLE)
    assert str(e.value) == "untypable: mixed dependency heads at node {x2}"
    assert e.value.reason == "mixed dependency heads" and e.value.node == frozenset({"x2"})


def test_branching_intersection_example():
    q = parse(
        "process",
        "if true then p!<1>; p&{l1: 0, l3: p(+)l4; 0}"
        " else p!<1>; p&{l2: 0, l3: p(+)l5; 0}",
    )
    t = infer_min_type(q)
    # only the shared label l3 survives; its selection takes the union
    assert show(t) == "p!(nat); p&{l3: p+{l4: end, l5: end}}"


def test_branching_empty_intersection_untypable():
    p = parse("process", "if true then p&{l1: 0} else p&{l2: 0}")
    assert not infer(p).typable


def test_tr_no_links_left(rng):
    """tr(C) keeps only the links renaming cannot remove: each into a
    variable with heads or with another link into it, with no self-link
    and no duplicate.  The answers are those of the reference's tr(C),
    which has no link."""
    from test_tr_reference import _answers, reference_tr

    kept = 0
    for _ in range(300):
        p = rand_process(rng, 8)
        try:
            d = derive_constraints(p)
        except Untypable:
            continue
        tr, root = eliminate_transitive(d.constraints, d.root)
        links = [c for c in tr if type(c) is CVarLe]
        assert all(c.lhs != c.rhs for c in links) and len(set(links)) == len(links)
        headed = {c.rhs for c in tr if type(c) is CHead}
        targets = [c.rhs for c in links]
        assert all(v in headed or targets.count(v) > 1 for v in targets)
        want, want_root = reference_tr(d.constraints, d.root)
        assert not any(type(c) is CVarLe for c in want)
        assert _answers(tr, root) == _answers(want, want_root)
        kept += bool(links)
    assert kept >= 30


def test_tr_unchanged_without_links():
    d = derive_constraints(parse("process", "p!<true>; 0"))
    tr, root = eliminate_transitive(d.constraints, d.root)
    assert [c for c in tr if not isinstance(c, CSortEq)] == [
        c for c in d.constraints if not isinstance(c, CSortEq)]


def test_tr_order_independent(rng):
    for _ in range(100):
        p = rand_process(rng, 8)
        try:
            r1 = infer(p)
        except Untypable:
            continue
        d = derive_constraints(p)
        shuffled = list(d.constraints)
        rng.shuffle(shuffled)
        tr, root = eliminate_transitive(shuffled, d.root)
        from mpstk.inference import apply_sort_subst, solve_sorts as solve

        try:
            mg = MinGraphBuilder(tr).build(frozenset([root]))
            g2 = apply_sort_subst(mg.graph, solve(mg.sort_eqs))
        except Untypable:
            g2 = None
        assert r1.typable == (g2 is not None)
        if g2 is not None:
            assert graph_equiv(r1.graph, g2)


def test_solve_sorts():
    a, b = SortVar("a"), SortVar("b")
    assert solve_sorts([CSortEq(a, BOOL)])[a] == BOOL
    assert solve_sorts([]) == {}
    with pytest.raises(SortUnsat):
        solve_sorts([CSortEq(a, b), CSortEq(b, INT), CSortEq(a, BOOL)])


def test_subsets_are_subtypes():
    """Lemma: set inclusion of graph nodes gives subtyping of the types."""
    for proc in (EX1, parse(
        "process",
        "if true then p!<1>; p&{l1: 0, l3: p(+)l4; 0}"
        " else p!<1>; p&{l2: 0, l3: p(+)l5; 0}",
    )):
        r = infer(proc)
        builder = MinGraphBuilder(r.tr_constraints)
        from mpstk.inference import apply_sort_subst, solve_sorts as solve

        nodes = [s for s in r.min_graph.graph.desc if s is not None and len(s) >= 2]
        for big in nodes:
            for small in [frozenset([v]) for v in big]:
                mg_small = builder.build(small)
                mg_big = builder.build(big)
                eqs = mg_small.sort_eqs + mg_big.sort_eqs
                pi = solve(eqs)
                g_small = apply_sort_subst(mg_small.graph, pi)
                g_big = apply_sort_subst(mg_big.graph, pi)
                ok, _ = subtype_sim_matching(
                    graph_to_type(g_small), graph_to_type(g_big))
                assert ok


def test_constraint_linearity(rng):
    for _ in range(1000):
        p = rand_process(rng, 10)
        try:
            d = derive_constraints(p)
        except Untypable:
            continue
        assert d.judgements <= size(p)
        assert len(d.constraints) <= 6 * size(p)


def test_soundness_on_corpus(rng):
    """Every constraint of tr(C) is satisfied by the extracted solution: a
    head below its variable's type, and a kept link x <= v as the type of x
    below the type of v."""
    from mpstk.inference import apply_sort_subst, solve_sorts as solve

    checked = 0
    for _ in range(400):
        p = rand_process(rng, 7)
        r = infer(p)
        if not r.typable:
            continue
        builder = MinGraphBuilder(r.tr_constraints)

        def type_of(var):
            mg = builder.build(frozenset([var]))
            return graph_to_type(apply_sort_subst(mg.graph, solve(mg.sort_eqs)))

        for c in r.tr_constraints:
            if isinstance(c, CSortEq):
                continue
            rhs_t = type_of(c.rhs)
            if type(c) is CVarLe:
                lhs_t = type_of(c.lhs)
            elif c.kind == ENDK:
                lhs_t = TEnd()
            elif c.kind in (IN, OUT):
                ctor = TIn if c.kind == IN else TOut
                lhs_t = ctor(c.peer, c.payload, type_of(c.succ[0][1]))
            else:
                from mpstk.ast import TBra, TSel

                ctor = TSel if c.kind == SEL else TBra
                lhs_t = ctor(c.peer, tuple((l, type_of(v)) for l, v in c.succ))
            ok, _ = subtype_sim_matching(lhs_t, rhs_t)
            assert ok, (show(p), c)
        checked += 1
    assert checked >= 100


def test_minimality_on_corpus(rng):
    """For (type, realizing process) pairs, the inferred minimum type is a
    subtype of the candidate after matching the residual sort variables."""
    from mpstk.pipeline import synth_process

    checked = 0
    while checked < 200:
        t = rand_local(rng, 9)
        if not is_closed(t):
            continue
        p = synth_process(t)
        r = infer(p)
        assert r.typable, show(t)
        ok, _ = subtype_sim_matching(r.min_type, t)
        assert ok, (show(t), show(r.min_type))
        checked += 1


def test_lcm_family():
    assert show(infer_min_type(gen_lcm_process([1]))) == "rec t0. p&{l1: t0, l2: t0}"
    for divisors, want in [([2], 2), ([3], 3), ([2, 3], 6), ([2, 3, 5], 30), ([4, 6], 12)]:
        r = infer(gen_lcm_process(divisors))
        assert r.typable
        assert branch_cycle_length(r.graph) == want


def test_many_free_sort_variables_get_names():
    p = parse("process", "".join(f"p?(x{i}); " for i in range(130)) + "0")
    names = show(infer_min_type(p)).replace("p?('", "").split("); ")
    assert names[:27] == [*"abcdefghijklmnopqrstuvwxyz", "a0"]
    assert names[125:] == ["a99", "a100", "a101", "a102", "a103", "end"]


def test_branch_cycle_process_size():
    for d in (1, 2, 5):
        assert size(branch_cycle_process(d)) == d + 3


def test_free_variables_rejected():
    with pytest.raises(Untypable):
        derive_constraints(parse("process", "p!<x>; 0"))


def test_value_and_process_variables_have_separate_scopes():
    """A receive's value variable and a recursion binder of the same name
    hide nothing of each other, and each binding is restored where its
    binder's scope ends."""
    from mpstk.ast import PBra, PRec, PSel, PVar
    from mpstk.pipeline import synth_process

    assert show(infer_min_type(parse("process", "rec x. q?(x); x"))) == "rec t0. q?('a); t0"
    assert show(infer_min_type(parse("process", "q?(x); rec x. q!<x>; x"))) == \
        "q?('a); rec t0. q!('a); t0"
    assert show(infer_min_type(synth_process(parse("local", "rec x. q?(int); x")))) == \
        "rec t0. q?('a); t0"
    # the branch b uses the outer x, a bool; the inner one, in branch a, is an int
    p = parse("process", "q?(x); p&{a: q?(x); r!<x + -1>; 0, b: r!<x \\/ true>; 0}")
    assert show(infer_min_type(p)) == "q?(bool); p&{a: q?(int); r!(int); end, b: r!(bool); end}"
    # built by hand, as the parser renames the inner X: b's X is the outer one
    shadowed = PRec("X", PBra("q", (("a", PRec("X", PSel("p", "l", PVar("X")))),
                                    ("b", PSel("r", "m", PVar("X"))))))
    assert show(infer_min_type(shadowed)) == \
        "rec t1. q&{a: rec t0. p+{l: t0}, b: r+{m: t1}}"


def _reference_build(tr, start):
    """The minimum graph with every state through the general rules, one
    head or many: the reference for `MinGraphBuilder`'s one-head path.  A
    joined variable reads its heads through the links: its own, then each
    source's in link order, each head once.  Returns (init, edges, skip,
    desc, sort equations), or the failure's (reason, node)."""
    by_rhs, preds, alphas = {}, {}, iter(range(1, 10**9))
    eqs = [c for c in tr if type(c) is CSortEq]
    for c in tr:
        if type(c) is CVarLe:
            preds.setdefault(c.rhs, []).append(c.lhs)
        elif type(c) is CHead:
            by_rhs.setdefault(c.rhs, []).append(c)

    def heads(v, seen):
        seen.add(v)
        out = list(by_rhs.get(v, ()))
        for u in preds.get(v, ()):
            if u not in seen:
                out += heads(u, seen)
        return out

    def expand(n, s):
        deps = []
        for v in sorted(s):
            cs = list({c[:4]: c for c in heads(v, set())}.values())
            if not cs:
                raise Untypable(f"variable {v} has no defining constraint", s)
            deps.extend(cs)
        if len({c.kind for c in deps}) != 1:
            raise Untypable("mixed dependency heads", s)
        kind = deps[0].kind
        if kind == ENDK:
            return [(END_ACT, None)]
        if len({c.peer for c in deps}) != 1:
            raise Untypable("mixed peers in dependencies", s)
        alpha = None
        if kind in (IN, OUT):
            alpha = SortVar(f"a{next(alphas)}")
            eqs.extend(CSortEq(alpha, c.payload) for c in deps)
        succ = {}
        for c in deps:
            for l, v in c.succ:
                succ.setdefault(l, set()).add(v)
        labels = (set.intersection(*({l for l, _ in c.succ} for c in deps))
                  if kind == BRA else succ)
        if not labels:
            raise Untypable("branching dependencies share no label", s)
        return [(Action(kind, deps[0].peer, alpha if l is None else l), frozenset(succ[l]))
                for l in sorted(labels)]

    try:
        init, edges, states, skip = explore(start, expand)
    except Untypable as e:
        return e.reason, e.node
    return init, edges, skip, states, eqs


def _build(tr, start):
    try:
        mg = MinGraphBuilder(tr).build(start)
    except Untypable as e:
        return e.reason, e.node
    g = mg.graph
    return g.init, g.edges, g.skip, g.desc, mg.sort_eqs


S1, S2 = SortVar("s1"), SortVar("s2")
ONE_HEAD_FAILURES = [
    # x2 has no defining constraint: the state {x2} has no dependency at all
    ([CHead(OUT, "p", S1, ((None, "x2"),), "x1"), CSortEq(S1, INT)], "x1",
     "variable x2 has no defining constraint", {"x2"}),
    # one variable, two heads of different kinds
    ([CHead(SEL, "p", None, (("l", "x2"),), "x1"), CHead(ENDK, None, None, (), "x2"),
      CHead(IN, "p", S1, ((None, "x3"),), "x2"), CHead(ENDK, None, None, (), "x3")], "x1",
     "mixed dependency heads", {"x2"}),
    # one variable, two outputs to different peers
    ([CHead(OUT, "p", S1, ((None, "x2"),), "x1"), CHead(OUT, "q", S2, ((None, "x2"),), "x1"),
      CHead(ENDK, None, None, (), "x2")], "x1",
     "mixed peers in dependencies", {"x1"}),
    # one head, a branching with no branch at all
    ([CHead(SEL, "p", None, (("l", "x2"),), "x1"), CHead(BRA, "q", None, (), "x2")], "x1",
     "branching dependencies share no label", {"x2"}),
    # one variable, two branchings with no label in common
    ([CHead(BRA, "q", None, (("l1", "x2"),), "x1"), CHead(BRA, "q", None, (("l2", "x2"),), "x1"),
      CHead(ENDK, None, None, (), "x2")], "x1",
     "branching dependencies share no label", {"x1"}),
]


@pytest.mark.parametrize("tr, root, reason, node", ONE_HEAD_FAILURES)
def test_one_variable_states_fail_as_the_general_rules(tr, root, reason, node):
    """A state of one variable fails with the general rules' reason and node,
    whether its variable has one head or several."""
    start = frozenset([root])
    assert _build(tr, start) == _reference_build(tr, start) == (reason, node)


def test_one_head_states_build_the_general_rules_graph(rng):
    """Over random processes, typable or not, the builder gives the general
    rules' graph and sort equations, or their failure, field by field."""
    seen = {"graph": 0, "failure": 0, "one-head": 0}
    for _ in range(1000):
        try:
            d = derive_constraints(rand_process(rng, rng.randint(2, 10)))
        except Untypable:
            continue
        tr, root = eliminate_transitive(d.constraints, d.root)
        got = _build(tr, frozenset([root]))
        assert got == _reference_build(tr, frozenset([root]))
        seen["graph" if len(got) == 5 else "failure"] += 1
        seen["one-head"] += len(got) == 5 and any(
            len(s) == 1 and sum(c.rhs in s for c in tr if type(c) is CHead) == 1
            for s in got[3] if s)
    assert min(seen.values()) >= 150, seen
