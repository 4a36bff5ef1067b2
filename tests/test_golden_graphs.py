"""Exact structure of the type graphs every builder produces.

The values were captured from the implementation and pin it: node
numbering (the order in which nodes are first seen), where the Skip sink
lands, edge order, each node's state (`desc`) and label, and DOT text.  A
local node's state is its subformula and its label its head; a subset or
minimum-graph node's state is a set, labelled by its sorted members.  A
refactor of the graph builders that keeps the graphs isomorphic but
renumbers them fails here.
"""

from mpstk.ast import INT, unfold
from mpstk.inference import gen_lcm_process, infer
from mpstk.parse import parse
from mpstk.printer import show_local
from mpstk.projection import gen_lowerbound_family, project_subset
from mpstk.typegraph import dot_global_graph, dot_type_graph, global_graph, local_graph

T1 = "rec t. p!(int); q&{a: t, b: rec u. q?(bool); r+{x: u, y: end}}"
T2 = "rec t. p+{l1: rec s. p?(nat); s, l2: q!(int); t, l3: end}"
G1 = "rec t. p->q{a: q->r(int); t, b: r->p{c: end, d: t}}"


def _edges(g):
    return [[(str(a), m) for a, m in out] for out in g.edges]


def _labels(g):
    return [g.label(n) for n in range(g.node_count())]


def _descs(g):
    return [None if d is None else show_local(d) for d in g.desc]


def test_local_graph_structure():
    g = local_graph(parse("local", T1))
    assert (g.init, g.skip) == (0, 5)
    assert _edges(g) == [
        [("!p(int)", 1)],
        [("&q a", 0), ("&q b", 2)],
        [("?q(bool)", 3)],
        [("(+)r x", 2), ("(+)r y", 4)],
        [("end", 5)],
        [],
    ]
    # each node's state is its subformula; its label is the head
    assert _descs(g) == [
        T1,
        "q&{a: rec t. p!(int); q&{a: t, b: rec u. q?(bool); r+{x: u, y: end}},"
        " b: rec u. q?(bool); r+{x: u, y: end}}",
        "rec u. q?(bool); r+{x: u, y: end}",
        "r+{x: rec u. q?(bool); r+{x: u, y: end}, y: end}",
        "end",
        None,
    ]
    assert _labels(g) == ["p!(int)", "q&", "q?(bool)", "r+", "end", "Skip"]

    g = local_graph(parse("local", T2))
    assert (g.init, g.skip) == (0, 4)
    assert _edges(g) == [
        [("(+)p l1", 1), ("(+)p l2", 2), ("(+)p l3", 3)],
        [("?p(nat)", 1)],
        [("!q(int)", 0)],
        [("end", 4)],
        [],
    ]
    assert _descs(g) == [T2, "rec s. p?(nat); s", f"q!(int); {T2}", "end", None]
    assert _labels(g) == ["p+", "p?(nat)", "q!(int)", "end", "Skip"]


def test_global_graph_structure():
    gg = global_graph(parse("global", G1))
    assert gg.init == 0
    assert gg.succ == [[1, 2], [0], [3, 0], []]
    # each head is the node's unfolded subformula, None for end
    assert gg.heads == [
        unfold(parse("global", G1)),
        parse("global", f"q->r(int); {G1}"),
        parse("global", f"r->p{{c: end, d: {G1}}}"),
        None,
    ]
    assert [gg.arcs(n) for n in range(gg.node_count())] == [
        [("a", 1), ("b", 2)], [(INT, 0)], [("c", 3), ("d", 0)], [],
    ]


def test_dot_global_graph_text():
    assert dot_global_graph(global_graph(parse("global", G1)), "g1") == "\n".join([
        'digraph "g1" {',
        "  rankdir=LR;",
        '  n0 [shape=box style=bold label="p->q"];',
        '  n1 [shape=box label="q->r"];',
        '  n2 [shape=box label="r->p"];',
        '  n3 [shape=box label="end"];',
        '  n0 -> n1 [label="a"];',
        '  n0 -> n2 [label="b"];',
        '  n1 -> n0 [label="(int)"];',
        '  n2 -> n3 [label="c"];',
        '  n2 -> n0 [label="d"];',
        "}",
    ])


def test_subset_projection_structure():
    # the Skip sink is created while the worklist is half done, so it is
    # numbered between two closure states
    g = project_subset(gen_lowerbound_family("cf_primes", [2, 3]), "q")
    assert (g.init, g.skip) == (0, 3)
    assert _edges(g) == [
        [("&p a", 1), ("&p b", 2)],
        [("&p a", 4)],
        [("end", 3)],
        [],
        [("&p a", 5), ("&p b", 2)],
        [("&p a", 6), ("&p b", 2)],
        [("&p a", 7), ("&p b", 2)],
        [("&p a", 8)],
        [("&p a", 1), ("&p b", 2)],
    ]
    # each closure state shows the global-graph nodes it holds
    assert _labels(g) == [
        "{0, 1, 2}", "{3, 6}", "{4}", "Skip", "{1, 5}", "{2, 6}", "{1, 3}", "{5, 6}", "{1, 2}",
    ]


def test_min_graph_structure():
    mg = infer(gen_lcm_process([2, 3])).min_graph
    assert (mg.graph.init, mg.graph.skip) == (0, None)
    assert _edges(mg.graph) == [
        [("&p l1", 1)],
        [("&p l1", 2)],
        [("&p l1", 3)],
        [("&p l1", 4)],
        [("&p l1", 5)],
        [("&p l1", 6), ("&p l2", 6)],
        [("&p l1", 1)],
    ]
    assert [sorted(s) for s in mg.graph.desc] == [
        ["x1"], ["x3", "x8"], ["x4", "x7"], ["x2", "x8"],
        ["x3", "x7"], ["x4", "x8"], ["x2", "x7"],
    ]

    # payload sort variables are numbered in worklist order; Skip's state is None
    mg = infer(parse("process", "p?(x); if x then q!<1>; 0 else q!<2>; 0")).min_graph
    assert (mg.graph.init, mg.graph.skip) == (0, 3)
    assert _edges(mg.graph) == [[("?p('a1)", 1)], [("!q('a2)", 2)], [("end", 3)], []]
    assert mg.graph.desc == [
        frozenset({"x1"}), frozenset({"x2"}), frozenset({"x4", "x6"}), None,
    ]
    assert _labels(mg.graph) == ["{x1}", "{x2}", "{x4, x6}", "Skip"]


def test_dot_type_graph_text():
    dot = dot_type_graph(local_graph(parse("local", T1)), "t1")
    assert dot == "\n".join([
        'digraph "t1" {',
        "  rankdir=LR;",
        '  n0 [shape=box style=bold label="p!(int)"];',
        '  n1 [shape=box label="q&"];',
        '  n2 [shape=box label="q?(bool)"];',
        '  n3 [shape=box label="r+"];',
        '  n4 [shape=box label="end"];',
        '  n5 [shape=doublecircle label="Skip"];',
        '  n0 -> n1 [label="!p(int)"];',
        '  n1 -> n0 [label="&q a"];',
        '  n1 -> n2 [label="&q b"];',
        '  n2 -> n3 [label="?q(bool)"];',
        '  n3 -> n2 [label="(+)r x"];',
        '  n3 -> n4 [label="(+)r y"];',
        '  n4 -> n5 [label="end"];',
        "}",
    ])
