"""Inputs 5,000 deep through every entry point, at the interpreter's default
recursion limit of 1,000: no walk may recurse on the depth of its input."""

import sys
import tracemalloc
from functools import cache

import pytest

from mpstk import ast
from mpstk.ast import (
    INACT, INT, PRecv, SessionTypeError, TOut, TRec, TVar, alpha_canon, check_guarded,
    free_vars, size, subst, unfold, uniquify_binders,
)
from mpstk.context import CHECKERS, check_liveness, check_safety, dot_context_graph
from mpstk.inference import derive_constraints, infer
from mpstk.parse import parse
from mpstk.pipeline import run_bottomup, run_topdown, synth_process
from mpstk.printer import show
from mpstk.projection import project_inductive, project_subset, project_tirore
from mpstk.semantics import explore_session
from mpstk.subtyping import subtype_inductive, subtype_sim
from mpstk.typegraph import (
    dot_global_graph, dot_type_graph, global_graph, graph_text, graph_to_type, local_graph,
)

D = 5_000

LOCAL = "p!(int); " * D + "end"
GLOBAL = "p->q(int); " * D + "end"
BINDERS = "".join(f"rec X{i}. " for i in range(D)) + "q!(int); X0"
RECEIVES = "".join(f"q?(y{i}); " for i in range(D)) + "0"


@pytest.fixture(autouse=True)
def default_recursion_limit():
    assert sys.getrecursionlimit() == 1000


parsed = cache(parse)  # for the tests of what comes after parsing


@pytest.mark.parametrize("category,text", [
    ("local", LOCAL),
    ("local", "p+{l: " * D + "end" + "}" * D),
    ("global", GLOBAL),
    ("expr", "!" * D + "true"),
    ("expr", "(" * D + "1" + ")" * D),
    ("expr", "neg " * D + "1"),
    ("process", "q!<1>; " * D + "0"),
    ("process", "if true then " * D + "0" + " else 0" * D),
    ("session", "p::" + "q!<1>; " * D + "0 | q::" + "p?(x); " * D + "0"),
    ("context", "p: " + "q!(int); " * D + "end, q: " + "p?(int); " * D + "end"),
], ids=lambda x: x if x in ("local", "global", "expr", "process", "session", "context") else "")
def test_parse_and_show(category, text):
    x = parse(category, text)
    if category == "expr":  # printed with parentheses around its operands
        assert parse(category, show(x)) is x
    else:
        assert show(x) == text


def test_ast_walks():
    t = parse("local", "rec t. " + "p!(int); " * D + "t")
    assert size(t) == D + 2
    assert free_vars(t.body) == {"t"}
    assert subst(t.body, "t", t) is unfold(t)
    assert alpha_canon(t) is alpha_canon(parse("local", "rec u. " + "p!(int); " * D + "u"))


def test_unfold_is_bounded_by_leading_binders():
    """A guarded chain of 10,001 binders unfolds to its head, one step per
    binder; unguarded terms still raise, however few their binders."""
    t = TOut("q", INT, TVar("X0"))
    for i in reversed(range(10_001)):
        t = TRec(f"X{i}", t)
    assert unfold(t) is TOut("q", INT, t)
    for bad in (TRec("x", TVar("x")), TRec("x", TRec("y", TVar("x")))):
        with pytest.raises(SessionTypeError, match="unguarded recursion in unfold"):
            unfold(bad)


def test_liveness_of_nested_binders():
    """Each unfolding substitutes only where the variable is free, and each
    walk keeps its binders in one map, so nested binders take time and
    memory linear in their number."""
    t = parsed("local", BINDERS)
    assert local_graph(t).node_count() == 1
    assert subtype_sim(t, parse("local", "rec Y. q!(int); Y")).result
    ctx = parse("context", f"p: {BINDERS}, q: rec Y. p?(int); Y")
    assert check_liveness(ctx).holds


def test_receive_chains():
    r = infer(parse("process", RECEIVES))
    assert r.typable and r.graph.node_count() == D + 2
    # the receiver uses every value as a boolean, so the session is safe
    inputs = "".join(f"p?(y{i}); " for i in range(D))
    uses = " \\/ ".join(f"y{i}" for i in range(D))
    s = parse("session", "p::" + "q!<true>; " * D + f"0 | q::{inputs}if {uses} then 0 else 0")
    assert run_bottomup(s, "safety").accepted


def _binder_chain(n):
    t = TOut("q", INT, TVar("X0"))
    for i in reversed(range(n)):
        t = TRec(f"X{i}", t)
    return t


def _receive_chain(n):
    p = INACT
    for i in reversed(range(n)):
        p = PRecv("q", f"y{i}", p)
    return p


def _peak(walk, term):
    """The tracemalloc peak of a second walk(term), on an empty canonical-form
    memo.  The first walk has interned every node the walk makes and filled
    the free-variable memo, so no process-wide table grows while the second
    is measured."""
    kept = walk(term)  # noqa: F841 -- keeps the interned nodes alive
    ast._canon_memo.clear()
    tracemalloc.start()
    try:
        walk(term)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("walk,chain", [
    (derive_constraints, _receive_chain),
    (alpha_canon, _binder_chain),
    (check_guarded, _binder_chain),
    (uniquify_binders, _binder_chain),
], ids=lambda x: getattr(x, "__name__", ""))
def test_binder_walks_take_memory_linear_in_depth(walk, chain, monkeypatch):
    """A walk binds in one map and restores on leave.  A copy of the scope
    per binder would keep one per frame of the fold's stack alive, and read
    4x the peak at twice the depth."""
    monkeypatch.setattr(ast, "_canon_memo", {})
    small = _peak(walk, chain(D))
    # a walk quadratic in depth fails here, before it takes gigabytes at 2 D
    assert small < 16 << 20
    assert _peak(walk, chain(2 * D)) <= 2.5 * small


def _wide_context(n):
    """p selects one of n labels at q, and q offers them all."""
    branches = ", ".join(f"l{k}: end" for k in range(n))
    return parse("context", f"p: q+{{{branches}}}, q: p&{{{branches}}}")


def test_liveness_takes_memory_linear_in_labels(monkeypatch):
    """Each distinct label has an index, and a set of labels is one mask.
    A one-hot int per label would hold about L²/2 bits: 3.3x the peak at
    twice the labels, and 4.9x safety's peak on the same context."""
    monkeypatch.setattr(ast, "_canon_memo", {})
    small = _peak(check_liveness, _wide_context(D))
    wide = _wide_context(2 * D)
    big = _peak(check_liveness, wide)
    assert big <= 2.5 * small
    assert big <= 1.5 * _peak(check_safety, wide)


def test_graphs_and_subtyping():
    t = parsed("local", LOCAL)
    g = local_graph(t)
    assert g.node_count() == D + 2
    assert graph_to_type(g) is t and graph_text(g, g.init) == LOCAL
    gg = global_graph(parsed("global", GLOBAL))
    assert gg.node_count() == D + 1
    # linear in the graph: one short line per node and per edge
    dot = dot_global_graph(gg).splitlines()
    assert len(dot) == 3 + (D + 1) + D and sum(map(len, dot)) <= 40 * len(dot)
    assert subtype_sim(t, t).result and subtype_inductive(t, t).result


def test_projections():
    g = parsed("global", GLOBAL)
    want = parsed("local", "q!(int); " * D + "end")
    assert project_inductive(g, "p", "plain") is want
    assert project_inductive(g, "p", "full") is want
    assert project_tirore(g, "p") is want
    subset = project_subset(g, "p")
    assert graph_text(subset, subset.init) == show(want)


def test_dot_is_linear():
    """One short line per node and per edge: a node shows its head or its
    set state, never its whole subformula or context."""
    ctx = parsed("context", "p: " + "q!(int); " * D + "end, q: " + "p?(int); " * D + "end")
    for dot, lines in [
        (dot_type_graph(local_graph(parsed("local", LOCAL))), 3 + (D + 2) + (D + 1)),
        (dot_type_graph(project_subset(parsed("global", GLOBAL), "p")), 3 + (D + 2) + (D + 1)),
        (dot_context_graph(check_safety(ctx).graph), 3 + (D + 1) + D),
    ]:
        dot = dot.splitlines()
        assert len(dot) == lines and max(map(len, dot)) <= 60


def test_inference_and_synthesis():
    r = infer(parse("process", "q!<" + "!" * D + "true>; 0"))
    assert r.typable and show(r.min_type) == "q!(bool); end"
    p = parsed("process", "q!<1>; " * D + "0")
    r = infer(p)
    assert r.typable and r.min_type is parsed("local", "q!(nat); " * D + "end")
    assert synth_process(r.min_type) is p


@pytest.mark.parametrize("prop", sorted(CHECKERS))
def test_checkers_render_deep_traces(prop):
    ctx = parsed("context", "p: " + "q!(int); " * D + "end, q: " + "p?(bool); " * D + "end")
    v = CHECKERS[prop](ctx)
    assert not v.holds
    assert v.trace.rendered()[-1] == show(ctx)
    assert v.trace.contexts()[-1] is ctx


def test_pipelines():
    """Minimum graphs 5,000 deep, quotiented and handed on to both pipelines."""
    s = parsed("session", "p::" + "q(+)l; " * D + "0 | q::" + "p&{l: " * D + "0" + "}" * D)
    g = parsed("global", "p->q{l: " * D + "end" + "}" * D)
    assert run_topdown(s, g, "full").accepted
    assert run_bottomup(s, "live").accepted


def test_explore_session():
    s = parse("session", "p::q!<" + "!" * D + "true>; 0 | q::p?(x); " + "r!<x>; " * D + "0")
    report = explore_session(s, depth=3)
    assert not report.error_reached and report.stuck_nonterminal
