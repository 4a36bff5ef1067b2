"""Typing-context LTS, property checkers, traces, liveness oracle."""

import pytest

from conftest import rand_context

from mpstk import context, printer
from mpstk.ast import END, INT, TBra, TSel, size, typing_context
from mpstk.context import (
    Barb, BudgetExceeded, ContextLTS, Label, barbs, brute_force_liveness,
    check_deadlock_freedom, check_liveness, check_safety, ctx_step,
    observations, reachable_graph,
)
from mpstk.hardness import all_small_qbfs, gen_qbf_context
from mpstk.inference import infer
from mpstk.parse import parse
from mpstk.printer import TEXT_MEMO_BOUND, show, show_context
from mpstk.subtyping import graph_equiv
from mpstk.typegraph import (
    Action, IN, SEL, MalformedGraph, TypeGraph, local_graph, quotient,
)

D5 = parse("context",
           "q: p&{l1: r&{l2: end, l3: end}, l4: r&{l2: end, l5: end}},"
           " p: q+{l1: end, l4: end}, r: q+{l2: end}")
D6 = parse("context", "q: p&{l1: end, l2: end}, p: q+{l1: end, l3: end}")
D7 = parse("context",
           "q: rec t. p?(int); t, p: rec t. q!(int); t,"
           " r: s?(bool); end, s: r!(int); end")
D8 = parse("context",
           "q: rec t. p?(int); t, p: rec t. q!(int); t, r: s?(bool); end")
D9 = parse("context", "q: p?(int); end")
ALICE_BOB_SELLER = parse(
    "context",
    "a: rec t. b+{m: b&{yes: s+{buy: end}, no: t}},"
    " b: rec t. a&{m: a+{no: t}, cancel: end},"
    " s: a&{buy: end, no: end}")


def test_is_safe_state_fixtures():
    from mpstk.context import is_safe_state

    assert not is_safe_state(D6)   # p may select l3, q does not offer it
    assert not is_safe_state(D7)   # s!int facing r?bool
    assert is_safe_state(D9)       # lone input, vacuously safe
    assert is_safe_state(parse("context", "p: end"))


def test_fig2_classifications():
    expected = {
        "D5": (True, True, True),
        "D6": (False, True, True),
        "D7": (False, True, False),
        "D9": (True, False, False),
    }
    for name, ctx in [("D5", D5), ("D6", D6), ("D7", D7), ("D9", D9)]:
        safe, df, live = expected[name]
        assert check_safety(ctx).holds == safe, name
        assert check_deadlock_freedom(ctx).holds == df, name
        assert check_liveness(ctx).holds == live, name


def test_d8_follows_the_definition():
    # the p/q loop always reduces, so D8 is vacuously deadlock-free; the
    # dangling input makes it non-live
    assert check_safety(D8).holds
    assert check_deadlock_freedom(D8).holds
    assert not check_liveness(D8).holds


def test_alice_bob_seller_not_live():
    assert not check_liveness(ALICE_BOB_SELLER).holds
    assert check_deadlock_freedom(ALICE_BOB_SELLER).holds
    assert not brute_force_liveness(ALICE_BOB_SELLER, bound=8)


def test_ctx_step_d6():
    steps = ctx_step(D6)
    sync = [(lab, c) for lab, c in steps if lab.kind in ("comm", "choice")]
    assert len(sync) == 1
    lab, succ = sync[0]
    assert (lab.kind, lab.p, lab.q, lab.arg) == ("choice", "p", "q", "l1")
    singles = {str(lab) for lab, _ in steps if lab.kind not in ("comm", "choice")}
    assert "(+)pq l1" in singles and "(+)pq l3" in singles
    assert "&qp l1" in singles and "&qp l2" in singles


def test_ctx_step_all_end():
    ctx = parse("context", "p: end, q: end")
    assert ctx_step(ctx) == []


def test_d7_loop_and_sort_mismatch():
    rg = reachable_graph(D7)
    assert len(rg.states) == 1
    assert len(rg.edges[0]) == 1 and rg.edges[0][0][0].kind == "comm"
    lts = rg.lts
    assert not lts.is_safe_state(rg.states[0])


def test_reachable_d9():
    rg = reachable_graph(D9)
    assert len(rg.states) == 1 and rg.edge_count() == 0


def test_barbs_and_observations():
    assert barbs(D6) == frozenset([Barb("sel", "p", "q"), Barb("bra", "q", "p")])
    obs = observations(Label("choice", "p", "q", "l1"))
    assert obs == frozenset([Barb("sel", "p", "q"), Barb("bra", "q", "p")])
    obs2 = observations(Label("comm", "p", "q"))
    assert obs2 == frozenset([Barb("out", "p", "q"), Barb("in", "q", "p")])
    assert barbs(parse("context", "p: end")) == frozenset()


def test_safety_trace_replays():
    v = check_safety(D6)
    assert not v.holds and v.trace is not None
    _assert_trace_replays(v)


def test_df_trace_replays():
    ctx = parse("context", "p: q+{go: r!(int); end}, q: p&{go: end}, r: end")
    v = check_deadlock_freedom(ctx)
    assert not v.holds
    _assert_trace_replays(v)
    assert len(v.trace.steps) == 1


def test_liveness_lasso_trace_replays():
    v = check_liveness(D7)
    assert not v.holds and v.trace is not None
    assert v.trace.cycle_start is not None
    _assert_trace_replays(v)


def test_verdicts_leave_their_graph_out_of_repr_and_equality():
    """Two runs build two graphs; their verdicts and traces are still
    equal, and neither repr prints a graph."""
    v = check_liveness(D7)
    assert repr(v) == (
        "Verdict(prop='live', holds=False, trace=Trace(steps=[(0, Label(kind='comm', p='p',"
        " q='q', arg=None))], final=0, cycle_start=0), states=1, edges=1)")
    assert "ContextGraph" not in repr(check_safety(D6))
    again = check_liveness(D7)
    assert again.graph is not v.graph
    assert again == v and again.trace == v.trace
    assert not (again != v or again.trace != v.trace)


def _assert_trace_replays(verdict):
    contexts = verdict.trace.contexts()
    labels = [lab for _, lab in verdict.trace.steps]
    for ctx, lab, nxt in zip(contexts, labels, contexts[1:]):
        succs = [c for l2, c in ctx_step(ctx) if l2 == lab]
        assert succs, f"label {lab} not enabled at {show_context(ctx)}"
        assert any(_ctx_equiv(c, nxt) for c in succs)


def _ctx_equiv(a, b):
    am, bm = a.mapping(), b.mapping()
    return set(am) == set(bm) and all(graph_equiv(am[k], bm[k]) for k in am)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        reachable_graph(D5, budget=1)


def test_show_state_equals_show_context(rng):
    """The memoised state text is the printed context, byte for byte, on
    every reachable state of random contexts and of QBF gadgets."""
    contexts = [D5, D6, D7, D8, D9, ALICE_BOB_SELLER]
    contexts += [c for c in (rand_context(rng) for _ in range(150)) if c is not None]
    qbfs = list(all_small_qbfs(2))
    for f in rng.sample(qbfs, 12):
        for prop in ("safety", "df", "live"):
            contexts.append(gen_qbf_context(f, prop))
    for ctx in contexts:
        rg = reachable_graph(ctx)
        for s in rg.states:
            assert rg.lts.show_state(s) == show_context(rg.lts.context_of(s))


# RING2 holds p's type under the name w and u's type in another place; q's
# and r's types name w where RING's name p, and v's is an alpha-variant.
RING = parse(
    "context",
    "p: rec t. q!(int); r?(bool); t, q: rec t. p?(int); r!(nat); t,"
    " r: rec t. q?(nat); p!(bool); t,"
    " u: rec t. v+{a: v!(nat); t, b: end}, v: rec t. u&{a: u?(nat); t, b: end}")
RING2 = parse(
    "context",
    "v: rec k. u&{a: u?(nat); k, b: end}, w: rec t. q!(int); r?(bool); t,"
    " r: rec t. q?(nat); w!(bool); t, q: rec t. w?(int); r!(nat); t,"
    " u: rec t. v+{a: v!(nat); t, b: end}")


def _state_texts(ctx) -> list[str]:
    """Every reachable state's text, checked against its printed context."""
    rg = reachable_graph(ctx)
    texts = [rg.lts.show_state(s) for s in rg.states]
    assert texts == [show_context(rg.lts.context_of(s)) for s in rg.states]
    return texts


def test_state_texts_are_shared_across_contexts(monkeypatch):
    """The process-wide text memos give the same texts whichever context
    fills them, and a second context prints no type it shares."""
    runs = []
    for order in ((RING, RING2), (RING2, RING)):
        context._TEXTS.clear()
        printer._ENTRY_TEXTS.clear()
        runs.append([_state_texts(c) for c in order])
    assert runs[0] == runs[1][::-1]
    assert len(runs[0][0]) > 6 and len(runs[0][1]) > 6

    context._TEXTS.clear()
    _state_texts(RING)
    printed, graph_text = [], context.graph_text
    monkeypatch.setattr(context, "graph_text",
                        lambda g, n, rows=None: printed.append(g) or graph_text(g, n, rows))
    rg = reachable_graph(RING2)
    for s in rg.states:
        rg.lts.show_state(s)
    lts = rg.lts
    assert {p for p, g in zip(lts.participants, lts.graphs)
            if any(h is g for h in printed)} == {"q", "r", "v"}


def test_text_memos_are_bounded():
    """More distinct state texts than a text memo may hold: each memo is
    cleared whole when full, and every text is still the printed context."""
    context._TEXTS.clear()
    printer._ENTRY_TEXTS.clear()
    shown = set()
    for k in range(TEXT_MEMO_BOUND + 100):
        label = ((f"l{k}", END),)
        rg = reachable_graph(typing_context([("p", TSel("q", label)), ("q", TBra("p", label))]))
        for s in rg.states:
            text = rg.lts.show_state(s)
            assert text == show_context(rg.lts.context_of(s))
            shown.add(text)
        assert len(context._TEXTS) <= TEXT_MEMO_BOUND
        assert len(printer._ENTRY_TEXTS) <= TEXT_MEMO_BOUND
    assert len(shown) > TEXT_MEMO_BOUND


def test_minimum_graph_states_key_no_shared_text():
    """A minimum graph's node states are sets of type variables, the same
    sets in every inference: they never key the process-wide texts, so each
    LTS, and each participant in it, prints its own types."""
    graphs = [quotient(infer(parse("process", p)).graph)
              for p in ("q!<1>; 0", "q!<true>; 0", "p?(x); 0")]
    assert graphs[0].desc == graphs[1].desc == graphs[2].desc
    before = dict(context._TEXTS)
    texts = []
    for p, q in (graphs[::2], graphs[1:]):
        lts = ContextLTS({"p": p, "q": q})
        texts.append(lts.show_state(lts.init))
        assert texts[-1] == show_context(lts.context_of(lts.init))
    assert texts == ["p: q!(nat); end, q: p?('a); end", "p: q!(bool); end, q: p?('a); end"]
    assert context._TEXTS == before


@pytest.mark.parametrize("edges, message", [
    ([[], []], "node 0 has no outgoing edges"),
    ([[(Action(IN, "q", INT), 1), (Action(SEL, "q", "l"), 1)], []],
     "node 0 mixes edge kinds ['in', 'sel']"),
])
def test_handed_in_graphs_are_checked_at_construction(edges, message):
    """A graph handed to ContextLTS is checked as it enters, before any
    verdict reads it: neither a crash while the heads are built nor a
    verdict on a graph that no local type has."""
    q = local_graph(parse("local", "p?(int); end"))
    with pytest.raises(MalformedGraph) as e:
        ContextLTS({"q": q, "p": TypeGraph(0, edges, 1)})
    assert str(e.value) == message
    assert check_safety(ContextLTS({"q": q, "p": local_graph(parse("local", "q!(int); end"))}))


# ---------------------------------------------------------------------------
# Random contexts: oracle agreement and implications


def test_live_implies_df(rng):
    produced = 0
    for _ in range(400):
        ctx = rand_context(rng)
        if ctx is None:
            continue
        produced += 1
        if check_liveness(ctx).holds:
            assert check_deadlock_freedom(ctx).holds
    assert produced >= 300


def test_liveness_oracle_agreement_small(rng):
    """check_liveness vs the literal bounded counterwitness enumeration."""
    fixtures = [D5, D6, D7, D8, D9, ALICE_BOB_SELLER]
    checked = 0
    for ctx in fixtures:
        assert check_liveness(ctx).holds == brute_force_liveness(ctx, bound=8)
        checked += 1
    for _ in range(60):
        ctx = rand_context(rng)
        if ctx is None:
            continue
        rg = reachable_graph(ctx, budget=100)
        if len(rg.states) > 12:
            continue
        fast = check_liveness(ctx).holds
        slow = brute_force_liveness(ctx, bound=8)
        if fast != slow:
            slow = brute_force_liveness(ctx, bound=12)
        assert fast == slow, show_context(ctx)
        checked += 1
    assert checked >= 40


def test_state_bound(rng):
    for _ in range(100):
        ctx = rand_context(rng)
        if ctx is None:
            continue
        rg = reachable_graph(ctx)
        bound = 1
        for _, t in ctx.entries:
            bound *= size(t)
        assert len(rg.states) <= bound


# ---------------------------------------------------------------------------
# One entry in many contexts


def _same_moves(lts, ref):
    """The two LTSs agree on every state reachable in `lts`: its successors,
    safety, barbs and whether it has ended."""
    rg = reachable_graph(lts)
    assert rg.states == reachable_graph(ref).states
    for s in rg.states:
        assert lts.sync_steps(s) == ref.sync_steps(s)
        assert lts.is_safe_state(s) == ref.is_safe_state(s)
        assert lts.barbs(s) == ref.barbs(s)
        assert lts.all_end(s) == ref.all_end(s)


def test_one_entry_in_three_contexts():
    """The entry p: q!(int); end where q is participant 1, participant 2 and
    absent: each context reads the one cached graph, and its LTS moves as
    the LTS of its participants' graphs, built uncached."""
    graphs = []
    for text in ("p: q!(int); end, q: p?(int); end",
                 "p: q!(int); end, pa: q?(int); end, q: p?(int); end",
                 "p: q!(int); end, r: p?(int); end"):
        ctx = parse("context", text)
        lts = ContextLTS(ctx)
        graphs.append(lts.graphs[0])
        _same_moves(lts, ContextLTS({q: local_graph(u) for q, u in ctx.entries}))
    assert graphs[0] is graphs[1] is graphs[2]


def test_one_type_under_two_names():
    """p and r have the same type: each label and barb names its own sender."""
    ctx = parse("context", "p: q!(int); end, q: p?(int); r?(int); end, r: q!(int); end")
    rg = reachable_graph(ctx)
    assert [str(lab) for row in rg.edges for lab, _ in row] == ["pq", "rq"]
    assert rg.lts.barbs(rg.lts.init) == {Barb("out", "p", "q"), Barb("out", "r", "q"),
                                         Barb("in", "q", "p")}
    assert rg.lts.barbs(rg.states[1]) == {Barb("out", "r", "q"), Barb("in", "q", "r")}


def test_participant_cache_is_bounded():
    """The cache keeps its last 16 entries, however many contexts pass."""
    assert context._participant.cache_info().maxsize == 16
    for k in range(100):
        ContextLTS(parse("context", f"p: q+{{l{k}: end}}, q: p&{{l{k}: end}}"))
        assert context._participant.cache_info().currsize <= 16
