"""Projections: the four algorithms, merges, lattice inclusions, families."""

import random
import time
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, strategies as st

from conftest import balanced_globals, mutate_local, rand_global, rand_local

from mpstk.ast import (
    GChoice, GEnd, GMsg, GRec, GVar, INT, SessionTypeError, TBra, TEnd, TSel, TVar, TRec,
    branches, fold, free_vars, is_closed, participants, size, unfold,
)
from mpstk.context import ContextLTS, Label
from mpstk.parse import parse
from mpstk.printer import show
from mpstk.projection import (
    FULL, KINDS, PLAIN, MBra, NotBalanced, ProjUndefined, WorkCounter, check_association,
    gen_lowerbound_family, merge_full_naive, merge_full_optimized, merge_plain,
    project, project_inductive, project_subset, project_tirore, ptrans,
    _project, treap_get, treap_insert, treap_items,
)
from mpstk.subtyping import graph_equiv, subtype_sim
from mpstk.typegraph import graph_to_type, is_balanced, local_graph

G_IP = parse("global", "rec t. q->r{l1: r->p{l1: t}, l2: r->p{l1: t}}")
G_IF = parse("global", "rec t. q->r{l1: r->p{l1: t}, l2: r->p{l2: end}}")
G_CP = parse("global", "q->r{l1: rec t. q->p(int); t, l2: rec u. q->p(int); q->p(int); u}")


def test_gip_projects_under_both_merges():
    want = parse("local", "rec t. r&{l1: t}")
    for kind in (PLAIN, FULL):
        assert project_inductive(G_IP, "p", kind) == want


def test_gif_plain_undefined_full_defined():
    with pytest.raises(ProjUndefined):
        project_inductive(G_IF, "p", PLAIN)
    assert project_inductive(G_IF, "p", FULL) == parse(
        "local", "rec t. r&{l1: t, l2: end}")


def test_end_projects_to_end():
    assert project_inductive(GEnd(), "p", PLAIN) == TEnd()
    assert project_inductive(GEnd(), "p", FULL) == TEnd()


def test_msg_projection_sides():
    g = GMsg("p", "q", INT, GEnd())
    assert show(project_inductive(g, "p", FULL)) == "q!(int); end"
    assert show(project_inductive(g, "q", FULL)) == "p?(int); end"
    assert project_inductive(g, "r", FULL) == TEnd()


# ---------------------------------------------------------------------------
# Merging


def test_full_merge_union_fixture():
    a = parse("local", "q&{l1: end, l2: end}")
    b = parse("local", "q&{l3: end}")
    assert show(merge_full_naive(a, b)) == "q&{l1: end, l2: end, l3: end}"
    assert merge_full_optimized(a, b) == merge_full_naive(a, b)


def test_merge_idempotent(rng):
    for _ in range(200):
        t = rand_local(rng, 8)
        assert merge_full_naive(t, t) == t
        assert merge_full_optimized(t, t) == t


def test_merge_rec_congruence():
    a = parse("local", "rec t. q&{l1: t}")
    b = parse("local", "rec u. q&{l2: end, l1: u}")
    for merge in (merge_full_naive, merge_full_optimized):
        m = merge(a, b)
        assert graph_equiv(m, parse("local", "rec t. q&{l1: t, l2: end}"))


def test_merge_selection_needs_equal_labels():
    a = parse("local", "q+{l1: end}")
    b = parse("local", "q+{l1: end, l2: end}")
    with pytest.raises(Exception):
        merge_full_naive(a, b)


def _mergeable_pair(rng):
    t = rand_local(rng, 8)
    return t, mutate_local(rng, t)


def test_merge_naive_vs_optimized(rng):
    agree = 0
    for _ in range(1000):
        t1, t2 = _mergeable_pair(rng)
        try:
            naive = merge_full_naive(t1, t2)
        except Exception:
            naive = None
        try:
            opt = merge_full_optimized(t1, t2)
        except Exception:
            opt = None
        assert (naive is None) == (opt is None), (show(t1), show(t2))
        if naive is not None:
            assert naive == opt or (
                is_closed(naive) and is_closed(opt) and graph_equiv(naive, opt)
            )
            agree += 1
            if is_closed(naive):
                # the coinductive merge's bound: each of its states is a pair
                # of operand states, or a state of a one-sided branch
                n1, n2 = (len(local_graph(t).real_nodes()) for t in (t1, t2))
                assert len(local_graph(naive).real_nodes()) <= n1 * n2 + n1 + n2
    assert agree > 200


# the leaf labels of fullmerge_nlog2 up to k=9, and short labels that sort
# among and around them
_TREAP_LABELS = st.one_of(
    st.integers(0, 511).map(lambda j: f"m{j:06d}"),
    st.text(alphabet="abklm0", min_size=1, max_size=3),
)


def _search_path(n, key) -> int:
    """Calls treap_insert makes for `key`: one per node it passes, plus one
    for the node holding the key or the empty place the key goes."""
    steps = 1
    while n is not None and n.key != key:
        n = n.left if key < n.key else n.right
        steps += 1
    return steps


@given(st.lists(_TREAP_LABELS, max_size=80))
def test_treap_structure(labels):
    tree, last = None, {}
    for i, label in enumerate(labels):
        c = WorkCounter()
        want = _search_path(tree, label)
        tree = treap_insert(tree, label, i, lambda old, new: new, c)
        assert c.ops == want
        last[label] = i
    assert [k for k, _ in treap_items(tree)] == sorted(last)
    assert dict(treap_items(tree)) == last
    assert all(treap_get(tree, k) == v for k, v in last.items())
    stack = [tree] if tree is not None else []
    while stack:
        n = stack.pop()
        kids = [k for k in (n.left, n.right) if k is not None]
        assert all(k.prio <= n.prio for k in kids)
        assert n.size == 1 + sum(k.size for k in kids)
        stack.extend(kids)


def _has_mbra(t) -> bool:
    return fold(t, lambda u, vals, env: type(u) is MBra or any(vals))


def test_full_merge_results_hold_no_treap_branching(rng):
    """The treap-backed MBra is a merge's working form only: full
    projections and merge_full_optimized hand back plain local types."""
    merged = projected = 0
    for _ in range(300):
        t1, t2 = _mergeable_pair(rng)
        try:
            assert not _has_mbra(merge_full_optimized(t1, t2))
            merged += 1
        except SessionTypeError:
            pass
    globals_ = [rand_global(rng, 8) for _ in range(300)] + [
        gen_lowerbound_family("fullmerge_nlog2", 3),
        gen_lowerbound_family("fullmerge_quadratic", 5),
        parse("global", "q->r{l1: r->p(int); rec t. r->p{l1: t}, "
                        "l2: r->p(int); rec u. r->p{l2: end, l1: u}}"),
    ]
    for g in globals_:
        for p in sorted(participants(g)):
            try:
                assert not _has_mbra(project_inductive(g, p, FULL))
                projected += 1
            except ProjUndefined:
                pass
    assert merged > 100 and projected > 500


def test_projection_not_larger_than_global(rng):
    for g in balanced_globals(rng, 200, 10):
        for p in participants(g):
            for kind in (PLAIN, FULL):
                try:
                    t = project_inductive(g, p, kind)
                except ProjUndefined:
                    continue
                assert size(t) <= size(g)


# ---------------------------------------------------------------------------
# Tirore-style projection


def test_tirore_fixtures():
    assert show(project_tirore(GMsg("p", "q", INT, GEnd()), "p")) == "q!(int); end"
    assert project_tirore(G_CP, "p") is not None
    with pytest.raises(ProjUndefined):
        project_tirore(G_IF, "p")
    assert show(project_tirore(G_IP, "p")) == "rec t. r&{l1: t}"


def test_tirore_rejects_unguarded_candidate():
    g = parse("global", "rec t. q->r{l: t, l2: p->q(int); end}")
    # ptrans keeps the left branch: the candidate collapses to rec t. t
    with pytest.raises(ProjUndefined):
        project_tirore(g, "p")


def test_ptrans_linear_on_shared_subterms():
    # 40 levels, each sharing one subterm object between both branches: a
    # projection that visited the dropped branches would take 2^40 steps
    g = GMsg("p", "q", INT, GEnd())
    for _ in range(40):
        g = GChoice("r", "s", (("a", g), ("b", g)))
    t0 = time.perf_counter()
    assert show(ptrans(g, "p")) == "q!(int); end"
    assert show(project_tirore(g, "p")) == "q!(int); end"
    assert time.perf_counter() - t0 < 1.0


def test_tirore_vs_inductive_incomparable():
    # G_cp: Tirore succeeds, both inductive merges fail
    assert project_tirore(G_CP, "p")
    for kind in (PLAIN, FULL):
        with pytest.raises(ProjUndefined):
            project_inductive(G_CP, "p", kind)
    # G_if: inductive full succeeds, Tirore fails
    assert project_inductive(G_IF, "p", FULL)
    with pytest.raises(ProjUndefined):
        project_tirore(G_IF, "p")


# ---------------------------------------------------------------------------
# Subset construction


def test_subset_example():
    g = parse(
        "global",
        "p->q{l1: q->r(int); q->r{l3: r->p(int); end},"
        " l2: q->r(int); q->r{l4: r->p(bool); end}}",
    )
    t = graph_to_type(project_subset(g, "r"))
    assert show(t) == "q?(int); q&{l3: p!(int); end, l4: p!(bool); end}"


def test_subset_gif():
    t = graph_to_type(project_subset(G_IF, "p"))
    assert graph_equiv(t, parse("local", "rec t. r&{l1: t, l2: end}"))


def test_subset_not_balanced():
    src = "rec t. p->q{l: t, l2: q->r{l3: end}}"
    for p in ("r", "z"):  # checked before p's occurrence
        with pytest.raises(NotBalanced) as e:
            project_subset(parse("global", src), p)
        assert str(e.value) == f"global type is not balanced: {src}"


def test_subset_computes_reaching_once_per_participant(monkeypatch):
    import mpstk.projection
    import mpstk.typegraph

    calls = []

    def spy(gg, p, real=mpstk.typegraph.reaching):
        calls.append(p)
        return real(gg, p)

    for module in (mpstk.typegraph, mpstk.projection):
        monkeypatch.setattr(module, "reaching", spy)
    g = parse("global", "rec t. p->q{a: q->r(int); t, b: q->r(int); r->p(int); end}")
    assert graph_equiv(project_subset(g, "q"), project_inductive(g, "q", FULL))
    assert sorted(calls) == ["p", "q", "r"]


def test_subset_mixed_heads_names_the_state():
    g = parse("global", "q->r{l1: p->q(int); end, l2: q->p(int); end}")
    with pytest.raises(ProjUndefined) as e:
        project_subset(g, "p")
    assert e.value.reason == "mixed message heads"
    assert e.value.where == (
        "{q->r{l1: p->q(int); end, l2: q->p(int); end} | p->q(int); end | q->p(int); end}")


# Every error the Tirore check and the subset construction can raise, with
# its exact text and place, on globals projected onto p.
ERROR_TEXTS = [
    ("r->s{a: p->q{l1: end, l2: end}, b: p->q{l1: end}}", "subset", "p",
     "selection label sets differ at {r->s{a: p->q{l1: end, l2: end}, b: p->q{l1: end}}"
     " | p->q{l1: end, l2: end} | p->q{l1: end}}"),
    ("r->s{a: p->q{l1: end, l2: end}, b: p->q{l1: end}}", "tbc", "p",
     "label sets differ (['l1'] vs ['l1', 'l2']) at p->q{l1: end}"),
    ("r->s{a: q->p{l1: end, l2: end}, b: q->p{l1: end}}", "tbc", "p",
     "label sets differ (['l1'] vs ['l1', 'l2']) at q->p{l1: end}"),
    ("r->s{a: p->q(int); end, b: p->q(bool); end}", "subset", "p",
     "mixed message heads at {r->s{a: p->q(int); end, b: p->q(bool); end}"
     " | p->q(int); end | p->q(bool); end}"),
    ("r->s{a: p->q(int); end, b: p->q(bool); end}", "tbc", "p",
     "head mismatch, wanted !q(bool) at p->q(bool); end"),
    ("r->s{a: p->q(int); end, b: q->p(int); end}", "subset", "p",
     "mixed message heads at {r->s{a: p->q(int); end, b: q->p(int); end}"
     " | p->q(int); end | q->p(int); end}"),
    ("r->s{a: p->q(int); end, b: q->p(int); end}", "tbc", "p",
     "head mismatch, wanted ?q(int) at q->p(int); end"),
    ("r->s{a: p->q(int); end, b: p->r(int); end}", "subset", "p",
     "mixed message heads at {r->s{a: p->q(int); end, b: p->r(int); end}"
     " | p->q(int); end | p->r(int); end}"),
    ("r->s{a: p->q{l1: end}, b: q->p{l1: end}}", "subset", "p",
     "mixed choice heads at {r->s{a: p->q{l1: end}, b: q->p{l1: end}}"
     " | p->q{l1: end} | q->p{l1: end}}"),
    ("r->s{a: p->q{l1: end}, b: q->p{l1: end}}", "tbc", "p",
     "label sets differ (['l1'] vs []) at q->p{l1: end}"),
    ("r->s{a: q->p{l1: end}, b: r->p{l1: end}}", "subset", "p",
     "mixed choice heads at {r->s{a: q->p{l1: end}, b: r->p{l1: end}}"
     " | q->p{l1: end} | r->p{l1: end}}"),
    ("r->s{a: p->q{l1: end}, b: p->q(int); end}", "subset", "p",
     "mixed communication heads at {r->s{a: p->q{l1: end}, b: p->q(int); end}"
     " | p->q{l1: end} | p->q(int); end}"),
    ("r->s{a: p->q{l1: end}, b: p->q(int); end}", "tbc", "p",
     "head mismatch, wanted !q(int) at p->q(int); end"),
    ("r->q{l1: end, l3: q->r{l1: end}, l4: r->p{l3: end}}", "subset", "p",
     "mixed end and communication heads at {r->q{l1: end, l3: q->r{l1: end},"
     " l4: r->p{l3: end}} | end | q->r{l1: end} | r->p{l3: end}}"),
    ("r->s{a: p->q(int); end, b: end}", "tbc", "p",
     "participant absent but local type is not end at end"),
    ("rec t. q->r{l: t, l2: p->q(int); end}", "tbc", "p",
     "candidate does not unravel (unguarded) at rec t. q->r{l: t, l2: p->q(int); end}"),
]


@pytest.mark.parametrize("src, kind, p, text", ERROR_TEXTS)
def test_projection_error_texts(src, kind, p, text):
    with pytest.raises(ProjUndefined) as e:
        project(parse("global", src), p, kind)
    assert str(e.value) == f"projection onto {p} undefined: {text}"


def test_absent_role_projects_to_end_under_every_kind():
    g = parse("global", "p->q(int); end")
    for kind in KINDS:
        t = project(g, "z", kind)
        assert show(graph_to_type(t) if kind == "subset" else t) == "end", kind


def _cf_state_oracle(periods):
    """Independent count of the projection-graph states for the prime-cycle
    family: residue vectors of the a-counter modulo every period, plus the
    initial node and the node after the b-escape."""
    seen = set()
    vec = tuple(0 for _ in periods)
    while vec not in seen:
        seen.add(vec)
        vec = tuple((x + 1) % n for x, n in zip(vec, periods))
    return len(seen) + 2


def test_subset_prime_family_counts():
    for periods, lower in [([2, 3], 6), ([2, 3, 5], 30)]:
        g = gen_lowerbound_family("cf_primes", periods)
        # linear in sum(periods): one binder, one choice, one end per branch
        assert size(g) == 1 + 3 * len(periods) + sum(periods)
        graph = project_subset(g, "q")
        count = len(graph.real_nodes())
        assert count == _cf_state_oracle(periods)
        assert count >= lower


def test_tirore_accepts_cf_primes_past_ten_periods():
    """Eleven periods label the top choice l0 ... l10, whose label order
    differs from the order they are made in."""
    g = gen_lowerbound_family("cf_primes", [2] * 11)
    assert [l for l, _ in g.branches] == sorted(f"l{i}" for i in range(11))
    for p in ("p", "q", "r"):
        assert graph_equiv(project_tirore(g, p), project_inductive(g, p, PLAIN))


def _reference_tirore(g, p: str, budget: int = 1_000_000):
    """project_tirore as it walked (global node, local node) tuples and
    looked each action up with `TypeGraph.step`, kept verbatim as the
    reference for the int-coded walk."""
    from mpstk.ast import BudgetExceeded, check_guarded
    from mpstk.projection import _views
    from mpstk.typegraph import ENDK, IN, OUT, Action, global_graph, reaching

    cand = ptrans(g, p)
    try:
        check_guarded(cand)
    except SessionTypeError:
        raise ProjUndefined(p, "candidate does not unravel (unguarded)", show(g))
    gg = global_graph(g)
    lg = local_graph(cand)
    views = _views(gg, p)
    live = reaching(gg, p)  # nodes where p still takes part

    start = (gg.init, lg.init)
    seen = {start}
    stack = [start]
    while stack:
        u, v = stack.pop()
        if u not in live:
            if lg.kind(v) != ENDK:
                raise ProjUndefined(p, "participant absent but local type is not end",
                                    show(gg.nodes[u]))
            continue
        if views[u] is None:  # the candidate waits on every branch
            pairs = [(u2, v) for u2 in gg.succ[u]]
        elif views[u][0] in (IN, OUT):  # the candidate must take the same action
            kind, peer, ((a, u2),) = views[u]
            want = Action(kind, peer, a)
            v2 = lg.step(v, want)
            if v2 is None:
                raise ProjUndefined(p, f"head mismatch, wanted {want}", show(gg.nodes[u]))
            pairs = ((u2, v2),)
        else:  # the candidate must offer the same labels
            kind, peer, arcs = views[u]
            want = [l for l, _ in arcs]
            got = [a.arg for a, _ in lg.out(v) if a.kind == kind and a.peer == peer]
            if lg.kind(v) != kind or got != want:
                raise ProjUndefined(p, f"label sets differ ({want} vs {got})", show(gg.nodes[u]))
            pairs = [(u2, lg.step(v, Action(kind, peer, l))) for l, u2 in arcs]
        for pair in pairs:
            if pair not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded(f"more than {budget} product nodes")
                seen.add(pair)
                stack.append(pair)
    return cand


class _BudgetProbe:
    """A budget no walk exceeds, which keeps the largest pair count tested
    against it: a walk tests `len(seen) >= budget` before it adds a pair,
    so it visits `most + 1` pairs in all."""

    def __init__(self):
        self.most = 0

    def __le__(self, count):  # the reflection of `count >= self`
        self.most = max(self.most, count)
        return False


def _tirore_outcome(walk, g, p, budget):
    """The walk's projection, or the text of its ProjUndefined."""
    try:
        return walk(g, p, budget)
    except ProjUndefined as e:
        return str(e)


def _assert_tirore_as_reference(g, p):
    """The same projection or message as the reference, and the same least
    passing budget: the reference's pair count."""
    from mpstk.ast import BudgetExceeded

    probe = _BudgetProbe()
    want = _tirore_outcome(_reference_tirore, g, p, probe)
    pairs = probe.most + 1
    assert _tirore_outcome(project_tirore, g, p, pairs) == want, (show(g), p)
    if pairs > 1:
        for walk in (_reference_tirore, project_tirore):
            with pytest.raises(BudgetExceeded):
                walk(g, p, pairs - 1)
    return want, pairs


def test_tirore_walk_equals_the_reference_on_random_globals(rng):
    """1,000 random globals over four participants, onto each of theirs:
    every text the check raises turns up, each at least 20 times."""
    outcomes = Counter()
    for _ in range(1_000):
        g = rand_global(rng, rng.randint(4, 20), parts=("p", "q", "r", "s"))
        for p in sorted(participants(g)):
            want, _ = _assert_tirore_as_reference(g, p)
            outcomes[want.split(": ")[1][:12] if isinstance(want, str) else "defined"] += 1
    assert sum(outcomes.values()) >= 2_000
    assert len(outcomes) == 5 and min(outcomes.values()) >= 20, outcomes


def test_tirore_walk_equals_the_reference_on_fixtures():
    for src, kind, p, _ in ERROR_TEXTS:
        if kind == "tbc":
            want, _ = _assert_tirore_as_reference(parse("global", src), p)
            assert isinstance(want, str)
    for n in range(1, 31):
        g = gen_lowerbound_family("tirore_quadratic", n)
        want, pairs = _assert_tirore_as_reference(g, "p")
        # the initial pair, the first chain's n nodes in step with the
        # candidate's n, and the second chain's n + 1 against all n of them
        assert not isinstance(want, str) and pairs == 1 + n + n * (n + 1)


# Two loops that full merging meets out of phase, the participant, and its
# full projection: a branch that only one loop offers goes on in its own
# loop, not in the merged one; and a pair of loops met inside the merge of
# another pair gets a binder that does not capture the enclosing one.
OUT_OF_PHASE_LOOPS = [
    ("q->p{l1: rec v8201. p->r{l3: r->p{l4: end}},"
     " l4: rec v1014. p->r{l1: r->q{l2: v1014}}}", "r",
     "rec v8201. p&{l1: q+{l2: rec v1014. p&{l1: q+{l2: v1014}}}, l3: p+{l4: end}}"),
    ("p->q{l1: rec v5407. q->r{l1: end, l2: end},"
     " l4: rec v4481. q->r{l3: v4481, l4: end}}", "r",
     "rec v5407. q&{l1: end, l2: end, l3: rec v4481. q&{l3: v4481, l4: end}, l4: end}"),
    ("q->r{l1: rec X. q->p{a: X}, l2: rec Y. q->p{b: Y}}", "p",
     "rec X. q&{a: rec X. q&{a: X}, b: rec Y. q&{b: Y}}"),
    ("q->r{l1: rec x. q->p{a: x}, l2: rec y. q->p{a: rec z. q->p{a: y, b: end}}}", "p",
     "rec x. q&{a: rec x1. q&{a: x, b: end}}"),
]


@pytest.mark.parametrize("src, p, want", OUT_OF_PHASE_LOOPS)
def test_full_projection_of_out_of_phase_loops(src, p, want):
    g = parse("global", src)
    full = project_inductive(g, p, FULL)
    assert show(full) == want
    assert show(_project(g, p, merge_full_naive)) == want
    assert graph_equiv(full, project_subset(g, p))


@cache
def _two_loop_globals():
    """600 globals q->r{l1: rec x. q->p{…}, l2: rec y. q->p{…}}: each loop
    offers a random non-empty subset of four labels, whose branches go back
    to the loop or to end.  The full merge onto p meets the two loops out
    of phase, which balanced_globals almost never draws."""
    rng = random.Random(33)

    def loop(var):
        labels = rng.sample("abcd", rng.randint(1, 4))
        return GRec(var, GChoice("q", "p", branches(
            (l, rng.choice((GVar(var), GEnd()))) for l in labels)))

    return [GChoice("q", "r", (("l1", loop("x")), ("l2", loop("y")))) for _ in range(600)]


def test_subset_matches_inductive_full_on_lattice(rng):
    checked = {}
    for name, corpus in [("balanced", balanced_globals(rng, 300, 9)),
                         ("two loops", _two_loop_globals())]:
        checked[name] = 0
        for g in corpus:
            for p in sorted(participants(g)):
                try:
                    full = project_inductive(g, p, FULL)
                except ProjUndefined:
                    continue
                sub = project_subset(g, p)
                assert graph_equiv(full, sub), (show(g), p)
                assert graph_equiv(full, _project(g, p, merge_full_naive)), (show(g), p)
                checked[name] += 1
    assert checked["balanced"] >= 100 and checked["two loops"] >= 1400, checked


def test_plain_implies_full(rng):
    checked = 0
    for g in balanced_globals(rng, 300, 9):
        for p in sorted(participants(g)):
            try:
                plain = project_inductive(g, p, PLAIN)
            except ProjUndefined:
                continue
            full = project_inductive(g, p, FULL)
            assert graph_equiv(plain, full)
            checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# Association


def test_association_paper_example():
    g = parse("global", "p->q{l1: r->q{l2: end}, l4: r->q{l2: end}}")
    d5 = parse("context",
               "q: p&{l1: r&{l2: end, l3: end}, l4: r&{l2: end, l5: end}},"
               " p: q+{l1: end, l4: end}, r: q+{l2: end}")
    assert check_association(d5, g, PLAIN)
    assert check_association(d5, g, FULL)
    assert check_association(d5, g, "subset")


def test_association_exact_projections(rng):
    from mpstk.ast import typing_context

    count = 0
    for g in balanced_globals(rng, 100, 8):
        pts = sorted(participants(g))
        if not pts:
            continue
        try:
            ctx = typing_context((p, project_inductive(g, p, FULL)) for p in pts)
        except ProjUndefined:
            continue
        assert check_association(ctx, g, FULL)
        count += 1
    assert count >= 20


def test_association_rejects_incompatible_selection():
    g = parse("global", "p->q{l1: r->q{l2: end}, l4: r->q{l2: end}}")
    d_bad = parse("context",
                  "q: p&{l1: r&{l2: end, l3: end}, l4: r&{l2: end, l5: end}},"
                  " p: q+{l1: end, l4: end}, r: q+{l2: end, l9: end}")
    assert not check_association(d_bad, g, FULL)


def test_tbc_agrees_with_plain_where_plain_is_defined(rng):
    """plain => Tirore: where every plain projection exists, the candidate
    check gives an equivalent type, and association holds under "tbc"."""
    from mpstk.ast import typing_context

    checked = 0
    for g in balanced_globals(rng, 300, 9):
        pts = sorted(participants(g))
        try:
            plain = {p: project_inductive(g, p, PLAIN) for p in pts}
        except ProjUndefined:
            continue
        for p in pts:
            assert graph_equiv(project(g, p, "tbc"), plain[p])
        if pts:
            assert check_association(typing_context(plain.items()), g, "tbc")
            checked += 1
    assert checked >= 50


@cache
def _projected_contexts():
    """(G, kind, Δ_G) for 600 balanced globals and every kind whose
    projection is defined onto every participant: Δ_G = {p: G↾p}."""
    from mpstk.ast import typing_context

    out = []
    for g in balanced_globals(random.Random(11), 600, 10):
        pts = sorted(participants(g))
        for kind in KINDS if pts else ():
            try:
                proj = {p: project(g, p, kind) for p in pts}
            except ProjUndefined:
                continue
            out.append((g, kind, typing_context(
                (p, graph_to_type(t) if kind == "subset" else t) for p, t in proj.items())))
    return out


def test_projected_contexts_are_safe_df_and_live():
    """Contexts associated with a global type are safe, deadlock-free and
    live (Scalas & Yoshida, POPL 2019): Δ = {p: G↾p}, for every kind whose
    projection is defined onto every participant."""
    from mpstk.context import CHECKERS

    contexts = _projected_contexts()
    bad = [(show(g), kind, prop) for g, kind, ctx in contexts
           for prop, check in CHECKERS.items() if not check(ctx).holds]
    assert len(contexts) >= 1000
    assert not bad, f"{len(bad)} failed checks, first {bad[0]}"


def _global_steps(g, blocked=frozenset(), above=frozenset()) -> dict:
    """The oracle's LTS of a global type, {context.Label: residual}: the
    head's own steps, and a step under a prefix whose participants it does
    not share, taken in every branch (Deniélou & Yoshida, ICALP 2013).
    Only steps avoiding the participants `blocked` of the prefixes above are
    kept; `above` holds their heads, so a loop that never reaches a step
    ends the search down its branch."""
    h = unfold(g)
    if type(h) is GEnd or h in above:
        return {}
    pair = {h.frm, h.to}
    if type(h) is GMsg:
        kids, own = [h.cont], {Label("comm", h.frm, h.to): h.cont}
    else:
        kids = [b for _, b in h.branches]
        own = {Label("choice", h.frm, h.to, l): b for l, b in h.branches}
    if pair & blocked:
        own = {}
    below = [_global_steps(k, blocked | pair, above | {h}) for k in kids]
    for lab in set(below[0]).intersection(*below[1:]):
        res = [b[lab] for b in below]
        own[lab] = (GMsg(h.frm, h.to, h.payload, res[0]) if type(h) is GMsg else
                    GChoice(h.frm, h.to, tuple(zip([l for l, _ in h.branches], res))))
    return own


def _follows(g, ctx, depth: int = 10) -> str | None:
    """A bisimulation between G's LTS and Δ_G's, bounded by `depth` steps
    (G's residuals can grow without bound): None, or where they differ.
    Both LTSs are deterministic per label, so the pairs are walked breadth
    first, comparing their enabled labels; where G has ended, every
    participant must have ended too."""
    lts = ContextLTS(ctx)
    level = [(g, lts.init)]
    seen = set(level)
    for _ in range(depth + 1):
        nxt = []
        for g, s in level:
            gs, cs = _global_steps(g), dict(lts.sync_steps(s))
            if gs.keys() != cs.keys():
                return (f"{show(g)} takes {sorted(map(str, gs))},"
                        f" {lts.show_state(s)} {sorted(map(str, cs))}")
            if type(unfold(g)) is GEnd and not lts.all_end(s):
                return f"{show(g)} has ended, {lts.show_state(s)} has not"
            for lab, g2 in gs.items():
                if (g2, cs[lab]) not in seen:
                    seen.add((g2, cs[lab]))
                    nxt.append((g2, cs[lab]))
        level = nxt
    return None


def test_projected_contexts_follow_their_global_type():
    """Fidelity: Δ_G takes exactly the steps G takes, to depth 10, for every
    kind of projection (and the oracle's own LTS on a fixed G)."""
    g = parse("global", "rec t. p->q(int); r->s{a: t}")
    assert [str(l) for l in _global_steps(g)] in (["pq", "rs:a"], ["rs:a", "pq"])
    assert show(_global_steps(g)[Label("choice", "r", "s", "a")]) == f"p->q(int); {show(g)}"
    contexts = _projected_contexts()
    assert {kind for _, kind, _ in contexts} == set(KINDS)
    bad = [b for b in ((show(g), kind, _follows(g, ctx)) for g, kind, ctx in contexts) if b[2]]
    assert not bad, f"{len(bad)} contexts differ from G, first {bad[0]}"


def test_association_wrong_domain():
    g = parse("global", "p->q(int); end")
    ctx = parse("context", "p: q!(int); end")
    assert not check_association(ctx, g, FULL)


# ---------------------------------------------------------------------------
# Families


def test_family_fixtures():
    assert gen_lowerbound_family("plain_nlogn", 0) == GEnd()
    g1 = gen_lowerbound_family("plain_nlogn", 1)
    assert show(g1) == "p->q{l1: r->s{a: end, b: end}, l2: r->s{a: end, b: end}}"
    assert project_inductive(g1, "r", PLAIN) is not None
    g2 = gen_lowerbound_family("fullmerge_quadratic", 2)
    t = project_inductive(g2, "p", FULL)
    assert isinstance(t, TBra) and len(t.branches) == 3
    gt = gen_lowerbound_family("tirore_quadratic", 2)
    assert show(ptrans(gt, "p")) == "rec u. q!(int); q!(int); u"
    assert project_tirore(gt, "p")


def test_fullmerge_nlog2_family():
    g = gen_lowerbound_family("fullmerge_nlog2", 3)
    t = project_inductive(g, "r", FULL)
    assert isinstance(t, TBra) and len(t.branches) == 8


def test_plain_counter_grows(rng):
    c1, c2 = WorkCounter(), WorkCounter()
    project_inductive(gen_lowerbound_family("plain_nlogn", 4), "r", PLAIN, c1)
    project_inductive(gen_lowerbound_family("plain_nlogn", 8), "r", PLAIN, c2)
    # work grows like m * 2^m: quadrupling the depth far more than doubles it
    assert c2.ops > 8 * c1.ops


# ---------------------------------------------------------------------------
# Inductive projection over shared subterms


def _reference_project(g, p: str, merge):
    """_project as it folded the whole tree, with no memo, kept verbatim as
    the reference for the fold that projects each distinct subterm once."""
    from mpstk.ast import Done, TIn, TOut, Visit

    def enter(g, env):
        if type(g) is GRec and p not in participants(g.body) and is_closed(g):
            return Done(TEnd())
        if type(g) is GChoice and merge is None and p not in (g.frm, g.to):
            return Visit((g.branches[0][1],), env)
        return env

    def leave(g, kids, env):
        if type(g) is GEnd:
            return TEnd()
        if type(g) is GVar:
            return TVar(g.var)
        if type(g) is GMsg:
            if p == g.frm:
                return TOut(g.to, g.payload, kids[0])
            if p == g.to:
                return TIn(g.frm, g.payload, kids[0])
            return kids[0]
        if type(g) is GChoice:
            if p == g.frm:
                return TSel(g.to, tuple(zip([l for l, _ in g.branches], kids)))
            if p == g.to:
                return TBra(g.frm, tuple(zip([l for l, _ in g.branches], kids)))
            acc = kids[0]
            for t in kids[1:]:
                try:
                    acc = merge(acc, t)
                except SessionTypeError as e:
                    raise ProjUndefined(p, str(e), show(g))
            return acc
        if type(g) is GRec:
            return TRec(g.var, kids[0])
        raise TypeError(f"project: {g!r}")

    return fold(g, leave, enter)


def _shared_globals(rng, count: int, most: int = 100):
    """`count` random globals over four participants, each made of a head
    whose continuations are drawn from the globals made before it, so that
    subterms are shared; none has more than `most` nodes as a tree.  A
    choice gives all its branches one continuation now and then, so plain
    merges succeed.  Half the time, each free variable is bound by a
    recursion around the whole global, which may leave it unguarded."""
    from conftest import LABELS, SORTS

    pool, sizes = [GEnd(), GVar("t"), GVar("u")], {}
    while len(pool) < count + 3:
        frm, to = rng.sample(["p", "q", "r", "s"], 2)
        kind = rng.choice(["msg", "choice", "choice", "rec"])
        if kind == "msg":
            g = GMsg(frm, to, rng.choice(SORTS), rng.choice(pool))
        elif kind == "rec":
            g = GRec(rng.choice("tu"), rng.choice(pool))
        else:
            labels = rng.sample(LABELS, rng.randint(1, 3))
            same = rng.choice(pool) if rng.random() < 0.4 else None
            g = GChoice(frm, to, branches((l, same or rng.choice(pool)) for l in labels))
        for v in sorted(free_vars(g)) if rng.random() < 0.5 else ():
            g = GRec(v, g)
        if size(g, sizes) <= most:
            pool.append(g)
    return pool[3:]


def _outcome(run):
    """What `run()` returns, or the text of its ProjUndefined."""
    try:
        return run()
    except ProjUndefined as e:
        return str(e)


def _projections(g, p):
    """The outcomes of the four inductive projections of `g` onto `p` that
    fold with `_project`: plain and full with their counters' ops (also
    where undefined), ptrans, and the naive merge's count."""
    from mpstk import bench

    def counted(kind):
        c = WorkCounter()
        return _outcome(lambda: project_inductive(g, p, kind, c)), c.ops

    return (counted(PLAIN), counted(FULL), _outcome(lambda: ptrans(g, p)),
            _outcome(lambda: bench._naive_merge_ops(g, p)))


def test_projection_equals_the_whole_tree_fold_on_shared_subterms(rng, monkeypatch):
    """2,000 globals that share subterms, onto each of their participants:
    the same node or ProjUndefined text, and the same ops, as the fold of
    the whole tree."""
    from mpstk import bench, projection

    def reference(g, p, merge, counter=None):
        return _reference_project(g, p, merge)

    seen = Counter()
    for g in _shared_globals(rng, 2_000):
        for p in sorted(participants(g)):
            got = _projections(g, p)
            with monkeypatch.context() as m:
                m.setattr(projection, "_project", reference)
                m.setattr(bench, "_project", reference)
                want = _projections(g, p)
            # hash-consed nodes compare by identity, so == is `is` on them
            assert got == want, (show(g), p)
            for out, ops in got[:2]:
                seen["undefined" if isinstance(out, str) else "defined"] += 1
                seen["ticked"] += ops > 0
    assert min(seen.values()) >= 1_000, seen


def _merge_calls(project, n: int) -> int:
    """How many times `project` calls the plain merge onto r of
    plain_nlogn(n)."""
    calls = 0

    def merge(a, b):
        nonlocal calls
        calls += 1
        return merge_plain(a, b)

    project(gen_lowerbound_family("plain_nlogn", n), "r", merge)
    return calls


@pytest.mark.parametrize("n", [1, 4, 6])
def test_plain_nlogn_merges_once_per_distinct_choice(n):
    assert _merge_calls(_project, n) == n
    assert _merge_calls(_reference_project, n) == (4 ** n - 1) // 3
