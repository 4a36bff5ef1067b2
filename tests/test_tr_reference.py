"""tr(C) against the fixpoint loop it replaced, kept here as the reference.

`reference_tr` is the earlier `eliminate_transitive`, verbatim: it renames
one lone link per pass over the whole list and copies every head below a
joined variable onto it, duplicates included.  tr(C) renames the same
links in one pass and keeps the joined links, which the minimum-graph
builder reads where a state needs them; it must give a set, the same root,
and so the same minimum graph, sort-solved graph and failure, on the
golden corpus, on random processes, on processes with a conditional
directly under `rec`, and on an n-way selection, where the reference is
quadratic.  `rand_process` wraps such a body in a send, so none of its
draws has a renaming that turns a link into x <= x and so frees another
variable to rename; `rec_over_cond` draws them.
"""

import random

from conftest import rand_process
from test_golden_inference import _graph, _processes

from mpstk.ast import ENat, ETrue, PBra, PCond, PInact, PRec, PSend, PSel, PVar, SortVar
from mpstk.inference import (
    CHead, CSortEq, CVarLe, MinGraphBuilder, Untypable, apply_sort_subst,
    derive_constraints, eliminate_transitive, infer, solve_sorts,
)
from mpstk.typegraph import ENDK, OUT

# ---------------------------------------------------------------------------
# Reference: the earlier fixpoint loop, verbatim


def _subst_var(c, old: str, new: str):
    r = new if c.rhs == old else c.rhs
    if type(c) is CVarLe:
        return CVarLe(new if c.lhs == old else c.lhs, r)
    return CHead(c.kind, c.peer, c.payload,
                 tuple((l, new if v == old else v) for l, v in c.succ), r)


def reference_tr(constraints: list, root: str) -> tuple[list, str]:
    """Remove every variable-to-variable constraint xi <= psi.

    When the link is the only constraint defining psi, psi is renamed to xi
    (the paper's substitution).  A variable with several incoming links (a
    conditional joining two behaviours) must keep the link sources apart:
    renaming would merge two independently defined variables and lose the
    relative phase of their recursions, so such links are resolved by
    transitivity instead, copying the sources' structural definitions onto
    the target.
    """
    work = list(constraints)
    while True:
        work = [c for c in work if not (isinstance(c, CVarLe) and c.lhs == c.rhs)]
        links = [c for c in work if isinstance(c, CVarLe)]
        if not links:
            return work, root
        incoming: dict[str, int] = {}
        for c in work:
            if not isinstance(c, CSortEq):
                incoming[c.rhs] = incoming.get(c.rhs, 0) + 1
        single = next((c for c in links if incoming[c.rhs] == 1), None)
        if single is not None:
            old, new = single.rhs, single.lhs
            work = [
                _subst_var(k, old, new)
                for k in work
                if k is not single and not isinstance(k, CSortEq)
            ] + [k for k in work if isinstance(k, CSortEq)]
            if root == old:
                root = new
            continue
        # only multi-in links remain: copy transitive structural definitions
        preds: dict[str, set[str]] = {}
        for c in links:
            preds.setdefault(c.rhs, set()).add(c.lhs)
        structural: dict[str, list] = {}
        for c in work:
            if type(c) is CHead:
                structural.setdefault(c.rhs, []).append(c)

        copies = []
        for tgt, direct in preds.items():
            stack = sorted(direct)
            seen = set(stack) | {tgt}
            while stack:
                u = stack.pop()
                copies.extend(CHead(c.kind, c.peer, c.payload, c.succ, tgt)
                              for c in structural.get(u, ()))
                for w in sorted(preds.get(u, ())):  # links form a DAG by freshness
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        work = [c for c in work if not isinstance(c, CVarLe)] + copies



# ---------------------------------------------------------------------------


def rec_over_cond(rng: random.Random, fuel: int, rec_vars=()):
    """A random process in which every `rec` binds a conditional, whose arms
    may be the recursion variable itself."""
    if fuel <= 1 or rng.random() < 0.15:
        if rec_vars and rng.random() < 0.6:
            return PVar(rng.choice(rec_vars))
        return PInact()
    kind = rng.choice(["rec", "rec", "cond", "send", "sel", "bra"])
    if kind in ("rec", "cond"):
        if kind == "rec":
            rec_vars = rec_vars + (f"X{len(rec_vars)}",)
        body = PCond(ETrue(), rec_over_cond(rng, fuel // 2, rec_vars),
                     rec_over_cond(rng, fuel // 2, rec_vars))
        return PRec(rec_vars[-1], body) if kind == "rec" else body
    peer = rng.choice("pq")
    if kind == "send":
        return PSend(peer, ENat(1), rec_over_cond(rng, fuel - 1, rec_vars))
    if kind == "sel":
        return PSel(peer, rng.choice("ab"), rec_over_cond(rng, fuel - 1, rec_vars))
    labels = sorted(rng.sample("abc", rng.randint(1, 3)))
    return PBra(peer, tuple((l, rec_over_cond(rng, fuel - 1, rec_vars)) for l in labels))


def _answers(tr, root):
    try:
        mg = MinGraphBuilder(tr).build(frozenset([root]))
        graph = apply_sort_subst(mg.graph, solve_sorts(mg.sort_eqs))
    except Untypable as e:
        return str(e), e.node
    return _graph(mg.graph), mg.graph.desc, set(mg.sort_eqs), _graph(graph)


def _check(p, seen):
    """Compare one process; count in `seen` what its tr(C) exercised."""
    try:
        d = derive_constraints(p)
    except Untypable:
        return
    want, want_root = reference_tr(d.constraints, d.root)
    got, root = eliminate_transitive(d.constraints, d.root)
    assert len(set(got)) == len(got)
    assert root == want_root
    assert _answers(got, root) == _answers(want, want_root)
    r = infer(p)
    assert r.tr_constraints == got
    failure = None if r.error is None else (str(r.error), r.error.node)
    assert failure == (None if r.typable else _answers(want, want_root))
    seen["typable"] += r.typable
    seen["duplicates"] += len(want) > len(set(want))
    # a joined variable (two links in) that tr renames away or leaves
    # undefined: a renaming turned one of its links into x <= x
    joined = {c.rhs for c in d.constraints if type(c) is CVarLe}
    joined = {v for v in joined if sum(type(c) is CVarLe and c.rhs == v for c in d.constraints) > 1}
    seen["freed"] += bool(joined - {c.rhs for c in got if type(c) is not CSortEq})


def _seen(processes):
    seen = dict.fromkeys(["typable", "duplicates", "freed"], 0)
    for p in processes:
        _check(p, seen)
    return seen


def test_tr_matches_the_reference_on_the_golden_corpus():
    # 190 of the corpus's processes get duplicates from the reference
    assert _seen(_processes()) == {"typable": 852, "duplicates": 190, "freed": 0}


def test_tr_matches_the_reference_on_random_processes():
    rng = random.Random(31)
    seen = _seen(rand_process(rng, rng.randint(2, 10)) for _ in range(4000))
    assert seen["typable"] > 1000 and seen["duplicates"] > 500


def test_tr_matches_the_reference_with_a_conditional_under_rec():
    rng = random.Random(32)
    seen = _seen(rec_over_cond(rng, rng.randint(2, 12)) for _ in range(4000))
    assert seen["typable"] > 1000 and seen["duplicates"] > 500 and seen["freed"] > 1000


def test_tr_of_any_set_is_a_set():
    """Two heads of one variable that a renaming makes equal are one."""
    s = SortVar("s1")
    cs = [CHead(OUT, "p", s, ((None, "a"),), "v"), CHead(OUT, "p", s, ((None, "b"),), "v"),
          CHead(ENDK, None, None, (), "a"), CVarLe("a", "b")]
    want, root = reference_tr(cs, "v")
    assert len(want) == 3 and len(set(want)) == 2
    assert eliminate_transitive(cs, "v") == (list(dict.fromkeys(want)), root)


def test_tr_of_a_selection_of_nested_conditionals_keeps_its_size():
    """`if true then q(+)l0; 0 else if true then … q(+)l1999; 0`: the
    reference copies every head below each conditional onto it, 2,006,998
    constraints; tr(C) keeps the derivation's 9,997."""
    p = PSel("q", "l1999", PInact())
    for i in reversed(range(1999)):
        p = PCond(ETrue(), PSel("q", f"l{i}", PInact()), p)
    d = derive_constraints(p)
    got, root = eliminate_transitive(d.constraints, d.root)
    assert len(got) == len(d.constraints) == 9997
    want, want_root = reference_tr(d.constraints, d.root)
    assert len(want) == 2006998 and root == want_root
    assert _answers(got, root) == _answers(want, want_root)
