"""End-point projections of global types.

Four algorithms:

* inductive projection with plain merging (branches must be equal),
* inductive projection with full merging (external choices are unioned);
  where the merge meets two branchings it makes each an MBra, a branch
  map kept in a balanced search tree, so the smaller operand is always
  inserted into the larger one, and `of_tree` makes the result a local
  type again,
* the candidate-projection check in the style of Tirore et al.: compute
  ptrans (inductive projection whose merge keeps the left operand), then
  verify it against the global type over the product graph,
* the subset construction: a determinised local type graph whose states are
  p-closures of sets of global subformulas, for balanced global types;
  defined wherever full merging is (with an equivalent graph), undefined
  where p has ended in some members of a state and must act in others.

The Tirore check and the subset construction read what p does at each node
of the global type graph from one table, `_views(gg, p)`, built once per
call: None where the head does not involve p, else p's kind, peer and arcs.

The three inductive projections, and the naive-merge oracle of the bench
harness, are one fold, `_project`, which differs between them only in
the merge it folds the branches of a choice with when p takes no part in
that choice.  Global types are hash-consed and share subterms, so the
fold projects each distinct subterm once per call.  At each further
occurrence it replays the ticks the subterm's merges added to the work
counter, so the counters still count each merge per tree occurrence.

`project(g, p, kind)` runs the algorithm named by `kind`, one of KINDS.
`project_inductive`/`project_tirore` raise ProjUndefined when the
projection does not exist; `project_subset` additionally raises NotBalanced
when its precondition fails.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple

from .ast import (
    BudgetExceeded, GChoice, GEnd, GMsg, GRec, GVar, GlobalT,
    LocalT, SessionTypeError, Sort,
    TBra, TEnd, TIn, TOut, TRec, TSel, TVar, TypingContext,
    Done, Visit, alpha_canon, branches, check_guarded, fold, free_vars, is_closed, participants,
    rebuild, size, unfold1,
)
from .printer import show, show_local
from .subtyping import subtype_sim
from .typegraph import (
    Action, BRA, END_ACT, ENDK, IN, OUT, SEL, TypeGraph,
    _balanced, explore, global_graph, local_graph, reaching,
)

PLAIN, FULL = "plain", "full"
KINDS = (PLAIN, FULL, "tbc", "subset")


class ProjUndefined(SessionTypeError):
    def __init__(self, participant, reason, where=None):
        loc = f" at {where}" if where else ""
        super().__init__(f"projection onto {participant} undefined: {reason}{loc}")
        self.participant = participant
        self.reason = reason
        self.where = where


class NotBalanced(SessionTypeError):
    pass


class WorkCounter:
    __slots__ = ("ops",)

    def __init__(self):
        self.ops = 0

    def tick(self, n: int = 1):
        self.ops += n


# ---------------------------------------------------------------------------
# Plain merge


def merge_plain(t1: LocalT, t2: LocalT, counter: WorkCounter | None = None,
                sizes: dict | None = None) -> LocalT:
    """T |_| T = T; operands must be equal up to alpha-renaming.  The
    counter ticks by the smaller operand's size, read from `sizes`, a size
    table that lives for one projection (project_inductive makes one per
    call), so the subterms its merges share are sized once."""
    if counter is not None:
        counter.tick(min(size(t1, sizes), size(t2, sizes)))
    if alpha_canon(t1) is not alpha_canon(t2):
        raise _merge_fail(t1, t2, "plain merge requires equal branches")
    return t1


def _merge_fail(t1, t2, why):
    return SessionTypeError(f"{why}: {show_local(t1)}  vs  {show_local(t2)}")


# ---------------------------------------------------------------------------
# Full merge of two recursions, shared by both merges


def _enter_recs(r1: LocalT, r2: LocalT, scope: dict):
    """A merge's pre hook on two recursions, plain local types r1 and r2.

    `scope` maps each pair of recursions being merged, in either order (the
    optimised merge may swap operands), to its merged binder, so a pair met
    again inside its own merge is that binder's variable.  Otherwise the
    merge goes on with the unfoldings of r1 and r2 under a new binder, and
    a branch that only one side has keeps that side's own closed recursion.
    The binder is named after r1's, with the least number appended that
    keeps it from capturing a free variable of r1 or r2 or an enclosing
    merged binder.  The pair's key is the env of the merge's post hook,
    which pops the binder from `scope`."""
    key = frozenset((r1, r2))
    name = scope.get(key)
    if name is not None:
        return Done(TVar(name))
    taken = free_vars(r1) | free_vars(r2) | set(scope.values())
    name, k = r1.var, 0
    while name in taken:
        k += 1
        name = f"{r1.var}{k}"
    scope[key] = name
    return Visit(((unfold1(r1), unfold1(r2)),), key)


# ---------------------------------------------------------------------------
# Full merge, naive, on plain ASTs


def merge_full_naive(t1: LocalT, t2: LocalT) -> LocalT:
    """Inductive full merge: identical prefixes merge pointwise, selections
    need identical label sets, branchings take the union of their labels.
    Two recursions merge by their unfoldings (`_enter_recs`).  One fold
    over pairs of subterms, merged in depth-first order."""
    scope: dict = {}

    def enter(pair, env):
        t1, t2 = pair
        if type(t1) is TEnd and type(t2) is TEnd:
            return Done(t1)
        if type(t1) is TVar and type(t2) is TVar and t1.var == t2.var:
            return Done(t1)
        if (
            type(t1) in (TIn, TOut)
            and type(t1) is type(t2)
            and t1.peer == t2.peer
            and t1.payload == t2.payload
        ):
            return Visit(((t1.cont, t2.cont),), env)
        if type(t1) is TSel and type(t2) is TSel and t1.peer == t2.peer:
            if [l for l, _ in t1.branches] != [l for l, _ in t2.branches]:
                raise _merge_fail(t1, t2, "selection merge needs equal label sets")
            return Visit(tuple(zip([b for _, b in t1.branches], [b for _, b in t2.branches])), env)
        if type(t1) is TBra and type(t2) is TBra and t1.peer == t2.peer:
            b1, b2 = dict(t1.branches), dict(t2.branches)
            return Visit(tuple((b1[l], b2[l]) for l in sorted(set(b1) & set(b2))), env)
        if type(t1) is TRec and type(t2) is TRec:
            return _enter_recs(t1, t2, scope)
        raise _merge_fail(t1, t2, "incompatible heads in full merge")

    def leave(pair, kids, env):
        t1, t2 = pair
        if type(t1) in (TIn, TOut):
            return type(t1)(t1.peer, t1.payload, kids[0])
        if type(t1) is TSel:
            return TSel(t1.peer, tuple(zip([l for l, _ in t1.branches], kids)))
        if type(t1) is TBra:
            b1, b2 = dict(t1.branches), dict(t2.branches)
            merged = dict(zip(sorted(set(b1) & set(b2)), kids))
            return TBra(t1.peer, branches({**b2, **b1, **merged}.items()))
        return TRec(scope.pop(env), kids[0])

    return fold((t1, t2), leave, enter)


# ---------------------------------------------------------------------------
# Full merge, optimised: branchings as balanced trees (treaps keyed by the
# fixed label order), merged small-to-large.


class _Treap:
    """A treap node; `size` counts its subtree's nodes.  Slotted, as a merge
    builds one per tree op and a slotted class builds fastest."""

    __slots__ = ("key", "prio", "value", "left", "right", "size")

    def __init__(self, key, prio, value, left, right):
        self.key, self.prio, self.value, self.left, self.right = key, prio, value, left, right
        self.size = 1 + (0 if left is None else left.size) + (0 if right is None else right.size)


def _prio(label: str) -> int:
    return zlib.crc32(label.encode())


def treap_insert(n, key, value, combine, counter=None):
    """Insert or combine; O(log n) expected, counted as one tree op per
    visited node.  Walks the search path down, then builds a fresh _Treap
    per node on it upward, with the rotations, and shares the rest: a
    degenerate treap is slow but never deep."""
    path = []
    while n is not None and key != n.key:
        path.append(n)
        n = n.left if key < n.key else n.right
    if counter is not None:
        counter.tick(len(path) + 1)
    child = (_Treap(key, _prio(key), value, None, None) if n is None
             else _Treap(n.key, n.prio, combine(n.value, value), n.left, n.right))
    for n in reversed(path):
        if key < n.key:
            if child.prio > n.prio:
                child = _Treap(child.key, child.prio, child.value, child.left,
                               _Treap(n.key, n.prio, n.value, child.right, n.right))
            else:
                child = _Treap(n.key, n.prio, n.value, child, n.right)
        elif child.prio > n.prio:
            child = _Treap(child.key, child.prio, child.value,
                           _Treap(n.key, n.prio, n.value, n.left, child.left), child.right)
        else:
            child = _Treap(n.key, n.prio, n.value, n.left, child)
    return child


def treap_items(n) -> list:
    """The (key, value) pairs in key order, by an explicit stack: a
    degenerate treap is slow but never deep."""
    out, stack = [], []
    while stack or n is not None:
        while n is not None:
            stack.append(n)
            n = n.left
        n = stack.pop()
        out.append((n.key, n.value))
        n = n.right
    return out


def treap_get(n, key):
    """The value at `key`, or None."""
    while n is not None and n.key != key:
        n = n.left if key < n.key else n.right
    return None if n is None else n.value


class MBra(NamedTuple):
    """A branching whose branch map is a treap, label -> local type; the
    full merge's working form of a branching, which `of_tree` makes a TBra
    again.  A treap node hashes and compares by identity, so an interned
    node can hold an MBra without walking its treap."""

    peer: str
    tree: object


def _mbra(m) -> MBra:
    """Branching m as an MBra: a TBra's branches are inserted in label
    order, uncounted (its labels are distinct, so none is combined)."""
    if type(m) is MBra:
        return m
    tree = None
    for l, b in m.branches:
        tree = treap_insert(tree, l, b, None)
    return MBra(m.peer, tree)


_BRANCHINGS = (TBra, MBra)


def _tree_kids(m, env):
    """The fold's pre hook: an MBra's children are its treap's values."""
    if type(m) is MBra:
        return Visit(tuple(b for _, b in treap_items(m.tree)), env)
    return env


def _of_tree(m, kids, env):
    if type(m) is MBra:
        return TBra(m.peer, tuple(zip([l for l, _ in treap_items(m.tree)], kids)))
    return rebuild(m, kids)


def of_tree(m) -> LocalT:
    """The local type of a merge result: each MBra a TBra again."""
    return fold(m, _of_tree, _tree_kids)


def merge_full_opt(m1, m2, counter: WorkCounter | None = None):
    """Optimised full merge of two local types, plain or results of this
    merge; the smaller branch map is inserted into the larger one so each
    branch moves O(log n) times overall.  One fold over pairs of types,
    merged in depth-first order; on a branching, both operands become MBra
    (`_mbra`), the labels the two share are merged first, then the smaller
    map is inserted.  Two recursions merge by their unfoldings
    (`_enter_recs`), taken of their plain forms, as `subst` and
    `free_vars` do not look inside an MBra.  A result's branchings are
    MBra where two met, and `of_tree` makes it a local type."""
    scope: dict = {}

    def enter(pair, env):
        m1, m2 = pair
        if counter is not None:
            counter.tick()
        if type(m1) in (TEnd, TVar) and m1 is m2:
            return Done(m1)
        if (
            type(m1) in (TIn, TOut)
            and type(m1) is type(m2)
            and (m1.peer, m1.payload) == (m2.peer, m2.payload)
        ):
            return Visit(((m1.cont, m2.cont),), env)
        if type(m1) is TSel and type(m2) is TSel and m1.peer == m2.peer:
            if [l for l, _ in m1.branches] != [l for l, _ in m2.branches]:
                raise SessionTypeError("selection merge needs equal label sets")
            return Visit(tuple(zip([b for _, b in m1.branches], [b for _, b in m2.branches])), env)
        if type(m1) in _BRANCHINGS and type(m2) in _BRANCHINGS and m1.peer == m2.peer:
            m1, m2 = _mbra(m1), _mbra(m2)
            # a branching has a branch, so neither treap is empty
            big, small = (m1, m2) if m1.tree.size >= m2.tree.size else (m2, m1)
            # merging is symmetric on shared labels, so operand order is free
            items = treap_items(small.tree)
            shared = [(treap_get(big.tree, l), b) for l, b in items]
            return Visit(tuple(p for p in shared if p[0] is not None), (big.tree, items))
        if type(m1) is TRec and type(m2) is TRec:
            return _enter_recs(of_tree(m1), of_tree(m2), scope)
        raise SessionTypeError("incompatible heads in full merge")

    def leave(pair, kids, env):
        m1 = pair[0]
        if type(m1) in _BRANCHINGS:
            tree, items = env
            merged = iter(kids)  # taken by the insertions that find their label
            for l, b in items:
                tree = treap_insert(tree, l, b, lambda old, new: next(merged), counter)
            return MBra(m1.peer, tree)
        if type(m1) is TRec:
            return TRec(scope.pop(env), kids[0])
        return rebuild(m1, kids)

    return fold((m1, m2), leave, enter)


def merge_full_optimized(t1: LocalT, t2: LocalT, counter: WorkCounter | None = None) -> LocalT:
    """Convenience wrapper on plain ASTs; equals merge_full_naive."""
    return of_tree(merge_full_opt(t1, t2, counter))


# ---------------------------------------------------------------------------
# Inductive projection: one fold, parameterised by the merge of the
# branches p takes no part in.


def _project(g: GlobalT, p: str, merge, counter: WorkCounter | None = None):
    """Project `g` onto `p`.

    Where p takes no part in a choice, the projections of all its branches
    are computed, then folded left to right with the binary `merge`; a
    failing merge raises ProjUndefined.  `merge=None` keeps the first
    branch without projecting the others, so shared subterms of the
    dropped branches cost nothing.

    Each distinct subterm is projected once per call: a node's projection
    depends only on the node, p and the merge, so `memo` keeps, for one
    call, each node's result and the ticks its subtree's merges added to
    `counter`, the counter `merge` ticks, if any.  A node met again
    replays its ticks, so `counter` counts each merge per tree occurrence,
    as a fold of the whole tree would.  A failing merge raises before its
    node is stored, so the first undefined merge in depth-first order is
    the one reported.  The closed-recursion shortcut reads `pts`, a
    participants table that lives for the call too.
    """
    memo: dict = {}  # node -> (its projection, the ticks of its subtree)
    pts: dict = {}  # node -> its participants, for the closed-recursion shortcut

    def enter(g, env):
        hit = memo.get(g)
        if hit is not None:
            if counter is not None:
                counter.tick(hit[1])
            return Done(hit[0])
        if type(g) is GRec and p not in participants(g.body, pts) and is_closed(g):
            memo[g] = (TEnd(), 0)
            return Done(TEnd())
        ops = 0 if counter is None else counter.ops  # the env: ticks so far
        if type(g) is GChoice and merge is None and p not in (g.frm, g.to):
            return Visit((g.branches[0][1],), ops)
        return ops

    def leave(g, kids, env):
        if type(g) is GEnd:
            out = TEnd()
        elif type(g) is GVar:
            out = TVar(g.var)
        elif type(g) is GMsg:
            if p == g.frm:
                out = TOut(g.to, g.payload, kids[0])
            elif p == g.to:
                out = TIn(g.frm, g.payload, kids[0])
            else:
                out = kids[0]
        elif type(g) is GChoice:
            if p == g.frm:
                out = TSel(g.to, tuple(zip([l for l, _ in g.branches], kids)))
            elif p == g.to:
                out = TBra(g.frm, tuple(zip([l for l, _ in g.branches], kids)))
            else:
                out = kids[0]
                for t in kids[1:]:
                    try:
                        out = merge(out, t)
                    except SessionTypeError as e:
                        raise ProjUndefined(p, str(e), show(g))
        elif type(g) is GRec:
            out = TRec(g.var, kids[0])
        else:
            raise TypeError(f"project: {g!r}")
        memo[g] = (out, 0 if counter is None else counter.ops - env)
        return out

    return fold(g, leave, enter)


def project_inductive(
    g: GlobalT, p: str, kind: str = FULL, counter: WorkCounter | None = None
) -> LocalT:
    """Inductive projection of `g` onto `p` with plain or full merging."""
    if kind == PLAIN:
        sizes: dict = {}
        out = _project(g, p, lambda a, b: merge_plain(a, b, counter, sizes), counter)
    elif kind == FULL:
        out = of_tree(_project(g, p, lambda a, b: merge_full_opt(a, b, counter), counter))
    else:
        raise ValueError(f"unknown merge kind {kind!r}")
    try:
        check_guarded(out)
    except SessionTypeError as e:
        raise ProjUndefined(p, f"projection is unguarded ({e})", show(g))
    return out


# ---------------------------------------------------------------------------
# Tirore-style candidate projection


def ptrans(g: GlobalT, p: str) -> LocalT:
    """Candidate projection: inductive projection whose merge keeps the left
    operand.  Always total; the result may be unguarded, which the check
    below rejects."""
    return _project(g, p, None)


def _views(gg, p: str) -> list:
    """What p does at each node of the global graph `gg`: None where the
    node's head does not involve p, else (kind, peer, arcs) with kind one of
    IN, OUT, SEL, BRA, peer p's partner, and arcs the (payload or label,
    successor node) pairs in the head's order."""
    out = [None] * gg.node_count()
    for u, h in enumerate(gg.heads):
        if gg.acts(u, p):
            sends = p == h.frm
            kind = (OUT if sends else IN) if type(h) is GMsg else (SEL if sends else BRA)
            out[u] = (kind, h.to if sends else h.frm, tuple(gg.arcs(u)))
    return out


def project_tirore(g: GlobalT, p: str, budget: int = 1_000_000) -> LocalT:
    """ptrans followed by the product-graph check: every reachable pair of a
    global node and the candidate's local node must agree on its head.

    Per node (G', T'): if p occurs nowhere in G', T' must be end; if the
    head of G' involves p, the head of T' must match it exactly (same
    direction, peer, payload, and identical label sets); otherwise T' waits
    while G' branches.  Passing the check at every node is precisely the
    coinductive projection with plain merging of the candidate.  More than
    `budget` pairs raise BudgetExceeded.  The walk codes the pair of global
    node u and local node v as the int u * nv + v, nv the local node count.
    """
    cand = ptrans(g, p)
    try:
        check_guarded(cand)
    except SessionTypeError:
        raise ProjUndefined(p, "candidate does not unravel (unguarded)", show(g))
    gg = global_graph(g)
    lg = local_graph(cand)
    views = _views(gg, p)
    live = reaching(gg, p)  # nodes where p still takes part
    # the action p's candidate must take at each message node
    wants = [Action(w[0], w[1], w[2][0][0]) if w and w[0] in (IN, OUT) else None for w in views]
    edges, nv = lg.edges, len(lg.edges)

    start = gg.init * nv + lg.init
    seen = {start}
    stack = [start]
    while stack:
        u, v = divmod(stack.pop(), nv)
        if u not in live:
            if lg.kind(v) != ENDK:
                raise ProjUndefined(p, "participant absent but local type is not end",
                                    show(gg.nodes[u]))
            continue
        if views[u] is None:  # the candidate waits on every branch
            pairs = [u2 * nv + v for u2 in gg.succ[u]]
        elif wants[u]:  # the candidate must take the same action
            want = wants[u]
            for a, v2 in edges[v]:
                if a == want:
                    break
            else:
                raise ProjUndefined(p, f"head mismatch, wanted {want}", show(gg.nodes[u]))
            pairs = (views[u][2][0][1] * nv + v2,)
        else:  # the candidate must offer the same labels
            kind, peer, arcs = views[u]
            want = [l for l, _ in arcs]
            got = [a.arg for a, _ in edges[v] if a.kind == kind and a.peer == peer]
            if lg.kind(v) != kind or got != want:
                raise ProjUndefined(p, f"label sets differ ({want} vs {got})", show(gg.nodes[u]))
            # the local edges are then the global arcs, label by label
            pairs = [u2 * nv + v2 for (_, u2), (_, v2) in zip(arcs, edges[v])]
        for pair in pairs:
            if pair not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded(f"more than {budget} product nodes")
                seen.add(pair)
                stack.append(pair)
    return cand


# ---------------------------------------------------------------------------
# Subset construction


def p_closure(gg, ids: frozenset[int], views: list) -> frozenset[int]:
    """gcl_p: close a set of global-graph nodes under continuations of heads
    that do not involve p, read off p's table `views` (see `_views`)."""
    out = set(ids)
    stack = list(ids)
    while stack:
        u = stack.pop()
        if views[u] is not None:
            continue
        for v in gg.succ[u]:
            if v not in out:
                out.add(v)
                stack.append(v)
    return frozenset(out)


def project_subset(g: GlobalT, p: str, budget: int = 1_000_000) -> TypeGraph:
    """Subset construction: the determinised local view of `g` from `p`.

    States are p-closures; on each state the heads of all p-involving
    members must agree (same direction and peer; equal payload for values,
    identical label sets for selections, unioned label sets for
    branchings).  Undefined when some state mixes incompatible heads, or
    mixes members where p must act with members from which p never acts
    again (outside `reaching(gg, p)`).  Any other state has one kind and
    peer, and labels from one GChoice or a sorted union: a well-formed graph.
    A participant that does not occur in `g` gets the one-node end graph.
    More than `budget` graph nodes, Skip included, raise BudgetExceeded.
    """
    gg = global_graph(g)
    pts = participants(g)
    reach = _balanced(gg, pts)
    if reach is None:
        raise NotBalanced(f"global type is not balanced: {show(g)}")
    views = _views(gg, p)
    live = reach.get(p, set())  # nodes where p still takes part

    def describe(s: frozenset[int]) -> str:  # " | " occurs in no global type
        return "{" + " | ".join(show(gg.nodes[u]) for u in sorted(s)) + "}"

    def expand(n: int, s: frozenset[int]):
        inv = [views[u] for u in s if views[u] is not None]
        if not inv:
            yield END_ACT, None
            return
        kinds = {k for k, _, _ in inv}
        peers = {peer for _, peer, _ in inv}
        args = {tuple(a for a, _ in arcs) for _, _, arcs in inv}
        what = "message" if kinds <= {IN, OUT} else "choice" if kinds <= {SEL, BRA} else None
        if what is None:
            raise ProjUndefined(p, "mixed communication heads", describe(s))
        if len(kinds) != 1 or len(peers) != 1 or (what == "message" and len(args) != 1):
            raise ProjUndefined(p, f"mixed {what} heads", describe(s))
        kind, peer = kinds.pop(), peers.pop()
        # merging never widens a selection's label set; branchings take the union
        if kind == SEL and len(args) != 1:
            raise ProjUndefined(p, "selection label sets differ", describe(s))
        if not s <= live:  # p has ended in some members and must act in others
            raise ProjUndefined(p, "mixed end and communication heads", describe(s))
        per_arg: dict = {}
        for _, _, arcs in inv:
            for a, u in arcs:
                per_arg.setdefault(a, set()).add(u)
        for a in sorted(per_arg) if kind == BRA else args.pop():
            yield Action(kind, peer, a), p_closure(gg, frozenset(per_arg[a]), views)

    init, edges, states, skip = explore(p_closure(gg, frozenset([gg.init]), views), expand,
                                        budget=budget)
    return TypeGraph(init, edges, skip, states)


# ---------------------------------------------------------------------------
# One front door, and association


def project(g: GlobalT, p: str, kind: str = FULL, budget: int = 1_000_000):
    """The projection of `g` onto `p` by the algorithm `kind`, one of KINDS:
    a local type, or for "subset" a type graph.  `budget` bounds the subset
    construction and Tirore's product check.  An unknown kind raises
    ValueError."""
    if kind == "subset":
        return project_subset(g, p, budget)
    if kind == "tbc":
        return project_tirore(g, p, budget)
    return project_inductive(g, p, kind)


def check_association(ctx: TypingContext, g: GlobalT, kind: str = FULL) -> bool:
    """dom(ctx) = pt(g) and ctx(p) <= projection(g, p) for every p.

    kind is one of KINDS; the projection must be defined for every
    participant (ProjUndefined propagates otherwise).
    """
    pts = participants(g)
    if set(ctx.participants()) != set(pts):
        return False
    return all(subtype_sim(t, project(g, p, kind)) for p, t in ctx.entries)


# ---------------------------------------------------------------------------
# Lower-bound families


# the least parameter of each family that takes a count
_LEAST_N = {"plain_nlogn": 0, "fullmerge_quadratic": 0, "fullmerge_nlog2": 0,
            "tirore_quadratic": 1}


def gen_lowerbound_family(name: str, n) -> GlobalT:
    """Worst-case global type families, one per lower-bound proof.  `n` is a
    count, at least _LEAST_N[name], or for cf_primes a non-empty list of
    loop lengths, each >= 1; a value outside its domain raises ValueError."""
    if name in _LEAST_N and n < _LEAST_N[name]:
        raise ValueError(f"{name}: n must be >= {_LEAST_N[name]}")
    if name == "plain_nlogn":
        # alternate a choice r does not see with a choice r receives, so the
        # plain merge at depth k compares branchy trees of size ~2^k
        g: GlobalT = GEnd()
        for _ in range(n):
            h = GChoice("r", "s", (("a", g), ("b", g)))
            g = GChoice("p", "q", (("l1", h), ("l2", h)))
        return g
    if name == "fullmerge_quadratic":
        g = GChoice("q", "p", (("k0", GEnd()),))
        for i in range(1, n + 1):
            g = GChoice("q", "r", (("l1", g), ("l2", GChoice("q", "p", ((f"k{i}", GEnd()),)))))
        return g
    if name == "fullmerge_nlog2":
        # a complete binary tree of p->q choices, n levels deep, over the
        # leaves p->r{m<j>: end} for j = 0 .. 2^n - 1, built level by level
        level = [GChoice("p", "r", ((f"m{j:06d}", GEnd()),)) for j in range(2 ** n)]
        while len(level) > 1:
            level = [GChoice("p", "q", (("l1", a), ("l2", b)))
                     for a, b in zip(level[::2], level[1::2])]
        return level[0]
    if name == "cf_primes":
        if not n or min(n) < 1:
            raise ValueError("cf_primes: needs one or more loop lengths, each >= 1")
        loops = []
        for i, ni in enumerate(n):
            body: GlobalT = GVar("t")
            for _ in range(ni - 1):
                body = GChoice("p", "q", (("a", body),))
            loops.append((f"l{i}", GRec("t", GChoice("p", "q", (("a", body), ("b", GEnd()))))))
        return GChoice("p", "r", branches(loops))
    if name == "tirore_quadratic":

        def chain(k, var):
            g: GlobalT = GVar(var)
            for _ in range(k):
                g = GMsg("p", "q", Sort("int"), g)
            return GRec(var, g)

        return GChoice("q", "r", (("l1", chain(n, "u")), ("l2", chain(n + 1, "v"))))
    raise ValueError(f"unknown family {name!r}")
